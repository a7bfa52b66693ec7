#include "wide_gen.h"

#include <algorithm>
#include <utility>

#include "rng.h"

namespace perfbench {

namespace {

/// The statements of one schema side, kept apart so the seed can shuffle
/// declaration order.
struct Side {
  std::vector<std::string> cm;
  std::vector<std::string> tables;
  std::vector<std::string> sems;
};

/// A class a padding concept can hang off: its CM name, its table and the
/// table's (single) key column, which is also the class's key attribute.
struct Anchor {
  std::string cls;
  std::string table;
  std::string key;
};

struct Motif {
  std::string correspondences;
  std::string target_table;
  std::string truth;
};

enum Kind { kCompose = 0, kChain = 1, kIsa = 2, kKinds = 3 };

Motif Compose(const std::string& t, Side& src, Side& tgt) {
  src.cm.push_back("class PA_" + t + " { k key; n; }");
  src.cm.push_back("class BA_" + t + " { k key; }");
  src.cm.push_back("class SA_" + t + " { k key; n; }");
  src.cm.push_back("rel wrA_" + t + " PA_" + t + " -- BA_" + t +
                   " fwd 0..* inv 1..*;");
  src.cm.push_back("rel soA_" + t + " BA_" + t + " -- SA_" + t +
                   " fwd 0..* inv 0..*;");
  src.tables.push_back("table pa_" + t + "(k, n) key(k);");
  src.tables.push_back("table ba_" + t + "(k) key(k);");
  src.tables.push_back("table sa_" + t + "(k, n) key(k);");
  src.tables.push_back("table wa_" + t +
                       "(pk, bk) key(pk, bk)\n  fk (pk) -> pa_" + t +
                       "(k)\n  fk (bk) -> ba_" + t + "(k);");
  src.tables.push_back("table oa_" + t +
                       "(bk, sk) key(bk, sk)\n  fk (bk) -> ba_" + t +
                       "(k)\n  fk (sk) -> sa_" + t + "(k);");
  src.sems.push_back("semantics pa_" + t + " { node p: PA_" + t +
                     "; anchor p; col k -> p.k; col n -> p.n; }");
  src.sems.push_back("semantics ba_" + t + " { node b: BA_" + t +
                     "; anchor b; col k -> b.k; }");
  src.sems.push_back("semantics sa_" + t + " { node s: SA_" + t +
                     "; anchor s; col k -> s.k; col n -> s.n; }");
  src.sems.push_back("semantics wa_" + t + " {\n  node p: PA_" + t +
                     "; node b: BA_" + t + ";\n  edge wrA_" + t +
                     " p b; anchor wrA_" + t +
                     "$0;\n  col pk -> p.k; col bk -> b.k;\n}");
  src.sems.push_back("semantics oa_" + t + " {\n  node b: BA_" + t +
                     "; node s: SA_" + t + ";\n  edge soA_" + t +
                     " b s; anchor soA_" + t +
                     "$0;\n  col bk -> b.k; col sk -> s.k;\n}");

  tgt.cm.push_back("class AU_" + t + " { k key; n; }");
  tgt.cm.push_back("class ST_" + t + " { k key; n; }");
  tgt.cm.push_back("rel hbR_" + t + " AU_" + t + " -- ST_" + t +
                   " fwd 0..* inv 0..*;");
  tgt.tables.push_back("table au_" + t + "(k, n) key(k);");
  tgt.tables.push_back("table st_" + t + "(k, n) key(k);");
  tgt.tables.push_back("table hb_" + t +
                       "(ak, sk) key(ak, sk)\n  fk (ak) -> au_" + t +
                       "(k)\n  fk (sk) -> st_" + t + "(k);");
  tgt.sems.push_back("semantics au_" + t + " { node a: AU_" + t +
                     "; anchor a; col k -> a.k; col n -> a.n; }");
  tgt.sems.push_back("semantics st_" + t + " { node s: ST_" + t +
                     "; anchor s; col k -> s.k; col n -> s.n; }");
  tgt.sems.push_back("semantics hb_" + t + " {\n  node a: AU_" + t +
                     "; node s: ST_" + t + ";\n  edge hbR_" + t +
                     " a s; anchor hbR_" + t +
                     "$0;\n  col ak -> a.k; col sk -> s.k;\n}");

  Motif m;
  m.correspondences = "pa_" + t + ".k <-> hb_" + t + ".ak;\nsa_" + t +
                      ".k <-> hb_" + t + ".sk;\n";
  m.target_table = "hb_" + t;
  m.truth = "pa_" + t + "(w0, x1), wa_" + t + "(w0, b), oa_" + t +
            "(b, w1), sa_" + t + "(w1, x2) -> hb_" + t + "(w0, w1)";
  return m;
}

Motif Chain(const std::string& t, Side& src, Side& tgt) {
  src.cm.push_back("class PR_" + t + " { k key; n; }");
  src.cm.push_back("class DP_" + t + " { k key; n; }");
  src.cm.push_back("class EM_" + t + " { k key; n; }");
  src.cm.push_back("rel cbR_" + t + " PR_" + t + " -- DP_" + t +
                   " fwd 1..1 inv 0..*;");
  src.cm.push_back("rel hmR_" + t + " DP_" + t + " -- EM_" + t +
                   " fwd 0..1 inv 0..*;");
  src.tables.push_back("table pr_" + t + "(k, n, dk) key(k)\n  fk (dk) -> dp_" +
                       t + "(k);");
  src.tables.push_back("table dp_" + t + "(k, n, ek) key(k)\n  fk (ek) -> em_" +
                       t + "(k);");
  src.tables.push_back("table em_" + t + "(k, n) key(k);");
  src.sems.push_back("semantics pr_" + t + " {\n  node p: PR_" + t +
                     "; node d: DP_" + t + ";\n  edge cbR_" + t +
                     " p d; anchor p;\n  col k -> p.k; col n -> p.n; col dk "
                     "-> d.k;\n}");
  src.sems.push_back("semantics dp_" + t + " {\n  node d: DP_" + t +
                     "; node e: EM_" + t + ";\n  edge hmR_" + t +
                     " d e; anchor d;\n  col k -> d.k; col n -> d.n; col ek "
                     "-> e.k;\n}");
  src.sems.push_back("semantics em_" + t + " { node e: EM_" + t +
                     "; anchor e; col k -> e.k; col n -> e.n; }");

  tgt.cm.push_back("class PJ_" + t + " { k key; }");
  tgt.cm.push_back("class DT_" + t + " { k key; }");
  tgt.cm.push_back("class EP_" + t + " { k key; }");
  tgt.cm.push_back("rel inR_" + t + " PJ_" + t + " -- DT_" + t +
                   " fwd 1..1 inv 0..*;");
  tgt.cm.push_back("rel mbR_" + t + " DT_" + t + " -- EP_" + t +
                   " fwd 0..1 inv 0..*;");
  tgt.tables.push_back("table pj_" + t + "(k, dk, ek) key(k);");
  tgt.sems.push_back("semantics pj_" + t + " {\n  node p: PJ_" + t +
                     "; node d: DT_" + t + "; node e: EP_" + t +
                     ";\n  edge inR_" + t + " p d; edge mbR_" + t +
                     " d e; anchor p;\n  col k -> p.k; col dk -> d.k; col ek "
                     "-> e.k;\n}");

  Motif m;
  m.correspondences = "pr_" + t + ".k <-> pj_" + t + ".k;\npr_" + t +
                      ".dk <-> pj_" + t + ".dk;\ndp_" + t + ".ek <-> pj_" + t +
                      ".ek;\n";
  m.target_table = "pj_" + t;
  m.truth = "pr_" + t + "(w0, x1, w1), dp_" + t + "(w1, x2, w2) -> pj_" + t +
            "(w0, w1, w2)";
  return m;
}

Motif Isa(const std::string& t, Side& src, Side& tgt) {
  src.cm.push_back("class EE_" + t + " { k key; n; }");
  src.cm.push_back("class EG_" + t + " { st; }");
  src.cm.push_back("class PG_" + t + " { ac; }");
  src.cm.push_back("isa EG_" + t + " -> EE_" + t + ";");
  src.cm.push_back("isa PG_" + t + " -> EE_" + t + ";");
  src.cm.push_back("covers EE_" + t + " = EG_" + t + ", PG_" + t + ";");
  src.tables.push_back("table pg_" + t + "(k, n, ac) key(k);");
  src.tables.push_back("table eg_" + t + "(k, n, st) key(k);");
  src.sems.push_back("semantics pg_" + t + " {\n  node p: PG_" + t +
                     "; node e: EE_" + t +
                     ";\n  edge isa p e; anchor p;\n  col k -> e.k; col n -> "
                     "e.n; col ac -> p.ac;\n}");
  src.sems.push_back("semantics eg_" + t + " {\n  node g: EG_" + t +
                     "; node e: EE_" + t +
                     ";\n  edge isa g e; anchor g;\n  col k -> e.k; col n -> "
                     "e.n; col st -> g.st;\n}");

  tgt.cm.push_back("class TE_" + t + " { id key; n; }");
  tgt.cm.push_back("class TG_" + t + " { st; }");
  tgt.cm.push_back("class TP_" + t + " { ac; }");
  tgt.cm.push_back("isa TG_" + t + " -> TE_" + t + ";");
  tgt.cm.push_back("isa TP_" + t + " -> TE_" + t + ";");
  tgt.cm.push_back("covers TE_" + t + " = TG_" + t + ", TP_" + t + ";");
  tgt.tables.push_back("table ee_" + t + "(id, n, st, ac) key(id);");
  tgt.sems.push_back("semantics ee_" + t + " {\n  node e: TE_" + t +
                     "; node g: TG_" + t + "; node p: TP_" + t +
                     ";\n  edge isa g e; edge isa p e; anchor e;\n  col id -> "
                     "e.id; col n -> e.n; col st -> g.st; col ac -> p.ac;\n}");

  Motif m;
  m.correspondences = "eg_" + t + ".n <-> ee_" + t + ".n;\neg_" + t +
                      ".st <-> ee_" + t + ".st;\npg_" + t + ".ac <-> ee_" + t +
                      ".ac;\n";
  m.target_table = "ee_" + t;
  m.truth = "eg_" + t + "(s, w0, w1), pg_" + t + "(s, x1, w2) -> ee_" + t +
            "(e, w0, w1, w2)";
  return m;
}

/// `count` padding classes hanging off `anchors` in turn; the first one
/// also links to the side's hub class. The anchors do not depend on the
/// seed: padding next to a motif adds search work, so it is part of the
/// shape.
void Pad(const std::string& t, const std::string& prefix, int count,
         const std::vector<Anchor>& anchors, Side& side) {
  const std::string upper(1, static_cast<char>(prefix[0] - 'a' + 'A'));
  for (int j = 0; j < count; ++j) {
    const Anchor& a = anchors[static_cast<size_t>(j) % anchors.size()];
    const std::string cls = upper + std::to_string(j) + "_" + t;
    const std::string table = prefix + std::to_string(j) + "_" + t;
    const std::string rel = prefix + "R" + std::to_string(j) + "_" + t;
    const bool hub = j == 0;
    side.cm.push_back("class " + cls + " { k key; n; }");
    side.cm.push_back("rel " + rel + " " + cls + " -- " + a.cls +
                      " fwd 1..1 inv 0..*;");
    if (hub) {
      side.cm.push_back("rel " + prefix + "H_" + t + " " + cls +
                        " -- HUB fwd 0..1 inv 0..*;");
    }
    side.tables.push_back("table " + table + "(k, n, ak" +
                          (hub ? ", hk" : "") + ") key(k)\n  fk (ak) -> " +
                          a.table + "(" + a.key + ")" +
                          (hub ? "\n  fk (hk) -> hub(k)" : "") + ";");
    side.sems.push_back(
        "semantics " + table + " {\n  node x: " + cls + "; node a: " + a.cls +
        ";" + (hub ? " node h: HUB;" : "") + "\n  edge " + rel + " x a;" +
        (hub ? " edge " + prefix + "H_" + t + " x h;" : "") +
        " anchor x;\n  col k -> x.k; col n -> x.n; col ak -> a." + a.key + ";" +
        (hub ? " col hk -> h.k;" : "") + "\n}");
  }
}

std::string Join(const std::string& header, const std::vector<std::string>& v) {
  std::string out = header;
  for (const std::string& s : v) out += s + "\n";
  return out;
}

}  // namespace

WideScenario GenerateWide(const WideShape& shape, uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x5851f42d4c957f2dULL);
  Side src;
  Side tgt;
  for (Side* side : {&src, &tgt}) {
    side->cm.push_back("class HUB { k key; }");
    side->tables.push_back("table hub(k) key(k);");
    side->sems.push_back(
        "semantics hub { node h: HUB; anchor h; col k -> h.k; }");
  }

  // motifs[kind][module]
  std::vector<std::vector<Motif>> motifs(kKinds);
  for (int i = 0; i < shape.modules; ++i) {
    // A seeded three-letter tag plus the module index: unique, and
    // different under every seed.
    std::string t;
    for (int c = 0; c < 3; ++c) t += static_cast<char>('a' + rng.Below(26));
    t += std::to_string(i);
    motifs[kCompose].push_back(Compose(t, src, tgt));
    motifs[kChain].push_back(Chain(t, src, tgt));
    motifs[kIsa].push_back(Isa(t, src, tgt));
    Pad(t, "x", shape.source_padding,
        {{"PA_" + t, "pa_" + t, "k"}, {"BA_" + t, "ba_" + t, "k"},
         {"SA_" + t, "sa_" + t, "k"}, {"PR_" + t, "pr_" + t, "k"},
         {"DP_" + t, "dp_" + t, "k"}, {"EM_" + t, "em_" + t, "k"}},
        src);
    Pad(t, "y", shape.target_padding,
        {{"AU_" + t, "au_" + t, "k"}, {"ST_" + t, "st_" + t, "k"},
         {"PJ_" + t, "pj_" + t, "k"}, {"TE_" + t, "ee_" + t, "id"}},
        tgt);
  }

  WideScenario out;
  out.source_tables = src.tables.size();
  out.target_tables = tgt.tables.size();
  for (Side* side : {&src, &tgt}) {
    rng.Shuffle(side->tables);
    rng.Shuffle(side->sems);
  }
  out.texts.source_schema.text = Join("schema wide_src;\n", src.tables);
  out.texts.source_cm.text = Join("cm wide_src_cm;\n", src.cm);
  out.texts.source_sem.text = Join("", src.sems);
  out.texts.target_schema.text = Join("schema wide_tgt;\n", tgt.tables);
  out.texts.target_cm.text = Join("cm wide_tgt_cm;\n", tgt.cm);
  out.texts.target_sem.text = Join("", tgt.sems);

  // Set j touches 1 + j % max_tables_per_set motifs of consecutive kinds
  // starting at j % 3, each from a distinct seeded module.
  const int per_set_max = std::min(shape.max_tables_per_set, shape.modules);
  for (int j = 0; j < shape.sets; ++j) {
    const int k = 1 + j % per_set_max;
    std::vector<size_t> modules(static_cast<size_t>(shape.modules));
    for (size_t i = 0; i < modules.size(); ++i) modules[i] = i;
    rng.Shuffle(modules);
    WideSet set;
    set.name = "set" + std::to_string(j);
    for (int m = 0; m < k; ++m) {
      const Motif& motif = motifs[static_cast<size_t>((j + m) % kKinds)]
                                 [modules[static_cast<size_t>(m)]];
      set.correspondences += motif.correspondences;
      set.target_tables.push_back(motif.target_table);
      set.truth.push_back(motif.truth);
    }
    out.sets.push_back(std::move(set));
  }
  return out;
}

semap::validate::ScenarioTexts WithSet(const WideScenario& scenario,
                                       size_t set) {
  semap::validate::ScenarioTexts texts = scenario.texts;
  texts.correspondences.text = scenario.sets[set].correspondences;
  return texts;
}

uint64_t Digest(const WideScenario& scenario) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // separator, so ("ab","c") and ("a","bc") differ
    h *= 0x100000001b3ULL;
  };
  const semap::validate::ScenarioTexts& t = scenario.texts;
  for (const auto* a : {&t.source_schema, &t.source_cm, &t.source_sem,
                        &t.target_schema, &t.target_cm, &t.target_sem}) {
    mix(a->text);
  }
  for (const WideSet& set : scenario.sets) {
    mix(set.correspondences);
    for (const std::string& truth : set.truth) mix(truth);
  }
  return h;
}

}  // namespace perfbench
