// wide_gen: generated ~200-table scenarios; one run is what
// `semap_map --resilient` does for one correspondence set — text →
// validate::LoadScenario → exec::RunResilientPipeline, serial, no
// deadline.
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "datasets/padding.h"
#include "eval/experiment.h"
#include "logic/parser.h"
#include "rng.h"
#include "util/budget.h"
#include "wide_gen.h"

namespace perfbench {

using semap::exec::DegradationTier;

semap::Result<ComposedRun> RunComposed(
    const semap::validate::LoadedScenario& scenario,
    semap::DiagnosticSink& sink, semap::obs::Metrics* metrics) {
  ComposedRun out;
  semap::obs::Tracer tracer;
  semap::exec::RunContext ctx;
  ctx.sink = &sink;
  ctx.tracer = &tracer;
  ctx.metrics = metrics;

  Clock::time_point t0 = Clock::now();
  auto prepared = semap::exec::PrepareResilientRun(
      scenario.source, scenario.target, scenario.correspondences, ctx);
  out.prepare_ns = NsBetween(t0, Clock::now());
  if (!prepared.ok()) return prepared.status();

  // RunResilientPipeline's cascade options for default pipeline options.
  semap::exec::TableCascadeOptions cascade;
  cascade.fault_after = semap::ResourceGovernor::FaultAfterFromEnv();

  semap::exec::ResilientResult& result = out.result;
  result.report.quarantined_correspondences =
      prepared->quarantined_correspondences;
  result.report.tables = std::move(prepared->quarantined_tables);
  semap::exec::MappingMerger merger(ctx);
  for (const auto& [table, group] : prepared->groups) {
    t0 = Clock::now();
    semap::exec::TableWork work = semap::exec::RunTableCascade(
        scenario.source, scenario.target, table, group, cascade, ctx);
    out.cascade_ns += NsBetween(t0, Clock::now());
    ++out.tables;
    if (auto it = prepared->quarantine_notes.find(table);
        it != prepared->quarantine_notes.end()) {
      work.outcome.notes.insert(work.outcome.notes.begin(), it->second.begin(),
                                it->second.end());
    }
    t0 = Clock::now();
    for (semap::exec::ResilientMapping& mapping : work.mappings) {
      if (!merger.Emit(std::move(mapping))) ++out.merge_dropped;
    }
    out.merge_ns += NsBetween(t0, Clock::now());
    if (work.outcome.tier != DegradationTier::kSemanticFull) ++out.degraded;
    result.report.tables.push_back(std::move(work.outcome));
  }
  result.mappings = std::move(merger.mappings());

  out.self_ns = SelfTimes(tracer);
  for (const semap::obs::SpanRecord& s : tracer.spans()) {
    if (s.name != "tier") continue;
    for (const auto& [key, value] : s.attrs) {
      const bool semantic =
          value == semap::exec::TierName(DegradationTier::kSemanticFull) ||
          value == semap::exec::TierName(DegradationTier::kSemanticRestricted);
      if (key == "tier" && semantic) ++out.semantic_calls;
    }
  }
  return out;
}

namespace {

constexpr int kSetupReps = 32;

/// A resilient result rendered with everything the cascade decides:
/// each mapping's tier, tgd and algebra, plus the degradation report.
std::string RenderResilient(const semap::exec::ResilientResult& result) {
  std::string out;
  for (const semap::exec::ResilientMapping& m : result.mappings) {
    out += std::string(semap::exec::TierName(m.tier)) + " " + m.target_table +
           ": " + m.tgd.ToString() + "\n" + m.source_algebra + "\n" +
           m.target_algebra + "\n";
  }
  return out + result.report.ToString();
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One untraced run: exactly the serial `semap_map --resilient` path.
semap::Result<semap::exec::ResilientResult> RunOnce(
    const semap::validate::ScenarioTexts& texts) {
  semap::DiagnosticSink sink;
  auto loaded = semap::validate::LoadScenario(texts, sink);
  if (!loaded.ok()) return loaded.status();
  semap::exec::RunContext ctx;
  ctx.sink = &sink;
  return semap::exec::RunResilientPipeline(loaded->source, loaded->target,
                                           loaded->correspondences, {}, ctx);
}

}  // namespace

bool RunWide(const Args& args, Report& rep) {
  // Set-up: generate the texts, several times; every repetition must give
  // the same bytes (the generator is deterministic in its seed).
  const WideShape shape;
  WideScenario scenario;
  const double setup_s = MedianSetupSeconds(args.trace ? 1 : kSetupReps, [&] {
    scenario = GenerateWide(shape, args.seed);
  });
  const uint64_t digest = Digest(scenario);
  if (Digest(GenerateWide(shape, args.seed)) != digest) {
    rep.Fail("generator is not deterministic");
  }
  rep.values.Set("setup_s", setup_s, "s");
  std::vector<semap::validate::ScenarioTexts> texts;
  for (size_t j = 0; j < scenario.sets.size(); ++j) {
    texts.push_back(WithSet(scenario, j));
  }
  rep.Fact("digest", Hex(digest));
  rep.Fact("source_tables", std::to_string(scenario.source_tables));
  rep.Fact("target_tables", std::to_string(scenario.target_tables));
  rep.Fact("correspondence_sets", std::to_string(scenario.sets.size()));
  rep.Fact("tables_per_set", "1.." + std::to_string(shape.max_tables_per_set));

  // Reference pass: each set's output must contain its construction
  // ground truth (constraint-aware tgd equivalence, eval::MatchesBenchmark)
  // and is kept as the bytes every later run must reproduce.
  std::vector<std::string> reference(texts.size());
  double precision_sum = 0, recall_sum = 0;
  for (size_t j = 0; j < texts.size(); ++j) {
    semap::DiagnosticSink sink;
    auto loaded = semap::validate::LoadScenario(texts[j], sink);
    if (!loaded.ok() || sink.has_errors()) {
      rep.Fail("generated " + scenario.sets[j].name +
               " does not load cleanly: " +
               (loaded.ok() ? sink.ToString() : loaded.status().ToString()));
      return false;
    }
    if (j == 0) {
      rep.Fact("source_cm_nodes",
               std::to_string(semap::data::CmNodeCount(loaded->source)));
      rep.Fact("target_cm_nodes",
               std::to_string(semap::data::CmNodeCount(loaded->target)));
    }
    semap::exec::RunContext ctx;
    ctx.sink = &sink;
    auto run = semap::exec::RunResilientPipeline(
        loaded->source, loaded->target, loaded->correspondences, {}, ctx);
    if (!run.ok()) {
      rep.Fail(scenario.sets[j].name + ": " + run.status().ToString());
      return false;
    }
    reference[j] = RenderResilient(*run);
    size_t found = 0;
    std::vector<bool> mapping_matched(run->mappings.size(), false);
    for (const std::string& truth_text : scenario.sets[j].truth) {
      auto truth = semap::logic::ParseTgd(truth_text);
      if (!truth.ok()) {
        rep.Fail("bad ground truth " + truth_text);
        return false;
      }
      bool hit = false;
      for (size_t m = 0; m < run->mappings.size(); ++m) {
        if (semap::eval::MatchesBenchmark(run->mappings[m].tgd, *truth,
                                          loaded->source, loaded->target)) {
          hit = true;
          mapping_matched[m] = true;
        }
      }
      if (hit) {
        ++found;
      } else {
        rep.Fail(scenario.sets[j].name +
                 ": ground truth not found: " + truth_text);
      }
    }
    size_t matched = 0;
    for (bool b : mapping_matched) matched += b ? 1 : 0;
    precision_sum += Ratio(static_cast<double>(matched),
                           static_cast<double>(run->mappings.size()));
    recall_sum += Ratio(static_cast<double>(found),
                        static_cast<double>(scenario.sets[j].truth.size()));
  }
  rep.values.Set("precision", precision_sum / static_cast<double>(texts.size()),
                 "ratio");
  rep.values.Set("recall", recall_sum / static_cast<double>(texts.size()),
                 "ratio");

  // Run order: passes of `pass_len` sets; every pass holds the same mix
  // of set sizes and motif kinds (set j touches 1 + j % 4 tables, kinds
  // from j % 3), so passes cost the same. Passes and their members run in
  // seeded order, each pass on the next CPU, and runs stop at a pass
  // boundary.
  const size_t pass_len =
      std::lcm(static_cast<size_t>(shape.max_tables_per_set), size_t{3});
  std::vector<size_t> order;
  Rng rng(args.seed);
  std::vector<size_t> passes(texts.size() / pass_len);
  for (size_t p = 0; p < passes.size(); ++p) passes[p] = p;
  rng.Shuffle(passes);
  for (size_t p : passes) {
    std::vector<size_t> members;
    for (size_t m = 0; m < pass_len; ++m) members.push_back(p * pass_len + m);
    rng.Shuffle(members);
    order.insert(order.end(), members.begin(), members.end());
  }

  auto check = [&](size_t j, const std::string& rendered) {
    ++rep.attempted;
    if (rendered != reference[j]) {
      ++rep.failed;
      rep.Fail(scenario.sets[j].name + ": output differs from the reference");
    }
  };
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(args.seconds);

  if (!args.trace) {
    std::vector<double> latencies_ms;
    CpuRotation cpus;
    for (size_t k = 0; k % pass_len != 0 || Clock::now() < deadline; ++k) {
      if (k % pass_len == 0) cpus.Next();
      const size_t j = order[k % order.size()];
      const Clock::time_point t0 = Clock::now();
      auto run = RunOnce(texts[j]);
      latencies_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
      check(j, run.ok() ? RenderResilient(*run) : run.status().ToString());
    }
    SetClosedLoopMetrics(latencies_ms, rep);
    rep.values.Set("failed_frac", Ratio(static_cast<double>(rep.failed),
                                        static_cast<double>(rep.attempted)),
                   "ratio");
    rep.values.Set("peak_rss_mb", PeakRssMb(), "MB");
    rep.Fact("passes", std::to_string(latencies_ms.size() / pass_len));
    return true;
  }

  // Traced: alternate an untraced run with a traced, composed run of the
  // same set. The composed run must reproduce RunResilientPipeline's
  // output (the reference) byte for byte.
  int64_t prepare_call_ns = 0;
  {
    semap::DiagnosticSink sink;
    auto loaded = semap::validate::LoadScenario(texts[0], sink);
    if (!loaded.ok()) return false;
    prepare_call_ns = PrepareNs(loaded->source, loaded->target);
  }
  semap::obs::Metrics metrics;
  std::map<std::string, int64_t> self_ns;
  double untraced_s = 0, traced_s = 0;
  double load_ns = 0, input_bytes = 0, exec_prepare_ns = 0, cascade_ns = 0,
         merge_ns = 0, prepare_total_ns = 0, tables = 0, degraded = 0,
         dropped = 0;
  int64_t traced_runs = 0;
  CpuRotation cpus;
  for (size_t k = 0; k % pass_len != 0 || Clock::now() < deadline; ++k) {
    if (k % pass_len == 0) cpus.Next();
    const size_t j = order[k % order.size()];
    Clock::time_point t0 = Clock::now();
    auto untraced = RunOnce(texts[j]);
    untraced_s += SecondsBetween(t0, Clock::now());
    check(j, untraced.ok() ? RenderResilient(*untraced)
                           : untraced.status().ToString());

    t0 = Clock::now();
    semap::DiagnosticSink sink;
    auto loaded = semap::validate::LoadScenario(texts[j], sink);
    const Clock::time_point t1 = Clock::now();
    if (!loaded.ok()) return false;
    auto composed = RunComposed(*loaded, sink, &metrics);
    traced_s += SecondsBetween(t0, Clock::now());
    ++traced_runs;
    check(j, composed.ok() ? RenderResilient(composed->result)
                           : composed.status().ToString());
    if (!composed.ok()) continue;
    load_ns += static_cast<double>(NsBetween(t0, t1));
    input_bytes += static_cast<double>(InputBytes(texts[j]));
    exec_prepare_ns += static_cast<double>(composed->prepare_ns);
    cascade_ns += static_cast<double>(composed->cascade_ns);
    merge_ns += static_cast<double>(composed->merge_ns);
    prepare_total_ns +=
        static_cast<double>(prepare_call_ns * composed->semantic_calls);
    tables += static_cast<double>(composed->tables);
    degraded += static_cast<double>(composed->degraded);
    dropped += static_cast<double>(composed->merge_dropped);
    for (const auto& [name, ns] : composed->self_ns) self_ns[name] += ns;
  }

  const double runs = static_cast<double>(traced_runs);
  const double wall_ns = traced_s * 1e9;
  double attributed_ns =
      load_ns + exec_prepare_ns + merge_ns + prepare_total_ns;
  for (const auto& [span, metric] : PhaseSpans()) {
    const double ns = static_cast<double>(self_ns[span]);
    attributed_ns += ns;
    rep.values.Set(metric, ns / runs, "ns");
  }
  rep.values.Set("rewriting.prepare_ns", prepare_total_ns / runs, "ns");
  rep.values.Set("rewriting.prepare_frac", Ratio(prepare_total_ns, wall_ns),
                 "ratio");
  SetCounterMetrics(metrics, runs, rep);
  rep.values.Set("exec.tables", tables / runs, "count");
  rep.values.Set("exec.tables_degraded", degraded / runs, "count");
  rep.values.Set("exec.merge_dropped", dropped / runs, "count");
  rep.values.Set("exec.prepare_ns", exec_prepare_ns / runs, "ns");
  rep.values.Set("exec.cascade_ns", cascade_ns / runs, "ns");
  rep.values.Set("exec.merge_ns", merge_ns / runs, "ns");
  rep.values.Set("validate.load_ns", load_ns / runs, "ns");
  rep.values.Set("validate.input_bytes", input_bytes / runs, "bytes");
  rep.values.Set("serve.cache_hit_frac", 0, "ratio");
  rep.values.Set("serve.artifact_compiles", 0, "count");
  rep.values.Set("serve.shed", 0, "count");
  rep.values.Set("serve.deadline_shed", 0, "count");
  rep.values.Set("unattributed_frac",
                 std::max(0.0, 1.0 - Ratio(attributed_ns, wall_ns)), "ratio");
  rep.values.Set("obs.trace_overhead_frac", Ratio(traced_s, untraced_s) - 1.0,
                 "ratio");
  rep.values.Set("run_ns_traced", wall_ns / runs, "ns");
  rep.Fact("traced_runs", std::to_string(traced_runs));
  return true;
}

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const WideShape shape;
  const WideScenario a = GenerateWide(shape, 1);
  const WideScenario b = GenerateWide(shape, 1);
  const WideScenario c = GenerateWide(shape, 2);
  std::printf("wide_gen digest seed 1: %s, seed 2: %s\n",
              Hex(Digest(a)).c_str(), Hex(Digest(c)).c_str());
  expect(a.texts.source_schema.text == b.texts.source_schema.text &&
             a.texts.target_sem.text == b.texts.target_sem.text &&
             Digest(a) == Digest(b),
         "same seed gives byte-identical texts");
  expect(a.texts.source_schema.text != c.texts.source_schema.text &&
             Digest(a) != Digest(c),
         "different seed gives different texts");
  expect(a.source_tables == c.source_tables &&
             a.target_tables == c.target_tables &&
             a.sets.size() == c.sets.size(),
         "the shape does not depend on the seed");
  for (const WideScenario* s : {&a, &c}) {
    semap::DiagnosticSink sink;
    auto loaded = semap::validate::LoadScenario(WithSet(*s, 0), sink);
    expect(loaded.ok() && !sink.has_errors(),
           "generated texts load without diagnostics errors");
  }
  return failures;
}

}  // namespace perfbench
