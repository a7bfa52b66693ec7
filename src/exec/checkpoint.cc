#include "exec/checkpoint.h"

#include <utility>

#include "obs/trace.h"  // obs::JsonEscape
#include "util/crc32.h"
#include "util/json.h"

namespace semap::exec {

namespace {

// --- fingerprint ---------------------------------------------------------

uint64_t Fnv1a(uint64_t hash, std::string_view text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  hash ^= 0x1f;  // field separator, so {"ab","c"} != {"a","bc"}
  hash *= 0x100000001b3ULL;
  return hash;
}

uint64_t HashSchema(uint64_t hash, const rel::RelationalSchema& schema) {
  hash = Fnv1a(hash, schema.name());
  for (const rel::Table& table : schema.tables()) {
    hash = Fnv1a(hash, table.name());
    for (const std::string& column : table.columns()) {
      hash = Fnv1a(hash, column);
    }
    for (const std::string& key : table.primary_key()) {
      hash = Fnv1a(hash, key);
    }
  }
  return hash;
}

// --- serialization -------------------------------------------------------

void EmitTerm(const logic::Term& term, std::string* out) {
  switch (term.kind) {
    case logic::TermKind::kVariable:
      *out += "{\"k\":\"v\",\"n\":\"" + obs::JsonEscape(term.name) + "\"}";
      return;
    case logic::TermKind::kConstant:
      *out += "{\"k\":\"c\",\"n\":\"" + obs::JsonEscape(term.name) + "\"}";
      return;
    case logic::TermKind::kFunction:
      *out += "{\"k\":\"f\",\"n\":\"" + obs::JsonEscape(term.name) +
              "\",\"a\":[";
      for (size_t i = 0; i < term.args.size(); ++i) {
        if (i > 0) *out += ",";
        EmitTerm(term.args[i], out);
      }
      *out += "]}";
      return;
  }
}

void EmitTerms(const std::vector<logic::Term>& terms, std::string* out) {
  *out += "[";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) *out += ",";
    EmitTerm(terms[i], out);
  }
  *out += "]";
}

void EmitCq(const logic::ConjunctiveQuery& cq, std::string* out) {
  *out += "{\"pred\":\"" + obs::JsonEscape(cq.head_predicate) + "\",\"head\":";
  EmitTerms(cq.head, out);
  *out += ",\"body\":[";
  for (size_t i = 0; i < cq.body.size(); ++i) {
    if (i > 0) *out += ",";
    *out += "{\"p\":\"" + obs::JsonEscape(cq.body[i].predicate) + "\",\"t\":";
    EmitTerms(cq.body[i].terms, out);
    *out += "}";
  }
  *out += "]}";
}

Result<logic::Term> ParseTerm(const json::Value& value);

Result<std::vector<logic::Term>> ParseTerms(const json::Value& value) {
  if (!value.is_array()) {
    return Status::ParseError("checkpoint: term list is not an array");
  }
  std::vector<logic::Term> terms;
  for (const json::Value& element : value.AsArray()) {
    auto term = ParseTerm(element);
    if (!term.ok()) return term.status();
    terms.push_back(std::move(*term));
  }
  return terms;
}

Result<logic::Term> ParseTerm(const json::Value& value) {
  if (!value.is_object()) {
    return Status::ParseError("checkpoint: term is not an object");
  }
  const std::string kind = value.GetString("k");
  const std::string name = value.GetString("n");
  if (kind == "v") return logic::Term::Var(name);
  if (kind == "c") return logic::Term::Const(name);
  if (kind == "f") {
    const json::Value* args = value.Find("a");
    std::vector<logic::Term> parsed;
    if (args != nullptr) {
      auto terms = ParseTerms(*args);
      if (!terms.ok()) return terms.status();
      parsed = std::move(*terms);
    }
    return logic::Term::Func(name, std::move(parsed));
  }
  return Status::ParseError("checkpoint: unknown term kind '" + kind + "'");
}

Result<logic::ConjunctiveQuery> ParseCq(const json::Value& value) {
  if (!value.is_object()) {
    return Status::ParseError("checkpoint: cq is not an object");
  }
  logic::ConjunctiveQuery cq;
  cq.head_predicate = value.GetString("pred", "ans");
  const json::Value* head = value.Find("head");
  if (head != nullptr) {
    auto terms = ParseTerms(*head);
    if (!terms.ok()) return terms.status();
    cq.head = std::move(*terms);
  }
  const json::Value* body = value.Find("body");
  if (body != nullptr) {
    if (!body->is_array()) {
      return Status::ParseError("checkpoint: cq body is not an array");
    }
    for (const json::Value& atom_value : body->AsArray()) {
      logic::Atom atom;
      atom.predicate = atom_value.GetString("p");
      const json::Value* terms_value = atom_value.Find("t");
      if (terms_value != nullptr) {
        auto terms = ParseTerms(*terms_value);
        if (!terms.ok()) return terms.status();
        atom.terms = std::move(*terms);
      }
      cq.body.push_back(std::move(atom));
    }
  }
  return cq;
}

Result<DegradationTier> TierFromName(const std::string& name) {
  for (DegradationTier tier :
       {DegradationTier::kSemanticFull, DegradationTier::kSemanticRestricted,
        DegradationTier::kRicBaseline, DegradationTier::kFailed,
        DegradationTier::kQuarantined}) {
    if (name == TierName(tier)) return tier;
  }
  return Status::ParseError("checkpoint: unknown tier '" + name + "'");
}

}  // namespace

uint64_t ScenarioFingerprint(
    const sem::AnnotatedSchema& source, const sem::AnnotatedSchema& target,
    const std::vector<disc::Correspondence>& correspondences) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV offset basis
  hash = HashSchema(hash, source.schema());
  hash = HashSchema(hash, target.schema());
  for (const disc::Correspondence& corr : correspondences) {
    hash = Fnv1a(hash, corr.ToString());
  }
  return hash;
}

std::string SerializeCheckpointUnit(const CheckpointedUnit& unit) {
  std::string out = "{\"record\":\"unit\",\"table\":\"" +
                    obs::JsonEscape(unit.outcome.target_table) + "\"";
  out += ",\"tier\":\"";
  out += TierName(unit.outcome.tier);
  out += "\"";
  out += ",\"notes\":[";
  for (size_t i = 0; i < unit.outcome.notes.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + obs::JsonEscape(unit.outcome.notes[i]) + "\"";
  }
  out += "],\"mappings\":[";
  for (size_t i = 0; i < unit.mappings.size(); ++i) {
    const ResilientMapping& m = unit.mappings[i];
    if (i > 0) out += ",";
    out += "{\"tier\":\"";
    out += TierName(m.tier);
    out += "\",\"table\":\"" + obs::JsonEscape(m.target_table) + "\"";
    out += ",\"src_alg\":\"" + obs::JsonEscape(m.source_algebra) + "\"";
    out += ",\"tgt_alg\":\"" + obs::JsonEscape(m.target_algebra) + "\"";
    out += ",\"covered\":[";
    for (size_t j = 0; j < m.covered.size(); ++j) {
      const disc::Correspondence& c = m.covered[j];
      if (j > 0) out += ",";
      out += "{\"st\":\"" + obs::JsonEscape(c.source.table) + "\",\"sc\":\"" +
             obs::JsonEscape(c.source.column) + "\",\"tt\":\"" +
             obs::JsonEscape(c.target.table) + "\",\"tc\":\"" +
             obs::JsonEscape(c.target.column) + "\"}";
    }
    out += "],\"tgd\":{\"source\":";
    EmitCq(m.tgd.source, &out);
    out += ",\"target\":";
    EmitCq(m.tgd.target, &out);
    out += "}}";
  }
  out += "],\"prov\":" + obs::TableProvenanceToJson(unit.provenance) + "}";
  // Trailing integrity member: CRC32 of the line as it stands (i.e. of
  // the line with the crc member removed). Catches the
  // truncated-but-still-valid-JSON tails a plain parse cannot.
  const std::string crc = Crc32Hex(Crc32(out));
  out.back() = ',';
  out += "\"crc\":\"" + crc + "\"}";
  return out;
}

namespace {

// `,"crc":"xxxxxxxx"}` — the exact tail SerializeCheckpointUnit appends.
constexpr size_t kCrcSuffixLen = 18;

/// Validate and strip the trailing crc member. Returns the line to parse,
/// or an error when the member is missing or the checksum does not match.
Result<std::string> CheckUnitLineCrc(const std::string& line) {
  if (line.size() < kCrcSuffixLen ||
      line.compare(line.size() - kCrcSuffixLen, 8, ",\"crc\":\"") != 0 ||
      line.compare(line.size() - 2, 2, "\"}") != 0) {
    return Status::ParseError("checkpoint: unit record has no crc32 member");
  }
  const std::string stated = line.substr(line.size() - 10, 8);
  std::string body = line.substr(0, line.size() - kCrcSuffixLen);
  body += "}";
  if (Crc32Hex(Crc32(body)) != stated) {
    return Status::ParseError(
        "checkpoint: unit record fails its crc32 check (torn or corrupt "
        "line)");
  }
  return body;
}

}  // namespace

Result<CheckpointedUnit> ParseCheckpointUnit(const std::string& line) {
  auto checked = CheckUnitLineCrc(line);
  if (!checked.ok()) return checked.status();
  auto doc = json::Parse(*checked);
  if (!doc.ok()) return doc.status();
  if (doc->GetString("record") != "unit") {
    return Status::ParseError("checkpoint: line is not a unit record");
  }
  CheckpointedUnit unit;
  unit.outcome.target_table = doc->GetString("table");
  if (unit.outcome.target_table.empty()) {
    return Status::ParseError("checkpoint: unit record lacks a table");
  }
  auto tier = TierFromName(doc->GetString("tier"));
  if (!tier.ok()) return tier.status();
  unit.outcome.tier = *tier;
  if (const json::Value* notes = doc->Find("notes"); notes != nullptr) {
    for (const json::Value& note : notes->AsArray()) {
      if (note.is_string()) unit.outcome.notes.push_back(note.AsString());
    }
  }
  if (const json::Value* mappings = doc->Find("mappings");
      mappings != nullptr) {
    for (const json::Value& entry : mappings->AsArray()) {
      ResilientMapping mapping;
      auto mapping_tier = TierFromName(entry.GetString("tier"));
      if (!mapping_tier.ok()) return mapping_tier.status();
      mapping.tier = *mapping_tier;
      mapping.target_table = entry.GetString("table");
      mapping.source_algebra = entry.GetString("src_alg");
      mapping.target_algebra = entry.GetString("tgt_alg");
      if (const json::Value* covered = entry.Find("covered");
          covered != nullptr) {
        for (const json::Value& c : covered->AsArray()) {
          disc::Correspondence corr;
          corr.source.table = c.GetString("st");
          corr.source.column = c.GetString("sc");
          corr.target.table = c.GetString("tt");
          corr.target.column = c.GetString("tc");
          mapping.covered.push_back(std::move(corr));
        }
      }
      const json::Value* tgd = entry.Find("tgd");
      if (tgd == nullptr) {
        return Status::ParseError("checkpoint: mapping lacks a tgd");
      }
      const json::Value* source_cq = tgd->Find("source");
      const json::Value* target_cq = tgd->Find("target");
      if (source_cq == nullptr || target_cq == nullptr) {
        return Status::ParseError("checkpoint: tgd lacks source/target");
      }
      auto source = ParseCq(*source_cq);
      if (!source.ok()) return source.status();
      auto target = ParseCq(*target_cq);
      if (!target.ok()) return target.status();
      mapping.tgd.source = std::move(*source);
      mapping.tgd.target = std::move(*target);
      unit.mappings.push_back(std::move(mapping));
    }
  }
  unit.outcome.mappings = unit.mappings.size();
  const json::Value* prov = doc->Find("prov");
  if (prov == nullptr) {
    return Status::ParseError("checkpoint: unit record lacks provenance");
  }
  auto provenance = obs::TableProvenanceFromJson(*prov);
  if (!provenance.ok()) return provenance.status();
  unit.provenance = std::move(*provenance);
  return unit;
}

namespace {

void AddWarning(std::string* warning, const std::string& note) {
  if (warning == nullptr) return;
  if (!warning->empty()) *warning += "; ";
  *warning += note;
}

}  // namespace

Result<CheckpointJournal> CheckpointJournal::Create(std::string path,
                                                    uint64_t fingerprint,
                                                    store::Env* env) {
  SEMAP_ASSIGN_OR_RETURN(
      store::MappingStore store,
      store::MappingStore::Create(std::move(path), fingerprint, env));
  SEMAP_RETURN_NOT_OK(store.PutMeta("format", kCheckpointSchema));
  return CheckpointJournal(std::move(store));
}

Result<CheckpointJournal> CheckpointJournal::Resume(
    std::string path, uint64_t fingerprint,
    std::vector<CheckpointedUnit>* completed, std::string* warning,
    store::Env* env) {
  auto opened = store::MappingStore::Open(path, fingerprint, env);
  if (!opened.ok()) {
    if (opened.status().code() == StatusCode::kInvalidArgument) {
      return Status::InvalidArgument(
          "checkpoint: " + path +
          " was written for different inputs (fingerprint mismatch); delete "
          "it or rerun without --resume");
    }
    return opened.status();
  }
  store::MappingStore store = std::move(opened).ValueOrDie();
  if (!store.warning().empty()) {
    AddWarning(warning, "checkpoint: " + store.warning());
  }
  for (const auto& [table, line] : store.units()) {
    auto unit = ParseCheckpointUnit(line);
    if (!unit.ok()) {
      // Frames are CRC-checked, so an unparsable unit is a writer bug,
      // not crash damage; drop just that table and recompute it.
      AddWarning(warning, "checkpoint: dropped unreadable unit for table '" +
                              table + "' (" + unit.status().message() + ")");
      continue;
    }
    completed->push_back(std::move(*unit));
  }
  return CheckpointJournal(std::move(store));
}

Status CheckpointJournal::Append(const CheckpointedUnit& unit) {
  return store_.PutUnit(unit.outcome.target_table,
                        SerializeCheckpointUnit(unit));
}

}  // namespace semap::exec
