// Mapping provenance: why each emitted TGD exists and why pruned
// candidates do not.
//
// A ProvenanceRecorder hangs off exec::RunContext (like the Tracer and
// Metrics) and captures, per target table, a DerivationRecord for every
// mapping the pipeline emits — the covered correspondences, the chosen
// CSG pair, the Skolem-merge decisions, the execution tier — plus a
// *bounded* RejectionRecord log for candidates killed on the way (which
// filter killed each: disjointness, semantic-type, penalty ranking,
// candidate cap, budget truncation, empty rewriting) and the cascade's
// tier-attempt history. The JSON export (ToJson) is the semap.explain.v1
// format read by tools/semap_explain; it contains no timestamps, so the
// same run always serializes to the same bytes.
//
// Determinism under concurrency: recorders are single-threaded like the
// Tracer. exec::RunResilientPipeline gives each work unit a private
// recorder and MergeFrom()s them into the run recorder at assembly, in
// sorted table order; tables() is itself name-sorted, so --jobs=N explain
// output is byte-identical to --jobs=1.
//
// Disabled provenance is the default and costs nothing: every call site
// guards on a null ProvenanceRecorder* before rendering any string, so an
// empty RunContext skips the work entirely.
//
// This header depends only on the standard library (no discovery/logic
// types): callers render candidates, correspondences and TGDs to text
// before recording, which keeps obs/ at the bottom of the layering under
// exec/run_context.h.
#ifndef SEMAP_OBS_PROVENANCE_H_
#define SEMAP_OBS_PROVENANCE_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util/result.h"

namespace semap::json {
class Value;
}  // namespace semap::json

namespace semap::obs {

/// \brief One Skolem function the emitted TGD's target side applies, with
/// the merge decision its name encodes (rewriting/inverse_rules.h):
/// "key-merge" for id_<Class> terms (instances merged on a composite
/// key), "table-local" for sk_<table>_<var> terms (unidentified concept,
/// no cross-table merge).
struct SkolemDecision {
  std::string function;
  std::string kind;
};

/// \brief Why one emitted mapping exists: the winning candidate replayed.
struct DerivationRecord {
  std::string tgd;  // rendered TGD; the key ConfirmEmitted matches on
  /// Which stage produced it: "semantic" or "ric-baseline" (a resumed
  /// run restores the journaled record, origin included).
  std::string origin = "semantic";
  /// Execution tier that produced it (TierName), stamped when the merger
  /// accepts the mapping.
  std::string tier;
  /// False until the cross-table merger accepted it; a recorded
  /// derivation that stays unemitted carries drop_reason instead.
  bool emitted = false;
  std::string drop_reason;
  std::vector<std::string> covered;  // rendered correspondences
  std::string source_csg;            // chosen CSG pair / s-tree nodes
  std::string target_csg;
  int penalty = 0;
  size_t variants = 0;  // alternative renderings the candidate produced
  std::vector<SkolemDecision> skolems;
  std::string source_algebra;
  std::string target_algebra;
};

/// \brief Why one pruned candidate does not appear in the output.
struct RejectionRecord {
  std::string candidate;  // rendered candidate (or CSG, for tree prunes)
  /// The killing filter: "disjointness", "semantic-type", "penalty",
  /// "candidate-cap", "budget", "no-rewriting", "duplicate".
  std::string filter;
  std::string detail;
  /// Cascade position when the prune happened (TierName + 1-based
  /// attempt); empty/0 outside a cascade.
  std::string tier;
  size_t attempt = 0;
  size_t covered = 0;  // correspondences the candidate would have covered
  int penalty = 0;
};

/// \brief One governed tier attempt of the degradation cascade.
struct AttemptRecord {
  std::string tier;
  size_t attempt = 0;  // 1-based within the tier
  /// "ok" (mappings found), "empty" (clean no-mappings answer),
  /// "exhausted" (budget/deadline/fault), "error".
  std::string status;
  std::string detail;
  size_t mappings = 0;
};

/// \brief Everything recorded about one target table.
struct TableProvenance {
  std::string table;
  std::string tier;  // final TierName once the outcome is recorded
  std::vector<std::string> notes;
  std::vector<AttemptRecord> attempts;
  std::vector<DerivationRecord> derivations;
  std::vector<RejectionRecord> rejections;
  /// Rejections discarded once the per-table bound was hit.
  size_t rejections_dropped = 0;
};

/// \brief Collects the provenance of one run (or one work unit).
class ProvenanceRecorder {
 public:
  /// `max_rejections_per_table` bounds the rejection log: combinatorial
  /// scenarios can prune thousands of candidates and the explain file
  /// must stay readable. Overflow is counted, never silently dropped.
  explicit ProvenanceRecorder(size_t max_rejections_per_table = 64)
      : max_rejections_(max_rejections_per_table) {}
  ProvenanceRecorder(const ProvenanceRecorder&) = delete;
  ProvenanceRecorder& operator=(const ProvenanceRecorder&) = delete;

  /// Scope the records that follow to `table` (the cascade calls this at
  /// entry). Records made outside any scope land under the "" table.
  void BeginTable(const std::string& table);
  void EndTable();

  /// Stamp the records that follow with the cascade position (TierName,
  /// 1-based attempt). Reset by EndTable.
  void BeginAttempt(const std::string& tier, size_t attempt);

  void RecordAttempt(AttemptRecord attempt);
  void RecordRejection(RejectionRecord rejection);
  void RecordDerivation(DerivationRecord derivation);

  /// Final cascade outcome for `table` (works outside any scope: the
  /// pipeline records outcomes at assembly).
  void RecordOutcome(const std::string& table, const std::string& tier,
                     const std::vector<std::string>& notes);

  /// The cross-table merger accepted this mapping: mark its derivation
  /// emitted and stamp the tier. A confirmation without a recorded
  /// derivation creates a stub (origin "unknown"), so "one derivation per
  /// emitted TGD" holds by construction.
  void ConfirmEmitted(const std::string& table, const std::string& tgd,
                      const std::string& tier);
  /// The merger discarded this mapping (unsafe TGD, cross-table
  /// duplicate): keep the derivation, record why it was dropped.
  void MarkDropped(const std::string& table, const std::string& tgd,
                   const std::string& reason);

  /// Fold a work unit's private recorder into this one. Call in sorted
  /// table order for export bytes independent of completion order.
  void MergeFrom(const ProvenanceRecorder& other);

  /// Fold one externally reconstructed table record into this one —
  /// MergeFrom for a single table, used when a resume restores a unit's
  /// journaled provenance (exec/checkpoint.h) instead of a live
  /// recorder. Same bounding and accumulation rules as MergeFrom.
  void AdoptTable(const TableProvenance& table);

  const std::map<std::string, TableProvenance>& tables() const {
    return tables_;
  }

  /// semap.explain.v1: {"schema":...,"tables":[...]} sorted by table
  /// name, timestamp-free — deterministic for identical runs.
  std::string ToJson() const;

 private:
  TableProvenance& Current();
  void MergeTable(const TableProvenance& theirs);
  TableProvenance& For(const std::string& table);
  DerivationRecord& DerivationFor(const std::string& table,
                                  const std::string& tgd);

  size_t max_rejections_;
  std::string current_table_;
  std::string current_tier_;
  size_t current_attempt_ = 0;
  std::map<std::string, TableProvenance> tables_;
};

/// One table's provenance as the JSON object semap.explain.v1 embeds in
/// its "tables" array — byte-identical to that export, so a unit record
/// journaled at completion and restored on resume reproduces the explain
/// output exactly.
std::string TableProvenanceToJson(const TableProvenance& table);

/// Inverse of TableProvenanceToJson on an already-parsed object
/// (util/json.h). Unknown members are ignored; missing ones default.
Result<TableProvenance> TableProvenanceFromJson(const json::Value& value);

/// \brief RAII table scope on a nullable recorder: the canonical cascade
/// call site. Null recorder = inert.
class ProvenanceTableScope {
 public:
  ProvenanceTableScope(ProvenanceRecorder* recorder, const std::string& table)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->BeginTable(table);
  }
  ~ProvenanceTableScope() {
    if (recorder_ != nullptr) recorder_->EndTable();
  }
  ProvenanceTableScope(const ProvenanceTableScope&) = delete;
  ProvenanceTableScope& operator=(const ProvenanceTableScope&) = delete;

 private:
  ProvenanceRecorder* recorder_;
};

}  // namespace semap::obs

#endif  // SEMAP_OBS_PROVENANCE_H_
