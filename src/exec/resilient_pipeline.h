// Resilient mapping pipeline: per-table graceful degradation from the
// paper's semantic technique down to the RIC-based (Clio-style) baseline.
//
// The semantic discovery is the high-fidelity but combinatorial path; the
// RIC baseline is cheaper and always terminates on the same inputs. This
// pipeline exploits that asymmetry: correspondences are grouped by target
// table and each group runs a degradation cascade —
//
//   tier 0  full semantic discovery
//   tier 1  restricted semantic discovery (no lossy joins, tighter tree
//           caps) under a halved budget
//   tier 2  RIC baseline (the lifeline: exempt from step budgets and
//           fault injection, deadline-only)
//
// Every governed tier runs under a ResourceGovernor slice of the overall
// deadline/step budget and is retried under exponentially shrinking step
// budgets before the cascade moves down a tier. The DegradationReport
// records, per target table, which tier produced the result and why the
// higher tiers were abandoned, so operators can tell a degraded answer
// from a full one.
//
// Each table's cascade is one supervised work unit. RunResilientPipeline
// runs the units inline on the calling thread (jobs = 1, the default) or
// on a worker pool, and wraps each in:
//
//   * isolation  — every unit attempt runs under its own child
//     RunContext: a private governor slice (parent of the cascade's tier
//     governors), a private DiagnosticSink, a private Tracer (absorbed
//     into the run trace as a `unit/<table>` span), private Metrics and a
//     private ProvenanceRecorder, merged after completion.
//   * watchdog   — with unit_deadline_ms, a watchdog thread Cancels the
//     governor of any unit that overstays its deadline, so the cascade
//     unwinds at its next charge. Cancellation is cooperative: it
//     interrupts governed loops, not arbitrary code.
//   * retry      — a unit that lost its semantic tiers to exhaustion
//     (budget, deadline, injected fault — the transient failures) is run
//     up to unit_attempts times under capped exponential backoff with
//     seeded deterministic jitter (util/backoff.h). Clean empty answers
//     and real errors are final.
//   * breaker    — after breaker_threshold *consecutive* units lose their
//     semantic tiers, every unit started afterwards skips straight to the
//     RIC tier instead of grinding through more timeouts.
//   * checkpoint — with a checkpoint path, every completed unit is
//     appended to a crash-safe journal (exec/checkpoint.h); a killed run
//     restarted with resume = true skips finished tables and merges their
//     cached mappings into an identical final mapping set.
//
// Determinism: units are merged in sorted table order whatever order they
// complete in, so any jobs count produces the same mapping set,
// degradation report and explain output on a fault-free run.
//
// Deterministic fault injection for tests: options.fault_after (or the
// SEMAP_FAULT_AFTER environment variable) forces kResourceExhausted in
// the semantic tiers after that many charged steps; the cascade must then
// fall back to the baseline rather than crash or return a malformed
// result.
#ifndef SEMAP_EXEC_RESILIENT_PIPELINE_H_
#define SEMAP_EXEC_RESILIENT_PIPELINE_H_

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "baseline/ric_mapper.h"
#include "exec/run_context.h"
#include "rewriting/semantic_mapper.h"
#include "util/backoff.h"
#include "util/diag.h"
#include "util/result.h"

namespace semap::store {
class Env;
}  // namespace semap::store

namespace semap::exec {

enum class DegradationTier {
  kSemanticFull = 0,
  kSemanticRestricted = 1,
  kRicBaseline = 2,
  kFailed = 3,
  /// Fail-soft loading put this table's inputs aside (dangling
  /// correspondences): no tier ran at all.
  kQuarantined = 4,
};

const char* TierName(DegradationTier tier);

/// \brief Per-target-table cascade outcome.
struct TableOutcome {
  std::string target_table;
  DegradationTier tier = DegradationTier::kFailed;
  size_t mappings = 0;
  /// Why higher tiers were abandoned (governor statuses, truncation
  /// notes), in cascade order.
  std::vector<std::string> notes;
};

struct DegradationReport {
  std::vector<TableOutcome> tables;
  /// Correspondences dropped by fail-soft validation before any cascade
  /// ran (dangling table/column references).
  size_t quarantined_correspondences = 0;

  /// True when any table settled below full semantic discovery.
  bool AnyDegraded() const;
  /// True when any table reached the RIC tier, was quarantined, or failed
  /// outright.
  bool AnyAtBaselineOrWorse() const;

  std::string ToString() const;
};

struct ResilientPipelineOptions {
  rew::SemanticMapperOptions semantic;
  baseline::RicMapperOptions ric;
  /// Overall wall-clock deadline for the whole pipeline; < 0 = none.
  int64_t deadline_ms = -1;
  /// Step budget for the first semantic attempt of each table; later
  /// attempts and tiers get exponentially smaller slices. < 0 = none.
  int64_t max_steps = -1;
  /// Deterministic fault injection into the semantic tiers; < 0 = take
  /// SEMAP_FAULT_AFTER from the environment (unset = no injection).
  int64_t fault_after = -1;
  /// Shrinking-budget retries per governed tier before degrading.
  size_t retries_per_tier = 1;

  // --- Supervision of the per-table units. The defaults run every unit
  // once, inline, with no breaker and no journal.

  /// Worker threads; 1 runs the units inline on the calling thread.
  size_t jobs = 1;
  /// Per-unit wall-clock deadline, watchdog-enforced; < 0 = none.
  int64_t unit_deadline_ms = -1;
  /// Total attempts per unit (1 = no unit-level retry).
  size_t unit_attempts = 1;
  /// Delays between unit attempts; seed it for reproducible schedules.
  BackoffPolicy backoff;
  /// Consecutive semantic-tier losses before the breaker trips the rest
  /// of the run down to the RIC tier; 0 disables the breaker.
  size_t breaker_threshold = 0;
  /// Deterministic transient-fault simulation: apply fault injection
  /// only to the first N attempts of each unit, so a retry "clears" the
  /// fault. 0 = the fault (if any) is permanent.
  size_t fault_attempts = 0;
  /// Checkpoint journal path; empty = no checkpointing.
  std::string checkpoint_path;
  /// Load an existing journal at checkpoint_path first and skip its
  /// finished tables.
  bool resume = false;
  /// Test hook simulating a mid-run kill: stop dispatching new units
  /// once this many fresh units have completed (0 = never). The journal
  /// then holds exactly the completed prefix.
  size_t halt_after_units = 0;
  /// Cooperative shutdown flag (not owned; e.g. set by a SIGINT/SIGTERM
  /// handler). Once it reads true, no new unit is dispatched, running
  /// units are cancelled through their governors, and the run returns
  /// with `interrupted` set — interrupted units neither journaled nor
  /// merged.
  const std::atomic<bool>* cancel = nullptr;
  /// I/O seam for all checkpoint-store operations (store/env.h);
  /// Env::Default() when null. Crash-matrix tests inject syscall-level
  /// faults here.
  store::Env* io_env = nullptr;
};

/// \brief One emitted mapping, tagged with the tier that produced it.
struct ResilientMapping {
  DegradationTier tier = DegradationTier::kSemanticFull;
  std::string target_table;
  logic::Tgd tgd;
  std::vector<disc::Correspondence> covered;
  // Populated by the semantic tiers only.
  std::string source_algebra;
  std::string target_algebra;
};

/// \brief Per-unit execution summary.
struct UnitReport {
  std::string table;
  /// Attempts actually run; 0 for units served from the checkpoint.
  size_t attempts = 0;
  bool from_checkpoint = false;
  /// Backoff delays slept before each retry, in order.
  std::vector<int64_t> retry_delays_ms;
};

struct ResilientResult {
  std::vector<ResilientMapping> mappings;
  DegradationReport report;
  /// One entry per cascading table that ran or was resumed, sorted by
  /// table name.
  std::vector<UnitReport> units;
  size_t retries = 0;
  bool breaker_tripped = false;
  /// True when halt_after_units stopped the run early (test hook).
  bool halted = false;
  /// True when the cancel flag interrupted the run: some tables were
  /// never dispatched (or were unwound mid-cascade and discarded). The
  /// tables that did finish are checkpointed and merged as usual.
  bool interrupted = false;
  /// Non-fatal journal trouble (torn tail dropped on resume, append
  /// failure); empty when clean.
  std::string journal_warning;
};

// --- Building blocks ----------------------------------------------------
//
// RunResilientPipeline is PrepareResilientRun + one RunTableCascade per
// surviving table (each inside a supervised unit) + a MappingMerger pass
// in sorted table order. They stay public so a caller can replay that
// composition step by step and time each piece.

/// \brief The fail-soft front half of a resilient run: dangling
/// correspondences quarantined (with ctx.sink) or rejected (without),
/// survivors grouped by target table in deterministic (sorted) order.
struct PreparedRun {
  /// Surviving correspondences grouped by target table.
  std::map<std::string, std::vector<disc::Correspondence>> groups;
  /// Tables whose every correspondence was quarantined: ready-made
  /// kQuarantined outcomes, in sorted order.
  std::vector<TableOutcome> quarantined_tables;
  /// "quarantined: <corr>" notes for tables that still cascade.
  std::map<std::string, std::vector<std::string>> quarantine_notes;
  size_t quarantined_correspondences = 0;
};

Result<PreparedRun> PrepareResilientRun(
    const sem::AnnotatedSchema& source, const sem::AnnotatedSchema& target,
    const std::vector<disc::Correspondence>& correspondences,
    const RunContext& ctx);

/// \brief Configuration of one table's degradation cascade.
struct TableCascadeOptions {
  rew::SemanticMapperOptions semantic;
  baseline::RicMapperOptions ric;
  /// Absolute wall-clock deadline shared by every tier (the run-wide
  /// --deadline-ms); nullopt = none.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Step budget of the first semantic attempt; see ResilientPipelineOptions.
  int64_t max_steps = -1;
  /// Resolved fault injection point; nullopt = none.
  std::optional<int64_t> fault_after;
  size_t retries_per_tier = 1;
  /// False once the circuit breaker has tripped: skip the semantic tiers
  /// and serve the table straight from the RIC baseline.
  bool semantic_enabled = true;
};

/// \brief One table's cascade outcome plus its raw (pre-merge) mappings.
struct TableWork {
  TableOutcome outcome;
  std::vector<ResilientMapping> mappings;
  /// True when the semantic tiers were lost to exhaustion (budget,
  /// deadline, injected fault) rather than answering cleanly — the
  /// failure a unit retry might recover from.
  bool transient_failure = false;
};

/// \brief Run the tier cascade for one target table. Opens a `cascade`
/// span on ctx and counts tier attempts / governor trips; ctx.governor,
/// when set, becomes the *parent* of every tier governor (the unit's
/// budget slice — a watchdog Cancel on it unwinds the whole cascade at
/// the next charge).
TableWork RunTableCascade(const sem::AnnotatedSchema& source,
                          const sem::AnnotatedSchema& target,
                          const std::string& table,
                          const std::vector<disc::Correspondence>& group,
                          const TableCascadeOptions& options,
                          const RunContext& ctx);

/// \brief Cross-table assembly: TGD-safety-checks each mapping (with
/// ctx.sink), collapses cross-table duplicates onto their first
/// occurrence, and accumulates the final mapping list. Feed tables in
/// sorted order to reproduce RunResilientPipeline's output exactly.
class MappingMerger {
 public:
  explicit MappingMerger(const RunContext& ctx) : ctx_(ctx) {}

  /// True when the mapping survived (safe and not a duplicate).
  bool Emit(ResilientMapping mapping);

  std::vector<ResilientMapping>& mappings() { return mappings_; }

 private:
  RunContext ctx_;
  std::vector<ResilientMapping> mappings_;
};

/// \brief Run the degradation cascade over every target table named by
/// `correspondences`, one supervised unit per table (see the top of this
/// file). Without a sink in the context, returns an error for malformed
/// inputs (unknown columns, empty correspondence set). With `ctx.sink`
/// set, malformed inputs no longer fail the run (only an empty
/// correspondence set still does): correspondences naming unknown columns
/// are quarantined with kDanglingCorrespondence (their tables reported at
/// tier kQuarantined), columns without semantics degrade their table with
/// kUnliftableCorrespondence, and any unsafe produced mapping is
/// discarded with kUnsafeTgd. Resource exhaustion never surfaces as an
/// error — it surfaces as a degraded tier in the report. A checkpoint
/// journal that cannot be opened, or a resume against different inputs,
/// is an error.
/// The RunContext's tracer/metrics observe the whole run: one
/// `unit/<table>` span per cascading table holding its `cascade` span,
/// with a nested `tier` span per attempt; `pipeline.*`,
/// `supervisor.*` and `governor.trips` counters; and the
/// `supervisor.queue_wait` histogram. The context's governor is ignored —
/// units get their own governor slices from deadline_ms/max_steps — but
/// its sink/tracer/metrics/provenance/events flow into every tier.
Result<ResilientResult> RunResilientPipeline(
    const sem::AnnotatedSchema& source, const sem::AnnotatedSchema& target,
    const std::vector<disc::Correspondence>& correspondences,
    const ResilientPipelineOptions& options = {},
    const RunContext& ctx = {});

}  // namespace semap::exec

#endif  // SEMAP_EXEC_RESILIENT_PIPELINE_H_
