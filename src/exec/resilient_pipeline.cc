#include "exec/resilient_pipeline.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>

#include "validate/tgd_check.h"

namespace semap::exec {

const char* TierName(DegradationTier tier) {
  switch (tier) {
    case DegradationTier::kSemanticFull:
      return "semantic-full";
    case DegradationTier::kSemanticRestricted:
      return "semantic-restricted";
    case DegradationTier::kRicBaseline:
      return "ric-baseline";
    case DegradationTier::kFailed:
      return "failed";
    case DegradationTier::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

bool DegradationReport::AnyDegraded() const {
  for (const TableOutcome& t : tables) {
    if (t.tier != DegradationTier::kSemanticFull) return true;
  }
  return false;
}

bool DegradationReport::AnyAtBaselineOrWorse() const {
  for (const TableOutcome& t : tables) {
    if (t.tier == DegradationTier::kRicBaseline ||
        t.tier == DegradationTier::kFailed ||
        t.tier == DegradationTier::kQuarantined) {
      return true;
    }
  }
  return false;
}

std::string DegradationReport::ToString() const {
  std::string out = "degradation report (" + std::to_string(tables.size()) +
                    " target table(s)):\n";
  if (quarantined_correspondences > 0) {
    out += "  quarantined correspondence(s): " +
           std::to_string(quarantined_correspondences) + "\n";
  }
  for (const TableOutcome& t : tables) {
    out += "  " + t.target_table + ": " + TierName(t.tier) + ", " +
           std::to_string(t.mappings) + " mapping(s)\n";
    for (const std::string& note : t.notes) {
      out += "    - " + note + "\n";
    }
  }
  return out;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, clamped at 0.
std::optional<int64_t> RemainingMs(
    const std::optional<Clock::time_point>& deadline) {
  if (!deadline.has_value()) return std::nullopt;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      *deadline - Clock::now());
  return std::max<int64_t>(0, left.count());
}

void ConfigureGovernor(ResourceGovernor* governor,
                       const std::optional<Clock::time_point>& deadline,
                       int64_t step_budget,
                       const std::optional<int64_t>& fault_after,
                       ResourceGovernor* parent) {
  if (auto ms = RemainingMs(deadline); ms.has_value()) {
    governor->set_deadline_ms(*ms);
  }
  if (step_budget >= 0) governor->set_max_steps(step_budget);
  if (fault_after.has_value()) governor->InjectFailureAfter(*fault_after);
  if (parent != nullptr) governor->set_parent(parent);
}

/// Tier-1 search restrictions: no lossy joins, tight enumeration caps —
/// the cheapest configuration that can still find functional mappings.
rew::SemanticMapperOptions RestrictSemantic(rew::SemanticMapperOptions opts) {
  opts.discovery.allow_lossy = false;
  opts.discovery.max_trees_per_side =
      std::min<size_t>(opts.discovery.max_trees_per_side, 2);
  opts.discovery.max_candidates =
      std::min<size_t>(opts.discovery.max_candidates, 4);
  opts.max_rewritings_per_side =
      std::min<size_t>(opts.max_rewritings_per_side, 2);
  return opts;
}

/// Record one tier attempt — counted as a governor trip when its governor
/// tripped — in the provenance recorder and the event stream, classified
/// as "ok" (mappings, perhaps partial), "exhausted" (none before the
/// governor tripped), "empty" (a clean empty answer) or "error".
template <typename Mappings>
void RecordAttempt(const RunContext& ctx, const std::string& table,
                   DegradationTier tier, size_t attempt,
                   const Result<Mappings>& result,
                   const ResourceGovernor& governor, int64_t start_ns) {
  if (governor.exhausted()) ctx.Count("governor.trips");
  const size_t mappings = result.ok() ? result->size() : 0;
  const char* status = !result.ok()           ? "error"
                       : mappings > 0         ? "ok"
                       : governor.exhausted() ? "exhausted"
                                              : "empty";
  if (ctx.provenance != nullptr) {
    obs::AttemptRecord record;
    record.tier = TierName(tier);
    record.attempt = attempt;
    record.status = status;
    record.mappings = mappings;
    if (!result.ok()) {
      record.detail = result.status().ToString();
    } else if (mappings == 0) {
      record.detail = governor.status().ToString();
    } else if (governor.exhausted()) {
      record.detail = "partial result, " + governor.status().ToString();
    }
    ctx.provenance->RecordAttempt(std::move(record));
  }
  if (ctx.events != nullptr) {
    ctx.events->Emit("tier_end",
                     obs::WideEvent()
                         .Str("table", table)
                         .Str("tier", TierName(tier))
                         .Int("attempt", static_cast<int64_t>(attempt))
                         .Str("status", status)
                         .Int("mappings", static_cast<int64_t>(mappings))
                         .Int("duration_ns", ctx.events->NowNs() - start_ns));
  }
}

}  // namespace

Result<PreparedRun> PrepareResilientRun(
    const sem::AnnotatedSchema& source, const sem::AnnotatedSchema& target,
    const std::vector<disc::Correspondence>& correspondences,
    const RunContext& ctx) {
  PreparedRun prepared;
  // Fail-soft validation: without a sink a dangling correspondence is a
  // hard error (the caller asked for strict inputs); with one it is
  // quarantined — dropped with a diagnostic, its table reported at tier
  // kQuarantined — and the rest of the run proceeds.
  std::map<std::string, std::vector<std::string>> quarantined_by_table;
  for (const disc::Correspondence& corr : correspondences) {
    const rel::ColumnRef* dangling = nullptr;
    const char* side = nullptr;
    if (!source.schema().HasColumn(corr.source)) {
      dangling = &corr.source;
      side = "source";
    } else if (!target.schema().HasColumn(corr.target)) {
      dangling = &corr.target;
      side = "target";
    }
    if (dangling == nullptr) {
      prepared.groups[corr.target.table].push_back(corr);
      continue;
    }
    if (ctx.sink == nullptr) {
      return Status::NotFound("unknown " + std::string(side) + " column " +
                              dangling->ToString());
    }
    ctx.sink->Error(diag::kDanglingCorrespondence,
                    "unknown " + std::string(side) + " column " +
                        dangling->ToString() + "; quarantining " +
                        corr.ToString(),
                    {}, "fix the column name or remove the statement");
    quarantined_by_table[corr.target.table].push_back(corr.ToString());
    ++prepared.quarantined_correspondences;
  }

  // Tables whose every correspondence was quarantined never cascade; they
  // surface directly at tier kQuarantined. Partially affected tables keep
  // the drops as notes on their eventual cascade outcome.
  for (const auto& [table, dropped] : quarantined_by_table) {
    if (prepared.groups.count(table)) {
      for (const std::string& corr : dropped) {
        prepared.quarantine_notes[table].push_back("quarantined: " + corr);
      }
      continue;
    }
    TableOutcome outcome;
    outcome.target_table = table;
    outcome.tier = DegradationTier::kQuarantined;
    for (const std::string& corr : dropped) {
      outcome.notes.push_back("quarantined: " + corr);
    }
    prepared.quarantined_tables.push_back(std::move(outcome));
  }
  return prepared;
}

bool MappingMerger::Emit(ResilientMapping mapping) {
  // An unsafe tgd (frontier variable the source query never binds) is a
  // generator bug, never a valid answer: discard it rather than ship an
  // unexecutable mapping.
  if (ctx_.sink != nullptr &&
      !validate::CheckTgdSafety(mapping.tgd, *ctx_.sink)) {
    if (ctx_.provenance != nullptr) {
      ctx_.provenance->MarkDropped(mapping.target_table,
                                   mapping.tgd.ToString(), "unsafe-tgd");
    }
    return false;
  }
  // Cross-table duplicates (two groups reaching the same expression)
  // collapse onto the first, least-degraded occurrence.
  for (const ResilientMapping& existing : mappings_) {
    if (logic::EquivalentTgds(existing.tgd, mapping.tgd)) {
      if (ctx_.provenance != nullptr) {
        ctx_.provenance->MarkDropped(
            mapping.target_table, mapping.tgd.ToString(),
            "duplicate of a mapping emitted for " + existing.target_table);
      }
      return false;
    }
  }
  if (ctx_.provenance != nullptr) {
    ctx_.provenance->ConfirmEmitted(mapping.target_table,
                                    mapping.tgd.ToString(),
                                    TierName(mapping.tier));
  }
  mappings_.push_back(std::move(mapping));
  return true;
}

TableWork RunTableCascade(const sem::AnnotatedSchema& source,
                          const sem::AnnotatedSchema& target,
                          const std::string& table,
                          const std::vector<disc::Correspondence>& group,
                          const TableCascadeOptions& options,
                          const RunContext& ctx) {
  obs::Span cascade_span = ctx.Span("cascade");
  cascade_span.AddAttr("table", table);
  obs::ProvenanceTableScope provenance_scope(ctx.provenance, table);
  int64_t cascade_start_ns = 0;
  if (ctx.events != nullptr) {
    cascade_start_ns = ctx.events->NowNs();
    ctx.events->Emit("cascade_start", obs::WideEvent().Str("table", table));
  }
  TableWork work;
  work.outcome.target_table = table;
  TableOutcome& outcome = work.outcome;
  bool settled = false;

  // Governed semantic tiers, each retried under halving step budgets.
  const DegradationTier semantic_tiers[] = {
      DegradationTier::kSemanticFull, DegradationTier::kSemanticRestricted};
  bool semantic_answered_empty = false;
  bool last_semantic_exhausted = false;
  for (DegradationTier tier : semantic_tiers) {
    if (!options.semantic_enabled) break;
    if (settled || semantic_answered_empty) break;
    rew::SemanticMapperOptions sem_opts =
        tier == DegradationTier::kSemanticFull
            ? options.semantic
            : RestrictSemantic(options.semantic);
    int64_t tier_budget = options.max_steps;
    if (tier_budget >= 0 && tier == DegradationTier::kSemanticRestricted) {
      tier_budget /= 2;
    }
    for (size_t attempt = 0; attempt <= options.retries_per_tier; ++attempt) {
      int64_t budget = tier_budget;
      if (budget >= 0) budget >>= attempt;
      ResourceGovernor governor;
      ConfigureGovernor(&governor, options.deadline, budget,
                        options.fault_after, ctx.governor);
      // Discovery reports unliftable correspondences into a scratch sink
      // so cascade retries do not duplicate them; lifting is
      // deterministic, so the first attempt's findings stand for all.
      DiagnosticSink lift_sink;
      RunContext tier_ctx = ctx.WithGovernor(&governor);
      tier_ctx.sink = ctx.sink != nullptr ? &lift_sink : nullptr;
      ctx.Count("pipeline.tier_attempts");
      if (ctx.provenance != nullptr) {
        ctx.provenance->BeginAttempt(TierName(tier), attempt + 1);
      }
      int64_t tier_start_ns =
          ctx.events != nullptr ? ctx.events->NowNs() : 0;
      obs::Span tier_span = ctx.Span("tier");
      tier_span.AddAttr("tier", TierName(tier));
      tier_span.AddAttr("attempt", static_cast<int64_t>(attempt + 1));
      rew::MapRequest map_req;
      map_req.source = &source;
      map_req.target = &target;
      map_req.correspondences = &group;
      map_req.options = sem_opts;
      auto mappings = rew::GenerateMappings(map_req, tier_ctx);
      last_semantic_exhausted = governor.exhausted();
      tier_span.End();
      RecordAttempt(ctx, table, tier, attempt + 1, mappings, governor,
                    tier_start_ns);
      if (ctx.sink != nullptr && tier == DegradationTier::kSemanticFull &&
          attempt == 0) {
        for (const Diagnostic& d : lift_sink.diagnostics()) {
          ctx.sink->Add(d);
        }
      }
      std::string attempt_label = std::string(TierName(tier)) + " (attempt " +
                                  std::to_string(attempt + 1) + ")";
      if (!mappings.ok()) {
        outcome.notes.push_back(attempt_label + ": " +
                                mappings.status().ToString());
        last_semantic_exhausted = false;
        break;  // A real error will not improve under a smaller budget.
      }
      if (!mappings->empty()) {
        outcome.tier = tier;
        outcome.mappings = mappings->size();
        if (governor.exhausted()) {
          outcome.notes.push_back(attempt_label + ": partial result, " +
                                  governor.status().ToString());
          for (const std::string& note : governor.truncations()) {
            outcome.notes.push_back(attempt_label + ": " + note);
          }
        }
        for (rew::GeneratedMapping& m : *mappings) {
          ResilientMapping out;
          out.tier = tier;
          out.target_table = table;
          out.tgd = std::move(m.tgd);
          out.covered = std::move(m.covered);
          out.source_algebra = std::move(m.source_algebra);
          out.target_algebra = std::move(m.target_algebra);
          work.mappings.push_back(std::move(out));
        }
        settled = true;
        break;
      }
      outcome.notes.push_back(attempt_label + ": no mappings (" +
                              governor.status().ToString() + ")");
      // A clean empty result is the technique's answer, not a resource
      // problem; shrinking the budget or the search space cannot add
      // mappings, so skip straight to the baseline.
      if (!governor.exhausted()) {
        semantic_answered_empty = true;
        break;
      }
    }
  }

  if (!settled) {
    // The lifeline: the RIC baseline always terminates, so it runs
    // exempt from step budgets and fault injection (deadline only).
    baseline::RicMapperOptions ric_opts = options.ric;
    ResourceGovernor governor;
    ConfigureGovernor(&governor, options.deadline, /*step_budget=*/-1,
                      /*fault_after=*/std::nullopt, ctx.governor);
    ctx.Count("pipeline.tier_attempts");
    if (ctx.provenance != nullptr) {
      ctx.provenance->BeginAttempt(TierName(DegradationTier::kRicBaseline), 1);
    }
    int64_t tier_start_ns = ctx.events != nullptr ? ctx.events->NowNs() : 0;
    obs::Span tier_span = ctx.Span("tier");
    tier_span.AddAttr("tier", TierName(DegradationTier::kRicBaseline));
    auto ric =
        baseline::GenerateRicMappings(source.schema(), target.schema(), group,
                                      ric_opts, ctx.WithGovernor(&governor));
    tier_span.End();
    RecordAttempt(ctx, table, DegradationTier::kRicBaseline, 1, ric, governor,
                  tier_start_ns);
    if (ric.ok() && !ric->empty()) {
      outcome.tier = DegradationTier::kRicBaseline;
      outcome.mappings = ric->size();
      if (governor.exhausted()) {
        outcome.notes.push_back(std::string(TierName(outcome.tier)) +
                                ": partial result, " +
                                governor.status().ToString());
      }
      for (baseline::RicMapping& m : *ric) {
        ResilientMapping out;
        out.tier = DegradationTier::kRicBaseline;
        out.target_table = table;
        out.tgd = std::move(m.tgd);
        out.covered = std::move(m.covered);
        work.mappings.push_back(std::move(out));
      }
    } else {
      outcome.tier = DegradationTier::kFailed;
      outcome.notes.push_back(
          std::string(TierName(DegradationTier::kRicBaseline)) + ": " +
          (ric.ok() ? std::string("no mappings (") +
                          governor.status().ToString() + ")"
                    : ric.status().ToString()));
    }
    // Exhaustion in the semantic tiers (budget, deadline, injected fault)
    // is the transient kind of failure a fresh attempt might clear; a
    // clean empty answer or a real error is not.
    work.transient_failure =
        options.semantic_enabled && last_semantic_exhausted;
  }
  cascade_span.AddAttr("tier", TierName(outcome.tier));
  cascade_span.AddAttr("mappings", static_cast<int64_t>(outcome.mappings));
  if (ctx.events != nullptr) {
    ctx.events->Emit("cascade_end",
                     obs::WideEvent()
                         .Str("table", table)
                         .Str("tier", TierName(outcome.tier))
                         .Int("mappings",
                              static_cast<int64_t>(outcome.mappings))
                         .Int("duration_ns",
                              ctx.events->NowNs() - cascade_start_ns));
  }
  return work;
}

}  // namespace semap::exec
