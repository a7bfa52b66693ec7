// Fault-injection and resource-governance tests: at every injected
// exhaustion point the degradation cascade must return clean, well-formed
// (possibly degraded) mappings — never a crash, a malformed tgd, or an
// empty-handed kInternal.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "datasets/domains.h"
#include "datasets/examples.h"
#include "discovery/discoverer.h"
#include "exec/resilient_pipeline.h"
#include "rewriting/semantic_mapper.h"

namespace semap {
namespace {

eval::Domain Bookstore() {
  auto domain = data::BuildBookstoreExample();
  EXPECT_TRUE(domain.ok()) << domain.status();
  return std::move(*domain);
}

/// Every emitted mapping must be a complete s-t tgd covering at least one
/// correspondence, whatever tier produced it.
void ExpectWellFormedMappings(const exec::ResilientResult& result) {
  for (const exec::ResilientMapping& m : result.mappings) {
    EXPECT_FALSE(m.tgd.source.body.empty()) << m.tgd.ToString();
    EXPECT_FALSE(m.tgd.target.body.empty()) << m.tgd.ToString();
    EXPECT_FALSE(m.covered.empty()) << m.tgd.ToString();
    EXPECT_FALSE(m.target_table.empty());
    EXPECT_NE(m.tier, exec::DegradationTier::kFailed);
  }
}

/// Order-preserving fingerprint of a mapping set: tier + tgd text.
std::vector<std::string> MappingKeys(const exec::ResilientResult& result) {
  std::vector<std::string> keys;
  for (const exec::ResilientMapping& m : result.mappings) {
    keys.push_back(std::string(exec::TierName(m.tier)) + " " +
                   m.tgd.ToString());
  }
  return keys;
}

std::vector<std::string> DiagnosticLines(const DiagnosticSink& sink) {
  std::vector<std::string> lines;
  for (const Diagnostic& d : sink.diagnostics()) lines.push_back(d.ToString());
  return lines;
}

/// The run composed from its public pieces: PrepareResilientRun, then
/// RunTableCascade for each group in sorted order with its quarantine
/// notes prepended, then MappingMerger — an independent reference for
/// what RunResilientPipeline (default options) must produce.
Result<exec::ResilientResult> ComposedRun(
    const eval::Domain& domain,
    const std::vector<disc::Correspondence>& correspondences,
    const exec::RunContext& ctx) {
  auto prepared = exec::PrepareResilientRun(domain.source, domain.target,
                                            correspondences, ctx);
  if (!prepared.ok()) return prepared.status();
  exec::ResilientResult result;
  result.report.quarantined_correspondences =
      prepared->quarantined_correspondences;
  result.report.tables = std::move(prepared->quarantined_tables);
  exec::MappingMerger merger(ctx);
  for (const auto& [table, group] : prepared->groups) {
    exec::TableWork work = exec::RunTableCascade(
        domain.source, domain.target, table, group, {}, ctx);
    const auto notes = prepared->quarantine_notes.find(table);
    if (notes != prepared->quarantine_notes.end()) {
      work.outcome.notes.insert(work.outcome.notes.begin(),
                                notes->second.begin(), notes->second.end());
    }
    for (exec::ResilientMapping& mapping : work.mappings) {
      merger.Emit(std::move(mapping));
    }
    result.report.tables.push_back(std::move(work.outcome));
  }
  result.mappings = std::move(merger.mappings());
  return result;
}

/// RunResilientPipeline inline and on a pool must reproduce the composed
/// reference: mappings, report and diagnostics, all in order.
void ExpectMatchesComposedRun(
    const eval::Domain& domain,
    const std::vector<disc::Correspondence>& correspondences,
    const std::string& label) {
  DiagnosticSink reference_sink;
  exec::RunContext reference_ctx;
  reference_ctx.sink = &reference_sink;
  auto reference = ComposedRun(domain, correspondences, reference_ctx);
  ASSERT_TRUE(reference.ok()) << label << ": " << reference.status();
  for (size_t jobs : {1u, 4u}) {
    DiagnosticSink sink;
    exec::RunContext ctx;
    ctx.sink = &sink;
    exec::ResilientPipelineOptions options;
    options.jobs = jobs;
    auto run = exec::RunResilientPipeline(domain.source, domain.target,
                                          correspondences, options, ctx);
    ASSERT_TRUE(run.ok()) << label << " jobs=" << jobs << ": " << run.status();
    EXPECT_EQ(MappingKeys(*run), MappingKeys(*reference))
        << label << " jobs=" << jobs;
    EXPECT_EQ(run->report.ToString(), reference->report.ToString())
        << label << " jobs=" << jobs;
    EXPECT_EQ(DiagnosticLines(sink), DiagnosticLines(reference_sink))
        << label << " jobs=" << jobs;
  }
}

TEST(ResilientPipelineTest, AnyJobsCountMatchesTheComposedRun) {
  using Builder = Result<eval::Domain> (*)();
  const Builder builders[] = {
      data::BuildBookstoreExample, data::BuildEmployeeIsaExample,
      data::BuildPartOfExample, data::BuildProjectExample,
      data::BuildSalesReifiedExample};
  for (Builder build : builders) {
    auto domain = build();
    ASSERT_TRUE(domain.ok()) << domain.status();
    for (const eval::TestCase& test_case : domain->cases) {
      ExpectMatchesComposedRun(*domain, test_case.correspondences,
                               domain->name + "/" + test_case.name);
    }
  }

  // The University cases together: two target tables.
  auto university = data::BuildUniversity();
  ASSERT_TRUE(university.ok()) << university.status();
  std::vector<disc::Correspondence> correspondences;
  for (const eval::TestCase& c : university->cases) {
    correspondences.insert(correspondences.end(), c.correspondences.begin(),
                           c.correspondences.end());
  }
  ExpectMatchesComposedRun(*university, correspondences, "university");

  // Quarantining: one dangling correspondence beside usable ones (a
  // quarantine note on its table) and one whose whole table is unknown.
  eval::Domain bookstore = Bookstore();
  correspondences = bookstore.cases[0].correspondences;
  correspondences.push_back({{"person", "zzz"}, {"hasBookSoldAt", "aname"}});
  correspondences.push_back({{"person", "pname"}, {"ghosttown", "x"}});
  ExpectMatchesComposedRun(bookstore, correspondences, "quarantine");
}

TEST(ResilientPipelineTest, UngovernedRunStaysAtFullSemanticTier) {
  eval::Domain domain = Bookstore();
  auto run = exec::RunResilientPipeline(domain.source, domain.target,
                                        domain.cases[0].correspondences);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run->mappings.empty());
  ExpectWellFormedMappings(*run);
  ASSERT_EQ(run->report.tables.size(), 1u);
  EXPECT_EQ(run->report.tables[0].tier, exec::DegradationTier::kSemanticFull);
  EXPECT_FALSE(run->report.AnyDegraded());
  EXPECT_FALSE(run->report.AnyAtBaselineOrWorse());
}

TEST(ResilientPipelineTest, FaultInjectionMatrixNeverCrashesNorEmpties) {
  eval::Domain domain = Bookstore();
  // Exhaustion at every low expansion count, plus a spread of larger ones
  // that land inside discovery, rewriting, and rendering respectively.
  std::vector<int64_t> points;
  for (int64_t n = 0; n <= 48; ++n) points.push_back(n);
  for (int64_t n : {64, 96, 128, 192, 256, 512, 1024, 4096}) {
    points.push_back(n);
  }
  for (int64_t fault_after : points) {
    exec::ResilientPipelineOptions options;
    options.fault_after = fault_after;
    auto run = exec::RunResilientPipeline(domain.source, domain.target,
                                          domain.cases[0].correspondences,
                                          options);
    ASSERT_TRUE(run.ok()) << "fault_after=" << fault_after << ": "
                          << run.status();
    EXPECT_FALSE(run->mappings.empty()) << "fault_after=" << fault_after;
    ExpectWellFormedMappings(*run);
    // The report names a definite tier for the (single) target table.
    ASSERT_EQ(run->report.tables.size(), 1u);
    const exec::TableOutcome& outcome = run->report.tables[0];
    EXPECT_EQ(outcome.target_table, "hasBookSoldAt");
    EXPECT_NE(outcome.tier, exec::DegradationTier::kFailed)
        << "fault_after=" << fault_after;
    EXPECT_STRNE(exec::TierName(outcome.tier), "unknown");
    EXPECT_EQ(outcome.mappings, run->mappings.size());
    // A degraded table must explain what went wrong in the tiers above.
    if (outcome.tier != exec::DegradationTier::kSemanticFull) {
      EXPECT_FALSE(outcome.notes.empty()) << "fault_after=" << fault_after;
    }
  }
}

TEST(ResilientPipelineTest, ImmediateFaultFallsBackToRicBaseline) {
  eval::Domain domain = Bookstore();
  exec::ResilientPipelineOptions options;
  options.fault_after = 0;
  auto run = exec::RunResilientPipeline(domain.source, domain.target,
                                        domain.cases[0].correspondences,
                                        options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->report.tables.size(), 1u);
  EXPECT_EQ(run->report.tables[0].tier, exec::DegradationTier::kRicBaseline);
  EXPECT_FALSE(run->mappings.empty());
  EXPECT_TRUE(run->report.AnyAtBaselineOrWorse());
  for (const exec::ResilientMapping& m : run->mappings) {
    EXPECT_EQ(m.tier, exec::DegradationTier::kRicBaseline);
  }
}

TEST(ResilientPipelineTest, EnvKnobInjectsTheSameFault) {
  eval::Domain domain = Bookstore();
  ASSERT_EQ(setenv("SEMAP_FAULT_AFTER", "0", 1), 0);
  auto run = exec::RunResilientPipeline(domain.source, domain.target,
                                        domain.cases[0].correspondences);
  ASSERT_EQ(unsetenv("SEMAP_FAULT_AFTER"), 0);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->report.tables.size(), 1u);
  EXPECT_EQ(run->report.tables[0].tier, exec::DegradationTier::kRicBaseline);
  EXPECT_FALSE(run->mappings.empty());
}

TEST(ResilientPipelineTest, ZeroStepBudgetFallsBackCleanly) {
  eval::Domain domain = Bookstore();
  exec::ResilientPipelineOptions options;
  options.max_steps = 0;
  auto run = exec::RunResilientPipeline(domain.source, domain.target,
                                        domain.cases[0].correspondences,
                                        options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run->mappings.empty());
  ExpectWellFormedMappings(*run);
  EXPECT_EQ(run->report.tables[0].tier, exec::DegradationTier::kRicBaseline);
}

TEST(ResilientPipelineTest, ExpiredDeadlineFailsCleanNotCrash) {
  eval::Domain domain = Bookstore();
  exec::ResilientPipelineOptions options;
  options.deadline_ms = 0;
  auto run = exec::RunResilientPipeline(domain.source, domain.target,
                                        domain.cases[0].correspondences,
                                        options);
  // Everything (including the baseline) is deadline-bound, so the table
  // may fail — but it must fail *clean*: an explained tier in the report,
  // no error status, no malformed mapping.
  ASSERT_TRUE(run.ok()) << run.status();
  ExpectWellFormedMappings(*run);
  ASSERT_EQ(run->report.tables.size(), 1u);
  EXPECT_FALSE(run->report.tables[0].notes.empty());
}

TEST(ResilientPipelineTest, ReportPrintsTierPerTable) {
  eval::Domain domain = Bookstore();
  exec::ResilientPipelineOptions options;
  options.fault_after = 0;
  auto run = exec::RunResilientPipeline(domain.source, domain.target,
                                        domain.cases[0].correspondences,
                                        options);
  ASSERT_TRUE(run.ok()) << run.status();
  std::string report = run->report.ToString();
  EXPECT_NE(report.find("hasBookSoldAt"), std::string::npos) << report;
  EXPECT_NE(report.find("ric-baseline"), std::string::npos) << report;
}

// --- Governed discovery on the largest built-in dataset -----------------

TEST(GovernedDiscoveryTest, ExpiredDeadlineReturnsAnnotatedPartialResult) {
  auto domain = data::BuildUniversity();  // 105/62 CM nodes: the largest CMs
  ASSERT_TRUE(domain.ok()) << domain.status();
  ResourceGovernor governor;
  governor.set_deadline_ms(-1);  // already expired
  exec::RunContext ctx;
  ctx.governor = &governor;
  disc::Discoverer discoverer(domain->source, domain->target,
                              domain->cases[0].correspondences, {}, ctx);
  auto candidates = discoverer.Run();
  // Exhaustion is not an error: discovery returns what it had (possibly
  // nothing) and the governor carries the deadline annotation.
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  EXPECT_EQ(governor.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(governor.exhausted());
}

TEST(GovernedDiscoveryTest, MillisecondDeadlineTerminatesPipeline) {
  auto domain = data::BuildUniversity();
  ASSERT_TRUE(domain.ok()) << domain.status();
  ResourceGovernor governor;
  governor.set_deadline_ms(1);
  exec::RunContext ctx;
  ctx.governor = &governor;
  auto mappings = rew::GenerateMappings(
      {&domain->source, &domain->target, &domain->cases[0].correspondences,
       {}},
      ctx);
  // Must come back promptly (ctest would time the whole binary out
  // otherwise) and cleanly, with or without partial mappings.
  ASSERT_TRUE(mappings.ok()) << mappings.status();
  if (governor.exhausted()) {
    EXPECT_EQ(governor.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(GovernedDiscoveryTest, StepBudgetBoundsSearchWithPartialResults) {
  auto domain = data::BuildUniversity();
  ASSERT_TRUE(domain.ok()) << domain.status();
  ResourceGovernor governor;
  governor.set_max_steps(0);
  exec::RunContext ctx;
  ctx.governor = &governor;
  disc::Discoverer discoverer(domain->source, domain->target,
                              domain->cases[0].correspondences, {}, ctx);
  auto candidates = discoverer.Run();
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  EXPECT_TRUE(governor.exhausted());
  EXPECT_EQ(governor.status().code(), StatusCode::kResourceExhausted);
  // The cancelled loops say what they left unexplored.
  EXPECT_FALSE(governor.truncations().empty());
}

}  // namespace
}  // namespace semap
