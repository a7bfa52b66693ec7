// Mapping provenance and wide events: recorder bookkeeping (the
// one-derivation-per-emitted-TGD invariant, the bounded rejection log,
// deterministic merge), the semap.explain.v1 JSON shape, the NDJSON
// event stream (monotonic seq, torn-tail readability), and the
// end-to-end guarantees on real scenarios — every emitted mapping has
// exactly one emitted derivation, and a semantically-degrading scenario
// names the rejection that killed its best candidate.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "datasets/examples.h"
#include "exec/resilient_pipeline.h"
#include "obs/events.h"
#include "obs/provenance.h"
#include "util/json.h"
#include "validate/scenario_loader.h"

namespace semap {
namespace {

// ---------------------------------------------------------------------------
// ProvenanceRecorder bookkeeping

TEST(ProvenanceRecorderTest, ConfirmEmittedMarksTheMatchingDerivation) {
  obs::ProvenanceRecorder recorder;
  recorder.BeginTable("emp");
  obs::DerivationRecord derivation;
  derivation.tgd = "p(x) -> q(x)";
  derivation.origin = "semantic";
  recorder.RecordDerivation(derivation);
  recorder.EndTable();

  recorder.ConfirmEmitted("emp", "p(x) -> q(x)", "semantic-full");
  const obs::TableProvenance& table = recorder.tables().at("emp");
  ASSERT_EQ(table.derivations.size(), 1u);
  EXPECT_TRUE(table.derivations[0].emitted);
  EXPECT_EQ(table.derivations[0].tier, "semantic-full");
  EXPECT_EQ(table.derivations[0].origin, "semantic");
}

TEST(ProvenanceRecorderTest, ConfirmWithoutDerivationCreatesStub) {
  // The invariant "one derivation per emitted TGD" must hold even if a
  // generator forgot to record: confirmation synthesizes a stub.
  obs::ProvenanceRecorder recorder;
  recorder.ConfirmEmitted("emp", "p(x) -> q(x)", "ric-baseline");
  const obs::TableProvenance& table = recorder.tables().at("emp");
  ASSERT_EQ(table.derivations.size(), 1u);
  EXPECT_TRUE(table.derivations[0].emitted);
  EXPECT_EQ(table.derivations[0].origin, "unknown");
  EXPECT_EQ(table.derivations[0].tgd, "p(x) -> q(x)");
}

TEST(ProvenanceRecorderTest, MarkDroppedKeepsDerivationWithReason) {
  obs::ProvenanceRecorder recorder;
  recorder.BeginTable("emp");
  obs::DerivationRecord derivation;
  derivation.tgd = "p(x) -> q(x)";
  recorder.RecordDerivation(derivation);
  recorder.EndTable();
  recorder.MarkDropped("emp", "p(x) -> q(x)", "unsafe-tgd");
  const obs::TableProvenance& table = recorder.tables().at("emp");
  ASSERT_EQ(table.derivations.size(), 1u);
  EXPECT_FALSE(table.derivations[0].emitted);
  EXPECT_EQ(table.derivations[0].drop_reason, "unsafe-tgd");
}

TEST(ProvenanceRecorderTest, RejectionLogIsBoundedAndCountsOverflow) {
  obs::ProvenanceRecorder recorder(/*max_rejections_per_table=*/3);
  recorder.BeginTable("emp");
  for (int i = 0; i < 10; ++i) {
    obs::RejectionRecord rejection;
    rejection.candidate = "candidate " + std::to_string(i);
    rejection.filter = "penalty";
    recorder.RecordRejection(rejection);
  }
  recorder.EndTable();
  const obs::TableProvenance& table = recorder.tables().at("emp");
  EXPECT_EQ(table.rejections.size(), 3u);
  EXPECT_EQ(table.rejections_dropped, 7u);
}

TEST(ProvenanceRecorderTest, AttemptScopeStampsRejections) {
  obs::ProvenanceRecorder recorder;
  recorder.BeginTable("emp");
  recorder.BeginAttempt("semantic-full", 2);
  obs::RejectionRecord rejection;
  rejection.candidate = "c";
  rejection.filter = "semantic-type";
  recorder.RecordRejection(rejection);
  recorder.EndTable();
  const obs::TableProvenance& table = recorder.tables().at("emp");
  ASSERT_EQ(table.rejections.size(), 1u);
  EXPECT_EQ(table.rejections[0].tier, "semantic-full");
  EXPECT_EQ(table.rejections[0].attempt, 2u);
}

TEST(ProvenanceRecorderTest, MergePreservesRecordsAndRespectsBound) {
  obs::ProvenanceRecorder unit_a(/*max_rejections_per_table=*/2);
  unit_a.BeginTable("a");
  obs::DerivationRecord da;
  da.tgd = "a() -> b()";
  unit_a.RecordDerivation(da);
  unit_a.EndTable();

  obs::ProvenanceRecorder unit_b(/*max_rejections_per_table=*/2);
  unit_b.BeginTable("b");
  for (int i = 0; i < 3; ++i) {
    obs::RejectionRecord r;
    r.candidate = "c" + std::to_string(i);
    r.filter = "budget";
    unit_b.RecordRejection(r);
  }
  unit_b.EndTable();

  obs::ProvenanceRecorder merged(/*max_rejections_per_table=*/2);
  merged.MergeFrom(unit_a);
  merged.MergeFrom(unit_b);
  EXPECT_EQ(merged.tables().size(), 2u);
  EXPECT_EQ(merged.tables().at("a").derivations.size(), 1u);
  EXPECT_EQ(merged.tables().at("b").rejections.size(), 2u);
  EXPECT_EQ(merged.tables().at("b").rejections_dropped, 1u);
}

TEST(ProvenanceRecorderTest, ToJsonIsParsableAndDeterministic) {
  auto build = [] {
    obs::ProvenanceRecorder recorder;
    recorder.BeginTable("emp");
    recorder.BeginAttempt("semantic-full", 1);
    obs::AttemptRecord attempt;
    attempt.tier = "semantic-full";
    attempt.attempt = 1;
    attempt.status = "ok";
    attempt.mappings = 1;
    recorder.RecordAttempt(attempt);
    obs::DerivationRecord derivation;
    derivation.tgd = "p(\"quoted\") -> q(x)";
    derivation.covered = {"s.a <-> t.b"};
    derivation.skolems = {{"sk_emp_e", "table-local"}};
    recorder.RecordDerivation(derivation);
    recorder.EndTable();
    recorder.ConfirmEmitted("emp", "p(\"quoted\") -> q(x)", "semantic-full");
    recorder.RecordOutcome("emp", "semantic-full", {"a note"});
    return recorder.ToJson();
  };
  std::string first = build();
  EXPECT_EQ(first, build());  // timestamp-free, so byte-stable

  auto parsed = json::Parse(first);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("schema"), "semap.explain.v1");
  const json::Value* tables = parsed->Find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->AsArray().size(), 1u);
  const json::Value& table = tables->AsArray()[0];
  EXPECT_EQ(table.GetString("table"), "emp");
  EXPECT_EQ(table.GetString("tier"), "semantic-full");
  const json::Value* derivations = table.Find("derivations");
  ASSERT_NE(derivations, nullptr);
  ASSERT_EQ(derivations->AsArray().size(), 1u);
  const json::Value& derivation = derivations->AsArray()[0];
  EXPECT_EQ(derivation.GetString("tgd"), "p(\"quoted\") -> q(x)");
  const json::Value* emitted = derivation.Find("emitted");
  ASSERT_NE(emitted, nullptr);
  EXPECT_TRUE(emitted->is_bool() && emitted->AsBool());
  const json::Value* skolems = derivation.Find("skolems");
  ASSERT_NE(skolems, nullptr);
  ASSERT_EQ(skolems->AsArray().size(), 1u);
  EXPECT_EQ(skolems->AsArray()[0].GetString("kind"), "table-local");
}

// ---------------------------------------------------------------------------
// EventEmitter

TEST(EventEmitterTest, WritesParsableLinesWithMonotonicSeq) {
  std::string path = testing::TempDir() + "/events_basic.ndjson";
  {
    obs::EventEmitter emitter(path);
    ASSERT_TRUE(emitter.ok());
    emitter.Emit("run_start", obs::WideEvent().Str("version", "test"));
    emitter.Emit("unit_done", obs::WideEvent()
                                  .Str("table", "emp")
                                  .Int("mappings", 3)
                                  .Bool("resumed", false));
    emitter.Emit("run_end");
    EXPECT_EQ(emitter.count(), 3);
  }
  std::ifstream in(path);
  std::string line;
  int64_t last_seq = -1;
  std::vector<std::string> types;
  while (std::getline(in, line)) {
    auto event = json::Parse(line);
    ASSERT_TRUE(event.ok()) << line;
    EXPECT_EQ(event->GetString("schema"), "semap.events.v1");
    EXPECT_GT(event->GetInt("seq"), last_seq);
    last_seq = event->GetInt("seq");
    types.push_back(event->GetString("event"));
  }
  EXPECT_EQ(types, (std::vector<std::string>{"run_start", "unit_done",
                                             "run_end"}));
}

TEST(EventEmitterTest, TornFinalLineLeavesPrefixReadable) {
  // A killed run truncates mid-write; every complete line must still
  // parse and the torn tail must be detectable as exactly one bad line.
  std::string path = testing::TempDir() + "/events_torn.ndjson";
  {
    obs::EventEmitter emitter(path);
    for (int i = 0; i < 5; ++i) {
      emitter.Emit("tick", obs::WideEvent().Int("i", i));
    }
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  ASSERT_GT(text.size(), 20u);
  std::string torn = text.substr(0, text.size() - 15);  // cut mid-line
  std::istringstream stream(torn);
  std::string line;
  size_t complete = 0, bad = 0;
  while (std::getline(stream, line)) {
    if (json::Parse(line).ok()) {
      ++complete;
    } else {
      ++bad;
    }
  }
  EXPECT_EQ(bad, 1u);     // only the torn tail
  EXPECT_GE(complete, 3u);
}

TEST(EventEmitterTest, UnopenablePathReportsNotOkButDoesNotThrow) {
  obs::EventEmitter emitter("/nonexistent-dir/events.ndjson");
  EXPECT_FALSE(emitter.ok());
  emitter.Emit("tick");  // must be harmless
}

// ---------------------------------------------------------------------------
// End-to-end: every emitted mapping has exactly one emitted derivation

void ExpectOneEmittedDerivationPerMapping(
    const exec::ResilientResult& run,
    const obs::ProvenanceRecorder& recorder) {
  size_t emitted_derivations = 0;
  for (const auto& [name, table] : recorder.tables()) {
    for (const obs::DerivationRecord& d : table.derivations) {
      if (d.emitted) ++emitted_derivations;
    }
  }
  EXPECT_EQ(emitted_derivations, run.mappings.size());
  for (const exec::ResilientMapping& m : run.mappings) {
    const auto it = recorder.tables().find(m.target_table);
    ASSERT_NE(it, recorder.tables().end()) << m.target_table;
    size_t matches = 0;
    for (const obs::DerivationRecord& d : it->second.derivations) {
      if (d.emitted && d.tgd == m.tgd.ToString()) ++matches;
    }
    EXPECT_EQ(matches, 1u) << m.tgd.ToString();
  }
}

TEST(ProvenancePipelineTest, BookstoreDerivationsMatchEmittedMappings) {
  auto domain = data::BuildBookstoreExample();
  ASSERT_TRUE(domain.ok()) << domain.status();
  obs::ProvenanceRecorder recorder;
  exec::RunContext ctx;
  ctx.provenance = &recorder;
  auto run = exec::RunResilientPipeline(domain->source, domain->target,
                                        domain->cases[0].correspondences, {},
                                        ctx);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_FALSE(run->mappings.empty());
  ExpectOneEmittedDerivationPerMapping(*run, recorder);

  // The winning derivation replays the candidate: covered
  // correspondences and the chosen CSG pair are present.
  const obs::TableProvenance& table =
      recorder.tables().at(run->mappings[0].target_table);
  ASSERT_FALSE(table.derivations.empty());
  const obs::DerivationRecord& d = table.derivations[0];
  EXPECT_EQ(d.origin, "semantic");
  EXPECT_FALSE(d.covered.empty());
  EXPECT_FALSE(d.source_csg.empty());
  EXPECT_FALSE(d.target_csg.empty());
  EXPECT_FALSE(d.source_algebra.empty());
  ASSERT_FALSE(table.attempts.empty());
  EXPECT_EQ(table.attempts[0].status, "ok");
}

TEST(ProvenancePipelineTest, EveryExampleKeepsTheInvariantAtAnyJobs) {
  using Builder = Result<eval::Domain> (*)();
  const Builder builders[] = {
      data::BuildBookstoreExample, data::BuildEmployeeIsaExample,
      data::BuildPartOfExample, data::BuildProjectExample,
      data::BuildSalesReifiedExample};
  for (Builder build : builders) {
    auto domain = build();
    ASSERT_TRUE(domain.ok()) << domain.status();
    for (const eval::TestCase& test_case : domain->cases) {
      for (size_t jobs : {1u, 4u}) {
        obs::ProvenanceRecorder recorder;
        exec::RunContext ctx;
        ctx.provenance = &recorder;
        exec::ResilientPipelineOptions options;
        options.jobs = jobs;
        auto supervised = exec::RunResilientPipeline(
            domain->source, domain->target, test_case.correspondences,
            options, ctx);
        ASSERT_TRUE(supervised.ok())
            << domain->name << "/" << test_case.name << ": "
            << supervised.status();
        ExpectOneEmittedDerivationPerMapping(*supervised, recorder);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: --jobs=N explain output is byte-identical to --jobs=1

TEST(ProvenanceDeterminismTest, ExplainJsonIdenticalAcrossJobCounts) {
  using Builder = Result<eval::Domain> (*)();
  const Builder builders[] = {
      data::BuildBookstoreExample, data::BuildEmployeeIsaExample,
      data::BuildPartOfExample, data::BuildProjectExample,
      data::BuildSalesReifiedExample};
  for (Builder build : builders) {
    auto domain = build();
    ASSERT_TRUE(domain.ok()) << domain.status();
    for (const eval::TestCase& test_case : domain->cases) {
      std::string baseline_json;
      for (size_t jobs : {1u, 4u}) {
        obs::ProvenanceRecorder recorder;
        exec::RunContext ctx;
        ctx.provenance = &recorder;
        exec::ResilientPipelineOptions options;
        options.jobs = jobs;
        auto supervised = exec::RunResilientPipeline(
            domain->source, domain->target, test_case.correspondences,
            options, ctx);
        ASSERT_TRUE(supervised.ok())
            << domain->name << "/" << test_case.name << " jobs=" << jobs
            << ": " << supervised.status();
        if (jobs == 1u) {
          baseline_json = recorder.ToJson();
        } else {
          EXPECT_EQ(recorder.ToJson(), baseline_json)
              << domain->name << "/" << test_case.name
              << ": explain output differs between --jobs=1 and --jobs="
              << jobs;
        }
      }
    }
  }
}

TEST(ProvenanceDeterminismTest, SerialPipelineMatchesSupervisorExplain) {
  auto domain = data::BuildBookstoreExample();
  ASSERT_TRUE(domain.ok()) << domain.status();
  obs::ProvenanceRecorder serial;
  exec::RunContext serial_ctx;
  serial_ctx.provenance = &serial;
  auto serial_run = exec::RunResilientPipeline(
      domain->source, domain->target, domain->cases[0].correspondences, {},
      serial_ctx);
  ASSERT_TRUE(serial_run.ok()) << serial_run.status();

  obs::ProvenanceRecorder supervised;
  exec::RunContext sup_ctx;
  sup_ctx.provenance = &supervised;
  exec::ResilientPipelineOptions options;
  options.jobs = 4;
  auto sup_run = exec::RunResilientPipeline(
      domain->source, domain->target, domain->cases[0].correspondences,
      options, sup_ctx);
  ASSERT_TRUE(sup_run.ok()) << sup_run.status();
  EXPECT_EQ(serial.ToJson(), supervised.ToJson());
}

// ---------------------------------------------------------------------------
// Why-not: the teams scenario degrades semantically and must say why

validate::ArtifactText SlurpArtifact(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return {buffer.str(), path};
}

TEST(ProvenanceWhyNotTest, TeamsScenarioRecordsSemanticTypeRejection) {
  const std::string dir =
      std::string(SEMAP_TEST_DATA_DIR) + "/../../examples/data/teams/";
  validate::ScenarioTexts texts;
  texts.source_schema = SlurpArtifact(dir + "source.schema");
  texts.source_cm = SlurpArtifact(dir + "source.cm");
  texts.source_sem = SlurpArtifact(dir + "source.sem");
  texts.target_schema = SlurpArtifact(dir + "target.schema");
  texts.target_cm = SlurpArtifact(dir + "target.cm");
  texts.target_sem = SlurpArtifact(dir + "target.sem");
  texts.correspondences = SlurpArtifact(dir + "correspondences.txt");
  DiagnosticSink sink;
  auto loaded = validate::LoadScenario(texts, sink);
  ASSERT_TRUE(loaded.ok()) << loaded.status() << "\n" << sink.ToString();
  ASSERT_FALSE(sink.has_errors()) << sink.ToString();

  obs::ProvenanceRecorder recorder;
  exec::RunContext ctx;
  ctx.provenance = &recorder;
  auto run = exec::RunResilientPipeline(loaded->source, loaded->target,
                                        loaded->correspondences, {}, ctx);
  ASSERT_TRUE(run.ok()) << run.status();

  // The many-to-many membership cannot populate the functional worksIn
  // target: the semantic tier must reject the covering candidate and the
  // table must land on the RIC baseline.
  ASSERT_EQ(run->report.tables.size(), 1u);
  EXPECT_EQ(run->report.tables[0].tier, exec::DegradationTier::kRicBaseline);

  const auto it = recorder.tables().find("emp");
  ASSERT_NE(it, recorder.tables().end());
  const obs::TableProvenance& table = it->second;
  EXPECT_EQ(table.tier, "ric-baseline");
  bool found_semantic_type = false;
  for (const obs::RejectionRecord& r : table.rejections) {
    if (r.filter == "semantic-type") {
      found_semantic_type = true;
      EXPECT_FALSE(r.candidate.empty());
      EXPECT_NE(r.detail.find("functional"), std::string::npos) << r.detail;
      EXPECT_EQ(r.covered, 2u);
    }
  }
  EXPECT_TRUE(found_semantic_type)
      << "no semantic-type rejection recorded for emp";
  // The RIC fallback's mappings still got derivations.
  size_t emitted = 0;
  for (const obs::DerivationRecord& d : table.derivations) {
    if (d.emitted) {
      ++emitted;
      EXPECT_EQ(d.origin, "ric-baseline");
    }
  }
  EXPECT_EQ(emitted, run->mappings.size());
}

}  // namespace
}  // namespace semap
