// The crash matrix: every syscall the checkpoint store issues during a
// full supervised run is a fault point, and a simulated kill at ANY of
// them must leave a journal that (a) replays to a clean prefix, twice
// identically, and (b) resumes to a mapping set and degradation report
// byte-identical to an uninterrupted run's.
//
// The sweep is sized empirically: a probe run under an unarmed FaultEnv
// counts the write/fsync/rename operations an uninterrupted checkpointed
// run issues, then every (op, k, mode) combination with mode in
// {crash, short-write} is injected through ResilientPipelineOptions::io_env.
// The "restart" reopens the frozen on-disk state with the real Env —
// exactly what a rerun after SIGKILL does. SEMAP_IO_FAULT drives the
// same machinery against the unmodified semap_map binary (see
// docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "datasets/domains.h"
#include "datasets/examples.h"
#include "exec/resilient_pipeline.h"
#include "store/env.h"
#include "store/journal.h"

namespace semap {
namespace {

using store::Env;
using store::FaultEnv;
using store::FaultMode;
using store::FaultPlan;
using store::IoOp;
using store::Journal;

/// The University domain's cases concatenated: two target tables, so a
/// crash can land between completed units, not just before/after all of
/// them.
eval::Domain University(std::vector<disc::Correspondence>* correspondences) {
  auto domain = data::BuildUniversity();
  EXPECT_TRUE(domain.ok()) << domain.status();
  correspondences->clear();
  for (const eval::TestCase& c : domain->cases) {
    correspondences->insert(correspondences->end(), c.correspondences.begin(),
                            c.correspondences.end());
  }
  return std::move(*domain);
}

std::vector<std::string> MappingKeys(const exec::ResilientResult& result) {
  std::vector<std::string> keys;
  keys.reserve(result.mappings.size());
  for (const exec::ResilientMapping& m : result.mappings) {
    keys.push_back(std::string(exec::TierName(m.tier)) + " " +
                   m.tgd.ToString());
  }
  return keys;
}

/// The path carries the running test's name: ctest runs each TEST_F in
/// its own process, concurrently, and the fixture re-creates its
/// reference journal in every one of them — a shared filename would
/// race across processes.
std::string FreshJournalPath(const char* name) {
  const std::string path =
      testing::TempDir() + "/" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + "." +
      name + ".checkpoint.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

/// Invariants I1 + I2 (store/journal.h): whatever the kill left on disk
/// replays without error, and replaying it twice yields identical
/// records.
void ExpectCleanIdenticalReplays(const std::string& path,
                                 const std::string& context) {
  if (!Env::Default()->Exists(path)) return;  // killed before creation
  auto once = Journal::Replay(path);
  ASSERT_TRUE(once.ok()) << context << ": " << once.status();
  auto twice = Journal::Replay(path);
  ASSERT_TRUE(twice.ok()) << context << ": " << twice.status();
  ASSERT_EQ(once->records.size(), twice->records.size()) << context;
  for (size_t i = 0; i < once->records.size(); ++i) {
    EXPECT_EQ(once->records[i].lsn, twice->records[i].lsn) << context;
    EXPECT_EQ(once->records[i].type, twice->records[i].type) << context;
    EXPECT_EQ(once->records[i].payload, twice->records[i].payload) << context;
  }
}

class CrashMatrixTest : public testing::Test {
 protected:
  void SetUp() override {
    domain_ = University(&correspondences_);
    // Reference: one uninterrupted checkpointed run.
    const std::string ref_path = FreshJournalPath("crash_matrix_ref");
    exec::ResilientPipelineOptions ref_opts;
    ref_opts.checkpoint_path = ref_path;
    auto reference = exec::RunResilientPipeline(
        domain_.source, domain_.target, correspondences_, ref_opts);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_TRUE(reference->journal_warning.empty())
        << reference->journal_warning;
    reference_keys_ = MappingKeys(*reference);
    reference_report_ = reference->report.ToString();
    ASSERT_FALSE(reference_keys_.empty());
    std::remove(ref_path.c_str());
  }

  /// Run once with `plan` armed, then restart with the real Env and
  /// assert full recovery to the reference result.
  void RunFaultedThenRecover(FaultPlan plan, const std::string& context) {
    SCOPED_TRACE(context);
    const std::string path = FreshJournalPath("crash_matrix_run");

    FaultEnv env;
    env.set_plan(plan);
    exec::ResilientPipelineOptions faulted_opts;
    faulted_opts.checkpoint_path = path;
    faulted_opts.io_env = &env;
    auto faulted = exec::RunResilientPipeline(
        domain_.source, domain_.target, correspondences_, faulted_opts);
    // A kill at journal creation fails the run outright; a kill during
    // appends degrades to journal warnings while discovery finishes in
    // memory. Both are legitimate crash shapes — what matters is the
    // disk state and the rerun.
    if (plan.mode != FaultMode::kFail) {
      EXPECT_TRUE(env.crashed()) << context << ": plan never fired";
    }
    if (faulted.ok() && env.crashed()) {
      EXPECT_FALSE(faulted->journal_warning.empty()) << context;
    }

    ExpectCleanIdenticalReplays(path, context);

    // Restart: same scenario, real I/O, resume from whatever survived.
    exec::ResilientPipelineOptions resume_opts;
    resume_opts.checkpoint_path = path;
    resume_opts.resume = true;
    auto resumed = exec::RunResilientPipeline(
        domain_.source, domain_.target, correspondences_, resume_opts);
    ASSERT_TRUE(resumed.ok()) << context << ": " << resumed.status();
    EXPECT_EQ(MappingKeys(*resumed), reference_keys_) << context;
    EXPECT_EQ(resumed->report.ToString(), reference_report_) << context;

    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }

  eval::Domain domain_;
  std::vector<disc::Correspondence> correspondences_;
  std::vector<std::string> reference_keys_;
  std::string reference_report_;
};

TEST_F(CrashMatrixTest, KillAtEveryFaultPointRecoversToIdenticalOutput) {
  // Probe: count the fault points of one uninterrupted run.
  FaultEnv probe;
  const std::string probe_path = FreshJournalPath("crash_matrix_probe");
  exec::ResilientPipelineOptions probe_opts;
  probe_opts.checkpoint_path = probe_path;
  probe_opts.io_env = &probe;
  auto probed = exec::RunResilientPipeline(domain_.source, domain_.target,
                                           correspondences_, probe_opts);
  ASSERT_TRUE(probed.ok()) << probed.status();
  ASSERT_FALSE(probe.crashed());
  std::remove(probe_path.c_str());

  // Every write, fsync and rename the run issued is a kill site.
  size_t points = 0;
  for (const IoOp op : {IoOp::kWrite, IoOp::kFsync, IoOp::kRename}) {
    const int64_t total = probe.count(op);
    ASSERT_GT(total, 0) << store::IoOpName(op)
                        << ": probe saw no operations to sweep";
    for (int64_t k = 1; k <= total; ++k) {
      for (const FaultMode mode : {FaultMode::kCrash, FaultMode::kShortWrite}) {
        FaultPlan plan;
        plan.op = op;
        plan.after = k;
        plan.mode = mode;
        RunFaultedThenRecover(
            plan, std::string("kill at ") + store::IoOpName(op) + " #" +
                      std::to_string(k) +
                      (mode == FaultMode::kShortWrite ? " (short write)"
                                                      : " (crash)"));
        ++points;
      }
    }
  }
  // The matrix must actually cover the journal's write path: header
  // write + rename at creation, then an append+fsync per unit at least.
  EXPECT_GE(points, 8u);
}

TEST_F(CrashMatrixTest, TransientIoFailureStillRecoversOnRerun) {
  // kFail is the non-kill column of the matrix: the op errors once and
  // the environment lives on. The run may fail or degrade; the rerun
  // must still converge.
  for (const IoOp op : {IoOp::kWrite, IoOp::kFsync, IoOp::kRename}) {
    FaultPlan plan;
    plan.op = op;
    plan.after = 1;
    plan.mode = FaultMode::kFail;
    RunFaultedThenRecover(plan, std::string("transient ") +
                                    store::IoOpName(op) + " failure");
  }
}

TEST_F(CrashMatrixTest, ResumingTwiceAfterACrashIsIdempotent) {
  const std::string path = FreshJournalPath("crash_matrix_double");
  FaultEnv env;
  FaultPlan plan;
  plan.op = IoOp::kFsync;
  plan.after = 3;  // past journal creation, into the append stream
  plan.mode = FaultMode::kCrash;
  env.set_plan(plan);
  exec::ResilientPipelineOptions faulted_opts;
  faulted_opts.checkpoint_path = path;
  faulted_opts.io_env = &env;
  auto faulted = exec::RunResilientPipeline(domain_.source, domain_.target,
                                            correspondences_, faulted_opts);
  ASSERT_TRUE(env.crashed());

  // First resume completes the work; a second resume then serves
  // everything from the store and must reproduce the same bytes (I2 at
  // the catalog level).
  exec::ResilientPipelineOptions resume_opts;
  resume_opts.checkpoint_path = path;
  resume_opts.resume = true;
  auto first = exec::RunResilientPipeline(domain_.source, domain_.target,
                                          correspondences_, resume_opts);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = exec::RunResilientPipeline(domain_.source, domain_.target,
                                           correspondences_, resume_opts);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(MappingKeys(*first), reference_keys_);
  EXPECT_EQ(MappingKeys(*second), reference_keys_);
  EXPECT_EQ(second->report.ToString(), reference_report_);
  size_t from_checkpoint = 0;
  for (const exec::UnitReport& unit : second->units) {
    if (unit.from_checkpoint) ++from_checkpoint;
  }
  EXPECT_EQ(from_checkpoint, second->units.size())
      << "second resume should recompute nothing";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace semap
