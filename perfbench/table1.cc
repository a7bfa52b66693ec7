// table1: the paper's seven Table 1 domains (34 cases), each case run
// once through rew::GenerateMappings per pass, closed loop on one thread.
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "datasets/domains.h"
#include "eval/experiment.h"
#include "exec/run_context.h"
#include "logic/interner.h"
#include "rewriting/inverse_rules.h"
#include "rewriting/semantic_mapper.h"
#include "rng.h"
#include "semantics/fd.h"

namespace perfbench {

namespace {

using semap::eval::Domain;
using semap::eval::TestCase;

constexpr int kSetupReps = 16;
constexpr int kPrepareReps = 5;

struct Case {
  const Domain* domain = nullptr;
  size_t domain_index = 0;
  const TestCase* test = nullptr;
};

/// Everything a case's output must reproduce: every variant of every
/// mapping, plus both algebra renderings.
std::string Render(const std::vector<semap::rew::GeneratedMapping>& mappings) {
  std::string out;
  for (const semap::rew::GeneratedMapping& m : mappings) {
    for (const semap::logic::Tgd& v : m.variants) out += v.ToString() + "\n";
    out += m.source_algebra + "\n" + m.target_algebra + "\n--\n";
  }
  return out;
}

semap::Result<std::vector<semap::rew::GeneratedMapping>> Generate(
    const Case& c, const semap::exec::RunContext& ctx) {
  semap::rew::MapRequest req;
  req.source = &c.domain->source;
  req.target = &c.domain->target;
  req.correspondences = &c.test->correspondences;
  return semap::rew::GenerateMappings(req, ctx);
}

}  // namespace

int64_t PrepareNs(const semap::sem::AnnotatedSchema& source,
                  const semap::sem::AnnotatedSchema& target) {
  std::vector<double> reps;
  for (int r = 0; r < kPrepareReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    semap::logic::TermFactory factory;
    auto source_rules = semap::rew::InverseRulesForSchema(source, &factory);
    auto target_rules = semap::rew::InverseRulesForSchema(target, &factory);
    auto source_fds = semap::sem::DeriveSchemaFds(source);
    auto target_fds = semap::sem::DeriveSchemaFds(target);
    auto source_cross = semap::sem::DeriveCrossTableFds(source);
    auto target_cross = semap::sem::DeriveCrossTableFds(target);
    reps.push_back(static_cast<double>(NsBetween(t0, Clock::now())));
  }
  return static_cast<int64_t>(Median(reps));
}

bool RunTable1(const Args& args, Report& rep) {
  // Set-up: build the seven domains (parsing every CM, schema and s-tree
  // text), several times; the median is setup_s.
  std::vector<Domain> domains;
  semap::Status built_status = semap::Status::OK();
  const double setup_s = MedianSetupSeconds(args.trace ? 1 : kSetupReps, [&] {
    auto built = semap::data::BuildAllDomains();
    if (!built.ok()) {
      built_status = built.status();
    } else {
      domains = std::move(*built);
    }
  });
  if (!built_status.ok()) {
    rep.Fail("BuildAllDomains: " + built_status.ToString());
    return false;
  }
  rep.values.Set("setup_s", setup_s, "s");

  std::vector<Case> cases;
  for (size_t d = 0; d < domains.size(); ++d) {
    for (const TestCase& t : domains[d].cases) {
      cases.push_back({&domains[d], d, &t});
    }
  }
  // The seed fixes the (per-pass) case order; every pass runs every case.
  Rng(args.seed).Shuffle(cases);
  rep.Fact("domains", std::to_string(domains.size()));
  rep.Fact("cases", std::to_string(cases.size()));

  // Reference pass: score every case against its hand-written benchmark
  // tgds (the paper's precision/recall), and keep each case's rendered
  // output, which every timed run must reproduce exactly.
  std::vector<std::string> reference(cases.size());
  std::vector<double> domain_precision(domains.size(), 0);
  std::vector<double> domain_recall(domains.size(), 0);
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    auto mappings = Generate(c, {});
    if (!mappings.ok()) {
      rep.Fail(c.test->name + ": " + mappings.status().ToString());
      return false;
    }
    reference[i] = Render(*mappings);
    std::vector<std::vector<semap::logic::Tgd>> generated;
    for (const auto& m : *mappings) generated.push_back(m.variants);
    semap::eval::CaseResult score = semap::eval::ScoreCase(
        c.test->name, generated, c.test->benchmark, c.domain->source,
        c.domain->target);
    const double n = static_cast<double>(c.domain->cases.size());
    domain_precision[c.domain_index] += score.precision / n;
    domain_recall[c.domain_index] += score.recall / n;
  }
  const double precision = Mean(domain_precision);
  const double recall = Mean(domain_recall);
  rep.values.Set("precision", precision, "ratio");
  rep.values.Set("recall", recall, "ratio");
  // EXPERIMENTS.md: semantic precision 0.960, recall 1.000 over the seven
  // domains (mean of the per-domain averages).
  if (std::abs(precision - 0.960) >= 0.0005 || std::abs(recall - 1.0) > 1e-9) {
    rep.Fail("table1 quality drifted: precision " + std::to_string(precision) +
             ", recall " + std::to_string(recall) +
             " (expected 0.960 / 1.000)");
  }

  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(args.seconds);
  auto check = [&](size_t i, const auto& mappings) {
    ++rep.attempted;
    if (!mappings.ok() || Render(*mappings) != reference[i]) {
      ++rep.failed;
      rep.Fail(cases[i].test->name + ": output differs from the reference");
    }
  };

  if (!args.trace) {
    // Closed loop, whole passes only, so every case weighs the same; each
    // pass on the next CPU.
    std::vector<double> latencies_ms;
    size_t passes = 0;
    CpuRotation cpus;
    for (; Clock::now() < deadline; ++passes) {
      cpus.Next();
      for (size_t i = 0; i < cases.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        auto mappings = Generate(cases[i], {});
        latencies_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
        check(i, mappings);
      }
    }
    SetClosedLoopMetrics(latencies_ms, rep);
    rep.values.Set("failed_frac", Ratio(static_cast<double>(rep.failed),
                                        static_cast<double>(rep.attempted)),
                   "ratio");
    rep.values.Set("peak_rss_mb", PeakRssMb(), "MB");
    rep.Fact("passes", std::to_string(passes));
    return true;
  }

  // Traced: alternate untraced and traced passes; the traced ones carry a
  // tracer and metrics, whose span self times attribute the run.
  std::vector<int64_t> prepare_ns(domains.size());
  for (size_t d = 0; d < domains.size(); ++d) {
    prepare_ns[d] = PrepareNs(domains[d].source, domains[d].target);
  }

  semap::obs::Metrics metrics;
  std::map<std::string, int64_t> self_ns;
  double untraced_s = 0, traced_s = 0, prepare_total_ns = 0;
  int64_t untraced_runs = 0, traced_runs = 0;
  CpuRotation cpus;
  while (Clock::now() < deadline) {
    cpus.Next();
    for (size_t i = 0; i < cases.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      auto mappings = Generate(cases[i], {});
      untraced_s += SecondsBetween(t0, Clock::now());
      ++untraced_runs;
      check(i, mappings);
    }
    semap::obs::Tracer tracer;
    semap::exec::RunContext ctx;
    ctx.tracer = &tracer;
    ctx.metrics = &metrics;
    for (size_t i = 0; i < cases.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      auto mappings = Generate(cases[i], ctx);
      traced_s += SecondsBetween(t0, Clock::now());
      ++traced_runs;
      prepare_total_ns +=
          static_cast<double>(prepare_ns[cases[i].domain_index]);
      check(i, mappings);
    }
    for (const auto& [name, ns] : SelfTimes(tracer)) self_ns[name] += ns;
  }

  const double runs = static_cast<double>(traced_runs);
  const double wall_ns = traced_s * 1e9;
  double attributed_ns = prepare_total_ns;
  for (const auto& [span, metric] : PhaseSpans()) {
    const double ns = static_cast<double>(self_ns[span]);
    attributed_ns += ns;
    rep.values.Set(metric, ns / runs, "ns");
  }
  rep.values.Set("rewriting.prepare_ns", prepare_total_ns / runs, "ns");
  rep.values.Set("rewriting.prepare_frac", Ratio(prepare_total_ns, wall_ns),
                 "ratio");
  SetCounterMetrics(metrics, runs, rep);
  rep.values.Set("exec.merge_dropped", 0, "count");
  rep.values.Set("validate.input_bytes", 0, "bytes");
  rep.values.Set("serve.cache_hit_frac", 0, "ratio");
  rep.values.Set("serve.artifact_compiles", 0, "count");
  rep.values.Set("serve.shed", 0, "count");
  rep.values.Set("serve.deadline_shed", 0, "count");
  rep.values.Set("unattributed_frac",
                 std::max(0.0, 1.0 - Ratio(attributed_ns, wall_ns)), "ratio");
  const double untraced_per_run =
      untraced_s / static_cast<double>(untraced_runs);
  rep.values.Set("obs.trace_overhead_frac",
                 Ratio(traced_s / runs, untraced_per_run) - 1.0, "ratio");
  rep.values.Set("run_ns_traced", wall_ns / runs, "ns");
  rep.Fact("traced_runs", std::to_string(traced_runs));
  return true;
}

}  // namespace perfbench
