// Shared pieces of the benchmark harness: arguments, the result report,
// timing and order statistics, and span self times.
#ifndef SEMAP_PERFBENCH_COMMON_H_
#define SEMAP_PERFBENCH_COMMON_H_

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/resilient_pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "semantics/stree.h"
#include "util/diag.h"
#include "validate/scenario_loader.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Repository root (examples/data lives under it).
  std::string root = ".";
  /// Scratch directory for the serve_mix catalog and journal.
  std::string workdir = ".bench_build/work";
};

/// Every quantity a run measured, by name, in insertion order.
class Measurements {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& entry : entries_) {
      if (entry.first == name) {
        entry.second = {value, unit};
        return;
      }
    }
    entries_.push_back({name, {value, unit}});
  }
  const std::pair<double, std::string>* Find(const std::string& name) const {
    for (const auto& entry : entries_) {
      if (entry.first == name) return &entry.second;
    }
    return nullptr;
  }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;
  Measurements values;
  /// Input sizes and other facts about the workload (printed, not gated).
  std::vector<std::pair<std::string, std::string>> facts;

  void Fail(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
  void Fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
};

/// Quantile with linear interpolation between order statistics (the
/// "inclusive" method of Python's statistics.quantiles).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Total size of a scenario's seven artifact texts.
inline size_t InputBytes(const semap::validate::ScenarioTexts& t) {
  return t.source_schema.text.size() + t.source_cm.text.size() +
         t.source_sem.text.size() + t.target_schema.text.size() +
         t.target_cm.text.size() + t.target_sem.text.size() +
         t.correspondences.text.size();
}

/// Peak resident set size of this process (VmHWM), in MB.
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Summed self time (duration minus the children's durations) of every
/// closed span, per span name.
inline std::map<std::string, int64_t> SelfTimes(
    const semap::obs::Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const semap::obs::SpanRecord& s : spans) {
    if (s.parent >= 0 && s.duration_ns >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.duration_ns;
    }
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].duration_ns < 0) continue;
    out[spans[i].name] += spans[i].duration_ns - child_ns[i];
  }
  return out;
}

/// Moves the calling thread round the CPUs it may run on, one step per
/// Next(). On a shared host each CPU slows down on its own, for tens of
/// seconds at a time, when a neighbour loads it; a closed loop that stays
/// on one CPU measures that CPU's neighbour. Rotating after every pass
/// spreads the passes evenly over the CPUs. Restores the original mask on
/// destruction.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (moved_) (void)sched_setaffinity(0, sizeof(original_), &original_);
  }
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    moved_ = sched_setaffinity(0, sizeof(one), &one) == 0 || moved_;
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  bool moved_ = false;
};

/// Median wall time of `reps` calls of `setup`, each on the next CPU.
template <typename F>
double MedianSetupSeconds(int reps, F&& setup) {
  CpuRotation cpus;
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    cpus.Next();
    const Clock::time_point t0 = Clock::now();
    setup();
    seconds.push_back(SecondsBetween(t0, Clock::now()));
  }
  return Median(seconds);
}

/// End-to-end figures of a closed loop from its per-run latencies:
/// completed runs per second of measured time, median and p95 latency.
inline void SetClosedLoopMetrics(const std::vector<double>& latencies_ms,
                                 Report& rep) {
  double total_ms = 0;
  for (double ms : latencies_ms) total_ms += ms;
  rep.values.Set("runs_per_s",
                 Ratio(static_cast<double>(latencies_ms.size()), total_ms / 1e3),
                 "1/s");
  rep.values.Set("run_p50_ms", Quantile(latencies_ms, 0.50), "ms");
  rep.values.Set("run_p95_ms", Quantile(latencies_ms, 0.95), "ms");
  rep.Fact("samples", std::to_string(latencies_ms.size()));
}

/// The paper's phase spans, whose self times the traced runs report.
inline const std::vector<std::pair<std::string, std::string>>& PhaseSpans() {
  static const std::vector<std::pair<std::string, std::string>> kPhases = {
      {"stree_inference", "discovery.stree_inference_ns"},
      {"tree_search", "discovery.tree_search_ns"},
      {"csg_pairing", "discovery.csg_pairing_ns"},
      {"filtering", "discovery.filtering_ns"},
      {"rewriting", "rewriting.search_ns"},
      {"ric_baseline", "baseline.ric_ns"},
  };
  return kPhases;
}

inline double Counter(const semap::obs::Metrics& m, const char* name) {
  return static_cast<double>(m.Value(name));
}

/// The counter-derived per-layer metrics shared by every workload, as
/// per-run means over `runs` runs.
inline void SetCounterMetrics(const semap::obs::Metrics& m, double runs,
                              Report& rep) {
  rep.values.Set("rewriting.resolution_steps",
                 Ratio(Counter(m, "rewriting.resolution_steps"), runs),
                 "count");
  rep.values.Set("rewriting.kept_frac",
                 Ratio(Counter(m, "rewriting.rewritings_kept"),
                       Counter(m, "rewriting.rewritings_enumerated")),
                 "ratio");
  rep.values.Set("rewriting.memo_hits",
                 Ratio(Counter(m, "rewriting.memo_hits"), runs), "count");
  rep.values.Set("discovery.kept_frac",
                 Ratio(Counter(m, "discovery.candidates_returned"),
                       Counter(m, "discovery.candidates_assembled")),
                 "ratio");
  rep.values.Set("exec.tables", Ratio(Counter(m, "pipeline.tables"), runs),
                 "count");
  rep.values.Set("exec.tier_attempts",
                 Ratio(Counter(m, "pipeline.tier_attempts"), runs), "count");
  rep.values.Set("exec.tables_degraded",
                 Ratio(Counter(m, "pipeline.degraded_tables"), runs), "count");
}

/// Median time of the schema-side preparation rew::GenerateMappings
/// redoes on every call: rew::InverseRulesForSchema on both sides plus
/// sem::DeriveSchemaFds / DeriveCrossTableFds on both sides.
int64_t PrepareNs(const semap::sem::AnnotatedSchema& source,
                  const semap::sem::AnnotatedSchema& target);

/// One resilient run assembled from its public pieces —
/// exec::PrepareResilientRun, one exec::RunTableCascade per target table,
/// exec::MappingMerger — exactly as exec::RunResilientPipeline runs them,
/// traced, with every call timed from outside.
struct ComposedRun {
  semap::exec::ResilientResult result;
  std::map<std::string, int64_t> self_ns;  // span self times, by span name
  int64_t prepare_ns = 0;  // PrepareResilientRun
  int64_t cascade_ns = 0;  // RunTableCascade calls
  int64_t merge_ns = 0;    // MappingMerger::Emit calls
  int64_t tables = 0;
  int64_t degraded = 0;
  int64_t merge_dropped = 0;
  /// rew::GenerateMappings calls (semantic tier attempts).
  int64_t semantic_calls = 0;
};
semap::Result<ComposedRun> RunComposed(
    const semap::validate::LoadedScenario& scenario,
    semap::DiagnosticSink& sink, semap::obs::Metrics* metrics);

// Workloads. Each fills `rep`; a false return means the workload could
// not run at all (set-up failed), as opposed to producing wrong output.
bool RunTable1(const Args& args, Report& rep);
bool RunWide(const Args& args, Report& rep);
bool RunServeMix(const Args& args, Report& rep);
/// Generator determinism checks; returns the number of failed checks.
int SelfTest();

}  // namespace perfbench

#endif  // SEMAP_PERFBENCH_COMMON_H_
