// Command-line mapping generator: the library's end-to-end pipeline over
// files in the three text formats.
//
//   semap_map <src.schema> <src.cm> <src.sem>
//             <tgt.schema> <tgt.cm> <tgt.sem> <correspondences>
//             [--baseline] [--hints] [--variants] [--sql] [--lint]
//             [--resilient] [--deadline-ms=N] [--max-steps=N]
//             [--jobs=N] [--unit-deadline-ms=N] [--retry-seed=N]
//             [--checkpoint=FILE] [--resume=FILE]
//             [--trace=FILE] [--metrics=FILE] [--explain=FILE]
//             [--events=FILE] [--profile] [--version]
//
// --deadline-ms / --max-steps (or --resilient alone, ungoverned) switch
// to the resource-governed degradation cascade: full semantic discovery,
// then restricted semantic discovery, then the RIC baseline, per target
// table. The inputs are loaded fail-soft (recovery-mode parsers; broken
// artifacts quarantined with coded diagnostics) and the DegradationReport
// is printed after the mappings.
//
// Every resilient run goes through exec::RunResilientPipeline, one
// supervised unit per target table. --jobs / --unit-deadline-ms /
// --retry-seed / --checkpoint / --resume configure that supervision: a
// worker pool, unit retry under seeded backoff (two attempts per unit), a
// watchdog-enforced per-unit deadline, a circuit breaker down to the RIC
// tier (after three consecutive semantic losses), and a crash-safe
// checkpoint journal that --resume picks up to skip finished tables. Any
// of these flags implies --resilient and prints a supervisor summary;
// plain --resilient runs each unit once, inline, with no breaker.
//
// --lint only loads the scenario fail-soft and prints the collected
// diagnostics; no mappings are generated.
//
// --trace / --metrics / --profile turn on the observability layer (see
// docs/OBSERVABILITY.md): one JSON span tree per run, a flat
// counter/histogram table, and a human-readable phase profile on stdout.
// --explain writes per-table mapping provenance (semap.explain.v1, read
// by tools/semap_explain; implies --resilient) and --events appends a
// wide-event NDJSON stream (semap.events.v1) as the run progresses.
// Without these flags no tracer, metrics, provenance or event object
// exists and the output is byte-identical to an uninstrumented run.
//
// Supervised runs shut down gracefully on SIGINT/SIGTERM: no new table
// starts, running cascades are cancelled through their governors, the
// checkpoint journal and --events stream are flushed, and the process
// exits with code 4 — rerun with --resume to pick up where it stopped.
// A second signal exits immediately (128+sig). The SEMAP_IO_FAULT
// environment variable (a comma-separated list of "<op>:<k>[:<mode>]"
// specs, see store/env.h) injects syscall-level faults into the k-th
// checkpoint-store open/write/fsync/rename for crash drills against the
// unmodified binary.
//
// Exit codes: 0 success, 1 input/pipeline error (with --lint: at least
// one error diagnostic), 2 usage,
// 3 = at least one table degraded to the RIC tier, was quarantined, or
// failed (mappings were still emitted; the report says which tables
// degraded and why),
// 4 = interrupted by SIGINT/SIGTERM (finished tables are checkpointed;
// resume with --resume).
//
// Sample inputs live in examples/data/bookstore/:
//
//   ./tools/semap_map examples/data/bookstore/source.{schema,cm,sem}
//       examples/data/bookstore/target.{schema,cm,sem}
//       examples/data/bookstore/correspondences.txt --hints
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "baseline/ric_mapper.h"
#include "store/env.h"
#include "datasets/builder_util.h"
#include "exec/resilient_pipeline.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "rewriting/semantic_mapper.h"
#include "rewriting/sql.h"
#include "util/version.h"
#include "validate/scenario_loader.h"

namespace {

using namespace semap;

constexpr const char kOptionTable[] =
    "options:\n"
    "  --baseline        also run the RIC-based (Clio-style) baseline\n"
    "  --hints           print per-edge outer-join hints\n"
    "  --variants        print alternative rewriting variants\n"
    "  --sql             print SQL renderings of each mapping\n"
    "  --lint            fail-soft load + diagnostics only; no mappings\n"
    "  --resilient       per-table degradation cascade (fail-soft load)\n"
    "  --deadline-ms=N   overall wall-clock budget (implies --resilient)\n"
    "  --max-steps=N     search step budget (implies --resilient)\n"
    "  --jobs=N          supervised worker pool with N threads (implies\n"
    "                    --resilient; N=1 runs the units inline)\n"
    "  --unit-deadline-ms=N  per-table deadline, watchdog-enforced\n"
    "                    (implies --jobs)\n"
    "  --retry-seed=N    seed for the retry backoff jitter (implies --jobs)\n"
    "  --checkpoint=FILE journal completed tables to FILE (implies --jobs)\n"
    "  --resume=FILE     resume from FILE, skipping finished tables\n"
    "                    (implies --checkpoint=FILE)\n"
    "  --trace=FILE      write the span tree as JSON (semap.trace.v1)\n"
    "  --metrics=FILE    write counters/histograms as JSON "
    "(semap.metrics.v1)\n"
    "  --explain=FILE    write mapping provenance as JSON "
    "(semap.explain.v1;\n"
    "                    implies --resilient; read it with semap_explain)\n"
    "  --events=FILE     append wide events as NDJSON (semap.events.v1)\n"
    "  --profile         print a phase profile + top counters to stdout\n"
    "  --version         print the version and exit\n"
    "  --help            print this table and exit\n"
    "supervised runs stop gracefully on SIGINT/SIGTERM: the checkpoint\n"
    "journal is flushed and the run exits 4 (resume with --resume);\n"
    "a second signal exits immediately\n"
    "exit codes: 0 ok, 1 error (--lint: errors found), 2 usage, 3 degraded "
    "to the RIC tier or quarantined (see the printed degradation report), "
    "4 interrupted by a shutdown signal\n";

void PrintUsage(FILE* out, const char* prog) {
  std::fprintf(out,
               "usage: %s <src.schema> <src.cm> <src.sem> <tgt.schema> "
               "<tgt.cm> <tgt.sem> <corrs> [options]\n%s",
               prog, kOptionTable);
}

// Graceful-shutdown flag, set from the signal handler and polled by the
// pipeline's monitor thread. The first SIGINT/SIGTERM requests a
// cooperative stop (flush the checkpoint journal, exit 4); a second one
// gives up on cooperation and exits with the conventional 128+sig.
std::atomic<bool> g_shutdown{false};
std::atomic<int> g_shutdown_signal{0};

extern "C" void OnShutdownSignal(int sig) {
  if (g_shutdown.exchange(true)) std::_Exit(128 + sig);
  g_shutdown_signal.store(sig);
}

Result<std::string> ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(std::string("cannot open ") + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

struct Options {
  bool show_baseline = false;
  bool show_hints = false;
  bool show_variants = false;
  bool show_sql = false;
  bool resilient = false;
  bool lint_only = false;
  bool profile = false;
  long long deadline_ms = -1;
  long long max_steps = -1;
  std::string trace_path;
  std::string metrics_path;
  std::string explain_path;
  std::string events_path;
  // Supervised execution (any of these implies supervised + resilient).
  bool supervised = false;
  bool resume = false;
  long long jobs = 1;
  long long unit_deadline_ms = -1;
  unsigned long long retry_seed = 0;
  std::string checkpoint_path;
  /// Checkpoint-store I/O seam; non-null when SEMAP_IO_FAULT armed a
  /// fault-injecting environment.
  store::Env* io_env = nullptr;
};

/// The pipeline proper; split out of main so every exit path flows
/// through the trace/metrics export below. `ctx` carries the tracer and
/// metrics when observability flags are set, null services otherwise.
int RunPipeline(char** argv, const Options& opts, const exec::RunContext& ctx) {
  std::string texts[7];
  for (int i = 0; i < 7; ++i) {
    auto content = ReadFile(argv[i + 1]);
    if (!content.ok()) {
      std::fprintf(stderr, "error: %s\n", content.status().ToString().c_str());
      return 1;
    }
    texts[i] = std::move(*content);
  }

  if (opts.lint_only || opts.resilient) {
    // Fail-soft load: recovery-mode parsers, cross-artifact lints,
    // quarantines. Broken artifacts become coded diagnostics, not exits.
    validate::ScenarioTexts scenario;
    validate::ArtifactText* slots[7] = {
        &scenario.source_schema, &scenario.source_cm,
        &scenario.source_sem,    &scenario.target_schema,
        &scenario.target_cm,     &scenario.target_sem,
        &scenario.correspondences};
    for (int i = 0; i < 7; ++i) {
      slots[i]->text = texts[i];
      slots[i]->name = argv[i + 1];
    }
    DiagnosticSink sink;
    auto loaded = validate::LoadScenario(scenario, sink);
    if (!sink.empty() || opts.lint_only) {
      std::printf("%s\n", sink.ToString().c_str());
    }
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    if (opts.lint_only) {
      std::printf("usable: %zu source s-tree(s), %zu target s-tree(s), "
                  "%zu correspondence(s)\n",
                  loaded->source.semantics().size(),
                  loaded->target.semantics().size(),
                  loaded->correspondences.size());
      return sink.has_errors() ? 1 : 0;
    }

    std::printf("%zu correspondence(s):\n", loaded->correspondences.size());
    for (const auto& c : loaded->correspondences) {
      std::printf("  %s\n", c.ToString().c_str());
    }
    exec::ResilientPipelineOptions pipeline_opts;
    pipeline_opts.deadline_ms = opts.deadline_ms;
    pipeline_opts.max_steps = opts.max_steps;
    pipeline_opts.jobs = static_cast<size_t>(opts.jobs);
    pipeline_opts.unit_deadline_ms = opts.unit_deadline_ms;
    pipeline_opts.backoff.seed = opts.retry_seed;
    pipeline_opts.checkpoint_path = opts.checkpoint_path;
    pipeline_opts.resume = opts.resume;
    pipeline_opts.io_env = opts.io_env;
    if (opts.supervised) {
      // Supervision flags also turn on unit retry, the circuit breaker
      // and graceful shutdown.
      pipeline_opts.unit_attempts = 2;
      pipeline_opts.breaker_threshold = 3;
      pipeline_opts.cancel = &g_shutdown;
    }
    exec::RunContext run_ctx = ctx;
    run_ctx.sink = &sink;
    const size_t load_diags = sink.diagnostics().size();
    auto result =
        exec::RunResilientPipeline(loaded->source, loaded->target,
                                   loaded->correspondences, pipeline_opts,
                                   run_ctx);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const exec::ResilientResult& run = *result;
    if (!run.journal_warning.empty()) {
      std::fprintf(stderr, "warning: %s\n", run.journal_warning.c_str());
    }
    if (run.interrupted && ctx.events != nullptr) {
      ctx.events->Emit(
          "run_interrupted",
          obs::WideEvent()
              .Int("signal", g_shutdown_signal.load())
              .Bool("checkpointed", !opts.checkpoint_path.empty()));
    }
    std::printf("\n%zu mapping(s):\n", run.mappings.size());
    int index = 1;
    for (const auto& m : run.mappings) {
      std::printf("[%d] (%s) %s\n", index, exec::TierName(m.tier),
                  m.tgd.ToString().c_str());
      if (!m.source_algebra.empty()) {
        std::printf("    source: %s\n", m.source_algebra.c_str());
        std::printf("    target: %s\n", m.target_algebra.c_str());
      }
      ++index;
    }
    for (size_t i = load_diags; i < sink.diagnostics().size(); ++i) {
      std::printf("%s\n", sink.diagnostics()[i].ToString().c_str());
    }
    std::printf("\n%s", run.report.ToString().c_str());
    if (opts.supervised) {
      size_t resumed = 0;
      for (const exec::UnitReport& u : run.units) {
        if (u.from_checkpoint) ++resumed;
      }
      std::printf("supervisor: %zu unit(s), %zu retry(ies), %zu resumed from "
                  "checkpoint\n",
                  run.units.size(), run.retries, resumed);
      if (run.breaker_tripped) {
        std::printf("supervisor: circuit breaker tripped\n");
      }
      if (run.interrupted) {
        std::printf("supervisor: run interrupted by a shutdown signal; "
                    "finished tables are checkpointed%s\n",
                    opts.checkpoint_path.empty()
                        ? " (no --checkpoint journal was configured)"
                        : ", rerun with --resume to continue");
      }
    }
    if (run.interrupted) return 4;
    return run.report.AnyAtBaselineOrWorse() || sink.has_errors() ? 3 : 0;
  }

  auto source = data::AnnotatedFromText(texts[0], texts[1], texts[2]);
  if (!source.ok()) {
    std::fprintf(stderr, "source error: %s\n",
                 source.status().ToString().c_str());
    return 1;
  }
  auto target = data::AnnotatedFromText(texts[3], texts[4], texts[5]);
  if (!target.ok()) {
    std::fprintf(stderr, "target error: %s\n",
                 target.status().ToString().c_str());
    return 1;
  }
  auto correspondences = disc::ParseCorrespondences(texts[6]);
  if (!correspondences.ok()) {
    std::fprintf(stderr, "correspondence error: %s\n",
                 correspondences.status().ToString().c_str());
    return 1;
  }

  std::printf("%zu correspondence(s):\n", correspondences->size());
  for (const auto& c : *correspondences) {
    std::printf("  %s\n", c.ToString().c_str());
  }

  rew::MapRequest map_req;
  map_req.source = &*source;
  map_req.target = &*target;
  map_req.correspondences = &*correspondences;
  auto mappings = rew::GenerateMappings(map_req, ctx);
  if (!mappings.ok()) {
    std::fprintf(stderr, "error: %s\n", mappings.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%zu semantic mapping(s):\n", mappings->size());
  int index = 1;
  for (const auto& m : *mappings) {
    std::printf("[%d] %s\n", index, m.tgd.ToString().c_str());
    std::printf("    source: %s\n", m.source_algebra.c_str());
    std::printf("    target: %s\n", m.target_algebra.c_str());
    if (opts.show_hints) {
      for (const auto& h : m.source_join_hints) {
        std::printf("    hint (source): %s\n", h.ToString().c_str());
      }
      for (const auto& h : m.target_join_hints) {
        std::printf("    hint (target): %s\n", h.ToString().c_str());
      }
    }
    if (opts.show_sql) {
      auto source_cols = [&](const std::string& table)
          -> const std::vector<std::string>* {
        const rel::Table* t = source->schema().FindTable(table);
        return t == nullptr ? nullptr : &t->columns();
      };
      auto target_cols = [&](const std::string& table)
          -> const std::vector<std::string>* {
        const rel::Table* t = target->schema().FindTable(table);
        return t == nullptr ? nullptr : &t->columns();
      };
      auto sql = rew::RenderSql(m.tgd, source_cols, target_cols);
      if (sql.ok()) {
        for (const std::string& stmt : *sql) {
          std::printf("    sql:\n%s\n", stmt.c_str());
        }
      }
    }
    if (opts.show_variants && m.variants.size() > 1) {
      for (size_t v = 1; v < m.variants.size(); ++v) {
        std::printf("    variant: %s\n", m.variants[v].ToString().c_str());
      }
    }
    ++index;
  }

  if (opts.show_baseline) {
    auto ric = baseline::GenerateRicMappings(source->schema(),
                                             target->schema(),
                                             *correspondences, {}, ctx);
    if (ric.ok()) {
      std::printf("\n%zu RIC-based baseline mapping(s):\n", ric->size());
      for (const auto& m : *ric) {
        std::printf("  %s\n", m.tgd.ToString().c_str());
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --version / --help work without the seven positional arguments.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("semap_map %s\n", kSemapVersion);
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage(stdout, argv[0]);
      return 0;
    }
  }
  if (argc < 8) {
    PrintUsage(stderr, argv[0]);
    return 2;
  }
  Options opts;
  for (int i = 8; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0) {
      opts.show_baseline = true;
    } else if (std::strcmp(argv[i], "--hints") == 0) {
      opts.show_hints = true;
    } else if (std::strcmp(argv[i], "--variants") == 0) {
      opts.show_variants = true;
    } else if (std::strcmp(argv[i], "--sql") == 0) {
      opts.show_sql = true;
    } else if (std::strcmp(argv[i], "--resilient") == 0) {
      opts.resilient = true;
    } else if (std::strcmp(argv[i], "--lint") == 0) {
      opts.lint_only = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      opts.profile = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      opts.trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      opts.metrics_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--explain=", 10) == 0) {
      opts.explain_path = argv[i] + 10;
      // Provenance is recorded by the degradation cascade, so --explain
      // selects the resilient path the same way --deadline-ms does.
      opts.resilient = true;
    } else if (std::strncmp(argv[i], "--events=", 9) == 0) {
      opts.events_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      char* end = nullptr;
      opts.deadline_ms = std::strtoll(argv[i] + 14, &end, 10);
      if (end == argv[i] + 14 || *end != '\0') {
        std::fprintf(stderr, "error: --deadline-ms wants an integer, got %s\n",
                     argv[i] + 14);
        return 2;
      }
      opts.resilient = true;
    } else if (std::strncmp(argv[i], "--max-steps=", 12) == 0) {
      char* end = nullptr;
      opts.max_steps = std::strtoll(argv[i] + 12, &end, 10);
      if (end == argv[i] + 12 || *end != '\0') {
        std::fprintf(stderr, "error: --max-steps wants an integer, got %s\n",
                     argv[i] + 12);
        return 2;
      }
      opts.resilient = true;
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      char* end = nullptr;
      opts.jobs = std::strtoll(argv[i] + 7, &end, 10);
      if (end == argv[i] + 7 || *end != '\0' || opts.jobs < 1) {
        std::fprintf(stderr, "error: --jobs wants a positive integer, got %s\n",
                     argv[i] + 7);
        return 2;
      }
      opts.supervised = true;
    } else if (std::strncmp(argv[i], "--unit-deadline-ms=", 19) == 0) {
      char* end = nullptr;
      opts.unit_deadline_ms = std::strtoll(argv[i] + 19, &end, 10);
      if (end == argv[i] + 19 || *end != '\0') {
        std::fprintf(stderr,
                     "error: --unit-deadline-ms wants an integer, got %s\n",
                     argv[i] + 19);
        return 2;
      }
      opts.supervised = true;
    } else if (std::strncmp(argv[i], "--retry-seed=", 13) == 0) {
      char* end = nullptr;
      opts.retry_seed = std::strtoull(argv[i] + 13, &end, 10);
      if (end == argv[i] + 13 || *end != '\0') {
        std::fprintf(stderr, "error: --retry-seed wants an integer, got %s\n",
                     argv[i] + 13);
        return 2;
      }
      opts.supervised = true;
    } else if (std::strncmp(argv[i], "--checkpoint=", 13) == 0) {
      opts.checkpoint_path = argv[i] + 13;
      opts.supervised = true;
    } else if (std::strncmp(argv[i], "--resume=", 9) == 0) {
      opts.checkpoint_path = argv[i] + 9;
      opts.resume = true;
      opts.supervised = true;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n%s", argv[i],
                   kOptionTable);
      return 2;
    }
  }
  if (opts.supervised) opts.resilient = true;

  // Graceful shutdown comes with the supervision flags (plain --resilient
  // keeps the default die-on-signal behavior): the first SIGINT/SIGTERM
  // stops dispatch and flushes the checkpoint journal, the second exits
  // hard.
  if (opts.supervised) {
    std::signal(SIGINT, OnShutdownSignal);
    std::signal(SIGTERM, OnShutdownSignal);
  }

  // SEMAP_IO_FAULT arms syscall-level fault injection on the checkpoint
  // store (store/env.h): crash drills against the unmodified binary.
  store::FaultEnv fault_env;
  if (auto plans = store::FaultPlansFromEnv(); !plans.empty()) {
    fault_env.set_plans(std::move(plans));
    opts.io_env = &fault_env;
  }

  // Observability is strictly opt-in: without these flags no tracer,
  // metrics, provenance or event object exists at all and the context
  // carries null services.
  const bool observe = opts.profile || !opts.trace_path.empty() ||
                       !opts.metrics_path.empty();
  obs::Tracer tracer;
  obs::Metrics metrics;
  obs::ProvenanceRecorder provenance;
  std::unique_ptr<obs::EventEmitter> events;
  exec::RunContext ctx;
  if (observe) {
    ctx.tracer = &tracer;
    ctx.metrics = &metrics;
  }
  if (!opts.explain_path.empty()) ctx.provenance = &provenance;
  if (!opts.events_path.empty()) {
    events = std::make_unique<obs::EventEmitter>(opts.events_path);
    if (!events->ok()) {
      std::fprintf(stderr, "error: cannot open event stream %s\n",
                   opts.events_path.c_str());
      return 1;
    }
    ctx.events = events.get();
  }
  int code;
  {
    obs::Span pipeline_span = ctx.Span("pipeline");
    if (ctx.events != nullptr) {
      ctx.events->Emit("run_start",
                       obs::WideEvent()
                           .Str("version", kSemapVersion)
                           .Int("jobs", static_cast<int64_t>(opts.jobs)));
    }
    code = RunPipeline(argv, opts, ctx);
    if (ctx.events != nullptr) {
      ctx.events->Emit("run_end",
                       obs::WideEvent()
                           .Int("exit_code", static_cast<int64_t>(code))
                           .Int("duration_ns", ctx.events->NowNs()));
    }
    pipeline_span.AddAttr("exit_code", static_cast<int64_t>(code));
  }
  if (!opts.trace_path.empty() &&
      !WriteFile(opts.trace_path, tracer.ToJson())) {
    std::fprintf(stderr, "error: cannot write trace to %s\n",
                 opts.trace_path.c_str());
    if (code == 0) code = 1;
  }
  if (!opts.metrics_path.empty() &&
      !WriteFile(opts.metrics_path, metrics.ToJson())) {
    std::fprintf(stderr, "error: cannot write metrics to %s\n",
                 opts.metrics_path.c_str());
    if (code == 0) code = 1;
  }
  if (!opts.explain_path.empty() &&
      !WriteFile(opts.explain_path, provenance.ToJson())) {
    std::fprintf(stderr, "error: cannot write explain report to %s\n",
                 opts.explain_path.c_str());
    if (code == 0) code = 1;
  }
  if (events != nullptr && !events->ok()) {
    std::fprintf(stderr, "error: event stream write to %s failed\n",
                 opts.events_path.c_str());
    if (code == 0) code = 1;
  }
  if (opts.profile) {
    std::printf("\n%s", obs::ProfileString(tracer, metrics).c_str());
  }
  return code;
}
