// semap_perfbench: the repository benchmark. One run measures one
// workload for --seconds and prints, as its last stdout line, one JSON
// object {"correct","attempted","failed","metrics"}. Untraced runs
// (--trace 0) report the end-to-end metrics; traced runs (--trace 1)
// the per-layer ones. The line before it ("detail ...") carries every
// quantity the run measured, including workload-specific ones that the
// final line leaves out. See perfbench/README.md.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "util/json.h"

namespace perfbench {
namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metric list `key` ("end_to_end" or "per_layer") of BENCHMARK.json:
/// the final line carries exactly these, so the file stays the one place
/// that defines them.
bool ReadMetricSpecs(const std::string& root, const char* key,
                     std::vector<MetricSpec>* out) {
  std::ifstream in(root + "/BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = semap::json::Parse(text.str());
  if (!in || !parsed.ok()) return false;
  const semap::json::Value* list = parsed->Find(key);
  if (list == nullptr || !list->is_array()) return false;
  for (const semap::json::Value& m : list->AsArray()) {
    out->push_back({m.GetString("name"), m.GetString("unit")});
  }
  return !out->empty();
}

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: semap_perfbench --workload table1|wide_gen|serve_mix "
               "--seed N --seconds S --trace 0|1 [--root DIR] [--workdir DIR]\n"
               "       semap_perfbench --selftest\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--root") {
      args->root = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    const int failures = SelfTest();
    std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  std::vector<MetricSpec> specs;
  if (!ReadMetricSpecs(args.root, args.trace ? "per_layer" : "end_to_end",
                       &specs)) {
    std::fprintf(stderr,
                 "perfbench: cannot read the metric list from "
                 "%s/BENCHMARK.json\n",
                 args.root.c_str());
    return 1;
  }
  Report rep;
  bool ran = false;
  if (args.workload == "table1") {
    ran = RunTable1(args, rep);
  } else if (args.workload == "wide_gen") {
    ran = RunWide(args, rep);
  } else if (args.workload == "serve_mix") {
    ran = RunServeMix(args, rep);
  } else {
    PrintUsage();
    return 2;
  }
  for (const std::string& p : rep.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  if (!ran) return 1;

  // Everything measured, for people and for later analysis.
  std::string detail = "detail {\"workload\":\"" + args.workload +
                       "\",\"seed\":" + std::to_string(args.seed) +
                       ",\"trace\":" + (args.trace ? "1" : "0") +
                       ",\"facts\":{";
  for (size_t i = 0; i < rep.facts.size(); ++i) {
    if (i > 0) detail += ",";
    detail += "\"" + semap::obs::JsonEscape(rep.facts[i].first) + "\":\"" +
              semap::obs::JsonEscape(rep.facts[i].second) + "\"";
  }
  detail += "},\"values\":{";
  bool first = true;
  for (const auto& [name, value] : rep.values.entries()) {
    if (!first) detail += ",";
    first = false;
    detail += "\"" + name + "\":{\"value\":" + Number(value.first) +
              ",\"unit\":\"" + value.second + "\"}";
  }
  detail += "}}";
  std::printf("%s\n", detail.c_str());

  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto* v = rep.values.Find(spec.name);
    if (v == nullptr || v->second != spec.unit) {
      rep.correct = false;
      std::fprintf(stderr, "perfbench: metric not measured: %s (%s)\n",
                   spec.name.c_str(), spec.unit.c_str());
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + spec.name + "\": {\"value\": " + Number(v->first) +
               ", \"unit\": \"" + spec.unit + "\"}";
  }
  if (rep.failed > 0) rep.correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              rep.correct ? "true" : "false",
              static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed), metrics.c_str());
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}
