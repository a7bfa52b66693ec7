// serve_mix: an in-process serve::Server (2 workers, journaled store)
// driven over TCP by two open-loop client threads, each on its own
// persistent connection, at a fixed ladder of offered rates.
//
// Mix, exact per block of 10 requests (seeded order inside the block):
//   8 repeat `map` with a fresh id  — result-cache read + response
//                                     journal append (fsync);
//   1 replay of an earlier id      — idempotent replay, no write;
//   1 `"cache":"bypass"` map       — full supervised cascade + result
//                                     write, rotating over kBypassOrder.
// Latency is timed from each request's due time, so a stalled server (or
// client) shows up in the latency of every request queued behind it.
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "rng.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "util/json.h"
#include "wide_gen.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using semap::serve::Conn;

constexpr int kSetupReps = 7;
constexpr size_t kWorkers = 2;
constexpr int kClients = 2;
/// Offered rates; the first is the nominal rate the end-to-end latency
/// metrics are measured at.
constexpr double kLadderQps[] = {100, 200, 400, 800, 1600};
constexpr double kP99LimitMs = 50;
/// A run whose generator woke up later than this (p99) is invalid: half
/// the latency limit, so a late generator cannot hide a missed limit.
/// (An idle host wakes it within ~0.2 ms; a heavily shared one within a
/// few ms.)
constexpr double kLateBoundMs = kP99LimitMs / 2;
/// Share of --seconds given to the nominal rung (the rest is split
/// evenly over the other rungs).
constexpr double kNominalShare = 0.6;

const char* const kExamples[] = {"bookstore", "bookstore_lite", "teams"};
/// Catalog indices bypass requests rotate through: each example scenario
/// twice, each generated one once, so the slow generated computations
/// are 2.5% of requests and run_p95_ms lands inside the example-bypass
/// band (7.5% of requests) rather than on a band edge.
constexpr size_t kBypassOrder[] = {0, 1, 2, 0, 1, 2, 3, 4};
const char* const kArtifactFiles[] = {"source.schema", "source.cm",
                                      "source.sem",    "target.schema",
                                      "target.cm",     "target.sem",
                                      "correspondences.txt"};

enum RequestType { kRepeat = 0, kReplay = 1, kBypass = 2 };

std::vector<semap::validate::ArtifactText*> Slots(
    semap::validate::ScenarioTexts& t) {
  return {&t.source_schema, &t.source_cm,    &t.source_sem,
          &t.target_schema, &t.target_cm,    &t.target_sem,
          &t.correspondences};
}

struct Scenario {
  std::string name;
  semap::validate::ScenarioTexts texts;
};

bool ReadFileTo(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// The catalog: the three example scenarios plus two mid-size generated
/// ones (3 modules, one correspondence set touching 3 target tables).
bool CatalogScenarios(const Args& args, std::vector<Scenario>* out,
                      Report& rep) {
  for (const char* name : kExamples) {
    Scenario s;
    s.name = name;
    auto slots = Slots(s.texts);
    for (size_t i = 0; i < slots.size(); ++i) {
      const fs::path path = fs::path(args.root) / "examples" / "data" / name /
                            kArtifactFiles[i];
      if (!ReadFileTo(path, &slots[i]->text)) {
        rep.Fail("cannot read " + path.string());
        return false;
      }
    }
    out->push_back(std::move(s));
  }
  WideShape mid;
  mid.modules = 3;
  mid.source_padding = 4;
  mid.target_padding = 6;
  mid.sets = 3;
  mid.max_tables_per_set = 3;
  for (int k = 0; k < 2; ++k) {
    const WideScenario wide =
        GenerateWide(mid, args.seed * 2 + static_cast<uint64_t>(k));
    out->push_back({k == 0 ? "wide_a" : "wide_b", WithSet(wide, 2)});
  }
  return true;
}

/// A Conn that remembers when the first Read returned: the boundary
/// between waiting for the server and receiving the response.
class FirstByteConn : public Conn {
 public:
  explicit FirstByteConn(Conn* inner) : inner_(inner) {}
  semap::Result<size_t> Read(char* buf, size_t max) override {
    auto n = inner_->Read(buf, max);
    if (!seen_) {
      seen_ = true;
      first_ = Clock::now();
    }
    return n;
  }
  semap::Status WriteAll(std::string_view data) override {
    return inner_->WriteAll(data);
  }
  semap::Status Close() override { return inner_->Close(); }
  Clock::time_point first() const { return first_; }

 private:
  Conn* inner_;
  bool seen_ = false;
  Clock::time_point first_;
};

struct Reply {
  bool transport_ok = false;
  std::string status;
  std::string body;
  int64_t send_ns = 0;
  int64_t wait_ns = 0;
  int64_t recv_ns = 0;
};

Reply Call(Conn& conn, const std::string& payload) {
  Reply r;
  const Clock::time_point t0 = Clock::now();
  if (!semap::serve::WriteFrame(conn, payload).ok()) return r;
  const Clock::time_point t1 = Clock::now();
  FirstByteConn timed(&conn);
  auto frame = semap::serve::ReadFrame(timed);
  const Clock::time_point t2 = Clock::now();
  if (!frame.ok()) return r;
  r.transport_ok = true;
  r.send_ns = NsBetween(t0, t1);
  r.wait_ns = NsBetween(t1, timed.first());
  r.recv_ns = NsBetween(timed.first(), t2);
  // `body` is always the envelope's last member: slice it byte-exactly.
  const std::string& env = *frame;
  const size_t pos = env.find(",\"body\":");
  if (pos != std::string::npos && env.size() > pos + 9) {
    r.body = env.substr(pos + 8, env.size() - pos - 9);
  }
  auto parsed = semap::json::Parse(env);
  if (parsed.ok()) r.status = parsed->GetString("status");
  return r;
}

std::string Payload(const std::string& id, const std::string& scenario,
                    bool bypass, const std::string& trace_id) {
  std::string p = "{\"id\":\"" + id + "\",\"op\":\"map\",\"scenario\":\"" +
                  scenario + "\"";
  if (bypass) p += ",\"cache\":\"bypass\"";
  if (!trace_id.empty()) {
    p += ",\"trace_id\":\"" + trace_id + "\",\"attempt\":0";
  }
  return p + "}";
}

std::string TraceId(uint64_t seed, uint64_t n) {
  uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (int i = 0; i < 8; ++i) {
    h ^= (n >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// A running server on its own thread; stops and joins on destruction.
class RunningServer {
 public:
  explicit RunningServer(std::unique_ptr<semap::serve::Server> server)
      : server_(std::move(server)),
        thread_([this] { (void)server_->Serve(stop_); }) {}
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  ~RunningServer() {
    stop_.store(true);
    thread_.join();
  }
  semap::serve::Server& server() { return *server_; }

 private:
  std::unique_ptr<semap::serve::Server> server_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct Setup {
  fs::path dir;
  std::unique_ptr<semap::obs::EventEmitter> events;
  std::unique_ptr<RunningServer> running;
  std::map<std::string, std::string> first_body;
  std::vector<std::pair<std::string, std::string>> warm_ids;  // id, scenario
  int64_t start_ns = 0;
};

/// Write the catalog, start the server, and warm it up with one computed
/// `map` per scenario (whose body every later answer must reproduce).
bool StartServer(const Args& args, const std::vector<Scenario>& scenarios,
                 int rep_index, bool with_events, Setup* setup, Report& rep) {
  setup->dir = fs::path(args.workdir) / ("serve-" + std::to_string(rep_index));
  std::error_code ec;
  fs::remove_all(setup->dir, ec);
  fs::create_directories(setup->dir / "catalog", ec);
  if (ec) {
    rep.Fail("cannot create " + setup->dir.string());
    return false;
  }
  for (const Scenario& s : scenarios) {
    const fs::path d = setup->dir / "catalog" / s.name;
    fs::create_directories(d, ec);
    Scenario copy = s;
    auto slots = Slots(copy.texts);
    for (size_t i = 0; i < slots.size(); ++i) {
      std::ofstream out(d / kArtifactFiles[i], std::ios::binary);
      out << slots[i]->text;
      if (!out) {
        rep.Fail("cannot write the catalog");
        return false;
      }
    }
  }
  semap::serve::ServerOptions opts;
  opts.catalog_dir = (setup->dir / "catalog").string();
  opts.tcp_port = 0;
  opts.workers = kWorkers;
  opts.io_timeout_ms = 60000;
  opts.store_path = (setup->dir / "store").string();
  if (with_events) {
    setup->events = std::make_unique<semap::obs::EventEmitter>(
        (setup->dir / "events.ndjson").string());
    opts.events = setup->events.get();
  }
  const Clock::time_point t0 = Clock::now();
  auto server = semap::serve::Server::Start(opts);
  setup->start_ns = NsBetween(t0, Clock::now());
  if (!server.ok()) {
    rep.Fail("Server::Start: " + server.status().ToString());
    return false;
  }
  const int port = (*server)->tcp_port();
  setup->running = std::make_unique<RunningServer>(std::move(*server));

  auto conn = semap::serve::DialTcp("127.0.0.1", port);
  if (!conn.ok()) {
    rep.Fail("connect: " + conn.status().ToString());
    return false;
  }
  for (const Scenario& s : scenarios) {
    const std::string id = "warm-" + s.name;
    Reply r = Call(**conn, Payload(id, s.name, false, TraceId(args.seed, 0)));
    if (!r.transport_ok || r.status != "ok" || r.body.empty()) {
      rep.Fail("warm-up map of " + s.name + " failed");
      return false;
    }
    setup->first_body[s.name] = r.body;
    setup->warm_ids.emplace_back(id, s.name);
  }
  (void)(*conn)->Close();
  return true;
}

struct Sample {
  int type = kRepeat;
  size_t scenario = 0;  // catalog index (repeats and bypasses)
  bool traced = true;
  bool sent = false;
  bool ok = false;
  double latency_ms = 0;   // completion - due
  double delay_ms = 0;     // send start - due (client backlog + lateness)
  double late_ms = 0;      // send start - max(due, client free)
  int64_t send_ns = 0, wait_ns = 0, recv_ns = 0;
};

struct RungResult {
  std::vector<Sample> samples;
  double span_s = 0;  // first due .. last completion
};

/// One rung of the ladder: `qps` offered for `seconds`, open loop.
RungResult RunRung(const Args& args, const Setup& setup,
                   const std::vector<Scenario>& scenarios, double qps,
                   double seconds, int rung, bool alternate_trace,
                   std::vector<std::unique_ptr<Conn>>& conns, Report& rep) {
  RungResult out;
  const size_t n = static_cast<size_t>(qps * seconds);
  out.samples.resize(n);

  // The plan: exact 8/1/1 blocks of ten in seeded order; scenario picks
  // seeded for repeats, kBypassOrder (from a seeded start) for bypasses.
  Rng rng(args.seed * 64 + static_cast<uint64_t>(rung));
  std::vector<size_t> scenario_of(n);
  size_t bypass_rr = rng.Below(std::size(kBypassOrder));
  for (size_t b = 0; b < n; b += 10) {
    std::vector<int> block = {kRepeat, kRepeat, kRepeat, kRepeat, kRepeat,
                              kRepeat, kRepeat, kRepeat, kReplay, kBypass};
    rng.Shuffle(block);
    for (size_t i = 0; i < 10 && b + i < n; ++i) {
      out.samples[b + i].type = block[i];
      scenario_of[b + i] =
          block[i] == kBypass
              ? kBypassOrder[bypass_rr++ % std::size(kBypassOrder)]
              : rng.Below(scenarios.size());
    }
  }
  for (size_t j = 0; j < n; ++j) {
    out.samples[j].traced = !alternate_trace || j % 2 == 0;
  }

  const std::map<std::string, std::string>& first_body = setup.first_body;
  std::mutex pool_mu;
  std::vector<std::pair<std::string, std::string>> pool = setup.warm_ids;
  std::mutex fail_mu;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point hard_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds + kP99LimitMs / 1e3));
  std::atomic<int64_t> last_done_ns{0};

  auto client = [&](int c) {
    Conn& conn = *conns[static_cast<size_t>(c)];
    Clock::time_point free_at = t0;
    size_t picks = static_cast<size_t>(c) * 7919;
    for (size_t j = static_cast<size_t>(c); j < n; j += kClients) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(j) / qps));
      if (Clock::now() > hard_end) break;  // backlog: the rest stays unsent
      std::this_thread::sleep_until(due);
      const Clock::time_point start = Clock::now();
      Sample& sample = out.samples[j];
      sample.sent = true;
      sample.scenario = scenario_of[j];
      sample.delay_ms = SecondsBetween(due, start) * 1e3;
      sample.late_ms = SecondsBetween(std::max(due, free_at), start) * 1e3;

      std::string id;
      std::string scenario = scenarios[scenario_of[j]].name;
      if (sample.type == kReplay) {
        std::lock_guard<std::mutex> lock(pool_mu);
        const auto& picked = pool[(picks += 104729) % pool.size()];
        id = picked.first;
        scenario = picked.second;
      } else {
        id = "s" + std::to_string(args.seed) + "-r" + std::to_string(rung) +
             "-" + std::to_string(j);
      }
      const std::string trace_id =
          sample.traced
              ? TraceId(args.seed, (static_cast<uint64_t>(rung) << 32) | j)
              : std::string();
      Reply r =
          Call(conn, Payload(id, scenario, sample.type == kBypass, trace_id));
      free_at = Clock::now();
      sample.latency_ms = SecondsBetween(due, free_at) * 1e3;
      sample.send_ns = r.send_ns;
      sample.wait_ns = r.wait_ns;
      sample.recv_ns = r.recv_ns;
      sample.ok = r.transport_ok && r.status == "ok" &&
                  r.body == first_body.at(scenario);
      if (!sample.ok) {
        std::lock_guard<std::mutex> lock(fail_mu);
        const std::string why =
            !r.transport_ok  ? "transport failure"
            : r.status != "ok" ? "status " + r.status
                               : "body differs";
        rep.Fail("request " + id + " (" + scenario + "): " + why);
      } else if (sample.type == kRepeat) {
        std::lock_guard<std::mutex> lock(pool_mu);
        pool.emplace_back(id, scenario);
      }
      last_done_ns.store(NsBetween(t0, free_at));
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  out.span_s = static_cast<double>(last_done_ns.load()) / 1e9;
  return out;
}

struct RungStats {
  double p50 = 0, p95 = 0, p99 = 0, late_p99 = 0, completed_per_s = 0;
  int64_t sent = 0, failed = 0, unsent = 0;
  bool backlog = false;
  bool sustained = false;
};

RungStats Summarize(const RungResult& r) {
  RungStats st;
  std::vector<double> lat, late, tail_delay;
  for (size_t j = 0; j < r.samples.size(); ++j) {
    const Sample& s = r.samples[j];
    if (!s.sent) {
      ++st.unsent;
      continue;
    }
    ++st.sent;
    if (!s.ok) ++st.failed;
    lat.push_back(s.latency_ms);
    late.push_back(s.late_ms);
    if (j >= r.samples.size() * 3 / 4) tail_delay.push_back(s.delay_ms);
  }
  st.p50 = Quantile(lat, 0.50);
  st.p95 = Quantile(lat, 0.95);
  st.p99 = Quantile(lat, 0.99);
  st.late_p99 = Quantile(late, 0.99);
  st.completed_per_s =
      Ratio(static_cast<double>(st.sent - st.failed), r.span_s);
  // A growing backlog: requests left unsent, or the last quarter's
  // typical send delay already past the latency limit.
  st.backlog = st.unsent > 0 || Median(tail_delay) > kP99LimitMs;
  st.sustained = st.failed == 0 && !st.backlog && st.p99 <= kP99LimitMs;
  return st;
}

/// A run whose generator woke up late is invalid, not a measurement.
void RequireOnTime(const RungStats& st, Report& rep) {
  if (st.late_p99 > kLateBoundMs) {
    rep.Fail("invalid run: the load generator ran late (p99 " +
             std::to_string(st.late_p99) + " ms)");
  }
}

std::map<std::string, double> Counters(const semap::serve::Server& server) {
  std::map<std::string, double> out;
  auto parsed = semap::json::Parse(server.MetricsJson());
  if (!parsed.ok()) return out;
  const semap::json::Value* counters = parsed->Find("counters");
  if (counters == nullptr || !counters->is_object()) return out;
  for (const auto& [name, value] : counters->AsObject()) {
    if (value.is_number()) out[name] = value.AsNumber();
  }
  return out;
}

/// The server's lifecycle records ("event":"request") so far.
std::vector<semap::json::Value> LifecycleRecords(const fs::path& dir) {
  std::vector<semap::json::Value> out;
  std::ifstream in(dir / "events.ndjson");
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = semap::json::Parse(line);
    if (parsed.ok() && parsed->GetString("event") == "request") {
      out.push_back(std::move(*parsed));
    }
  }
  return out;
}

}  // namespace

bool RunServeMix(const Args& args, Report& rep) {
  std::vector<Scenario> scenarios;
  if (!CatalogScenarios(args, &scenarios, rep)) return false;
  std::string names;
  for (const Scenario& s : scenarios) {
    names += (names.empty() ? "" : ",") + s.name;
  }
  rep.Fact("scenarios", names);
  std::string ladder;
  for (double q : kLadderQps) {
    ladder += (ladder.empty() ? "" : ",") + std::to_string(static_cast<int>(q));
  }
  rep.Fact("rate_ladder_qps", ladder);
  rep.Fact("p99_limit_ms", std::to_string(static_cast<int>(kP99LimitMs)));
  rep.Fact("clients", std::to_string(kClients));
  rep.Fact("workers", std::to_string(kWorkers));

  // Set-up, several times: write the catalog, Server::Start, warm-up. The
  // last one stays up for the measurement.
  std::vector<double> setups;
  std::unique_ptr<Setup> last;
  for (int r = 0; r < (args.trace ? 1 : kSetupReps); ++r) {
    if (last != nullptr) {
      const fs::path dir = last->dir;
      last.reset();  // stops that server
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    last = std::make_unique<Setup>();
    const Clock::time_point t0 = Clock::now();
    if (!StartServer(args, scenarios, r, args.trace, last.get(), rep)) {
      return false;
    }
    setups.push_back(SecondsBetween(t0, Clock::now()));
  }
  rep.values.Set("setup_s", Median(setups), "s");
  Setup& setup = *last;
  semap::serve::Server& server = setup.running->server();
  const int port = server.tcp_port();

  std::vector<std::unique_ptr<Conn>> conns;
  double connect_ns = 0;
  for (int c = 0; c < kClients; ++c) {
    const Clock::time_point t0 = Clock::now();
    auto conn = semap::serve::DialTcp("127.0.0.1", port);
    connect_ns += static_cast<double>(NsBetween(t0, Clock::now()));
    if (!conn.ok()) {
      rep.Fail("connect: " + conn.status().ToString());
      return false;
    }
    conns.push_back(std::move(*conn));
  }
  connect_ns /= kClients;

  auto stop = [&] {
    for (auto& conn : conns) (void)conn->Close();
    setup.running.reset();
  };
  auto cleanup = [&] {
    std::error_code ec;
    fs::remove_all(setup.dir, ec);
  };

  if (!args.trace) {
    std::vector<RungStats> rungs;
    const size_t n_rungs = std::size(kLadderQps);
    for (size_t i = 0; i < n_rungs; ++i) {
      const double secs = i == 0 ? args.seconds * kNominalShare
                                 : args.seconds * (1 - kNominalShare) /
                                       static_cast<double>(n_rungs - 1);
      RungResult r = RunRung(args, setup, scenarios, kLadderQps[i], secs,
                             static_cast<int>(i), false, conns, rep);
      const RungStats st = Summarize(r);
      rungs.push_back(st);
      rep.attempted += st.sent;
      rep.failed += st.failed;
      rep.Fact("rung_" + std::to_string(static_cast<int>(kLadderQps[i])),
               "sent=" + std::to_string(st.sent) +
                   " p50_ms=" + std::to_string(st.p50) +
                   " p99_ms=" + std::to_string(st.p99) +
                   " unsent=" + std::to_string(st.unsent) +
                   (st.sustained ? " sustained" : " not-sustained"));
      if (i == 0) {
        rep.values.Set("runs_per_s", st.completed_per_s, "1/s");
        rep.values.Set("run_p50_ms", st.p50, "ms");
        rep.values.Set("run_p95_ms", st.p95, "ms");
        rep.values.Set("req_p50_ms", st.p50, "ms");
        rep.values.Set("req_p99_ms", st.p99, "ms");
        rep.values.Set("loadgen.late_p99_ms", st.late_p99, "ms");
        rep.Fact("samples", std::to_string(st.sent));
        // Where the tail comes from: latency by request type, and of
        // bypass requests by scenario.
        std::map<std::string, std::vector<double>> by_kind;
        for (const Sample& s : r.samples) {
          if (!s.sent) continue;
          by_kind[s.type == kRepeat   ? "repeat"
                  : s.type == kReplay ? "replay"
                                      : "bypass." + scenarios[s.scenario].name]
              .push_back(s.latency_ms);
        }
        for (const auto& [kind, lat] : by_kind) {
          rep.values.Set("req_p50_ms." + kind, Median(lat), "ms");
        }
        RequireOnTime(st, rep);
      }
    }
    double sustained = 0;
    for (size_t i = 0; i < rungs.size(); ++i) {
      if (rungs[i].sustained) sustained = kLadderQps[i];
    }
    rep.values.Set("sustained_qps", sustained, "1/s");
    rep.values.Set("failed_frac", Ratio(static_cast<double>(rep.failed),
                                        static_cast<double>(rep.attempted)),
                   "ratio");
    rep.values.Set("peak_rss_mb", PeakRssMb(), "MB");
    stop();
    cleanup();
    return true;
  }

  // Traced: the nominal rate for the whole run, alternating requests with
  // and without a trace_id. Server-side stage times come from the
  // lifecycle records (--events), layer counters from the server's
  // metrics, client-side times from timing each RPC step, and the
  // pipeline's phase times from a traced, composed replay of each
  // scenario's computation (what a bypass request runs), measured here.
  const size_t records_before = LifecycleRecords(setup.dir).size();
  const semap::serve::ServerStatsSnapshot before = server.stats();
  const std::map<std::string, double> counters_before = Counters(server);
  RungResult r = RunRung(args, setup, scenarios, kLadderQps[0], args.seconds,
                         0, true, conns, rep);
  const RungStats st = Summarize(r);
  rep.attempted += st.sent;
  rep.failed += st.failed;
  RequireOnTime(st, rep);
  const semap::serve::ServerStatsSnapshot after = server.stats();
  const std::map<std::string, double> counters_after = Counters(server);
  stop();
  std::vector<semap::json::Value> records = LifecycleRecords(setup.dir);
  cleanup();
  records.erase(records.begin(),
                records.begin() + static_cast<std::ptrdiff_t>(std::min(
                                      records_before, records.size())));

  // Per-scenario cost of one computation, from the composed replay.
  struct Cost {
    ComposedRun run;
    int64_t load_ns = 0;
    int64_t prepare_ns = 0;
  };
  std::vector<Cost> costs(scenarios.size());
  double catalog_bytes = 0, catalog_load_ns = 0;
  for (size_t k = 0; k < scenarios.size(); ++k) {
    catalog_bytes += static_cast<double>(InputBytes(scenarios[k].texts));
    std::vector<std::pair<int64_t, ComposedRun>> reps;
    for (int i = 0; i < 3; ++i) {
      semap::DiagnosticSink sink;
      const Clock::time_point t0 = Clock::now();
      auto loaded = semap::validate::LoadScenario(scenarios[k].texts, sink);
      costs[k].load_ns = NsBetween(t0, Clock::now());
      if (!loaded.ok()) return false;
      if (i == 0) {
        costs[k].prepare_ns = PrepareNs(loaded->source, loaded->target);
      }
      auto composed = RunComposed(*loaded, sink, nullptr);
      if (!composed.ok()) return false;
      reps.emplace_back(composed->cascade_ns, std::move(*composed));
    }
    std::sort(reps.begin(), reps.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    costs[k].run = std::move(reps[1].second);
    catalog_load_ns += static_cast<double>(costs[k].load_ns);
  }

  double n = 0, repeats = 0, bypasses = 0;
  double send_ns = 0, wait_ns = 0, recv_ns = 0, delay_ns = 0, latency_ns = 0;
  std::vector<double> traced_service, untraced_service;
  std::map<std::string, double> phase_ns;
  double prepare_total_ns = 0, exec_prepare_ns = 0, cascade_ns = 0,
         merge_ns = 0, dropped = 0;
  for (const Sample& s : r.samples) {
    if (!s.sent) continue;
    ++n;
    send_ns += static_cast<double>(s.send_ns);
    wait_ns += static_cast<double>(s.wait_ns);
    recv_ns += static_cast<double>(s.recv_ns);
    delay_ns += s.delay_ms * 1e6;
    latency_ns += s.latency_ms * 1e6;
    if (s.type == kRepeat) {
      ++repeats;
      (s.traced ? traced_service : untraced_service)
          .push_back(static_cast<double>(s.send_ns + s.wait_ns + s.recv_ns));
    }
    if (s.type != kBypass) continue;
    ++bypasses;
    const Cost& c = costs[s.scenario];
    for (const auto& [span, ns] : c.run.self_ns) {
      phase_ns[span] += static_cast<double>(ns);
    }
    prepare_total_ns +=
        static_cast<double>(c.prepare_ns * c.run.semantic_calls);
    exec_prepare_ns += static_cast<double>(c.run.prepare_ns);
    cascade_ns += static_cast<double>(c.run.cascade_ns);
    merge_ns += static_cast<double>(c.run.merge_ns);
    dropped += static_cast<double>(c.run.merge_dropped);
  }
  double queue_ns = 0, handle_ns = 0, respond_ns = 0, journal_ns = 0,
         compile_ns = 0, computed = 0;
  for (const semap::json::Value& rec : records) {
    // Stages a request did not reach are absent (or -1): they cost 0.
    auto stage = [&rec](const char* key) {
      return static_cast<double>(std::max<int64_t>(rec.GetInt(key, 0), 0));
    };
    queue_ns += stage("queue_ns");
    handle_ns += stage("handle_ns");
    respond_ns += stage("respond_ns");
    journal_ns += stage("journal_ns");
    if (rec.GetString("outcome") == "computed") {
      ++computed;
      compile_ns += static_cast<double>(rec.GetInt("compile_ns", 0));
    }
  }
  const double nrec = std::max<double>(1, static_cast<double>(records.size()));

  for (const auto& [span, metric] : PhaseSpans()) {
    rep.values.Set(metric, phase_ns[span] / n, "ns");
  }
  rep.values.Set("rewriting.prepare_ns", prepare_total_ns / n, "ns");
  rep.values.Set("rewriting.prepare_frac", Ratio(prepare_total_ns, handle_ns),
                 "ratio");
  semap::obs::Metrics delta;
  for (const auto& [name, value] : counters_after) {
    auto it = counters_before.find(name);
    const double base = it == counters_before.end() ? 0 : it->second;
    delta.Add(name, static_cast<int64_t>(value - base));
  }
  SetCounterMetrics(delta, n, rep);
  rep.values.Set("exec.merge_dropped", dropped / n, "count");
  rep.values.Set("exec.prepare_ns", exec_prepare_ns / n, "ns");
  rep.values.Set("exec.cascade_ns", cascade_ns / n, "ns");
  rep.values.Set("exec.merge_ns", merge_ns / n, "ns");
  rep.values.Set("validate.load_ns", catalog_load_ns, "ns");
  rep.values.Set("validate.input_bytes", catalog_bytes, "bytes");
  rep.values.Set("serve.rpc.connect_ns", connect_ns, "ns");
  rep.values.Set("serve.rpc.send_ns", send_ns / n, "ns");
  rep.values.Set("serve.rpc.wait_ns", wait_ns / n, "ns");
  rep.values.Set("serve.rpc.recv_ns", recv_ns / n, "ns");
  rep.values.Set("store.journal_ns", journal_ns / nrec, "ns");
  rep.values.Set("serve.queue_ns", queue_ns / nrec, "ns");
  rep.values.Set("serve.handle_ns", handle_ns / nrec, "ns");
  rep.values.Set("serve.compile_ns", Ratio(compile_ns, computed), "ns");
  rep.values.Set("serve.start_ns", static_cast<double>(setup.start_ns), "ns");
  const auto delta_of = [](uint64_t a, uint64_t b) {
    return static_cast<double>(a - b);
  };
  rep.values.Set("serve.cache_hit_frac",
                 Ratio(delta_of(after.cache_hits, before.cache_hits),
                       repeats + bypasses),
                 "ratio");
  rep.values.Set("serve.artifact_compiles",
                 static_cast<double>(after.artifact_cache.compiles), "count");
  rep.values.Set("serve.shed", delta_of(after.shed, before.shed), "count");
  rep.values.Set("serve.deadline_shed",
                 delta_of(after.deadline_shed, before.deadline_shed), "count");
  rep.values.Set("loadgen.late_p99_ms", st.late_p99, "ms");
  const double attributed =
      delay_ns + send_ns + recv_ns + queue_ns + handle_ns + respond_ns;
  rep.values.Set("unattributed_frac",
                 std::max(0.0, 1.0 - Ratio(attributed, latency_ns)), "ratio");
  rep.values.Set("obs.trace_overhead_frac",
                 Ratio(Median(traced_service), Median(untraced_service)) - 1.0,
                 "ratio");
  rep.Fact("samples", std::to_string(st.sent));
  return true;
}

}  // namespace perfbench
