// Serving-layer tests: the semap.rpc.v1 daemon end to end over ephemeral
// TCP — request/response round trips, idempotent retries, the durable
// result cache, the coded error paths (E200 torn frame, E201 bad
// request, E202 unknown scenario, E210 overload shed, E211/E212 drain),
// and the fault matrix over a served request's socket and filesystem
// syscalls: fail/reset/short/kill at the k-th occurrence must leave the
// store recoverable, and a restarted server must answer a retried
// request id with byte-identical bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/events.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "store/env.h"
#include "util/json.h"

namespace semap {
namespace {

using store::FaultEnv;
using store::FaultMode;
using store::FaultPlan;
using store::IoOp;

std::string CatalogDir() { return SEMAP_EXAMPLES_DIR; }

std::string FreshStorePath(const char* name) {
  // Parameterized test names contain '/': flatten them for the path.
  std::string test =
      testing::UnitTest::GetInstance()->current_test_info()->name();
  for (char& c : test) {
    if (c == '/') c = '_';
  }
  const std::string path =
      testing::TempDir() + "/" + test + "." + name + ".store.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

/// An in-process daemon on an ephemeral TCP port: Serve runs on a
/// background thread until Stop() (or destruction) raises the flag.
class TestServer {
 public:
  explicit TestServer(serve::ServerOptions opts) {
    opts.catalog_dir = CatalogDir();
    opts.tcp_port = 0;
    auto started = serve::Server::Start(std::move(opts));
    if (!started.ok()) {
      start_error_ = started.status();
      return;
    }
    server_ = std::move(*started);
    thread_ = std::thread([this] { serve_status_ = server_->Serve(stop_); });
  }

  ~TestServer() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
  }

  bool ok() const { return server_ != nullptr; }
  const Status& start_error() const { return start_error_; }
  int port() const { return server_->tcp_port(); }
  serve::ServerStatsSnapshot stats() const { return server_->stats(); }
  /// The live server, for surfaces without an RPC (MetricsJson,
  /// WriteMetricsSnapshot).
  serve::Server* server() const { return server_.get(); }
  /// Valid after Stop(): OK on a clean drain, the injected status when
  /// the fault environment killed the serve loop.
  const Status& serve_status() const { return serve_status_; }

 private:
  std::unique_ptr<serve::Server> server_;
  Status start_error_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  Status serve_status_;
};

std::string MapRequest(const std::string& id, const std::string& scenario,
                       bool bypass = false) {
  std::string payload =
      "{\"id\":\"" + id + "\",\"op\":\"map\",\"scenario\":\"" + scenario + "\"";
  if (bypass) payload += ",\"cache\":\"bypass\"";
  return payload + "}";
}

/// MapRequest generalized: any op, optional bypass and deadline.
std::string OpRequest(const std::string& id, const std::string& op,
                      const std::string& scenario, bool bypass = false,
                      int64_t deadline_ms = -1) {
  std::string payload = "{\"id\":\"" + id + "\",\"op\":\"" + op +
                        "\",\"scenario\":\"" + scenario + "\"";
  if (deadline_ms >= 0) {
    payload += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  if (bypass) payload += ",\"cache\":\"bypass\"";
  return payload + "}";
}

/// Slice the raw body value out of a response envelope (body is always
/// the LAST member) — the same byte-exact cut semap_call --body makes.
std::string BodyOf(const std::string& response) {
  const std::string marker = ",\"body\":";
  const size_t at = response.find(marker);
  if (at == std::string::npos || response.empty() || response.back() != '}') {
    return {};
  }
  return response.substr(at + marker.size(),
                         response.size() - at - marker.size() - 1);
}

/// One round trip over a fresh connection, like semap_call.
Result<std::string> Call(int port, const std::string& payload) {
  serve::SocketOptions opts;
  opts.io_timeout_ms = 10000;
  auto conn = serve::DialTcp("127.0.0.1", port, opts);
  SEMAP_RETURN_NOT_OK(conn.status());
  SEMAP_RETURN_NOT_OK(serve::WriteFrame(**conn, payload));
  auto response = serve::ReadFrame(**conn);
  (void)(*conn)->Close();
  return response;
}

void ExpectOk(const Result<std::string>& response) {
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response->find("\"status\":\"ok\""), std::string::npos)
      << *response;
}

void ExpectCode(const Result<std::string>& response, const char* code) {
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response->find(code), std::string::npos) << *response;
}

// --- Request/response basics ----------------------------------------------

TEST(ServeTest, PingMapAndStatsRoundTrip) {
  TestServer server({});
  ASSERT_TRUE(server.ok()) << server.start_error();

  auto ping = Call(server.port(), "{\"id\":\"p\",\"op\":\"ping\"}");
  ExpectOk(ping);

  auto map = Call(server.port(), MapRequest("r1", "bookstore"));
  ExpectOk(map);
  EXPECT_NE(map->find("\"mappings\""), std::string::npos) << *map;

  auto stats = Call(server.port(), "{\"id\":\"s\",\"op\":\"stats\"}");
  ExpectOk(stats);
  EXPECT_NE(stats->find("\"served\""), std::string::npos) << *stats;
}

TEST(ServeTest, RetryWithTheSameIdIsByteIdentical) {
  TestServer server({});
  ASSERT_TRUE(server.ok()) << server.start_error();

  auto first = Call(server.port(), MapRequest("r1", "bookstore"));
  ExpectOk(first);
  auto retry = Call(server.port(), MapRequest("r1", "bookstore"));
  ExpectOk(retry);
  EXPECT_EQ(*first, *retry);
  EXPECT_EQ(server.stats().idempotent_hits, 1u);
}

TEST(ServeTest, RepeatTrafficHitsTheResultCache) {
  TestServer server({});
  ASSERT_TRUE(server.ok()) << server.start_error();

  ExpectOk(Call(server.port(), MapRequest("a", "bookstore")));
  EXPECT_EQ(server.stats().cache_hits, 0u);
  // A different id, same work: answered from the result cache.
  ExpectOk(Call(server.port(), MapRequest("b", "bookstore")));
  EXPECT_EQ(server.stats().cache_hits, 1u);
  // cache:"bypass" forces recomputation past it.
  ExpectOk(Call(server.port(), MapRequest("c", "bookstore", true)));
  EXPECT_EQ(server.stats().cache_hits, 1u);
}

TEST(ServeTest, ResponsesSurviveARestartOnTheSameStore) {
  const std::string store = FreshStorePath("restart");
  std::string first;
  {
    serve::ServerOptions opts;
    opts.store_path = store;
    TestServer server(opts);
    ASSERT_TRUE(server.ok()) << server.start_error();
    auto response = Call(server.port(), MapRequest("r1", "bookstore"));
    ExpectOk(response);
    first = *response;
  }
  serve::ServerOptions opts;
  opts.store_path = store;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();
  auto retry = Call(server.port(), MapRequest("r1", "bookstore"));
  ExpectOk(retry);
  EXPECT_EQ(*retry, first);
  EXPECT_EQ(server.stats().idempotent_hits, 1u);
  // Fresh ids are answered from the durable result cache: the restarted
  // server never recompiles repeat traffic.
  ExpectOk(Call(server.port(), MapRequest("r2", "bookstore")));
  EXPECT_EQ(server.stats().cache_hits, 1u);
  std::remove(store.c_str());
}

// --- Coded error paths ----------------------------------------------------

TEST(ServeTest, TornFrameGetsE200AndPoisonsTheConnection) {
  TestServer server({});
  ASSERT_TRUE(server.ok()) << server.start_error();

  auto conn = serve::DialTcp("127.0.0.1", server.port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE((*conn)->WriteAll("this is not a frame\n").ok());
  auto response = serve::ReadFrame(**conn);
  ExpectCode(response, serve::kErrBadFrame);
  // The stream is poisoned: the server closed after the E200.
  char byte;
  auto eof = (*conn)->Read(&byte, 1);
  ASSERT_TRUE(eof.ok()) << eof.status();
  EXPECT_EQ(*eof, 0u);
  (void)(*conn)->Close();
}

TEST(ServeTest, InvalidRequestGetsE201) {
  TestServer server({});
  ASSERT_TRUE(server.ok()) << server.start_error();
  // Valid frame, invalid request: no id.
  ExpectCode(Call(server.port(), "{\"op\":\"map\",\"scenario\":\"bookstore\"}"),
             serve::kErrBadRequest);
  // Unknown op.
  ExpectCode(Call(server.port(), "{\"id\":\"x\",\"op\":\"teleport\"}"),
             serve::kErrBadRequest);
}

TEST(ServeTest, UnknownScenarioGetsE202) {
  TestServer server({});
  ASSERT_TRUE(server.ok()) << server.start_error();
  auto response = Call(server.port(), MapRequest("x", "no_such_scenario"));
  ExpectCode(response, serve::kErrUnknownScenario);
  EXPECT_NE(response->find("\"status\":\"error\""), std::string::npos);
}

TEST(ServeTest, OverloadShedsWithE210NeverSilently) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.request_hold_ms = 400;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();

  // A occupies the only worker (held 400ms), B the only queue slot.
  auto a = serve::DialTcp("127.0.0.1", server.port(), {});
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(
      serve::WriteFrame(**a, MapRequest("slow-a", "bookstore", true)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto b = serve::DialTcp("127.0.0.1", server.port(), {});
  ASSERT_TRUE(b.ok()) << b.status();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // C finds the queue full: the acceptor answers E210 immediately — an
  // explicit coded rejection, not a silent queue.
  auto c = serve::DialTcp("127.0.0.1", server.port(), {});
  ASSERT_TRUE(c.ok()) << c.status();
  auto shed = serve::ReadFrame(**c);
  ExpectCode(shed, serve::kErrOverloaded);
  EXPECT_NE(shed->find("\"status\":\"reject\""), std::string::npos);
  EXPECT_GE(server.stats().shed, 1u);
  (void)(*c)->Close();

  // A still completes; B gets served after it.
  auto slow = serve::ReadFrame(**a);
  ExpectOk(slow);
  (void)(*a)->Close();
  ASSERT_TRUE(serve::WriteFrame(**b, MapRequest("queued-b", "bookstore")).ok());
  ExpectOk(serve::ReadFrame(**b));
  (void)(*b)->Close();
}

// --- Drain ----------------------------------------------------------------

TEST(ServeTest, DrainFinishesInFlightRequests) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.request_hold_ms = 200;
  opts.drain_deadline_ms = 5000;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();

  auto conn = serve::DialTcp("127.0.0.1", server.port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(
      serve::WriteFrame(**conn, MapRequest("inflight", "bookstore", true))
          .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.Stop();  // SIGTERM: the in-flight request must still finish
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
  ExpectOk(serve::ReadFrame(**conn));
  (void)(*conn)->Close();
}

TEST(ServeTest, DrainPastTheDeadlineCancelsWithE212) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.request_hold_ms = 5000;
  opts.drain_deadline_ms = 100;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();

  auto conn = serve::DialTcp("127.0.0.1", server.port(), {});
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(
      serve::WriteFrame(**conn, MapRequest("stuck", "bookstore", true)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server.Stop();  // the hold outlives the drain deadline
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
  auto cancelled = serve::ReadFrame(**conn);
  ExpectCode(cancelled, serve::kErrCancelled);
  EXPECT_NE(cancelled->find("\"status\":\"reject\""), std::string::npos);
  (void)(*conn)->Close();
}

// --- Overload resilience: budget, deadline shed, single-flight ------------

TEST(ServeTest, BudgetedCacheEvictsAndRecompilesByteIdentically) {
  const std::vector<std::string> scenarios = {"bookstore", "bookstore_lite",
                                              "teams"};
  // Reference bodies from an unbudgeted server, which never evicts.
  std::map<std::string, std::string> reference;
  {
    TestServer server({});
    ASSERT_TRUE(server.ok()) << server.start_error();
    for (const auto& s : scenarios) {
      auto response = Call(server.port(), OpRequest("ref-" + s, "explain", s));
      ExpectOk(response);
      reference[s] = BodyOf(*response);
      ASSERT_FALSE(reference[s].empty());
    }
    EXPECT_EQ(server.stats().artifact_cache.evictions, 0u);
  }

  // A budget below the three-scenario working set: round-robin bypass
  // traffic must evict, recompile transparently, and reproduce the
  // reference bytes with zero errors.
  serve::ServerOptions opts;
  opts.cache_budget_bytes = 4096;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();
  for (int round = 0; round < 2; ++round) {
    for (const auto& s : scenarios) {
      const std::string id = "rr" + std::to_string(round) + "-" + s;
      auto response = Call(server.port(), OpRequest(id, "explain", s, true));
      ExpectOk(response);
      EXPECT_EQ(BodyOf(*response), reference[s]) << s << " round " << round;
    }
  }
  const auto stats = server.stats();
  EXPECT_GT(stats.artifact_cache.evictions, 0u);
  EXPECT_GT(stats.artifact_cache.compiles, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServeTest, DeadlineExpiredShedsWithE213) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.request_hold_ms = 300;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();

  // The admission hold outlives the caller's deadline: the server must
  // shed with the retryable E213 — never a late result, never an error.
  auto shed =
      Call(server.port(), OpRequest("d1", "map", "bookstore", false, 100));
  ExpectCode(shed, serve::kErrDeadlineShed);
  EXPECT_NE(shed->find("\"status\":\"reject\""), std::string::npos) << *shed;
  EXPECT_GE(server.stats().deadline_shed, 1u);
  EXPECT_EQ(server.stats().errors, 0u);

  // Sheds are not journaled: the same id retried with no deadline
  // computes normally — exactly what semap_call --retries does.
  ExpectOk(Call(server.port(), OpRequest("d1", "map", "bookstore")));
}

TEST(ServeTest, ConcurrentMissesCoalesceSingleFlight) {
  serve::ServerOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 8;
  opts.request_hold_ms = 300;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();

  // The leader dials first; its hold keeps the flight open while three
  // followers arrive and must coalesce instead of recomputing.
  auto lead = serve::DialTcp("127.0.0.1", server.port(), {});
  ASSERT_TRUE(lead.ok()) << lead.status();
  ASSERT_TRUE(
      serve::WriteFrame(**lead, OpRequest("lead", "map", "bookstore")).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::vector<std::unique_ptr<serve::Conn>> follower_conns;
  for (int i = 0; i < 3; ++i) {
    auto conn = serve::DialTcp("127.0.0.1", server.port(), {});
    ASSERT_TRUE(conn.ok()) << conn.status();
    ASSERT_TRUE(serve::WriteFrame(**conn, OpRequest("f" + std::to_string(i),
                                                    "map", "bookstore"))
                    .ok());
    follower_conns.push_back(std::move(*conn));
  }

  auto lead_response = serve::ReadFrame(**lead);
  ExpectOk(lead_response);
  (void)(*lead)->Close();
  std::vector<std::string> follower_responses;
  for (auto& conn : follower_conns) {
    auto response = serve::ReadFrame(*conn);
    ExpectOk(response);
    follower_responses.push_back(*response);
    (void)conn->Close();
  }
  for (const auto& response : follower_responses) {
    EXPECT_EQ(BodyOf(response), BodyOf(*lead_response));
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.singleflight_leaders, 1u);
  EXPECT_EQ(stats.singleflight_followers, 3u);
  // One computation total: the primed artifact was never recompiled and
  // the followers shared the leader's pipeline run.
  EXPECT_EQ(stats.artifact_cache.compiles, 0u);
  EXPECT_EQ(stats.errors, 0u);

  // A follower's journaled response is its own idempotent record: the
  // retried id returns the same bytes.
  auto retry = Call(server.port(), OpRequest("f0", "map", "bookstore"));
  ExpectOk(retry);
  EXPECT_EQ(*retry, follower_responses[0]);
  EXPECT_GE(server.stats().idempotent_hits, 1u);
}

// TSan-tier stress: eight clients churn two scenarios through a budget
// that holds only one compiled artifact, with the first wave racing
// into the single-flight table. Fixed iterations, then a clean drain.
TEST(ServeTest, StressEvictionAndSingleFlight) {
  serve::ServerOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 32;
  opts.request_hold_ms = 250;
  opts.cache_budget_bytes = 4096;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();

  const char* kScenarios[2] = {"bookstore", "bookstore_lite"};
  constexpr int kThreads = 8;
  constexpr int kIterations = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string scenario = kScenarios[t % 2];
      // First wave: plain misses race into the single-flight table (the
      // hold keeps each leader's flight open while the rest arrive; any
      // four concurrent requests over two scenarios must share one).
      auto first = Call(server.port(),
                        OpRequest("st" + std::to_string(t), "map", scenario));
      if (!first.ok() ||
          first->find("\"status\":\"ok\"") == std::string::npos) {
        failures.fetch_add(1);
        return;
      }
      // Sustained bypass traffic churns the budgeted cache: the two
      // scenarios evict each other and recompile under contention.
      for (int i = 0; i < kIterations; ++i) {
        const std::string id =
            "st" + std::to_string(t) + "-" + std::to_string(i);
        auto response =
            Call(server.port(), OpRequest(id, "map", scenario, true));
        if (!response.ok() ||
            response->find("\"status\":\"ok\"") == std::string::npos) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GE(stats.singleflight_followers, 1u);
  EXPECT_GT(stats.artifact_cache.evictions, 0u);
  EXPECT_GE(stats.artifact_cache.compiles, 1u);
  server.Stop();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
}

// --- Tracing and live telemetry -------------------------------------------

std::string TracedRequest(const std::string& id, const std::string& op,
                          const std::string& scenario,
                          const std::string& trace_id, int64_t attempt) {
  std::string payload = "{\"id\":\"" + id + "\",\"op\":\"" + op + "\"";
  if (!scenario.empty()) payload += ",\"scenario\":\"" + scenario + "\"";
  payload += ",\"trace_id\":\"" + trace_id + "\"";
  payload += ",\"attempt\":" + std::to_string(attempt);
  return payload + "}";
}

std::string FreshSidecarPath(const char* name) {
  const std::string path = FreshStorePath(name);
  return path.substr(0, path.size() - sizeof(".store.jsonl") + 1) + ".ndjson";
}

/// Parse an NDJSON event stream and keep the per-request lifecycle
/// records ("request" events) in file order.
std::vector<json::Value> RequestRecords(const std::string& events_path) {
  auto text = store::Env::Default()->ReadFile(events_path);
  EXPECT_TRUE(text.ok()) << text.status();
  std::vector<json::Value> records;
  if (!text.ok()) return records;
  size_t begin = 0;
  while (begin < text->size()) {
    size_t end = text->find('\n', begin);
    if (end == std::string::npos) end = text->size();
    const std::string_view line(text->data() + begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    auto parsed = json::Parse(line);
    if (!parsed.ok()) {
      ADD_FAILURE() << "unparseable event line: " << line;
      continue;
    }
    if (parsed->GetString("event") == "request") {
      records.push_back(std::move(*parsed));
    }
  }
  return records;
}

/// File order races with request order (a handler emits after it has
/// already responded), so tests over one retried id order by attempt.
void SortByAttempt(std::vector<json::Value>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const json::Value& a, const json::Value& b) {
                     return a.GetInt("attempt") < b.GetInt("attempt");
                   });
}

TEST(ServeTest, TraceEchoedAndReplayReturnsOriginalAttempt) {
  const std::string events_path = FreshSidecarPath("trace_echo");
  obs::EventEmitter emitter(events_path);
  ASSERT_TRUE(emitter.ok());
  serve::ServerOptions opts;
  opts.store_path = FreshStorePath("trace_echo");
  opts.events = &emitter;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();

  auto first = Call(server.port(),
                    TracedRequest("t1", "map", "bookstore", "trace-alpha", 0));
  ExpectOk(first);
  // The envelope echoes the trace context between detail and body, with
  // the per-stage server timings; body stays the LAST member so --body
  // slicing is unaffected.
  EXPECT_NE(first->find("\"trace_id\":\"trace-alpha\",\"attempt\":0,"
                        "\"server_timing\":{"),
            std::string::npos)
      << *first;
  EXPECT_NE(first->find("\"handle_ns\":"), std::string::npos) << *first;
  EXPECT_LT(first->find("\"server_timing\""), first->find(",\"body\":"));

  // A retried id is answered from the journal byte-identically — the
  // echo and timings are the ORIGINAL attempt's, by design.
  auto retry = Call(server.port(),
                    TracedRequest("t1", "map", "bookstore", "trace-beta", 5));
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(*retry, *first);

  server.Stop();
  // The event stream, though, records the replay itself under the
  // RETRY's trace context: that request's cost was the lookup.
  std::vector<json::Value> records = RequestRecords(events_path);
  ASSERT_EQ(records.size(), 2u);
  SortByAttempt(records);
  EXPECT_EQ(records[0].GetString("trace_id"), "trace-alpha");
  EXPECT_EQ(records[0].GetString("outcome"), "computed");
  EXPECT_EQ(records[1].GetString("trace_id"), "trace-beta");
  EXPECT_EQ(records[1].GetInt("attempt"), 5);
  EXPECT_EQ(records[1].GetString("outcome"), "replayed");
}

TEST(ServeTest, UntracedEnvelopeKeepsPreTracingWireFormat) {
  // A request without trace context gets the pre-tracing envelope byte
  // for byte — no trace_id, no server_timing — whether or not an event
  // stream is attached, so old clients never see a new wire format.
  const std::string events_path = FreshSidecarPath("untraced");
  obs::EventEmitter emitter(events_path);
  serve::ServerOptions with_events;
  with_events.events = &emitter;
  TestServer observed(with_events);
  TestServer plain({});
  ASSERT_TRUE(observed.ok()) << observed.start_error();
  ASSERT_TRUE(plain.ok()) << plain.start_error();

  auto a = Call(observed.port(), MapRequest("u1", "bookstore"));
  auto b = Call(plain.port(), MapRequest("u1", "bookstore"));
  ExpectOk(a);
  ExpectOk(b);
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->find("trace_id"), std::string::npos) << *a;
  EXPECT_EQ(a->find("server_timing"), std::string::npos) << *a;
  const std::string prefix =
      "{\"schema\":\"semap.rpc.v1\",\"id\":\"u1\",\"status\":\"ok\","
      "\"code\":\"\",\"detail\":\"\",\"body\":";
  EXPECT_EQ(a->rfind(prefix, 0), 0u) << *a;
}

TEST(ServeTest, EventStreamCarriesOneLifecycleRecordPerRequest) {
  const std::string events_path = FreshSidecarPath("lifecycle");
  obs::EventEmitter emitter(events_path);
  ASSERT_TRUE(emitter.ok());
  serve::ServerOptions opts;
  opts.store_path = FreshStorePath("lifecycle");
  opts.events = &emitter;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();

  ExpectOk(Call(server.port(), "{\"id\":\"p\",\"op\":\"ping\"}"));
  ExpectOk(Call(server.port(), MapRequest("m1", "bookstore")));   // computed
  ExpectOk(Call(server.port(), MapRequest("m2", "bookstore")));   // cached
  ExpectOk(Call(server.port(), MapRequest("m2", "bookstore")));   // replayed
  ExpectCode(Call(server.port(), MapRequest("m3", "nope")),
             serve::kErrUnknownScenario);
  server.Stop();

  std::vector<json::Value> records = RequestRecords(events_path);
  ASSERT_EQ(records.size(), 5u);
  // A handler emits its record after writing the response, so the next
  // request's record can land first — compare outcomes as a multiset,
  // not by file position.
  std::multiset<std::string> outcomes;
  int64_t last_seq = -1;
  for (const json::Value& record : records) {
    outcomes.insert(record.GetString("outcome"));
    // Monotonic bookkeeping: sequence numbers strictly increase, and
    // every dispatched request reports non-negative queue + handle time.
    EXPECT_GT(record.GetInt("seq"), last_seq);
    last_seq = record.GetInt("seq");
    EXPECT_GE(record.GetInt("queue_ns", -1), 0);
    EXPECT_GE(record.GetInt("handle_ns", -1), 0);
  }
  EXPECT_EQ(outcomes, (std::multiset<std::string>{
                          "ok", "computed", "cached", "replayed", "error"}));
  // The computed record accounts for its stages: each is non-negative
  // and their sum stays within the handle time that contains them.
  const auto computed_at =
      std::find_if(records.begin(), records.end(), [](const json::Value& r) {
        return r.GetString("outcome") == "computed";
      });
  ASSERT_NE(computed_at, records.end());
  const json::Value& computed = *computed_at;
  const int64_t compile = computed.GetInt("compile_ns", -1);
  const int64_t pipeline = computed.GetInt("pipeline_ns", -1);
  const int64_t journal = computed.GetInt("journal_ns", -1);
  EXPECT_GE(compile, 0);
  EXPECT_GE(pipeline, 0);
  EXPECT_GE(journal, 0);
  EXPECT_LE(compile + pipeline + journal, computed.GetInt("handle_ns"));
  EXPECT_EQ(computed.GetString("scenario"), "bookstore");
}

TEST(ServeTest, RetryAttemptsShareTraceIdAcrossSendFault) {
  // A reset at the first response send tears the connection after the
  // work is journaled. The client's retry carries the same trace_id and
  // attempt 1, so the event stream shows one logical request as a
  // story: attempt 0 computed (respond failed), attempt 1 replayed.
  const std::string events_path = FreshSidecarPath("retry_trace");
  obs::EventEmitter emitter(events_path);
  ASSERT_TRUE(emitter.ok());
  FaultEnv net;
  net.set_plan(FaultPlan{IoOp::kSend, 1, FaultMode::kReset});
  serve::ServerOptions opts;
  opts.store_path = FreshStorePath("retry_trace");
  opts.events = &emitter;
  opts.io_env = &net;
  opts.net_fault = &net;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();

  auto torn = Call(server.port(),
                   TracedRequest("rt", "map", "bookstore", "trace-retry", 0));
  EXPECT_FALSE(torn.ok() &&
               torn->find("\"status\":\"ok\"") != std::string::npos);
  auto retry = Call(server.port(),
                    TracedRequest("rt", "map", "bookstore", "trace-retry", 1));
  ExpectOk(retry);
  EXPECT_NE(retry->find("\"trace_id\":\"trace-retry\",\"attempt\":0"),
            std::string::npos)
      << "replay must return the journaled attempt-0 envelope: " << *retry;
  server.Stop();

  std::vector<json::Value> records = RequestRecords(events_path);
  ASSERT_EQ(records.size(), 2u);
  SortByAttempt(records);
  EXPECT_EQ(records[0].GetString("trace_id"), "trace-retry");
  EXPECT_EQ(records[0].GetInt("attempt"), 0);
  EXPECT_EQ(records[0].GetString("outcome"), "computed");
  EXPECT_EQ(records[1].GetString("trace_id"), "trace-retry");
  EXPECT_EQ(records[1].GetInt("attempt"), 1);
  EXPECT_EQ(records[1].GetString("outcome"), "replayed");
}

TEST(ServeTest, StatsReturnsLiveHistogramsMidLoad) {
  // The latency histograms are always on — they are the live telemetry
  // surface (stats RPC, semap_top), independent of any --events stream.
  TestServer server({});
  ASSERT_TRUE(server.ok()) << server.start_error();
  ExpectOk(Call(server.port(), MapRequest("h1", "bookstore")));

  // A request's histograms are recorded after its response is written,
  // so a stats call on another connection can overtake them: poll until
  // all five show the map request (bounded at 2s).
  const char* const names[] = {
      "serve.queue_wait_ns", "serve.handle_ns", "serve.e2e_ns.map",
      "serve.scenario_e2e_ns.bookstore", "serve.handle_miss_ns"};
  auto all_recorded = [&names](const std::string& body) {
    auto doc = json::Parse(body);
    const json::Value* metrics = doc.ok() ? doc->Find("metrics") : nullptr;
    const json::Value* hists =
        metrics != nullptr ? metrics->Find("histograms") : nullptr;
    if (hists == nullptr) return false;
    for (const char* name : names) {
      const json::Value* hist = hists->Find(name);
      if (hist == nullptr || hist->GetInt("count") < 1) return false;
    }
    return true;
  };
  const std::string stats_request = "{\"id\":\"s\",\"op\":\"stats\"}";
  auto stats = Call(server.port(), stats_request);
  for (int i = 0; i < 200 && stats.ok() && !all_recorded(BodyOf(*stats));
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = Call(server.port(), stats_request);
  }
  ExpectOk(stats);

  auto parsed = json::Parse(BodyOf(*stats));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const json::Value* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr) << *stats;
  EXPECT_EQ(metrics->GetString("schema"), "semap.metrics.v1");
  const json::Value* hists = metrics->Find("histograms");
  ASSERT_NE(hists, nullptr);
  for (const char* name : names) {
    const json::Value* hist = hists->Find(name);
    ASSERT_NE(hist, nullptr) << "missing histogram " << name;
    EXPECT_GE(hist->GetInt("count"), 1) << name;
  }
}

TEST(ServeTest, PeriodicMetricsSnapshotIsValidJson) {
  const std::string metrics_path = FreshSidecarPath("snapshot");
  std::remove(metrics_path.c_str());
  serve::ServerOptions opts;
  opts.metrics_path = metrics_path;
  opts.metrics_interval_ms = 10;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();
  ExpectOk(Call(server.port(), MapRequest("s1", "bookstore")));

  // The snapshot thread rewrites the file every interval via tmp +
  // fsync + rename, so whenever we happen to read it, it parses whole.
  store::Env* env = store::Env::Default();
  bool live_snapshot_seen = false;
  for (int i = 0; i < 200 && !live_snapshot_seen; ++i) {
    if (auto text = env->ReadFile(metrics_path); text.ok()) {
      auto parsed = json::Parse(*text);
      ASSERT_TRUE(parsed.ok()) << *text;
      live_snapshot_seen =
          parsed->Find("histograms") != nullptr &&
          parsed->Find("histograms")->Find("serve.e2e_ns.map") != nullptr;
    }
    if (!live_snapshot_seen) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(live_snapshot_seen) << "no live snapshot within 2s";

  // The final explicit write goes through the same path and must parse.
  ASSERT_TRUE(server.server()->WriteMetricsSnapshot().ok());
  auto text = env->ReadFile(metrics_path);
  ASSERT_TRUE(text.ok()) << text.status();
  auto parsed = json::Parse(*text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("schema"), "semap.metrics.v1");
  std::remove(metrics_path.c_str());
}

TEST(ServeTest, ConcurrentMetricsSnapshotIsSafe) {
  // Snapshot readers race request traffic on purpose: MetricsJson, the
  // stats RPC, and WriteMetricsSnapshot against workers recording
  // histograms and merging pipeline metrics. TSan runs this suite.
  const std::string metrics_path = FreshSidecarPath("concurrent");
  serve::ServerOptions opts;
  opts.workers = 4;
  opts.metrics_path = metrics_path;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << server.start_error();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&server, &failures, t] {
      for (int i = 0; i < 12; ++i) {
        const std::string id = "c" + std::to_string(t) + "-" +
                               std::to_string(i);
        auto response = Call(
            server.port(),
            OpRequest(id, "map", "bookstore", /*bypass=*/i % 3 == 0));
        if (!response.ok() ||
            response->find("\"status\":\"ok\"") == std::string::npos) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    auto snapshot = server.server()->MetricsJson();
    EXPECT_TRUE(json::Parse(snapshot).ok());
    EXPECT_TRUE(server.server()->WriteMetricsSnapshot().ok());
    (void)Call(server.port(), "{\"id\":\"s\",\"op\":\"stats\"}");
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status();
  std::remove(metrics_path.c_str());
}

// --- Fault matrix over a served request -----------------------------------

/// The reference response for id "r" on a clean server — map bodies are
/// deterministic, so every recovery below must reproduce these bytes.
std::string ReferenceResponse() {
  static const std::string reference = [] {
    TestServer server({});
    EXPECT_TRUE(server.ok()) << server.start_error();
    auto response = Call(server.port(), MapRequest("r", "bookstore"));
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? *response : std::string();
  }();
  return reference;
}

/// A non-OK serve status must be the injected kill and nothing else.
/// The op that trips the plan reports "injected <op> fault ..."; any op
/// after it reports "simulated crash: environment is dead" — which
/// thread's status reaches Serve's verdict depends on scheduling, and
/// both spellings are the same kill.
void ExpectInjectedKill(const Status& status, const std::string& context) {
  const std::string text = status.ToString();
  EXPECT_TRUE(text.find("injected") != std::string::npos ||
              text.find("simulated crash") != std::string::npos)
      << context << ": " << text;
}

/// Drive one request against a fault-armed server (the client side may
/// legitimately fail), then restart fault-free on the same store and
/// require the retried id to come back ok and byte-identical.
void RunFaultedThenRecover(const FaultPlan& plan, const std::string& context) {
  const std::string store = FreshStorePath("fault_matrix");
  {
    FaultEnv net;
    net.set_plan(plan);
    serve::ServerOptions opts;
    opts.store_path = store;
    opts.io_env = &net;
    opts.net_fault = &net;
    TestServer server(opts);
    ASSERT_TRUE(server.ok()) << context << ": " << server.start_error();
    auto response = Call(server.port(), MapRequest("r", "bookstore"));
    if (response.ok() &&
        response->find("\"status\":\"ok\"") != std::string::npos) {
      EXPECT_EQ(*response, ReferenceResponse()) << context;
    }
    server.Stop();
    // A clean drain or the injected kill — never a third outcome.
    if (!server.serve_status().ok()) {
      ExpectInjectedKill(server.serve_status(), context);
    }
  }

  // Restart = replay: no repair step, and the retried id must return
  // the same bytes the reference run produced.
  serve::ServerOptions opts;
  opts.store_path = store;
  TestServer server(opts);
  ASSERT_TRUE(server.ok()) << context << ": " << server.start_error();
  auto retry = Call(server.port(), MapRequest("r", "bookstore"));
  ASSERT_TRUE(retry.ok()) << context << ": " << retry.status();
  EXPECT_NE(retry->find("\"status\":\"ok\""), std::string::npos)
      << context << ": " << *retry;
  EXPECT_EQ(*retry, ReferenceResponse()) << context;
  std::remove(store.c_str());
}

/// Probe pass: count each op at two points — after startup (store open
/// and replay) and after one served request plus a clean drain — so the
/// sweeps arm the occurrences inside the request path, crash-matrix
/// style. The second snapshot is taken after Stop() has joined the
/// server: the connection close lands on a worker thread after the
/// client has already read the response, so counts are only stable once
/// the server is quiescent.
struct ProbeCounts {
  std::map<IoOp, int64_t> startup;
  std::map<IoOp, int64_t> after_request;
};

const ProbeCounts& Probe() {
  static const ProbeCounts counts = [] {
    ProbeCounts probe;
    FaultEnv net;  // no plans: pure counting
    // ctest runs each matrix parameter as its own process; the path must
    // be per-process unique or concurrent probes race on tmp+rename.
    const std::string store = testing::TempDir() + "/serve_probe." +
                              std::to_string(::getpid()) + ".store.jsonl";
    std::remove(store.c_str());
    serve::ServerOptions opts;
    opts.store_path = store;
    opts.io_env = &net;
    opts.net_fault = &net;
    TestServer server(opts);
    EXPECT_TRUE(server.ok()) << server.start_error();
    if (server.ok()) {
      probe.startup = net.counts();
      auto response = Call(server.port(), MapRequest("r", "bookstore"));
      EXPECT_TRUE(response.ok()) << response.status();
      server.Stop();
      probe.after_request = net.counts();
    }
    std::remove(store.c_str());
    return probe;
  }();
  return counts;
}

class ServeFaultMatrixTest
    : public testing::TestWithParam<std::pair<IoOp, FaultMode>> {};

TEST_P(ServeFaultMatrixTest, EveryOccurrenceRecoversByteIdentically) {
  const auto [op, mode] = GetParam();
  const ProbeCounts& probe = Probe();
  const auto base_it = probe.startup.find(op);
  const int64_t base = base_it == probe.startup.end() ? 0 : base_it->second;
  const auto total_it = probe.after_request.find(op);
  const int64_t total =
      total_it == probe.after_request.end() ? 0 : total_it->second;
  ASSERT_GT(total, base) << "the request path never touched "
                         << store::IoOpName(op);
  for (int64_t k = base + 1; k <= total; ++k) {
    RunFaultedThenRecover(
        {op, k, mode},
        std::string(store::IoOpName(op)) + ":" + std::to_string(k) + " mode " +
            std::to_string(static_cast<int>(mode)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sockets, ServeFaultMatrixTest,
    testing::Values(std::pair{IoOp::kAccept, FaultMode::kFail},
                    std::pair{IoOp::kAccept, FaultMode::kReset},
                    std::pair{IoOp::kAccept, FaultMode::kCrash},
                    std::pair{IoOp::kRecv, FaultMode::kFail},
                    std::pair{IoOp::kRecv, FaultMode::kReset},
                    std::pair{IoOp::kRecv, FaultMode::kShortWrite},
                    std::pair{IoOp::kRecv, FaultMode::kCrash},
                    std::pair{IoOp::kSend, FaultMode::kFail},
                    std::pair{IoOp::kSend, FaultMode::kReset},
                    std::pair{IoOp::kSend, FaultMode::kShortWrite},
                    std::pair{IoOp::kSend, FaultMode::kCrash},
                    std::pair{IoOp::kClose, FaultMode::kFail},
                    std::pair{IoOp::kClose, FaultMode::kReset},
                    std::pair{IoOp::kClose, FaultMode::kCrash}));

// A served request's filesystem ops are the journal appends (write +
// fsync for the result cache and the response record); open and rename
// happen at startup/rotation and are swept by crash_matrix_test.cc.
INSTANTIATE_TEST_SUITE_P(
    Filesystem, ServeFaultMatrixTest,
    testing::Values(std::pair{IoOp::kWrite, FaultMode::kFail},
                    std::pair{IoOp::kWrite, FaultMode::kReset},
                    std::pair{IoOp::kWrite, FaultMode::kShortWrite},
                    std::pair{IoOp::kWrite, FaultMode::kCrash},
                    std::pair{IoOp::kFsync, FaultMode::kFail},
                    std::pair{IoOp::kFsync, FaultMode::kCrash}));

// --- Fault sweeps over the new overload machinery -------------------------
//
// The parameterized matrix above drives ONE plain request. These sweeps
// drive the two new journal-bearing paths — a coalesced follower's own
// response append, and a request that recompiles an evicted artifact —
// and kill the process at every filesystem syscall the workload makes.
// Recovery contract is unchanged: restart = replay, retried ids answer
// byte-identically.

int64_t CountAt(const std::map<IoOp, int64_t>& counts, IoOp op) {
  const auto it = counts.find(op);
  return it == counts.end() ? 0 : it->second;
}

/// Sweep kill-at-k over `op` for every filesystem occurrence the
/// workload adds beyond startup, then restart fault-free and require
/// each retried id to reproduce its reference bytes.
void RunKillSweep(const serve::ServerOptions& base,
                  const std::function<void(int port)>& drive,
                  const std::vector<std::pair<std::string, std::string>>&
                      retries,
                  const std::map<std::string, std::string>& reference,
                  const char* sweep_name) {
  // Probe pass: count each filesystem op at startup and after the
  // workload plus a clean drain.
  std::map<IoOp, int64_t> startup;
  std::map<IoOp, int64_t> after;
  {
    FaultEnv counting;
    serve::ServerOptions opts = base;
    opts.store_path = FreshStorePath((std::string(sweep_name) + ".probe")
                                         .c_str());
    opts.io_env = &counting;
    TestServer server(opts);
    ASSERT_TRUE(server.ok()) << server.start_error();
    startup = counting.counts();
    drive(server.port());
    server.Stop();
    after = counting.counts();
    std::remove(opts.store_path.c_str());
  }

  for (IoOp op : {IoOp::kWrite, IoOp::kFsync}) {
    const int64_t first = CountAt(startup, op) + 1;
    const int64_t total = CountAt(after, op);
    ASSERT_GE(total, first) << sweep_name << ": the workload never touched "
                            << store::IoOpName(op);
    for (int64_t k = first; k <= total; ++k) {
      const std::string context = std::string(sweep_name) + " " +
                                  store::IoOpName(op) + ":" +
                                  std::to_string(k);
      const std::string store = FreshStorePath(sweep_name);
      {
        FaultEnv env;
        env.set_plan({op, k, FaultMode::kCrash});
        serve::ServerOptions opts = base;
        opts.store_path = store;
        opts.io_env = &env;
        TestServer server(opts);
        ASSERT_TRUE(server.ok()) << context << ": " << server.start_error();
        drive(server.port());  // clients may legitimately fail mid-kill
        server.Stop();
        if (!server.serve_status().ok()) {
          ExpectInjectedKill(server.serve_status(), context);
        }
      }

      // Restart fault-free on the same store; no repair step.
      serve::ServerOptions opts = base;
      opts.request_hold_ms = 0;
      opts.store_path = store;
      TestServer server(opts);
      ASSERT_TRUE(server.ok()) << context << ": " << server.start_error();
      for (const auto& [id, scenario] : retries) {
        auto retry = Call(server.port(), MapRequest(id, scenario));
        ASSERT_TRUE(retry.ok()) << context << ": " << retry.status();
        EXPECT_NE(retry->find("\"status\":\"ok\""), std::string::npos)
            << context << ": " << *retry;
        EXPECT_EQ(*retry, reference.at(id)) << context;
      }
      std::remove(store.c_str());
    }
  }
}

TEST(ServeTest, FaultSweepCoalescedFollowerJournalRecovery) {
  serve::ServerOptions base;
  base.workers = 2;
  base.request_hold_ms = 200;

  // Reference bytes: map bodies are deterministic and a follower
  // journals OkResponse(id, shared body), so a clean sequential run of
  // the same ids produces exactly the bytes every recovery must replay.
  std::map<std::string, std::string> reference;
  {
    TestServer server(base);
    ASSERT_TRUE(server.ok()) << server.start_error();
    for (const char* id : {"lead", "fol"}) {
      auto response = Call(server.port(), MapRequest(id, "bookstore"));
      ExpectOk(response);
      reference[id] = *response;
    }
  }

  // Leader + one coalesced follower: the hold keeps the leader's flight
  // open while the follower arrives, so the follower's journal append
  // lands inside the swept syscall range.
  const auto drive = [](int port) {
    auto lead = serve::DialTcp("127.0.0.1", port, {});
    if (!lead.ok()) return;
    (void)serve::WriteFrame(**lead, MapRequest("lead", "bookstore"));
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    auto follower = serve::DialTcp("127.0.0.1", port, {});
    if (follower.ok()) {
      (void)serve::WriteFrame(**follower, MapRequest("fol", "bookstore"));
      (void)serve::ReadFrame(**follower);
      (void)(*follower)->Close();
    }
    (void)serve::ReadFrame(**lead);
    (void)(*lead)->Close();
  };

  RunKillSweep(base, drive, {{"lead", "bookstore"}, {"fol", "bookstore"}},
               reference, "coalesced_follower");
}

TEST(ServeTest, FaultSweepEvictionRecompileRecovery) {
  serve::ServerOptions base;
  base.cache_budget_bytes = 4096;  // holds at most one compiled scenario

  // References come from an unbudgeted server: eviction and recompile
  // must never change a single response byte.
  std::map<std::string, std::string> reference;
  {
    TestServer server({});
    ASSERT_TRUE(server.ok()) << server.start_error();
    for (const auto& [id, scenario] :
         std::vector<std::pair<std::string, std::string>>{
             {"ev1", "bookstore"}, {"ev2", "bookstore_lite"}}) {
      auto response = Call(server.port(), MapRequest(id, scenario));
      ExpectOk(response);
      reference[id] = *response;
    }
  }

  // Two scenarios through a one-slot budget: each request evicts the
  // other's artifact and recompiles, so the swept journal appends are
  // exactly the ones an eviction-triggered recompile makes.
  const auto drive = [](int port) {
    (void)Call(port, MapRequest("ev1", "bookstore"));
    (void)Call(port, MapRequest("ev2", "bookstore_lite"));
  };

  // Sanity: the probe workload really does recompile under this budget.
  {
    TestServer server(base);
    ASSERT_TRUE(server.ok()) << server.start_error();
    drive(server.port());
    const auto stats = server.stats();
    EXPECT_GE(stats.artifact_cache.compiles, 1u);
    EXPECT_GE(stats.artifact_cache.evictions, 1u);
  }

  RunKillSweep(base, drive,
               {{"ev1", "bookstore"}, {"ev2", "bookstore_lite"}}, reference,
               "eviction_recompile");
}

}  // namespace
}  // namespace semap
