// The semap_serve daemon core: a crash-only request server over the
// discovery pipeline.
//
// Lifecycle: Start() loads the scenario catalog once (compiled CM
// graphs, s-trees, linted correspondences in a memory-budgeted artifact
// cache), opens the journaled response store keyed by the catalog
// fingerprint, and binds the listener. Serve() runs the accept loop on
// the calling thread and a fixed worker pool; each worker executes one
// request at a time through exec::RunResilientPipeline
// (exec/resilient_pipeline.h), with unit retry and the circuit breaker on,
// under the request's own deadline and the server's drain-cancel flag.
//
// Robustness contract (tested by tests/serve_test.cc, documented in
// docs/SERVING.md):
//   * admission — accepted connections enter a bounded queue; when it
//     is full the acceptor immediately writes a coded SEMAP-E210 reject
//     and closes. Overload is always an explicit answer, never silent
//     queueing.
//   * idempotency — every ok response is journaled under its request id
//     *before* it is sent (fsync-then-respond). A retry with the same id
//     — including against a restarted server after kill -9 — returns
//     the stored bytes verbatim.
//   * crash-only — the only durable state is the journaled store
//     (PR 6); there is no repair step. Restart = replay.
//   * repeat traffic — computed result bodies are cached in the store
//     by (op, scenario), so repeated requests skip discovery entirely
//     (and survive restarts). "cache":"bypass" forces recomputation.
//   * memory budget — compiled artifacts live in the catalog's budgeted
//     LRU (serve/catalog.h). Under pressure cold scenarios are evicted
//     and recompile transparently on next touch; in-flight requests pin
//     their artifact so eviction never yanks memory mid-run.
//   * single-flight — concurrent cache-miss requests for the same
//     (op, scenario) coalesce onto one computation: a leader runs the
//     pipeline, followers wait on the flight and then journal their OWN
//     idempotent response from the shared body. "cache":"bypass"
//     requests never coalesce (the bench measures raw latency).
//   * deadline shedding — a request whose deadline_ms already expired
//     (queue wait, hold, or follower wait) is dropped with the
//     retryable SEMAP-E213 reject before any expensive work; the
//     remaining budget is threaded into the pipeline governor so
//     in-flight work degrades instead of overrunning its caller.
//   * drain — when the stop flag rises the listener closes, queued
//     connections get SEMAP-E211, in-flight requests finish; past the
//     drain deadline they are cancelled through the pipeline's
//     cooperative flag and answered SEMAP-E212. Then Serve returns.
//   * fault seams — all store I/O goes through ServerOptions::io_env,
//     all socket ops through ServerOptions::net_fault (store/env.h), so
//     the crash matrix can kill the daemon at any syscall of a served
//     request.
#ifndef SEMAP_SERVE_SERVER_H_
#define SEMAP_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"
#include "serve/catalog.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "store/env.h"
#include "store/mapping_store.h"
#include "util/result.h"

namespace semap::serve {

struct ServerOptions {
  std::string catalog_dir;
  /// Listen on a unix socket when non-empty; otherwise TCP.
  std::string unix_path;
  /// TCP port when unix_path is empty (0 = ephemeral, read tcp_port()).
  int tcp_port = 0;
  size_t workers = 2;
  /// Accepted-but-unclaimed connections; beyond this the acceptor sheds
  /// with SEMAP-E210.
  size_t queue_capacity = 8;
  /// Budget for the compiled-artifact cache; 0 = unbounded (never
  /// evict). CLI: --cache-budget-mb.
  size_t cache_budget_bytes = 0;
  /// Per-connection read/write timeout (slow-client protection).
  int64_t io_timeout_ms = 5000;
  /// Deadline applied to requests that do not carry their own.
  int64_t default_deadline_ms = -1;
  /// Budget for in-flight requests after the stop flag rises; past it
  /// they are cooperatively cancelled (SEMAP-E212).
  int64_t drain_deadline_ms = 2000;
  /// Test hook: hold each computed request this long before running the
  /// pipeline, so shed/drain/deadline races become deterministic.
  int64_t request_hold_ms = 0;
  /// Journaled response store; empty = ephemeral (in-memory) idempotency
  /// only. The store's fingerprint is the catalog's.
  std::string store_path;
  /// Store I/O seam (Env::Default() when null).
  store::Env* io_env = nullptr;
  /// Socket fault seam; null = no injection.
  store::FaultEnv* net_fault = nullptr;
  /// Wide-event stream (semap.events.v1); not owned, may be null.
  obs::EventEmitter* events = nullptr;
  /// Live-telemetry snapshot file (semap.metrics.v1). Written through
  /// the io_env's tmp+fsync+rename discipline, so a reader never sees a
  /// torn document — only the previous complete snapshot. Empty = none.
  std::string metrics_path;
  /// Rewrite metrics_path every N ms while serving (0 = only the final
  /// write), closing the kill -9 window of an at-exit-only export.
  int64_t metrics_interval_ms = 0;
};

struct ServerStatsSnapshot {
  uint64_t accepted = 0;
  uint64_t served = 0;
  uint64_t shed = 0;
  /// Requests dropped because their deadline expired before the
  /// pipeline ran (SEMAP-E213).
  uint64_t deadline_shed = 0;
  uint64_t idempotent_hits = 0;
  /// Durable (op, scenario) result-cache hits.
  uint64_t cache_hits = 0;
  uint64_t singleflight_leaders = 0;
  uint64_t singleflight_followers = 0;
  uint64_t errors = 0;
  bool draining = false;
  size_t scenarios = 0;
  /// Compiled-artifact cache (hits/misses/evictions/bytes).
  ArtifactCacheStats artifact_cache;
};

class Server {
 public:
  static Result<std::unique_ptr<Server>> Start(ServerOptions opts);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// Accept and serve until `stop` reads true, then drain. Returns OK on
  /// a clean drain; the injected-crash status when the fault environment
  /// killed the process mid-serve (the test then "restarts" by calling
  /// Start again on the same store).
  Status Serve(const std::atomic<bool>& stop);

  /// Bound TCP port (-1 on unix sockets); lets tests use port 0.
  int tcp_port() const { return listener_->port(); }
  const Catalog& catalog() const { return catalog_; }
  ServerStatsSnapshot stats() const;

  /// semap.metrics.v1 over everything this server ran: per-request
  /// pipeline metrics and the rolling serve latency histograms merged
  /// with the serve.* counter taxonomy (docs/OBSERVABILITY.md). Safe to
  /// call at any time, including mid-load — obs::Metrics snapshots under
  /// its own lock and the counters are atomics.
  std::string MetricsJson() const;

  /// Write MetricsJson() to opts.metrics_path via tmp+fsync+rename on
  /// the server's io_env (Env::Default() when null). No-op OK when no
  /// path is configured. The periodic snapshot thread calls this every
  /// metrics_interval_ms; callers invoke it once more after Serve for
  /// the final authoritative write.
  Status WriteMetricsSnapshot() const;

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// One admitted connection plus when the acceptor admitted it — the
  /// start of the first request's deadline clock (queue wait counts
  /// against the caller's patience).
  struct QueuedConn {
    std::unique_ptr<Conn> conn;
    TimePoint admitted;
  };

  /// One in-flight (op, scenario) computation that concurrent cache
  /// misses coalesce onto. The leader computes and publishes; followers
  /// wait on `cv`, then journal their own responses from the shared
  /// outcome.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    std::string body;
  };

  explicit Server(ServerOptions opts) : opts_(std::move(opts)) {}

  /// One request's flight record: what happened (outcome + code) and
  /// where the time went, in monotonic nanoseconds per stage (-1 = stage
  /// not reached). Fed to FinishRequest for the wide-event lifecycle
  /// record and the rolling latency histograms.
  struct Lifecycle {
    std::string id;
    std::string op;
    std::string scenario;
    std::string trace_id;
    int64_t attempt = 0;
    /// computed | cached | replayed | coalesced | ok (ping/stats) |
    /// shed | deadline_shed | drain_rejected | drain_cancelled |
    /// bad_frame | bad_request | error.
    std::string outcome;
    /// SEMAP-E2xx on non-ok outcomes, empty otherwise.
    std::string code;
    int64_t queue_ns = -1;     ///< admission → worker dispatch
    int64_t compile_ns = -1;   ///< artifact acquire (≈0 on cache hit)
    int64_t pipeline_ns = -1;  ///< supervised discovery run
    int64_t journal_ns = -1;   ///< result-cache + response appends
    int64_t handle_ns = -1;    ///< dispatch → response ready
    int64_t respond_ns = -1;   ///< response write to the socket
    /// Admission-shed context (E210 only).
    int64_t queue_depth = -1;
  };

  void WorkerLoop();
  void HandleConn(QueuedConn queued);
  std::string HandleRequest(const Request& request, TimePoint start,
                            Lifecycle* lc);
  /// Run the pipeline (or answer lint). `cacheable` is cleared when the
  /// body was shaped by the caller's deadline (degraded tiers) and must
  /// not poison the durable result cache.
  Result<std::string> Compute(const Request& request,
                              const CatalogEntry& entry, TimePoint start,
                              bool* cacheable, Lifecycle* lc);
  /// Map a Compute failure onto the response contract: drain-cancel →
  /// E212 reject, expired deadline → E213 reject (counted as
  /// deadline_shed, not error), anything else → E203 error.
  std::string FailureResponse(const Request& request, const Status& status,
                              Lifecycle* lc, TimePoint dispatched);
  /// Record the rolling latency histograms and append the one lifecycle
  /// record per request to the event stream (zero cost when events off).
  void FinishRequest(const Lifecycle& lc);

  /// Stored response / cached result body lookups and journaling (the
  /// store is not thread-safe; store_mu_ serializes it).
  std::optional<std::string> LookupResponse(const std::string& id);
  std::optional<std::string> LookupResult(const std::string& key);
  Status StoreResult(const std::string& key, const std::string& body);
  Status StoreResponse(const std::string& id, const std::string& response);

  std::string StatsBody() const;

  ServerOptions opts_;
  Catalog catalog_;
  std::unique_ptr<Listener> listener_;
  std::optional<store::MappingStore> store_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<QueuedConn> queue_;
  std::vector<std::thread> workers_;

  std::atomic<bool> draining_{false};
  /// The pipeline cancel flag shared by every in-flight request: set
  /// when the drain deadline expires.
  std::atomic<bool> drain_cancel_{false};
  std::atomic<size_t> active_{0};

  std::mutex store_mu_;
  std::map<std::string, std::string> ephemeral_responses_;
  std::map<std::string, std::string> ephemeral_results_;

  /// Single-flight table: result key → the in-flight computation.
  std::mutex flights_mu_;
  std::map<std::string, std::shared_ptr<Flight>> flights_;

  /// Pipeline metrics merged from every computed request, plus the
  /// rolling serve.*_ns latency histograms. obs::Metrics synchronizes
  /// internally, so workers record and SnapshotJson reads concurrently.
  obs::Metrics run_metrics_;

  /// Periodic metrics snapshot writer (metrics_interval_ms > 0).
  std::mutex snapshot_mu_;
  std::condition_variable snapshot_cv_;
  bool snapshot_stop_ = false;
  std::thread snapshot_thread_;
  /// Serializes WriteMetricsSnapshot: the periodic writer and explicit
  /// callers share one tmp path, so interleaved writes would rename a
  /// file another writer is still filling.
  mutable std::mutex snapshot_write_mu_;

  mutable std::atomic<uint64_t> accepted_{0};
  mutable std::atomic<uint64_t> served_{0};
  mutable std::atomic<uint64_t> shed_{0};
  mutable std::atomic<uint64_t> deadline_shed_{0};
  mutable std::atomic<uint64_t> idempotent_hits_{0};
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> singleflight_leaders_{0};
  mutable std::atomic<uint64_t> singleflight_followers_{0};
  mutable std::atomic<uint64_t> errors_{0};
};

}  // namespace semap::serve

#endif  // SEMAP_SERVE_SERVER_H_
