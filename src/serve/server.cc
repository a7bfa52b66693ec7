#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "exec/resilient_pipeline.h"
#include "exec/run_context.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace semap::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::string EscapedField(std::string_view key, const std::string& value,
                         bool first = false) {
  std::string out = first ? "{" : ",";
  out += "\"";
  out.append(key.data(), key.size());
  out += "\":\"";
  out += obs::JsonEscape(value);
  out += "\"";
  return out;
}

int64_t ElapsedMs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Start(ServerOptions opts) {
  auto catalog = LoadCatalog(opts.catalog_dir, opts.cache_budget_bytes);
  if (!catalog.ok()) return catalog.status();

  std::unique_ptr<Server> server(new Server(std::move(opts)));
  server->catalog_ = std::move(*catalog);

  if (!server->opts_.store_path.empty()) {
    auto store = store::MappingStore::Open(server->opts_.store_path,
                                           server->catalog_.fingerprint,
                                           server->opts_.io_env);
    if (!store.ok()) return store.status();
    server->store_.emplace(std::move(*store));
  }

  SocketOptions socket_opts;
  socket_opts.io_timeout_ms = server->opts_.io_timeout_ms;
  Result<std::unique_ptr<Listener>> listener =
      server->opts_.unix_path.empty()
          ? ListenTcp(server->opts_.tcp_port, socket_opts)
          : ListenUnix(server->opts_.unix_path, socket_opts);
  if (!listener.ok()) return listener.status();
  server->listener_ = std::move(*listener);
  if (server->opts_.net_fault != nullptr) {
    server->listener_ = FaultInjectedListener(std::move(server->listener_),
                                              server->opts_.net_fault);
  }

  if (server->opts_.events != nullptr) {
    server->opts_.events->Emit(
        "serve_start",
        obs::WideEvent()
            .Int("scenarios",
                 static_cast<int64_t>(server->catalog_.entries.size()))
            .Int("skipped",
                 static_cast<int64_t>(server->catalog_.skipped.size()))
            .Int("cache_budget_bytes",
                 static_cast<int64_t>(server->opts_.cache_budget_bytes))
            .Bool("durable", server->store_.has_value()));
  }
  return server;
}

Server::~Server() {
  // Serve() joins its workers before returning; this only covers a
  // server destroyed without ever serving.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (snapshot_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      snapshot_stop_ = true;
    }
    snapshot_cv_.notify_all();
    snapshot_thread_.join();
  }
  if (listener_ != nullptr) (void)listener_->Close();
}

Status Server::Serve(const std::atomic<bool>& stop) {
  for (size_t i = 0; i < std::max<size_t>(opts_.workers, 1); ++i) {
    workers_.emplace_back(&Server::WorkerLoop, this);
  }

  // Live telemetry: rewrite the snapshot file on a cadence so a kill -9
  // loses at most one interval of observability (the file itself is
  // always a complete document — tmp+fsync+rename).
  if (!opts_.metrics_path.empty() && opts_.metrics_interval_ms > 0) {
    snapshot_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(snapshot_mu_);
      while (!snapshot_stop_) {
        snapshot_cv_.wait_for(
            lock, std::chrono::milliseconds(opts_.metrics_interval_ms),
            [this] { return snapshot_stop_; });
        if (snapshot_stop_) break;
        lock.unlock();
        // Best-effort per tick; the post-drain final write is the one
        // whose failure callers surface.
        (void)WriteMetricsSnapshot();
        lock.lock();
      }
    });
  }

  Status verdict = Status::OK();
  while (!stop.load(std::memory_order_relaxed)) {
    auto conn = listener_->Accept(stop);
    if (!conn.ok()) {
      if (stop.load(std::memory_order_relaxed)) break;
      if (opts_.net_fault != nullptr && opts_.net_fault->crashed()) {
        // The simulated process kill: freeze everything and bail out the
        // way SIGKILL would — no drain courtesy, journal left as-is.
        verdict = conn.status();
        break;
      }
      // Transient accept failure (injected or real): keep listening,
      // without spinning the fault counters hot.
      errors_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);

    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.size() < opts_.queue_capacity) {
        queue_.push_back(QueuedConn{std::move(*conn), Clock::now()});
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
      continue;
    }
    // Admission control: the queue is full, so the answer is an explicit
    // coded reject written right here on the acceptor thread — cheap,
    // bounded, and never silent. The request was never read, so its
    // lifecycle record carries the shed decision and the queue depth,
    // nothing else.
    shed_.fetch_add(1, std::memory_order_relaxed);
    Lifecycle lc;
    lc.outcome = "shed";
    lc.code = kErrOverloaded;
    lc.queue_depth = static_cast<int64_t>(opts_.queue_capacity);
    (void)WriteFrame(**conn,
                     ErrorResponse("", "reject", kErrOverloaded,
                                   "server overloaded: admission queue is "
                                   "full, retry with backoff"));
    (void)(*conn)->Close();
    FinishRequest(lc);
  }

  // Drain: stop accepting (the listener is done), let queued connections
  // be answered E211, give in-flight requests the drain deadline, then
  // cancel whatever is left through the pipeline's cooperative flag.
  const bool crashed =
      opts_.net_fault != nullptr && opts_.net_fault->crashed();
  draining_.store(true);
  queue_cv_.notify_all();
  if (opts_.events != nullptr) {
    opts_.events->Emit("drain_begin",
                       obs::WideEvent()
                           .Int("in_flight",
                                static_cast<int64_t>(
                                    active_.load(std::memory_order_relaxed)))
                           .Bool("crashed", crashed));
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(
                         opts_.drain_deadline_ms > 0 ? opts_.drain_deadline_ms
                                                     : 0);
  while (Clock::now() < deadline) {
    bool idle;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      idle = queue_.empty() && active_.load(std::memory_order_relaxed) == 0;
    }
    if (idle) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  drain_cancel_.store(true);
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (snapshot_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      snapshot_stop_ = true;
    }
    snapshot_cv_.notify_all();
    snapshot_thread_.join();
  }
  (void)listener_->Close();
  if (opts_.events != nullptr) {
    opts_.events->Emit(
        "drain_end",
        obs::WideEvent()
            .Int("served", static_cast<int64_t>(
                               served_.load(std::memory_order_relaxed)))
            .Int("shed",
                 static_cast<int64_t>(shed_.load(std::memory_order_relaxed)))
            .Bool("clean", verdict.ok()));
  }
  return verdict;
}

void Server::WorkerLoop() {
  while (true) {
    QueuedConn queued;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) {
        if (draining_.load(std::memory_order_relaxed)) return;
        continue;
      }
      queued = std::move(queue_.front());
      queue_.pop_front();
      active_.fetch_add(1, std::memory_order_relaxed);
    }
    HandleConn(std::move(queued));
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::HandleConn(QueuedConn queued) {
  std::unique_ptr<Conn> conn = std::move(queued.conn);
  bool first_frame = true;
  while (true) {
    auto payload = ReadFrame(*conn);
    // The first request's deadline clock starts when the acceptor
    // admitted the connection — queue wait counts against the caller's
    // patience; later frames on the same connection start now.
    const TimePoint dispatched = Clock::now();
    const TimePoint start = first_frame ? queued.admitted : dispatched;
    first_frame = false;
    if (!payload.ok()) {
      if (payload.status().code() == StatusCode::kNotFound) break;  // EOF
      errors_.fetch_add(1, std::memory_order_relaxed);
      if (payload.status().code() == StatusCode::kParseError) {
        // The stream lost sync; E200 is a courtesy, the close is the
        // actual answer.
        (void)WriteFrame(*conn,
                         ErrorResponse("", "error", kErrBadFrame,
                                       payload.status().message()));
        Lifecycle lc;
        lc.outcome = "bad_frame";
        lc.code = kErrBadFrame;
        FinishRequest(lc);
      }
      break;
    }

    Lifecycle lc;
    lc.queue_ns = std::max<int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dispatched -
                                                             start)
            .count(),
        0);
    std::string response;
    auto request = ParseRequest(*payload);
    if (!request.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      lc.outcome = "bad_request";
      lc.code = kErrBadRequest;
      response = ErrorResponse("", "error", kErrBadRequest,
                               request.status().message());
    } else if (draining_.load(std::memory_order_relaxed)) {
      // Popped after the drain began: this request never started, so it
      // is rejected, not cancelled.
      lc.id = request->id;
      lc.op = request->op;
      lc.scenario = request->scenario;
      lc.trace_id = request->trace_id;
      lc.attempt = request->attempt;
      lc.outcome = "drain_rejected";
      lc.code = kErrDraining;
      ResponseMeta meta;
      meta.trace_id = request->trace_id;
      meta.attempt = request->attempt;
      meta.queue_ns = lc.queue_ns;
      response = ErrorResponse(request->id, "reject", kErrDraining,
                               "server is draining, retry elsewhere", meta);
    } else {
      response = HandleRequest(*request, start, &lc);
    }
    if (lc.handle_ns < 0) lc.handle_ns = NsSince(dispatched);
    const TimePoint respond_start = Clock::now();
    const bool wrote = WriteFrame(*conn, response).ok();
    lc.respond_ns = NsSince(respond_start);
    FinishRequest(lc);
    if (!wrote) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (draining_.load(std::memory_order_relaxed)) break;
  }
  (void)conn->Close();
}

std::string Server::HandleRequest(const Request& request, TimePoint start,
                                  Lifecycle* lc) {
  const TimePoint dispatched = Clock::now();
  lc->id = request.id;
  lc->op = request.op;
  lc->scenario = request.scenario;
  lc->trace_id = request.trace_id;
  lc->attempt = request.attempt;
  // The trace echo rendered into the envelope. MetaFields renders
  // nothing when the request carried no trace_id, so untraced envelopes
  // stay byte-for-byte what pre-tracing servers produced.
  ResponseMeta meta;
  meta.trace_id = request.trace_id;
  meta.attempt = request.attempt;
  meta.queue_ns = lc->queue_ns;

  if (request.op == "ping") {
    lc->outcome = "ok";
    meta.handle_ns = lc->handle_ns = NsSince(dispatched);
    return OkResponse(request.id, meta, "{\"pong\":true}");
  }
  if (request.op == "stats") {
    // Never journaled, never cached: stats is the live-telemetry surface
    // and must reflect this instant, not the first time it was asked.
    lc->outcome = "ok";
    std::string body = StatsBody();
    meta.handle_ns = lc->handle_ns = NsSince(dispatched);
    return OkResponse(request.id, meta, body);
  }

  // Idempotency: a replayed id returns the journaled bytes verbatim —
  // the same answer the original attempt got (or would have gotten),
  // even across a server restart. The stored envelope's trace echo is
  // the original attempt's, by design.
  if (auto stored = LookupResponse(request.id); stored.has_value()) {
    idempotent_hits_.fetch_add(1, std::memory_order_relaxed);
    lc->outcome = "replayed";
    lc->handle_ns = NsSince(dispatched);
    return *stored;
  }

  const CatalogEntry* entry = catalog_.Find(request.scenario);
  if (entry == nullptr) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    lc->outcome = "error";
    lc->code = kErrUnknownScenario;
    meta.handle_ns = lc->handle_ns = NsSince(dispatched);
    return ErrorResponse(request.id, "error", kErrUnknownScenario,
                         "unknown scenario \"" + request.scenario + "\"",
                         meta);
  }

  // Repeat traffic: a (op, scenario) result computed once — by this
  // process or a predecessor over the same store — is served from the
  // cache without touching the discovery pipeline.
  const std::string result_key = "result:" + request.op + ":" +
                                 request.scenario;
  std::string body;
  bool cached = false;
  if (!request.cache_bypass) {
    if (auto hit = LookupResult(result_key); hit.has_value()) {
      body = std::move(*hit);
      cached = true;
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!cached) {
    // Deadline shed: the caller's patience ran out while this request
    // sat in the admission queue. The expensive work has not started,
    // so the honest answer is a retryable reject, not a late result.
    if (request.deadline_ms > 0 && ElapsedMs(start) >= request.deadline_ms) {
      deadline_shed_.fetch_add(1, std::memory_order_relaxed);
      lc->outcome = "deadline_shed";
      lc->code = kErrDeadlineShed;
      meta.handle_ns = lc->handle_ns = NsSince(dispatched);
      return ErrorResponse(request.id, "reject", kErrDeadlineShed,
                           "deadline expired before dispatch (queued past "
                           "the caller's patience); retry with backoff",
                           meta);
    }

    // Single-flight: concurrent misses for the same (op, scenario)
    // coalesce onto one computation. Bypass requests never coalesce —
    // the bench uses them to measure raw pipeline latency.
    std::shared_ptr<Flight> flight;
    bool leader = false;
    if (!request.cache_bypass) {
      std::lock_guard<std::mutex> lock(flights_mu_);
      auto [it, inserted] = flights_.try_emplace(result_key);
      if (inserted) {
        it->second = std::make_shared<Flight>();
        leader = true;
      }
      flight = it->second;
    }

    if (flight != nullptr && !leader) {
      // Follower: attach to the leader's computation, then journal an
      // idempotent response of our own from the shared body.
      singleflight_followers_.fetch_add(1, std::memory_order_relaxed);
      lc->outcome = "coalesced";
      std::unique_lock<std::mutex> wait_lock(flight->mu);
      flight->cv.wait(wait_lock, [&] { return flight->done; });
      if (!flight->status.ok()) {
        return FailureResponse(request, flight->status, lc, dispatched);
      }
      body = flight->body;
    } else {
      if (leader) {
        singleflight_leaders_.fetch_add(1, std::memory_order_relaxed);
      }
      bool cacheable = true;
      auto computed = Compute(request, *entry, start, &cacheable, lc);
      Status outcome = computed.ok() ? Status::OK() : computed.status();
      if (computed.ok()) {
        body = std::move(*computed);
        // Cache the body first: if the journal dies between these two
        // puts, the restarted server recomputes nothing and the retry
        // still gets byte-identical bytes (the body is deterministic).
        // Deadline-shaped (degraded) bodies are NOT cached: they would
        // poison later un-deadlined requests with a different answer.
        if (cacheable) {
          const TimePoint journal_start = Clock::now();
          Status stored = StoreResult(result_key, body);
          lc->journal_ns = NsSince(journal_start);
          if (!stored.ok()) outcome = stored;
        }
      }
      if (leader) {
        {
          std::lock_guard<std::mutex> lock(flights_mu_);
          flights_.erase(result_key);
        }
        {
          std::lock_guard<std::mutex> publish_lock(flight->mu);
          flight->done = true;
          flight->status = outcome;
          if (outcome.ok()) flight->body = body;
        }
        flight->cv.notify_all();
      }
      if (!outcome.ok()) {
        return FailureResponse(request, outcome, lc, dispatched);
      }
    }
  }

  if (lc->outcome.empty()) lc->outcome = cached ? "cached" : "computed";
  meta.compile_ns = lc->compile_ns;
  meta.pipeline_ns = lc->pipeline_ns;
  meta.journal_ns = lc->journal_ns;
  meta.handle_ns = NsSince(dispatched);
  std::string response = OkResponse(request.id, meta, body);
  // Crash-only: fsync the response under its id BEFORE sending. An ok
  // answer the client saw is always an answer the journal can replay.
  // (This append lands after the envelope is rendered, so its cost shows
  // in the lifecycle record's journal_ns, not in the envelope's.)
  const TimePoint response_journal_start = Clock::now();
  Status stored = StoreResponse(request.id, response);
  lc->journal_ns = std::max<int64_t>(lc->journal_ns, 0) +
                   NsSince(response_journal_start);
  if (!stored.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    lc->outcome = "error";
    lc->code = kErrInternal;
    lc->handle_ns = NsSince(dispatched);
    return ErrorResponse(request.id, "error", kErrInternal, stored.message(),
                         meta);
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  lc->handle_ns = NsSince(dispatched);
  return response;
}

std::string Server::FailureResponse(const Request& request,
                                    const Status& status, Lifecycle* lc,
                                    TimePoint dispatched) {
  ResponseMeta meta;
  meta.trace_id = request.trace_id;
  meta.attempt = request.attempt;
  meta.queue_ns = lc->queue_ns;
  meta.compile_ns = lc->compile_ns;
  meta.pipeline_ns = lc->pipeline_ns;
  meta.handle_ns = lc->handle_ns = NsSince(dispatched);
  if (drain_cancel_.load(std::memory_order_relaxed)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    lc->outcome = "drain_cancelled";
    lc->code = kErrCancelled;
    return ErrorResponse(request.id, "reject", kErrCancelled,
                         "request cancelled by drain deadline: " +
                             status.message(),
                         meta);
  }
  if (status.code() == StatusCode::kDeadlineExceeded) {
    // The caller's own deadline expired mid-hold or mid-wait: a shed,
    // not a server fault — retryable with a fresh deadline.
    deadline_shed_.fetch_add(1, std::memory_order_relaxed);
    lc->outcome = "deadline_shed";
    lc->code = kErrDeadlineShed;
    return ErrorResponse(request.id, "reject", kErrDeadlineShed,
                         status.message(), meta);
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  lc->outcome = "error";
  lc->code = kErrInternal;
  return ErrorResponse(request.id, "error", kErrInternal, status.message(),
                       meta);
}

void Server::FinishRequest(const Lifecycle& lc) {
  // Rolling latency histograms — always on: this is the daemon's live
  // telemetry surface (stats RPC, --metrics snapshots), independent of
  // whether an event stream is attached. A handful of histogram inserts
  // per request is noise next to a journal fsync.
  if (lc.queue_ns >= 0) {
    run_metrics_.RecordDurationNs("serve.queue_wait_ns", lc.queue_ns);
  }
  if (lc.handle_ns >= 0) {
    run_metrics_.RecordDurationNs("serve.handle_ns", lc.handle_ns);
    if (!lc.op.empty()) {
      int64_t e2e = lc.handle_ns + std::max<int64_t>(lc.queue_ns, 0) +
                    std::max<int64_t>(lc.respond_ns, 0);
      run_metrics_.RecordDurationNs("serve.e2e_ns." + lc.op, e2e);
      if (!lc.scenario.empty()) {
        run_metrics_.RecordDurationNs("serve.scenario_e2e_ns." + lc.scenario,
                                      e2e);
      }
    }
    if (lc.outcome == "cached" || lc.outcome == "replayed" ||
        lc.outcome == "coalesced") {
      run_metrics_.RecordDurationNs("serve.handle_hit_ns", lc.handle_ns);
    } else if (lc.outcome == "computed") {
      run_metrics_.RecordDurationNs("serve.handle_miss_ns", lc.handle_ns);
    }
  }

  if (opts_.events == nullptr) return;
  // One wide lifecycle record per request (docs/OBSERVABILITY.md):
  // everything needed to explain where this request's time went, on one
  // greppable line, joinable with the client via trace_id.
  obs::WideEvent event;
  if (!lc.id.empty()) event.Str("id", lc.id);
  if (!lc.op.empty()) event.Str("op", lc.op);
  if (!lc.scenario.empty()) event.Str("scenario", lc.scenario);
  if (!lc.trace_id.empty()) {
    event.Str("trace_id", lc.trace_id);
    event.Int("attempt", lc.attempt);
  }
  event.Str("outcome", lc.outcome);
  if (!lc.code.empty()) event.Str("code", lc.code);
  if (lc.queue_depth >= 0) event.Int("queue_depth", lc.queue_depth);
  if (lc.queue_ns >= 0) event.Int("queue_ns", lc.queue_ns);
  if (lc.compile_ns >= 0) event.Int("compile_ns", lc.compile_ns);
  if (lc.pipeline_ns >= 0) event.Int("pipeline_ns", lc.pipeline_ns);
  if (lc.journal_ns >= 0) event.Int("journal_ns", lc.journal_ns);
  if (lc.handle_ns >= 0) event.Int("handle_ns", lc.handle_ns);
  if (lc.respond_ns >= 0) event.Int("respond_ns", lc.respond_ns);
  opts_.events->Emit("request", event);
}

Result<std::string> Server::Compute(const Request& request,
                                    const CatalogEntry& entry,
                                    TimePoint start, bool* cacheable,
                                    Lifecycle* lc) {
  *cacheable = true;
  if (request.op == "lint") {
    // The fail-soft load already linted the scenario at catalog time;
    // the answer is a view of that verdict (pinning the artifact counts
    // as a cache touch like any other op).
    const TimePoint acquire_start = Clock::now();
    auto artifact = catalog_.Acquire(entry);
    lc->compile_ns = NsSince(acquire_start);
    if (!artifact.ok()) return artifact.status();
    std::string body = EscapedField("scenario", entry.name, true);
    body += ",\"degraded\":";
    body += entry.degraded ? "true" : "false";
    body += ",\"source_strees\":" +
            std::to_string((*artifact)->source.semantics().size());
    body += ",\"target_strees\":" +
            std::to_string((*artifact)->target.semantics().size());
    body += ",\"correspondences\":" +
            std::to_string((*artifact)->correspondences.size());
    body += EscapedField("diagnostics", entry.diagnostics);
    body += "}";
    return body;
  }

  const bool deadlined = request.deadline_ms > 0;
  auto expired = [&] {
    return deadlined && ElapsedMs(start) >= request.deadline_ms;
  };

  // The test hold: park here (responsively to drain-cancel and to the
  // request's own deadline) so tests can saturate the pool and observe
  // shedding/drain without timing luck.
  for (int64_t held = 0; held < opts_.request_hold_ms; held += 5) {
    if (drain_cancel_.load(std::memory_order_relaxed) || expired()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (drain_cancel_.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("cancelled before dispatch");
  }
  if (expired()) {
    return Status::DeadlineExceeded(
        "deadline expired before the pipeline started");
  }

  // Pin the compiled artifact: a hit is free, an evicted scenario
  // recompiles from its retained texts right here. The handle keeps the
  // artifact alive for the whole run even if eviction drops it — and the
  // lifecycle record's compile_ns shows which (an E213 caused by a slow
  // eviction-triggered recompile is visible as a fat compile stage).
  const TimePoint acquire_start = Clock::now();
  auto artifact = catalog_.Acquire(entry);
  lc->compile_ns = NsSince(acquire_start);
  if (!artifact.ok()) return artifact.status();
  const validate::LoadedScenario& scenario = **artifact;

  exec::ResilientPipelineOptions pipeline;
  pipeline.jobs = 1;  // one worker thread = one supervised unit stream
  pipeline.unit_attempts = 2;
  pipeline.breaker_threshold = 3;
  // Thread the REMAINING budget into the pipeline governor: time spent
  // queued or held is gone, and the resilient cascade degrades tiers
  // against what is actually left rather than overrunning the caller.
  pipeline.deadline_ms =
      deadlined ? std::max<int64_t>(request.deadline_ms - ElapsedMs(start), 1)
                : opts_.default_deadline_ms;
  pipeline.cancel = &drain_cancel_;

  DiagnosticSink sink;
  obs::ProvenanceRecorder provenance;
  obs::Metrics metrics;
  exec::RunContext ctx;
  ctx.sink = &sink;
  ctx.metrics = &metrics;
  if (request.op == "explain") ctx.provenance = &provenance;
  if (opts_.events != nullptr) ctx.events = opts_.events;
  // Attribute this run's pipeline events to the request: the pipeline
  // stamps the trace_id onto every unit event it emits.
  ctx.trace_id = request.trace_id;

  const TimePoint pipeline_start = Clock::now();
  auto run = exec::RunResilientPipeline(scenario.source, scenario.target,
                                        scenario.correspondences, pipeline,
                                        ctx);
  lc->pipeline_ns = NsSince(pipeline_start);
  run_metrics_.MergeFrom(metrics);
  if (!run.ok()) return run.status();
  if (run->interrupted) {
    return Status::DeadlineExceeded("cancelled mid-run by drain");
  }
  // A caller-supplied deadline that degraded any table produced a body
  // other deadlines would not see: serve it, but keep it out of the
  // durable result cache.
  if (deadlined && run->report.AnyAtBaselineOrWorse() && !entry.degraded) {
    *cacheable = false;
  }

  if (request.op == "explain") return provenance.ToJson();

  // op == "map": the mapping set, tiers, and the degradation report —
  // timestamp-free on purpose, so identical requests yield identical
  // bytes (the idempotency and restart guarantees depend on it).
  std::string body = EscapedField("scenario", entry.name, true);
  body += ",\"degraded\":";
  body += (run->report.AnyAtBaselineOrWorse() || entry.degraded)
              ? "true"
              : "false";
  body += ",\"mappings\":[";
  bool first = true;
  for (const exec::ResilientMapping& m : run->mappings) {
    if (!first) body += ",";
    first = false;
    body += EscapedField("tier", exec::TierName(m.tier), true);
    body += EscapedField("tgd", m.tgd.ToString());
    if (!m.source_algebra.empty()) {
      body += EscapedField("source", m.source_algebra);
      body += EscapedField("target", m.target_algebra);
    }
    body += "}";
  }
  body += "]";
  body += EscapedField("report", run->report.ToString());
  body += "}";
  return body;
}

std::optional<std::string> Server::LookupResponse(const std::string& id) {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (store_.has_value()) {
    const auto& units = store_->units();
    auto it = units.find("resp:" + id);
    if (it == units.end()) return std::nullopt;
    return it->second;
  }
  auto it = ephemeral_responses_.find(id);
  if (it == ephemeral_responses_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> Server::LookupResult(const std::string& key) {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (store_.has_value()) {
    const auto& meta = store_->meta();
    auto it = meta.find(key);
    if (it == meta.end()) return std::nullopt;
    return it->second;
  }
  auto it = ephemeral_results_.find(key);
  if (it == ephemeral_results_.end()) return std::nullopt;
  return it->second;
}

Status Server::StoreResult(const std::string& key, const std::string& body) {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (store_.has_value()) return store_->PutMeta(key, body);
  ephemeral_results_[key] = body;
  return Status::OK();
}

Status Server::StoreResponse(const std::string& id,
                             const std::string& response) {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (store_.has_value()) return store_->PutUnit("resp:" + id, response);
  ephemeral_responses_[id] = response;
  return Status::OK();
}

std::string Server::StatsBody() const {
  const ArtifactCacheStats cache = catalog_.cache_stats();
  std::string body = "{\"scenarios\":" +
                     std::to_string(catalog_.entries.size());
  body += ",\"accepted\":" +
          std::to_string(accepted_.load(std::memory_order_relaxed));
  body += ",\"served\":" +
          std::to_string(served_.load(std::memory_order_relaxed));
  body += ",\"shed\":" + std::to_string(shed_.load(std::memory_order_relaxed));
  body += ",\"deadline_shed\":" +
          std::to_string(deadline_shed_.load(std::memory_order_relaxed));
  body += ",\"idempotent_hits\":" +
          std::to_string(idempotent_hits_.load(std::memory_order_relaxed));
  body += ",\"cache_hits\":" +
          std::to_string(cache_hits_.load(std::memory_order_relaxed));
  body += ",\"singleflight_leaders\":" +
          std::to_string(singleflight_leaders_.load(std::memory_order_relaxed));
  body += ",\"singleflight_followers\":" +
          std::to_string(
              singleflight_followers_.load(std::memory_order_relaxed));
  body += ",\"artifact_cache_hits\":" + std::to_string(cache.hits);
  body += ",\"artifact_cache_misses\":" + std::to_string(cache.misses);
  body += ",\"artifact_cache_evictions\":" + std::to_string(cache.evictions);
  body += ",\"artifact_cache_compiles\":" + std::to_string(cache.compiles);
  body += ",\"artifact_cache_bytes\":" + std::to_string(cache.bytes);
  body += ",\"artifact_cache_budget_bytes\":" +
          std::to_string(cache.budget_bytes);
  body += ",\"errors\":" +
          std::to_string(errors_.load(std::memory_order_relaxed));
  body += ",\"draining\":";
  body += draining_.load(std::memory_order_relaxed) ? "true" : "false";
  // The live telemetry document: pipeline counters plus the rolling
  // serve.*_ns latency histograms, snapshotted mid-load. semap_top's
  // whole display renders from this one member.
  body += ",\"metrics\":" + MetricsJson();
  body += "}";
  return body;
}

ServerStatsSnapshot Server::stats() const {
  ServerStatsSnapshot snapshot;
  snapshot.accepted = accepted_.load(std::memory_order_relaxed);
  snapshot.served = served_.load(std::memory_order_relaxed);
  snapshot.shed = shed_.load(std::memory_order_relaxed);
  snapshot.deadline_shed = deadline_shed_.load(std::memory_order_relaxed);
  snapshot.idempotent_hits = idempotent_hits_.load(std::memory_order_relaxed);
  snapshot.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  snapshot.singleflight_leaders =
      singleflight_leaders_.load(std::memory_order_relaxed);
  snapshot.singleflight_followers =
      singleflight_followers_.load(std::memory_order_relaxed);
  snapshot.errors = errors_.load(std::memory_order_relaxed);
  snapshot.draining = draining_.load(std::memory_order_relaxed);
  snapshot.scenarios = catalog_.entries.size();
  snapshot.artifact_cache = catalog_.cache_stats();
  return snapshot;
}

std::string Server::MetricsJson() const {
  // run_metrics_ synchronizes internally, so the merge is safe against
  // concurrent worker MergeFrom/RecordDurationNs calls without any
  // server-side lock.
  obs::Metrics merged;
  merged.MergeFrom(run_metrics_);
  // The serve.* counter taxonomy (docs/OBSERVABILITY.md): serve.cache_*
  // is the compiled-artifact cache, serve.result_cache_hits the durable
  // (op, scenario) body cache.
  const ArtifactCacheStats cache = catalog_.cache_stats();
  merged.Add("serve.accepted",
             static_cast<int64_t>(accepted_.load(std::memory_order_relaxed)));
  merged.Add("serve.served",
             static_cast<int64_t>(served_.load(std::memory_order_relaxed)));
  merged.Add("serve.shed",
             static_cast<int64_t>(shed_.load(std::memory_order_relaxed)));
  merged.Add(
      "serve.deadline_shed",
      static_cast<int64_t>(deadline_shed_.load(std::memory_order_relaxed)));
  merged.Add("serve.idempotent_hits",
             static_cast<int64_t>(
                 idempotent_hits_.load(std::memory_order_relaxed)));
  merged.Add(
      "serve.result_cache_hits",
      static_cast<int64_t>(cache_hits_.load(std::memory_order_relaxed)));
  merged.Add("serve.singleflight_leaders",
             static_cast<int64_t>(
                 singleflight_leaders_.load(std::memory_order_relaxed)));
  merged.Add("serve.singleflight_followers",
             static_cast<int64_t>(
                 singleflight_followers_.load(std::memory_order_relaxed)));
  merged.Add("serve.errors",
             static_cast<int64_t>(errors_.load(std::memory_order_relaxed)));
  merged.Add("serve.cache_hits", static_cast<int64_t>(cache.hits));
  merged.Add("serve.cache_misses", static_cast<int64_t>(cache.misses));
  merged.Add("serve.cache_evictions", static_cast<int64_t>(cache.evictions));
  merged.Add("serve.cache_compiles", static_cast<int64_t>(cache.compiles));
  merged.Add("serve.cache_bytes", static_cast<int64_t>(cache.bytes));
  return merged.ToJson();
}

Status Server::WriteMetricsSnapshot() const {
  if (opts_.metrics_path.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(snapshot_write_mu_);
  store::Env* env = opts_.io_env ? opts_.io_env : store::Env::Default();
  // tmp + fsync + rename: a crash mid-write leaves the previous snapshot
  // (or nothing) at metrics_path, never a torn JSON document.
  const std::string tmp_path = opts_.metrics_path + ".tmp";
  auto file = env->OpenTrunc(tmp_path);
  if (!file.ok()) return file.status();
  SEMAP_RETURN_NOT_OK((*file)->Write(MetricsJson() + "\n"));
  SEMAP_RETURN_NOT_OK((*file)->Sync());
  SEMAP_RETURN_NOT_OK((*file)->Close());
  return env->Rename(tmp_path, opts_.metrics_path);
}

}  // namespace semap::serve
