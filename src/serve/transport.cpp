#include "serve/transport.hpp"

#include <poll.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <thread>
#include <utility>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/slo.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gea::serve {

using util::ErrorCode;
using util::Status;

// --- Payload codecs --------------------------------------------------------

std::vector<std::uint8_t> encode_detect_request_payload(
    const std::vector<double>& features) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + features.size() * 8);
  net::wire::Writer w(out);
  w.put_f64_vector(features);
  return out;
}

std::vector<std::uint8_t> encode_detect_request_payload(
    const std::vector<double>& features, std::uint64_t schema_digest) {
  std::vector<std::uint8_t> out;
  out.reserve(16 + 4 + features.size() * 8);
  net::wire::Writer w(out);
  w.put_u32(kDetectPayloadSentinel);
  w.put_u32(kDetectPayloadVersion);
  w.put_u64(schema_digest);
  w.put_f64_vector(features);
  return out;
}

namespace {

/// Peek the leading u32 of a payload: the v2 sentinel, or a v1 first field
/// (a feature count / an error code — both far below the sentinel).
bool has_v2_sentinel(std::span<const std::uint8_t> payload) {
  if (payload.size() < 4) return false;
  net::wire::Reader r(payload.first(4));
  return r.get_u32() == kDetectPayloadSentinel;
}

}  // namespace

util::Result<DetectRequestPayload> decode_detect_request_payload(
    std::span<const std::uint8_t> payload) {
  DetectRequestPayload out;
  net::wire::Reader r(payload);
  if (has_v2_sentinel(payload)) {
    r.get_u32();  // sentinel
    out.version = r.get_u32();
    if (!r.ok()) return r.parse_error("detect request payload");
    if (out.version != kDetectPayloadVersion) {
      return Status::error(ErrorCode::kParseError,
                           "detect request payload version " +
                               std::to_string(out.version) + " unsupported");
    }
    out.schema_digest = r.get_u64();
  }
  out.features = r.get_f64_vector();
  if (!r.ok()) return r.parse_error("detect request payload");
  if (r.remaining() != 0) {
    return Status::error(ErrorCode::kParseError,
                         "trailing bytes after detect request payload");
  }
  return out;
}

std::vector<std::uint8_t> encode_detect_response_payload(
    const util::Result<Verdict>& result, std::uint32_t payload_version) {
  std::vector<std::uint8_t> out;
  net::wire::Writer w(out);
  if (payload_version >= 2) {
    w.put_u32(kDetectPayloadSentinel);
    w.put_u32(kDetectPayloadVersion);
  }
  if (!result.is_ok()) {
    w.put_u32(static_cast<std::uint32_t>(result.status().code()));
    w.put_string(result.status().to_string());
    return out;
  }
  const Verdict& v = result.value();
  w.put_u32(0);  // ErrorCode::kOk
  w.put_u32(static_cast<std::uint32_t>(v.predicted));
  w.put_u32(static_cast<std::uint32_t>(v.batch_size));
  w.put_string(v.model_version);
  w.put_f64_vector(v.logits);
  w.put_f64_vector(v.probabilities);
  w.put_f64(v.queue_ms);
  w.put_f64(v.infer_ms);
  w.put_f64(v.total_ms);
  if (payload_version >= 2) {
    w.put_string(v.class_name);
    w.put_u64(v.schema_digest);
  }
  return out;
}

util::Result<Verdict> decode_detect_response_payload(
    std::span<const std::uint8_t> payload) {
  net::wire::Reader r(payload);
  std::uint32_t version = 1;
  if (has_v2_sentinel(payload)) {
    r.get_u32();  // sentinel
    version = r.get_u32();
    if (!r.ok()) return r.parse_error("detect response payload");
    if (version != kDetectPayloadVersion) {
      return Status::error(ErrorCode::kParseError,
                           "detect response payload version " +
                               std::to_string(version) + " unsupported");
    }
  }
  const std::uint32_t code = r.get_u32();
  if (!r.ok()) return r.parse_error("detect response payload");
  if (code != 0) {
    if (code > static_cast<std::uint32_t>(ErrorCode::kDeadlineExceeded)) {
      return Status::error(ErrorCode::kParseError,
                           "detect response carries unknown error code " +
                               std::to_string(code));
    }
    const std::string message = r.get_string();
    if (!r.ok()) return r.parse_error("detect response payload");
    return Status::error(static_cast<ErrorCode>(code), message);
  }
  Verdict v;
  v.predicted = r.get_u32();
  v.batch_size = r.get_u32();
  v.model_version = r.get_string();
  v.logits = r.get_f64_vector();
  v.probabilities = r.get_f64_vector();
  v.queue_ms = r.get_f64();
  v.infer_ms = r.get_f64();
  v.total_ms = r.get_f64();
  if (version >= 2) {
    v.class_name = r.get_string();
    v.schema_digest = r.get_u64();
  }
  if (!r.ok() || r.remaining() != 0) {
    return r.parse_error("detect response payload");
  }
  return v;
}

// --- TransportServer -------------------------------------------------------

namespace {

/// Per-connection state owned by the event loop thread.
struct Conn {
  net::Socket sock;
  std::vector<std::uint8_t> rbuf;  // received, not yet decoded
  std::vector<std::uint8_t> wbuf;  // encoded, not yet flushed
  std::size_t woff = 0;            // flushed prefix of wbuf

  struct Pending {
    std::uint64_t id = 0;
    std::future<util::Result<Verdict>> fut;
    util::Stopwatch since;  // request receipt -> response enqueued
    obs::TraceContext ctx;  // decoded from the frame header; invalid = none
    std::uint32_t payload_version = 1;  // echoed into the response payload
    std::uint64_t schema_digest = 0;    // client's pin; 0 = none
  };
  std::deque<Pending> inflight;

  util::Stopwatch idle;     // reset whenever bytes move either way
  util::Stopwatch partial;  // reset when an incomplete frame starts
  bool has_partial = false;
  bool close_after_flush = false;
  bool dead = false;

  std::size_t wbuf_pending() const { return wbuf.size() - woff; }
};

}  // namespace

struct TransportServer::Impl {
  DetectionServer& server;
  TransportConfig config;
  net::ListenSocket listener;

  std::atomic<bool> started{false};
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> loop_running{false};
  std::atomic<bool> drain_active{false};

  // This transport's only telemetry store (net.*); stats() is a view over
  // it and the admin plane's /metrics exports it.
  obs::MetricsRegistry metrics;
  obs::Counter& m_accepted = metrics.counter("net.connections_accepted_total");
  obs::Counter& m_closed = metrics.counter("net.connections_closed_total");
  obs::Counter& m_accept_failures =
      metrics.counter("net.accept_failures_total");
  obs::Counter& m_frames_read = metrics.counter("net.frames_read_total");
  obs::Counter& m_frames_written = metrics.counter("net.frames_written_total");
  obs::Counter& m_bytes_read = metrics.counter("net.bytes_read_total");
  obs::Counter& m_bytes_written = metrics.counter("net.bytes_written_total");
  obs::Counter& m_quarantined =
      metrics.counter("net.frames_quarantined_total");
  obs::Counter& m_shed = metrics.counter("net.requests_shed_total");
  obs::Counter& m_idle_timeouts = metrics.counter("net.idle_timeouts_total");
  obs::Counter& m_read_timeouts = metrics.counter("net.read_timeouts_total");
  obs::Counter& m_requests = metrics.counter("net.requests_total");
  obs::Counter& m_responses_ok = metrics.counter("net.responses_ok_total");
  obs::Counter& m_responses_error =
      metrics.counter("net.responses_error_total");
  obs::Gauge& m_active = metrics.gauge("net.active_connections");
  obs::Histogram& m_request_ms = metrics.histogram("net.request_ms");

  std::vector<std::unique_ptr<Conn>> conns;

  // The event loop runs as the single task of a dedicated util::ThreadPool,
  // so transport shutdown reuses the pool's drain-then-join discipline.
  util::ThreadPool io_pool{1};

  Impl(DetectionServer& s, const TransportConfig& cfg)
      : server(s), config(cfg) {}

  void close_conn(Conn& conn) {
    if (conn.dead) return;
    conn.dead = true;
    conn.sock.close();
    m_closed.inc();
  }

  /// Append an encoded frame to the connection's write buffer, enforcing
  /// the hard 2x cap: a peer that is not draining responses is closed
  /// rather than buffered for.
  void enqueue_frame(Conn& conn, const net::Frame& frame) {
    const auto bytes = net::encode_frame(frame, config.fault_injection);
    conn.wbuf.insert(conn.wbuf.end(), bytes.begin(), bytes.end());
    m_frames_written.inc();
    if (conn.wbuf_pending() > 2 * config.write_buffer_limit) {
      util::log_warn("net: closing connection over hard write-buffer cap (",
                     conn.wbuf_pending(), " bytes pending)");
      close_conn(conn);
    }
  }

  void respond(Conn& conn, std::uint64_t id,
               const util::Result<Verdict>& result,
               std::uint32_t payload_version = 1) {
    net::Frame f;
    f.type = net::FrameType::kDetectResponse;
    f.request_id = id;
    f.payload = encode_detect_response_payload(result, payload_version);
    enqueue_frame(conn, f);
    if (result.is_ok()) {
      m_responses_ok.inc();
    } else {
      m_responses_error.inc();
    }
  }

  void respond_error(Conn& conn, std::uint64_t id, Status status) {
    respond(conn, id,
            util::Result<Verdict>(
                std::move(status.with_context("TransportServer"))));
  }

  void shed(Conn& conn, std::uint64_t id, const char* why) {
    m_shed.inc();
    // A shed request never reached the queue; it still consumed error
    // budget from the client's point of view.
    if (config.slo != nullptr) config.slo->record(0.0, /*ok=*/false);
    respond_error(conn, id, Status::error(ErrorCode::kUnavailable, why));
  }

  /// A malformed frame: count it, then either answer-and-continue
  /// (lenient + recoverable) or close the connection (strict, or the
  /// stream cannot be resynchronized).
  void quarantine(Conn& conn, std::uint64_t id, const Status& status,
                  bool recoverable) {
    m_quarantined.inc();
    if (config.slo != nullptr) config.slo->record(0.0, /*ok=*/false);
    util::log_warn("net: quarantined frame: ", status.to_string());
    if (!recoverable || config.strict) {
      close_conn(conn);
      return;
    }
    respond_error(conn, id, status);
  }

  void dispatch_frame(Conn& conn, net::Frame&& frame) {
    if (frame.type != net::FrameType::kDetectRequest) {
      quarantine(conn, frame.request_id,
                 Status::error(ErrorCode::kInvalidArgument,
                               std::string("unexpected frame type ") +
                                   net::frame_type_name(frame.type)),
                 /*recoverable=*/true);
      return;
    }
    m_requests.inc();

    // Per-connection admission control, layered in front of the queue's
    // global admission control: shed instead of buffering unboundedly.
    if (conn.inflight.size() >= config.max_inflight_per_conn) {
      shed(conn, frame.request_id, "connection in-flight limit reached");
      return;
    }
    if (conn.wbuf_pending() > config.write_buffer_limit) {
      shed(conn, frame.request_id, "connection write buffer full");
      return;
    }

    auto request = decode_detect_request_payload(frame.payload);
    if (!request.is_ok()) {
      respond_error(conn, frame.request_id,
                    Status(request.status()).with_context("detect request"));
      return;
    }

    // 0 budget on the wire = no deadline from the client; inherit the
    // server's default (-1) rather than forcing "none".
    const double deadline_ms =
        frame.deadline_budget_us > 0
            ? static_cast<double>(frame.deadline_budget_us) / 1000.0
            : -1.0;
    Conn::Pending p;
    p.id = frame.request_id;
    p.ctx = frame.trace;
    p.payload_version = request.value().version;
    p.schema_digest = request.value().schema_digest;
    // The decoded trace context flows into the queue with the request, so
    // the batch worker's queue-wait/inference spans land under the same
    // trace as the client's send span.
    p.fut = server.submit(std::move(request.value().features), deadline_ms,
                          frame.trace);
    conn.inflight.push_back(std::move(p));
  }

  /// Drain readable bytes, then decode as many frames as arrived.
  void read_conn(Conn& conn) {
    std::uint8_t chunk[16 * 1024];
    std::size_t round = 0;
    while (round < 256 * 1024) {  // fairness cap per poll round
      auto io = conn.sock.read_some(chunk, sizeof(chunk));
      if (!io.ok()) {
        util::log_warn("net: read error: ", io.status.to_string());
        close_conn(conn);
        return;
      }
      if (io.eof) {
        close_conn(conn);
        return;
      }
      if (io.would_block) break;
      conn.rbuf.insert(conn.rbuf.end(), chunk, chunk + io.bytes);
      round += io.bytes;
      m_bytes_read.inc(io.bytes);
      conn.idle.reset();
      if (io.bytes < sizeof(chunk)) break;  // likely drained
    }

    std::size_t off = 0;
    while (!conn.dead) {
      auto res = net::decode_frame(
          std::span<const std::uint8_t>(conn.rbuf.data() + off,
                                        conn.rbuf.size() - off),
          config.max_payload_bytes, config.fault_injection);
      if (res.kind == net::DecodeResult::Kind::kNeedMore) break;
      off += res.consumed;
      if (res.kind == net::DecodeResult::Kind::kError) {
        quarantine(conn, res.frame.request_id, res.status, res.recoverable);
        if (conn.dead) break;
        continue;
      }
      m_frames_read.inc();
      dispatch_frame(conn, std::move(res.frame));
    }
    if (off > 0) conn.rbuf.erase(conn.rbuf.begin(), conn.rbuf.begin() + off);

    // Track how long an incomplete frame has been dribbling in (slow loris).
    if (conn.rbuf.empty()) {
      conn.has_partial = false;
    } else if (!conn.has_partial) {
      conn.has_partial = true;
      conn.partial.reset();
    }
  }

  /// Move completed verdicts from the in-flight set into the write buffer.
  void pump_completions(Conn& conn) {
    for (auto it = conn.inflight.begin();
         it != conn.inflight.end() && !conn.dead;) {
      if (it->fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      auto result = it->fut.get();
      if (result.is_ok() && it->schema_digest != 0 &&
          result.value().schema_digest != it->schema_digest) {
        // The client pinned a schema and the serving checkpoint moved on
        // (or never matched): refuse rather than let the caller misread
        // class ids that mean something else now.
        result = util::Result<Verdict>(Status::error(
            ErrorCode::kFailedPrecondition,
            "schema digest mismatch: request pinned " +
                std::to_string(it->schema_digest) + ", serving " +
                std::to_string(result.value().schema_digest)));
      }
      const double ms = it->since.elapsed_ms();
      m_request_ms.observe(ms, it->ctx.trace_id);
      if (it->ctx.valid()) {
        // Server-side wall time for the request (receipt -> response
        // enqueued), parented under the client's send span.
        auto& rec = obs::TraceRecorder::global();
        rec.record_interval("net.server_request", it->ctx,
                            rec.now_us() - ms * 1000.0, ms * 1000.0);
      }
      if (config.slo != nullptr) config.slo->record(ms, result.is_ok());
      respond(conn, it->id, result, it->payload_version);
      it = conn.inflight.erase(it);
    }
  }

  void write_conn(Conn& conn) {
    while (conn.wbuf_pending() > 0) {
      auto io = conn.sock.write_some(conn.wbuf.data() + conn.woff,
                                     conn.wbuf_pending());
      if (io.would_block) break;
      if (io.eof || !io.ok()) {
        close_conn(conn);
        return;
      }
      conn.woff += io.bytes;
      m_bytes_written.inc(io.bytes);
      conn.idle.reset();
    }
    if (conn.wbuf_pending() == 0 && !conn.wbuf.empty()) {
      // Frame accounting on flush completion: pending/2 would be a guess,
      // so count frames when the buffer fully drains instead of per write.
      conn.wbuf.clear();
      conn.woff = 0;
      if (conn.close_after_flush) close_conn(conn);
    } else if (conn.woff > 64 * 1024) {
      conn.wbuf.erase(conn.wbuf.begin(), conn.wbuf.begin() + conn.woff);
      conn.woff = 0;
    }
  }

  void accept_ready() {
    while (true) {
      auto res = listener.accept_one();
      if (res.would_block) break;
      if (!res.status.is_ok()) {
        m_accept_failures.inc();
        break;  // retry on the next poll round
      }
      if (conns.size() >= config.max_connections) {
        // Admission control for connection storms: accept to drain the
        // backlog, then close immediately — counted, bounded, no hang.
        m_shed.inc();
        continue;  // res.socket closes on scope exit
      }
      auto conn = std::make_unique<Conn>();
      conn->sock = std::move(res.socket);
      conns.push_back(std::move(conn));
      m_accepted.inc();
    }
  }

  void scan_timeouts() {
    for (auto& conn : conns) {
      if (conn->dead) continue;
      if (conn->has_partial &&
          conn->partial.elapsed_ms() > config.read_timeout_ms) {
        m_read_timeouts.inc();
        util::log_warn("net: closing slow-loris connection (partial frame ",
                       conn->partial.elapsed_ms(), " ms old)");
        close_conn(*conn);
        continue;
      }
      if (conn->inflight.empty() &&
          conn->idle.elapsed_ms() > config.idle_timeout_ms) {
        m_idle_timeouts.inc();
        close_conn(*conn);
      }
    }
  }

  void reap_dead() {
    std::erase_if(conns, [](const std::unique_ptr<Conn>& conn) {
      return conn->dead;
    });
    m_active.set(static_cast<double>(conns.size()));
  }

  void loop() {
    loop_running.store(true, std::memory_order_release);
    bool draining = false;
    util::Stopwatch drain_sw;
    std::vector<struct pollfd> pfds;
    std::vector<Conn*> pfd_conns;

    while (true) {
      if (!draining && stop_requested.load(std::memory_order_acquire)) {
        // Graceful drain: stop accepting first; in-flight requests finish
        // and flush below, then connections close.
        draining = true;
        drain_active.store(true, std::memory_order_release);
        drain_sw.reset();
        listener.close();
      }
      if (draining) {
        bool busy = false;
        for (auto& conn : conns) {
          if (!conn->dead &&
              (!conn->inflight.empty() || conn->wbuf_pending() > 0)) {
            busy = true;
            break;
          }
        }
        if (!busy || drain_sw.elapsed_ms() > config.drain_timeout_ms) break;
      }

      pfds.clear();
      pfd_conns.clear();
      if (!draining && listener.valid()) {
        pfds.push_back({listener.fd(), POLLIN, 0});
        pfd_conns.push_back(nullptr);
      }
      bool any_inflight = false;
      for (auto& conn : conns) {
        if (conn->dead) continue;
        short events = 0;
        // During drain no new requests are read; only responses flush out.
        if (!draining) events |= POLLIN;
        if (conn->wbuf_pending() > 0) events |= POLLOUT;
        if (!conn->inflight.empty()) any_inflight = true;
        if (events == 0 && conn->inflight.empty()) continue;
        if (events == 0) continue;  // in-flight only: completions pump below
        pfds.push_back({conn->sock.fd(), events, 0});
        pfd_conns.push_back(conn.get());
      }

      // In-flight verdicts are detected by polling their futures, so the
      // poll timeout doubles as the completion latency bound: tight while
      // work is outstanding, relaxed when the loop is only watching fds.
      const int timeout_ms = any_inflight || draining ? 1 : 20;
      int rc;
      do {
        rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) {
        util::log_error("net: poll failed: ", std::strerror(errno));
        break;
      }

      for (std::size_t i = 0; i < pfds.size(); ++i) {
        if (pfds[i].revents == 0) continue;
        if (pfd_conns[i] == nullptr) {
          accept_ready();
          continue;
        }
        Conn& conn = *pfd_conns[i];
        if (conn.dead) continue;
        if (pfds[i].revents & (POLLERR | POLLNVAL)) {
          close_conn(conn);
          continue;
        }
        if (pfds[i].revents & (POLLIN | POLLHUP)) read_conn(conn);
      }

      for (auto& conn : conns) {
        if (conn->dead) continue;
        pump_completions(*conn);
        if (!conn->dead && conn->wbuf_pending() > 0) write_conn(*conn);
      }
      if (!draining) scan_timeouts();
      reap_dead();
    }

    for (auto& conn : conns) close_conn(*conn);
    reap_dead();
    listener.close();
    loop_running.store(false, std::memory_order_release);
  }

  TransportSnapshot snapshot() const {
    TransportSnapshot s;
    s.accepted = m_accepted.value();
    s.closed = m_closed.value();
    s.accept_failures = m_accept_failures.value();
    s.frames_read = m_frames_read.value();
    s.frames_written = m_frames_written.value();
    s.bytes_read = m_bytes_read.value();
    s.bytes_written = m_bytes_written.value();
    s.quarantined = m_quarantined.value();
    s.shed = m_shed.value();
    s.idle_timeouts = m_idle_timeouts.value();
    s.read_timeouts = m_read_timeouts.value();
    s.requests = m_requests.value();
    s.responses_ok = m_responses_ok.value();
    s.responses_error = m_responses_error.value();
    s.active_connections = static_cast<std::size_t>(m_active.value());
    return s;
  }
};

TransportServer::TransportServer(DetectionServer& server,
                                 const TransportConfig& config)
    : impl_(std::make_unique<Impl>(server, config)) {}

TransportServer::~TransportServer() { stop(); }

util::Status TransportServer::start() {
  if (impl_->started.exchange(true)) {
    return Status::error(ErrorCode::kFailedPrecondition,
                         "TransportServer already started");
  }
  auto st = impl_->listener.listen(impl_->config.host, impl_->config.port);
  if (!st.is_ok()) {
    impl_->started.store(false);
    return st.with_context("TransportServer::start");
  }
  impl_->listener.set_fault_injection(impl_->config.fault_injection);
  impl_->io_pool.submit([this] { impl_->loop(); });
  return Status::ok();
}

void TransportServer::stop() {
  impl_->stop_requested.store(true, std::memory_order_release);
  impl_->io_pool.wait_idle();
}

bool TransportServer::running() const {
  return impl_->loop_running.load(std::memory_order_acquire);
}

bool TransportServer::draining() const {
  return impl_->drain_active.load(std::memory_order_acquire) &&
         impl_->loop_running.load(std::memory_order_acquire);
}

std::uint16_t TransportServer::port() const { return impl_->listener.port(); }

const TransportConfig& TransportServer::config() const {
  return impl_->config;
}

TransportSnapshot TransportServer::stats() const { return impl_->snapshot(); }

const obs::MetricsRegistry& TransportServer::metrics() const {
  return impl_->metrics;
}

// --- RemoteClient ----------------------------------------------------------

RemoteClient::RemoteClient(const ClientConfig& config)
    : config_(config), jitter_(config.jitter_seed) {}

RemoteClient::~RemoteClient() = default;

void RemoteClient::disconnect() {
  sock_.close();
  rbuf_.clear();
}

util::Status RemoteClient::ensure_connected(double budget_ms) {
  if (sock_.valid()) return Status::ok();
  const int timeout =
      static_cast<int>(std::ceil(std::max(budget_ms, 1.0)));
  auto sock = net::connect_to(config_.host, config_.port, timeout);
  if (!sock.is_ok()) {
    return Status(sock.status()).with_context("RemoteClient::connect");
  }
  sock_ = std::move(sock).value();
  rbuf_.clear();
  if (stats_.attempts > 0) {
    ++stats_.reconnects;
  }
  return Status::ok();
}

RemoteClient::Attempt RemoteClient::attempt_once(
    const std::vector<double>& features, std::uint64_t request_id,
    double budget_ms, bool has_deadline, const obs::TraceContext& ctx) {
  ++stats_.attempts;

  // One send span per wire attempt (retries each get their own), parented
  // under the request's root span. Its context rides the frame header, so
  // every server-side span for this attempt nests under it.
  obs::TraceSpan send_span("client.send", ctx);

  const auto transport_fail = [this](Status st) {
    disconnect();
    ++stats_.transport_errors;
    return Attempt(util::Result<Verdict>(
                       std::move(st.with_context("RemoteClient"))),
                   /*transport=*/true);
  };

  net::Frame f;
  f.type = net::FrameType::kDetectRequest;
  f.request_id = request_id;
  // The remaining deadline budget rides the header, so the server's queue
  // deadline is exactly what the client has left — not what it started with.
  f.deadline_budget_us = has_deadline
                             ? static_cast<std::uint64_t>(budget_ms * 1000.0)
                             : 0;
  f.trace = ctx.valid() ? send_span.context() : obs::TraceContext{};
  f.payload = config_.payload_version >= 2
                  ? encode_detect_request_payload(features,
                                                  config_.schema_digest)
                  : encode_detect_request_payload(features);
  const auto bytes = net::encode_frame(f, /*inject_fault=*/false);

  util::Stopwatch sw;
  const auto remaining = [&] { return budget_ms - sw.elapsed_ms(); };

  std::size_t off = 0;
  while (off < bytes.size()) {
    if (remaining() <= 0.0) {
      return transport_fail(Status::error(ErrorCode::kDeadlineExceeded,
                                          "send timed out"));
    }
    auto io = sock_.write_some(bytes.data() + off, bytes.size() - off);
    if (!io.ok()) return transport_fail(std::move(io.status));
    if (io.eof) {
      return transport_fail(
          Status::error(ErrorCode::kUnavailable, "connection reset by peer"));
    }
    off += io.bytes;
    if (io.would_block) {
      auto ev = sock_.poll_one(
          POLLOUT, static_cast<int>(std::ceil(std::max(remaining(), 1.0))));
      if (!ev.is_ok()) return transport_fail(Status(ev.status()));
    }
  }

  while (true) {
    // Decode whatever is buffered before waiting for more bytes.
    std::size_t consumed = 0;
    while (true) {
      auto res = net::decode_frame(
          std::span<const std::uint8_t>(rbuf_.data() + consumed,
                                        rbuf_.size() - consumed),
          net::kMaxPayloadBytes, /*inject_fault=*/false);
      if (res.kind == net::DecodeResult::Kind::kNeedMore) break;
      consumed += res.consumed;
      if (res.kind == net::DecodeResult::Kind::kError) {
        // Any malformed response frame means the stream cannot be trusted;
        // drop the connection and let the retry layer rebuild it.
        rbuf_.clear();
        return transport_fail(
            Status(res.status).with_context("response frame"));
      }
      if (res.frame.type != net::FrameType::kDetectResponse ||
          res.frame.request_id != request_id) {
        continue;  // stale response from an abandoned attempt; skip it
      }
      rbuf_.erase(rbuf_.begin(), rbuf_.begin() + consumed);
      auto verdict = decode_detect_response_payload(res.frame.payload);
      if (!verdict.is_ok() &&
          verdict.status().code() == ErrorCode::kParseError) {
        return transport_fail(Status(verdict.status()));
      }
      return Attempt(std::move(verdict), /*transport=*/false);
    }
    if (consumed > 0) rbuf_.erase(rbuf_.begin(), rbuf_.begin() + consumed);

    if (remaining() <= 0.0) {
      return transport_fail(Status::error(ErrorCode::kDeadlineExceeded,
                                          "response timed out"));
    }
    auto ev = sock_.poll_one(
        POLLIN, static_cast<int>(std::ceil(std::max(remaining(), 1.0))));
    if (!ev.is_ok()) return transport_fail(Status(ev.status()));
    if (ev.value() == 0) continue;  // timeout slice; remaining() re-checks
    std::uint8_t chunk[16 * 1024];
    auto io = sock_.read_some(chunk, sizeof(chunk));
    if (!io.ok()) return transport_fail(std::move(io.status));
    if (io.eof) {
      return transport_fail(Status::error(ErrorCode::kUnavailable,
                                          "connection closed by server"));
    }
    if (!io.would_block) {
      rbuf_.insert(rbuf_.end(), chunk, chunk + io.bytes);
    }
  }
}

util::Result<Verdict> RemoteClient::detect(const std::vector<double>& features,
                                           double deadline_ms) {
  ++stats_.requests;
  const bool has_deadline = deadline_ms > 0.0;
  util::Stopwatch overall;
  Status last = Status::error(ErrorCode::kUnavailable, "no attempt made");

  // Sampling decision for this request: every trace_sample_every-th call
  // roots a distributed trace that the send spans (and, over the wire, the
  // server spans) parent under.
  const bool traced =
      config_.trace_sample_every > 0 &&
      (stats_.requests - 1) % config_.trace_sample_every == 0;
  std::optional<obs::TraceSpan> root;
  obs::TraceContext root_ctx;
  if (traced) {
    root.emplace("client.detect", obs::start_trace(/*sampled=*/true));
    root_ctx = root->context();
  }
  stats_.last_trace_id = root_ctx.trace_id;

  for (std::size_t attempt = 0;; ++attempt) {
    double budget = has_deadline ? deadline_ms - overall.elapsed_ms()
                                 : config_.request_timeout_ms;
    if (has_deadline && budget <= 0.0) {
      return Status::error(ErrorCode::kDeadlineExceeded,
                           "deadline exhausted after " +
                               std::to_string(attempt) + " attempts; last: " +
                               last.to_string())
          .with_context("RemoteClient::detect");
    }

    Attempt a = [&] {
      auto st = ensure_connected(std::min(budget, config_.connect_timeout_ms));
      if (!st.is_ok()) {
        ++stats_.attempts;
        ++stats_.transport_errors;
        return Attempt(util::Result<Verdict>(std::move(st)),
                       /*transport=*/true);
      }
      // A fresh id per attempt: a late response to an abandoned attempt can
      // then never be mistaken for the current one.
      return attempt_once(features, next_id_++, budget, has_deadline,
                          root_ctx);
    }();

    if (a.result.is_ok()) return a.result;
    const ErrorCode code = a.result.status().code();
    // Retriable: everything transport-level, the server's transient
    // refusals (kUnavailable: queue full / no model / shed), and
    // kCorruptData (the request was damaged in flight — resend it).
    const bool retriable = a.transport || code == ErrorCode::kUnavailable ||
                           code == ErrorCode::kCorruptData;
    if (!retriable) return a.result;
    last = a.result.status();

    if (attempt >= config_.max_retries) {
      return Status(last).with_context("RemoteClient::detect: retries exhausted");
    }
    double backoff =
        std::min(config_.backoff_initial_ms *
                     std::pow(config_.backoff_multiplier,
                              static_cast<double>(attempt)),
                 config_.backoff_max_ms);
    backoff *= 1.0 + config_.backoff_jitter * (2.0 * jitter_.uniform() - 1.0);
    if (has_deadline) {
      const double rem = deadline_ms - overall.elapsed_ms();
      // Too little budget left to fund the backoff plus a useful attempt.
      if (rem <= backoff + 1.0) {
        return Status::error(ErrorCode::kDeadlineExceeded,
                             "deadline cannot fund another retry; last: " +
                                 last.to_string())
            .with_context("RemoteClient::detect");
      }
    }
    {
      // The backoff gap shows up in the trace as its own span, so a slow
      // traced request is attributable to retries rather than the server.
      obs::TraceSpan backoff_span("client.backoff", root_ctx);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff));
    }
    ++stats_.retries;
  }
}

}  // namespace gea::serve
