#include "serve/admin.hpp"

#include <poll.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "kernels/config.hpp"
#include "net/socket.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/slo.hpp"
#include "serve/transport.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gea::serve {

using util::ErrorCode;
using util::Status;

namespace {

const char* status_text(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
  }
  return "Internal Server Error";
}

/// Serialize a Response as a full HTTP/1.0 close-after-response message.
std::vector<std::uint8_t> render_http(const AdminServer::Response& r) {
  std::ostringstream os;
  os << "HTTP/1.0 " << r.status << " " << status_text(r.status) << "\r\n"
     << "Content-Type: " << r.content_type << "\r\n"
     << "Content-Length: " << r.body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << r.body;
  const std::string s = os.str();
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// One admin connection: read the request, answer once, flush, close.
struct AConn {
  net::Socket sock;
  std::string req;                  // request bytes until the header end
  std::vector<std::uint8_t> wbuf;   // rendered response
  std::size_t woff = 0;
  bool responded = false;
  bool dead = false;
  util::Stopwatch age;  // connection-scoped deadline clock

  std::size_t pending() const { return wbuf.size() - woff; }
};

}  // namespace

struct AdminServer::Impl {
  AdminServer& self;
  AdminConfig config;
  AdminHooks hooks;
  net::ListenSocket listener;

  std::atomic<bool> started{false};
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> loop_running{false};

  // The admin plane's own telemetry store (admin.*); stats() is a view.
  obs::MetricsRegistry metrics;
  obs::Counter& m_requests = metrics.counter("admin.requests_total");
  obs::Counter& m_accept_failures =
      metrics.counter("admin.accept_failures_total");
  obs::Counter& m_slow_clients = metrics.counter("admin.slow_clients_total");

  util::Stopwatch uptime;
  std::vector<std::unique_ptr<AConn>> conns;
  util::ThreadPool io_pool{1};

  Impl(AdminServer& s, const AdminConfig& cfg, AdminHooks h)
      : self(s), config(cfg), hooks(h) {}

  void close_conn(AConn& conn) {
    if (conn.dead) return;
    conn.dead = true;
    conn.sock.close();
  }

  void accept_ready() {
    while (true) {
      if (config.fault_injection &&
          util::fault(util::faults::kAdminAcceptFail)) {
        // Synthesized transient accept failure: the pending scrape stays in
        // the backlog and the next poll round retries it.
        m_accept_failures.inc();
        break;
      }
      auto res = listener.accept_one();
      if (res.would_block) break;
      if (!res.status.is_ok()) {
        m_accept_failures.inc();
        break;
      }
      auto conn = std::make_unique<AConn>();
      conn->sock = std::move(res.socket);
      conns.push_back(std::move(conn));
    }
  }

  void read_conn(AConn& conn) {
    std::uint8_t chunk[4096];
    while (!conn.responded) {
      auto io = conn.sock.read_some(chunk, sizeof(chunk));
      if (!io.ok() || io.eof) {
        close_conn(conn);
        return;
      }
      if (io.would_block) return;
      conn.req.append(reinterpret_cast<const char*>(chunk), io.bytes);
      if (conn.req.size() > config.max_request_bytes) {
        respond(conn, Response{400, "text/plain; charset=utf-8",
                               "request too large\n"});
        return;
      }
      if (conn.req.find("\r\n\r\n") != std::string::npos ||
          conn.req.find("\n\n") != std::string::npos) {
        dispatch(conn);
        return;
      }
    }
  }

  void dispatch(AConn& conn) {
    // Request line: METHOD SP TARGET [SP VERSION]. Anything unparseable is
    // a 400; the admin plane never guesses.
    std::istringstream line(conn.req.substr(0, conn.req.find('\n')));
    std::string method, target;
    line >> method >> target;
    if (method.empty() || target.empty() || target[0] != '/') {
      respond(conn, Response{400, "text/plain; charset=utf-8",
                             "malformed request line\n"});
      return;
    }
    respond(conn, self.handle(method, target));
  }

  void respond(AConn& conn, const Response& r) {
    if (conn.responded || conn.dead) return;
    conn.responded = true;
    conn.wbuf = render_http(r);
    m_requests.inc();
    conn.age.reset();  // the write deadline starts at response time
  }

  void write_conn(AConn& conn) {
    while (conn.pending() > 0) {
      if (config.fault_injection &&
          util::fault(util::faults::kAdminSlowClient)) {
        // Synthesized stalled scraper: pretend the kernel accepted nothing;
        // the write deadline below disconnects it.
        return;
      }
      auto io = conn.sock.write_some(conn.wbuf.data() + conn.woff,
                                     conn.pending());
      if (io.would_block) return;
      if (io.eof || !io.ok()) {
        close_conn(conn);
        return;
      }
      conn.woff += io.bytes;
    }
    close_conn(conn);  // close-after-response
  }

  void scan_timeouts() {
    for (auto& conn : conns) {
      if (conn->dead) continue;
      const double limit =
          conn->responded ? config.write_timeout_ms : config.read_timeout_ms;
      if (conn->age.elapsed_ms() > limit) {
        m_slow_clients.inc();
        util::log_warn("admin: closing slow client (",
                       conn->responded ? "response stalled" : "request stalled",
                       " after ", conn->age.elapsed_ms(), " ms)");
        close_conn(*conn);
      }
    }
  }

  void loop() {
    loop_running.store(true, std::memory_order_release);
    std::vector<struct pollfd> pfds;
    std::vector<AConn*> pfd_conns;

    while (!stop_requested.load(std::memory_order_acquire)) {
      pfds.clear();
      pfd_conns.clear();
      if (listener.valid()) {
        pfds.push_back({listener.fd(), POLLIN, 0});
        pfd_conns.push_back(nullptr);
      }
      for (auto& conn : conns) {
        if (conn->dead) continue;
        short events = 0;
        if (!conn->responded) events |= POLLIN;
        if (conn->pending() > 0) events |= POLLOUT;
        if (events == 0) continue;
        pfds.push_back({conn->sock.fd(), events, 0});
        pfd_conns.push_back(conn.get());
      }

      int rc;
      do {
        rc = ::poll(pfds.data(), pfds.size(), 50);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) {
        util::log_error("admin: poll failed: ", std::strerror(errno));
        break;
      }

      for (std::size_t i = 0; i < pfds.size(); ++i) {
        if (pfds[i].revents == 0) continue;
        if (pfd_conns[i] == nullptr) {
          accept_ready();
          continue;
        }
        AConn& conn = *pfd_conns[i];
        if (conn.dead) continue;
        if (pfds[i].revents & (POLLERR | POLLNVAL)) {
          close_conn(conn);
          continue;
        }
        if (pfds[i].revents & (POLLIN | POLLHUP)) read_conn(conn);
        if (!conn.dead && conn.pending() > 0) write_conn(conn);
      }
      // Flush responses built this round even when POLLOUT wasn't armed yet.
      for (auto& conn : conns) {
        if (!conn->dead && conn->pending() > 0) write_conn(*conn);
      }
      scan_timeouts();
      std::erase_if(conns,
                    [](const std::unique_ptr<AConn>& c) { return c->dead; });
    }

    for (auto& conn : conns) close_conn(*conn);
    conns.clear();
    listener.close();
    loop_running.store(false, std::memory_order_release);
  }
};

AdminServer::AdminServer(const AdminConfig& config, AdminHooks hooks)
    : impl_(std::make_unique<Impl>(*this, config, hooks)) {}

AdminServer::~AdminServer() { stop(); }

util::Status AdminServer::start() {
  if (impl_->started.exchange(true)) {
    return Status::error(ErrorCode::kFailedPrecondition,
                         "AdminServer already started");
  }
  auto st = impl_->listener.listen(impl_->config.host, impl_->config.port);
  if (!st.is_ok()) {
    impl_->started.store(false);
    return st.with_context("AdminServer::start");
  }
  impl_->io_pool.submit([this] { impl_->loop(); });
  return Status::ok();
}

void AdminServer::stop() {
  impl_->stop_requested.store(true, std::memory_order_release);
  impl_->io_pool.wait_idle();
}

bool AdminServer::running() const {
  return impl_->loop_running.load(std::memory_order_acquire);
}

std::uint16_t AdminServer::port() const { return impl_->listener.port(); }

const AdminConfig& AdminServer::config() const { return impl_->config; }

AdminSnapshot AdminServer::stats() const {
  AdminSnapshot s;
  s.requests = impl_->m_requests.value();
  s.accept_failures = impl_->m_accept_failures.value();
  s.slow_clients = impl_->m_slow_clients.value();
  return s;
}

const obs::MetricsRegistry& AdminServer::metrics() const {
  return impl_->metrics;
}

AdminServer::Response AdminServer::handle(const std::string& method,
                                          const std::string& target) {
  if (method != "GET" && method != "HEAD") {
    return Response{405, "text/plain; charset=utf-8",
                    "only GET is supported\n"};
  }
  const auto qpos = target.find('?');
  const std::string path = target.substr(0, qpos);
  const std::string query =
      qpos == std::string::npos ? std::string() : target.substr(qpos + 1);

  if (path == "/metrics") {
    // The process-wide registry plus each serving component's own one.
    // Their names are disjoint by prefix, so merging is an insert.
    auto snap = obs::MetricsRegistry::global().snapshot();
    snap.merge(impl_->metrics.snapshot());
    if (impl_->hooks.server != nullptr) {
      snap.merge(impl_->hooks.server->metrics().snapshot());
    }
    if (impl_->hooks.transport != nullptr) {
      snap.merge(impl_->hooks.transport->metrics().snapshot());
    }
    return Response{200, "text/plain; version=0.0.4; charset=utf-8",
                    obs::to_prometheus(snap)};
  }
  if (path == "/healthz") {
    return Response{200, "text/plain; charset=utf-8", "ok\n"};
  }
  if (path == "/readyz") {
    // Readiness is the conjunction of every attached subsystem's view:
    // model activated, transport accepting (not draining), SLO healthy.
    std::ostringstream body;
    bool ready = true;
    auto& hooks = impl_->hooks;
    if (hooks.server != nullptr) {
      const bool has_model = hooks.server->registry().active() != nullptr;
      if (!has_model) ready = false;
      body << "model: " << (has_model ? "active" : "none") << " (generation "
           << hooks.server->registry().generation() << ")\n";
      body << "queue: " << hooks.server->queue_depth() << "/"
           << hooks.server->config().queue_capacity << "\n";
    }
    if (hooks.transport != nullptr) {
      if (hooks.transport->draining()) {
        ready = false;
        body << "transport: draining\n";
      } else if (!hooks.transport->running()) {
        ready = false;
        body << "transport: stopped\n";
      } else {
        body << "transport: accepting (port " << hooks.transport->port()
             << ")\n";
      }
    }
    if (hooks.slo != nullptr) {
      const SloSnapshot slo = hooks.slo->snapshot();
      if (slo.degraded) ready = false;
      body << "slo: " << (slo.degraded ? "degraded" : "healthy")
           << " (burn_rate " << slo.burn_rate << ", p99 " << slo.p99_ms
           << " ms, " << slo.errors << "/" << slo.requests
           << " errors in window, " << slo.breaches << " breaches)\n";
    }
    body << (ready ? "ready\n" : "not ready\n");
    return Response{ready ? 200 : 503, "text/plain; charset=utf-8",
                    body.str()};
  }
  if (path == "/tracez") {
    if (query == "format=json") {
      return Response{200, "application/json",
                      obs::chrome_trace_json(obs::TraceRecorder::global())};
    }
    // ?limit=N widens the view up to everything still in the ring (a scrape
    // joining exemplar ids against /tracez wants more than the default).
    std::size_t limit = impl_->config.tracez_limit;
    if (const std::string key = "limit="; query.rfind(key, 0) == 0) {
      const long parsed = std::atol(query.c_str() + key.size());
      if (parsed > 0) limit = static_cast<std::size_t>(parsed);
    }
    return Response{200, "text/plain; charset=utf-8",
                    obs::tracez_text(obs::TraceRecorder::global(), limit)};
  }
  if (path == "/statusz") {
    std::ostringstream body;
    body << "gea detection server admin plane\n";
#if defined(__VERSION__)
    body << "compiler: " << __VERSION__ << "\n";
#endif
    body << "uptime_s: " << impl_->uptime.elapsed_ms() / 1000.0 << "\n";
    body << "kernels: " << kernels::active_config_summary() << "\n";
    auto& hooks = impl_->hooks;
    if (hooks.server != nullptr) {
      const auto stats = hooks.server->stats();
      body << "serve: " << stats.completed << " completed, "
           << stats.queue_depth << " queued, " << stats.batches
           << " batches\n";
    }
    if (hooks.transport != nullptr) {
      const auto t = hooks.transport->stats();
      body << "transport: " << t.requests << " requests, "
           << t.active_connections << " active connections, " << t.quarantined
           << " quarantined, " << t.shed << " shed\n";
    }
    const auto& rec = obs::TraceRecorder::global();
    body << "trace_ring: " << rec.events().size() << "/" << rec.capacity()
         << " spans, " << rec.dropped() << " dropped\n";
    return Response{200, "text/plain; charset=utf-8", body.str()};
  }
  return Response{404, "text/plain; charset=utf-8",
                  "unknown endpoint " + path +
                      " (try /metrics /healthz /readyz /tracez /statusz)\n"};
}

}  // namespace gea::serve
