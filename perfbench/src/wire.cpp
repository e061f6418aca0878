// wire_features: open loop over loopback TCP.
//
// Why: the only workload where net, the transport, the queue and batching do
// the work while featurization does none (rows carry precomputed features
// from real bingen CFGs). A scraper thread GETs /metrics and /statusz once a
// second, so the telemetry store is read while workers write it.
//
// Phases of the untraced run, after a warm-up:
//   saturate  each connection keeps a fixed window of requests in flight:
//             throughput_ops and cpu_us_per_op over the whole phase
//   operate   one fixed rate, 1500 req/s: latency_p50/p99 over every
//             request of the phase, each timed from when it was due
//   ladder    fixed rates searched by bisection for the highest one that
//             keeps p99 within the limit, fails nothing and grows no
//             backlog in two of three attempts: slo_rps
#include <poll.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gea;

namespace {

// Fixed once: the rate ladder (110 rungs, 500 to ~100000 req/s, 5% apart, so
// a run bisects it in 7 rungs and a faster server still has rungs above it;
// the seed's server passed ~16000 on a quiet host), the operating point and the saturating
// phase's size, which also fixes how much latency history the server holds
// when the operating point starts.
const std::vector<double> kLadder = geometric_ladder(500.0, 1.05, 110);
constexpr double kRungWindowS = 0.6;
constexpr int kRungAttempts = 3;
// Every open-loop phase keeps at most this many requests in flight per
// connection, under the transport's 64: a stall (a stats scrape on a busy
// host) then delays requests, which their latency from due time shows,
// instead of having the transport shed them.
constexpr std::size_t kInflightCap = 56;

/// A rung is abandoned once a connection holds more due-but-unsent requests
/// than a tenth of its share of the rung: a backlog that a stall of a few
/// milliseconds does not build, but an offered rate well past capacity does.
std::size_t rung_give_up(double rate) {
  return static_cast<std::size_t>(
      std::max(64.0, 0.1 * rate * kRungWindowS / kLoadThreads));
}
constexpr double kOperateRate = 1500.0;
constexpr std::size_t kSaturatePerSecond = 3000;  // requests per --seconds

/// Whole seconds, so the scrape grid lands the same number of times in it.
double operate_window(double seconds) {
  return std::max(1.0, std::floor(0.5 * seconds));
}

std::size_t saturate_count(double seconds) {
  return static_cast<std::size_t>(kSaturatePerSecond * seconds);
}
constexpr std::size_t kSaturateInflight = 16;  // per connection
constexpr double kDrainTimeoutS = 2.0;
constexpr std::uint64_t kTraceEvery = 16;  // traced run: sampled contexts

struct WireStats {
  std::size_t sent = 0, ok = 0, failed = 0, mismatched = 0, right_class = 0;
  std::uint64_t bytes = 0;
  std::size_t unsent = 0;  // due but never sent before the drain ended
  bool gave_up = false;    // the unsent backlog passed PhaseSpec::give_up
  std::vector<Timed> timed_latency;  // by due time, seconds into the phase
  std::vector<double> latency_ms, late_ms, queue_ms, infer_ms, outside_ms,
      coverage;
  std::vector<BacklogSample> backlog;  // per connection, summed by time bin
  double first_send_s = 1e30, last_recv_s = 0.0;

  void merge(const WireStats& o) {
    sent += o.sent;
    ok += o.ok;
    failed += o.failed;
    mismatched += o.mismatched;
    right_class += o.right_class;
    bytes += o.bytes;
    unsent += o.unsent;
    gave_up = gave_up || o.gave_up;
    const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(latency_ms, o.latency_ms);
    timed_latency.insert(timed_latency.end(), o.timed_latency.begin(),
                         o.timed_latency.end());
    cat(late_ms, o.late_ms);
    cat(queue_ms, o.queue_ms);
    cat(infer_ms, o.infer_ms);
    cat(outside_ms, o.outside_ms);
    cat(coverage, o.coverage);
    first_send_s = std::min(first_send_s, o.first_send_s);
    last_recv_s = std::max(last_recv_s, o.last_recv_s);
  }
};

struct PhaseSpec {
  bool saturate = false;
  double rate = 0.0;      // open loop: total offered rate
  double window_s = 0.0;  // send window (saturate: 0 = until `count` sent)
  std::size_t count = 0;  // saturate: total requests (0 = until window ends)
  /// Open loop: at most this many requests in flight per connection (0 = no
  /// limit). A due request waits for a slot, its latency running from when it
  /// was due. The ladder keeps this under the transport's 64-per-connection
  /// admission limit, so a brief stall delays requests instead of shedding.
  std::size_t inflight_cap = 0;
  /// Open loop with a cap: a connection with more than this many requests
  /// due but unsent gives up the rest of the phase (0 = never).
  std::size_t give_up = 0;
  bool traced = false;
};

/// One pipelined client connection built from the public codecs.
class Conn {
 public:
  bool connect(std::uint16_t port) {
    auto s = net::connect_to("127.0.0.1", port, 2000);
    if (!s.is_ok()) return false;
    sock_ = std::move(s.value());
    return true;
  }

  /// Sends this connection's share of a phase (requests k = index,
  /// index + n, ...) and collects every answer or times it out.
  WireStats run(const PhaseSpec& p, std::size_t index, std::size_t n,
                const std::vector<WireRow>& rows, std::size_t row_base,
                std::uint64_t digest, Clock::time_point start,
                SpanLog* log) {
    WireStats st;
    const OpenLoopSchedule sched{start, p.saturate ? 1.0 : p.rate};
    const std::size_t total = p.saturate ? (p.count ? p.count : SIZE_MAX)
                                         : sched.count(p.window_s);
    // A fixed-count phase still gives up after a minute.
    const auto send_end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(p.count ? 60.0 : p.window_s));
    const auto drain_end =
        send_end + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(kDrainTimeoutS));
    std::size_t k = index;
    auto last_sample = start;

    const auto secs = [&](Clock::time_point t) {
      return std::chrono::duration<double>(t - start).count();
    };
    const auto more_to_send = [&](Clock::time_point now) {
      return k < total && (!p.saturate || now < send_end);
    };
    // Open loop: this connection's requests that are due but not yet sent.
    const auto unsent = [&](Clock::time_point now) -> std::size_t {
      if (p.saturate) return 0;
      const std::size_t due_n = std::min(total, sched.count(secs(now)) + 1);
      return k < due_n ? (due_n - k + n - 1) / n : 0;
    };

    for (;;) {
      auto now = Clock::now();
      bool window_full = false;
      // Send whatever is due (open loop) or refill the window (saturate).
      while (more_to_send(now)) {
        Clock::time_point due;
        if (p.saturate) {
          if (inflight_.size() >= kSaturateInflight) break;
          due = now;
        } else {
          due = sched.due(k);
          if (due > now) break;
          if (p.inflight_cap && inflight_.size() >= p.inflight_cap) {
            window_full = true;
            if (p.give_up && unsent(now) > p.give_up) {
              st.gave_up = true;
              k = total;
            }
            break;
          }
        }
        send(k, rows, row_base, digest, due, now, p.traced, log, st);
        st.first_send_s = std::min(st.first_send_s, secs(now));
        k += n;
        now = Clock::now();
      }
      if (!flush(st)) break;
      if (!more_to_send(now) && inflight_.empty()) break;
      if (now > drain_end) break;
      if (now - last_sample >= std::chrono::milliseconds(5) && now < send_end) {
        st.backlog.push_back(
            {secs(now), static_cast<double>(inflight_.size() + unsent(now))});
        last_sample = now;
      }
      // Wait for a response, writability, or the next due time.
      auto wake = drain_end;
      if (more_to_send(now)) {
        wake = p.saturate || window_full ? now + std::chrono::milliseconds(1)
                                         : sched.due(k);
      }
      const auto wait_ns = std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
                 .count());
      const std::int64_t cap_ns = 5'000'000;
      timespec ts{0, static_cast<long>(std::min(wait_ns, cap_ns))};
      pollfd pfd{sock_.fd(),
                 static_cast<short>(POLLIN | (out_off_ < out_.size() ? POLLOUT : 0)),
                 0};
      ::ppoll(&pfd, 1, &ts, nullptr);
      if (!receive(rows, start, log, st)) break;
    }
    st.failed += inflight_.size();  // never answered: timed out
    inflight_.clear();
    if (!p.saturate && k < total) st.unsent = (total - k + n - 1) / n;
    return st;
  }

 private:
  struct Pending {
    Clock::time_point due;
    Clock::time_point sent;
    std::size_t row;
    double client_us;  // traced: encode time spent on this request
  };

  void send(std::size_t k, const std::vector<WireRow>& rows,
            std::size_t row_base, std::uint64_t digest, Clock::time_point due,
            Clock::time_point now, bool traced, SpanLog* log, WireStats& st) {
    const std::size_t row = (row_base + k) % rows.size();
    const std::uint64_t id = next_id_++;
    net::Frame f;
    f.type = net::FrameType::kDetectRequest;
    f.request_id = id;
    double client_us = 0.0;
    {
      const auto t0 = Clock::now();
      f.payload = serve::encode_detect_request_payload(rows[row].features, digest);
      if (log) log->add("transport.payload_encode", id, t0, Clock::now());
      client_us += seconds_since(t0) * 1e6;
    }
    if (traced && id % kTraceEvery == 0) f.trace = obs::start_trace(true);
    const auto t1 = Clock::now();
    const auto bytes = net::encode_frame(f);
    if (log) log->add("net.frame_encode", id, t1, Clock::now());
    client_us += seconds_since(t1) * 1e6;
    st.bytes += bytes.size();
    out_.insert(out_.end(), bytes.begin(), bytes.end());
    inflight_.emplace(id, Pending{due, now, row, traced ? client_us : 0.0});
    st.late_ms.push_back(OpenLoopSchedule::lateness_ms(due, now));
    ++st.sent;
  }

  bool flush(WireStats& st) {
    while (out_off_ < out_.size()) {
      auto io = sock_.write_some(out_.data() + out_off_, out_.size() - out_off_);
      if (!io.ok() || io.eof) {
        std::fprintf(stderr, "perfbench: wire write failed\n");
        st.failed += inflight_.size();
        inflight_.clear();
        return false;
      }
      out_off_ += io.bytes;
      if (io.would_block) break;
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    return true;
  }

  bool receive(const std::vector<WireRow>& rows, Clock::time_point start,
               SpanLog* log, WireStats& st) {
    std::uint8_t buf[65536];
    for (;;) {
      auto io = sock_.read_some(buf, sizeof buf);
      if (!io.ok() || io.eof) {
        std::fprintf(stderr, "perfbench: wire connection lost\n");
        return false;
      }
      in_.insert(in_.end(), buf, buf + io.bytes);
      if (io.would_block || io.bytes == 0) break;
    }
    std::size_t off = 0;
    while (off < in_.size()) {
      const auto t0 = Clock::now();
      auto d = net::decode_frame(
          std::span<const std::uint8_t>(in_.data() + off, in_.size() - off));
      if (d.kind == net::DecodeResult::Kind::kNeedMore) break;
      off += d.consumed;
      if (d.kind == net::DecodeResult::Kind::kError) {
        std::fprintf(stderr, "perfbench: bad response frame: %s\n",
                     d.status.to_string().c_str());
        ++st.failed;
        continue;
      }
      const auto t1 = Clock::now();
      auto it = inflight_.find(d.frame.request_id);
      if (it == inflight_.end()) continue;  // answered after its timeout
      const Pending pend = it->second;
      inflight_.erase(it);
      if (log) log->add("net.frame_decode", d.frame.request_id, t0, t1);
      auto result = serve::decode_detect_response_payload(d.frame.payload);
      const auto t2 = Clock::now();
      if (log) log->add("transport.payload_decode", d.frame.request_id, t1, t2);
      st.bytes += d.consumed;
      st.last_recv_s = std::max(
          st.last_recv_s, std::chrono::duration<double>(t2 - start).count());
      if (!result.is_ok()) {
        ++st.failed;
        continue;
      }
      const auto& v = result.value();
      ++st.ok;
      const double lat = std::chrono::duration<double, std::milli>(t2 - pend.due).count();
      const double rtt = std::chrono::duration<double, std::milli>(t2 - pend.sent).count();
      st.latency_ms.push_back(lat);
      st.timed_latency.push_back(
          {std::chrono::duration<double>(pend.due - start).count(), lat});
      st.queue_ms.push_back(v.queue_ms);
      st.infer_ms.push_back(v.infer_ms);
      st.outside_ms.push_back(rtt - v.total_ms);
      if (log) {
        const double client_us = pend.client_us +
            std::chrono::duration<double, std::micro>(t2 - t0).count();
        st.coverage.push_back((client_us / 1000.0 + v.queue_ms + v.infer_ms) / lat);
      }
      const auto& row = rows[pend.row];
      if (!bitwise_equal(v.logits, row.ref_logits)) ++st.mismatched;
      if (v.predicted == row.label) ++st.right_class;
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(off));
    return true;
  }

  net::Socket sock_;
  std::vector<std::uint8_t> in_, out_;
  std::size_t out_off_ = 0;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Pending> inflight_;
};

/// Once-a-second scrapes of the admin plane and of DetectionServer::stats(),
/// on a grid anchored half a second into each phase, so every run of a phase
/// sees the same number of scrapes.
class Scraper {
 public:
  explicit Scraper(Stack& stack) : stack_(stack) { anchor(Clock::now()); }
  ~Scraper() { stop(); }
  void start() {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        const Clock::time_point due{Clock::duration(next_ns_.load())};
        if (Clock::now() < due) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        scrape_once();
        auto expected = due.time_since_epoch().count();
        next_ns_.compare_exchange_strong(
            expected, (due + std::chrono::seconds(1)).time_since_epoch().count());
      }
    });
  }
  void anchor(Clock::time_point phase_start) {
    next_ns_.store((phase_start + std::chrono::milliseconds(500))
                       .time_since_epoch()
                       .count());
  }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Times DetectionServer::stats(), GET /metrics and GET /statusz.
  void scrape_once() {
    const auto t0 = Clock::now();
    (void)stack_.server->stats();
    snapshot_ms.push_back(seconds_since(t0) * 1000.0);
    const auto t1 = Clock::now();
    const auto m = http_get(stack_.admin->port(), "/metrics");
    metrics_ms.push_back(seconds_since(t1) * 1000.0);
    const auto t2 = Clock::now();
    const auto s = http_get(stack_.admin->port(), "/statusz");
    statusz_ms.push_back(seconds_since(t2) * 1000.0);
    if (!m || !s) ++failures;
  }

  std::vector<double> metrics_ms, statusz_ms, snapshot_ms;
  std::size_t failures = 0;

 private:
  Stack& stack_;
  std::atomic<bool> stop_{false};
  std::atomic<Clock::rep> next_ns_{0};
  std::thread thread_;
};

/// The load side of a wire run: connections plus a rolling row cursor.
class WireLoad {
 public:
  WireLoad(const std::vector<WireRow>& rows, std::uint64_t digest)
      : rows_(rows), digest_(digest) {}

  /// Phases re-anchor this scraper's grid when they start.
  void set_scraper(Scraper* scraper) { scraper_ = scraper; }

  bool connect(std::uint16_t port) {
    conns_.resize(kLoadThreads);
    for (auto& c : conns_) {
      if (!c.connect(port)) return false;
    }
    return true;
  }

  WireStats phase(const PhaseSpec& p, std::vector<SpanLog>* logs) {
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    if (scraper_ != nullptr) scraper_->anchor(start);
    std::vector<WireStats> per(conns_.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      threads.emplace_back([&, i] {
        SpanLog* log = (p.traced && logs) ? &(*logs)[i] : nullptr;
        per[i] = conns_[i].run(p, i, conns_.size(), rows_, cursor_, digest_,
                               start, log);
      });
    }
    for (auto& t : threads) t.join();
    WireStats all;
    // Backlog: sum of per-connection samples in 10 ms bins.
    std::map<long, double> bins;
    for (auto& s : per) {
      all.merge(s);
      std::map<long, std::pair<double, int>> own;
      for (const auto& b : s.backlog) {
        auto& e = own[static_cast<long>(b.t * 100)];
        e.first += b.outstanding;
        e.second += 1;
      }
      for (const auto& [bin, e] : own) bins[bin] += e.first / e.second;
    }
    for (const auto& [bin, v] : bins) all.backlog.push_back({bin / 100.0, v});
    cursor_ += all.sent;
    return all;
  }

 private:
  const std::vector<WireRow>& rows_;
  std::uint64_t digest_;
  std::vector<Conn> conns_;
  std::size_t cursor_ = 0;
  Scraper* scraper_ = nullptr;
};

/// Starts stack + transport + admin, connects one client and waits for the
/// first verdict. Returns the stack and the seconds that took.
std::unique_ptr<Stack> timed_setup(const std::string& ckpt_dir,
                                   const std::vector<WireRow>& rows,
                                   double* seconds, std::string* error) {
  const auto t0 = Clock::now();
  auto stack = start_stack(ckpt_dir, {.transport = true, .admin = true}, error);
  if (!stack) return nullptr;
  const auto digest = stack->registry.active()->schema().digest();
  Conn c;
  if (!c.connect(stack->transport->port())) {
    *error = "connect failed";
    return nullptr;
  }
  PhaseSpec one{.saturate = false, .rate = 1.0, .window_s = 1.0};  // one request
  const auto st = c.run(one, 0, 1, rows, 0, digest, Clock::now(), nullptr);
  if (st.ok != 1) {
    *error = "first verdict failed";
    return nullptr;
  }
  *seconds = seconds_since(t0);
  return stack;
}

std::vector<WireRow> make_rows(const std::vector<TrafficSample>& traffic,
                               Reference& ref) {
  std::vector<WireRow> rows;
  rows.reserve(traffic.size());
  for (const auto& s : traffic) {
    rows.push_back({s.features, s.label, ref.logits(s.features)});
  }
  return rows;
}

void check_stats(const char* phase, const WireStats& st, Report& rep) {
  std::printf("phase: wire %-9s sent=%zu ok=%zu failed=%zu unsent=%zu\n", phase,
              st.sent, st.ok, st.failed, st.unsent);
  // A request that fell due but was never sent counts as attempted and failed.
  rep.attempted += st.sent + st.unsent;
  rep.failed += st.failed + st.unsent;
  if (st.mismatched > 0) {
    rep.fail(std::string("wire ") + phase + ": " + std::to_string(st.mismatched) +
             " verdicts differ from the per-sample Model::forward reference");
  }
}

double rate_of(const WireStats& st) {
  const double span = st.last_recv_s - st.first_send_s;
  return span > 0.0 ? static_cast<double>(st.ok) / span : 0.0;
}

/// Per-layer metrics of a traced operate phase (shared with the companion).
void operate_layers(const WireStats& st, Report& rep) {
  const auto q = summarize(st.queue_ms);
  const auto o = summarize(st.outside_ms);
  rep.set("serve.queue_wait_ms", q.p50, "ms");
  rep.set("serve.queue_wait_ms_p99", q.p99, "ms");
  rep.set("transport.outside_server_ms", o.p50, "ms");
  rep.set("transport.outside_server_ms_p99", o.p99, "ms");
  rep.set("gen.late_ms_p99", summarize(st.late_ms).p99, "ms");
  rep.set("net.bytes_per_op", st.ok ? double(st.bytes) / st.ok : 0.0, "B");
}

void saturate_layers(const WireStats& st, Report& rep) {
  const auto i = summarize(st.infer_ms);
  rep.set("serve.infer_ms", i.p50, "ms");
  rep.set("serve.infer_ms_p99", i.p99, "ms");
}

void scrape_layers(const Scraper& sc, Report& rep) {
  const auto s = summarize(sc.statusz_ms);
  rep.set("serve.stats_snapshot_ms", summarize(sc.snapshot_ms).p50, "ms");
  rep.set("admin.metrics_scrape_ms", summarize(sc.metrics_ms).p50, "ms");
  rep.set("admin.statusz_scrape_ms", s.p50, "ms");
  rep.set("admin.statusz_scrape_ms_p99", s.p99, "ms");
}

void transport_layers(const Stack& stack, Report& rep) {
  const auto t = stack.transport->stats();
  rep.set("transport.shed", static_cast<double>(t.shed), "count");
  rep.set("transport.quarantined", static_cast<double>(t.quarantined), "count");
}

void codec_layers(const SpanLog& log, Report& rep) {
  rep.set("net.frame_encode_us", summarize(log.durations_us("net.frame_encode")).p50, "us");
  rep.set("net.frame_decode_us", summarize(log.durations_us("net.frame_decode")).p50, "us");
  auto codec = log.durations_us("transport.payload_encode");
  const auto dec = log.durations_us("transport.payload_decode");
  codec.insert(codec.end(), dec.begin(), dec.end());
  rep.set("transport.payload_codec_us", summarize(codec).p50, "us");
}

}  // namespace

void run_wire(const Options& opt, Report& rep, std::vector<Span>& spans) {
  const RunCheckpoint ckpt(opt);
  const std::string& ckpt_dir = ckpt.dir();
  // Traffic (not part of set-up): 1024 bingen programs featurized, with the
  // per-sample reference logits of each row.
  const auto traffic = make_traffic(opt.seed, 1024, true);
  auto probe = serve::Checkpoint::load(ckpt_dir, "reference");
  if (!probe.is_ok()) throw std::runtime_error(probe.status().to_string());
  Reference ref(*probe.value());
  const auto rows = make_rows(traffic, ref);

  // Set-up, several times; the last stack serves the run.
  std::unique_ptr<Stack> stack;
  std::vector<double> setups;
  const int reps = opt.trace ? 1 : 9;
  for (int i = 0; i < reps; ++i) {
    stack.reset();
    double s = 0.0;
    std::string err;
    stack = timed_setup(ckpt_dir, rows, &s, &err);
    if (!stack) throw std::runtime_error("wire set-up failed: " + err);
    setups.push_back(s);
  }
  const auto digest = stack->registry.active()->schema().digest();
  WireLoad load(rows, digest);
  if (!load.connect(stack->transport->port())) {
    throw std::runtime_error("wire: connect failed");
  }
  Scraper scraper(*stack);
  scraper.start();
  load.set_scraper(&scraper);
  load.phase({.rate = kOperateRate, .window_s = 0.3, .inflight_cap = kInflightCap},
             nullptr);  // warm-up

  const double S = opt.seconds;

  std::size_t right = 0, ok = 0;
  const auto tally = [&](const WireStats& st) {
    right += st.right_class;
    ok += st.ok;
  };

  if (!opt.trace) {
    // A saturating phase of a fixed number of requests first, so the
    // server's latency history, which every stats snapshot sorts, has the
    // same length every run when the operating point starts; then the ladder.
    const double cpu0 = process_cpu_s();
    auto sat = load.phase({.saturate = true, .count = saturate_count(S)}, nullptr);
    const double cpu_sat = process_cpu_s() - cpu0;
    check_stats("saturate", sat, rep);
    tally(sat);

    auto op = load.phase(
        {.rate = kOperateRate, .window_s = operate_window(S), .inflight_cap = kInflightCap},
        nullptr);
    check_stats("operate", op, rep);
    tally(op);

    // The ladder runs with the scraper held: a rung then fails on the serving
    // path's own capacity (sheds, backlog, p99), not on a stats stall.
    load.set_scraper(nullptr);
    scraper.anchor(Clock::now() + std::chrono::hours(1));
    // A rung runs up to three times and the majority decides it, so one host
    // stall neither sends the bisection below the server's limit nor one
    // lucky attempt above it. A passing rung reports its last passing attempt.
    LadderSearch search(kLadder.size());
    std::vector<RungResult> rungs(kLadder.size());
    for (int i; (i = search.next()) >= 0;) {
      int passes = 0, fails = 0;
      for (int attempt = 0; passes * 2 <= kRungAttempts && fails * 2 <= kRungAttempts;
           ++attempt) {
        const double rate = kLadder[i];
        auto st = load.phase(
            {.rate = rate,
             .window_s = kRungWindowS,
             .inflight_cap = kInflightCap,
             .give_up = rung_give_up(rate)},
            nullptr);
        check_stats("ladder", st, rep);
        tally(st);
        RungResult r;
        r.rate = rate;
        r.window_s = kRungWindowS;
        r.sent = st.sent;
        r.ok = st.ok;
        r.failed = st.failed + st.unsent;
        r.achieved_rps = rate_of(st);
        r.p99_ms = summarize(st.latency_ms).p99;
        r.backlog_grew = st.gave_up || backlog_grows(st.backlog, rate, kRungWindowS);
        const bool pass = rung_passes(r, opt.slo_p99_ms);
        (pass ? passes : fails) += 1;
        if (pass) rungs[i] = r;
        std::printf("rung: rate=%g attempt=%d achieved=%.1f p99_ms=%.3f failed=%zu "
                    "backlog_grew=%d pass=%d\n",
                    rate, attempt, r.achieved_rps, r.p99_ms, r.failed,
                    r.backlog_grew ? 1 : 0, pass ? 1 : 0);
      }
      search.record(i, passes > fails);
    }
    const int best = search.highest_pass();
    scraper.stop();

    // Throughput and CPU are over the whole saturating phase. p50 and p99 are
    // the medians of the operate phase's one-second windows by due time; the
    // scrape grid sits half a second into each, so every window pays one
    // scrape (measure.hpp).
    const auto lat = summarize(op.latency_ms);
    const auto win = windowed(op.timed_latency, 1.0);
    std::printf("latency: operate n=%zu p50=%.4f p99=%.4f tail_p=%g late_p99=%.4f "
                "windows=%zu window_p50=%.4f window_p99=%.4f\n",
                lat.n, lat.p50, lat.p99, lat.tail_p, summarize(op.late_ms).p99,
                win.windows, win.p50, win.p99);
    rep.set("setup_s", summarize(setups).p50, "s");
    rep.set("throughput_ops", rate_of(sat), "ops/s");
    rep.set("cpu_us_per_op", sat.ok ? cpu_sat / sat.ok * 1e6 : 0.0, "us");
    rep.set("latency_p50_ms", win.p50, "ms");
    rep.set("latency_p99_ms", win.p99, "ms");
    rep.set("slo_rps", best >= 0 ? rungs[best].achieved_rps : 0.0, "req/s");
    rep.set("accuracy", ok ? double(right) / ok : 0.0, "ratio");
    std::vector<const TrafficSample*> sent;
    for (const auto& s : traffic) sent.push_back(&s);
    print_traffic("wire_features", sent, -1.0, -1.0);
    std::printf("scrapes: n=%zu failed=%zu\n", scraper.metrics_ms.size(),
                scraper.failures);
    return;
  }

  // Traced run: the same saturate phase untraced then traced (the gap is the
  // tracing overhead), a traced operate phase, then the decomposition.
  std::vector<SpanLog> logs;
  const auto epoch = Clock::now();
  for (std::size_t i = 0; i < kLoadThreads; ++i) logs.emplace_back(epoch, i + 1);
  const double cpu0 = process_cpu_s();
  auto plain = load.phase({.saturate = true, .count = saturate_count(S) / 2}, nullptr);
  const double cpu_plain = (process_cpu_s() - cpu0) / std::max<std::size_t>(1, plain.ok);
  check_stats("saturate", plain, rep);
  const double cpu1 = process_cpu_s();
  auto sat = load.phase(
      {.saturate = true, .count = saturate_count(S) / 2, .traced = true}, &logs);
  const double cpu_traced = (process_cpu_s() - cpu1) / std::max<std::size_t>(1, sat.ok);
  check_stats("saturate", sat, rep);
  const auto before = stack->server->stats();
  auto op = load.phase({.rate = kOperateRate,
                        .window_s = operate_window(S),
                        .inflight_cap = kInflightCap,
                        .traced = true},
                       &logs);
  const auto after = stack->server->stats();
  check_stats("operate", op, rep);
  scraper.stop();

  SpanLog merged(epoch, 0);
  for (const auto& l : logs) merged.append(l);
  rep.set("trace_overhead_pct", (cpu_traced - cpu_plain) / cpu_plain * 100.0, "%");
  rep.set("layers.coverage_p50", summarize(op.coverage).p50, "ratio");
  codec_layers(merged, rep);
  operate_layers(op, rep);
  saturate_layers(sat, rep);
  batch_metrics(before, after, rep);
  scrape_layers(scraper, rep);
  transport_layers(*stack, rep);
  stack.reset();

  LayerInputs in;
  in.ckpt_dir = ckpt_dir;
  in.rows = rows;
  for (const auto& s : traffic) in.programs.push_back({&s.program, s.label, s.nodes, {}});
  inproc_layers(opt, in, rep, merged);
  attack_layers(opt, in, rep, merged);
  decompose(opt, in, rep, merged);
  spans = merged.spans();
}

void wire_layers(const Options& opt, const LayerInputs& in, Report& rep,
                 SpanLog& log) {
  (void)opt;
  std::string err;
  double s = 0.0;
  auto stack = timed_setup(in.ckpt_dir, in.rows, &s, &err);
  if (!stack) throw std::runtime_error("wire companion set-up failed: " + err);
  WireLoad load(in.rows, stack->registry.active()->schema().digest());
  if (!load.connect(stack->transport->port())) {
    throw std::runtime_error("wire companion: connect failed");
  }
  std::vector<SpanLog> logs;
  const auto epoch = Clock::now();
  for (std::size_t i = 0; i < kLoadThreads; ++i) logs.emplace_back(epoch, 100 + i);
  auto sat = load.phase({.saturate = true, .count = 2000, .traced = true}, &logs);
  check_stats("saturate", sat, rep);
  const auto before = stack->server->stats();
  auto op = load.phase({.rate = kOperateRate,
                        .window_s = 0.5,
                        .inflight_cap = kInflightCap,
                        .traced = true},
                       &logs);
  const auto after = stack->server->stats();
  check_stats("operate", op, rep);
  Scraper scraper(*stack);  // two scrapes after the load, on this thread
  scraper.scrape_once();
  scraper.scrape_once();
  SpanLog merged(epoch, 0);
  for (const auto& l : logs) merged.append(l);
  Report own;
  codec_layers(merged, own);
  operate_layers(op, own);
  saturate_layers(sat, own);
  batch_metrics(before, after, own);
  scrape_layers(scraper, own);
  transport_layers(*stack, own);
  for (const auto& m : layer_catalogue()) {
    if (!rep.has(m.name) && own.has(m.name)) rep.set(m.name, own.get(m.name), m.unit);
  }
  log.append(merged);
}

}  // namespace perfbench
