// The serve_tcp workload: open-loop Poisson arrivals over loopback into an
// in-process net::TcpServer → serve::ShardRouter (1 shard, 2 workers). One
// generator thread drives 2 client connections; a reader thread takes the
// response lines off both and keeps a per-id ledger.
//
// Jobs are small (n ∈ {100, 300}), so the front end, codec, admission,
// queue, vote and encode steps are a large share of each job's latency. A
// run measures, in order: the two fixed rates (low, high), a burst of jobs
// all due at once (its completion time is wall_s), and a bisection for the
// highest rate that still meets the latency limit (max_rate_jobs_s).
//
// The traced run repeats the high rate untraced, then both rates with the
// stack instrumented from this file — the submit and deliver callbacks are
// timed around ShardRouter::submit and TcpServer::deliver — and with
// ServiceConfig.trace set.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "delta.hpp"
#include "loadgen.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "protocols/four_state.hpp"
#include "serve/codec.hpp"
#include "serve/router.hpp"
#include "util/net_io.hpp"
#include "util/rng.hpp"
#include "zoo/registry.hpp"

namespace perfbench {
namespace {

using namespace popbean;
using serve::JobOutcome;
using serve::JobResponse;
using serve::JobSpec;

// Offered loads, frozen at about 30% and 75% of the seed commit's
// max_rate_jobs_s on a 4-core x86-64 host.
constexpr double kLowRate = 1200.0;
constexpr double kHighRate = 3000.0;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kBurstJobs = 3000;
constexpr int kBursts = 8;
constexpr int kHighParts = 5;
constexpr double kEpsilon = 0.1;
// The latency limit max_rate_jobs_s is measured against.
constexpr double kLimitMs = 10.0;
// A job without a `done` response counts as this late: the service's
// default per-job deadline, past every limit.
constexpr double kMissingMs = 10'000.0;

double ns_since_epoch(Clock::time_point t) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

// One job of a phase. The atomics are written by the server's threads in
// traced phases (ns since the clock's epoch); the rest by the reader.
struct Record {
  Clock::time_point due{};
  Clock::time_point read{};
  std::atomic<double> write_ns{0.0};   // client write starts
  std::atomic<double> submit_ns{0.0};  // TcpServer submit callback entered
  std::atomic<double> router_ns{0.0};  // ShardRouter::submit duration
  std::atomic<double> sink_ns{0.0};    // response reaches the router's sink
  int responses = 0;
  JobResponse response;  // the first one
};

// The jobs of one measured stretch, with ids "<tag><index>".
struct Phase {
  std::string tag;
  std::vector<std::string> lines;  // request lines, '\n'-terminated
  std::vector<Record> records;
  std::size_t stray = 0;  // responses naming no job of this phase

  Phase(std::string tag_, std::size_t count, std::uint64_t seed)
      : tag(std::move(tag_)), records(count) {
    Xoshiro256ss rng(seed, 0x5e7e);
    lines.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      JobSpec spec;
      spec.id = tag + std::to_string(i);
      spec.n = rng.below(2) == 0 ? 100 : 300;
      spec.epsilon = kEpsilon;
      spec.seed = rng() >> 1;
      const double u = rng.unit();
      if (u < 0.60) {
        spec.protocol = "avc";
      } else if (u < 0.75) {
        spec.protocol = "four-state";
      } else if (u < 0.90) {
        spec.protocol = "zoo:doubling";
      } else {
        spec.protocol = "avc";
        spec.vote_replicas = 3;
      }
      lines.push_back(serve::job_request_line(spec) + "\n");
    }
  }

  Record* find(const std::string& id) {
    if (id.size() <= tag.size() || id.compare(0, tag.size(), tag) != 0) {
      return nullptr;
    }
    std::size_t index = 0;
    for (std::size_t i = tag.size(); i < id.size(); ++i) {
      if (id[i] < '0' || id[i] > '9') return nullptr;
      index = index * 10 + static_cast<std::size_t>(id[i] - '0');
    }
    return index < records.size() ? &records[index] : nullptr;
  }

  static bool done(const Record& r) {
    return r.responses == 1 && r.response.outcome == JobOutcome::kDone;
  }

  // Due → read, in ms; a job without exactly one `done` misses every limit.
  std::vector<double> latencies_ms() const {
    std::vector<double> out;
    for (const Record& r : records) {
      out.push_back(done(r) ? seconds_between(r.due, r.read) * 1e3
                            : kMissingMs);
    }
    return out;
  }

  std::size_t failed() const {
    std::size_t bad = 0;
    for (const Record& r : records) bad += done(r) ? 0 : 1;
    return bad;
  }

  // Every job got exactly one response and nothing else came back.
  bool ledger_exact() const {
    for (const Record& r : records) {
      if (r.responses != 1) return false;
    }
    return stray == 0;
  }
};

// Server side: the router and the TCP front end on an ephemeral port.
class Stack {
 public:
  Stack(bool instrumented, obs::TraceCollector* trace)
      : instrumented_(instrumented) {
    serve::RouterConfig router_config;
    router_config.shards = 1;
    router_config.service.threads = kWorkers;
    // Room for a whole burst below the overload ladder's high watermark
    // (75% occupancy), so the burst measures service, not shedding.
    router_config.service.admission.capacity = 8192;
    router_config.service.trace = trace;
    router_.emplace(std::move(router_config), [this](const JobResponse& r) {
      if (instrumented_) {
        if (Record* rec = record_of(r.id)) {
          rec->sink_ns.store(ns_since_epoch(Clock::now()));
        }
      }
      if (r.origin != 0) server_->deliver(r);
    });
    net::TcpServerConfig tcp_config;
    tcp_config.listen = HostPort{"127.0.0.1", 0};
    server_.emplace(
        tcp_config,
        [this](JobSpec&& spec) {
          Record* rec = instrumented_ ? record_of(spec.id) : nullptr;
          const auto begin = Clock::now();
          router_->submit(std::move(spec));
          if (rec != nullptr) {
            rec->submit_ns.store(ns_since_epoch(begin));
            rec->router_ns.store(ns_since_epoch(Clock::now()) -
                                 ns_since_epoch(begin));
          }
        },
        // Server-synthesized responses also reach the client, whose ledger
        // counts them as stray.
        [](const JobResponse&) {});
    std::string error;
    if (!server_->start(&error)) {
      throw std::runtime_error("perfbench: cannot listen: " + error);
    }
  }

  ~Stack() { shut_down(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::uint16_t port() const { return server_->port(); }
  net::TcpServer::Stats net_stats() const { return server_->stats(); }
  // Points the instrumented callbacks at the phase now in flight.
  void set_phase(Phase* phase) { phase_.store(phase); }

  // Stops reading, lets every admitted job finish and flush, then joins.
  void shut_down() {
    if (!server_.has_value()) return;
    server_->begin_drain();
    router_->drain(std::chrono::seconds(5));
    server_->drain(std::chrono::seconds(5));
    server_->stop();
    server_.reset();
    router_.reset();
  }

 private:
  Record* record_of(const std::string& id) {
    Phase* phase = phase_.load();
    return phase != nullptr ? phase->find(id) : nullptr;
  }

  const bool instrumented_;
  std::atomic<Phase*> phase_{nullptr};
  std::optional<serve::ShardRouter> router_;
  std::optional<net::TcpServer> server_;
};

// Client side: two blocking connections.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    for (int& fd : fds_) {
      std::string error;
      fd = netio::connect_tcp(HostPort{"127.0.0.1", port},
                              std::chrono::seconds(2), &error);
      if (fd < 0) {
        close_all();
        throw std::runtime_error("perfbench: cannot connect: " + error);
      }
    }
  }
  ~Client() { close_all(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Sends the phase's jobs on `schedule` from one generator thread while a
  // reader thread fills the ledger. Returns once every job is answered or
  // `grace` past the last due time.
  LoadReport run(Phase& phase, const std::vector<LoadClock::duration>& schedule,
                 std::chrono::milliseconds grace) {
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    const auto give_up = start + schedule.back() + grace;
    std::exception_ptr reader_error;
    std::thread reader([&] {
      try {
        read_responses(phase, give_up);
      } catch (...) {
        reader_error = std::current_exception();
      }
    });
    LoadReport report;
    try {
      report = run_open_loop(
          schedule, start, [&](std::size_t i, LoadClock::time_point due) {
            Record& rec = phase.records[i];
            rec.due = due;
            rec.write_ns.store(ns_since_epoch(Clock::now()));
            const std::string& line = phase.lines[i];
            if (!netio::write_all(fds_[i % 2], line).ok()) {
              throw std::runtime_error("perfbench: request write failed");
            }
          });
    } catch (...) {
      reader.join();
      throw;
    }
    reader.join();
    if (reader_error) std::rethrow_exception(reader_error);
    return report;
  }

 private:
  void read_responses(Phase& phase, Clock::time_point give_up) {
    std::size_t received = 0;
    std::string pending[2];
    char buffer[1 << 16];
    while (received < phase.records.size() && Clock::now() < give_up) {
      pollfd pfds[2] = {{fds_[0], POLLIN, 0}, {fds_[1], POLLIN, 0}};
      if (::poll(pfds, 2, 20) <= 0) continue;
      for (int k = 0; k < 2; ++k) {
        if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const netio::IoResult got =
            netio::read_some(fds_[k], buffer, sizeof buffer);
        if (!got.ok()) return;  // the server hung up: the rest are missing
        const auto now = Clock::now();
        pending[k].append(buffer, got.bytes);
        std::size_t from = 0;
        for (std::size_t nl; (nl = pending[k].find('\n', from)) !=
                             std::string::npos;
             from = nl + 1) {
          ++received;
          const std::optional<JobResponse> response =
              serve::parse_job_response(
                  std::string_view(pending[k]).substr(from, nl - from));
          Record* rec = response ? phase.find(response->id) : nullptr;
          if (rec == nullptr) {
            ++phase.stray;
            continue;
          }
          if (rec->responses++ == 0) {
            rec->read = now;
            rec->response = *response;
          }
        }
        pending[k].erase(0, from);
      }
    }
  }

  void close_all() {
    for (int& fd : fds_) {
      if (fd >= 0) netio::close_fd(fd);
      fd = -1;
    }
  }

  int fds_[2] = {-1, -1};
};

struct PhaseRun {
  std::unique_ptr<Phase> phase;
  LoadReport load;
  std::uint64_t net_bytes = 0;
  double span_s = 0.0;  // first due → last read

  double p(double q) const { return quantile(phase->latencies_ms(), q); }
  double failed_frac() const {
    return static_cast<double>(phase->failed()) /
           static_cast<double>(phase->records.size());
  }
  // The backlog grows when late jobs wait much longer than early ones.
  bool backlog_grows() const {
    const std::vector<double> lat = phase->latencies_ms();
    const std::size_t third = lat.size() / 3;
    const std::vector<double> head(lat.begin(), lat.begin() + third);
    const std::vector<double> tail(lat.end() - third, lat.end());
    return median(tail) > 2.0 * median(head) + 1.0;
  }
  bool meets_limit() const {
    return p(0.99) <= kLimitMs && failed_frac() <= 0.01 && !backlog_grows();
  }
};

// A live stack with its client: what one setup builds.
struct Session {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Client> client;
  std::uint64_t next_phase = 0;
  std::uint64_t seed = 0;

  // Runs `count` jobs at `rate` jobs/s (0 = all due at once).
  PhaseRun run(double rate, std::size_t count) {
    return run_as(rate, count, next_phase);
  }

  // Like run(), with the jobs and arrival schedule of phase `content` of
  // any session at this seed; ids still come from a fresh phase index.
  PhaseRun run_as(double rate, std::size_t count, std::uint64_t content) {
    PhaseRun out;
    const std::uint64_t index = next_phase++;
    out.phase = std::make_unique<Phase>("p" + std::to_string(index) + "-",
                                        count, mix_seed(seed, content));
    std::vector<LoadClock::duration> schedule =
        rate > 0.0 ? poisson_schedule(rate, count, mix_seed(seed, ~content))
                   : std::vector<LoadClock::duration>(count);
    const net::TcpServer::Stats before = stack->net_stats();
    stack->set_phase(out.phase.get());
    out.load = client->run(*out.phase, schedule, std::chrono::seconds(10));
    stack->set_phase(nullptr);
    const net::TcpServer::Stats after = stack->net_stats();
    out.net_bytes = (after.bytes_read - before.bytes_read) +
                    (after.bytes_written - before.bytes_written);
    Clock::time_point last = out.load.start;
    for (const Record& r : out.phase->records) last = std::max(last, r.read);
    out.span_s = seconds_between(out.load.start, last);
    return out;
  }
};

constexpr std::size_t kWarmupJobs = 200;

Session set_up(std::uint64_t seed, bool instrumented,
               obs::TraceCollector* trace) {
  Session session;
  session.seed = seed;
  session.stack = std::make_unique<Stack>(instrumented, trace);
  session.client = std::make_unique<Client>(session.stack->port());
  session.next_phase = 1000;  // warm-up ids never collide with phase ids
  (void)session.run(kLowRate, kWarmupJobs);
  session.next_phase = 0;
  return session;
}

std::size_t jobs_for(double rate, double seconds) {
  return std::max<std::size_t>(200, static_cast<std::size_t>(rate * seconds));
}

// Bisects for the highest rate whose probe meets the latency limit.
double max_rate(Session& session, double capacity, double seconds_per_probe,
                int steps) {
  double lo = kHighRate;
  double hi = std::max(capacity * 1.05, kHighRate * 1.1);
  for (int i = 0; i < steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    const PhaseRun probe = session.run(mid, jobs_for(mid, seconds_per_probe));
    (probe.meets_limit() ? lo : hi) = mid;
  }
  return lo;
}

void ledger_check(const PhaseRun& run, const char* name, Result& result) {
  const Phase& phase = *run.phase;
  result.attempted += phase.records.size();
  result.failed += phase.failed();
  result.check(phase.ledger_exact(),
               std::string("ledger ") + name + ": exactly one response per job (" +
                   std::to_string(phase.records.size()) + " jobs, " +
                   std::to_string(phase.failed()) + " not done, " +
                   std::to_string(phase.stray) + " stray)");
}

std::string fmt_metric(const char* name, double value, const char* unit) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "%-34s %16.6g %s", name, value, unit);
  return buffer;
}

// Median per-call time of `fn` over the phase's jobs, in µs.
template <typename Fn>
double per_call_us(std::size_t count, Fn&& fn) {
  std::vector<double> sweeps;
  for (int rep = 0; rep < 5; ++rep) {
    const auto begin = Clock::now();
    for (std::size_t i = 0; i < count; ++i) fn(i);
    sweeps.push_back(seconds_between(begin, Clock::now()) * 1e6 /
                     static_cast<double>(count));
  }
  return median(sweeps);
}

// The per-layer table of one instrumented phase.
void phase_layers(const PhaseRun& run, const std::string& rate,
                  Result& result) {
  const Phase& phase = *run.phase;
  std::vector<double> ingress, router, queue, exec, egress;
  double run_total = 0.0, latency_total = 0.0, replicas = 0.0;
  std::size_t outcome[5] = {0, 0, 0, 0, 0};
  std::size_t degraded = 0;
  const std::vector<double> latency = phase.latencies_ms();
  for (std::size_t i = 0; i < phase.records.size(); ++i) {
    const Record& r = phase.records[i];
    latency_total += latency[i];
    if (r.responses == 0) continue;
    const JobResponse& resp = r.response;
    const auto o = static_cast<std::size_t>(resp.outcome);
    if (o < 5) ++outcome[o];
    degraded += resp.degraded ? 1 : 0;
    replicas += resp.replicas_used;
    queue.push_back(resp.queue_ms);
    exec.push_back(resp.run_ms);
    run_total += resp.run_ms;
    if (r.submit_ns.load() > 0.0) {
      ingress.push_back((r.submit_ns.load() - r.write_ns.load()) / 1e3);
      router.push_back(r.router_ns.load() / 1e3);
    }
    if (r.sink_ns.load() > 0.0) {
      egress.push_back((ns_since_epoch(r.read) - r.sink_ns.load()) / 1e3);
    }
  }
  const double jobs = static_cast<double>(phase.records.size());
  const auto both = [&](const std::string& name, const char* unit,
                        const std::vector<double>& v) {
    result.layer(name + ".p50." + rate, unit, quantile(v, 0.5));
    result.layer(name + ".p99." + rate, unit, quantile(v, 0.99));
  };
  both("net.ingress_us", "us", ingress);
  both("router.submit_us", "us", router);
  both("service.queue_ms", "ms", queue);
  both("service.run_ms", "ms", exec);
  both("net.egress_us", "us", egress);

  // Codec cost on this phase's own request lines and responses.
  result.layer("codec.parse_us." + rate, "us",
               per_call_us(phase.lines.size(), [&](std::size_t i) {
                 const std::string& line = phase.lines[i];
                 const auto parsed = serve::parse_job_request(
                     std::string_view(line).substr(0, line.size() - 1));
                 asm volatile("" : : "r"(&parsed) : "memory");
               }));
  result.layer("codec.encode_us." + rate, "us",
               per_call_us(phase.records.size(), [&](std::size_t i) {
                 const std::string line =
                     serve::job_response_line(phase.records[i].response);
                 asm volatile("" : : "r"(line.data()) : "memory");
               }));
  result.layer("service.busy_frac." + rate, "ratio",
               run_total / (static_cast<double>(kWorkers) * run.span_s * 1e3));
  result.layer("service.sim_share." + rate, "ratio",
               latency_total > 0.0 ? run_total / latency_total : 0.0);
  const char* names[5] = {"done", "truncated", "timeout", "failed",
                          "overloaded"};
  for (std::size_t k = 0; k < 5; ++k) {
    result.layer(std::string("service.outcome.") + names[k] + "." + rate,
                 "ratio", static_cast<double>(outcome[k]) / jobs);
  }
  result.layer("service.degraded_frac." + rate, "ratio",
               static_cast<double>(degraded) / jobs);
  result.layer("vote.replicas_per_job." + rate, "count", replicas / jobs);
  result.layer("net.bytes_per_job." + rate, "B",
               static_cast<double>(run.net_bytes) / jobs);
}

// δ cost of the serve mix's four-state and zoo:doubling protocols.
void delta_layers(std::uint64_t seed, Result& result) {
  const auto time_delta = [&](const std::string& name, const auto& protocol) {
    const std::uint64_t n = 300;
    const auto margin = static_cast<std::uint64_t>(kEpsilon * n);
    const Counts counts = majority_instance_with_margin(protocol, n, margin);
    const std::vector<StatePair> pairs =
        visited_pairs(protocol, counts, mix_seed(seed, 0xde1), 256, 512);
    result.layer("delta." + name + ".ns", "ns", apply_ns(protocol, pairs));
  };
  time_delta("four_state", FourStateProtocol{});
  zoo::with_zoo_runtime("zoo:doubling", [&](const auto& runtime) {
    time_delta("zoo_doubling", runtime);
  });
}

}  // namespace

Result run_serve_tcp(const Options& options) {
  Result result;
  netio::ignore_sigpipe();
  const double s = options.seconds;

  if (!options.trace) {
    // Three setups (server start, connects, warm-up); the last one serves.
    std::vector<double> setups;
    Session session;
    for (int i = 0; i < 3; ++i) {
      const auto begin = i == 0 ? options.process_start : Clock::now();
      if (session.stack) {
        session.client.reset();
        session.stack->shut_down();
      }
      session = set_up(options.seed, false, nullptr);
      setups.push_back(seconds_between(begin, Clock::now()));
    }
    const PhaseRun low = session.run(kLowRate, jobs_for(kLowRate, 0.25 * s));
    ledger_check(low, "low", result);
    // The high rate runs as consecutive parts; the median of their p50s
    // shrugs off a part that a transient stall of the host hit.
    std::vector<double> high_p50, high_latency;
    std::size_t high_failed = 0;
    for (int i = 0; i < kHighParts; ++i) {
      const PhaseRun part =
          session.run(kHighRate, jobs_for(kHighRate, 0.2 * s / kHighParts));
      ledger_check(part, "high", result);
      high_p50.push_back(part.p(0.5));
      const std::vector<double> latency = part.phase->latencies_ms();
      high_latency.insert(high_latency.end(), latency.begin(), latency.end());
      high_failed += part.phase->failed();
    }
    std::vector<double> bursts;
    double capacity = 0.0;
    // Every burst carries the same jobs, so they differ only in timing.
    const std::uint64_t burst_content = session.next_phase;
    for (int i = 0; i < kBursts; ++i) {
      const PhaseRun burst = session.run_as(0.0, kBurstJobs, burst_content);
      ledger_check(burst, "burst", result);
      bursts.push_back(burst.span_s);
      capacity = std::max(capacity,
                          static_cast<double>(kBurstJobs) / burst.span_s);
    }
    const double rate = max_rate(session, capacity, 0.04 * s, 4);

    // Measured and reported, but too unsteady run to run to gate on (see
    // perfbench/README.md): they stay out of the JSON metrics.
    const auto line = [&](const char* name, double value, const char* unit) {
      result.table.push_back(fmt_metric(name, value, unit));
    };
    line("failed_frac.low", low.failed_frac(), "ratio");
    line("failed_frac.high",
         static_cast<double>(high_failed) /
             static_cast<double>(high_latency.size()),
         "ratio");
    line("p99_ms.low", low.p(0.99), "ms");
    line("p50_ms.high", median(high_p50), "ms");
    line("p99_ms.high", quantile(high_latency, 0.99), "ms");
    line("max_rate_jobs_s", rate, "jobs/s");
    line("burst_capacity_jobs_s", capacity, "jobs/s");
    result.end_to_end = {
        {"wall_s", "s", median(bursts)},
        {"setup_s", "s", median(setups)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"p50_ms", "ms", low.p(0.5)},
    };
    return result;
  }

  // Traced run: the high rate untraced, then both rates instrumented.
  double untraced_p50 = 0.0;
  {
    Session plain = set_up(options.seed, false, nullptr);
    // Phase 1 is the high rate in both sessions.
    untraced_p50 =
        plain.run_as(kHighRate, jobs_for(kHighRate, 0.2 * s), 1).p(0.5);
  }
  obs::TraceCollector trace;
  Session traced = set_up(options.seed, true, &trace);
  const PhaseRun low = traced.run(kLowRate, jobs_for(kLowRate, 0.2 * s));
  const PhaseRun high = traced.run(kHighRate, jobs_for(kHighRate, 0.2 * s));
  ledger_check(low, "low", result);
  ledger_check(high, "high", result);
  traced.client.reset();
  traced.stack->shut_down();

  phase_layers(low, "low", result);
  phase_layers(high, "high", result);
  result.layer("loadgen.late_ms.p99", "ms",
               std::max(quantile(low.load.late_ms, 0.99),
                        quantile(high.load.late_ms, 0.99)));
  delta_layers(options.seed, result);
  result.layer("obs.trace_overhead_pct", "%",
               (high.p(0.5) - untraced_p50) / untraced_p50 * 100.0);
  result.layer("obs.trace_events", "count",
               static_cast<double>(trace.event_count()));
  result.layer("obs.trace_dropped", "count",
               static_cast<double>(trace.dropped_count()));
  return result;
}

}  // namespace perfbench
