// popbean-serve — the resilient job service on NDJSON stdin/stdout or TCP.
//
// Reads one job request per line (serve/codec.hpp, protocol v1–v2) from
// stdin, a batch file, or — with --listen — any number of concurrent TCP
// connections (every stream goes through the same framing and codec, so
// --max-line-bytes and torn final lines are answered alike), runs each
// through the JobService (admission control, per-job deadlines,
// retry/backoff, per-protocol circuit breakers, replicated voting,
// graceful degradation — DESIGN.md §9, §12), and
// writes exactly one terminal NDJSON response line per request:
// `done`/`truncated`/`timeout`/`failed` for accepted jobs,
// `overloaded`/`invalid` for rejections. Lines that never parse still get
// their `invalid` response (with the request id when one could be
// salvaged), so a client can always correlate. Duplicate job ids within
// one run (stdin) or one connection (TCP) are a strict-codec error (the
// exactly-one-response contract is per id).
//
// The front end routes through a ShardRouter: --shards=N in-process
// service shards (default 1) own slices of the protocol-family space via
// rendezvous hashing, and a job rejected by its owner spills to siblings in
// the family's deterministic fallback order. --shard-remote=HOST:PORT[,...]
// stretches that walk across processes (DESIGN.md §14): each remote
// popbean-serve occupies a rendezvous slot after the local shards, jobs
// spill to it over TCP with bounded retries under decorrelated-jitter
// backoff, a circuit breaker guards each link, and the request's trace id
// rides the wire so span trees stay causally linked across processes.
//
// Exit status: 0 after the input ends and the service drains, 2 on usage
// errors, 3 when interrupted (SIGINT/SIGTERM stop admission, drain
// in-flight work under the drain deadline, and flush whatever remains as
// failed("shutdown") — the same convention as popbean-faults). A drain
// that blew its deadline writes one "popbean-serve: drain forced" line to
// stderr; the exit status does not change. Final observability files
// (--prom-out, --trace-out, --slow-out) are written on EVERY exit path, each
// individually guarded, so a wedged worker or one bad sink can never cost
// the others their last snapshot. Each is staged to PATH.tmp and renamed
// into place only after a complete write, so a reader never sees a
// truncated snapshot.
//
// Flags:
//   --jobs=PATH            read requests from PATH instead of stdin
//   --listen=HOST:PORT     serve NDJSON over TCP instead of stdin (port 0
//                          picks an ephemeral port; see --port-file)
//   --port-file=PATH       write the bound TCP port to PATH after bind
//   --shard-remote=H:P[,H:P...]  remote shard processes joining the
//                          rendezvous slot space after the local shards
//   --responses-out=PATH   server-side response ledger: every terminal
//                          response line, including ones whose client
//                          connection died first
//   --max-connections=K    TCP admission hard cap (default 256)
//   --max-line-bytes=B     oversized-frame cutoff for TCP and stdin alike
//                          (default 1 MiB)
//   --max-write-buffer=B   per-connection write buffer cap; slow readers
//                          past it are shed (default 4 MiB)
//   --idle-timeout-ms=MS   reap idle connections (default 30000)
//   --read-deadline-ms=MS  torn-frame cutoff (default 10000)
//   --write-deadline-ms=MS write-stall cutoff before a slow-client shed
//                          (default 10000)
//   --force-poll           use the poll(2) event loop even where epoll
//                          exists (portability testing)
//   --threads=T            worker threads per shard (default: hardware)
//   --shards=N             in-process service shards (default 1)
//   --queue-capacity=K     admission queue bound per shard (default 256)
//   --shed=POLICY          reject-newest | deadline-aware | client-quota
//   --client-quota=K       per-client queued-job cap (client-quota policy)
//   --max-retries=K        retry budget per job (default 2)
//   --default-deadline-ms=MS  deadline for jobs that carry none (default
//                             10000; 0 = unlimited)
//   --drain-deadline-ms=MS    shutdown drain budget (default 5000)
//   --breaker-failures=K   consecutive failures that open a breaker
//                          (default 5)
//   --breaker-cooldown-ms=MS  open → half-open cooldown (default 2000)
//   --replicas=K           vote replicas per attempt (odd; default 1 = off)
//   --quarantine-divergences=K  windowed divergences that quarantine a
//                               family's voting (default 3)
//   --quarantine-cooldown-ms=MS quarantine → probation cooldown (2000)
//   --capture-dir=DIR      write divergence capture pairs here for
//                          popbean-replay (default: off)
//   --capture-limit=K      max capture pairs per run (default 8)
//   --seed=S               backoff-jitter seed (default 0x5e7)
//   --chaos=P              per-attempt chaos probability in [0,1] (default 0:
//                          no injection)
//   --chaos-kind=KIND      mixed (fail/slow/corrupt, default) | corrupt (every
//                          injected fault corrupts a replica)
//   --chaos-seed=S         chaos stream seed (default 7)
//   --outage-start=I --outage-len=K  every attempt of the jobs admitted
//                          with sequence in [I, I+K) fails: a scripted
//                          outage that trips the breaker (default none)
//   --corrupt-rate=R       per-interaction rate of kCorrupt faults (1e-3)
//   --telemetry-out=PATH   JSONL vote_divergence events from the service
//   --trace-out=PATH       Chrome trace JSON of per-job async span trees
//                          (DESIGN.md §13), written after the drain and on
//                          SIGUSR1
//   --trace-cap=K          trace ring-buffer capacity in events (default
//                          1000000); older events drop once exceeded
//   --prom-out=PATH        Prometheus text-format exposition of every
//                          shard registry (health is a view over its
//                          serve.* series), rewritten every
//                          --prom-interval-ms, on SIGUSR1 and after the
//                          drain; in TCP mode enriched with net.* counters
//   --prom-interval-ms=MS  prom rewrite period (default 1000)
//   --slow-out=PATH        top-k slow-request log JSON, written after the
//                          drain and on SIGUSR1
//
// SIGUSR1 dumps the current trace/prom/slow files immediately without
// stopping the service — the live-inspection hook popbean-top leans on.

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "net/remote_shard.hpp"
#include "net/server.hpp"
#include "obs/prom.hpp"
#include "obs/slow_log.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "serve/codec.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "util/binary_io.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/net_io.hpp"
#include "util/rng.hpp"

namespace {

using namespace popbean;
using namespace popbean::serve;

std::atomic<bool> g_interrupted{false};
std::atomic<bool> g_dump_requested{false};

extern "C" void handle_drain_signal(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
}

// SIGUSR1: only sets a flag (the observability writer thread does the file
// IO — none of it is async-signal-safe).
extern "C" void handle_dump_signal(int) {
  g_dump_requested.store(true, std::memory_order_relaxed);
}

struct ChaosPlan {
  double probability = 0.0;
  std::uint64_t seed = 7;
  bool corrupt_only = false;  // --chaos-kind=corrupt
  std::uint64_t outage_start = 0;
  std::uint64_t outage_len = 0;
};

// Deterministic per-(job, attempt) chaos draw: the same request file with
// the same --chaos-seed injects the same faults, and the outage window
// fails every attempt outright. kCorruptAll is never drawn here — it
// exists for tests that need a deterministic no-majority.
ChaosAction draw_chaos(const ChaosPlan& plan, const ChaosContext& ctx) {
  if (ctx.sequence >= plan.outage_start &&
      ctx.sequence < plan.outage_start + plan.outage_len) {
    return ChaosAction::kFail;
  }
  Xoshiro256ss rng(plan.seed, ctx.sequence * 8191 + ctx.attempt);
  if (!rng.bernoulli(plan.probability)) return ChaosAction::kNone;
  if (plan.corrupt_only) return ChaosAction::kCorrupt;
  const std::uint64_t kind = rng.below(4);
  if (kind < 2) return ChaosAction::kFail;  // fail twice as likely
  return kind == 2 ? ChaosAction::kSlow : ChaosAction::kCorrupt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.check_known({"jobs", "listen", "port-file", "shard-remote",
                      "responses-out", "max-connections", "max-line-bytes",
                      "max-write-buffer", "idle-timeout-ms",
                      "read-deadline-ms", "write-deadline-ms", "force-poll",
                      "threads", "shards", "queue-capacity", "shed",
                      "client-quota", "max-retries", "default-deadline-ms",
                      "drain-deadline-ms", "breaker-failures",
                      "breaker-cooldown-ms", "replicas",
                      "quarantine-divergences", "quarantine-cooldown-ms",
                      "capture-dir", "capture-limit", "seed", "chaos",
                      "chaos-kind", "chaos-seed", "outage-start",
                      "outage-len", "corrupt-rate", "telemetry-out",
                      "trace-out", "trace-cap", "prom-out",
                      "prom-interval-ms", "slow-out"});

    ServiceConfig config;
    config.threads = static_cast<std::size_t>(args.get_uint64("threads", 0));
    config.admission.capacity =
        static_cast<std::size_t>(args.get_uint64("queue-capacity", 256));
    config.admission.policy =
        parse_shed_policy(args.get_string("shed", "reject-newest"));
    config.admission.per_client_quota =
        static_cast<std::size_t>(args.get_uint64("client-quota", 0));
    config.max_retries =
        static_cast<std::size_t>(args.get_uint64("max-retries", 2));
    config.default_deadline = std::chrono::milliseconds(
        static_cast<std::int64_t>(args.get_uint64("default-deadline-ms", 10000)));
    config.drain_deadline = std::chrono::milliseconds(
        static_cast<std::int64_t>(args.get_uint64("drain-deadline-ms", 5000)));
    config.breaker.failure_threshold =
        static_cast<std::size_t>(args.get_uint64("breaker-failures", 5));
    config.breaker.cooldown = std::chrono::milliseconds(static_cast<std::int64_t>(
        args.get_uint64("breaker-cooldown-ms", 2000)));
    config.breaker.quarantine_divergences =
        static_cast<std::size_t>(args.get_uint64("quarantine-divergences", 3));
    config.breaker.quarantine_cooldown =
        std::chrono::milliseconds(static_cast<std::int64_t>(
            args.get_uint64("quarantine-cooldown-ms", 2000)));
    config.vote_replicas =
        static_cast<std::uint32_t>(args.get_uint64("replicas", 1));
    if (config.vote_replicas % 2 == 0) {
      throw std::runtime_error("flag --replicas: must be odd");
    }
    config.vote_capture_dir = args.get_string("capture-dir", "");
    config.vote_capture_limit =
        static_cast<std::size_t>(args.get_uint64("capture-limit", 8));
    config.seed = args.get_uint64("seed", 0x5e7);
    ChaosPlan chaos;
    chaos.probability = args.get_double("chaos", 0.0);
    if (chaos.probability < 0.0 || chaos.probability > 1.0) {
      throw std::runtime_error("flag --chaos: must be in [0, 1]");
    }
    const std::string chaos_kind = args.get_string("chaos-kind", "mixed");
    if (chaos_kind != "mixed" && chaos_kind != "corrupt") {
      throw std::runtime_error(
          "flag --chaos-kind: expected \"mixed\" or \"corrupt\"");
    }
    chaos.corrupt_only = chaos_kind == "corrupt";
    chaos.seed = args.get_uint64("chaos-seed", 7);
    chaos.outage_start = args.get_uint64("outage-start", 0);
    chaos.outage_len = args.get_uint64("outage-len", 0);
    if (chaos.probability > 0.0 || chaos.outage_len > 0) {
      config.chaos = [chaos](const ChaosContext& ctx) {
        return draw_chaos(chaos, ctx);
      };
    }
    config.chaos_corrupt_rate = args.get_double("corrupt-rate", 1e-3);
    const std::size_t shards =
        static_cast<std::size_t>(args.get_uint64("shards", 1));
    if (shards < 1) throw std::runtime_error("flag --shards: must be >= 1");
    const std::optional<HostPort> listen =
        args.get_host_port("listen", /*allow_port_zero=*/true);
    const std::string port_file = args.get_string("port-file", "");
    std::vector<HostPort> remote_targets;
    if (args.has("shard-remote")) {
      remote_targets = args.get_host_port_list("shard-remote");
    }
    const std::string responses_path = args.get_string("responses-out", "");
    const std::string jobs_path = args.get_string("jobs", "");
    if (listen.has_value() && !jobs_path.empty()) {
      throw std::runtime_error("--listen and --jobs are mutually exclusive");
    }
    const std::string telemetry_path = args.get_string("telemetry-out", "");
    const std::string trace_path = args.get_string("trace-out", "");
    const std::size_t trace_cap = static_cast<std::size_t>(args.get_uint64(
        "trace-cap", obs::TraceCollector::kDefaultCapacity));
    const std::string prom_path = args.get_string("prom-out", "");
    const auto prom_interval = std::chrono::milliseconds(
        static_cast<std::int64_t>(args.get_uint64("prom-interval-ms", 1000)));
    const std::string slow_path = args.get_string("slow-out", "");

    net::TcpServerConfig tcp_config;
    if (listen.has_value()) tcp_config.listen = *listen;
    tcp_config.max_connections =
        static_cast<std::size_t>(args.get_uint64("max-connections", 256));
    tcp_config.max_line_bytes =
        static_cast<std::size_t>(args.get_uint64("max-line-bytes", 1 << 20));
    tcp_config.max_write_buffer = static_cast<std::size_t>(
        args.get_uint64("max-write-buffer", 4u << 20));
    tcp_config.idle_timeout = std::chrono::milliseconds(
        static_cast<std::int64_t>(args.get_uint64("idle-timeout-ms", 30000)));
    tcp_config.read_deadline = std::chrono::milliseconds(
        static_cast<std::int64_t>(args.get_uint64("read-deadline-ms", 10000)));
    tcp_config.write_deadline = std::chrono::milliseconds(
        static_cast<std::int64_t>(args.get_uint64("write-deadline-ms", 10000)));
    tcp_config.force_poll = args.get_bool("force-poll", false);

    int in_fd = STDIN_FILENO;
    if (!jobs_path.empty()) {
      in_fd = ::open(jobs_path.c_str(), O_RDONLY | O_CLOEXEC);
      if (in_fd < 0) throw std::runtime_error("cannot open " + jobs_path);
    }

    std::optional<obs::TelemetrySink> telemetry;
    if (!telemetry_path.empty()) {
      telemetry.emplace(telemetry_path);
      config.telemetry = &*telemetry;
    }
    std::optional<obs::TraceCollector> trace;
    if (!trace_path.empty()) {
      trace.emplace(trace_cap);
      config.trace = &*trace;
    }
    std::optional<obs::SlowLog> slow_log;
    if (!slow_path.empty()) {
      slow_log.emplace();
      config.slow_log = &*slow_log;
    }
    std::optional<std::ofstream> responses_out;
    if (!responses_path.empty()) {
      responses_out.emplace(responses_path);
      if (!*responses_out) {
        throw std::runtime_error("cannot open " + responses_path);
      }
    }

    // stdout writes after a downstream pipe dies must not kill the server.
    netio::ignore_sigpipe();

    // Constructed after the service so the sink can route to it; the sink
    // only dereferences it for responses whose origin a TCP connection
    // stamped, which cannot exist before the server starts.
    std::optional<net::TcpServer> server;

    // One mutex serializes every response line (service sink, remote-shard
    // deliveries, and the invalid/overloaded lines the front ends write).
    // Every terminal response is ledgered and written to stdout when no
    // TCP connection carries it (origin 0). The ledger hears each response
    // BEFORE the transport does, so a response is never lost between the
    // service and a dying socket.
    std::mutex out_mutex;
    const auto record = [&](const JobResponse& response) {
      std::lock_guard lock(out_mutex);
      if (responses_out.has_value()) {
        *responses_out << job_response_line(response);
        responses_out->flush();
      }
      if (response.origin == 0) {
        write_job_response(std::cout, response);
        std::cout.flush();
      }
    };
    const auto emit = [&](const JobResponse& response) {
      record(response);
      if (response.origin != 0 && server.has_value()) {
        server->deliver(response);
      }
    };

    std::signal(SIGINT, handle_drain_signal);
    std::signal(SIGTERM, handle_drain_signal);
    std::signal(SIGUSR1, handle_dump_signal);

    // The router's slot space covers the local shards, then the remotes.
    std::vector<std::shared_ptr<net::RemoteShard>> remote_shards;
    RouterConfig router_config;
    router_config.shards = shards;
    router_config.service = config;
    for (std::size_t i = 0; i < remote_targets.size(); ++i) {
      net::RemoteShardConfig remote;
      remote.target = remote_targets[i];
      remote.slot = shards + i;
      remote.breaker = config.breaker;
      remote.seed = mix_seed(config.seed, 0xbead + i);
      remote_shards.push_back(std::make_shared<net::RemoteShard>(remote, emit));
      router_config.remotes.push_back(remote_shards.back());
    }
    ShardRouter router(std::move(router_config), emit);

    if (listen.has_value()) {
      server.emplace(
          tcp_config,
          [&router](JobSpec&& spec) { router.submit(std::move(spec)); },
          [&](const JobResponse& response) {
            // Server-synthesized responses (invalid frames, torn/oversized
            // rejections, slow-client sheds): the server already wrote
            // them to the socket; ledger and count them here.
            if (response.outcome == JobOutcome::kInvalid) {
              router.note_invalid();
            }
            record(response);
          });
      std::string error;
      if (!server->start(&error)) {
        throw std::runtime_error("cannot listen: " + error);
      }
      if (!port_file.empty()) {
        std::ofstream out(port_file);
        if (!out) throw std::runtime_error("cannot open " + port_file);
        out << server->port() << "\n";
      }
      std::cerr << "popbean-serve: listening on " << listen->host << ":"
                << server->port() << "\n";
    }

    // TCP front-end counters join the router's exposition under
    // shard="net", so one scrape covers sockets and services alike.
    const auto add_net_counters = [&](obs::PromExposition& prom) {
      if (!server.has_value()) return;
      const net::TcpServer::Stats net = server->stats();
      const obs::PromExposition::Labels labels{{"shard", "net"}};
      prom.add_counter("net.accepted", net.accepted, labels);
      prom.add_counter("net.admission_rejected", net.admission_rejected,
                       labels);
      prom.add_counter("net.frames", net.frames, labels);
      prom.add_counter("net.invalid_frames", net.invalid_frames, labels);
      prom.add_counter("net.oversized_frames", net.oversized_frames, labels);
      prom.add_counter("net.torn_frames", net.torn_frames, labels);
      prom.add_counter("net.slow_client_sheds", net.slow_client_sheds,
                       labels);
      prom.add_counter("net.idle_reaped", net.idle_reaped, labels);
      prom.add_counter("net.half_closed", net.half_closed, labels);
      prom.add_counter("net.responses_delivered", net.responses_delivered,
                       labels);
      prom.add_counter("net.responses_dropped", net.responses_dropped,
                       labels);
      prom.add_counter("net.closed", net.closed, labels);
      prom.add_counter("net.bytes_read", net.bytes_read, labels);
      prom.add_counter("net.bytes_written", net.bytes_written, labels);
      for (std::size_t i = 0; i < remote_shards.size(); ++i) {
        const net::RemoteShard::Stats rs = remote_shards[i]->stats();
        const obs::PromExposition::Labels remote_labels{
            {"shard", std::to_string(shards + i)}, {"remote", "1"}};
        prom.add_counter("remote.forwarded", rs.forwarded, remote_labels);
        prom.add_counter("remote.responses", rs.responses, remote_labels);
        prom.add_counter("remote.lost", rs.remote_lost, remote_labels);
        prom.add_counter("remote.connects", rs.connects, remote_labels);
        prom.add_counter("remote.breaker_opens",
                         remote_shards[i]->breaker_opens(), remote_labels);
        prom.add_counter("remote.breaker_closes",
                         remote_shards[i]->breaker_closes(), remote_labels);
      }
    };
    // Observability dumps: each file is staged and renamed into place
    // (write_file_atomic) so a tailing popbean-top never reads a
    // half-written snapshot. All are callable while the service runs
    // (snapshot()/write_chrome_trace copy under their own locks).
    const auto dump_prom = [&] {
      if (prom_path.empty()) return;
      write_file_atomic(prom_path, [&](std::ostream& out) {
        router.write_prometheus(out, add_net_counters);
      });
    };
    const auto dump_trace = [&] {
      if (trace_path.empty()) return;
      write_file_atomic(trace_path, [&](std::ostream& out) {
        trace->write_chrome_trace(out, "popbean-serve");
      });
    };
    const auto dump_slow = [&] {
      if (slow_path.empty()) return;
      write_file_atomic(slow_path, [&](std::ostream& out) {
        JsonWriter json(out);
        slow_log->write_json(json);
        out << "\n";
      });
    };
    // Each write is guarded on its own: one unwritable sink reports on
    // stderr and never costs the other files their snapshot.
    const auto guarded = [](const char* what, const auto& body) {
      try {
        body();
      } catch (const std::exception& e) {
        std::cerr << "popbean-serve: " << what << ": " << e.what() << "\n";
      }
    };
    const auto dump_all = [&] {
      guarded("prom-out", dump_prom);
      guarded("trace-out", dump_trace);
      guarded("slow-out", dump_slow);
    };

    // Periodic prom writer + SIGUSR1 servicing, off the request loop.
    std::atomic<bool> obs_stop{false};
    std::thread obs_writer;
    if (!prom_path.empty() || !trace_path.empty() || !slow_path.empty()) {
      obs_writer = std::thread([&] {
        auto next_prom = std::chrono::steady_clock::now() + prom_interval;
        while (!obs_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          if (g_dump_requested.exchange(false, std::memory_order_relaxed)) {
            dump_all();
          }
          if (!prom_path.empty() &&
              std::chrono::steady_clock::now() >= next_prom) {
            guarded("prom-out", dump_prom);
            next_prom += prom_interval;
          }
        }
      });
    }

    bool interrupted = false;
    try {
      if (listen.has_value()) {
        // TCP front end: requests arrive on sockets; the event loop and
        // the workers do everything. The main thread just awaits the
        // drain signal.
        while (!g_interrupted.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      } else {
        // stdin / --jobs: one stream through the framing and codec a TCP
        // connection uses. An oversized frame ends reading; bytes left
        // unterminated at EOF are answered as a torn frame.
        net::LineFramer framer(tcp_config.max_line_bytes);
        RequestReader reader;
        const auto running = [] {
          return !g_interrupted.load(std::memory_order_relaxed);
        };
        char buffer[65536];
        bool reading = true;
        bool eof = false;
        while (reading && running()) {
          const netio::IoResult got =
              netio::read_some(in_fd, buffer, sizeof buffer);
          if (!got.ok()) {
            eof = got.status == netio::IoStatus::kClosed;
            break;
          }
          framer.feed(std::string_view(buffer, got.bytes));
          while (reading && running()) {
            const std::optional<net::LineFramer::Frame> frame = framer.next();
            if (!frame.has_value()) break;
            auto decoded =
                net::decode_frame(*frame, reader, tcp_config.max_line_bytes);
            if (auto* spec = std::get_if<JobSpec>(&decoded)) {
              router.submit(std::move(*spec));
              continue;
            }
            router.note_invalid();
            emit(std::get<JobResponse>(decoded));
            reading = !frame->oversized;
          }
        }
        if (eof && reading && framer.has_partial()) {
          router.note_invalid();
          emit(net::torn_frame_response(framer));
        }
      }

      interrupted = g_interrupted.load(std::memory_order_relaxed);
      // Drain order: sockets stop accepting/reading first (no new work),
      // then the service fleet flushes every admitted job through the
      // exactly-one-response contract (the event loop keeps delivering
      // while that happens), then the server flushes the last bytes out.
      if (server.has_value()) server->begin_drain();
      if (!router.drain(config.drain_deadline)) {
        std::cerr << "popbean-serve: drain forced — work still in flight "
                     "after the "
                  << config.drain_deadline.count()
                  << " ms drain deadline was cancelled\n";
      }
      if (server.has_value()) {
        server->drain(config.drain_deadline);
        server->stop();
      }
    } catch (...) {
      if (obs_writer.joinable()) {
        obs_stop.store(true, std::memory_order_relaxed);
        obs_writer.join();
      }
      dump_all();
      throw;
    }

    if (obs_writer.joinable()) {
      obs_stop.store(true, std::memory_order_relaxed);
      obs_writer.join();
    }
    // The final-snapshot contract (DESIGN.md §14): every exposition file is
    // written on every exit path, reflecting the fully-drained service.
    dump_all();
    return interrupted ? 3 : 0;
  } catch (const std::exception& e) {
    std::cerr << "popbean-serve: " << e.what() << "\n";
    return 2;
  }
}
