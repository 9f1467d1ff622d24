// popbean-stress — open-loop load and network-chaos client for popbean-serve.
//
// Drives a running `popbean-serve --listen` over TCP (--connect=HOST:PORT)
// with an open-loop Poisson arrival stream at a target rate (arrivals do
// not wait for completions — the honest way to measure an overloaded
// service). --connections=C splits the load across C concurrent client
// connections, each writing protocol-v2 request lines and reading its own
// responses back. The service itself — shards, queue, breakers, voting,
// worker chaos, scripted outages, trace and exposition files — is
// configured on popbean-serve alone; this tool only generates load and
// audits what comes back.
//
// Network chaos: with --net-chaos=P each connection misbehaves with
// probability P — abrupt close mid-request, half-close, garbage bytes
// between valid requests, a one-byte-per---slow-byte-ms writer, or a
// reconnect storm of short-lived connections. Well-behaved connections
// audit exactly-one-response client-side; every fully-written request id
// is journaled to --submitted-out, and a follow-up
//   popbean-stress --tcp-audit --submitted=J --ledger=L
// joins that journal against the server's --responses-out ledger: strict
// ids appear exactly once, and no id ever appears twice.
//
// Output: a human summary on stdout and a JSON report (--bench-out) with
// per-outcome totals, ledger violations, client-measured submit→response
// latency (quantiles and histogram), per-shard attribution from the v2
// `shard` response label, the vote-label tallies of the responses, and the
// per-connection detail. Server-side counters (breaker transitions,
// divergences, quarantine) are in popbean-serve's --prom-out exposition.
//
// Exit status: 0 when the client-side ledger is clean, 1 on a contract
// violation — a missing, duplicate, or unexpected response, or a request
// of ours answered `invalid` — and 2 on usage errors.
//
// Flags:
//   --connect=HOST:PORT    server to drive (required)
//   --jobs=N               jobs to submit across all connections (200)
//   --connections=C        concurrent client connections (default 1)
//   --rate=R               target aggregate arrival rate, jobs/sec
//                          (0 = no pacing; default 50)
//   --n=POP --eps=E        instance per job (default 300, 0.1)
//   --replicates=R         statistical replicates per job (default 1)
//   --replicas=K           vote replicas per job (odd; default 1 = unset)
//   --deadline-ms=MS       per-job deadline (default 2000)
//   --seed=S               request seed base (job i runs seed S + i)
//   --bench-out=PATH       report path (default BENCH_serve.json)
//   --net-chaos=P          per-connection misbehaviour probability (0)
//   --net-chaos-kind=KIND  mixed | abrupt-close | half-close | garbage |
//                          slow-writer | reconnect-storm (default mixed)
//   --net-chaos-seed=S     chaos-kind draw seed (default 11)
//   --slow-byte-ms=MS      slow-writer inter-byte gap (default 100)
//   --submitted-out=PATH   journal of fully-written ids for --tcp-audit
//   --tcp-audit            join --submitted=PATH vs --ledger=PATH and exit

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/framer.hpp"
#include "serve/codec.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/net_io.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace popbean;
using namespace popbean::serve;
using Clock = std::chrono::steady_clock;

// Vote-label tallies across responses (the response schema carries
// voted/quarantined/divergent; `wrong` comes from the result payload).
struct VoteTally {
  std::uint64_t voted_responses = 0;
  std::uint64_t voted_wrong = 0;     // a voted decision that was still wrong
  std::uint64_t unvoted_wrong = 0;   // wrong but unvoted (labelled, allowed)
  std::uint64_t quarantined_responses = 0;
  std::uint64_t divergent_responses = 0;

  void add(const JobResponse& response) {
    const bool wrong = (response.outcome == JobOutcome::kDone ||
                        response.outcome == JobOutcome::kTruncated) &&
                       response.result.wrong > 0;
    if (response.voted) {
      ++voted_responses;
      if (wrong) ++voted_wrong;
    } else if (wrong) {
      ++unvoted_wrong;
    }
    if (response.quarantined) ++quarantined_responses;
    if (response.divergent > 0) ++divergent_responses;
  }
};

// Outcomes and client-measured latencies of a set of responses.
struct OutcomeTally {
  std::map<std::string, std::uint64_t> by_outcome;
  std::vector<double> latency_ms;  // submit → response line read

  void add(const JobResponse& response, double latency) {
    ++by_outcome[to_string(response.outcome)];
    latency_ms.push_back(latency);
  }
};

// Every response that answered an id this client submitted, across all
// connections: fleet-wide, per serving shard, and by vote label.
struct ResponseTally {
  std::mutex mutex;
  OutcomeTally all;
  std::map<std::size_t, OutcomeTally> by_shard;
  VoteTally votes;

  void add(const JobResponse& response, double latency) {
    std::lock_guard lock(mutex);
    all.add(response, latency);
    by_shard[response.shard].add(response, latency);
    votes.add(response);
  }
};

JobPriority priority_for(std::uint64_t index) {
  switch (index % 3) {
    case 0: return JobPriority::kLow;
    case 1: return JobPriority::kNormal;
    default: return JobPriority::kHigh;
  }
}

struct LoadShape {
  std::uint64_t n = 300;
  double eps = 0.1;
  std::uint32_t replicates = 1;
  std::uint32_t replicas = 1;
  std::uint64_t deadline_ms = 2000;
  std::uint64_t seed = 0;
};

// Renders job `global_index` as a protocol-v2 NDJSON request line.
std::string request_line(const std::string& id, std::uint64_t global_index,
                         const LoadShape& shape) {
  std::ostringstream buffer;
  JsonWriter json(buffer);
  json.begin_object();
  json.kv("v", kProtocolVersion);
  json.kv("id", id);
  json.kv("client", "stress-" + std::to_string(global_index % 4));
  json.kv("n", shape.n);
  json.kv("eps", shape.eps);
  json.kv("seed", shape.seed + global_index);
  json.kv("replicates", static_cast<std::uint64_t>(shape.replicates));
  if (shape.replicas > 1) {
    json.kv("replicas", static_cast<std::uint64_t>(shape.replicas));
  }
  json.kv("priority", to_string(priority_for(global_index)));
  json.kv("deadline_ms", shape.deadline_ms);
  json.end_object();
  return json_single_line(buffer.str());
}

// A fraction of connections misbehave on purpose — abrupt mid-request
// close, half-close, garbage bytes, a one-byte-at-a-time slow writer,
// reconnect storms. Well-behaved connections audit the exactly-one-response
// contract client-side; misbehaving ones cannot (their own close may eat
// responses in flight), so every fully-written request id is journaled to
// --submitted-out and `popbean-stress --tcp-audit` joins that journal
// against the server's --responses-out ledger afterwards: strict ids must
// appear exactly once, and NO id may ever appear twice.

enum class NetChaosKind {
  kNone,            // well-behaved: write all, half-close, read to EOF
  kAbruptClose,     // complete requests, then a torn half-request + close
  kHalfClose,       // shutdown(SHUT_WR) after half the assigned jobs
  kGarbage,         // garbage lines interleaved between valid requests
  kSlowWriter,      // one byte per --slow-byte-ms; trips the read deadline
  kReconnectStorm,  // one short-lived connection per job, most unread
};

const char* chaos_kind_name(NetChaosKind kind) {
  switch (kind) {
    case NetChaosKind::kNone: return "clean";
    case NetChaosKind::kAbruptClose: return "abrupt-close";
    case NetChaosKind::kHalfClose: return "half-close";
    case NetChaosKind::kGarbage: return "garbage";
    case NetChaosKind::kSlowWriter: return "slow-writer";
    case NetChaosKind::kReconnectStorm: return "reconnect-storm";
  }
  return "clean";
}

// What one connection saw come back over its own socket.
struct TcpLedger {
  std::mutex mutex;
  // ids whose full line hit the wire, with when the write began
  std::map<std::string, Clock::time_point> submitted;
  std::map<std::string, std::uint64_t> counts;  // id -> responses seen
  std::size_t unknown = 0;  // responses for ids we never submitted
};

struct TcpConnResult {
  NetChaosKind kind = NetChaosKind::kNone;
  std::size_t submitted = 0;
  std::size_t responses = 0;
  std::size_t missing = 0;     // strict kinds only
  std::size_t duplicates = 0;  // always a violation
  std::size_t unknown = 0;
  std::size_t allowed_unknown = 0;  // garbage echoes, torn-frame invalids
  // strict: this connection read its socket to EOF, so every submitted id
  // must have exactly one response client-side. Non-strict kinds (abrupt
  // close, reconnect storm) defer the missing check to the ledger join.
  bool strict = true;
  std::vector<std::string> submitted_ids;
  std::string error;  // connect failure etc. (informational)
};

// Drains response lines until EOF, holding the connection's ledger and
// tallying every response that answers one of its ids.
void tcp_read_responses(int fd, TcpLedger& ledger, ResponseTally& tally) {
  net::LineFramer framer(1 << 20);
  char buffer[65536];
  for (;;) {
    const netio::IoResult result = netio::read_some(fd, buffer, sizeof buffer);
    if (result.status != netio::IoStatus::kOk) break;
    const auto now = Clock::now();
    framer.feed(std::string_view(buffer, result.bytes));
    while (std::optional<net::LineFramer::Frame> frame = framer.next()) {
      std::lock_guard lock(ledger.mutex);
      std::optional<JobResponse> response;
      if (!frame->oversized) {
        response = parse_job_response(frame->line, nullptr);
      }
      const auto it = response.has_value()
                          ? ledger.submitted.find(response->id)
                          : ledger.submitted.end();
      if (it == ledger.submitted.end()) {
        ++ledger.unknown;  // garbage echoes and torn-frame invalids land here
        continue;
      }
      ++ledger.counts[response->id];
      tally.add(*response,
                std::chrono::duration<double, std::milli>(now - it->second)
                    .count());
    }
  }
}

// Writes one full request line. The id is registered BEFORE the write (the
// server can respond before write_all even returns) and rolled back if the
// line never fully hit the wire — a request the server may never have seen
// is not "submitted".
bool tcp_send_job(int fd, const std::string& id, std::uint64_t global_index,
                  const LoadShape& shape, TcpLedger& ledger,
                  TcpConnResult& result) {
  const std::string line = request_line(id, global_index, shape) + "\n";
  {
    std::lock_guard lock(ledger.mutex);
    ledger.submitted.emplace(id, Clock::now());
  }
  if (!netio::write_all(fd, line).ok()) {
    std::lock_guard lock(ledger.mutex);
    ledger.submitted.erase(id);
    return false;
  }
  result.submitted_ids.push_back(id);
  return true;
}

TcpConnResult run_tcp_connection(const HostPort& target, std::uint64_t conn,
                                 std::uint64_t total_jobs,
                                 std::uint64_t connections,
                                 const LoadShape& shape, double rate,
                                 NetChaosKind kind, std::uint64_t seed,
                                 std::chrono::milliseconds slow_byte,
                                 ResponseTally& tally) {
  TcpConnResult result;
  result.kind = kind;
  result.strict = kind != NetChaosKind::kAbruptClose &&
                  kind != NetChaosKind::kReconnectStorm;
  TcpLedger ledger;
  Xoshiro256ss arrivals(seed, /*stream=*/0xa881 + conn);
  const double conn_rate = rate / static_cast<double>(connections);
  const auto pace = [&](std::uint64_t g) {
    if (conn_rate > 0.0 && g + connections < total_jobs) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(arrivals.exponential(conn_rate)));
    }
  };
  const auto id_of = [&](std::uint64_t local) {
    std::string id = "c";
    id += std::to_string(conn);
    id += "-job-";
    id += std::to_string(local);
    return id;
  };
  // Connection c owns global indices c, c + C, c + 2C, …
  std::vector<std::uint64_t> assigned;
  for (std::uint64_t g = conn; g < total_jobs; g += connections) {
    assigned.push_back(g);
  }

  if (kind == NetChaosKind::kReconnectStorm) {
    // One short-lived connection per job. Most close without reading —
    // the accept/admission path and the server's tombstone reaping are
    // the thing under test; the ledger join proves no job was dropped or
    // double-served. Every third burst reads to EOF as a canary.
    for (std::size_t burst = 0; burst < assigned.size(); ++burst) {
      std::string error;
      const int fd = netio::connect_tcp(target,
                                        std::chrono::milliseconds(1000),
                                        &error);
      if (fd < 0) {
        result.error = error;
        continue;
      }
      if (tcp_send_job(fd, id_of(burst), assigned[burst], shape, ledger,
                       result)) {
        if (burst % 3 == 0) {
          ::shutdown(fd, SHUT_WR);
          tcp_read_responses(fd, ledger, tally);
        }
      }
      netio::close_fd(fd);
    }
  } else {
    std::string error;
    const int fd = netio::connect_tcp(target, std::chrono::milliseconds(1000),
                                      &error);
    if (fd < 0) {
      result.error = error;
      return result;
    }
    // Responses stream back while we write; a dedicated reader keeps the
    // socket drained so the server never has to buffer for us.
    std::thread reader;
    if (kind != NetChaosKind::kAbruptClose) {
      reader = std::thread(
          [fd, &ledger, &tally] { tcp_read_responses(fd, ledger, tally); });
    }
    switch (kind) {
      case NetChaosKind::kNone:
        for (std::size_t i = 0; i < assigned.size(); ++i) {
          if (!tcp_send_job(fd, id_of(i), assigned[i], shape, ledger, result))
            break;
          pace(assigned[i]);
        }
        ::shutdown(fd, SHUT_WR);
        break;
      case NetChaosKind::kHalfClose:
        // Half-close mid-stream: the write side goes away while responses
        // for everything already admitted must still flow back.
        for (std::size_t i = 0; i < (assigned.size() + 1) / 2; ++i) {
          if (!tcp_send_job(fd, id_of(i), assigned[i], shape, ledger, result))
            break;
          pace(assigned[i]);
        }
        ::shutdown(fd, SHUT_WR);
        break;
      case NetChaosKind::kGarbage: {
        Xoshiro256ss noise(seed, /*stream=*/0x6a4b + conn);
        for (std::size_t i = 0; i < assigned.size(); ++i) {
          if (noise.bernoulli(0.5)) {
            static const char kGarbage[] = "\x01@@not json at all@@\x7f\n";
            if (!netio::write_all(fd, kGarbage).ok()) break;
            ++result.allowed_unknown;  // server answers invalid, id ""
          }
          if (!tcp_send_job(fd, id_of(i), assigned[i], shape, ledger, result))
            break;
          pace(assigned[i]);
        }
        ::shutdown(fd, SHUT_WR);
        break;
      }
      case NetChaosKind::kSlowWriter: {
        // One byte per tick. Lines that finish inside the server's read
        // deadline are served normally; a line that lingers past it gets
        // the connection doomed with a torn-frame invalid (id "").
        const std::size_t jobs = std::min<std::size_t>(2, assigned.size());
        bool alive = true;
        for (std::size_t i = 0; i < jobs && alive; ++i) {
          const std::string line =
              request_line(id_of(i), assigned[i], shape) + "\n";
          {
            std::lock_guard lock(ledger.mutex);
            ledger.submitted.emplace(id_of(i), Clock::now());
          }
          for (const char byte : line) {
            if (!netio::write_all(fd, std::string_view(&byte, 1)).ok()) {
              alive = false;
              break;
            }
            std::this_thread::sleep_for(slow_byte);
          }
          if (alive) {
            result.submitted_ids.push_back(id_of(i));
          } else {
            std::lock_guard lock(ledger.mutex);
            ledger.submitted.erase(id_of(i));
          }
        }
        result.allowed_unknown += 1;  // a possible torn-frame invalid
        if (alive) ::shutdown(fd, SHUT_WR);
        break;
      }
      case NetChaosKind::kAbruptClose: {
        // Complete half the assigned jobs, then die mid-request: the torn
        // prefix must never be admitted, and the completed jobs' responses
        // must still reach the server ledger even though nobody is left
        // reading this socket.
        const std::size_t jobs = assigned.size() / 2;
        for (std::size_t i = 0; i < jobs; ++i) {
          if (!tcp_send_job(fd, id_of(i), assigned[i], shape, ledger, result))
            break;
        }
        const std::string torn =
            request_line(id_of(jobs), assigned.empty() ? 0 : assigned[0],
                         shape)
                .substr(0, 20);
        (void)netio::write_all(fd, torn);
        break;
      }
      case NetChaosKind::kReconnectStorm:
        break;  // handled above
    }
    if (reader.joinable()) reader.join();
    netio::close_fd(fd);
  }

  std::lock_guard lock(ledger.mutex);
  result.submitted = ledger.submitted.size();
  for (const auto& [id, count] : ledger.counts) {
    result.responses += count;
    if (count > 1) ++result.duplicates;
  }
  if (result.strict) {
    for (const auto& [id, when] : ledger.submitted) {
      if (ledger.counts.find(id) == ledger.counts.end()) ++result.missing;
    }
  }
  result.unknown = ledger.unknown;
  return result;
}

NetChaosKind parse_net_chaos_kind(const std::string& text) {
  if (text == "mixed") return NetChaosKind::kNone;  // drawn per connection
  if (text == "abrupt-close") return NetChaosKind::kAbruptClose;
  if (text == "half-close") return NetChaosKind::kHalfClose;
  if (text == "garbage") return NetChaosKind::kGarbage;
  if (text == "slow-writer") return NetChaosKind::kSlowWriter;
  if (text == "reconnect-storm") return NetChaosKind::kReconnectStorm;
  throw std::runtime_error(
      "flag --net-chaos-kind: expected mixed, abrupt-close, half-close, "
      "garbage, slow-writer, or reconnect-storm");
}

// --tcp-audit: joins a --submitted-out journal against the server's
// --responses-out ledger after both sides have exited. The contract: every
// strict id appears exactly once, and no id — strict or not — appears
// twice. Lax ids (from abrupt-close/reconnect-storm connections) may be
// missing: their bytes may have died in a reset socket before the server
// ever parsed them.
int run_tcp_audit(const CliArgs& args) {
  const std::string submitted_path = args.get_string("submitted", "");
  const std::string ledger_path = args.get_string("ledger", "");
  if (submitted_path.empty() || ledger_path.empty()) {
    throw std::runtime_error(
        "--tcp-audit requires --submitted=PATH and --ledger=PATH");
  }
  std::ifstream submitted_in(submitted_path);
  if (!submitted_in) {
    throw std::runtime_error("cannot open " + submitted_path);
  }
  std::map<std::string, bool> expected;  // id -> strict
  std::string line;
  while (std::getline(submitted_in, line)) {
    if (line.empty()) continue;
    const JsonValue entry = JsonValue::parse(line);
    const JsonValue* id = entry.find("id");
    const JsonValue* strict = entry.find("strict");
    if (id == nullptr || strict == nullptr) {
      throw std::runtime_error("malformed journal line: " + line);
    }
    expected[id->as_string()] = strict->as_bool();
  }
  std::ifstream ledger_in(ledger_path);
  if (!ledger_in) throw std::runtime_error("cannot open " + ledger_path);
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t ledger_lines = 0;
  std::uint64_t unparsed = 0;
  while (std::getline(ledger_in, line)) {
    if (line.empty()) continue;
    ++ledger_lines;
    // A plain JSON read, not the strict response parser: the ledger also
    // holds server-synthesized lines with empty ids (garbage echoes,
    // torn-frame invalids, slow-client sheds), which the join skips.
    std::string id;
    try {
      const JsonValue entry = JsonValue::parse(line);
      const JsonValue* id_value = entry.find("id");
      if (id_value == nullptr) throw std::runtime_error("no id member");
      id = id_value->as_string();
    } catch (const std::exception& e) {
      ++unparsed;
      std::cerr << "popbean-stress: unparsable ledger line (" << e.what()
                << "): " << line.substr(0, 120) << "\n";
      continue;
    }
    if (id.empty()) continue;  // garbage/torn invalids, sheds
    if (expected.find(id) != expected.end()) ++counts[id];
  }
  std::uint64_t matched = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t lax_unserved = 0;
  for (const auto& [id, strict] : expected) {
    const auto it = counts.find(id);
    const std::uint64_t count = it == counts.end() ? 0 : it->second;
    if (count == 1) ++matched;
    if (count > 1) {
      ++duplicates;
      std::cerr << "popbean-stress: id \"" << id << "\" has " << count
                << " ledger responses\n";
    }
    if (count == 0) {
      if (strict) {
        ++missing;
        std::cerr << "popbean-stress: strict id \"" << id
                  << "\" missing from ledger\n";
      } else {
        ++lax_unserved;
      }
    }
  }
  const bool violated = missing > 0 || duplicates > 0 || unparsed > 0;
  std::cout << "popbean-stress: tcp-audit " << expected.size()
            << " submitted ids vs " << ledger_lines
            << " ledger lines — matched=" << matched << " missing=" << missing
            << " duplicates=" << duplicates << " lax_unserved=" << lax_unserved
            << " unparsed=" << unparsed << " => "
            << (violated ? "VIOLATION" : "ok") << "\n";
  return violated ? 1 : 0;
}

// p50/p90/p99/max of `latency_ms` (sorted in place); empty object if none.
void write_latency(JsonWriter& json, std::vector<double>& latency_ms) {
  std::sort(latency_ms.begin(), latency_ms.end());
  if (latency_ms.empty()) return;
  json.kv("p50", quantile_sorted(latency_ms, 0.50));
  json.kv("p90", quantile_sorted(latency_ms, 0.90));
  json.kv("p99", quantile_sorted(latency_ms, 0.99));
  json.kv("max", latency_ms.back());
}

int run_tcp_client(const CliArgs& args, std::uint64_t total_jobs,
                   std::uint64_t connections, double rate,
                   const LoadShape& shape) {
  const std::optional<HostPort> connect = args.get_host_port("connect");
  if (!connect.has_value()) {
    throw std::runtime_error("--connect=host:port is required");
  }
  const double net_chaos = args.get_double("net-chaos", 0.0);
  if (net_chaos < 0.0 || net_chaos > 1.0) {
    throw std::runtime_error("flag --net-chaos: must be in [0, 1]");
  }
  const std::string kind_text = args.get_string("net-chaos-kind", "mixed");
  const NetChaosKind forced_kind = parse_net_chaos_kind(kind_text);
  const std::uint64_t net_chaos_seed = args.get_uint64("net-chaos-seed", 11);
  const auto slow_byte = std::chrono::milliseconds(
      static_cast<std::int64_t>(args.get_uint64("slow-byte-ms", 100)));
  const std::string submitted_path = args.get_string("submitted-out", "");
  const std::string bench_path =
      args.get_string("bench-out", "BENCH_serve.json");

  // Connection c's chaos kind is a deterministic function of the seed, so
  // a failing CI run replays exactly.
  std::vector<NetChaosKind> kinds(connections, NetChaosKind::kNone);
  for (std::uint64_t c = 0; c < connections; ++c) {
    Xoshiro256ss draw(net_chaos_seed, /*stream=*/0xc4a0 + c);
    if (net_chaos <= 0.0 || !draw.bernoulli(net_chaos)) continue;
    if (kind_text != "mixed") {
      kinds[c] = forced_kind;
    } else {
      switch (draw.below(5)) {
        case 0: kinds[c] = NetChaosKind::kAbruptClose; break;
        case 1: kinds[c] = NetChaosKind::kHalfClose; break;
        case 2: kinds[c] = NetChaosKind::kGarbage; break;
        case 3: kinds[c] = NetChaosKind::kSlowWriter; break;
        default: kinds[c] = NetChaosKind::kReconnectStorm; break;
      }
    }
  }

  const auto load_start = Clock::now();
  ResponseTally tally;
  std::vector<TcpConnResult> results(connections);
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (std::uint64_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      results[c] = run_tcp_connection(*connect, c, total_jobs, connections,
                                      shape, rate, kinds[c], net_chaos_seed,
                                      slow_byte, tally);
    });
  }
  for (std::thread& client : clients) client.join();
  const double load_s =
      std::chrono::duration<double>(Clock::now() - load_start).count();

  // Journal every fully-written id for the post-hoc ledger join.
  if (!submitted_path.empty()) {
    std::ofstream out(submitted_path);
    if (!out) throw std::runtime_error("cannot open " + submitted_path);
    for (const TcpConnResult& result : results) {
      for (const std::string& id : result.submitted_ids) {
        std::ostringstream buffer;
        JsonWriter json(buffer);
        json.begin_object();
        json.kv("id", id);
        json.kv("kind", chaos_kind_name(result.kind));
        json.kv("strict", result.strict);
        json.end_object();
        out << json_single_line(buffer.str()) << "\n";
      }
    }
  }

  std::size_t submitted = 0;
  std::size_t responses = 0;
  std::size_t missing = 0;
  std::size_t duplicates = 0;
  std::size_t excess_unknown = 0;
  std::map<std::string, std::uint64_t> by_kind;
  std::size_t connect_failures = 0;
  for (const TcpConnResult& result : results) {
    submitted += result.submitted;
    responses += result.responses;
    missing += result.missing;
    duplicates += result.duplicates;
    if (result.unknown > result.allowed_unknown) {
      excess_unknown += result.unknown - result.allowed_unknown;
    }
    ++by_kind[chaos_kind_name(result.kind)];
    if (!result.error.empty()) ++connect_failures;
  }
  // Every tallied response answers a line this client wrote in full, so
  // an `invalid` one means request_line has drifted from the codec.
  const auto invalid_it =
      tally.all.by_outcome.find(to_string(JobOutcome::kInvalid));
  const std::uint64_t invalid =
      invalid_it == tally.all.by_outcome.end() ? 0 : invalid_it->second;
  bool violated = false;
  if (missing > 0 || duplicates > 0 || excess_unknown > 0 || invalid > 0) {
    std::cerr << "popbean-stress: client-side ledger violation — missing="
              << missing << " duplicates=" << duplicates
              << " unknown=" << excess_unknown << " invalid=" << invalid
              << "\n";
    violated = true;
  }

  std::cout << "popbean-stress: " << submitted << " submitted over "
            << connections << " connection(s) to " << connect->to_string()
            << " in " << load_s << " s  responses=" << responses;
  for (const auto& [outcome, count] : tally.all.by_outcome) {
    std::cout << "  " << outcome << "=" << count;
  }
  for (const auto& [kind, count] : by_kind) {
    std::cout << "  " << kind << "=" << count;
  }
  std::cout << "  missing=" << missing << " duplicates=" << duplicates
            << " connect_failures=" << connect_failures << "\n";

  std::ofstream out(bench_path);
  if (!out) throw std::runtime_error("cannot open " + bench_path);
  JsonWriter json(out);
  json.begin_object();
  json.kv("tool", "popbean-stress");
  json.key("config");
  json.begin_object();
  json.kv("target", connect->to_string());
  json.kv("jobs", total_jobs);
  json.kv("connections", connections);
  json.kv("rate", rate);
  json.kv("net_chaos", net_chaos);
  json.kv("net_chaos_kind", kind_text);
  json.kv("net_chaos_seed", net_chaos_seed);
  json.kv("n", shape.n);
  json.kv("eps", shape.eps);
  json.kv("replicates", static_cast<std::uint64_t>(shape.replicates));
  json.kv("replicas", static_cast<std::uint64_t>(shape.replicas));
  json.kv("deadline_ms", shape.deadline_ms);
  json.kv("seed", shape.seed);
  json.end_object();
  json.key("totals");
  json.begin_object();
  json.kv("submitted", static_cast<std::uint64_t>(submitted));
  for (const auto& [outcome, count] : tally.all.by_outcome) {
    json.kv(outcome, count);
  }
  json.kv("responses", static_cast<std::uint64_t>(responses));
  json.kv("connect_failures", static_cast<std::uint64_t>(connect_failures));
  json.end_object();
  json.key("ledger");
  json.begin_object();
  json.kv("missing", static_cast<std::uint64_t>(missing));
  json.kv("duplicates", static_cast<std::uint64_t>(duplicates));
  json.kv("unknown", static_cast<std::uint64_t>(excess_unknown));
  json.kv("invalid", invalid);
  json.end_object();
  Histogram latency_hist = Histogram::logarithmic(1e-2, 1e5, 36);
  for (const double ms : tally.all.latency_ms) latency_hist.add(ms);
  json.key("latency_ms");
  json.begin_object();
  write_latency(json, tally.all.latency_ms);
  json.key("histogram");
  latency_hist.write_json(json);
  json.end_object();
  json.key("vote");
  json.begin_object();
  json.kv("voted_responses", tally.votes.voted_responses);
  json.kv("voted_wrong", tally.votes.voted_wrong);
  json.kv("unvoted_wrong", tally.votes.unvoted_wrong);
  json.kv("divergent_responses", tally.votes.divergent_responses);
  json.kv("quarantined_responses", tally.votes.quarantined_responses);
  json.end_object();
  // Per-shard attribution from the v2 `shard` response label — who
  // actually served what.
  json.key("per_shard");
  json.begin_array();
  for (auto& [shard, shard_tally] : tally.by_shard) {
    json.begin_object();
    json.kv("shard", static_cast<std::uint64_t>(shard));
    json.kv("responses",
            static_cast<std::uint64_t>(shard_tally.latency_ms.size()));
    json.key("by_outcome");
    json.begin_object();
    for (const auto& [outcome, count] : shard_tally.by_outcome) {
      json.kv(outcome, count);
    }
    json.end_object();
    json.key("latency_ms");
    json.begin_object();
    write_latency(json, shard_tally.latency_ms);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.key("chaos_kinds");
  json.begin_object();
  for (const auto& [kind, count] : by_kind) json.kv(kind, count);
  json.end_object();
  json.key("connections_detail");
  json.begin_array();
  for (std::uint64_t c = 0; c < connections; ++c) {
    const TcpConnResult& result = results[c];
    json.begin_object();
    json.kv("connection", c);
    json.kv("kind", chaos_kind_name(result.kind));
    json.kv("strict", result.strict);
    json.kv("submitted", static_cast<std::uint64_t>(result.submitted));
    json.kv("responses", static_cast<std::uint64_t>(result.responses));
    json.kv("missing", static_cast<std::uint64_t>(result.missing));
    json.kv("duplicates", static_cast<std::uint64_t>(result.duplicates));
    json.kv("unknown", static_cast<std::uint64_t>(result.unknown));
    if (!result.error.empty()) json.kv("error", result.error);
    json.end_object();
  }
  json.end_array();
  json.kv("wall_s", load_s);
  json.kv("throughput_jobs_per_s",
          load_s > 0.0 ? static_cast<double>(responses) / load_s : 0.0);
  json.end_object();
  out << "\n";
  std::cout << "Report written to " << bench_path << "\n";
  return violated ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.check_known({"jobs", "connections", "rate", "n", "eps",
                      "replicates", "replicas", "deadline-ms", "seed",
                      "bench-out", "connect", "net-chaos", "net-chaos-kind",
                      "net-chaos-seed", "slow-byte-ms", "submitted-out",
                      "tcp-audit", "submitted", "ledger"});

    if (args.get_bool("tcp-audit", false)) return run_tcp_audit(args);

    const std::uint64_t total_jobs = args.get_uint64("jobs", 200);
    const std::uint64_t connections = args.get_uint64("connections", 1);
    if (connections < 1) {
      throw std::runtime_error("flag --connections: must be >= 1");
    }
    const double rate = args.get_double("rate", 50.0);
    if (rate < 0.0) throw std::runtime_error("flag --rate: must be >= 0");
    LoadShape shape;
    shape.n = args.get_uint64("n", 300);
    shape.eps = args.get_double("eps", 0.1);
    shape.replicates =
        static_cast<std::uint32_t>(args.get_uint64("replicates", 1));
    shape.replicas =
        static_cast<std::uint32_t>(args.get_uint64("replicas", 1));
    if (shape.replicas % 2 == 0) {
      throw std::runtime_error("flag --replicas: must be odd");
    }
    shape.deadline_ms = args.get_uint64("deadline-ms", 2000);
    shape.seed = args.get_uint64("seed", 0x57e55);
    return run_tcp_client(args, total_jobs, connections, rate, shape);
  } catch (const std::exception& e) {
    std::cerr << "popbean-stress: " << e.what() << "\n";
    return 2;
  }
}
