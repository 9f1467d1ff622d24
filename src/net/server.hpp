// TcpServer: the NDJSON-over-TCP front end of the job service
// (DESIGN.md §14).
//
// One event-loop thread multiplexes every client connection through a
// Poller (epoll, or poll under force_poll). Each connection carries the
// same strict v2 codec as the stdin front end — a LineFramer reassembles
// frames split at arbitrary byte boundaries, a per-connection
// RequestReader enforces byte-exact offsets and duplicate-id rejection —
// and every admitted spec is stamped with the connection's origin token so
// the terminal response finds its way back to the right socket.
//
// Connection lifecycle (the §14 state machine):
//
//   OPEN ──EOF──▶ HALF_CLOSED ──last response flushed──▶ CLOSED
//     │
//     ├─ oversized/torn frame ──▶ DOOMED (reject written, reads stop,
//     │                           close after flush + in-flight drain)
//     ├─ write stall / buffer overflow ──▶ SHED (failed("slow_client")
//     │                           ledgered, socket closed immediately)
//     └─ idle past idle_timeout with nothing pending ──▶ REAPED
//
// Robustness policies, all bounded and all counted in Stats:
//
//   * admission: a hard connection cap plus an OverloadHysteresis latch on
//     the connection count — rejected sockets get one best-effort
//     `overloaded` line, then close.
//   * backpressure: per-connection write buffers are bounded; past half
//     the cap the server stops reading from that connection (the client
//     feels TCP backpressure), past the cap or past write_deadline with
//     no progress the client is shed as slow.
//   * deadlines: a frame left torn (no terminator) longer than
//     read_deadline is rejected with its byte offset; idle connections
//     are reaped.
//   * exactly-one-response: a connection that dies with jobs in flight
//     keeps a tombstone entry until every response has come back (the
//     ledger hears them; the socket is gone, so they count as dropped).
//
// Threading: the loop thread owns sockets and connection state.
// deliver() may be called from any thread; it appends under the state
// mutex and wakes the loop with a write(2) of one byte on a self-pipe.
// The woken loop flushes within that pass; its 25 ms tick only paces the
// deadline and idle sweep. submit/on_local callbacks are invoked WITHOUT
// the state mutex held, so a synchronous rejection that re-enters
// deliver() cannot deadlock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "net/framer.hpp"
#include "net/poller.hpp"
#include "serve/codec.hpp"
#include "serve/health.hpp"
#include "serve/job.hpp"
#include "util/cli.hpp"

namespace popbean::net {

struct TcpServerConfig {
  HostPort listen;  // port 0 = ephemeral (read back via port())
  int backlog = 128;
  std::size_t max_connections = 256;  // hard admission cap
  // Connection-count hysteresis (serve/health.hpp): admission latches shut
  // at enter × max_connections and reopens at exit × max_connections.
  double admit_enter = 0.90;
  double admit_exit = 0.70;
  std::size_t max_line_bytes = 1 << 20;       // oversized-frame cutoff
  std::size_t max_write_buffer = 4u << 20;    // slow-client cutoff
  std::chrono::milliseconds idle_timeout{30'000};
  std::chrono::milliseconds read_deadline{10'000};   // torn-frame cutoff
  std::chrono::milliseconds write_deadline{10'000};  // write-stall cutoff
  bool force_poll = false;  // exercise the poll(2) fallback
};

// One frame through the strict codec, shared by every front end (a TCP
// connection and popbean-serve's stdin): the spec to submit, or the
// `invalid` response owed for an oversized frame or a codec error. After an
// oversized frame the caller stops reading the stream.
std::variant<serve::JobSpec, serve::JobResponse> decode_frame(
    const LineFramer::Frame& frame, serve::RequestReader& reader,
    std::size_t max_line_bytes);

// The `invalid` response owed for bytes left unterminated when a stream
// ends (or lingers past the read deadline): framer.has_partial() is true.
serve::JobResponse torn_frame_response(const LineFramer& framer);

class TcpServer {
 public:
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t admission_rejected = 0;  // cap / hysteresis / draining
    std::uint64_t frames = 0;              // complete frames seen
    std::uint64_t invalid_frames = 0;      // strict-codec rejections
    std::uint64_t oversized_frames = 0;
    std::uint64_t torn_frames = 0;         // EOF or deadline mid-frame
    std::uint64_t slow_client_sheds = 0;
    std::uint64_t idle_reaped = 0;
    std::uint64_t half_closed = 0;         // orderly client EOFs
    std::uint64_t responses_delivered = 0;
    std::uint64_t responses_dropped = 0;   // origin socket already gone
    std::uint64_t closed = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
  };

  // Hands an admitted spec (origin already stamped) to the router or
  // service; every submitted spec MUST produce exactly one deliver(),
  // possibly synchronously from inside this call.
  using SubmitFn = std::function<void(serve::JobSpec&&)>;
  // Observes every response the server synthesizes itself — invalid
  // frames, oversized/torn rejections, slow-client sheds — so the front
  // end can ledger and count them. The server writes them to the socket;
  // the callback must not call deliver().
  using ResponseFn = std::function<void(const serve::JobResponse&)>;

  TcpServer(TcpServerConfig config, SubmitFn submit, ResponseFn on_local);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds, listens, and starts the loop thread. False + *error on failure.
  bool start(std::string* error);
  // The bound port (meaningful after start(); resolves port 0).
  std::uint16_t port() const noexcept { return port_; }

  // Routes a terminal response to its origin connection. Thread-safe,
  // non-blocking (appends + wakes the loop).
  void deliver(const serve::JobResponse& response);

  // Stops accepting and stops reading; queued responses keep flushing.
  void begin_drain();
  // Waits up to `budget` for every connection to flush its responses and
  // drain its in-flight jobs. True = everything flushed.
  bool drain(std::chrono::milliseconds budget);
  // Joins the loop and closes every socket. Idempotent.
  void stop();

  Stats stats() const;
  std::size_t connection_count() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;  // -1 once closed (tombstone awaiting in-flight drain)
    LineFramer framer;
    serve::RequestReader reader;
    std::string outbuf;
    std::size_t inflight = 0;
    Clock::time_point last_activity;
    std::optional<Clock::time_point> partial_since;        // torn-frame timer
    std::optional<Clock::time_point> write_blocked_since;  // stall timer
    bool read_open = true;      // false after EOF / doom
    bool reading_paused = false;  // soft backpressure
    bool close_after_flush = false;

    explicit Connection(std::size_t max_line) : framer(max_line) {}
  };

  void loop();
  void handle_accept();
  void handle_readable(Connection& conn);
  void flush(Connection& conn);
  void sweep(Clock::time_point now);
  // Synthesizes a server-side response on `conn` (queued to the socket
  // when it is still writable) and stages it for on_local_.
  void synthesize(Connection& conn, serve::JobResponse response);
  void shed_slow(Connection& conn, const char* why);
  void note_torn(Connection& conn);
  // Closes the socket; keeps a tombstone entry while jobs are in flight.
  void close_connection(Connection& conn);
  void reap_tombstones();
  void update_interest(Connection& conn);
  void wake();
  bool all_quiescent_locked() const;

  TcpServerConfig config_;
  SubmitFn submit_;
  ResponseFn on_local_;

  int listen_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::uint16_t port_ = 0;
  std::unique_ptr<Poller> poller_;

  mutable std::mutex mutex_;  // conns_, by_fd_, stats_, flags
  std::condition_variable drain_cv_;
  std::map<std::uint64_t, Connection> conns_;
  std::map<int, std::uint64_t> by_fd_;
  std::uint64_t next_conn_id_ = 1;  // origin 0 = "no front end"
  serve::OverloadHysteresis admit_gauge_;
  Stats stats_;
  bool draining_ = false;
  bool accepting_ = true;
  bool stop_ = false;

  // Staged outside the lock: on_local_ notifications and submissions
  // collected while mutating connection state.
  std::vector<serve::JobResponse> staged_local_;
  std::vector<serve::JobSpec> staged_submits_;

  std::thread thread_;
};

}  // namespace popbean::net
