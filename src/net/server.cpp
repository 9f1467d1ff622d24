#include "net/server.hpp"

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/net_io.hpp"

namespace popbean::net {

namespace {
// Paces the deadline and idle sweep only; responses leave on a wake.
constexpr std::chrono::milliseconds kTick{25};
}

std::variant<serve::JobSpec, serve::JobResponse> decode_frame(
    const LineFramer::Frame& frame, serve::RequestReader& reader,
    std::size_t max_line_bytes) {
  serve::ParsedRequest parsed =
      frame.oversized
          ? serve::RequestError{"", "oversized frame at byte " +
                                        std::to_string(frame.offset) + " (" +
                                        std::to_string(frame.wire_size) +
                                        " bytes, limit " +
                                        std::to_string(max_line_bytes) + ")"}
          : reader.next(frame.line, frame.wire_size);
  if (auto* spec = std::get_if<serve::JobSpec>(&parsed)) {
    return std::move(*spec);
  }
  auto& error = std::get<serve::RequestError>(parsed);
  serve::JobResponse response;
  response.id = std::move(error.id);
  response.outcome = serve::JobOutcome::kInvalid;
  response.error = std::move(error.error);
  return response;
}

serve::JobResponse torn_frame_response(const LineFramer& framer) {
  serve::JobResponse response;
  response.outcome = serve::JobOutcome::kInvalid;
  response.error = "torn frame at byte " +
                   std::to_string(framer.partial_offset()) + " (" +
                   std::to_string(framer.partial_size()) +
                   " bytes without terminator)";
  return response;
}

TcpServer::TcpServer(TcpServerConfig config, SubmitFn submit,
                     ResponseFn on_local)
    : config_(std::move(config)),
      submit_(std::move(submit)),
      on_local_(std::move(on_local)),
      admit_gauge_(config_.admit_enter, config_.admit_exit) {
  POPBEAN_CHECK_MSG(submit_ != nullptr, "TcpServer: submit sink required");
  POPBEAN_CHECK_MSG(on_local_ != nullptr,
                    "TcpServer: local-response sink required");
  POPBEAN_CHECK_MSG(config_.max_connections >= 1,
                    "TcpServer: max_connections must be >= 1");
}

TcpServer::~TcpServer() { stop(); }

bool TcpServer::start(std::string* error) {
  netio::ignore_sigpipe();
  listen_fd_ = netio::listen_tcp(config_.listen, config_.backlog, error,
                                 &port_);
  if (listen_fd_ < 0) return false;
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    if (error != nullptr) *error = "pipe2 failed for the wakeup pipe";
    netio::close_fd(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  poller_ = std::make_unique<Poller>(config_.force_poll);
  poller_->add(listen_fd_, /*want_read=*/true, /*want_write=*/false);
  poller_->add(wake_read_, /*want_read=*/true, /*want_write=*/false);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void TcpServer::wake() {
  if (wake_write_ < 0) return;
  const char byte = 'w';
  ssize_t written = 0;
  do {
    written = ::write(wake_write_, &byte, 1);
  } while (written < 0 && errno == EINTR);
  // EAGAIN: the pipe is full, so the loop is already due to wake.
  POPBEAN_DCHECK(written == 1 || errno == EAGAIN);
}

void TcpServer::deliver(const serve::JobResponse& response) {
  {
    std::lock_guard lock(mutex_);
    auto it = conns_.find(response.origin);
    if (it == conns_.end()) {
      ++stats_.responses_dropped;
    } else {
      Connection& conn = it->second;
      if (conn.inflight > 0) --conn.inflight;
      if (conn.fd >= 0) {
        conn.outbuf += serve::job_response_line(response);
        ++stats_.responses_delivered;
      } else {
        // Tombstone: the socket died with this job in flight. The ledger
        // already heard the response through the front end's sink; the
        // client never will.
        ++stats_.responses_dropped;
      }
    }
  }
  wake();
}

void TcpServer::begin_drain() {
  {
    std::lock_guard lock(mutex_);
    draining_ = true;
  }
  wake();
}

bool TcpServer::drain(std::chrono::milliseconds budget) {
  begin_drain();
  std::unique_lock lock(mutex_);
  drain_cv_.wait_for(lock, budget, [this] { return all_quiescent_locked(); });
  return all_quiescent_locked();
}

void TcpServer::stop() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
  std::lock_guard lock(mutex_);
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) {
      by_fd_.erase(conn.fd);
      netio::close_fd(conn.fd);
      conn.fd = -1;
    }
  }
  conns_.clear();
  by_fd_.clear();
  poller_.reset();
  if (listen_fd_ >= 0) netio::close_fd(listen_fd_);
  if (wake_read_ >= 0) netio::close_fd(wake_read_);
  if (wake_write_ >= 0) netio::close_fd(wake_write_);
  listen_fd_ = wake_read_ = wake_write_ = -1;
}

TcpServer::Stats TcpServer::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t TcpServer::connection_count() const {
  std::lock_guard lock(mutex_);
  return by_fd_.size();
}

bool TcpServer::all_quiescent_locked() const {
  for (const auto& [id, conn] : conns_) {
    if (conn.inflight != 0 || !conn.outbuf.empty()) return false;
  }
  return true;
}

void TcpServer::loop() {
  bool drain_applied = false;
  for (;;) {
    std::vector<Poller::Event> events = poller_->wait(kTick);
    std::vector<serve::JobSpec> submits;
    std::vector<serve::JobResponse> locals;
    bool stopping = false;
    {
      std::lock_guard lock(mutex_);
      if (stop_) {
        stopping = true;
      } else {
        if (draining_ && !drain_applied) {
          drain_applied = true;
          accepting_ = false;
          poller_->remove(listen_fd_);
        }
        for (const Poller::Event& event : events) {
          if (event.fd == wake_read_) {
            char sink[256];
            while (netio::read_some(wake_read_, sink, sizeof sink).ok()) {
            }
            continue;
          }
          if (event.fd == listen_fd_) {
            if (accepting_) handle_accept();
            continue;
          }
          auto fit = by_fd_.find(event.fd);
          if (fit == by_fd_.end()) continue;
          auto cit = conns_.find(fit->second);
          if (cit == conns_.end()) continue;
          Connection& conn = cit->second;
          if ((event.readable || event.error) && conn.fd >= 0 &&
              conn.read_open) {
            handle_readable(conn);
          }
          if (conn.fd >= 0 && (event.writable || event.error) &&
              !conn.outbuf.empty()) {
            conn.write_blocked_since.reset();
            flush(conn);
          }
          if (event.error && conn.fd >= 0 && !conn.read_open &&
              conn.outbuf.empty()) {
            // Hard hangup with nothing left to move in either direction:
            // close now instead of spinning on a level-triggered error.
            close_connection(conn);
          }
        }
        sweep(Clock::now());
        submits.swap(staged_submits_);
        locals.swap(staged_local_);
        if (draining_) drain_cv_.notify_all();
      }
    }
    if (stopping) break;
    for (serve::JobSpec& spec : submits) submit_(std::move(spec));
    for (const serve::JobResponse& response : locals) on_local_(response);
  }
}

void TcpServer::handle_accept() {
  for (;;) {
    int client_fd = -1;
    const netio::IoResult result =
        netio::accept_client(listen_fd_, &client_fd);
    if (result.status != netio::IoStatus::kOk) return;
    ++stats_.accepted;
    const std::size_t live = by_fd_.size();
    const double occupancy =
        static_cast<double>(live + 1) /
        static_cast<double>(config_.max_connections);
    const bool latched = admit_gauge_.update(occupancy);
    if (draining_ || live >= config_.max_connections || latched) {
      ++stats_.admission_rejected;
      serve::JobResponse reject;
      reject.outcome = serve::JobOutcome::kOverloaded;
      reject.error = draining_ ? "draining" : "too_many_connections";
      const std::string line = serve::job_response_line(reject);
      (void)netio::write_some(client_fd, line.data(), line.size());
      netio::close_fd(client_fd);
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    auto [it, inserted] =
        conns_.emplace(id, Connection(config_.max_line_bytes));
    POPBEAN_CHECK_MSG(inserted, "TcpServer: duplicate connection id");
    Connection& conn = it->second;
    conn.id = id;
    conn.fd = client_fd;
    conn.last_activity = Clock::now();
    by_fd_[client_fd] = id;
    poller_->add(client_fd, /*want_read=*/true, /*want_write=*/false);
  }
}

void TcpServer::handle_readable(Connection& conn) {
  char buffer[65536];
  bool eof = false;
  bool failed = false;
  for (;;) {
    const netio::IoResult result =
        netio::read_some(conn.fd, buffer, sizeof buffer);
    if (result.status == netio::IoStatus::kOk) {
      stats_.bytes_read += result.bytes;
      conn.framer.feed(std::string_view(buffer, result.bytes));
      conn.last_activity = Clock::now();
      continue;
    }
    if (result.status == netio::IoStatus::kWouldBlock) break;
    if (result.status == netio::IoStatus::kClosed) {
      eof = true;
      break;
    }
    failed = true;  // abrupt reset
    break;
  }
  while (!conn.close_after_flush) {
    std::optional<LineFramer::Frame> frame = conn.framer.next();
    if (!frame.has_value()) break;
    auto decoded = decode_frame(*frame, conn.reader, config_.max_line_bytes);
    if (auto* spec = std::get_if<serve::JobSpec>(&decoded)) {
      ++stats_.frames;
      spec->origin = conn.id;
      ++conn.inflight;
      staged_submits_.push_back(std::move(*spec));
      continue;
    }
    synthesize(conn, std::get<serve::JobResponse>(std::move(decoded)));
    if (frame->oversized) {
      ++stats_.oversized_frames;
      conn.read_open = false;
      conn.close_after_flush = true;
    } else {
      ++stats_.frames;
      ++stats_.invalid_frames;
    }
  }
  if (conn.framer.has_partial()) {
    if (!conn.partial_since.has_value()) {
      conn.partial_since = Clock::now();
    }
  } else {
    conn.partial_since.reset();
  }
  if (failed) {
    close_connection(conn);
    return;
  }
  if (eof && conn.read_open) {
    conn.read_open = false;
    ++stats_.half_closed;
    if (conn.framer.has_partial()) note_torn(conn);
  }
  if (!conn.outbuf.empty()) flush(conn);
}

void TcpServer::synthesize(Connection& conn, serve::JobResponse response) {
  response.origin = conn.id;
  if (conn.fd >= 0) conn.outbuf += serve::job_response_line(response);
  staged_local_.push_back(std::move(response));
}

void TcpServer::note_torn(Connection& conn) {
  ++stats_.torn_frames;
  synthesize(conn, torn_frame_response(conn.framer));
  conn.partial_since.reset();
  conn.read_open = false;
  conn.close_after_flush = true;
}

void TcpServer::shed_slow(Connection& conn, const char* why) {
  ++stats_.slow_client_sheds;
  serve::JobResponse response;
  response.outcome = serve::JobOutcome::kFailed;
  response.error = why;
  response.origin = conn.id;
  // The socket is stalled or its buffer is full — the shed notice cannot
  // be written to it; it goes to the ledger only.
  staged_local_.push_back(std::move(response));
  close_connection(conn);
}

void TcpServer::flush(Connection& conn) {
  while (!conn.outbuf.empty()) {
    const netio::IoResult result =
        netio::write_some(conn.fd, conn.outbuf.data(), conn.outbuf.size());
    if (result.status == netio::IoStatus::kOk) {
      stats_.bytes_written += result.bytes;
      conn.outbuf.erase(0, result.bytes);
      conn.last_activity = Clock::now();
      continue;
    }
    if (result.status == netio::IoStatus::kWouldBlock) {
      if (!conn.write_blocked_since.has_value()) {
        conn.write_blocked_since = Clock::now();
      }
      return;
    }
    // EPIPE/ECONNRESET: the peer is gone; responses still in flight drain
    // into the tombstone.
    close_connection(conn);
    return;
  }
  conn.write_blocked_since.reset();
}

void TcpServer::close_connection(Connection& conn) {
  if (conn.fd >= 0) {
    poller_->remove(conn.fd);
    by_fd_.erase(conn.fd);
    netio::close_fd(conn.fd);
    conn.fd = -1;
    ++stats_.closed;
    admit_gauge_.update(static_cast<double>(by_fd_.size()) /
                        static_cast<double>(config_.max_connections));
  }
  conn.outbuf.clear();
  conn.read_open = false;
  conn.reading_paused = false;
  conn.partial_since.reset();
  conn.write_blocked_since.reset();
}

void TcpServer::sweep(Clock::time_point now) {
  for (auto& [id, conn] : conns_) {
    if (conn.fd < 0) continue;
    // Soft backpressure: a client not draining its responses stops being
    // read from well before it is shed.
    if (!conn.reading_paused &&
        conn.outbuf.size() > config_.max_write_buffer / 2) {
      conn.reading_paused = true;
    } else if (conn.reading_paused &&
               conn.outbuf.size() < config_.max_write_buffer / 4) {
      conn.reading_paused = false;
    }
    if (conn.outbuf.size() > config_.max_write_buffer) {
      shed_slow(conn, "slow_client");
      continue;
    }
    if (!conn.outbuf.empty()) {
      flush(conn);
      if (conn.fd < 0) continue;
    }
    if (!conn.outbuf.empty() && conn.write_blocked_since.has_value() &&
        now - *conn.write_blocked_since > config_.write_deadline) {
      shed_slow(conn, "slow_client");
      continue;
    }
    if (conn.read_open && conn.partial_since.has_value() &&
        now - *conn.partial_since > config_.read_deadline) {
      note_torn(conn);
    }
    if (conn.read_open && !draining_ && conn.inflight == 0 &&
        conn.outbuf.empty() && !conn.framer.has_partial() &&
        now - conn.last_activity > config_.idle_timeout) {
      ++stats_.idle_reaped;
      close_connection(conn);
      continue;
    }
    if ((!conn.read_open || conn.close_after_flush || draining_) &&
        conn.inflight == 0 && conn.outbuf.empty()) {
      close_connection(conn);
      continue;
    }
    update_interest(conn);
  }
  reap_tombstones();
}

void TcpServer::update_interest(Connection& conn) {
  if (conn.fd < 0) return;
  const bool want_read = conn.read_open && !conn.reading_paused &&
                         !conn.close_after_flush && !draining_;
  const bool want_write = !conn.outbuf.empty();
  poller_->modify(conn.fd, want_read, want_write);
}

void TcpServer::reap_tombstones() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->second.fd < 0 && it->second.inflight == 0) {
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace popbean::net
