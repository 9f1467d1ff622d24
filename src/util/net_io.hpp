// Thin, signal-correct wrappers over the socket syscalls the serve stack
// uses (DESIGN.md §14).
//
// Three invariants every caller gets for free:
//
//   * EINTR never surfaces — every wrapper retries the syscall when a
//     signal interrupts it (the serve tools install SIGTERM/SIGUSR1
//     handlers, so interrupted syscalls are routine, not exceptional).
//   * SIGPIPE never fires — sends use MSG_NOSIGNAL, so writing to a peer
//     that already closed reports EPIPE through the return value instead
//     of killing the process (a dead client must never take the fleet
//     down with it).
//   * Every fd is created close-on-exec, so a future fork/exec in some
//     library cannot leak server sockets.
//
// Nonblocking-fd results are normalized: kWouldBlock for EAGAIN /
// EWOULDBLOCK / EINPROGRESS-style "not yet", kClosed for orderly EOF, and
// kError (with errno preserved in IoResult::error) for everything else —
// callers branch on the enum, never on errno spellings.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/cli.hpp"

namespace popbean::netio {

enum class IoStatus {
  kOk,          // `bytes` transferred (> 0)
  kWouldBlock,  // nonblocking fd has no data / no buffer space right now
  kClosed,      // orderly EOF (reads) — the peer shut its write side
  kError,       // hard failure; IoResult::error holds errno
};

struct IoResult {
  IoStatus status = IoStatus::kError;
  std::size_t bytes = 0;
  int error = 0;

  bool ok() const noexcept { return status == IoStatus::kOk; }
};

// Process-wide SIGPIPE ignore, for the one path MSG_NOSIGNAL cannot cover
// (stdout writes after a downstream pipe dies). Idempotent.
void ignore_sigpipe();

// fcntl helpers; return false (with errno intact) on failure.
bool set_nonblocking(int fd);
bool set_cloexec(int fd);
// TCP_NODELAY: NDJSON frames are small and latency-sensitive.
bool set_nodelay(int fd);

// EINTR-retrying read. On a nonblocking fd a dry read reports kWouldBlock.
IoResult read_some(int fd, char* buffer, std::size_t capacity);

// EINTR-retrying, SIGPIPE-free single send (MSG_NOSIGNAL). Sockets only:
// send() on a pipe fails with ENOTSOCK, so pipes take write(2). A full
// kernel buffer reports kWouldBlock; a vanished peer reports kError with
// EPIPE / ECONNRESET.
IoResult write_some(int fd, const char* data, std::size_t size);

// Writes the whole buffer on a *blocking* socket, retrying partial writes and
// EINTR. Returns kOk with bytes == data.size() only when everything was
// sent; on error, `bytes` is how much made it out before the failure (the
// remote-spill client uses this to tell "retryable: the frame never
// completed" from "at-most-once: the frame may have been consumed").
IoResult write_all(int fd, std::string_view data);

// EINTR-retrying accept; the returned fd is nonblocking + cloexec.
// kWouldBlock when the listen queue is empty.
IoResult accept_client(int listen_fd, int* client_fd);

// Binds and listens on `at` (numeric or resolvable host; port 0 picks an
// ephemeral port). Returns the listening fd (nonblocking + cloexec +
// SO_REUSEADDR) or -1 with a human-readable reason in *error.
// *bound_port, when non-null, receives the actual port (after an
// ephemeral bind).
int listen_tcp(const HostPort& at, int backlog, std::string* error,
               std::uint16_t* bound_port = nullptr);

// Connects to `to` with a wall-clock timeout (nonblocking connect + poll).
// Returns a *blocking* connected fd (cloexec, TCP_NODELAY) or -1 with the
// reason in *error.
int connect_tcp(const HostPort& to, std::chrono::milliseconds timeout,
                std::string* error);

// EINTR-safe close (EINTR on close is not retried — POSIX leaves the fd
// state unspecified and Linux always closes it; retrying can close a
// stranger's fd).
void close_fd(int fd) noexcept;

}  // namespace popbean::netio
