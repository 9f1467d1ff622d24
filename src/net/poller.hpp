// Poller: readiness multiplexing for the TCP front end (DESIGN.md §14).
//
// One interface over two mechanisms: epoll (level-triggered) where the
// kernel provides it, poll(2) everywhere else. The fallback is not
// decorative — it is the same code path tests exercise via force_poll, so
// a portability bug in the poll branch cannot hide behind epoll on the CI
// machines. Level-triggered on both sides keeps the server loop simple:
// readiness is re-reported until consumed, so a partial read or a short
// write never strands a connection.
//
// Not thread-safe: the event-loop thread owns the poller. Other threads
// wake it by writing to a registered self-pipe, never by touching the
// interest set.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <vector>

namespace popbean::net {

class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    // Error/hangup on the fd (POLLERR/POLLHUP/EPOLLERR/EPOLLHUP); the
    // owner should read to EOF / fail the connection.
    bool error = false;
  };

  // force_poll skips epoll even when available (tests, portability CI).
  explicit Poller(bool force_poll = false);
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // Registers fd with the given interest; fd must not already be present.
  void add(int fd, bool want_read, bool want_write);
  // Updates interest of a registered fd; a no-op when it is unchanged.
  void modify(int fd, bool want_read, bool want_write);
  // Deregisters fd (safe to call with an fd that was already closed —
  // the kernel drops closed fds from epoll sets on its own).
  void remove(int fd);

  // Blocks up to `timeout` for readiness. Returns the ready events
  // (empty on timeout); EINTR reads as a timeout. A negative timeout
  // blocks indefinitely.
  std::vector<Event> wait(std::chrono::milliseconds timeout);

  bool using_epoll() const noexcept { return epoll_fd_ >= 0; }
  std::size_t watched() const noexcept { return interest_.size(); }

 private:
  struct Interest {
    bool read = false;
    bool write = false;
  };

  int epoll_fd_ = -1;  // -1 = poll(2) fallback
  // Source of truth for the interest set; the poll fallback rebuilds its
  // pollfd array from it every wait, epoll uses it to validate add/modify.
  std::map<int, Interest> interest_;
};

}  // namespace popbean::net
