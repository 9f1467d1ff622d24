#include "net/poller.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/epoll.h>
#include <unistd.h>

#include "util/check.hpp"

namespace popbean::net {

namespace {

std::uint32_t epoll_mask(bool want_read, bool want_write) {
  std::uint32_t mask = 0;
  if (want_read) mask |= EPOLLIN;
  if (want_write) mask |= EPOLLOUT;
  return mask;
}

}  // namespace

Poller::Poller(bool force_poll) {
  if (!force_poll) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    // epoll_fd_ stays -1 on failure and the poll fallback takes over.
  }
}

Poller::~Poller() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Poller::add(int fd, bool want_read, bool want_write) {
  POPBEAN_CHECK_MSG(fd >= 0, "Poller::add: negative fd");
  POPBEAN_CHECK_MSG(interest_.find(fd) == interest_.end(),
                    "Poller::add: fd already registered");
  interest_[fd] = Interest{want_read, want_write};
  if (epoll_fd_ >= 0) {
    epoll_event ev{};
    ev.events = epoll_mask(want_read, want_write);
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void Poller::modify(int fd, bool want_read, bool want_write) {
  auto it = interest_.find(fd);
  POPBEAN_CHECK_MSG(it != interest_.end(),
                    "Poller::modify: fd not registered");
  // The server re-applies every connection's interest on each loop pass;
  // most passes change nothing, and skipping those saves an epoll_ctl.
  if (it->second.read == want_read && it->second.write == want_write) return;
  it->second = Interest{want_read, want_write};
  if (epoll_fd_ >= 0) {
    epoll_event ev{};
    ev.events = epoll_mask(want_read, want_write);
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
}

void Poller::remove(int fd) {
  if (interest_.erase(fd) == 0) return;
  if (epoll_fd_ >= 0) {
    epoll_event ev{};
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
  }
}

std::vector<Poller::Event> Poller::wait(std::chrono::milliseconds timeout) {
  const int timeout_ms =
      timeout.count() < 0
          ? -1
          : static_cast<int>(
                std::min<std::chrono::milliseconds::rep>(timeout.count(),
                                                         60'000));
  std::vector<Event> events;
  if (epoll_fd_ >= 0) {
    epoll_event ready[64];
    const int n = ::epoll_wait(epoll_fd_, ready, 64, timeout_ms);
    if (n <= 0) return events;  // timeout, or EINTR treated as one
    events.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      Event event;
      event.fd = ready[i].data.fd;
      event.readable = (ready[i].events & EPOLLIN) != 0;
      event.writable = (ready[i].events & EPOLLOUT) != 0;
      event.error = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      events.push_back(event);
    }
    return events;
  }
  std::vector<pollfd> fds;
  fds.reserve(interest_.size());
  for (const auto& [fd, want] : interest_) {
    pollfd p{};
    p.fd = fd;
    if (want.read) p.events |= POLLIN;
    if (want.write) p.events |= POLLOUT;
    fds.push_back(p);
  }
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n <= 0) return events;
  for (const pollfd& p : fds) {
    if (p.revents == 0) continue;
    Event event;
    event.fd = p.fd;
    event.readable = (p.revents & POLLIN) != 0;
    event.writable = (p.revents & POLLOUT) != 0;
    event.error = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    events.push_back(event);
  }
  return events;
}

}  // namespace popbean::net
