// Poller (net/poller.hpp): readiness reporting, interest updates, timeout
// behavior — run against BOTH mechanisms (epoll and the poll(2) fallback),
// since the fallback is the path portability CI leans on (DESIGN.md §14).
#include "net/poller.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

namespace popbean::net {
namespace {

using namespace std::chrono_literals;

// Value-parameterized over force_poll so every test covers both mechanisms.
class PollerTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ASSERT_EQ(::pipe(fds_), 0);
  }
  void TearDown() override {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }

  int read_end() const { return fds_[0]; }
  int write_end() const { return fds_[1]; }

  static const Poller::Event* find(const std::vector<Poller::Event>& events,
                                   int fd) {
    const auto it = std::find_if(events.begin(), events.end(),
                                 [fd](const Poller::Event& e) {
                                   return e.fd == fd;
                                 });
    return it == events.end() ? nullptr : &*it;
  }

 private:
  int fds_[2] = {-1, -1};
};

TEST_P(PollerTest, MechanismMatchesRequest) {
  Poller poller(GetParam());
  if (GetParam()) {
    EXPECT_FALSE(poller.using_epoll());
  }
  // Unforced, either mechanism is legal (epoll expected on Linux, but the
  // contract is only "one of the two works").
}

TEST_P(PollerTest, TimeoutWhenNothingReady) {
  Poller poller(GetParam());
  poller.add(read_end(), /*want_read=*/true, /*want_write=*/false);
  const auto start = std::chrono::steady_clock::now();
  const auto events = poller.wait(50ms);
  EXPECT_TRUE(events.empty());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 40ms);
}

TEST_P(PollerTest, ReadReadinessIsLevelTriggered) {
  Poller poller(GetParam());
  poller.add(read_end(), true, false);
  ASSERT_EQ(::write(write_end(), "x", 1), 1);

  // Level-triggered: until the byte is consumed, every wait re-reports.
  for (int round = 0; round < 2; ++round) {
    const auto events = poller.wait(1000ms);
    const Poller::Event* e = find(events, read_end());
    ASSERT_NE(e, nullptr) << "round " << round;
    EXPECT_TRUE(e->readable);
    EXPECT_FALSE(e->writable);
  }
  char byte = 0;
  ASSERT_EQ(::read(read_end(), &byte, 1), 1);
  EXPECT_TRUE(poller.wait(20ms).empty());
}

TEST_P(PollerTest, WriteReadinessOnEmptyPipe) {
  Poller poller(GetParam());
  poller.add(write_end(), false, true);
  const auto events = poller.wait(1000ms);
  const Poller::Event* e = find(events, write_end());
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->writable);
}

TEST_P(PollerTest, ModifyChangesInterest) {
  Poller poller(GetParam());
  // Registered with no interest: data arriving must not wake us.
  poller.add(read_end(), false, false);
  ASSERT_EQ(::write(write_end(), "x", 1), 1);
  EXPECT_TRUE(poller.wait(20ms).empty());
  // Flip interest on: the same level-triggered state now reports.
  poller.modify(read_end(), true, false);
  const auto events = poller.wait(1000ms);
  ASSERT_NE(find(events, read_end()), nullptr);
}

TEST_P(PollerTest, ReapplyingTheSameInterestKeepsReporting) {
  Poller poller(GetParam());
  poller.add(read_end(), true, false);
  poller.modify(read_end(), true, false);  // unchanged: a no-op
  ASSERT_EQ(::write(write_end(), "x", 1), 1);
  const auto events = poller.wait(1000ms);
  const Poller::Event* e = find(events, read_end());
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->readable);
  // Turning interest off silences the pending byte, however often it is
  // re-applied...
  poller.modify(read_end(), false, false);
  poller.modify(read_end(), false, false);
  EXPECT_TRUE(poller.wait(20ms).empty());
  // ...and turning it back on reports the byte again.
  poller.modify(read_end(), true, false);
  poller.modify(read_end(), true, false);
  ASSERT_NE(find(poller.wait(1000ms), read_end()), nullptr);
  // Write interest goes through the same unchanged-interest check.
  poller.add(write_end(), false, false);
  poller.modify(write_end(), false, false);
  EXPECT_EQ(find(poller.wait(20ms), write_end()), nullptr);
  poller.modify(write_end(), false, true);
  ASSERT_NE(find(poller.wait(1000ms), write_end()), nullptr);
}

TEST_P(PollerTest, RemoveStopsReporting) {
  Poller poller(GetParam());
  poller.add(read_end(), true, false);
  EXPECT_EQ(poller.watched(), 1u);
  ASSERT_EQ(::write(write_end(), "x", 1), 1);
  poller.remove(read_end());
  EXPECT_EQ(poller.watched(), 0u);
  EXPECT_TRUE(poller.wait(20ms).empty());
}

TEST_P(PollerTest, PeerCloseSurfacesAsReadableOrError) {
  Poller poller(GetParam());
  poller.add(read_end(), true, false);
  ::close(write_end());
  const auto events = poller.wait(1000ms);
  const Poller::Event* e = find(events, read_end());
  ASSERT_NE(e, nullptr);
  // EOF on a pipe arrives as POLLHUP/EPOLLHUP (error) and/or readable —
  // either way the owner's read loop runs and sees the EOF.
  EXPECT_TRUE(e->readable || e->error);
}

TEST_P(PollerTest, TracksManyFds) {
  Poller poller(GetParam());
  int extra[2] = {-1, -1};
  ASSERT_EQ(::pipe(extra), 0);
  poller.add(read_end(), true, false);
  poller.add(extra[0], true, false);
  EXPECT_EQ(poller.watched(), 2u);
  ASSERT_EQ(::write(extra[1], "y", 1), 1);
  const auto events = poller.wait(1000ms);
  EXPECT_EQ(find(events, read_end()), nullptr);
  ASSERT_NE(find(events, extra[0]), nullptr);
  poller.remove(extra[0]);
  poller.remove(read_end());
  ::close(extra[0]);
  ::close(extra[1]);
}

std::string mechanism_name(const ::testing::TestParamInfo<bool>& param) {
  return param.param ? "PollFallback" : "Native";
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, PollerTest, ::testing::Values(false, true),
                         mechanism_name);

}  // namespace
}  // namespace popbean::net
