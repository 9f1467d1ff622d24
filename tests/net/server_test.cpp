// TcpServer (net/server.hpp): the connection state machine over a real
// loopback socket — request/response, strict-codec rejections, oversized
// and torn frames, idle reaping, admission control, half-close, slow-client
// shedding, and graceful drain (DESIGN.md §14).
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/framer.hpp"
#include "serve/codec.hpp"
#include "util/net_io.hpp"

namespace popbean::net {
namespace {

using namespace std::chrono_literals;

TcpServerConfig quick_config() {
  TcpServerConfig config;
  config.listen.host = "127.0.0.1";
  config.listen.port = 0;  // ephemeral; read back via port()
  config.max_connections = 8;
  config.idle_timeout = 10'000ms;
  config.read_deadline = 10'000ms;
  config.write_deadline = 10'000ms;
  return config;
}

serve::JobResponse done_response(const serve::JobSpec& spec) {
  serve::JobResponse response;
  response.id = spec.id;
  response.origin = spec.origin;
  response.trace_id = spec.trace_id;
  response.outcome = serve::JobOutcome::kDone;
  return response;
}

std::string request_line(const std::string& id) {
  serve::JobSpec spec;
  spec.id = id;
  spec.n = 64;
  spec.epsilon = 0.25;
  spec.seed = 11;
  return serve::job_request_line(spec) + "\n";
}

// A server whose submit sink echoes every job back synchronously (or holds
// it, for drain tests), plus a thread-safe record of on_local responses.
class Harness {
 public:
  explicit Harness(TcpServerConfig config, bool hold_jobs = false)
      : hold_jobs_(hold_jobs) {
    server_.emplace(
        std::move(config),
        [this](serve::JobSpec&& spec) {
          if (hold_jobs_) {
            std::lock_guard lock(mutex_);
            held_.push_back(std::move(spec));
            return;
          }
          server_->deliver(done_response(spec));
        },
        [this](const serve::JobResponse& response) {
          std::lock_guard lock(mutex_);
          locals_.push_back(response);
        });
    std::string error;
    started_ = server_->start(&error);
    EXPECT_TRUE(started_) << error;
  }

  // The loop thread invokes the callbacks above until it is joined; stop
  // the server before the ledgers those callbacks write into go away.
  ~Harness() { server_.reset(); }

  TcpServer& server() { return *server_; }
  bool started() const { return started_; }

  std::vector<serve::JobResponse> locals() {
    std::lock_guard lock(mutex_);
    return locals_;
  }

  // Jobs the submit sink has held since the last call, waiting up to 2 s
  // for the first one (the loop submits outside its lock, asynchronously).
  std::vector<serve::JobSpec> await_held() {
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    std::vector<serve::JobSpec> out;
    while (out.empty() && std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard lock(mutex_);
        out.swap(held_);
      }
      if (out.empty()) std::this_thread::sleep_for(1ms);
    }
    return out;
  }

 private:
  bool hold_jobs_;
  bool started_ = false;
  std::optional<TcpServer> server_;
  std::mutex mutex_;
  std::vector<serve::JobResponse> locals_;
  std::vector<serve::JobSpec> held_;
};

// A blocking client connection that reads NDJSON responses with a deadline.
class Client {
 public:
  explicit Client(std::uint16_t port) : framer_(1 << 20) {
    HostPort to;
    to.host = "127.0.0.1";
    to.port = port;
    std::string error;
    fd_ = netio::connect_tcp(to, 2000ms, &error);
    EXPECT_GE(fd_, 0) << error;
  }

  ~Client() { close(); }

  int fd() const { return fd_; }
  bool ok() const { return fd_ >= 0; }

  void close() {
    if (fd_ >= 0) netio::close_fd(fd_);
    fd_ = -1;
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

  // Abortive close: RST instead of FIN, so the server sees a hard reset.
  void reset() {
    linger lin{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lin, sizeof lin);
    close();
  }

  bool send(const std::string& bytes) {
    return netio::write_all(fd_, bytes).ok();
  }

  // Next response line within `timeout`; nullopt on timeout or EOF.
  std::optional<serve::JobResponse> read_response(
      std::chrono::milliseconds timeout = 5000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      if (std::optional<LineFramer::Frame> frame = framer_.next()) {
        std::string error;
        std::optional<serve::JobResponse> parsed =
            serve::parse_job_response(frame->line, &error);
        EXPECT_TRUE(parsed.has_value()) << frame->line << ": " << error;
        return parsed;
      }
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char buffer[4096];
      const netio::IoResult r = netio::read_some(fd_, buffer, sizeof buffer);
      if (r.ok()) {
        framer_.feed(std::string_view(buffer, r.bytes));
      } else if (r.status != netio::IoStatus::kWouldBlock) {
        return std::nullopt;  // closed / reset
      }
    }
  }

  // True once the server closes the connection (read returns EOF).
  bool await_eof(std::chrono::milliseconds timeout = 5000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char buffer[4096];
      const netio::IoResult r = netio::read_some(fd_, buffer, sizeof buffer);
      if (r.status == netio::IoStatus::kClosed) return true;
      if (r.ok()) framer_.feed(std::string_view(buffer, r.bytes));
      if (r.status == netio::IoStatus::kError) return true;
    }
    return false;
  }

 private:
  int fd_ = -1;
  LineFramer framer_;
};

// Both poller mechanisms drive the same state machine.
class TcpServerTest : public ::testing::TestWithParam<bool> {
 protected:
  TcpServerConfig config() {
    TcpServerConfig c = quick_config();
    c.force_poll = GetParam();
    return c;
  }
};

TEST_P(TcpServerTest, RequestGetsExactlyOneResponse) {
  Harness harness(config());
  ASSERT_TRUE(harness.started());
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send(request_line("job-1")));
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, "job-1");
  EXPECT_EQ(response->outcome, serve::JobOutcome::kDone);
  EXPECT_FALSE(client.read_response(200ms).has_value())
      << "second response for a single job";

  const TcpServer::Stats stats = harness.server().stats();
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_EQ(stats.responses_delivered, 1u);
  EXPECT_EQ(stats.invalid_frames, 0u);
}

// A response delivered from inside submit (on the loop thread) wakes the
// loop at once. Without the wake each round trip waits for the 25 ms tick,
// and 20 of them take at least 500 ms.
TEST_P(TcpServerTest, SynchronousRoundTripsDoNotWaitForTheTick) {
  Harness harness(config());
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    const std::string id = "sync-" + std::to_string(i);
    ASSERT_TRUE(client.send(request_line(id)));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->id, id);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 250ms);
}

// deliver() from another thread, as the router's workers call it, gets the
// response onto the socket without waiting for the tick.
TEST_P(TcpServerTest, DeliverFromAnotherThreadWakesTheLoop) {
  Harness harness(config(), /*hold_jobs=*/true);
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  std::chrono::steady_clock::duration waited{0};
  for (int i = 0; i < 10; ++i) {
    const std::string id = "held-" + std::to_string(i);
    ASSERT_TRUE(client.send(request_line(id)));
    const std::vector<serve::JobSpec> held = harness.await_held();
    ASSERT_EQ(held.size(), 1u);

    const auto delivered = std::chrono::steady_clock::now();
    harness.server().deliver(done_response(held[0]));
    const auto response = client.read_response();
    waited += std::chrono::steady_clock::now() - delivered;
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->id, id);
  }
  // Ten deliveries that each waited for the tick would take ~200 ms.
  EXPECT_LT(waited, 100ms);
}

TEST_P(TcpServerTest, FramesSplitAtArbitraryBoundariesReassemble) {
  Harness harness(config());
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  const std::string line = request_line("split-me");
  for (std::size_t i = 0; i < line.size(); i += 3) {
    ASSERT_TRUE(client.send(line.substr(i, 3)));
    std::this_thread::sleep_for(2ms);
  }
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, "split-me");
}

TEST_P(TcpServerTest, GarbageLineAnsweredInvalidAndLedgered) {
  Harness harness(config());
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send("@@not json@@\n"));
  const auto invalid = client.read_response();
  ASSERT_TRUE(invalid.has_value());
  EXPECT_EQ(invalid->outcome, serve::JobOutcome::kInvalid);
  EXPECT_NE(invalid->error.find("malformed"), std::string::npos)
      << invalid->error;

  // The connection survives strict-codec rejection: a valid job still runs.
  ASSERT_TRUE(client.send(request_line("after-garbage")));
  const auto ok = client.read_response();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->id, "after-garbage");
  EXPECT_EQ(ok->outcome, serve::JobOutcome::kDone);

  // The synthesized invalid reaches the ledger sink (the loop stages it
  // and notifies outside its lock, so poll briefly).
  std::vector<serve::JobResponse> locals;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (locals.empty() && std::chrono::steady_clock::now() < deadline) {
    locals = harness.locals();
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(locals.size(), 1u);  // only the synthesized invalid
  EXPECT_EQ(locals[0].outcome, serve::JobOutcome::kInvalid);
  EXPECT_EQ(harness.server().stats().invalid_frames, 1u);
}

TEST_P(TcpServerTest, DuplicateIdRejectedPerConnection) {
  Harness harness(config());
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send(request_line("twice")));
  ASSERT_TRUE(client.send(request_line("twice")));
  const auto first = client.read_response();
  const auto second = client.read_response();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->id, "twice");
  EXPECT_EQ(second->id, "twice");
  // One served, one rejected (order depends on job-vs-reject scheduling).
  const bool first_invalid = first->outcome == serve::JobOutcome::kInvalid;
  const bool second_invalid = second->outcome == serve::JobOutcome::kInvalid;
  EXPECT_NE(first_invalid, second_invalid);
  const std::string& error = first_invalid ? first->error : second->error;
  EXPECT_NE(error.find("duplicate job id"), std::string::npos) << error;
}

TEST_P(TcpServerTest, OversizedFrameRejectedWithOffsetThenDoomed) {
  TcpServerConfig c = config();
  c.max_line_bytes = 96;
  Harness harness(c);
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  // A valid job first, so the oversize offset is mid-stream, not zero.
  const std::string first = request_line("pre");
  ASSERT_LT(first.size(), c.max_line_bytes);
  ASSERT_TRUE(client.send(first));
  ASSERT_TRUE(client.read_response().has_value());

  ASSERT_TRUE(client.send(std::string(300, 'x') + "\n"));
  const auto reject = client.read_response();
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(reject->outcome, serve::JobOutcome::kInvalid);
  EXPECT_NE(reject->error.find("oversized frame at byte " +
                               std::to_string(first.size())),
            std::string::npos)
      << reject->error;
  EXPECT_TRUE(client.await_eof()) << "oversize must doom the connection";
  EXPECT_EQ(harness.server().stats().oversized_frames, 1u);
}

TEST_P(TcpServerTest, TornFrameCutOffAtReadDeadline) {
  TcpServerConfig c = config();
  c.read_deadline = 100ms;
  Harness harness(c);
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send("{\"v\":2,\"id\":\"to"));  // no terminator, ever
  const auto reject = client.read_response();
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(reject->outcome, serve::JobOutcome::kInvalid);
  EXPECT_NE(reject->error.find("torn frame at byte 0"), std::string::npos)
      << reject->error;
  EXPECT_TRUE(client.await_eof());
  EXPECT_EQ(harness.server().stats().torn_frames, 1u);
}

TEST_P(TcpServerTest, HalfCloseFlushesResponsesThenCloses) {
  Harness harness(config());
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send(request_line("last-words")));
  client.half_close();
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, "last-words");
  EXPECT_TRUE(client.await_eof());
  EXPECT_EQ(harness.server().stats().half_closed, 1u);
}

TEST_P(TcpServerTest, TornAtEofRejectedWithOffset) {
  Harness harness(config());
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  const std::string line = request_line("whole");
  ASSERT_TRUE(client.send(line));
  ASSERT_TRUE(client.send("{\"v\":2,\"id\":\"tor"));  // torn, then EOF
  client.half_close();
  // Exactly two responses: the served job and the torn-frame rejection.
  const auto a = client.read_response();
  const auto b = client.read_response();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  const serve::JobResponse& torn =
      a->outcome == serve::JobOutcome::kInvalid ? *a : *b;
  EXPECT_NE(torn.error.find("torn frame at byte " +
                            std::to_string(line.size())),
            std::string::npos)
      << torn.error;
  EXPECT_TRUE(client.await_eof());
}

TEST_P(TcpServerTest, IdleConnectionsReaped) {
  TcpServerConfig c = config();
  c.idle_timeout = 100ms;
  Harness harness(c);
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  EXPECT_TRUE(client.await_eof(3000ms)) << "idle connection never reaped";
  EXPECT_EQ(harness.server().stats().idle_reaped, 1u);
  EXPECT_EQ(harness.server().connection_count(), 0u);
}

TEST_P(TcpServerTest, AdmissionRejectsPastTheHysteresisGate) {
  TcpServerConfig c = config();
  c.max_connections = 4;
  c.admit_enter = 0.9;  // latches shut at the 4th concurrent connection
  c.admit_exit = 0.5;
  Harness harness(c);

  std::vector<std::unique_ptr<Client>> kept;
  for (int i = 0; i < 3; ++i) {
    kept.push_back(std::make_unique<Client>(harness.server().port()));
    ASSERT_TRUE(kept.back()->ok());
    // Prove admission with a served job (also defeats accept/poll races).
    ASSERT_TRUE(kept.back()->send(request_line("warm-" + std::to_string(i))));
    ASSERT_TRUE(kept.back()->read_response().has_value());
  }

  Client rejected(harness.server().port());
  ASSERT_TRUE(rejected.ok());
  const auto overload = rejected.read_response();
  ASSERT_TRUE(overload.has_value());
  EXPECT_EQ(overload->outcome, serve::JobOutcome::kOverloaded);
  EXPECT_EQ(overload->error, "too_many_connections");
  EXPECT_TRUE(rejected.await_eof());
  EXPECT_GE(harness.server().stats().admission_rejected, 1u);
}

TEST_P(TcpServerTest, SlowClientShedToTheLedgerOnly) {
  TcpServerConfig c = config();
  c.max_write_buffer = 1024;
  Harness harness(c, /*hold_jobs=*/true);
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send(request_line("flood")));
  const std::vector<serve::JobSpec> held = harness.await_held();
  ASSERT_EQ(held.size(), 1u);

  // A response bigger than the write-buffer cap, delivered to a client
  // that never reads: the sweep sheds the connection and the shed notice
  // goes to the ledger (the socket is beyond saving).
  serve::JobResponse big = done_response(held[0]);
  big.outcome = serve::JobOutcome::kFailed;
  big.error = std::string(4096, 'e');
  harness.server().deliver(big);

  const auto shed_deadline = std::chrono::steady_clock::now() + 3s;
  bool shed = false;
  while (!shed && std::chrono::steady_clock::now() < shed_deadline) {
    shed = harness.server().stats().slow_client_sheds > 0;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(shed);
  bool ledgered = false;
  for (const serve::JobResponse& r : harness.locals()) {
    ledgered = ledgered || r.error == "slow_client";
  }
  EXPECT_TRUE(ledgered) << "shed notice missing from the ledger";
}

TEST_P(TcpServerTest, ResponsesForDeadConnectionsCountDropped) {
  Harness harness(config(), /*hold_jobs=*/true);
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send(request_line("orphan")));
  const std::vector<serve::JobSpec> held = harness.await_held();
  ASSERT_EQ(held.size(), 1u);
  client.reset();  // dies abruptly with one job in flight → tombstone

  // Give the loop a moment to observe the reset before the late response.
  std::this_thread::sleep_for(100ms);
  harness.server().deliver(done_response(held[0]));

  const auto drop_deadline = std::chrono::steady_clock::now() + 3s;
  bool dropped = false;
  while (!dropped && std::chrono::steady_clock::now() < drop_deadline) {
    dropped = harness.server().stats().responses_dropped > 0;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(dropped);
  EXPECT_TRUE(harness.server().drain(2000ms))
      << "tombstone must clear once its in-flight response lands";
}

TEST_P(TcpServerTest, DrainStopsAcceptingFlushesInflightThenCloses) {
  Harness harness(config(), /*hold_jobs=*/true);
  Client client(harness.server().port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send(request_line("in-flight")));
  const std::vector<serve::JobSpec> held = harness.await_held();
  ASSERT_EQ(held.size(), 1u);

  harness.server().begin_drain();
  // New connections are never served while draining: the connect may land
  // in the kernel backlog, but no response ever comes back.
  Client late(harness.server().port());
  ASSERT_TRUE(late.ok());
  EXPECT_FALSE(late.send(request_line("too-late")) &&
               late.read_response(300ms).has_value());

  // The in-flight job still completes through the open connection.
  std::thread flusher([&harness, &held] {
    std::this_thread::sleep_for(50ms);
    harness.server().deliver(done_response(held[0]));
  });
  const auto response = client.read_response();
  flusher.join();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, "in-flight");
  EXPECT_TRUE(harness.server().drain(3000ms));
  EXPECT_TRUE(client.await_eof());
}

std::string mechanism_name(const ::testing::TestParamInfo<bool>& param) {
  return param.param ? "PollFallback" : "Native";
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, TcpServerTest,
                         ::testing::Values(false, true), mechanism_name);

}  // namespace
}  // namespace popbean::net
