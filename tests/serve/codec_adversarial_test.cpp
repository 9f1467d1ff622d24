// Adversarial byte streams against the strict serve codec (DESIGN.md §14):
// the same fixtures the TCP reader chews on, table-driven — frames split at
// every byte boundary, CRLF vs LF, over-cap lines, interleaved valid and
// garbage frames, seeded mutations of the fixtures — plus the remote-spill
// wire format's round trips (job_request_line / parse_job_response as strict
// inverses).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/framer.hpp"
#include "serve/codec.hpp"
#include "util/rng.hpp"

namespace popbean::serve {
namespace {

// The shared fixture table: what a hostile-but-plausible client might put
// on the wire, and what the strict reader must make of each line.
struct Fixture {
  const char* line;      // one frame, terminator excluded
  bool valid;            // parses into a JobSpec
  const char* id;        // expected spec/echoed id ("" when unsalvageable)
  const char* error_substring;  // expected rejection text (valid=false)
};

const Fixture kFixtures[] = {
    {R"({"v":2,"id":"good-1","protocol":"avc","n":64,"eps":0.25,"seed":7})",
     true, "good-1", ""},
    {R"({"v":1,"id":"good-v1"})", true, "good-v1", ""},
    {R"({"v":2,"id":"good-2","priority":"high","deadline_ms":250})", true,
     "good-2", ""},
    {"not json at all", false, "", "malformed JSON"},
    {"", false, "", "malformed JSON"},
    {"[1,2,3]", false, "", "must be a JSON object"},
    {R"({"v":2,"id":"typo","epz":0.1})", false, "typo", "unknown field"},
    {R"({"v":2,"id":""})", false, "", "must not be empty"},
    {R"({"v":2})", false, "", "\"id\": missing"},
    {R"({"id":"no-version"})", false, "no-version", "\"v\": missing"},
    {R"({"v":99,"id":"future"})", false, "future",
     "unsupported protocol version"},
    {R"({"v":2,"id":"bad-n","n":1})", false, "bad-n", "field \"n\""},
    {R"({"v":2,"id":"even","replicas":2})", false, "even", "must be odd"},
    {R"({"v":2,"id":"bad-prio","priority":"urgent"})", false, "bad-prio",
     "priority"},
    {R"({"v":2,"id":"trunc","n":)", false, "", "malformed JSON"},
};

std::string render_stream(const char* terminator) {
  std::string stream;
  for (const Fixture& fixture : kFixtures) {
    stream += fixture.line;
    stream += terminator;
  }
  return stream;
}

// Feeds `stream` split at one byte boundary through the framer + reader
// stack and checks every fixture's verdict and the running byte offsets.
void check_stream(const std::string& stream, std::size_t split,
                  std::size_t wire_terminator_size) {
  net::LineFramer framer(1 << 10);
  RequestReader reader;
  std::vector<ParsedRequest> results;
  std::vector<std::uint64_t> offsets;
  const auto consume = [&] {
    while (std::optional<net::LineFramer::Frame> frame = framer.next()) {
      ASSERT_FALSE(frame->oversized);
      offsets.push_back(frame->offset);
      results.push_back(reader.next(frame->line, frame->wire_size));
    }
  };
  framer.feed(std::string_view(stream).substr(0, split));
  consume();
  framer.feed(std::string_view(stream).substr(split));
  consume();

  const std::size_t count = std::size(kFixtures);
  ASSERT_EQ(results.size(), count) << "split at " << split;
  std::uint64_t expected_offset = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Fixture& fixture = kFixtures[i];
    EXPECT_EQ(offsets[i], expected_offset)
        << "fixture " << i << " split " << split;
    if (fixture.valid) {
      const auto* spec = std::get_if<JobSpec>(&results[i]);
      ASSERT_NE(spec, nullptr) << fixture.line;
      EXPECT_EQ(spec->id, fixture.id);
    } else {
      const auto* error = std::get_if<RequestError>(&results[i]);
      ASSERT_NE(error, nullptr) << fixture.line;
      EXPECT_EQ(error->id, fixture.id) << fixture.line;
      EXPECT_NE(error->error.find(fixture.error_substring), std::string::npos)
          << "\"" << error->error << "\" lacks \""
          << fixture.error_substring << "\" for " << fixture.line;
    }
    expected_offset += std::string_view(fixture.line).size() +
                       wire_terminator_size;
  }
  EXPECT_EQ(reader.bytes_consumed(), expected_offset);
}

TEST(CodecAdversarialTest, FixturesSplitAtEveryByteBoundaryLf) {
  const std::string stream = render_stream("\n");
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    check_stream(stream, split, 1);
    if (HasFatalFailure()) return;
  }
}

TEST(CodecAdversarialTest, FixturesSplitAtStridesCrlf) {
  // CRLF clients: content verdicts identical, wire offsets count the '\r'.
  const std::string stream = render_stream("\r\n");
  for (std::size_t split = 0; split <= stream.size(); split += 7) {
    check_stream(stream, split, 2);
    if (HasFatalFailure()) return;
  }
}

TEST(CodecAdversarialTest, DuplicateIdsAcrossInterleavedGarbage) {
  // Garbage between two uses of the same id must not reset the reader's
  // duplicate tracking, and the error must cite both byte offsets.
  net::LineFramer framer(1 << 10);
  RequestReader reader;
  framer.feed("{\"v\":2,\"id\":\"dup\"}\n@@garbage@@\n{\"v\":2,\"id\":\"dup\"}\n");
  std::vector<ParsedRequest> results;
  while (std::optional<net::LineFramer::Frame> frame = framer.next()) {
    results.push_back(reader.next(frame->line, frame->wire_size));
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<JobSpec>(results[0]));
  EXPECT_TRUE(std::holds_alternative<RequestError>(results[1]));
  const auto* dup = std::get_if<RequestError>(&results[2]);
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->id, "dup");
  EXPECT_NE(dup->error.find("duplicate job id"), std::string::npos)
      << dup->error;
  EXPECT_NE(dup->error.find("byte 0"), std::string::npos) << dup->error;
  // 19 bytes of first line + 12 of garbage = the duplicate's wire offset.
  EXPECT_NE(dup->error.find("byte 31"), std::string::npos) << dup->error;
}

TEST(CodecAdversarialTest, OverCapLineRejectedStreamRecovers) {
  // A line beyond the framer cap is dropped whole (content never reaches
  // the codec); the stream resynchronizes and later frames parse clean —
  // the TCP server's oversized-frame policy rides on exactly this.
  net::LineFramer framer(64);
  RequestReader reader;
  std::string huge = R"({"v":2,"id":"huge","client":")";
  huge.append(200, 'x');
  huge += "\"}";
  framer.feed(huge + "\n" + R"({"v":2,"id":"after"})" + "\n");
  std::optional<net::LineFramer::Frame> first = framer.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->oversized);
  EXPECT_EQ(first->wire_size, huge.size() + 1);
  std::optional<net::LineFramer::Frame> second = framer.next();
  ASSERT_TRUE(second.has_value());
  ASSERT_FALSE(second->oversized);
  const ParsedRequest parsed = reader.next(second->line, second->wire_size);
  const auto* spec = std::get_if<JobSpec>(&parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->id, "after");
}

// One seeded mutation of a fixture stream: a byte flip, an inserted byte
// (biased toward JSON punctuation and terminators), a deleted byte, or a
// doubled or stripped '\n'.
void mutate(std::string& stream, Xoshiro256ss& rng) {
  static constexpr char kBytes[] = "{}[]\":,\\\n\r 0-9.eEtrufalsn\x00\xff";
  const std::size_t at = stream.empty() ? 0 : rng.below(stream.size());
  const std::size_t newline = stream.find('\n', at);
  switch (rng.below(5)) {
    case 0:
      if (!stream.empty()) stream[at] ^= static_cast<char>(1 + rng.below(255));
      break;
    case 1:
      stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at),
                    kBytes[rng.below(sizeof kBytes - 1)]);
      break;
    case 2:
      if (!stream.empty()) stream.erase(at, 1);
      break;
    case 3:
      if (newline != std::string::npos) stream.insert(newline, 1, '\n');
      break;
    default:
      if (newline != std::string::npos) stream.erase(newline, 1);
      break;
  }
}

TEST(CodecAdversarialTest, SeededMutationsKeepOneVerdictPerFrame) {
  Xoshiro256ss rng(20150721);
  for (int iteration = 0; iteration < 40000; ++iteration) {
    std::string stream;
    for (std::uint64_t k = 1 + rng.below(6); k > 0; --k) {
      stream += kFixtures[rng.below(std::size(kFixtures))].line;
      stream += rng.below(4) == 0 ? "\r\n" : "\n";
    }
    for (std::uint64_t k = 1 + rng.below(4); k > 0; --k) mutate(stream, rng);

    // Fed in three chunks at random split points; the streams stay far
    // below the cap, so no frame is oversized.
    net::LineFramer framer(1 << 12);
    RequestReader reader;
    std::size_t frames = 0;
    std::uint64_t framed_bytes = 0;
    std::size_t fed = 0;
    for (int chunk = 0; chunk < 3; ++chunk) {
      const std::size_t end =
          chunk == 2 ? stream.size() : fed + rng.below(stream.size() - fed + 1);
      framer.feed(std::string_view(stream).substr(fed, end - fed));
      fed = end;
      while (std::optional<net::LineFramer::Frame> frame = framer.next()) {
        ASSERT_FALSE(frame->oversized);
        ASSERT_EQ(frame->offset, framed_bytes);
        ++frames;
        framed_bytes += frame->wire_size;
        const ParsedRequest verdict =
            reader.next(frame->line, frame->wire_size);
        ASSERT_EQ(reader.bytes_consumed(), framed_bytes);
        const auto* spec = std::get_if<JobSpec>(&verdict);
        if (spec == nullptr) {
          ASSERT_TRUE(std::holds_alternative<RequestError>(verdict));
          continue;
        }
        const std::string line = job_request_line(*spec);
        const ParsedRequest back = parse_job_request(line);
        const auto* again = std::get_if<JobSpec>(&back);
        ASSERT_NE(again, nullptr) << line << " <- " << frame->line;
        ASSERT_EQ(job_request_line(*again), line) << frame->line;
      }
    }
    ASSERT_EQ(frames, static_cast<std::size_t>(
                          std::count(stream.begin(), stream.end(), '\n')))
        << "iteration " << iteration;
    ASSERT_EQ(framed_bytes, stream.rfind('\n') + 1)
        << "iteration " << iteration;
  }
}

// ---- remote-spill wire format ------------------------------------------

TEST(CodecAdversarialTest, RequestLineRoundTripsDefaultSpec) {
  JobSpec spec;
  spec.id = "rt-default";
  const std::string line = job_request_line(spec);
  const ParsedRequest parsed = parse_job_request(line);
  const auto* back = std::get_if<JobSpec>(&parsed);
  ASSERT_NE(back, nullptr) << line;
  EXPECT_EQ(back->id, spec.id);
  EXPECT_EQ(back->protocol, spec.protocol);
  EXPECT_EQ(back->n, spec.n);
  EXPECT_EQ(back->trace_id, 0u);
}

TEST(CodecAdversarialTest, RequestLineRoundTripsFullSpecTraceRidesOriginDoesNot) {
  JobSpec spec;
  spec.id = "rt-full";
  spec.client = "alice";
  spec.protocol = "three-state";
  spec.n = 4096;
  spec.epsilon = 0.125;
  spec.seed = 99;
  spec.max_interactions = 123456;
  spec.replicates = 5;
  spec.vote_replicas = 3;
  spec.priority = JobPriority::kHigh;
  spec.deadline = std::chrono::milliseconds(1500);
  spec.trace_id = 0xdeadbeefu;
  spec.origin = 42;  // routing token: must NOT survive the wire
  const std::string line = job_request_line(spec);
  EXPECT_EQ(line.find("origin"), std::string::npos) << line;
  const ParsedRequest parsed = parse_job_request(line);
  const auto* back = std::get_if<JobSpec>(&parsed);
  ASSERT_NE(back, nullptr) << line;
  EXPECT_EQ(back->client, "alice");
  EXPECT_EQ(back->protocol, "three-state");
  EXPECT_EQ(back->n, 4096u);
  EXPECT_DOUBLE_EQ(back->epsilon, 0.125);
  EXPECT_EQ(back->seed, 99u);
  EXPECT_EQ(back->max_interactions, 123456u);
  EXPECT_EQ(back->replicates, 5u);
  EXPECT_EQ(back->vote_replicas, 3u);
  EXPECT_EQ(back->priority, JobPriority::kHigh);
  EXPECT_EQ(back->deadline.count(), 1500);
  EXPECT_EQ(back->trace_id, 0xdeadbeefu);  // trace rides the wire...
  EXPECT_EQ(back->origin, 0u);             // ...the routing token does not
}

TEST(CodecAdversarialTest, ResponseLineRoundTripsEveryOutcome) {
  const JobOutcome outcomes[] = {JobOutcome::kDone,       JobOutcome::kTruncated,
                                 JobOutcome::kTimeout,    JobOutcome::kFailed,
                                 JobOutcome::kOverloaded, JobOutcome::kInvalid};
  for (const JobOutcome outcome : outcomes) {
    JobResponse response;
    response.id = std::string("out-") + to_string(outcome);
    response.outcome = outcome;
    if (outcome == JobOutcome::kFailed) response.error = "remote_lost";
    if (outcome == JobOutcome::kDone || outcome == JobOutcome::kTruncated) {
      response.result.replicates_run = 3;
      response.result.converged = 2;
      response.result.correct = 2;
      response.result.wrong = 1;
      response.result.mean_parallel_time = 12.5;
    }
    response.attempts = 2;
    response.replicas_used = 3;
    response.voted = outcome == JobOutcome::kDone;
    response.divergent = 1;
    response.queue_ms = 0.25;
    response.run_ms = 8.75;
    response.trace_id = 0xabcdef12u;
    response.shard = 3;
    response.origin = 777;  // never serialized

    const std::string line = job_response_line(response);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find("origin"), std::string::npos) << line;
    std::string error;
    const std::optional<JobResponse> back =
        parse_job_response(std::string_view(line).substr(0, line.size() - 1),
                           &error);
    ASSERT_TRUE(back.has_value()) << error << " <- " << line;
    EXPECT_EQ(back->id, response.id);
    EXPECT_EQ(back->outcome, outcome);
    EXPECT_EQ(back->error, response.error);
    EXPECT_EQ(back->attempts, response.attempts);
    EXPECT_EQ(back->replicas_used, response.replicas_used);
    EXPECT_EQ(back->voted, response.voted);
    EXPECT_EQ(back->divergent, response.divergent);
    EXPECT_DOUBLE_EQ(back->queue_ms, response.queue_ms);
    EXPECT_DOUBLE_EQ(back->run_ms, response.run_ms);
    EXPECT_EQ(back->trace_id, response.trace_id);
    EXPECT_EQ(back->shard, response.shard);
    EXPECT_EQ(back->origin, 0u);
    if (outcome == JobOutcome::kDone || outcome == JobOutcome::kTruncated) {
      EXPECT_EQ(back->result.replicates_run, 3u);
      EXPECT_EQ(back->result.wrong, 1u);
      EXPECT_DOUBLE_EQ(back->result.mean_parallel_time, 12.5);
    }
  }
}

TEST(CodecAdversarialTest, ResponseParserIsStrict) {
  const struct {
    const char* line;
    const char* why;
  } rejects[] = {
      {"garbage", "malformed"},
      {R"({"v":2,"id":"x","outcome":"done","extra":1})", "unknown"},
      {R"({"v":2,"id":"x","outcome":"sideways"})", "outcome"},
      {R"({"v":2,"id":"x"})", "outcome"},
      {R"({"id":"x","outcome":"done"})", "\"v\""},
      {R"({"v":2,"outcome":"done"})", "\"id\""},
      {R"({"v":7,"id":"x","outcome":"done"})", "version"},
  };
  for (const auto& reject : rejects) {
    std::string error;
    EXPECT_FALSE(parse_job_response(reject.line, &error).has_value())
        << reject.line;
    EXPECT_NE(error.find(reject.why), std::string::npos)
        << "\"" << error << "\" lacks \"" << reject.why << "\" for "
        << reject.line;
  }
}

TEST(CodecAdversarialTest, ResponseParserAcceptsEmptyIdRejections) {
  // Server-synthesized rejections (garbage frames, admission refusals) are
  // attributable to no job and ship with id "" — the strict parser must
  // round-trip them, since write_job_response produces them.
  JobResponse reject;
  reject.outcome = JobOutcome::kOverloaded;
  reject.error = "too_many_connections";
  const std::string line = job_response_line(reject);
  std::string error;
  const auto parsed =
      parse_job_response(std::string_view(line).substr(0, line.size() - 1),
                         &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->id.empty());
  EXPECT_EQ(parsed->outcome, JobOutcome::kOverloaded);
  EXPECT_EQ(parsed->error, "too_many_connections");
}

}  // namespace
}  // namespace popbean::serve
