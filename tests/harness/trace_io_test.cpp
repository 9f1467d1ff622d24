#include "harness/trace_io.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "population/count_engine.hpp"
#include "protocols/voter.hpp"
#include "temp_path.hpp"
#include "util/rng.hpp"

namespace popbean {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string path_ = unique_temp_path("popbean_trace_test", ".csv");

  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<std::string> read_lines() {
    std::ifstream in(path_);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }
};

TEST_F(TraceIoTest, WritesHeaderAndOneRowPerPoint) {
  VoterProtocol protocol;
  Counts counts(2, 0);
  counts[VoterProtocol::kA] = 6;
  counts[VoterProtocol::kB] = 4;
  CountEngine<VoterProtocol> engine(protocol, counts);
  TraceRecorder recorder(
      {{"a_count", [](const Counts& c) { return static_cast<double>(c[0]); }},
       {"b_count", [](const Counts& c) { return static_cast<double>(c[1]); }}});
  Xoshiro256ss rng(1301);
  recorder.record(engine, rng, 5, 10'000'000);
  write_trace_csv(recorder, path_);

  const auto lines = read_lines();
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0], "parallel_time,interactions,a_count,b_count");
  EXPECT_EQ(lines.size(), recorder.points().size() + 1);
  // First data row is the initial configuration.
  EXPECT_NE(lines[1].find("0.000000,0,6.000000,4.000000"), std::string::npos);
}

TEST_F(TraceIoTest, FinalRowMatchesConvergedState) {
  VoterProtocol protocol;
  Counts counts(2, 0);
  counts[VoterProtocol::kA] = 9;
  counts[VoterProtocol::kB] = 1;
  CountEngine<VoterProtocol> engine(protocol, counts);
  TraceRecorder recorder(
      {{"a_count", [](const Counts& c) { return static_cast<double>(c[0]); }}});
  Xoshiro256ss rng(1302);
  const RunResult result = recorder.record(engine, rng, 3, 10'000'000);
  ASSERT_TRUE(result.converged());
  write_trace_csv(recorder, path_);
  const auto lines = read_lines();
  // Unanimous end state: a_count is 10 or 0.
  const std::string& last = lines.back();
  const bool all_a = last.find(",10.000000") != std::string::npos;
  const bool all_b = last.find(",0.000000") != std::string::npos;
  EXPECT_TRUE(all_a || all_b) << last;
}

TEST_F(TraceIoTest, ReadBackRoundTripsWrittenTrace) {
  VoterProtocol protocol;
  Counts counts(2, 0);
  counts[VoterProtocol::kA] = 6;
  counts[VoterProtocol::kB] = 4;
  CountEngine<VoterProtocol> engine(protocol, counts);
  TraceRecorder recorder(
      {{"a_count", [](const Counts& c) { return static_cast<double>(c[0]); }},
       {"b_count", [](const Counts& c) { return static_cast<double>(c[1]); }}});
  Xoshiro256ss rng(1303);
  recorder.record(engine, rng, 5, 10'000'000);
  write_trace_csv(recorder, path_);

  const LoadedTrace trace = read_trace_csv(path_);
  EXPECT_EQ(trace.observable_names,
            (std::vector<std::string>{"a_count", "b_count"}));
  EXPECT_EQ(trace.dropped_tail_rows, 0u);
  ASSERT_EQ(trace.points.size(), recorder.points().size());
  for (std::size_t i = 0; i < trace.points.size(); ++i) {
    const TracePoint& got = trace.points[i];
    const TracePoint& want = recorder.points()[i];
    EXPECT_EQ(got.interactions, want.interactions);
    // std::to_string prints 6 decimals; compare at that precision.
    EXPECT_NEAR(got.parallel_time, want.parallel_time, 1e-6);
    ASSERT_EQ(got.values.size(), want.values.size());
    for (std::size_t j = 0; j < got.values.size(); ++j) {
      EXPECT_NEAR(got.values[j], want.values[j], 1e-6);
    }
  }
}

class TraceReadTest : public TraceIoTest {
 protected:
  void write_file(const std::string& text) {
    std::ofstream out(path_, std::ios::trunc);
    out << text;
  }

  // Runs read_trace_csv expecting a failure whose message contains
  // `fragment` (diagnostics must name the file and the offending line).
  void expect_read_fail(const std::string& fragment,
                        bool tolerate_tail = false) {
    try {
      read_trace_csv(path_, tolerate_tail);
      FAIL() << "expected read_trace_csv to throw";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
  }
};

TEST_F(TraceReadTest, MissingFileAndMissingHeaderAreRejected) {
  std::remove(path_.c_str());
  expect_read_fail("cannot open trace CSV");
  write_file("");
  expect_read_fail("missing header row");
}

TEST_F(TraceReadTest, WrongHeaderIsRejected) {
  write_file("time,steps,a\n1,2,3\n");
  expect_read_fail("header must be");
  write_file("parallel_time,interactions\n");  // no observable columns
  expect_read_fail("header must be");
}

TEST_F(TraceReadTest, TruncatedFinalRowIsAnErrorByDefault) {
  // The signature of a SIGKILL mid-write: a final row cut short.
  write_file(
      "parallel_time,interactions,a\n"
      "0.000000,0,6.000000\n"
      "0.100000,1\n");
  expect_read_fail("line 3");
  expect_read_fail("truncated write?");
}

TEST_F(TraceReadTest, TolerateTruncatedTailDropsExactlyThatRow) {
  write_file(
      "parallel_time,interactions,a\n"
      "0.000000,0,6.000000\n"
      "0.100000,1,5.000000\n"
      "0.200000,2\n");
  const LoadedTrace trace = read_trace_csv(path_, true);
  EXPECT_EQ(trace.dropped_tail_rows, 1u);
  ASSERT_EQ(trace.points.size(), 2u);
  EXPECT_EQ(trace.points[1].interactions, 1u);
}

TEST_F(TraceReadTest, TolerateTailDoesNotExcuseMidFileCorruption) {
  // A short row that is *not* the last one is corruption, not truncation.
  write_file(
      "parallel_time,interactions,a\n"
      "0.000000,0\n"
      "0.100000,1,5.000000\n");
  expect_read_fail("line 2", /*tolerate_tail=*/true);
  // So is a row with too many cells, even at the tail.
  write_file(
      "parallel_time,interactions,a\n"
      "0.000000,0,6.000000,7.000000\n");
  expect_read_fail("row has 4 cells", /*tolerate_tail=*/true);
}

TEST_F(TraceReadTest, NonNumericCellsAreRejectedWithLineNumbers) {
  write_file(
      "parallel_time,interactions,a\n"
      "0.000000,0,6.000000\n"
      "abc,1,5.000000\n");
  expect_read_fail("bad parallel_time value 'abc'");
  write_file(
      "parallel_time,interactions,a\n"
      "0.000000,-3,6.000000\n");  // interactions cannot be negative
  expect_read_fail("bad interactions value '-3'");
  write_file(
      "parallel_time,interactions,a\n"
      "0.000000,0,6.0zz\n");  // trailing garbage in a cell
  expect_read_fail("bad observable value '6.0zz'");
}

TEST_F(TraceReadTest, UnterminatedQuoteIsRejected) {
  write_file(
      "parallel_time,interactions,a\n"
      "0.000000,0,\"6.000000\n");
  expect_read_fail("unterminated quoted cell");
}

}  // namespace
}  // namespace popbean
