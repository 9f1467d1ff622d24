// Crash-tolerant sweep: manifest round trip and corruption tolerance, the
// kill-mid-sweep → --resume merge-equality guarantee (a resumed sweep's
// aggregate is bit-identical to an uninterrupted run's), cancellation
// draining, and per-cell timeout accounting.
#include "harness/fault_sweep.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "faults/fault_model.hpp"
#include "faults/schedule_model.hpp"
#include "harness/checkpoint.hpp"
#include "temp_path.hpp"
#include "util/thread_pool.hpp"
#include "verify/builtin_invariants.hpp"

namespace popbean {
namespace {

FaultSweepConfig small_config() {
  FaultSweepConfig config;
  config.n = 100;
  config.epsilon = 0.1;
  config.replicates = 6;
  config.seed = 20150721;
  config.max_interactions = 200 * config.n;
  return config;
}

const std::vector<double> kRates = {0.0, 0.01};

FaultSweepOutcome recoverable_sweep(ThreadPool& pool,
                                    const FaultSweepRecovery& recovery,
                                    const FaultSweepConfig& config) {
  const avc::AvcProtocol protocol(3, 1);
  return run_fault_sweep_recoverable(
      pool, protocol, verify::avc_sum_invariant(protocol), "avc", kRates,
      config, recovery,
      [](double rate) { return faults::TransientCorruption(rate); },
      [] { return faults::UniformSchedule{}; });
}

void expect_points_identical(const std::vector<FaultSweepPoint>& a,
                             const std::vector<FaultSweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].rate, b[p].rate);
    EXPECT_EQ(a[p].summary.replicates, b[p].summary.replicates);
    EXPECT_EQ(a[p].summary.correct, b[p].summary.correct);
    EXPECT_EQ(a[p].summary.wrong, b[p].summary.wrong);
    EXPECT_EQ(a[p].summary.step_limit, b[p].summary.step_limit);
    EXPECT_EQ(a[p].summary.timed_out, b[p].summary.timed_out);
    EXPECT_EQ(a[p].summary.parallel_time.mean, b[p].summary.parallel_time.mean);
    EXPECT_EQ(a[p].counters.corruptions, b[p].counters.corruptions);
    EXPECT_EQ(a[p].violated, b[p].violated);
    EXPECT_EQ(a[p].violation_times, b[p].violation_times);  // bit-exact
  }
}

class ResumeTest : public ::testing::Test {
 protected:
  std::string manifest_ = unique_temp_path("popbean_resume_manifest", ".txt");
  void TearDown() override { std::remove(manifest_.c_str()); }
};

TEST_F(ResumeTest, ManifestRoundTripsCells) {
  const std::uint64_t fingerprint = 0x1234abcd;
  {
    ManifestWriter writer(manifest_, fingerprint, /*append=*/false);
    FaultCellOutcome cell;
    cell.result.status = RunStatus::kConverged;
    cell.result.decided = 1;
    cell.result.interactions = 4242;
    cell.counters.corruptions = 17;
    cell.violated = true;
    cell.violation_step = 99;
    writer.record(0, 3, cell);
    cell.timed_out = true;
    writer.record(1, 0, cell);
    writer.flush();
  }
  const ManifestCells cells = load_manifest(manifest_, fingerprint);
  ASSERT_EQ(cells.size(), 2u);
  const FaultCellOutcome& first = cells.at({0, 3});
  EXPECT_FALSE(first.timed_out);
  EXPECT_EQ(first.result.status, RunStatus::kConverged);
  EXPECT_EQ(first.result.decided, 1);
  EXPECT_EQ(first.result.interactions, 4242u);
  EXPECT_EQ(first.counters.corruptions, 17u);
  EXPECT_TRUE(first.violated);
  EXPECT_EQ(first.violation_step, 99u);
  EXPECT_TRUE(cells.at({1, 0}).timed_out);
}

TEST_F(ResumeTest, TruncatedAndCorruptManifestLinesAreDropped) {
  const std::uint64_t fingerprint = 7;
  {
    ManifestWriter writer(manifest_, fingerprint, false);
    FaultCellOutcome cell;
    writer.record(0, 0, cell);
    writer.record(0, 1, cell);
    writer.flush();
  }
  // Simulate a SIGKILL mid-append: a final line cut in half.
  {
    std::ifstream in(manifest_);
    std::stringstream all;
    all << in.rdbuf();
    std::string text = all.str();
    const std::size_t last_line = text.rfind("cell ");
    text.resize(last_line + 20);  // half a record, checksum gone
    std::ofstream out(manifest_, std::ios::trunc);
    out << text;
  }
  std::size_t dropped = 0;
  const ManifestCells cells = load_manifest(manifest_, fingerprint, &dropped);
  EXPECT_EQ(cells.size(), 1u);  // the intact line survives
  EXPECT_EQ(dropped, 1u);      // the truncated one is dropped, not misread
  EXPECT_TRUE(cells.contains({0, 0}));
}

TEST_F(ResumeTest, FingerprintMismatchRefusesToResume) {
  {
    ManifestWriter writer(manifest_, 1111, false);
    writer.flush();
  }
  try {
    load_manifest(manifest_, 2222);
    FAIL() << "expected SnapshotError";
  } catch (const recovery::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("refusing to resume"),
              std::string::npos);
  }
  // A non-manifest file is also refused.
  {
    std::ofstream out(manifest_, std::ios::trunc);
    out << "not a manifest\n";
  }
  EXPECT_THROW(load_manifest(manifest_, 1111), recovery::SnapshotError);
}

TEST_F(ResumeTest, RecoverableSweepMatchesPlainSweepExactly) {
  // Checkpointing every cell changes nothing in the aggregate: a sweep
  // without a manifest and one that writes every cell agree bit-for-bit.
  ThreadPool pool(2);
  const FaultSweepConfig config = small_config();
  const FaultSweepOutcome plain =
      recoverable_sweep(pool, FaultSweepRecovery{}, config);
  FaultSweepRecovery checkpointed;
  checkpointed.manifest_path = manifest_;
  checkpointed.checkpoint_every = 1;
  const FaultSweepOutcome recoverable =
      recoverable_sweep(pool, checkpointed, config);
  EXPECT_TRUE(plain.report.complete());
  EXPECT_TRUE(recoverable.report.complete());
  EXPECT_EQ(recoverable.report.completed, kRates.size() * config.replicates);
  expect_points_identical(plain.points, recoverable.points);
}

TEST_F(ResumeTest, KilledSweepResumesToBitIdenticalAggregate) {
  // The acceptance property, in-process: complete a sweep with a manifest,
  // truncate the manifest back to a prefix (what a SIGKILLed run leaves,
  // including a half-written final line), resume, and require the merged
  // aggregate to equal the uninterrupted run's bit-for-bit.
  ThreadPool pool(2);
  const FaultSweepConfig config = small_config();

  FaultSweepRecovery checkpointed;
  checkpointed.manifest_path = manifest_;
  checkpointed.checkpoint_every = 1;
  const FaultSweepOutcome full =
      recoverable_sweep(pool, checkpointed, config);
  EXPECT_TRUE(full.report.complete());
  EXPECT_EQ(full.report.completed, kRates.size() * config.replicates);

  // Keep header + fingerprint + 5 cells, then half of the 6th.
  std::vector<std::string> lines;
  {
    std::ifstream in(manifest_);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u + 6u);
  {
    std::ofstream out(manifest_, std::ios::trunc);
    for (std::size_t i = 0; i < 2 + 5; ++i) out << lines[i] << "\n";
    out << lines[2 + 5].substr(0, lines[2 + 5].size() / 2);  // torn write
  }

  FaultSweepRecovery resume = checkpointed;
  resume.resume = true;
  const FaultSweepOutcome resumed = recoverable_sweep(pool, resume, config);
  EXPECT_TRUE(resumed.report.complete());
  EXPECT_EQ(resumed.report.skipped, 5u);  // torn 6th line re-ran
  EXPECT_EQ(resumed.report.completed,
            kRates.size() * config.replicates - 5u);
  expect_points_identical(full.points, resumed.points);

  // The rewritten manifest now covers every cell: a second resume runs
  // nothing at all and still aggregates identically.
  const FaultSweepOutcome noop = recoverable_sweep(pool, resume, config);
  EXPECT_EQ(noop.report.skipped, kRates.size() * config.replicates);
  EXPECT_EQ(noop.report.completed, 0u);
  expect_points_identical(full.points, noop.points);
}

TEST_F(ResumeTest, CancellationDrainsWithoutRecordingPartialCells) {
  ThreadPool pool(2);
  const FaultSweepConfig config = small_config();
  std::atomic<bool> cancel{true};  // pre-set: drain immediately
  FaultSweepRecovery recovery;
  recovery.manifest_path = manifest_;
  recovery.run.cancel = &cancel;
  const FaultSweepOutcome outcome =
      recoverable_sweep(pool, recovery, config);
  EXPECT_TRUE(outcome.report.interrupted);
  EXPECT_FALSE(outcome.report.complete());
  EXPECT_EQ(outcome.report.completed, 0u);
  EXPECT_EQ(outcome.report.cancelled, kRates.size() * config.replicates);
  // Nothing fabricated: no cell present, nothing in the aggregate.
  for (const FaultSweepPoint& point : outcome.points) {
    EXPECT_EQ(point.summary.replicates, 0u);
  }

  // The drained manifest holds only the header — and the sweep completes
  // cleanly from it.
  cancel.store(false);
  FaultSweepRecovery resume = recovery;
  resume.resume = true;
  const FaultSweepOutcome resumed = recoverable_sweep(pool, resume, config);
  EXPECT_TRUE(resumed.report.complete());
  EXPECT_EQ(resumed.report.completed, kRates.size() * config.replicates);
}

TEST_F(ResumeTest, TimedOutCellsAreCountedNotFabricated) {
  ThreadPool pool(2);
  FaultSweepConfig config = small_config();
  config.n = 2000;
  config.max_interactions = 100'000'000;  // far beyond a 1 ms budget
  FaultSweepRecovery recovery;
  recovery.run.cell_timeout = std::chrono::milliseconds(1);
  recovery.run.max_retries = 1;
  recovery.run.stop_check_interval = 1024;
  recovery.run.watchdog_interval = std::chrono::milliseconds(50);
  const FaultSweepOutcome outcome =
      recoverable_sweep(pool, recovery, config);
  EXPECT_TRUE(outcome.report.complete());  // timed-out cells still complete
  EXPECT_GT(outcome.report.timed_out, 0u);
  std::size_t timed_out = 0;
  for (const FaultSweepPoint& point : outcome.points) {
    timed_out += point.summary.timed_out;
    // Timed-out replicates contribute no dynamics, only the tally.
    EXPECT_EQ(point.summary.replicates,
              point.summary.converged + point.summary.step_limit +
                  point.summary.absorbing + point.summary.timed_out);
  }
  EXPECT_EQ(timed_out, outcome.report.timed_out);
}

}  // namespace
}  // namespace popbean
