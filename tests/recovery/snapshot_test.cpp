// Two contracts of the recovery layer.
//
// Hand-over: on the clique the count vector is the whole state of the
// chain, so a counts-level engine rebuilt through its constructor from
// another engine's counts() retraces that engine's trajectory, step for
// step, when both continue on copies of the same driver rng. Engines keep
// no serialized form beside this.
//
// The capture container: a replay capture pair survives a file round trip,
// and corruption, truncation, foreign files, other container versions,
// trailing bytes and a header loaded as a log are refused as SnapshotError,
// never deserialized.
#include "recovery/snapshot.hpp"

#include <cstdio>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/skip_engine.hpp"
#include "recovery/event_log.hpp"
#include "temp_path.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace popbean {
namespace {

Counts avc_initial(const avc::AvcProtocol& protocol, std::uint64_t n) {
  return majority_instance_with_margin(protocol, n, n / 10, Opinion::A);
}

// Runs `steps` interactions (best effort: stops silently if absorbing).
template <typename E>
void advance(E& engine, Xoshiro256ss& rng, int steps) {
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t before = engine.steps();
    engine.step(rng);
    if (engine.steps() == before) break;
  }
}

// Takes an engine to step 400, rebuilds a second one from its counts(), and
// requires the rebuilt engine to retrace the original: the same counts and
// the same step deltas after every further step, on copies of one rng.
template <typename E>
void expect_rebuild_retraces(const avc::AvcProtocol& protocol) {
  Xoshiro256ss rng(4242, 7);
  E original(protocol, avc_initial(protocol, 200));
  advance(original, rng, 400);

  E rebuilt(protocol, original.counts());
  Xoshiro256ss rebuilt_rng = rng;
  const std::uint64_t handed_over_at = original.steps();
  ASSERT_GT(handed_over_at, 0u);
  EXPECT_EQ(rebuilt.steps(), 0u);
  EXPECT_EQ(rebuilt.counts(), original.counts());
  EXPECT_EQ(rebuilt.output_agents(1), original.output_agents(1));

  for (int i = 0; i < 300; ++i) {
    const std::uint64_t before = original.steps();
    original.step(rng);
    rebuilt.step(rebuilt_rng);
    ASSERT_EQ(rebuilt.steps(), original.steps() - handed_over_at)
        << "step " << i;
    ASSERT_EQ(rebuilt.counts(), original.counts()) << "step " << i;
    if (original.steps() == before) break;
  }
  EXPECT_GT(original.steps(), handed_over_at);
  EXPECT_EQ(rebuilt_rng(), rng());  // both consumed the same draws
}

TEST(SnapshotTest, CountEngineRoundTripsBitIdentically) {
  expect_rebuild_retraces<CountEngine<avc::AvcProtocol>>(
      avc::AvcProtocol(3, 1));
}

TEST(SnapshotTest, SkipEngineRoundTripsBitIdentically) {
  expect_rebuild_retraces<SkipEngine<avc::AvcProtocol>>(
      avc::AvcProtocol(3, 1));
}

recovery::CaptureHeader sample_header() {
  recovery::CaptureHeader header;
  header.protocol_text = "protocol text stands in for a .pbp table\n";
  header.invariant_name = "strong difference";
  header.invariant_weights = {1, -1, 0, 0};
  header.n = 200;
  header.seed = 20150721;
  header.stream = 3;
  header.max_interactions = 400000;
  header.rate = 0.01;
  header.epsilon = 0.1;
  header.initial = {120, 80, 0, 0};
  return header;
}

recovery::CaptureLog sample_log() {
  using recovery::ReplayEventKind;
  recovery::CaptureLog log;
  log.events = {
      {ReplayEventKind::kInteraction, 0, 1, 0},
      {ReplayEventKind::kCrash, 1, 1, 0},
      {ReplayEventKind::kInteraction, 0, 2, recovery::kInitiatorStuck},
      {ReplayEventKind::kCorrupt, 2, 3, 0},
  };
  log.outcome.status = RunStatus::kConverged;
  log.outcome.decided = 1;
  log.outcome.interactions = 2;
  log.outcome.violated = true;
  log.outcome.violation_step = 2;
  log.outcome.final_counts = {119, 79, 1, 1};
  return log;
}

// Writes `bytes` to `path` and reports whether load_capture_log refuses it.
bool log_file_refused(const std::string& path, std::string_view bytes) {
  write_file_atomic(path, bytes);
  try {
    recovery::load_capture_log(path);
  } catch (const recovery::SnapshotError&) {
    return true;
  }
  return false;
}

TEST(SnapshotTest, FileRoundTripIsAtomicAndValidated) {
  const std::string header_path =
      unique_temp_path("popbean_capture_header", ".pbsn");
  const std::string log_path = unique_temp_path("popbean_capture_log", ".pbsn");
  const recovery::CaptureHeader header = sample_header();
  const recovery::CaptureLog log = sample_log();
  recovery::save_capture_files(header_path, log_path, header, log);
  // The staged copies were renamed into place, not left beside them.
  EXPECT_NE(std::remove((header_path + ".tmp").c_str()), 0);
  EXPECT_NE(std::remove((log_path + ".tmp").c_str()), 0);

  const recovery::CaptureHeader loaded =
      recovery::load_capture_header(header_path);
  EXPECT_EQ(loaded.protocol_text, header.protocol_text);
  EXPECT_EQ(loaded.invariant_name, header.invariant_name);
  EXPECT_EQ(loaded.invariant_weights, header.invariant_weights);
  EXPECT_EQ(loaded.n, header.n);
  EXPECT_EQ(loaded.seed, header.seed);
  EXPECT_EQ(loaded.stream, header.stream);
  EXPECT_EQ(loaded.max_interactions, header.max_interactions);
  EXPECT_EQ(loaded.rate, header.rate);
  EXPECT_EQ(loaded.epsilon, header.epsilon);
  EXPECT_EQ(loaded.initial, header.initial);

  const recovery::CaptureLog loaded_log = recovery::load_capture_log(log_path);
  EXPECT_EQ(loaded_log.events, log.events);
  EXPECT_EQ(loaded_log.outcome, log.outcome);

  // A second save replaces the pair whole.
  recovery::CaptureLog shorter = log;
  shorter.events.resize(1);
  recovery::save_capture_files(header_path, log_path, header, shorter);
  EXPECT_EQ(recovery::load_capture_log(log_path).events, shorter.events);
  std::remove(header_path.c_str());
  std::remove(log_path.c_str());
}

TEST(SnapshotTest, CorruptionIsRejectedNotDeserialized) {
  const std::string path = unique_temp_path("popbean_capture_log", ".pbsn");
  const std::string good = recovery::pack_blob(
      recovery::kCaptureLogKind, recovery::serialize_capture_log(sample_log()));

  // Bit rot anywhere in the payload fails the checksum.
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x20;
  EXPECT_TRUE(log_file_refused(path, flipped));

  // Truncation at any point is a SnapshotError, not a partial log.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 std::size_t{9}, std::size_t{20},
                                 good.size() - 1}) {
    EXPECT_TRUE(log_file_refused(path, std::string_view(good).substr(0, keep)))
        << "kept " << keep << " bytes";
  }

  // A foreign file fails on magic.
  EXPECT_TRUE(log_file_refused(path, "JSON{\"not\":\"a snapshot\"}"));

  // A container version other than this build's is refused: a future one,
  // and version 2.
  for (const char version : {static_cast<char>(0x7f), static_cast<char>(2)}) {
    std::string other = good;
    other[4] = version;  // version u32 starts after "PBSN"
    EXPECT_TRUE(log_file_refused(path, other)) << int{version};
  }

  // Trailing bytes after the checksum are corruption too.
  EXPECT_TRUE(log_file_refused(path, good + "x"));

  // The pristine file still loads.
  write_file_atomic(path, good);
  const recovery::CaptureLog loaded = recovery::load_capture_log(path);
  EXPECT_EQ(loaded.events, sample_log().events);
  EXPECT_EQ(loaded.outcome, sample_log().outcome);
  std::remove(path.c_str());
}

TEST(SnapshotTest, KindMismatchIsRefused) {
  // A capture header must not load as an event log.
  const std::string header_path =
      unique_temp_path("popbean_kind_header", ".pbsn");
  const std::string log_path = unique_temp_path("popbean_kind_log", ".pbsn");
  recovery::save_capture_files(header_path, log_path, sample_header(),
                               sample_log());
  try {
    recovery::load_capture_log(header_path);
    ADD_FAILURE() << "a header file loaded as a log";
  } catch (const recovery::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("kind is 'replay/initial'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(recovery::load_capture_log(log_path).events, sample_log().events);
  std::remove(header_path.c_str());
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace popbean
