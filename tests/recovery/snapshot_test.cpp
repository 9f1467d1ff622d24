// Snapshot/restore round-trip identity: a restored engine (plus driver rng)
// must be bit-identical to the original *going forward* — same counts after
// every subsequent step — on all three engines and the PerturbedEngine
// adapter. Also the blob container's corruption diagnostics.
#include "recovery/snapshot.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "faults/fault_model.hpp"
#include "faults/perturbed_engine.hpp"
#include "faults/schedule_model.hpp"
#include "population/agent_engine.hpp"
#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/skip_engine.hpp"
#include "protocols/four_state.hpp"
#include "protocols/tabulated.hpp"
#include "temp_path.hpp"
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

// The round-trip contract, checked step-by-step: snapshot after a prefix,
// restore into a freshly-constructed engine, and require the restored pair
// to retrace the original's exact trajectory.
template <typename E, typename MakeEngine>
void expect_roundtrip_identity(MakeEngine make_engine) {
  Xoshiro256ss rng(4242, 7);
  E original = make_engine(rng);
  advance(original, rng, 400);

  const std::string payload =
      recovery::snapshot_engine_bytes(original, rng);

  Xoshiro256ss replayed_rng(1);  // contents irrelevant: restore overwrites
  E restored = make_engine(replayed_rng);
  replayed_rng = Xoshiro256ss(1);
  recovery::restore_engine_bytes(payload, restored, replayed_rng);
  EXPECT_EQ(restored.steps(), original.steps());
  EXPECT_EQ(restored.counts(), original.counts());

  for (int i = 0; i < 300; ++i) {
    const std::uint64_t before = original.steps();
    original.step(rng);
    restored.step(replayed_rng);
    ASSERT_EQ(restored.steps(), original.steps()) << "step " << i;
    ASSERT_EQ(restored.counts(), original.counts()) << "step " << i;
    if (original.steps() == before) break;
  }
}

TEST(SnapshotTest, CountEngineRoundTripsBitIdentically) {
  const avc::AvcProtocol protocol(3, 1);
  expect_roundtrip_identity<CountEngine<avc::AvcProtocol>>(
      [&](Xoshiro256ss&) {
        return CountEngine<avc::AvcProtocol>(protocol,
                                             avc_initial(protocol, 200));
      });
}

TEST(SnapshotTest, AgentEngineRoundTripsBitIdentically) {
  const avc::AvcProtocol protocol(3, 1);
  expect_roundtrip_identity<AgentEngine<avc::AvcProtocol>>(
      [&](Xoshiro256ss&) {
        return AgentEngine<avc::AvcProtocol>(protocol,
                                             avc_initial(protocol, 200));
      });
}

TEST(SnapshotTest, SkipEngineRoundTripsBitIdentically) {
  const avc::AvcProtocol protocol(3, 1);
  expect_roundtrip_identity<SkipEngine<avc::AvcProtocol>>(
      [&](Xoshiro256ss&) {
        return SkipEngine<avc::AvcProtocol>(protocol,
                                            avc_initial(protocol, 200));
      });
}

TEST(SnapshotTest, PerturbedEngineRoundTripsWithSplitStreams) {
  // The adapter owns two extra rng streams (faults, schedule) plus the
  // frozen/stuck mirrors; all of it must survive the round trip, and so
  // must a schedule's own state (EpidemicRounds' round in progress).
  const FourStateProtocol protocol;
  Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state(Opinion::A)] = 120;
  initial[protocol.initial_state(Opinion::B)] = 80;
  using Perturbed =
      faults::PerturbedEngine<FourStateProtocol, faults::CrashRecovery,
                              faults::UniformSchedule>;
  expect_roundtrip_identity<Perturbed>([&](Xoshiro256ss& rng) {
    return faults::make_perturbed(protocol, initial,
                                  faults::CrashRecovery(0.01, 0.05),
                                  faults::UniformSchedule{}, rng);
  });
  // 207 agents: the snapshot falls mid-round.
  initial[protocol.initial_state(Opinion::A)] = 127;
  using Rounds =
      faults::PerturbedEngine<FourStateProtocol, faults::CrashRecovery,
                              faults::EpidemicRounds>;
  expect_roundtrip_identity<Rounds>([&](Xoshiro256ss& rng) {
    return faults::make_perturbed(protocol, initial,
                                  faults::CrashRecovery(0.01, 0.05),
                                  faults::EpidemicRounds{}, rng);
  });
}

TEST(SnapshotTest, FileRoundTripIsAtomicAndValidated) {
  const std::string path = unique_temp_path("popbean_snapshot_test", ".pbsn");
  const avc::AvcProtocol protocol(3, 1);
  CountEngine<avc::AvcProtocol> engine(protocol, avc_initial(protocol, 100));
  Xoshiro256ss rng(99);
  advance(engine, rng, 100);
  recovery::save_engine_snapshot(path, engine, rng);

  CountEngine<avc::AvcProtocol> restored(protocol, avc_initial(protocol, 100));
  Xoshiro256ss restored_rng(1);
  recovery::restore_engine_snapshot(path, restored, restored_rng);
  EXPECT_EQ(restored.counts(), engine.counts());
  EXPECT_EQ(restored.steps(), engine.steps());
  std::remove(path.c_str());
}

TEST(SnapshotTest, CorruptionIsRejectedNotDeserialized) {
  const std::string good =
      recovery::pack_blob("engine/count", "payload bytes here");

  // Bit rot anywhere in the payload fails the checksum.
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x20;
  EXPECT_THROW(recovery::unpack_blob(flipped, "test"),
               recovery::SnapshotError);

  // Truncation at any point is a SnapshotError, not a partial object.
  for (const std::size_t keep : {0u, 3u, 9u, 20u}) {
    EXPECT_THROW(recovery::unpack_blob(
                     std::string_view(good).substr(0, keep), "test"),
                 recovery::SnapshotError);
  }

  // A foreign file fails on magic.
  EXPECT_THROW(recovery::unpack_blob("JSON{\"not\":\"a snapshot\"}", "test"),
               recovery::SnapshotError);

  // An unsupported container version is refused: a future one, and
  // version 2, whose engine/perturbed payload carried a wrapped engine.
  for (const char version : {static_cast<char>(0x7f), static_cast<char>(2)}) {
    std::string other = good;
    other[4] = version;  // version u32 starts after "PBSN"
    EXPECT_THROW(recovery::unpack_blob(other, "test"),
                 recovery::SnapshotError);
  }

  // Trailing bytes after the checksum are corruption too.
  EXPECT_THROW(recovery::unpack_blob(good + "x", "test"),
               recovery::SnapshotError);

  // The pristine blob still parses.
  const recovery::Blob blob = recovery::unpack_blob(good, "test");
  EXPECT_EQ(blob.kind, "engine/count");
  EXPECT_EQ(blob.payload, "payload bytes here");
}

TEST(SnapshotTest, ProtocolIdentityMismatchIsRefused) {
  // Same engine type, compatible-looking payloads, different protocols: the
  // embedded identity string must refuse the pair before counts are read.
  const avc::AvcProtocol protocol(3, 1);
  CountEngine<avc::AvcProtocol> engine(protocol, avc_initial(protocol, 100));
  Xoshiro256ss rng(11);
  advance(engine, rng, 50);
  const std::string payload = recovery::snapshot_engine_bytes(engine, rng);

  const avc::AvcProtocol other(5, 1);
  CountEngine<avc::AvcProtocol> wrong(other, avc_initial(other, 100));
  Xoshiro256ss wrong_rng(11);
  EXPECT_THROW(recovery::restore_engine_bytes(payload, wrong, wrong_rng),
               recovery::SnapshotError);
}

TEST(SnapshotTest, IdentityIsStructuralAcrossTabulation) {
  // AvcProtocol(3,1) and its TabulatedProtocol re-encoding are the same δ on
  // the same dense ids, so a snapshot moves freely between them.
  const avc::AvcProtocol protocol(3, 1);
  CountEngine<avc::AvcProtocol> engine(protocol, avc_initial(protocol, 100));
  Xoshiro256ss rng(13);
  advance(engine, rng, 50);
  const std::string payload = recovery::snapshot_engine_bytes(engine, rng);

  const TabulatedProtocol frozen(protocol);
  ASSERT_EQ(protocol_identity(frozen), protocol_identity(protocol));
  CountEngine<TabulatedProtocol> restored(frozen, avc_initial(protocol, 100));
  Xoshiro256ss restored_rng(1);
  recovery::restore_engine_bytes(payload, restored, restored_rng);
  EXPECT_EQ(restored.counts(), engine.counts());
  EXPECT_EQ(restored.steps(), engine.steps());
}

TEST(SnapshotTest, UnknownIdentityIsAcceptedOnRestore) {
  // Hand-built payloads may not know the protocol; the sentinel passes.
  const avc::AvcProtocol protocol(3, 1);
  CountEngine<avc::AvcProtocol> engine(protocol, avc_initial(protocol, 100));
  Xoshiro256ss rng(17);
  advance(engine, rng, 50);
  std::string payload = recovery::snapshot_engine_bytes(engine, rng);

  // Rewrite the leading identity string with the sentinel.
  BinaryReader in(payload);
  in.str();  // skip the identity
  BinaryWriter out;
  out.str(recovery::kUnknownProtocolIdentity);
  std::string rest = payload.substr(payload.size() - in.remaining());
  CountEngine<avc::AvcProtocol> restored(protocol, avc_initial(protocol, 100));
  Xoshiro256ss restored_rng(1);
  recovery::restore_engine_bytes(out.take() + rest, restored, restored_rng);
  EXPECT_EQ(restored.counts(), engine.counts());
}

TEST(SnapshotTest, KindMismatchIsRefused) {
  // A CountEngine snapshot must not restore into a SkipEngine.
  const std::string path = unique_temp_path("popbean_kind_test", ".pbsn");
  const avc::AvcProtocol protocol(3, 1);
  CountEngine<avc::AvcProtocol> engine(protocol, avc_initial(protocol, 100));
  Xoshiro256ss rng(5);
  recovery::save_engine_snapshot(path, engine, rng);

  SkipEngine<avc::AvcProtocol> wrong(protocol, avc_initial(protocol, 100));
  Xoshiro256ss wrong_rng(5);
  EXPECT_THROW(recovery::restore_engine_snapshot(path, wrong, wrong_rng),
               recovery::SnapshotError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace popbean
