// Deterministic record/replay event log (DESIGN.md §7).
//
// A recorded perturbed run is two artifacts:
//
//   * the *capture header* ("replay/initial" blob) — a self-contained
//     description of where the run started: the protocol itself (embedded as
//     .pbp text), the monitored invariant's weight vector, the instance
//     parameters, and the initial configuration. popbean-replay needs no
//     flags to interpret a capture;
//
//   * the *event log* ("replay/log" blob) — the step-level decisions of the
//     run in order: every applied fault event and every scheduled
//     interaction (as a state pair plus stubborn-suppression flags), closed
//     by the recorded outcome (decision, interaction count, first-violation
//     step, final configuration) against which a replay is verified
//     bit-exactly.
//
// The log deliberately stores *decisions*, not random draws: replay is pure
// data application (src/recovery/replay.hpp), so a fault schedule can be
// edited — in particular, shrunk by delta debugging — and re-applied without
// any generator in the loop.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_log.hpp"
#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "population/run.hpp"
#include "recovery/snapshot.hpp"
#include "util/binary_io.hpp"

namespace popbean::recovery {

inline constexpr std::string_view kCaptureHeaderKind = "replay/initial";
inline constexpr std::string_view kCaptureLogKind = "replay/log";

enum class ReplayEventKind : std::uint8_t {
  kInteraction = 0,  // scheduled interaction between two agent states
  kCrash = 1,
  kRecover = 2,
  kCorrupt = 3,
  kSignFlip = 4,
  kStick = 5,
};

inline constexpr std::uint8_t kInitiatorStuck = 1;
inline constexpr std::uint8_t kResponderStuck = 2;

std::string_view to_string(ReplayEventKind kind) noexcept;

struct ReplayEvent {
  ReplayEventKind kind = ReplayEventKind::kInteraction;
  // Interaction: (initiator state, responder state). Fault: (from, to).
  State a = 0;
  State b = 0;
  std::uint8_t flags = 0;  // interaction only: stubborn-suppression bits

  bool is_fault() const noexcept {
    return kind != ReplayEventKind::kInteraction;
  }

  friend bool operator==(const ReplayEvent&, const ReplayEvent&) = default;
};

// ReplayEventKind is FaultKind shifted up by one, behind kInteraction.
constexpr ReplayEventKind replay_kind(faults::FaultKind kind) {
  return static_cast<ReplayEventKind>(static_cast<std::uint8_t>(kind) + 1);
}

constexpr faults::FaultKind fault_kind(ReplayEventKind kind) {
  POPBEAN_DCHECK(kind != ReplayEventKind::kInteraction);
  return static_cast<faults::FaultKind>(static_cast<std::uint8_t>(kind) - 1);
}

static_assert(
    replay_kind(faults::FaultKind::kCrash) == ReplayEventKind::kCrash &&
    replay_kind(faults::FaultKind::kStick) == ReplayEventKind::kStick);

// Where the recorded run started, self-contained.
struct CaptureHeader {
  std::string protocol_text;                  // .pbp serialization
  std::string invariant_name;                 // monitored conservation law
  std::vector<std::int64_t> invariant_weights;
  std::uint64_t n = 0;
  std::uint64_t seed = 0;
  std::uint64_t stream = 0;
  std::uint64_t max_interactions = 0;
  double rate = 0.0;
  double epsilon = 0.0;
  Counts initial;
};

// The recorded run's observed outcome — replay must reproduce this exactly.
struct CaptureOutcome {
  RunStatus status = RunStatus::kStepLimit;
  Output decided = 0;
  std::uint64_t interactions = 0;
  bool violated = false;
  std::uint64_t violation_step = 0;
  Counts final_counts;

  friend bool operator==(const CaptureOutcome&, const CaptureOutcome&) =
      default;
};

struct CaptureLog {
  std::vector<ReplayEvent> events;
  CaptureOutcome outcome;
};

inline std::string serialize_capture_header(const CaptureHeader& header) {
  BinaryWriter out;
  out.str(header.protocol_text);
  out.str(header.invariant_name);
  out.u64(header.invariant_weights.size());
  for (const std::int64_t w : header.invariant_weights) out.i64(w);
  out.u64(header.n);
  out.u64(header.seed);
  out.u64(header.stream);
  out.u64(header.max_interactions);
  out.f64(header.rate);
  out.f64(header.epsilon);
  out.vec_u64(header.initial);
  return out.take();
}

inline CaptureHeader parse_capture_header(std::string_view payload,
                                          std::string_view source) {
  try {
    BinaryReader in(payload);
    CaptureHeader header;
    header.protocol_text = in.str();
    header.invariant_name = in.str();
    const std::uint64_t weights = in.u64();
    header.invariant_weights.reserve(weights);
    for (std::uint64_t i = 0; i < weights; ++i) {
      header.invariant_weights.push_back(in.i64());
    }
    header.n = in.u64();
    header.seed = in.u64();
    header.stream = in.u64();
    header.max_interactions = in.u64();
    header.rate = in.f64();
    header.epsilon = in.f64();
    header.initial = in.vec_u64();
    if (!in.at_end()) {
      throw SnapshotError(std::string(source) +
                          ": trailing bytes in capture header");
    }
    return header;
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    throw SnapshotError(std::string(source) + ": " + e.what());
  }
}

inline void write_outcome(BinaryWriter& out, const CaptureOutcome& outcome) {
  out.u8(static_cast<std::uint8_t>(outcome.status));
  out.i64(outcome.decided);
  out.u64(outcome.interactions);
  out.u8(outcome.violated ? 1 : 0);
  out.u64(outcome.violation_step);
  out.vec_u64(outcome.final_counts);
}

inline CaptureOutcome read_outcome(BinaryReader& in) {
  CaptureOutcome outcome;
  const std::uint8_t status = in.u8();
  POPBEAN_CHECK_MSG(status <= static_cast<std::uint8_t>(RunStatus::kAbsorbing),
                    "capture outcome status out of range");
  outcome.status = static_cast<RunStatus>(status);
  outcome.decided = static_cast<Output>(in.i64());
  outcome.interactions = in.u64();
  outcome.violated = in.u8() != 0;
  outcome.violation_step = in.u64();
  outcome.final_counts = in.vec_u64();
  return outcome;
}

inline std::string serialize_capture_log(const CaptureLog& log) {
  BinaryWriter out;
  out.u64(log.events.size());
  for (const ReplayEvent& event : log.events) {
    out.u8(static_cast<std::uint8_t>(event.kind));
    out.u32(event.a);
    out.u32(event.b);
    out.u8(event.flags);
  }
  write_outcome(out, log.outcome);
  return out.take();
}

inline CaptureLog parse_capture_log(std::string_view payload,
                                    std::string_view source) {
  try {
    BinaryReader in(payload);
    CaptureLog log;
    const std::uint64_t count = in.u64();
    // 10 bytes per event; reject impossible counts before allocating.
    if (count > in.remaining() / 10) {
      throw SnapshotError(std::string(source) +
                          ": event count exceeds log size (truncated?)");
    }
    log.events.resize(count);
    for (ReplayEvent& event : log.events) {
      const std::uint8_t kind = in.u8();
      POPBEAN_CHECK_MSG(
          kind <= static_cast<std::uint8_t>(ReplayEventKind::kStick),
          "replay event kind out of range");
      event.kind = static_cast<ReplayEventKind>(kind);
      event.a = in.u32();
      event.b = in.u32();
      event.flags = in.u8();
    }
    log.outcome = read_outcome(in);
    if (!in.at_end()) {
      throw SnapshotError(std::string(source) +
                          ": trailing bytes in capture log");
    }
    return log;
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    throw SnapshotError(std::string(source) + ": " + e.what());
  }
}

// File-level wrappers (atomic write, validated load).
inline void save_capture_files(const std::string& header_path,
                               const std::string& log_path,
                               const CaptureHeader& header,
                               const CaptureLog& log) {
  save_blob_file(header_path, kCaptureHeaderKind,
                 serialize_capture_header(header));
  save_blob_file(log_path, kCaptureLogKind, serialize_capture_log(log));
}

inline CaptureHeader load_capture_header(const std::string& path) {
  return parse_capture_header(load_payload_file(path, kCaptureHeaderKind),
                              path);
}

inline CaptureLog load_capture_log(const std::string& path) {
  return parse_capture_log(load_payload_file(path, kCaptureLogKind), path);
}

}  // namespace popbean::recovery
