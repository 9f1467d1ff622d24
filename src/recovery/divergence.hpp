// Divergence capture for replicated voting (serve/replicate.hpp,
// DESIGN.md §12): when a voted job's minority replica ran under chaos
// corruption, freeze that exact replica run into a §7 capture pair so
// popbean-replay can reproduce the outvoted execution bit-exactly.
//
// This works because the service's corrupt replica path and
// record_perturbed_run construct the identical stack — Xoshiro256ss(seed,
// stream) and a PerturbedEngine over the same initial counts,
// with TransientCorruption + UniformSchedule drawing from streams split off
// that rng — and the interruptible runner is bit-identical to
// run_to_convergence when never interrupted. The capture
// is a *re-execution* with a recorder attached, done on the cold divergence
// path; it costs one extra run of the minority replica.
//
// Capture is best-effort: an oversized state space, an unwritable
// directory, or any recording failure yields std::nullopt and the job is
// served normally — divergence telemetry still carries the (seed, stream)
// pair, so the run stays reproducible by hand.
#pragma once

#include <cstdint>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>

#include "faults/fault_model.hpp"
#include "faults/schedule_model.hpp"
#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "recovery/event_log.hpp"
#include "recovery/record.hpp"
#include "verify/linear_invariant.hpp"

namespace popbean::recovery {

// Recording embeds the protocol as .pbp text (O(s²) δ enumeration); a
// programmatic zoo member with a huge closed universe is not worth that.
inline constexpr std::size_t kMaxCaptureStates = 4096;

struct DivergenceCapture {
  std::string header_path;
  std::string log_path;
};

// All-zero conserved quantity for families without a registered invariant:
// trivially preserved, so the capture's monitor never fires and the replay
// contract reduces to pure trajectory equality.
inline verify::LinearInvariant trivial_invariant(std::size_t num_states) {
  return verify::LinearInvariant(
      "trivial", std::vector<std::int64_t>(num_states, 0));
}

// `tag` becomes the file stem inside `dir` (sanitized; zoo family names
// contain ':').
template <ProtocolLike P>
std::optional<DivergenceCapture> record_divergent_replica(
    const P& protocol, const verify::LinearInvariant& invariant,
    const Counts& initial, double corrupt_rate, const RecordSpec& spec,
    const std::string& dir, const std::string& tag) {
  if (protocol.num_states() > kMaxCaptureStates) return std::nullopt;
  try {
    std::filesystem::create_directories(dir);
    std::string stem = tag;
    for (char& c : stem) {
      const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
      if (!safe) c = '_';
    }
    const RecordedRun recorded = record_perturbed_run(
        protocol, invariant, initial, faults::TransientCorruption(corrupt_rate),
        faults::UniformSchedule{}, spec);
    DivergenceCapture capture;
    capture.header_path = dir + "/" + stem + ".header.pbsn";
    capture.log_path = dir + "/" + stem + ".log.pbsn";
    save_capture_files(capture.header_path, capture.log_path, recorded.header,
                       recorded.log);
    return capture;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace popbean::recovery
