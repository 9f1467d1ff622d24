// Replicated voting execution: run a job on k replicas with independent RNG
// streams and majority-vote the decision payloads, hailburst-style
// (vochart.c `vote_memory`: a replica's output counts only if its bytes
// match a strict majority of the replica set; an absent/aborted replica
// matches nothing).
//
// The voted payload is the *decision*, not the statistics. For an exact
// majority protocol every fault-free execution decides the correct output
// regardless of the RNG stream, so healthy replicas produce bit-identical
// payloads even though their trajectories (interactions, parallel time)
// differ; a corrupted replica that converges to the wrong answer — or fails
// to converge at all — produces different bytes and is outvoted. Stream-
// dependent statistics are reported from the winning replica only.
//
// Canonical payload format (little-endian, 2 bytes per statistical
// replicate, replicates in submission order):
//
//   byte 0: RunStatus   (0 converged / 1 step-limit / 2 absorbing)
//   byte 1: decision    (0 or 1 when converged, 0xff otherwise)
//
// Replica RNG streams: replica j's replicate r of attempt a draws from
// `Xoshiro256ss(spec.seed, replica_stream(a, r, j))`. Replica 0 reproduces
// the single-run stream layout exactly, so k = 1 is bit-identical to
// unreplicated execution. Any replica is reproducible offline from its
// (seed, stream) pair: an honest one through the dispatch point, by running
// with_engine(job_engine(s, n), ...) on that stream; a chaos-corrupt one,
// the only kind that can be recorded, via recovery::record_perturbed_run /
// popbean-replay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "population/run.hpp"
#include "serve/job.hpp"
#include "util/check.hpp"

namespace popbean::serve {

// Stream id for (attempt, statistical replicate, voting replica). The low
// 48 bits carry the pre-voting layout (attempt * 1'000'003 + replicate); the
// replica index occupies the top 16 bits so replica 0 is stream-compatible
// with unreplicated builds.
inline std::uint64_t replica_stream(std::uint64_t attempt, std::uint32_t replicate,
                                    std::uint32_t replica) {
  return (static_cast<std::uint64_t>(replica) << 48) |
         ((attempt * 1'000'003ULL + replicate) & ((1ULL << 48) - 1));
}

// One replica's voted bytes plus the stats needed if it wins the vote.
struct ReplicaPayload {
  std::vector<std::uint8_t> bytes;  // canonical decision payload
  JobResult result;                 // aggregated stats across replicates
  bool corrupt = false;             // ran under chaos corruption
  // Per-replicate streams, parallel to 2-byte payload groups; used to name
  // the exact diverging run in telemetry/captures.
  std::vector<std::uint64_t> streams;
};

inline void append_decision(std::vector<std::uint8_t>& bytes,
                            const RunResult& run) {
  bytes.push_back(static_cast<std::uint8_t>(run.status));
  const bool converged = run.status == RunStatus::kConverged;
  bytes.push_back(converged ? static_cast<std::uint8_t>(run.decided ? 1 : 0)
                            : std::uint8_t{0xff});
}

// Outcome of a majority vote over k replica slots. Slots holding
// std::nullopt are abandoned replicas (deadline-killed or shutdown) and
// match nothing, per the hailburst convention.
struct VoteOutcome {
  bool voted = false;          // k > 1 (a real vote happened)
  bool majority_found = false;
  std::uint32_t winner = 0;    // index of first majority member (if found)
  std::uint32_t agreeing = 0;  // replicas matching the winner (incl. itself)
  std::uint32_t divergent = 0; // non-null replicas disagreeing with winner
  std::uint32_t abandoned = 0; // null replicas
  std::vector<std::uint32_t> minority;  // indices of divergent replicas
};

// vote_memory-style majority: winner needs >= (1 + k) / 2 matching replicas
// out of the full slot count k (nulls never match, but still count toward
// the denominator — three replicas with one killed still need 2 votes).
inline VoteOutcome vote_payloads(
    const std::vector<std::optional<ReplicaPayload>>& replicas) {
  POPBEAN_CHECK(!replicas.empty());
  VoteOutcome outcome;
  const std::uint32_t k = static_cast<std::uint32_t>(replicas.size());
  outcome.voted = k > 1;
  const std::uint32_t needed = (1 + k) / 2;
  for (const auto& replica : replicas) {
    if (!replica) ++outcome.abandoned;
  }
  // Fast path: every slot present and byte-identical — unanimous.
  bool unanimous = outcome.abandoned == 0;
  for (std::uint32_t j = 1; unanimous && j < k; ++j) {
    unanimous = replicas[j]->bytes == replicas[0]->bytes;
  }
  if (unanimous) {
    outcome.majority_found = true;
    outcome.winner = 0;
    outcome.agreeing = k;
    return outcome;
  }
  // General case: count matches for each candidate until one clears the
  // threshold (k is small — this is the hailburst pairwise scan).
  for (std::uint32_t cand = 0; cand < k; ++cand) {
    if (!replicas[cand]) continue;
    std::uint32_t matches = 0;
    for (std::uint32_t j = 0; j < k; ++j) {
      if (replicas[j] && replicas[j]->bytes == replicas[cand]->bytes) ++matches;
    }
    if (matches >= needed) {
      outcome.majority_found = true;
      outcome.winner = cand;
      outcome.agreeing = matches;
      for (std::uint32_t j = 0; j < k; ++j) {
        if (replicas[j] && replicas[j]->bytes != replicas[cand]->bytes) {
          ++outcome.divergent;
          outcome.minority.push_back(j);
        }
      }
      return outcome;
    }
  }
  // No majority: every non-null replica is in a minority.
  for (std::uint32_t j = 0; j < k; ++j) {
    if (replicas[j]) {
      ++outcome.divergent;
      outcome.minority.push_back(j);
    }
  }
  return outcome;
}

// Index (within the winner/minority payload pair) of the first statistical
// replicate whose 2-byte decision group differs; used to pick which exact
// run to capture for replay. Returns nullopt for equal or malformed pairs.
inline std::optional<std::uint32_t> first_diverging_replicate(
    const ReplicaPayload& winner, const ReplicaPayload& minority) {
  const std::size_t groups =
      std::min(winner.bytes.size(), minority.bytes.size()) / 2;
  for (std::size_t g = 0; g < groups; ++g) {
    if (winner.bytes[2 * g] != minority.bytes[2 * g] ||
        winner.bytes[2 * g + 1] != minority.bytes[2 * g + 1]) {
      return static_cast<std::uint32_t>(g);
    }
  }
  if (winner.bytes.size() != minority.bytes.size()) {
    return static_cast<std::uint32_t>(groups);
  }
  return std::nullopt;
}

// Runs up to `replicas` slots sequentially on the calling worker thread and
// votes. The runner is called with the replica index and returns the
// payload, or std::nullopt for an abandoned replica (deadline / shutdown);
// abandonment of slot j skips slots j+1.. only if a majority is already
// impossible — otherwise later replicas still run so a vote can survive one
// killed worker.
class ReplicatedExecutor {
 public:
  explicit ReplicatedExecutor(std::uint32_t replicas) : replicas_(replicas) {
    POPBEAN_CHECK_MSG(replicas >= 1 && replicas % 2 == 1,
                      "vote replica count must be odd (even k cannot break "
                      "ties)");
  }

  std::uint32_t replicas() const noexcept { return replicas_; }

  template <typename RunReplicaFn>
  VoteOutcome execute(std::vector<std::optional<ReplicaPayload>>& slots,
                      RunReplicaFn&& run_replica) const {
    slots.clear();
    slots.resize(replicas_);
    std::uint32_t abandoned = 0;
    for (std::uint32_t j = 0; j < replicas_; ++j) {
      // Once a majority of slots is gone no vote can succeed; stop burning
      // worker time on a job that is already past its deadline.
      if (abandoned >= (1 + replicas_) / 2) break;
      slots[j] = run_replica(j);
      if (!slots[j]) ++abandoned;
    }
    return vote_payloads(slots);
  }

 private:
  std::uint32_t replicas_;
};

}  // namespace popbean::serve
