// Bounded priority admission queue with pluggable load shedding.
//
// The service's first line of defense against overload (DESIGN.md §9):
// queue growth is bounded by `capacity`, and when the bound is hit a shed
// policy decides *which* job loses — but some job always loses explicitly;
// there is no silent drop. Every push returns an AdmitResult the caller
// turns into either a queue entry or an `overloaded` response (possibly for
// a previously queued job that was evicted to make room).
//
// Policies:
//   * kRejectNewest   — the incoming job is rejected. Simplest and fair to
//     work already admitted; the default.
//   * kDeadlineAware  — prefer shedding the job least likely to make its
//     deadline: first any queued job whose deadline has already expired,
//     else whichever of {incoming, queued} has the soonest deadline (jobs
//     without deadlines are never preferred victims).
//   * kClientQuota    — like kRejectNewest, but additionally caps the
//     queued jobs per client key, so one chatty client cannot occupy the
//     whole queue even below capacity.
//
// Within the bound, pop() serves strict priority order (high before normal
// before low), FIFO within a priority class. The queue is NOT thread-safe:
// the JobService owns one and accesses it under its own mutex, which keeps
// the structure directly unit-testable.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "serve/job.hpp"
#include "util/backoff.hpp"
#include "util/check.hpp"

namespace popbean::serve {

enum class ShedPolicy { kRejectNewest, kDeadlineAware, kClientQuota };

inline const char* to_string(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kRejectNewest: return "reject-newest";
    case ShedPolicy::kDeadlineAware: return "deadline-aware";
    case ShedPolicy::kClientQuota: return "client-quota";
  }
  return "reject-newest";
}

// Inverse of to_string(ShedPolicy), for the --shed flag of the serve tools.
inline ShedPolicy parse_shed_policy(const std::string& text) {
  for (const ShedPolicy policy :
       {ShedPolicy::kRejectNewest, ShedPolicy::kDeadlineAware,
        ShedPolicy::kClientQuota}) {
    if (text == to_string(policy)) return policy;
  }
  throw std::runtime_error("flag --shed: unknown policy \"" + text + "\"");
}

struct AdmissionConfig {
  std::size_t capacity = 256;
  ShedPolicy policy = ShedPolicy::kRejectNewest;
  // Max queued jobs per client key under kClientQuota (0 = no per-client
  // cap). Jobs with an empty client key share one anonymous bucket.
  std::size_t per_client_quota = 0;
};

// A job at rest in the queue: the spec plus its resolved absolute deadline
// and admission timestamp.
struct QueuedJob {
  JobSpec spec;
  Deadline deadline;  // resolved at admission (spec.deadline or default)
  std::chrono::steady_clock::time_point admitted{};
  std::uint64_t sequence = 0;  // service-wide admission order
};

// Verdict of one push. Exactly one of these shapes:
//   admitted && !evicted  — the job is queued.
//   admitted &&  evicted  — the job is queued; `evicted` was shed to make
//                           room and must receive an `overloaded` response.
//   !admitted             — the incoming job was rejected with `reason`.
struct AdmitResult {
  bool admitted = false;
  std::string reason;
  std::optional<QueuedJob> evicted;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionConfig config) : config_(config) {
    POPBEAN_CHECK(config.capacity > 0);
  }

  const AdmissionConfig& config() const noexcept { return config_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return config_.capacity; }
  double occupancy() const noexcept {
    return static_cast<double>(size_) / static_cast<double>(config_.capacity);
  }

  AdmitResult push(QueuedJob job) {
    if (config_.policy == ShedPolicy::kClientQuota &&
        config_.per_client_quota > 0 &&
        client_counts_[job.spec.client] >= config_.per_client_quota) {
      return {false, "client_quota", std::nullopt};
    }
    if (size_ < config_.capacity) {
      enqueue(std::move(job));
      return {true, "", std::nullopt};
    }
    if (config_.policy == ShedPolicy::kDeadlineAware) {
      return push_deadline_aware(std::move(job));
    }
    return {false, "queue_full", std::nullopt};
  }

  // Highest priority first, FIFO within a class.
  std::optional<QueuedJob> pop() {
    for (int p = kNumPriorities - 1; p >= 0; --p) {
      auto& lane = lanes_[static_cast<std::size_t>(p)];
      if (lane.empty()) continue;
      QueuedJob job = std::move(lane.front());
      lane.pop_front();
      note_removed(job);
      return job;
    }
    return std::nullopt;
  }

  // Removes and returns the most recently admitted job of the lowest
  // populated priority class — the degradation ladder's final rung (shed
  // lowest priority first; within the class, newest first, since it has
  // waited least).
  std::optional<QueuedJob> shed_lowest() {
    for (auto& lane : lanes_) {
      if (lane.empty()) continue;
      QueuedJob job = std::move(lane.back());
      lane.pop_back();
      note_removed(job);
      return job;
    }
    return std::nullopt;
  }

 private:
  void enqueue(QueuedJob job) {
    const auto p = static_cast<std::size_t>(job.spec.priority);
    POPBEAN_CHECK(p < lanes_.size());
    ++client_counts_[job.spec.client];
    lanes_[p].push_back(std::move(job));
    ++size_;
  }

  void note_removed(const QueuedJob& job) {
    --size_;
    const auto it = client_counts_.find(job.spec.client);
    if (it != client_counts_.end() && --it->second == 0) {
      client_counts_.erase(it);
    }
  }

  AdmitResult push_deadline_aware(QueuedJob job) {
    const auto now = std::chrono::steady_clock::now();
    // Victim 1: any queued job already past its deadline — it will be
    // answered `timeout` anyway; shedding it now frees the slot for work
    // that can still succeed. Scan low priority lanes first.
    for (auto& lane : lanes_) {
      for (auto it = lane.begin(); it != lane.end(); ++it) {
        if (it->deadline.expired(now)) {
          QueuedJob victim = std::move(*it);
          lane.erase(it);
          note_removed(victim);
          enqueue(std::move(job));
          return {true, "", std::move(victim)};
        }
      }
    }
    // Victim 2: the soonest finite deadline among {queued, incoming} — the
    // job most likely to miss. Unlimited-deadline jobs are never preferred.
    Deadline soonest = job.deadline;
    std::size_t victim_lane = lanes_.size();
    std::deque<QueuedJob>::iterator victim_it;
    for (std::size_t p = 0; p < lanes_.size(); ++p) {
      for (auto it = lanes_[p].begin(); it != lanes_[p].end(); ++it) {
        if (it->deadline.time() < soonest.time()) {
          soonest = it->deadline;
          victim_lane = p;
          victim_it = it;
        }
      }
    }
    if (victim_lane == lanes_.size()) {
      // The incoming job itself has the soonest (or no finite) deadline.
      return {false, "queue_full", std::nullopt};
    }
    QueuedJob victim = std::move(*victim_it);
    lanes_[victim_lane].erase(victim_it);
    note_removed(victim);
    enqueue(std::move(job));
    return {true, "", std::move(victim)};
  }

  AdmissionConfig config_;
  // lanes_[priority]: FIFO per class, indexed by JobPriority's value.
  std::array<std::deque<QueuedJob>, kNumPriorities> lanes_;
  std::map<std::string, std::size_t> client_counts_;
  std::size_t size_ = 0;
};

}  // namespace popbean::serve
