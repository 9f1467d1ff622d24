// Bounded priority admission queue (serve/admission.hpp): pop order,
// capacity bounds, the three shed policies, and their flag names.
#include "serve/admission.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>

namespace popbean::serve {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

QueuedJob job(std::string id, JobPriority priority = JobPriority::kNormal,
              std::string client = "", Deadline deadline = Deadline()) {
  QueuedJob q;
  q.spec.id = std::move(id);
  q.spec.priority = priority;
  q.spec.client = std::move(client);
  q.deadline = deadline;
  return q;
}

TEST(AdmissionTest, PopServesPriorityThenFifo) {
  AdmissionQueue queue({8, ShedPolicy::kRejectNewest, 0});
  EXPECT_TRUE(queue.push(job("low-1", JobPriority::kLow)).admitted);
  EXPECT_TRUE(queue.push(job("norm-1")).admitted);
  EXPECT_TRUE(queue.push(job("high-1", JobPriority::kHigh)).admitted);
  EXPECT_TRUE(queue.push(job("norm-2")).admitted);
  EXPECT_TRUE(queue.push(job("high-2", JobPriority::kHigh)).admitted);

  EXPECT_EQ(queue.pop()->spec.id, "high-1");
  EXPECT_EQ(queue.pop()->spec.id, "high-2");
  EXPECT_EQ(queue.pop()->spec.id, "norm-1");
  EXPECT_EQ(queue.pop()->spec.id, "norm-2");
  EXPECT_EQ(queue.pop()->spec.id, "low-1");
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_TRUE(queue.empty());
}

TEST(AdmissionTest, RejectNewestBouncesTheIncomingJobAtCapacity) {
  AdmissionQueue queue({2, ShedPolicy::kRejectNewest, 0});
  EXPECT_TRUE(queue.push(job("a")).admitted);
  EXPECT_TRUE(queue.push(job("b")).admitted);
  const AdmitResult result = queue.push(job("c", JobPriority::kHigh));
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(result.reason, "queue_full");
  EXPECT_FALSE(result.evicted.has_value());
  EXPECT_EQ(queue.size(), 2u);  // the admitted jobs were untouched
}

TEST(AdmissionTest, ClientQuotaCapsOneChattyClientBelowCapacity) {
  AdmissionQueue queue({8, ShedPolicy::kClientQuota, 2});
  EXPECT_TRUE(queue.push(job("a1", JobPriority::kNormal, "alice")).admitted);
  EXPECT_TRUE(queue.push(job("a2", JobPriority::kNormal, "alice")).admitted);
  const AdmitResult over = queue.push(job("a3", JobPriority::kNormal, "alice"));
  EXPECT_FALSE(over.admitted);
  EXPECT_EQ(over.reason, "client_quota");
  // Another client is unaffected, and popping frees quota.
  EXPECT_TRUE(queue.push(job("b1", JobPriority::kNormal, "bob")).admitted);
  ASSERT_TRUE(queue.pop().has_value());  // a1 leaves
  EXPECT_TRUE(queue.push(job("a4", JobPriority::kNormal, "alice")).admitted);
}

TEST(AdmissionTest, DeadlineAwareShedsAnAlreadyExpiredVictimFirst) {
  AdmissionQueue queue({2, ShedPolicy::kDeadlineAware, 0});
  const auto now = Clock::now();
  EXPECT_TRUE(
      queue.push(job("expired", JobPriority::kNormal, "",
                     Deadline::after(0ms, now - 1s)))
          .admitted);
  EXPECT_TRUE(queue.push(job("healthy")).admitted);
  const AdmitResult result =
      queue.push(job("fresh", JobPriority::kNormal, "",
                     Deadline::after(10min, now)));
  EXPECT_TRUE(result.admitted);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(result.evicted->spec.id, "expired");
  EXPECT_EQ(queue.size(), 2u);
}

TEST(AdmissionTest, DeadlineAwareShedsTheSoonestDeadlineWhenNoneExpired) {
  AdmissionQueue queue({2, ShedPolicy::kDeadlineAware, 0});
  const auto now = Clock::now();
  EXPECT_TRUE(queue.push(job("soon", JobPriority::kNormal, "",
                             Deadline::after(1min, now)))
                  .admitted);
  EXPECT_TRUE(queue.push(job("later", JobPriority::kNormal, "",
                             Deadline::after(10min, now)))
                  .admitted);
  const AdmitResult result = queue.push(job("mid", JobPriority::kNormal, "",
                                            Deadline::after(5min, now)));
  EXPECT_TRUE(result.admitted);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(result.evicted->spec.id, "soon");
}

TEST(AdmissionTest, DeadlineAwareRejectsIncomingWhenItIsTheWorstCandidate) {
  AdmissionQueue queue({2, ShedPolicy::kDeadlineAware, 0});
  const auto now = Clock::now();
  // Both queued jobs have no finite deadline — never preferred victims.
  EXPECT_TRUE(queue.push(job("forever-1")).admitted);
  EXPECT_TRUE(queue.push(job("forever-2")).admitted);
  const AdmitResult result = queue.push(job("rushed", JobPriority::kNormal, "",
                                            Deadline::after(1ms, now)));
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(result.reason, "queue_full");
  EXPECT_EQ(queue.size(), 2u);
}

TEST(AdmissionTest, ShedLowestTakesTheNewestOfTheLowestClass) {
  AdmissionQueue queue({8, ShedPolicy::kRejectNewest, 0});
  EXPECT_TRUE(queue.push(job("high", JobPriority::kHigh)).admitted);
  EXPECT_TRUE(queue.push(job("low-old", JobPriority::kLow)).admitted);
  EXPECT_TRUE(queue.push(job("low-new", JobPriority::kLow)).admitted);
  // Newest of the lowest lane goes first (it has waited least)…
  EXPECT_EQ(queue.shed_lowest()->spec.id, "low-new");
  EXPECT_EQ(queue.shed_lowest()->spec.id, "low-old");
  // …and only once the low lane is dry does the ladder eat upward.
  EXPECT_EQ(queue.shed_lowest()->spec.id, "high");
  EXPECT_FALSE(queue.shed_lowest().has_value());
}

TEST(AdmissionTest, OccupancyTracksSizeOverCapacity) {
  AdmissionQueue queue({4, ShedPolicy::kRejectNewest, 0});
  EXPECT_DOUBLE_EQ(queue.occupancy(), 0.0);
  EXPECT_TRUE(queue.push(job("a")).admitted);
  EXPECT_TRUE(queue.push(job("b")).admitted);
  EXPECT_DOUBLE_EQ(queue.occupancy(), 0.5);
  EXPECT_EQ(queue.capacity(), 4u);
  ASSERT_TRUE(queue.pop().has_value());
  EXPECT_DOUBLE_EQ(queue.occupancy(), 0.25);
}

TEST(AdmissionTest, ShedPolicyNamesRoundTripAndUnknownNamesThrow) {
  for (const ShedPolicy policy :
       {ShedPolicy::kRejectNewest, ShedPolicy::kDeadlineAware,
        ShedPolicy::kClientQuota}) {
    EXPECT_EQ(parse_shed_policy(to_string(policy)), policy);
  }
  EXPECT_THROW(parse_shed_policy("drop-oldest"), std::runtime_error);
}

TEST(AdmissionTest, ZeroCapacityIsALogicError) {
  EXPECT_THROW(AdmissionQueue({0, ShedPolicy::kRejectNewest, 0}),
               std::logic_error);
}

}  // namespace
}  // namespace popbean::serve
