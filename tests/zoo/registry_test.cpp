// The zoo registry: spec parsing, the unknown-member diagnostic, visitor
// dispatch, and the published member list staying in sync with what
// with_zoo_runtime can actually build.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "zoo/registry.hpp"

namespace popbean::zoo {
namespace {

TEST(RegistryTest, SpecRecognition) {
  EXPECT_TRUE(is_zoo_spec("zoo:doubling"));
  EXPECT_TRUE(is_zoo_spec("zoo:typo"));  // claims to be zoo, may be unknown
  EXPECT_FALSE(is_zoo_spec("avc"));
  EXPECT_FALSE(is_zoo_spec("four-state"));
  EXPECT_FALSE(is_zoo_spec(""));
  EXPECT_FALSE(is_zoo_spec("zo"));

  EXPECT_TRUE(is_zoo_member("zoo:doubling"));
  EXPECT_TRUE(is_zoo_member("zoo:berenbrink"));
  EXPECT_FALSE(is_zoo_member("zoo:typo"));
}

TEST(RegistryTest, EveryPublishedMemberDispatches) {
  for (const ZooEntry& entry : zoo_members()) {
    EXPECT_FALSE(entry.summary.empty()) << entry.spec;
    EXPECT_FALSE(entry.paper.empty()) << entry.spec;
    const std::size_t states = with_zoo_runtime(
        entry.spec, [](const auto& runtime) { return runtime.num_states(); });
    EXPECT_GE(states, 4u) << entry.spec;
    const std::size_t gate_states = with_zoo_runtime_gate(
        entry.spec, [](const auto& runtime) { return runtime.num_states(); });
    // Gate variants must stay small enough for exhaustive verification.
    EXPECT_LE(gate_states, 32u) << entry.spec;
    EXPECT_GE(gate_states, 4u) << entry.spec;
  }
}

TEST(RegistryTest, IdentityCarriesTheRegistryName) {
  // A spec resolves to the member of that name, for both parameterizations.
  for (const ZooEntry& entry : zoo_members()) {
    const auto spec_of = [](const auto& runtime) {
      return "zoo:" + runtime.member().name();
    };
    EXPECT_EQ(with_zoo_runtime(entry.spec, spec_of), entry.spec);
    EXPECT_EQ(with_zoo_runtime_gate(entry.spec, spec_of), entry.spec);
  }
}

TEST(RegistryTest, UnknownMemberNamesTheKnownOnes) {
  try {
    with_zoo_runtime("zoo:typo", [](const auto&) { return 0; });
    FAIL() << "unknown zoo spec must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("zoo:typo"), std::string::npos) << what;
    EXPECT_NE(what.find("zoo:doubling"), std::string::npos) << what;
    EXPECT_NE(what.find("zoo:berenbrink"), std::string::npos) << what;
  }
}

TEST(RegistryTest, VisitorsShareOneRuntimeInstance) {
  // Function-local statics: repeated dispatch must not rebuild the closure.
  const void* first = with_zoo_runtime(
      "zoo:doubling",
      [](const auto& runtime) { return static_cast<const void*>(&runtime); });
  const void* second = with_zoo_runtime(
      "zoo:doubling",
      [](const auto& runtime) { return static_cast<const void*>(&runtime); });
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace popbean::zoo
