// Scratch-file paths for tests.
#pragma once

#include <unistd.h>

#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace popbean {

// A path under ::testing::TempDir() unique to the running test case and
// process. ctest runs every gtest case as its own process, in parallel
// under -j, so a fixed file name shared by several cases races.
inline std::string unique_temp_path(std::string_view stem,
                                    std::string_view extension) {
  std::string name(stem);
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += '_';
    name += info->test_suite_name();
    name += '.';
    name += info->name();
  }
  name += '_';
  name += std::to_string(::getpid());
  name += extension;
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + name;
}

}  // namespace popbean
