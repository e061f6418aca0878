// Temp paths that no concurrently running test shares.
//
// ctest runs every test case as its own process, several at once under
// `ctest -j`, so a fixed name under the temp directory lets one test read
// a file while another rewrites or removes it. unique_temp_path() puts the
// process id and the running test's name into the name.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace gea::test {

/// <temp dir>/gea_<pid>_<test name>_<tag>. Nothing is created. Outside a
/// test body (SetUpTestSuite, a static initializer) there is no test name,
/// and the path is unique per process only.
inline std::string unique_temp_path(const std::string& tag) {
  std::string name = "gea_" + std::to_string(::getpid()) + "_";
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += info->name();
    name += "_";
  }
  name += tag;
  std::replace(name.begin(), name.end(), '/', '_');  // TEST_P names hold '/'
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace gea::test
