// Helpers shared by the test binaries.

#ifndef EEB_TESTS_TEST_UTIL_H_
#define EEB_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <filesystem>
#include <string>

namespace eeb::test {

/// A path under the system temp directory that belongs to this process
/// alone: `<temp>/<name>_<pid>`. ctest runs every discovered TEST as its own
/// process and runs them in parallel, so a fixture file or directory at a
/// fixed path would be created and removed by several processes at once.
/// The caller still removes what it creates, in TearDown.
inline std::string UniqueTempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "_" + std::to_string(::getpid())))
      .string();
}

}  // namespace eeb::test

#endif  // EEB_TESTS_TEST_UTIL_H_
