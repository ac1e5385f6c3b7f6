// Scratch directories that parallel test processes never share.
//
// gtest_discover_tests registers every TEST as its own ctest case, and
// `ctest -j` runs those cases as concurrent processes. A fixed path under
// ::testing::TempDir() is therefore shared by every process that names it,
// and two cases writing the same trace directory race. A TestTmpDir is a
// directory of the running test's own, named from the suite, the test and
// the process id, created empty and removed with everything in it when the
// object is destroyed:
//
//   const ap::testutil::TestTmpDir tmp;
//   const fs::path dir = tmp / "trace";   // <TempDir>/<suite>.<test>.<pid>/trace
//
// tools/lint.sh rejects a path joined straight onto ::testing::TempDir()
// anywhere else in tests/.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

namespace ap::testutil {

class TestTmpDir {
 public:
  /// A directory for the running test.
  TestTmpDir() : root_(make_root(current_test_name())) {}
  /// A directory for a fixture that outlives one test (e.g. a function-local
  /// static built by whichever test needs it first): named from `tag` and
  /// the process id only.
  explicit TestTmpDir(const std::string& tag) : root_(make_root(tag)) {}

  ~TestTmpDir() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  TestTmpDir(const TestTmpDir&) = delete;
  TestTmpDir& operator=(const TestTmpDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return root_; }

  [[nodiscard]] std::filesystem::path operator/(
      const std::filesystem::path& leaf) const {
    return root_ / leaf;
  }

 private:
  static std::string current_test_name() {
    const ::testing::TestInfo* t =
        ::testing::UnitTest::GetInstance()->current_test_info();
    if (t == nullptr) return "no_test";
    return std::string(t->test_suite_name()) + "." + t->name();
  }

  static std::filesystem::path make_root(const std::string& name) {
    // Parameterized names carry '/', which must not nest directories.
    std::string safe;
    for (const char c : name)
      safe += std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' ||
                      c == '_' || c == '-'
                  ? c
                  : '_';
    const std::filesystem::path root =
        std::filesystem::path(::testing::TempDir()) /
        (safe + "." + std::to_string(::getpid()));
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    return root;
  }

  std::filesystem::path root_;
};

}  // namespace ap::testutil
