// Shared by the cross-commit golden suites (golden_results_test,
// dqn_golden_test): hex-float text rendering and the compare-or-regenerate
// step against the committed files under tests/golden/.
#pragma once

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace hcrl::test {

inline void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

/// Compare `actual` with the committed golden at `path`, or rewrite the file
/// when HCRL_REGEN_GOLDENS=1 (scripts/regen_goldens.sh).
inline void check_golden(const std::string& path, const std::string& actual) {
  const char* regen = std::getenv("HCRL_REGEN_GOLDENS");
  if (regen != nullptr && std::string(regen) == "1") {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path << " (run scripts/regen_goldens.sh)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "behaviour drifted from " << path;
}

}  // namespace hcrl::test
