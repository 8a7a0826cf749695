// A unique scratch directory per test. ctest runs every TEST as its own
// process, many at once under `ctest -j`, so two tests that write under the
// same fixed name (an experiment dir, a socket, a file) overwrite each
// other's files. check.sh fails on fixed on-disk paths in tests/.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "support/common.hpp"

namespace dsprof::testfix {

/// A fresh directory under ::testing::TempDir(), made with mkdtemp and
/// removed, with everything in it, when the object goes out of scope.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string tmpl = ::testing::TempDir();
    if (tmpl.empty() || tmpl.back() != '/') tmpl += '/';
    tmpl += "dsp_XXXXXX";
    DSP_CHECK(::mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed for " + tmpl);
    path_ = tmpl;
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  /// The directory itself, or `name` inside it.
  std::string path(const std::string& name = "") const {
    return name.empty() ? path_ : path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace dsprof::testfix
