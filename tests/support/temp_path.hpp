// Per-process temp file paths for tests that write files.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

namespace pcmd::testing {

// `name` under the gtest temp dir, prefixed with this process's id, so two
// test processes on one host (two builds' suites, or copies of one) never
// read or overwrite each other's files. Every path handed out is removed
// when the process exits, so per-process names do not pile up.
inline std::string temp_path(const std::string& name) {
  struct Registry {
    std::vector<std::string> paths;
    ~Registry() {
      for (const auto& path : paths) std::remove(path.c_str());
    }
  };
  static Registry registry;
  std::string path = std::string(::testing::TempDir()) + "pid" +
                     std::to_string(::getpid()) + "_" + name;
  registry.paths.push_back(path);
  return path;
}

}  // namespace pcmd::testing
