// Shared fixtures and generators for the distapx test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "service/job_spec.hpp"
#include "support/random.hpp"

namespace distapx::test {

/// The run contract of a job with default keys and run seed `seed`, for
/// tests that call an algorithm's entry point directly.
inline sim::RunOptions run_opts(std::uint64_t seed = 1) {
  return service::JobSpec{}.run_options(seed);
}

/// A fresh unique directory under gtest's TempDir, removed on
/// destruction. Used by the result-cache and cache-manager suites.
struct ScopedTempDir {
  std::filesystem::path path;

  explicit ScopedTempDir(const std::string& tag)
      : path(std::filesystem::path(::testing::TempDir()) /
             (tag + "-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter()++))) {
    std::filesystem::remove_all(path);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] std::string str() const { return path.string(); }

 private:
  static int& counter() {
    static int c = 0;
    return c;
  }
};

/// Leaves this process exactly one free thread slot: drops root (whose
/// threads RLIMIT_NPROC does not count), lowers RLIMIT_NPROC and parks
/// threads until std::thread's constructor throws, then releases one of
/// them. Destruction releases and joins the rest. Only for the child of a
/// death test: the limit and the uid change are permanent. Exits the
/// process with code 2 if the squeeze cannot be set up.
class OneFreeThreadSlot {
 public:
  /// Whether a process here can be made to run out of threads at all
  /// (probed in a forked child, so the caller's process is untouched).
  static bool possible();

  OneFreeThreadSlot();
  ~OneFreeThreadSlot();
  OneFreeThreadSlot(const OneFreeThreadSlot&) = delete;
  OneFreeThreadSlot& operator=(const OneFreeThreadSlot&) = delete;

 private:
  void release_last();

  std::vector<std::promise<void>> release_;
  std::vector<std::thread> parked_;
};

/// A named small graph family instance for parameterized suites.
struct FamilyCase {
  std::string name;
  Graph graph;
};

/// Small graphs (n <= ~24) where exact baselines are cheap.
inline std::vector<FamilyCase> small_families(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FamilyCase> cases;
  cases.push_back({"path16", gen::path(16)});
  cases.push_back({"cycle15", gen::cycle(15)});
  cases.push_back({"cycle16", gen::cycle(16)});
  cases.push_back({"star12", gen::star(12)});
  cases.push_back({"complete8", gen::complete(8)});
  cases.push_back({"bipartite_4_5", gen::complete_bipartite(4, 5)});
  cases.push_back({"grid4x4", gen::grid(4, 4)});
  cases.push_back({"hypercube3", gen::hypercube(3)});
  cases.push_back({"gnp16_sparse", gen::gnp(16, 0.15, rng)});
  cases.push_back({"gnp16_dense", gen::gnp(16, 0.5, rng)});
  cases.push_back({"tree20", gen::random_tree(20, rng)});
  cases.push_back({"caterpillar", gen::caterpillar(4, 3)});
  cases.push_back({"regular_12_3", gen::random_regular(12, 3, rng)});
  return cases;
}

/// Medium graphs for distributed runs (no exact baseline needed or
/// structured ones available).
inline std::vector<FamilyCase> medium_families(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FamilyCase> cases;
  cases.push_back({"path200", gen::path(200)});
  cases.push_back({"cycle201", gen::cycle(201)});
  cases.push_back({"grid12x12", gen::grid(12, 12)});
  cases.push_back({"gnp200", gen::gnp(200, 0.03, rng)});
  cases.push_back({"tree300", gen::random_tree(300, rng)});
  cases.push_back({"regular_128_4", gen::random_regular(128, 4, rng)});
  cases.push_back({"bipartite_60_60", gen::bipartite_gnp(60, 60, 0.05, rng)});
  cases.push_back({"powerlaw150", gen::power_law(150, 2.5, 4.0, rng)});
  return cases;
}

/// Job files that walk one set of worker workspaces through every registry
/// algorithm on graphs whose sizes go up and down, two seeds per job so
/// both workers of a two-thread server run. File kThrowingJobFile fails
/// with a CONGEST violation in the middle of a Network run on a line
/// graph, and clean files follow it.
std::vector<std::string> workspace_job_files();
inline constexpr std::size_t kThrowingJobFile = 11;

/// Brute-force exact MaxIS weight by subset enumeration; n <= 20.
Weight brute_force_maxis_weight(const Graph& g, const NodeWeights& w);

/// Brute-force exact MCM size by edge-subset search; small graphs only.
std::size_t brute_force_mcm_size(const Graph& g);

}  // namespace distapx::test
