// Seeded request streams for the serving benchmark.
//
// A stream is a pure function of (workload, seed): request i is rebuilt on
// demand by at(i), so every connection of the load generator, the traced
// pass and the reference check see the same job files without sharing
// state. The server only ever sees the rendered job-file text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload {
  kTable1Cold,  ///< fresh Table-1 jobs, no cache: sim + algorithms
  kWarmRepeat,  ///< a filled catalogue of small job files: resolve + cache
  kFillEvict,   ///< half repeats, half fresh under a tight cache budget
};

std::optional<Workload> parse_workload(std::string_view name);

/// One job-file line plus the fields the benchmark reads back.
struct JobLine {
  std::string text;  ///< "name=... gen=... algo=... seeds=F:C gseed=G ..."
  std::string algo;
  std::string gen;
  std::uint64_t gseed = 0;
  std::uint64_t first_seed = 0;
  std::uint32_t num_seeds = 0;
  bool repeat = false;  ///< drawn from the pre-filled pool (fill-evict)
};

/// One SUBMIT: a job file of one or more lines.
struct Request {
  std::vector<JobLine> jobs;

  [[nodiscard]] std::string text() const;
  [[nodiscard]] std::uint64_t runs() const;
};

/// Closed-loop connections of every workload.
inline constexpr unsigned kConnections = 4;

/// How the server is set up for a workload. kConnections and
/// lanes * threads never exceed the 4 cores the benchmark is sized for.
struct Shape {
  unsigned lanes = 4;
  unsigned threads = 1;
  bool cache = false;
  std::uint64_t cache_budget_bytes = 0;  ///< 0 = unbounded
};

/// One Table-1 catalogue row: an algorithm on a graph family sized so a
/// single run costs about the same as every other row (README.md lists
/// the probe that set the sizes).
struct CatalogueRow {
  const char* algo;
  const char* gen;
  const char* extra;  ///< extra job keys ("eps=0.25", "maxw=64", "")
};

const std::vector<CatalogueRow>& table1_catalogue();

class RequestStream {
 public:
  RequestStream(Workload w, std::uint64_t seed);

  [[nodiscard]] Workload workload() const noexcept { return workload_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] Shape shape() const;

  /// Request i of the stream (deterministic in (workload, seed, i)).
  [[nodiscard]] Request at(std::uint64_t i) const;

  /// Job files set-up fills into the cache before measuring: the warm
  /// catalogue (warm-repeat), the hot pool (fill-evict), none (cold).
  [[nodiscard]] const std::vector<Request>& fill_set() const noexcept {
    return fill_set_;
  }

 private:
  /// Entry `pos` of a deck of `size` indices reshuffled every cycle: picks
  /// are balanced over any window of `size` draws, so the mix a run sees
  /// does not drift with the seed.
  [[nodiscard]] std::uint32_t deck(std::uint64_t salt, std::uint64_t pos,
                                   std::uint32_t size) const;
  [[nodiscard]] JobLine fresh_small_job(std::uint64_t i, std::uint32_t j) const;

  Workload workload_;
  std::uint64_t seed_;
  std::vector<Request> fill_set_;  ///< warm catalogue or hot pool files
  std::vector<JobLine> hot_;       ///< fill-evict repeat pool
};

/// Nearest-rank percentile q in (0, 1) of ascending `sorted`, reported
/// only when at least `min_beyond` samples lie above its rank: a p95 of
/// 100 samples rests on 5 points and is refused.
std::optional<double> supported_percentile(const std::vector<double>& sorted,
                                           double q,
                                           std::size_t min_beyond = 10);

}  // namespace perfbench
