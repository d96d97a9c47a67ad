#include "stream.hpp"

#include <cmath>

#include "service/result_cache.hpp"
#include "support/random.hpp"

namespace perfbench {

namespace {

using distapx::hash_combine;
using distapx::Rng;

constexpr std::uint64_t kSaltCold = 0xc01d;
constexpr std::uint64_t kSaltWarm = 0x3a53;
constexpr std::uint64_t kSaltWarmPick = 0x3a54;
constexpr std::uint64_t kSaltHot = 0x4075;
constexpr std::uint64_t kSaltHotPick = 0x4076;
constexpr std::uint64_t kSaltFresh = 0xf8e5;

/// Files in the warm catalogue and jobs in the fill-evict hot pool.
constexpr std::uint32_t kWarmFiles = 32;
constexpr std::uint32_t kHotJobs = 32;
/// fill-evict: each request carries this many hot and this many fresh jobs.
constexpr std::uint32_t kHotPerRequest = 2;
constexpr std::uint32_t kFreshPerRequest = 2;
constexpr std::uint32_t kSeedsPerSmallJob = 2;

/// Small graphs, the sizes of examples/jobs_mixed.txt: the warm catalogue
/// and the fill-evict jobs draw from these.
const CatalogueRow kSmallRows[] = {
    {"luby", "gnp:300:0.03", ""},
    {"maxis-alg2", "regular:256:6", "maxw=1024"},
    {"mcm-2eps", "grid:16:16", "eps=0.25"},
    {"mwm-lr", "tree:400", "maxw=64"},
    {"proposal", "bipartite:150:150:0.04", "eps=0.2"},
};
constexpr std::uint32_t kSmallCount =
    sizeof(kSmallRows) / sizeof(kSmallRows[0]);

JobLine make_job(const std::string& name, const CatalogueRow& row,
                 std::uint64_t gseed, std::uint64_t first_seed,
                 std::uint32_t num_seeds) {
  JobLine j;
  j.algo = row.algo;
  j.gen = row.gen;
  j.gseed = gseed;
  j.first_seed = first_seed;
  j.num_seeds = num_seeds;
  j.text = "name=" + name + " gen=" + j.gen + " algo=" + j.algo +
           " seeds=" + std::to_string(first_seed) + ":" +
           std::to_string(num_seeds) + " gseed=" + std::to_string(gseed);
  if (row.extra[0] != '\0') j.text += std::string(" ") + row.extra;
  return j;
}

/// A stream-unique value for slot (i, j < 8), used as a fresh job's gseed
/// and first run seed: fresh jobs never share a cache key within one
/// stream, and bit 62 keeps them clear of the pooled jobs' small gseeds.
std::uint64_t unique_id(std::uint64_t seed, std::uint64_t i, std::uint32_t j) {
  return (std::uint64_t{1} << 62) | ((seed & 0xffffffu) << 36) | (i << 3) | j;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "table1-cold") return Workload::kTable1Cold;
  if (name == "warm-repeat") return Workload::kWarmRepeat;
  if (name == "fill-evict") return Workload::kFillEvict;
  return std::nullopt;
}

std::string Request::text() const {
  std::string out;
  for (const JobLine& j : jobs) out += j.text + "\n";
  return out;
}

std::uint64_t Request::runs() const {
  std::uint64_t n = 0;
  for (const JobLine& j : jobs) n += j.num_seeds;
  return n;
}

const std::vector<CatalogueRow>& table1_catalogue() {
  // Sizes from `perfbench --probe` (README.md): each row's single run
  // costs roughly the same at threads=1, so no algorithm dominates the
  // cold workload's CPU.
  static const std::vector<CatalogueRow> rows = {
      {"maxis-alg2", "gnp:2000:0.0035", "maxw=1024"},
      {"maxis-alg3", "regular:150:6", "maxw=1024"},
      {"mwm-2eps", "gnp:1500:0.005", "eps=0.25"},
      {"mcm-2eps", "gnp:900:0.005", "eps=0.25"},
      {"mcm-1eps", "gnp:100:0.03", "eps=0.5"},
      {"mwm-lr", "gnp:600:0.008", "maxw=1024"},
      {"mwm-lr-det", "tree:200", "maxw=1024"},
      {"luby", "gnp:2500:0.003", ""},
  };
  return rows;
}

RequestStream::RequestStream(Workload w, std::uint64_t seed)
    : workload_(w), seed_(seed) {
  if (w == Workload::kWarmRepeat) {
    // Like examples/jobs_mixed.txt, every file runs each small row once,
    // in a per-file order, with 2-4 seeds per job: files differ in their
    // graphs and seeds, not in how much work they are.
    for (std::uint32_t f = 0; f < kWarmFiles; ++f) {
      Rng rng(hash_combine(hash_combine(seed, kSaltWarm), f));
      Request r;
      for (std::uint32_t j = 0; j < kSmallCount; ++j) {
        const CatalogueRow& row =
            kSmallRows[deck(kSaltWarm, f * kSmallCount + j, kSmallCount)];
        r.jobs.push_back(make_job(
            "w" + std::to_string(f) + "-" + std::to_string(j), row,
            1 + rng.next_below(1'000'000), 1 + rng.next_below(1000),
            2 + (f + j) % 3));
      }
      fill_set_.push_back(std::move(r));
    }
  } else if (w == Workload::kFillEvict) {
    Rng rng(hash_combine(seed, kSaltHot));
    constexpr std::uint32_t kHotPerFill = 8;
    for (std::uint32_t h = 0; h < kHotJobs; ++h) {
      const CatalogueRow& row = kSmallRows[deck(kSaltHot, h, kSmallCount)];
      hot_.push_back(make_job("hot" + std::to_string(h), row,
                              1 + rng.next_below(1'000'000),
                              1 + rng.next_below(1000), kSeedsPerSmallJob));
      hot_.back().repeat = true;
      if (h % kHotPerFill == 0) fill_set_.emplace_back();
      fill_set_.back().jobs.push_back(hot_.back());
    }
  }
}

Shape RequestStream::shape() const {
  Shape s;
  switch (workload_) {
    case Workload::kTable1Cold:
      // More connections than lanes, so SUBMITs queue for a lane.
      s.lanes = 2;
      s.threads = 2;
      break;
    case Workload::kWarmRepeat:
      s.cache = true;
      break;
    case Workload::kFillEvict: {
      s.cache = true;
      // Room for the hot pool plus four deck cycles of fresh runs. A hot
      // job is touched at least once every two cycles, so the hot entries
      // stay resident while fresh ones keep the cache evicting.
      const std::uint64_t hot_runs = kHotJobs * kSeedsPerSmallJob;
      const std::uint64_t fresh_runs_per_cycle =
          (kHotJobs / kHotPerRequest) * kFreshPerRequest * kSeedsPerSmallJob;
      s.cache_budget_bytes = distapx::service::entry_file_size() *
                             (hot_runs + 4 * fresh_runs_per_cycle);
      break;
    }
  }
  return s;
}

std::uint32_t RequestStream::deck(std::uint64_t salt, std::uint64_t pos,
                                  std::uint32_t size) const {
  std::vector<std::uint32_t> order(size);
  for (std::uint32_t k = 0; k < size; ++k) order[k] = k;
  Rng rng(hash_combine(hash_combine(seed_, salt), pos / size));
  rng.shuffle(order);
  return order[pos % size];
}

JobLine RequestStream::fresh_small_job(std::uint64_t i, std::uint32_t j) const {
  const std::uint64_t id = unique_id(seed_, i, j);
  const CatalogueRow& row =
      kSmallRows[deck(kSaltFresh, i * kFreshPerRequest + j, kSmallCount)];
  return make_job("f" + std::to_string(i) + "-" + std::to_string(j), row, id,
                  id, kSeedsPerSmallJob);
}

Request RequestStream::at(std::uint64_t i) const {
  Request r;
  switch (workload_) {
    case Workload::kTable1Cold: {
      // 2 and 3 jobs alternate (5 per request pair), so deck positions are
      // dense and every window of 8 jobs covers the catalogue once; jobs
      // alternate 1 and 2 seeds. Only the deck order and the fresh seeds
      // vary with the stream seed.
      const std::uint32_t jobs = 2 + static_cast<std::uint32_t>(i % 2);
      const std::uint64_t base = 5 * (i / 2) + (i % 2 == 0 ? 0 : 2);
      const auto& rows = table1_catalogue();
      for (std::uint32_t j = 0; j < jobs; ++j) {
        const CatalogueRow& row = rows[deck(
            kSaltCold, base + j, static_cast<std::uint32_t>(rows.size()))];
        const std::uint64_t id = unique_id(seed_, i, j);
        r.jobs.push_back(make_job(
            "c" + std::to_string(i) + "-" + std::to_string(j), row, id, id,
            1 + static_cast<std::uint32_t>((base + j) % 2)));
      }
      break;
    }
    case Workload::kWarmRepeat:
      r = fill_set_[deck(kSaltWarmPick, i, kWarmFiles)];
      break;
    case Workload::kFillEvict: {
      for (std::uint32_t h = 0; h < kHotPerRequest; ++h) {
        r.jobs.push_back(hot_[deck(kSaltHotPick, i * kHotPerRequest + h,
                                   kHotJobs)]);
      }
      for (std::uint32_t j = 0; j < kFreshPerRequest; ++j) {
        r.jobs.push_back(fresh_small_job(i, j));
      }
      Rng rng(hash_combine(hash_combine(seed_, kSaltFresh), i));
      rng.shuffle(r.jobs);
      break;
    }
  }
  return r;
}

std::optional<double> supported_percentile(const std::vector<double>& sorted,
                                           double q, std::size_t min_beyond) {
  const std::size_t n = sorted.size();
  if (n == 0 || q <= 0 || q >= 1) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (n - rank < min_beyond) return std::nullopt;
  return sorted[rank - 1];
}

}  // namespace perfbench
