// Request-stream generator and percentile helper tests.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>

#include "service/result_cache.hpp"
#include "stream.hpp"

namespace perfbench {
namespace {

constexpr const char* kAll[] = {"table1-cold", "warm-repeat", "fill-evict"};

std::string stream_text(const char* w, std::uint64_t seed, std::uint64_t n) {
  const RequestStream s(*parse_workload(w), seed);
  std::string out;
  for (std::uint64_t i = 0; i < n; ++i) out += s.at(i).text() + "--\n";
  return out;
}

TEST(RequestStream, SameSeedSameStream) {
  for (const char* w : kAll) {
    EXPECT_EQ(stream_text(w, 7, 200), stream_text(w, 7, 200)) << w;
  }
}

TEST(RequestStream, DifferentSeedDifferentStream) {
  for (const char* w : kAll) {
    EXPECT_NE(stream_text(w, 7, 200), stream_text(w, 8, 200)) << w;
  }
}

TEST(RequestStream, Table1ColdNeverRepeatsATriple) {
  const RequestStream s(Workload::kTable1Cold, 3);
  std::set<std::tuple<std::string, std::uint64_t, std::uint64_t>> seen;
  std::set<std::string> algos;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const Request r = s.at(i);
    ASSERT_GE(r.jobs.size(), 2u);
    ASSERT_LE(r.jobs.size(), 3u);
    for (const JobLine& j : r.jobs) {
      algos.insert(j.algo);
      const std::string spec = j.algo + " " + j.gen;
      for (std::uint32_t k = 0; k < j.num_seeds; ++k) {
        EXPECT_TRUE(seen.insert({spec, j.gseed, j.first_seed + k}).second)
            << j.text;
      }
    }
  }
  EXPECT_EQ(algos.size(), table1_catalogue().size());
}

TEST(RequestStream, Table1ColdMixIsBalanced) {
  const RequestStream s(Workload::kTable1Cold, 11);
  std::map<std::string, int> jobs_per_algo;
  // 160 requests = 400 jobs = 50 full decks of the 8 catalogue rows.
  for (std::uint64_t i = 0; i < 160; ++i) {
    for (const JobLine& j : s.at(i).jobs) ++jobs_per_algo[j.algo];
  }
  for (const auto& [algo, n] : jobs_per_algo) EXPECT_EQ(n, 50) << algo;
}

TEST(RequestStream, FillEvictHitShareMatchesDesign) {
  const RequestStream s(Workload::kFillEvict, 5);
  std::set<std::string> hot;
  for (const Request& r : s.fill_set()) {
    for (const JobLine& j : r.jobs) hot.insert(j.text);
  }
  std::set<std::string> fresh;
  std::uint64_t repeat_runs = 0, total_runs = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const Request r = s.at(i);
    std::size_t repeats = 0;
    for (const JobLine& j : r.jobs) {
      total_runs += j.num_seeds;
      if (j.repeat) {
        ++repeats;
        repeat_runs += j.num_seeds;
        EXPECT_EQ(hot.count(j.text), 1u) << "repeat job not in the fill set";
      } else {
        EXPECT_EQ(hot.count(j.text), 0u);
        EXPECT_TRUE(fresh.insert(j.text).second) << "fresh job repeated";
      }
    }
    EXPECT_EQ(2 * repeats, r.jobs.size()) << "half of each request repeats";
  }
  EXPECT_EQ(2 * repeat_runs, total_runs);
  // The budget holds the hot pool but not the whole working set.
  const std::uint64_t entry = distapx::service::entry_file_size();
  std::uint64_t hot_runs = 0;
  for (const Request& r : s.fill_set()) hot_runs += r.runs();
  EXPECT_GE(s.shape().cache_budget_bytes, 2 * hot_runs * entry);
  EXPECT_LT(s.shape().cache_budget_bytes, total_runs * entry);
}

TEST(RequestStream, WarmRepeatDrawsOnlyFromTheFilledCatalogue) {
  const RequestStream s(Workload::kWarmRepeat, 9);
  std::set<std::string> files;
  for (const Request& r : s.fill_set()) files.insert(r.text());
  EXPECT_EQ(files.size(), 32u);
  std::set<std::string> drawn;
  for (std::uint64_t i = 0; i < 320; ++i) {
    const std::string t = s.at(i).text();
    EXPECT_EQ(files.count(t), 1u);
    drawn.insert(t);
  }
  EXPECT_EQ(drawn.size(), files.size());
}

TEST(SupportedPercentile, NeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 199; ++i) v.push_back(i);
  EXPECT_FALSE(supported_percentile(v, 0.95).has_value());  // 9 beyond
  v.push_back(200);
  ASSERT_TRUE(supported_percentile(v, 0.95).has_value());  // 10 beyond
  EXPECT_EQ(*supported_percentile(v, 0.95), 190);
  EXPECT_EQ(*supported_percentile(v, 0.50), 100);
  EXPECT_FALSE(supported_percentile(v, 0.99).has_value());
  EXPECT_FALSE(supported_percentile({}, 0.5).has_value());
}

}  // namespace
}  // namespace perfbench
