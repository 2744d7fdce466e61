#include "loadgen.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(NearestRankTest, PicksTheCeilRankedSample) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  EXPECT_EQ(NearestRank(values, 0.5), 50.0);
  EXPECT_EQ(NearestRank(values, 0.99), 99.0);
  EXPECT_EQ(NearestRank(values, 1.0), 100.0);
  EXPECT_EQ(NearestRank(values, 0.001), 1.0);
  EXPECT_EQ(NearestRank({}, 0.5), 0.0);
  EXPECT_EQ(NearestRank({7.0}, 0.99), 7.0);
  // Nearest rank never interpolates: p50 of two samples is the lower one.
  EXPECT_EQ(NearestRank({1.0, 3.0}, 0.5), 1.0);
}

TEST(NearestRankTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
  EXPECT_TRUE(SupportsPercentile(1000, 0.99));
  EXPECT_FALSE(SupportsPercentile(999, 0.99));
  EXPECT_TRUE(SupportsPercentile(20, 0.5));
  EXPECT_FALSE(SupportsPercentile(0, 0.5));
}

TEST(NearestRankTest, SegmentedPercentileIgnoresABurst) {
  // Too few samples for two p99 segments: the pooled nearest rank.
  std::vector<double> small(1999);
  for (size_t i = 0; i < small.size(); ++i) small[i] = i % 100;
  EXPECT_EQ(SegmentedPercentile(small, 0.99), NearestRank(small, 0.99));
  // Ten segments of 1,000; a stall inflates the tail of two of them only.
  std::vector<double> values(10000, 1.0);
  for (size_t i = 0; i < values.size(); i += 50) values[i] = 2.0;
  for (size_t i = 2000; i < 4000; i += 10) values[i] = 100.0;
  EXPECT_EQ(SegmentedPercentile(values, 0.99), 2.0);
  EXPECT_EQ(NearestRank(values, 0.99), 100.0);
  EXPECT_EQ(SegmentedPercentile(values, 0.5), 1.0);
}

TEST(ScheduleTest, DeterministicPerSeed) {
  const std::vector<double> a = PoissonSchedule(100.0, 5.0, 7);
  const std::vector<double> b = PoissonSchedule(100.0, 5.0, 7);
  const std::vector<double> c = PoissonSchedule(100.0, 5.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(DistinctNodes(1000, 50, 3), DistinctNodes(1000, 50, 3));
  EXPECT_NE(DistinctNodes(1000, 50, 3), DistinctNodes(1000, 50, 4));
}

TEST(ScheduleTest, PoissonRateAndOrder) {
  const std::vector<double> s = PoissonSchedule(1000.0, 20.0, 11);
  // 20000 expected arrivals; the count's standard deviation is ~141.
  EXPECT_NEAR(static_cast<double>(s.size()), 20000.0, 1000.0);
  for (size_t i = 1; i < s.size(); ++i) ASSERT_GT(s[i], s[i - 1]);
  EXPECT_LT(s.back(), 20.0);
  EXPECT_TRUE(PoissonSchedule(0.0, 5.0, 1).empty());
}

TEST(ScheduleTest, DistinctNodesAreDistinct) {
  std::vector<uint32_t> nodes = DistinctNodes(500, 500, 9);
  std::sort(nodes.begin(), nodes.end());
  for (uint32_t i = 0; i < 500; ++i) ASSERT_EQ(nodes[i], i);
  EXPECT_EQ(DistinctNodes(10, 50, 9).size(), 10u);
}

TEST(ZipfTest, RankZeroIsMostLikely) {
  const ZipfSampler zipf(1024, 0.99);
  EXPECT_EQ(zipf.RankFor(0.0), 0u);
  EXPECT_EQ(zipf.RankFor(0.999999999), 1023u);
  size_t previous = 0;
  for (double u = 0.0; u < 1.0; u += 0.01) {
    const size_t rank = zipf.RankFor(u);
    ASSERT_GE(rank, previous);
    previous = rank;
  }
}

TEST(ResponseTest, AcceptsAValidQueryLine) {
  QueryResponse r;
  EXPECT_EQ(CheckQueryResponse("ok graph=bench version=1 seed=42 backend=tea+ "
                               "nnz=17 sum=0.998000 cache=miss "
                               "latency_ms=1.250",
                               42, &r),
            "");
  EXPECT_EQ(r.seed, 42u);
  EXPECT_EQ(r.nnz, 17u);
  EXPECT_DOUBLE_EQ(r.sum, 0.998);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(CheckQueryResponse("ok graph=g version=3 seed=7 backend=tea+ "
                               "nnz=2 sum=1.000000 cache=hit latency_ms=0.01",
                               7, &r),
            "");
  EXPECT_TRUE(r.cache_hit);
}

TEST(ResponseTest, RejectsErrAndWrongLines) {
  QueryResponse r;
  EXPECT_NE(CheckQueryResponse("err tenant-throttled tenant=a (rate limit "
                               "5 qps)",
                               1, &r),
            "");
  EXPECT_NE(CheckQueryResponse("err status=rejected", 1, &r), "");
  // The answer for another seed, e.g. responses crossed between requests.
  EXPECT_NE(CheckQueryResponse("ok graph=g version=1 seed=8 backend=tea+ "
                               "nnz=2 sum=1.0 cache=miss",
                               7, &r),
            "");
  // A seed field that only shares a prefix with the requested one.
  EXPECT_NE(CheckQueryResponse("ok graph=g version=1 seed=77 backend=tea+ "
                               "nnz=2 sum=1.0 cache=miss",
                               7, &r),
            "");
  EXPECT_NE(CheckQueryResponse("ok graph=g version=1 seed=7 backend=tea "
                               "nnz=2 sum=1.0 cache=miss",
                               7, &r),
            "");
  EXPECT_NE(CheckQueryResponse("ok graph=g version=1 seed=7 backend=tea+ "
                               "nnz=0 sum=1.0 cache=miss",
                               7, &r),
            "");
  EXPECT_NE(CheckQueryResponse("ok graph=g version=1 seed=7 backend=tea+ "
                               "nnz=2 sum=nan cache=miss",
                               7, &r),
            "");
  EXPECT_NE(CheckQueryResponse("ok graph=g version=1 seed=7 backend=tea+ "
                               "nnz=2 sum=inf cache=miss",
                               7, &r),
            "");
  EXPECT_NE(CheckQueryResponse("ok graph=g version=1 seed=7 backend=tea+ "
                               "nnz=2 sum=1.0",
                               7, &r),
            "");
  EXPECT_NE(CheckQueryResponse("ok graph=g version=1 backend=tea+ nnz=2 "
                               "sum=1.0 cache=miss",
                               7, &r),
            "");
  EXPECT_NE(CheckQueryResponse("", 7, &r), "");
}

}  // namespace
}  // namespace perfbench
