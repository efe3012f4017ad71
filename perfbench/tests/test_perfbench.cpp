// Tests of the benchmark's own arithmetic: the percentile rule, the Poisson
// arrival schedule, open-loop latency accounting, and span self time.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "open_loop.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

TEST(PercentileRule, NearestRank) {
  EXPECT_EQ(percentile_rank(100, 50.0), 49u);
  EXPECT_EQ(percentile_rank(100, 99.0), 98u);
  EXPECT_EQ(percentile_rank(100, 100.0), 99u);
  EXPECT_EQ(percentile_rank(1, 99.0), 0u);
  EXPECT_EQ(samples_beyond(100, 99.0), 1u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
}

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  const Summary s = summarize(one_to(1000));
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.p99, 990.0);
  EXPECT_TRUE(s.p99_supported);
  EXPECT_DOUBLE_EQ(s.tail_p, 99.0);  // p99.9 has only one sample beyond it
  EXPECT_DOUBLE_EQ(s.tail, 990.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);

  const Summary short_run = summarize(one_to(999));
  EXPECT_FALSE(short_run.p99_supported);  // 9 samples beyond p99
  EXPECT_DOUBLE_EQ(short_run.tail_p, 90.0);
  EXPECT_EQ(short_run.samples, 999u);
}

TEST(PercentileRule, TinySamples) {
  EXPECT_DOUBLE_EQ(summarize(one_to(20)).tail_p, 50.0);
  EXPECT_DOUBLE_EQ(summarize(one_to(19)).tail_p, 0.0);  // no percentile qualifies
  EXPECT_EQ(summarize({}).samples, 0u);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Windows, MedianOverWindowsIgnoresOneDisturbedWindow) {
  // 500 samples over 5 s; everything in the first second is 50x slower.
  std::vector<double> t, v;
  for (int i = 0; i < 500; ++i) {
    t.push_back((i + 0.5) * 0.01);
    v.push_back(i < 100 ? 50.0 : 1.0);
  }
  std::size_t fewest = 0;
  EXPECT_DOUBLE_EQ(median_window_percentile(t, v, 5.0, 99.0, &fewest), 1.0);
  EXPECT_EQ(fewest, 100u);
  EXPECT_DOUBLE_EQ(summarize(v).p99, 50.0);  // the pooled tail is not robust
  EXPECT_DOUBLE_EQ(median_window_rate(t, std::vector<double>(500, 1.0), 5.0), 100.0);
  EXPECT_NEAR(median_window_ratio(t, std::vector<double>(500, 1.0),
                                  std::vector<double>(500, 0.01), 5.0),
              100.0, 1e-9);
  EXPECT_EQ(window_index(4.999, 5.0), 4u);
  EXPECT_EQ(window_index(7.0, 5.0), 4u);  // clamped into the last window
  EXPECT_EQ(window_index(-1.0, 5.0), 0u);
}

TEST(PoissonSchedule, DeterministicPerSeed) {
  const auto a = poisson_schedule(42, 1000.0, 2.0);
  const auto b = poisson_schedule(42, 1000.0, 2.0);
  const auto c = poisson_schedule(43, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  ASSERT_FALSE(a.empty());
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
}

TEST(PoissonSchedule, HasTheStatedMeanRate) {
  // 20 s at 1000/s: the count is Poisson(20000), sigma ~141; allow 5 sigma.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto due = poisson_schedule(seed, 1000.0, 20.0);
    EXPECT_NEAR(static_cast<double>(due.size()), 20000.0, 710.0) << seed;
    // Exponential gaps: their mean is 1/rate and their coefficient of
    // variation is 1.
    double sum = 0.0, sq = 0.0;
    for (std::size_t i = 1; i < due.size(); ++i) {
      const double g = due[i] - due[i - 1];
      sum += g;
      sq += g * g;
    }
    const double n = static_cast<double>(due.size() - 1);
    const double mean = sum / n;
    const double sd = std::sqrt(sq / n - mean * mean);
    EXPECT_NEAR(mean, 1e-3, 5e-5) << seed;
    EXPECT_NEAR(sd / mean, 1.0, 0.05) << seed;
  }
  EXPECT_TRUE(poisson_schedule(1, 0.0, 1.0).empty());
}

// A built index whose first search stalls; every answer is rows 0..k-1.
class StallIndex final : public rbc::Index {
 public:
  explicit StallIndex(std::chrono::milliseconds stall) : stall_(stall) {}
  void build(const rbc::Matrix<float>& X) override {
    n_ = X.rows();
    d_ = X.cols();
  }
  rbc::SearchResponse knn_search(const rbc::SearchRequest& request) const override {
    if (!stalled_.exchange(true)) std::this_thread::sleep_for(stall_);
    rbc::SearchResponse r;
    r.knn = rbc::KnnResult(request.queries->rows(), request.k);
    for (rbc::index_t i = 0; i < request.queries->rows(); ++i)
      for (rbc::index_t j = 0; j < request.k; ++j) {
        r.knn.ids.row(i)[j] = j;
        r.knn.dists.row(i)[j] = 0.0f;
      }
    return r;
  }
  rbc::IndexInfo info() const override {
    rbc::IndexInfo info;
    info.backend = "stall";
    info.size = n_;
    info.dim = d_;
    return info;
  }

 private:
  std::chrono::milliseconds stall_;
  mutable std::atomic<bool> stalled_{false};
  rbc::index_t n_ = 0;
  rbc::index_t d_ = 0;
};

rbc::Matrix<float> small_matrix(rbc::index_t rows) {
  rbc::Matrix<float> m(rows, 2);
  for (rbc::index_t i = 0; i < rows; ++i) m.row(i)[0] = static_cast<float>(i);
  return m;
}

TEST(OpenLoop, LatencyRunsFromDueTimeThroughAStall) {
  auto index = std::make_unique<StallIndex>(std::chrono::milliseconds(150));
  index->build(small_matrix(16));
  rbc::serve::SearchService service(std::move(index));
  const rbc::Matrix<float> queries = small_matrix(4);
  std::vector<double> due;
  for (int i = 0; i < 100; ++i) due.push_back(i * 1e-3);  // 1 ms apart
  const auto t0 = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  const OpenLoopResult r = run_open_loop(
      service, queries, 1, due, t0, [](std::size_t i) { return static_cast<rbc::index_t>(i % 4); },
      [](std::size_t, const rbc::serve::QueryResult& a) { return a.ids.size() == 1; });
  ASSERT_EQ(r.done_s.size(), due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    EXPECT_TRUE(r.ok[i]);
    EXPECT_DOUBLE_EQ(r.latency_ms(i), (r.done_s[i] - r.due_s[i]) * 1e3);
    // Every request due before the stall ended waited for it, counted from
    // its own due time, even though the generator itself kept on schedule.
    EXPECT_GE(r.latency_ms(i), 150.0 - 1e3 * due[i] - 1.0) << i;
  }
  EXPECT_LT(summarize([&] {
              std::vector<double> lag;
              for (std::size_t i = 0; i < due.size(); ++i) lag.push_back(r.lag_ms(i));
              return lag;
            }()).p50,
            20.0);
}

TEST(OpenLoop, LateGeneratorIsChargedToLatency) {
  auto index = std::make_unique<StallIndex>(std::chrono::milliseconds(0));
  index->build(small_matrix(16));
  rbc::serve::SearchService service(std::move(index));
  const rbc::Matrix<float> queries = small_matrix(4);
  const std::vector<double> due = {0.0, 0.001, 0.002};
  // Every request was due 300 ms before the generator could start.
  const auto t0 = std::chrono::steady_clock::now() - std::chrono::milliseconds(300);
  const OpenLoopResult r = run_open_loop(
      service, queries, 1, due, t0, [](std::size_t) { return rbc::index_t{0}; },
      [](std::size_t, const rbc::serve::QueryResult&) { return true; });
  for (std::size_t i = 0; i < due.size(); ++i) {
    EXPECT_GE(r.lag_ms(i), 290.0);
    EXPECT_GE(r.latency_ms(i), r.lag_ms(i));
  }
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  std::vector<Span> spans(5);
  spans[0] = {.start_ns = 0, .end_ns = 100};
  spans[1] = {.start_ns = 10, .end_ns = 30, .parent = 0};
  spans[2] = {.start_ns = 20, .end_ns = 50, .parent = 0};   // overlaps 1
  spans[3] = {.start_ns = 90, .end_ns = 120, .parent = 0};  // outlives 0
  spans[4] = {.start_ns = 12, .end_ns = 18, .parent = 1};   // grandchild
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - (50 - 10) - (100 - 90));
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SpanSelfTime, TracerLinksNestedSpans) {
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "outer", 7, 1);
    { ScopedSpan inner(tracer, "inner"); }
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].request, 7u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_GE(self_times(spans)[0], 0);

  Tracer off(false);
  { ScopedSpan s(off, "ignored"); }
  EXPECT_EQ(off.span_count(), 0u);
}

TEST(Exactness, RowsCompareBitForBit) {
  const rbc::index_t ids[2] = {3, 4};
  const float a[2] = {0.0f, 1.0f};
  const float b[2] = {-0.0f, 1.0f};
  EXPECT_TRUE(same_row(ids, a, ids, a, 2));
  EXPECT_FALSE(same_row(ids, a, ids, b, 2));  // equal as floats, not as bits
  const rbc::index_t swapped[2] = {4, 3};
  EXPECT_FALSE(same_row(ids, a, swapped, a, 2));
}

}  // namespace
}  // namespace perfbench
