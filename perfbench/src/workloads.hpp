// The four workloads and the helpers they share. Each one builds its inputs
// from the run's seed, times set-up, measures for the run's seconds, checks
// every answer it can against a reference, and fills the report.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bruteforce/bf.hpp"
#include "common/matrix.hpp"
#include "host.hpp"
#include "report.hpp"
#include "serve/service.hpp"
#include "trace.hpp"

namespace perfbench {

void run_batch_bio(const RunConfig& config, Tracer& tracer, Report& report);
void run_serve_poisson(const RunConfig& config, Tracer& tracer, Report& report);
void run_net_routed(const RunConfig& config, Tracer& tracer, Report& report);
void run_serve_mutate(const RunConfig& config, Tracer& tracer, Report& report);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Bit-for-bit equality of two k-NN rows: ids and distance bits, so ties
/// and signed zeros must come out identically too.
inline bool same_row(const rbc::index_t* ids_a, const float* d_a,
                     const rbc::index_t* ids_b, const float* d_b,
                     rbc::index_t k) {
  return std::memcmp(ids_a, ids_b, k * sizeof(rbc::index_t)) == 0 &&
         std::memcmp(d_a, d_b, k * sizeof(float)) == 0;
}

inline bool same_row(const rbc::KnnResult& a, rbc::index_t ra,
                     const rbc::KnnResult& b, rbc::index_t rb) {
  const rbc::index_t k = a.ids.cols();
  return b.ids.cols() == k &&
         same_row(a.ids.row(ra), a.dists.row(ra), b.ids.row(rb),
                  b.dists.row(rb), k);
}

inline bool same_answer(const rbc::serve::QueryResult& r,
                        const rbc::KnnResult& ref, rbc::index_t row) {
  const rbc::index_t k = ref.ids.cols();
  return r.ids.size() == k && r.dists.size() == k &&
         same_row(r.ids.data(), r.dists.data(), ref.ids.row(row),
                  ref.dists.row(row), k);
}

/// Reports p50_ms, p90_ms and p99_ms of latency samples `ms` taken at times
/// `t_s` (seconds into a run of span_s). When every window holds enough
/// samples for its p90 (kMinBeyond beyond it), each figure is the median of
/// the per-window percentiles; otherwise it is the percentile of the run.
inline void report_latency(Report& report, const std::vector<double>& t_s,
                           const std::vector<double>& ms, double span_s,
                           const std::string& what) {
  std::size_t fewest = 0;
  median_window_percentile(t_s, ms, span_s, 50.0, &fewest);
  const bool windowed = samples_beyond(fewest, 90.0) >= kMinBeyond;
  std::vector<double> sorted = ms;
  std::sort(sorted.begin(), sorted.end());
  const auto figure = [&](double p) {
    return windowed ? median_window_percentile(t_s, ms, span_s, p)
                    : percentile_sorted(sorted, p);
  };
  std::string note = what;
  note += windowed ? "; median over " + std::to_string(kWindows) +
                         " windows of at least " + std::to_string(fewest) + " samples"
                   : "; percentile of the whole run";
  const auto n = static_cast<std::int64_t>(ms.size());
  report.e2e("p50_ms", figure(50.0), "ms", "lower", n, note);
  report.e2e("p90_ms", figure(90.0), "ms", "lower", n, note);
  const std::size_t beyond = windowed ? samples_beyond(fewest, 99.0) : samples_beyond(ms.size(), 99.0);
  report.e2e("p99_ms", figure(99.0), "ms", "lower", n,
             beyond >= kMinBeyond
                 ? note
                 : note + "; fewer than 10 samples beyond p99, highest supported p" +
                       json_num(summarize(ms).tail_p));
}

/// Copies `count` consecutive rows of Q starting at `begin` (wrapping).
inline rbc::Matrix<float> block_of(const rbc::Matrix<float>& Q,
                                   rbc::index_t begin, rbc::index_t count) {
  rbc::Matrix<float> out(count, Q.cols());
  for (rbc::index_t i = 0; i < count; ++i)
    out.copy_row_from(Q, (begin + i) % Q.rows(), i);
  return out;
}

}  // namespace perfbench
