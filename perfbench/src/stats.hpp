// Sample statistics and arrival schedules used by every workload.
//
// Timings are reported as a median plus the highest percentile that still
// has at least kMinBeyond samples beyond it, with the sample count, so a
// tail figure never rests on one or two outliers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

/// Samples a reported percentile must have beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank position of percentile p (0 < p <= 100) among n sorted
/// samples: the smallest rank r with r >= p/100 * n, as a 0-based index.
inline std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  auto r = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  if (r < 1) r = 1;
  if (r > n) r = n;
  return r - 1;
}

/// Samples strictly beyond the nearest-rank percentile p.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - 1 - percentile_rank(n, p);
}

/// Nearest-rank percentile of `sorted` (ascending). 0 when empty.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  return sorted.empty() ? 0.0 : sorted[percentile_rank(sorted.size(), p)];
}

/// Median of a small set (e.g. repeated set-up times).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// A timing distribution summarized the way the benchmark reports it.
struct Summary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;  ///< at least kMinBeyond samples beyond p99
  double tail_p = 0.0;         ///< highest supported percentile (0: none)
  double tail = 0.0;           ///< its value
  double max = 0.0;
};

/// The percentile ladder the tail rule walks, lowest first.
inline constexpr double kTailLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.samples = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = percentile_sorted(v, 50.0);
  s.p99 = percentile_sorted(v, 99.0);
  s.p99_supported = samples_beyond(v.size(), 99.0) >= kMinBeyond;
  for (const double p : kTailLadder)
    if (samples_beyond(v.size(), p) >= kMinBeyond) {
      s.tail_p = p;
      s.tail = percentile_sorted(v, p);
    }
  s.max = v.back();
  return s;
}

/// Runs are split into this many equal time windows; timing metrics are the
/// median of the per-window figures, so a disturbance that hits one window
/// (another process on the host, a page-cache flush) cannot move them.
inline constexpr std::size_t kWindows = 5;

/// The window of [0, span_s) split kWindows ways that time t falls in.
inline std::size_t window_index(double t, double span_s,
                                std::size_t windows = kWindows) {
  if (span_s <= 0.0 || t <= 0.0) return 0;
  const auto w = static_cast<std::size_t>(t / span_s * static_cast<double>(windows));
  return std::min(w, windows - 1);
}

/// Median over windows of the nearest-rank percentile p of the samples `v`
/// taken at times `t_s`. `min_samples`, when given, receives the smallest
/// per-window sample count (the support of each window's percentile).
inline double median_window_percentile(const std::vector<double>& t_s,
                                       const std::vector<double>& v,
                                       double span_s, double p,
                                       std::size_t* min_samples = nullptr,
                                       std::size_t windows = kWindows) {
  std::vector<std::vector<double>> per(windows);
  for (std::size_t i = 0; i < v.size(); ++i)
    per[window_index(t_s[i], span_s, windows)].push_back(v[i]);
  std::vector<double> figures;
  std::size_t fewest = v.size();
  for (auto& w : per) {
    fewest = std::min(fewest, w.size());
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    figures.push_back(percentile_sorted(w, p));
  }
  if (min_samples != nullptr) *min_samples = fewest;
  return median(figures);
}

/// Median over windows of sum(num) / sum(den) for the samples taken at
/// times `t_s`; windows whose den sums to zero are skipped.
inline double median_window_ratio(const std::vector<double>& t_s,
                                  const std::vector<double>& num,
                                  const std::vector<double>& den, double span_s,
                                  std::size_t windows = kWindows) {
  std::vector<double> n(windows, 0.0);
  std::vector<double> d(windows, 0.0);
  for (std::size_t i = 0; i < t_s.size(); ++i) {
    const std::size_t w = window_index(t_s[i], span_s, windows);
    n[w] += num[i];
    d[w] += den[i];
  }
  std::vector<double> figures;
  for (std::size_t w = 0; w < windows; ++w)
    if (d[w] > 0.0) figures.push_back(n[w] / d[w]);
  return median(figures);
}

/// Median over windows of sum(weights) per second for events at times t_s.
inline double median_window_rate(const std::vector<double>& t_s,
                                 const std::vector<double>& weights,
                                 double span_s, std::size_t windows = kWindows) {
  std::vector<double> n(windows, 0.0);
  for (std::size_t i = 0; i < t_s.size(); ++i) n[window_index(t_s[i], span_s, windows)] += weights[i];
  for (double& x : n) x /= span_s / static_cast<double>(windows);
  return median(n);
}

/// Due times (seconds from the start of the window) of a Poisson arrival
/// process with the given mean rate over [0, duration_s). Deterministic in
/// `seed`: exponential gaps drawn by inversion from rbc::Rng.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double duration_s) {
  std::vector<double> due;
  if (rate <= 0.0 || duration_s <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate * duration_s * 1.1) + 16);
  rbc::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

}  // namespace perfbench
