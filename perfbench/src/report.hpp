// The result of one workload run, printed as one JSON line.
//
// End-to-end metrics come from the untraced run and per-layer metrics from
// the traced run; a layer that a workload does not exercise is listed as
// absent with the reason, never reported as zero. run.py turns this report
// into the result line that ends the benchmark's output.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;        ///< "higher" or "lower"
  std::int64_t samples = -1;  ///< observations behind the value; -1 = n/a
  std::string note;
};

class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit,
           const std::string& better, std::int64_t samples = -1,
           const std::string& note = "");
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& better, std::int64_t samples = -1,
             const std::string& note = "");
  /// Reports `s` as <name>.p50 and <name>.p99 per-layer metrics. When p99
  /// has fewer than kMinBeyond samples beyond it the note names the highest
  /// percentile that does.
  void layer_timing(const std::string& name, const Summary& s,
                    const std::string& unit);
  void absent(const std::string& name, const std::string& reason);
  /// Free-form context value; `json` must already be valid JSON.
  void context(const std::string& key, const std::string& json);
  void context_str(const std::string& key, const std::string& value);
  void context_num(const std::string& key, double value);

  /// Counts operations against the number attempted. A wrong answer is a
  /// failure and makes the run incorrect. Thread-safe.
  void attempt(std::uint64_t n);
  void fail(std::uint64_t n, const std::string& why);
  void mismatch(const std::string& what);

  bool correct() const;

  std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, std::string>> absent_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> problems_;  // first few failure messages
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
};

std::string json_escape(const std::string& s);
std::string json_num(double v);

}  // namespace perfbench
