// Host and run context recorded with every result, and the memory-bandwidth
// roof the distance layer is measured against.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where the traced run writes its spans
  std::string commit = "unknown";
};

/// Records nproc, active/detected ISA, OpenMP threads, build type, commit,
/// L2/L3 sizes and the run's seed/workload into the report's context.
void record_host_context(Report& report, const RunConfig& config);

/// Size in bytes of the last-level cache (sysfs), 0 when unknown.
std::int64_t llc_bytes();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// STREAM-style triad a[i] = b[i] + s * c[i] over all OpenMP threads.
struct TriadResult {
  double gb_s = 0.0;             ///< best pass, 3 arrays counted once each
  std::uint64_t array_bytes = 0;  ///< bytes of each of the three arrays
  std::uint64_t llc_bytes = 0;
  bool fits = false;  ///< arrays reached 4x the LLC within the memory cap
};

/// The three arrays together are sized to at least 4x the last-level cache
/// (each one alone exceeds it), unless that exceeds a quarter of the
/// available memory, in which case the probe shrinks to fit and `fits` is
/// false: its figure then may include cache hits and must not serve as a
/// DRAM roof.
TriadResult triad_probe();

}  // namespace perfbench
