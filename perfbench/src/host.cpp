#include "host.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>

#include "distance/dispatch.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/runtime.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

// Parses sysfs cache sizes such as "2048K" or "300M".
std::int64_t parse_size(const std::string& s) {
  if (s.empty()) return 0;
  std::int64_t v = 0;
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9')
    v = v * 10 + (s[i++] - '0');
  if (i < s.size() && s[i] == 'K') v <<= 10;
  if (i < s.size() && s[i] == 'M') v <<= 20;
  return v;
}

// Data/unified cache size at `level` for cpu0, 0 when absent.
std::int64_t cache_bytes(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string lvl = read_line(base + "level");
    if (lvl.empty()) break;
    if (std::stoi(lvl) != level || read_line(base + "type") == "Instruction")
      continue;
    return parse_size(read_line(base + "size"));
  }
  return 0;
}

std::int64_t mem_available_bytes() {
  std::ifstream in("/proc/meminfo");
  std::string key;
  std::int64_t kb = 0;
  std::string unit;
  while (in >> key >> kb >> unit)
    if (key == "MemAvailable:") return kb << 10;
  return 0;
}

}  // namespace

std::int64_t llc_bytes() {
  const std::int64_t l3 = cache_bytes(3);
  return l3 > 0 ? l3 : cache_bytes(2);
}

void record_host_context(Report& report, const RunConfig& config) {
  using namespace rbc::dispatch;
  report.context_str("workload", config.workload);
  report.context_num("seed", static_cast<double>(config.seed));
  report.context_num("seconds", config.seconds);
  report.context_num("trace", config.trace ? 1 : 0);
  report.context_num("nproc", std::thread::hardware_concurrency());
  report.context_str("active_isa", isa_name(active_isa()));
  report.context_str("detected_isa", isa_name(detected_isa()));
  report.context_num("omp_threads", rbc::max_threads());
  report.context_str("build_type", PERFBENCH_BUILD_TYPE);
  report.context_str("commit", config.commit);
  report.context_num("l2_bytes", static_cast<double>(cache_bytes(2)));
  report.context_num("l3_bytes", static_cast<double>(cache_bytes(3)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

TriadResult triad_probe() {
  TriadResult r;
  r.llc_bytes = static_cast<std::uint64_t>(std::max<std::int64_t>(llc_bytes(), 0));
  const std::int64_t want_total =
      4 * std::max<std::int64_t>(llc_bytes(), std::int64_t{32} << 20);
  const std::int64_t cap = mem_available_bytes() / 4;
  const std::int64_t total = cap > 0 ? std::min(want_total, cap) : want_total;
  r.fits = total >= want_total;
  const auto n = static_cast<std::int64_t>(total / 3 / sizeof(double));
  r.array_bytes = static_cast<std::uint64_t>(n) * sizeof(double);

  std::unique_ptr<double[]> a(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> b(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> c(new double[static_cast<std::size_t>(n)]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
  // First touch from the same static schedule the timed loop uses.
  rbc::parallel_for(0, n, [&](rbc::index_t i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  });
  const double s = 3.0;
  double best = 1e300;
  for (int pass = 0; pass < 4; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    rbc::parallel_for(0, n, [&](rbc::index_t i) { pa[i] = pb[i] + s * pc[i]; });
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  r.gb_s = 3.0 * static_cast<double>(r.array_bytes) / best / 1e9;
  return r;
}

}  // namespace perfbench
