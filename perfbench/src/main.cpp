// perfbench: runs one workload and prints its report as the last line.
//
//   perfbench --workload <batch-bio|serve-poisson|net-routed|serve-mutate>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <spans.csv>] [--commit <id>]
//
// run.py builds this binary and turns the report into the benchmark's
// result line. The exit code is non-zero when any answer was wrong.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "host.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--commit <id>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& s, const char* what) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19)
    usage((std::string("bad ") + what + ": " + s).c_str());
  return std::stoull(s);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold turns off glibc's adaptive one, so large blocks
  // go back to the kernel when freed and peak RSS tracks the memory the
  // program holds, not how much freed memory the allocator kept, which
  // varies from run to run with thread timing.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") config.workload = value;
    else if (flag == "--seed") config.seed = parse_uint(value, "seed");
    else if (flag == "--seconds") config.seconds = static_cast<double>(parse_uint(value, "seconds"));
    else if (flag == "--trace") config.trace = parse_uint(value, "trace") != 0;
    else if (flag == "--trace-out") config.trace_path = value;
    else if (flag == "--commit") config.commit = value;
    else usage(("unknown flag " + flag).c_str());
  }
  if (config.seconds < 1 || config.seconds > 600) usage("seconds must be in [1, 600]");

  void (*run)(const RunConfig&, Tracer&, Report&) = nullptr;
  if (config.workload == "batch-bio") run = run_batch_bio;
  else if (config.workload == "serve-poisson") run = run_serve_poisson;
  else if (config.workload == "net-routed") run = run_net_routed;
  else if (config.workload == "serve-mutate") run = run_serve_mutate;
  else usage(("unknown workload '" + config.workload + "'").c_str());

  Tracer tracer(config.trace);
  Report report;
  record_host_context(report, config);
  try {
    run(config, tracer, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }
  if (config.trace) {
    const std::vector<Span> spans = tracer.spans();
    report.context_num("trace_spans", static_cast<double>(spans.size()));
    if (!config.trace_path.empty()) {
      if (tracer.write_csv(config.trace_path))
        report.context_str("trace_file", config.trace_path);
      else
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     config.trace_path.c_str());
    }
  }
  std::printf("%s\n", report.to_json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
