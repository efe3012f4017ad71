// serve-poisson: independent users, so an open loop.
//
// One generator thread submits single queries (k = 5) to a SearchService
// over rbc-exact on the robot surrogate (n = 200,000, d = 21; exact search
// prunes about 60x here). Arrivals are Poisson along a fixed ladder of
// offered rates; a second thread timestamps completions, and latency runs
// from each query's due time. Per-query compute is small, so queue wait and
// batch formation dominate: the serve layer, and the way larger coalesced
// batches raise the work done per query.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>

#include "api/api.hpp"
#include "data/generators.hpp"
#include "open_loop.hpp"
#include "probes.hpp"
#include "timed_index.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr rbc::index_t kN = 200'000;
constexpr rbc::index_t kPool = 4096;
constexpr rbc::index_t kK = 5;
constexpr int kSetupReps = 5;
constexpr double kLatencyLimitMs = 20.0;

// Offered rates, ascending. The reference rung carries p50_ms / p99_ms and
// gets the longest share of the window. It is the lightest rung, far below
// the knee: near the knee queueing makes p50 double on a small loss of
// capacity, which a shared host causes from run to run, while down here it
// reads the unloaded path (batch wait, compute, hand-offs between threads).
// The last rung is beyond capacity and measures the saturated throughput.
constexpr double kLadder[] = {500, 2000, 4000, 8000, 16000};
constexpr std::size_t kReference = 0;
constexpr double kReferenceShare = 0.4;
// The ladder is walked kCycles times, each rung for 1/kCycles of its share,
// so every rung sees the host as it was across the whole run; p50/p99 at the
// reference rate and the saturated throughput are medians over the cycles.
constexpr std::size_t kCycles = kWindows;

// One rung's samples, pooled over the cycles that visited it.
struct Rung {
  double rate = 0.0;
  double duration_s = 0.0;  ///< summed over cycles
  std::size_t requests = 0;
  std::size_t wrong = 0;
  std::size_t done_in_window = 0;
  std::vector<double> latency_ms, lag_ms, submit_us, queue_wait_ms, compute_ms;
  std::vector<double> cycle_p50, cycle_p90, cycle_p99, cycle_qps;
  std::size_t fewest_cycle_samples = SIZE_MAX;
  std::uint64_t rows = 0;
  std::uint64_t calls = 0;
  std::uint64_t singleton_calls = 0;
  std::uint64_t evals = 0;

  double evals_per_query() const {
    return static_cast<double>(evals) / static_cast<double>(std::max<std::uint64_t>(rows, 1));
  }
  double achieved_qps() const { return static_cast<double>(done_in_window) / duration_s; }
  bool backlog_ok() const {
    return static_cast<double>(done_in_window) >= 0.95 * static_cast<double>(requests);
  }
  bool meets_limit(double limit_ms) const {
    return backlog_ok() && wrong == 0 && summarize(latency_ms).p99 <= limit_ms;
  }
};

std::string rung_json(const Rung& r, double limit_ms) {
  const Summary lat = summarize(r.latency_ms);
  const Summary lag = summarize(r.lag_ms);
  return "{\"rate\": " + json_num(r.rate) + ", \"seconds\": " + json_num(r.duration_s) +
         ", \"requests\": " + std::to_string(r.requests) +
         ", \"wrong\": " + std::to_string(r.wrong) +
         ", \"achieved_qps\": " + json_num(r.achieved_qps()) +
         ", \"p50_ms\": " + json_num(lat.p50) + ", \"p99_ms\": " + json_num(lat.p99) +
         ", \"tail_p\": " + json_num(lat.tail_p) +
         ", \"gen_lag_p99_ms\": " + json_num(lag.p99) +
         ", \"gen_lag_max_ms\": " + json_num(lag.max) +
         ", \"evals_per_query\": " + json_num(r.evals_per_query()) +
         ", \"mean_batch\": " +
         json_num(static_cast<double>(r.rows) / static_cast<double>(std::max<std::uint64_t>(r.calls, 1))) +
         ", \"queue_wait_p50_ms\": " + json_num(summarize(r.queue_wait_ms).p50) +
         ", \"compute_p50_ms\": " + json_num(summarize(r.compute_ms).p50) +
         ", \"backlog_ok\": " + (r.backlog_ok() ? "true" : "false") +
         ", \"meets_limit\": " + (r.meets_limit(limit_ms) ? "true" : "false") + "}";
}

}  // namespace

void run_serve_poisson(const RunConfig& config, Tracer& tracer, Report& report) {
  using namespace rbc;
  const data::DataSplit data = data::make_benchmark_data(
      data::dataset_by_name("robot"), kN, kPool, config.seed);
  report.context_num("n", kN);
  report.context_num("d", data.database.cols());
  report.context_num("k", kK);

  std::vector<double> setup_s;
  std::unique_ptr<Index> index;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    index.reset();
    const auto t0 = Clock::now();
    index = make_index("rbc-exact");
    index->build(data.database);
    setup_s.push_back(seconds_since(t0));
  }

  // Reference: the same index answering the whole pool directly.
  const KnnResult ref = index->knn_search({.queries = &data.queries, .k = kK}).knn;

  // The service gets all cores but one: the generator, the completion
  // thread and the dispatcher run in this process too, and with every core
  // in the backend's OpenMP team they contend with its spinning workers,
  // which makes latency bimodal from run to run.
  LayerLog log;
  serve::ServiceOptions options;
  options.backend_threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  report.context_num("backend_threads", options.backend_threads);
  serve::SearchService service(
      std::make_unique<TimedIndex>(*index, tracer, "rbc.knn", log), options);

  const double window = config.seconds;
  const std::size_t rungs = std::size(kLadder);
  const double other_share = (1.0 - kReferenceShare) / static_cast<double>(rungs - 1);
  Rng pick(config.seed ^ 0x51ab1e5eedULL);
  std::vector<Rung> ladder(rungs);
  std::uint64_t next_request = 1;
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle)
    for (std::size_t r = 0; r < rungs; ++r) {
      Rung& rung = ladder[r];
      rung.rate = kLadder[r];
      const double duration =
          window * (r == kReference ? kReferenceShare : other_share) / kCycles;
      rung.duration_s += duration;
      const std::vector<double> due = poisson_schedule(
          config.seed * 1000003ULL + cycle * rungs + r, rung.rate, duration);
      const index_t offset = pick.uniform_index(kPool);
      const auto query_of = [&](std::size_t i) {
        return static_cast<index_t>((offset + i) % kPool);
      };
      const LayerLog::Totals before = log.totals();
      const std::size_t spans_before = tracer.span_count();
      const auto t0 = Clock::now() + std::chrono::milliseconds(2);
      const OpenLoopResult res = run_open_loop(
          service, data.queries, kK, due, t0, query_of,
          [&](std::size_t i, const serve::QueryResult& a) {
            return same_answer(a, ref, query_of(i));
          });
      const LayerLog::Totals after = log.totals();

      std::vector<double> lat;
      std::size_t wrong = 0;
      std::size_t done_in_window = 0;
      for (std::size_t i = 0; i < due.size(); ++i) {
        // A wrong or failed answer misses any latency limit.
        lat.push_back(res.ok[i] ? res.latency_ms(i) : 1e9);
        rung.lag_ms.push_back(res.lag_ms(i));
        rung.submit_us.push_back(res.submit_us(i));
        if (!res.ok[i]) ++wrong;
        if (res.done_s[i] <= duration) ++done_in_window;
      }
      report.attempt(due.size());
      if (wrong > 0)
        report.mismatch(std::to_string(wrong) + " service answers at " +
                        std::to_string(static_cast<int>(rung.rate)) +
                        " qps differ from direct knn_search or failed");
      const Summary cycle_lat = summarize(lat);
      rung.cycle_p50.push_back(cycle_lat.p50);
      {
        std::vector<double> sorted = lat;
        std::sort(sorted.begin(), sorted.end());
        rung.cycle_p90.push_back(percentile_sorted(sorted, 90.0));
      }
      rung.cycle_p99.push_back(cycle_lat.p99);
      rung.cycle_qps.push_back(static_cast<double>(done_in_window) / duration);
      rung.fewest_cycle_samples = std::min(rung.fewest_cycle_samples, due.size());
      rung.latency_ms.insert(rung.latency_ms.end(), lat.begin(), lat.end());
      rung.requests += due.size();
      rung.wrong += wrong;
      rung.done_in_window += done_in_window;
      rung.rows += after.rows - before.rows;
      rung.calls += after.calls - before.calls;
      rung.evals += after.stats.dist_evals() - before.stats.dist_evals();

      if (tracer.enabled()) {
        // The service's queue is FIFO for one k and one worker runs batches
        // in dispatch order, so request j of the rung was answered by the
        // batch whose cumulative row range holds j. A batch span serves many
        // requests; the queue wait and compute derived from it are per
        // request.
        const std::vector<Span> spans = tracer.spans();
        const std::uint32_t knn = tracer.name_id("rbc.knn");
        std::vector<const Span*> batches;
        for (std::size_t s = spans_before; s < spans.size(); ++s)
          if (spans[s].name == knn) batches.push_back(&spans[s]);
        const std::int64_t base = tracer.to_ns(t0);
        const auto at = [&](double sec) { return base + static_cast<std::int64_t>(sec * 1e9); };
        std::size_t b = 0;
        std::uint32_t used = 0;
        for (std::size_t i = 0; i < due.size() && b < batches.size(); ++i) {
          const Span& batch = *batches[b];
          rung.queue_wait_ms.push_back(static_cast<double>(batch.start_ns - at(res.due_s[i])) / 1e6);
          rung.compute_ms.push_back(static_cast<double>(batch.end_ns - batch.start_ns) / 1e6);
          const std::int64_t req = tracer.add("request", at(res.due_s[i]), at(res.done_s[i]),
                                              -1, next_request, 1);
          tracer.add("serve.submit", at(res.call_s[i]), at(res.submit_s[i]), req,
                     next_request, 1);
          ++next_request;
          if (++used == batch.rows) {
            ++b;
            used = 0;
          }
        }
        for (const Span* sp : batches) rung.singleton_calls += sp->rows == 1 ? 1 : 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  service.drain();
  const serve::ServiceStats stats = service.stats();

  std::string table = "[";
  double max_rate = 0.0;
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    table += r ? ", " : "";
    table += rung_json(ladder[r], kLatencyLimitMs);
    if (ladder[r].meets_limit(kLatencyLimitMs)) max_rate = ladder[r].rate;
  }
  report.context("ladder", table + "]");
  report.context_num("latency_limit_p99_ms", kLatencyLimitMs);

  const Rung& ref_rung = ladder[kReference];
  const Rung& top = ladder.back();
  const std::string per_cycle = "; median over " + std::to_string(kCycles) +
                                " cycles of at least " +
                                std::to_string(ref_rung.fewest_cycle_samples) + " samples";
  report.e2e("setup_s", median(setup_s), "s", "lower", kSetupReps,
             "median of rbc-exact make_index + build");
  report.e2e("throughput_qps", median(top.cycle_qps), "1/s", "higher",
             static_cast<std::int64_t>(top.requests),
             "completions per second at the top (overload) rung; median over cycles");
  report.e2e("p50_ms", median(ref_rung.cycle_p50), "ms", "lower",
             static_cast<std::int64_t>(ref_rung.requests),
             "from due time at the reference rate" + per_cycle);
  report.e2e("p90_ms", median(ref_rung.cycle_p90), "ms", "lower",
             static_cast<std::int64_t>(ref_rung.requests),
             "from due time at the reference rate" + per_cycle);
  report.e2e("p99_ms", median(ref_rung.cycle_p99), "ms", "lower",
             static_cast<std::int64_t>(ref_rung.requests),
             "from due time at the reference rate" + per_cycle);
  report.e2e("work_speedup", static_cast<double>(kN) / ref_rung.evals_per_query(), "x",
             "higher", static_cast<std::int64_t>(ref_rung.requests),
             "brute-force evals over served evals per query, at the reference rate");
  report.e2e("max_rate_qps", max_rate, "1/s", "higher", -1,
             "highest ladder rate with p99 <= 20 ms and no growing backlog");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB", "lower");
  report.context_num("reference_rate_qps", ref_rung.rate);

  if (!config.trace) return;
  report_bruteforce_probe(report, data.database, data.queries, kK);
  report.layer("rbc.build_s", median(setup_s), "s", "lower", kSetupReps);
  report_rbc_layer(report, "rbc", log.totals());
  const Summary submit = summarize(ref_rung.submit_us);
  report.layer("serve.submit_us.p50", submit.p50, "us", "lower",
               static_cast<std::int64_t>(submit.samples), "reference rate");
  report.layer("serve.submit_us.p99", submit.p99, "us", "lower",
               static_cast<std::int64_t>(submit.samples), "reference rate");
  report.layer_timing("serve.queue_wait_ms", summarize(ref_rung.queue_wait_ms), "ms");
  report.layer_timing("serve.compute_ms", summarize(ref_rung.compute_ms), "ms");
  report.layer("serve.mean_batch", stats.mean_batch(), "rows", "higher",
               static_cast<std::int64_t>(stats.batches), "whole ladder");
  report.layer("serve.singleton_frac",
               static_cast<double>(ref_rung.singleton_calls) /
                   static_cast<double>(std::max<std::uint64_t>(ref_rung.calls, 1)),
               "ratio", "lower", static_cast<std::int64_t>(ref_rung.calls), "reference rate");
  report.layer("serve.max_queue_depth", static_cast<double>(stats.max_queue_depth),
               "count", "lower");
  report.layer("serve.rejected", static_cast<double>(stats.rejected), "count", "lower");
  report.layer("serve.failed", static_cast<double>(stats.failed), "count", "lower");
  double lag_p99 = 0.0;
  double lag_max = 0.0;
  for (const Rung& r : ladder) {
    const Summary lag = summarize(r.lag_ms);
    lag_p99 = std::max(lag_p99, lag.p99);
    lag_max = std::max(lag_max, lag.max);
  }
  report.layer("gen.lag_ms.p99", lag_p99, "ms", "lower", -1,
               "worst rung; every rung's figure is in context.ladder");
  report.layer("gen.lag_ms.max", lag_max, "ms", "lower");
  report.layer("rbc.evals_per_query.lightest", ladder.front().evals_per_query(), "count",
               "lower", static_cast<std::int64_t>(ladder.front().rows),
               "the reference rung");
  report.layer("rbc.evals_per_query.overload", top.evals_per_query(), "count", "lower",
               static_cast<std::int64_t>(top.rows));
  report_distance_layer(report, data.database, data.queries, triad_probe());
  report_codec_probe(report, 1, data.queries.cols(), kK, config.seed);
  report_merge_probe(report, 1, kK, config.seed);
  for (const char* name : {"net.bytes_per_query", "net.server_busy_frac",
                           "router.knn_ms", "router.overhead_ms", "shard.*",
                           "mutate.*", "oneshot.*"})
    report.absent(name, "serve-poisson runs one in-process service over one "
                        "unsharded exact index, with no writes");
}

}  // namespace perfbench
