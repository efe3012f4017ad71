// batch-bio: the paper's Fig. 2 / Fig. 1 protocol at the paper's size.
//
// The bio surrogate (n = 200,000, d = 74, 59 MB) is far larger than a core's
// L2 and fits in a large shared L3. Query blocks of 4096 rows go to
// rbc-exact with k = 1 (Fig. 2), then to rbc-oneshot with nr = s = sqrt(n)
// (Fig. 1); brute force, computed before the timed window, is the reference
// both are checked against. Single rows sent to the same exact index show
// how work per query depends on block size. The distance and rbc layers do
// nearly all the work; serve, net and mutate do none.
#include <memory>

#include "api/api.hpp"
#include "data/generators.hpp"
#include "probes.hpp"
#include "timed_index.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr rbc::index_t kN = 200'000;
constexpr rbc::index_t kBlock = 4096;
constexpr rbc::index_t kBlocks = 2;
constexpr rbc::index_t kK = 1;
constexpr int kSetupReps = 3;
constexpr rbc::index_t kSinglesPerCycle = 48;

}  // namespace

void run_batch_bio(const RunConfig& config, Tracer& tracer, Report& report) {
  using namespace rbc;
  const data::DataSplit data = data::make_benchmark_data(
      data::dataset_by_name("bio"), kN, kBlock * kBlocks, config.seed);
  report.context_num("n", kN);
  report.context_num("d", data.database.cols());
  report.context_num("block_rows", kBlock);
  report.context_num("k", kK);

  // Set-up: both RBC indexes, built kSetupReps times; the last pair serves.
  std::vector<double> setup_s, exact_build_s, oneshot_build_s;
  std::unique_ptr<Index> exact;
  std::unique_ptr<Index> oneshot;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    exact.reset();
    oneshot.reset();
    const auto t0 = Clock::now();
    exact = make_index("rbc-exact");
    exact->build(data.database);
    exact_build_s.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    oneshot = make_index("rbc-oneshot");
    oneshot->build(data.database);
    oneshot_build_s.push_back(seconds_since(t1));
    setup_s.push_back(seconds_since(t0));
  }

  // Reference answers, outside the timed window.
  auto brute = make_index("bruteforce");
  brute->build(data.database);
  std::vector<KnnResult> ref;
  const auto tb = Clock::now();
  std::vector<Matrix<float>> blocks;
  for (index_t b = 0; b < kBlocks; ++b) {
    blocks.push_back(block_of(data.queries, b * kBlock, kBlock));
    ref.push_back(brute->knn_search({.queries = &blocks.back(), .k = kK}).knn);
  }
  const double bf_s = seconds_since(tb);
  brute.reset();

  LayerLog exact_log, oneshot_log, single_log;
  TimedIndex exact_timed(*exact, tracer, "rbc.knn", exact_log);
  TimedIndex oneshot_timed(*oneshot, tracer, "oneshot.knn", oneshot_log);
  TimedIndex single_timed(*exact, tracer, "rbc.knn_single", single_log);

  // The timed window cycles through the three measurements, so host noise
  // that comes and goes over seconds falls on all of them alike: an exact
  // block (Fig. 2), a one-shot block (Fig. 1), then kSinglesPerCycle single
  // rows through the same exact index.
  std::vector<double> exact_t, exact_rows, exact_s;
  std::vector<double> oneshot_t, oneshot_rows, oneshot_s;
  std::vector<double> single_ms;
  std::uint64_t oneshot_total = 0;
  std::uint64_t oneshot_hits = 0;
  const double window = config.seconds;
  const auto start = Clock::now();
  Matrix<float> one(1, data.queries.cols());
  std::size_t next_single = 0;
  for (index_t cycle = 0; cycle < 2 || seconds_since(start) < window; ++cycle) {
    const index_t b = cycle % kBlocks;
    {
      const double t = seconds_since(start);
      const auto t0 = Clock::now();
      SearchResponse r = exact_timed.knn_search({.queries = &blocks[b], .k = kK});
      exact_s.push_back(seconds_since(t0));
      exact_t.push_back(t);
      exact_rows.push_back(kBlock);
      report.attempt(kBlock);
      for (index_t i = 0; i < kBlock; ++i)
        if (!same_row(r.knn, i, ref[b], i))
          report.mismatch("rbc-exact block " + std::to_string(b) + " row " +
                          std::to_string(i) + " differs from brute force");
    }
    {
      // Recall@1 against brute force; a returned point at the true nearest
      // distance counts as a hit (ties).
      const double t = seconds_since(start);
      const auto t0 = Clock::now();
      SearchResponse r = oneshot_timed.knn_search({.queries = &blocks[b], .k = kK});
      oneshot_s.push_back(seconds_since(t0));
      oneshot_t.push_back(t);
      oneshot_rows.push_back(kBlock);
      report.attempt(kBlock);
      oneshot_total += kBlock;
      for (index_t i = 0; i < kBlock; ++i)
        if (r.knn.ids.row(i)[0] == ref[b].ids.row(i)[0] ||
            r.knn.dists.row(i)[0] == ref[b].dists.row(i)[0])
          ++oneshot_hits;
    }
    for (index_t s = 0; s < kSinglesPerCycle; ++s, ++next_single) {
      const index_t sb = static_cast<index_t>((next_single / kBlock) % kBlocks);
      const index_t row = static_cast<index_t>(next_single % kBlock);
      one.copy_row_from(blocks[sb], row, 0);
      const auto t0 = Clock::now();
      SearchResponse r = single_timed.knn_search({.queries = &one, .k = kK});
      single_ms.push_back(seconds_since(t0) * 1e3);
      report.attempt(1);
      if (!same_row(r.knn, 0, ref[sb], row))
        report.mismatch("rbc-exact single query block " + std::to_string(sb) +
                        " row " + std::to_string(row) + " differs from brute force");
    }
  }
  const double span = seconds_since(start);

  const LayerLog::Totals ex = exact_log.totals();
  const LayerLog::Totals os = oneshot_log.totals();
  const LayerLog::Totals sg = single_log.totals();
  const double exact_evals_per_q =
      static_cast<double>(ex.stats.dist_evals()) / static_cast<double>(ex.rows);

  report.e2e("setup_s", median(setup_s), "s", "lower", kSetupReps,
             "median of rbc-exact + rbc-oneshot make_index + build");
  report.e2e("throughput_qps", median_window_ratio(exact_t, exact_rows, exact_s, span),
             "1/s", "higher", static_cast<std::int64_t>(ex.rows),
             "rbc-exact, 4096-row blocks, k=1; median over windows");
  std::vector<double> exact_ms;
  for (const double sec : exact_s) exact_ms.push_back(sec * 1e3);
  report_latency(report, exact_t, exact_ms, span, "one 4096-row rbc-exact call");
  report.e2e("work_speedup", static_cast<double>(kN) / exact_evals_per_q, "x",
             "higher", static_cast<std::int64_t>(ex.rows),
             "brute-force evals over rbc-exact evals, 4096-row blocks");
  report.e2e("oneshot_qps", median_window_ratio(oneshot_t, oneshot_rows, oneshot_s, span),
             "1/s", "higher", static_cast<std::int64_t>(oneshot_total),
             "rbc-oneshot, 4096-row blocks, k=1; median over windows");
  report.e2e("oneshot_recall_at_1",
             static_cast<double>(oneshot_hits) / static_cast<double>(oneshot_total),
             "ratio", "higher", static_cast<std::int64_t>(oneshot_total));
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB", "lower");

  if (!config.trace) return;
  report_bruteforce(report, bf_s, kBlock * kBlocks, kN);
  report.layer("rbc.build_s", median(exact_build_s), "s", "lower", kSetupReps);
  report.layer("oneshot.build_s", median(oneshot_build_s), "s", "lower", kSetupReps);
  report_rbc_layer(report, "rbc", ex);
  report_rbc_layer(report, "oneshot", os);
  report.layer_timing("rbc.single.knn_ms", summarize(single_ms), "ms");
  report.layer("rbc.single.evals_per_query",
               static_cast<double>(sg.stats.dist_evals()) / static_cast<double>(sg.rows),
               "count", "lower", static_cast<std::int64_t>(sg.rows),
               "single-row calls; compare rbc.evals_per_query (4096-row blocks)");
  report.layer("rbc.single.ns_per_eval",
               sg.busy_ms * 1e6 / static_cast<double>(sg.stats.dist_evals()), "ns",
               "lower", static_cast<std::int64_t>(sg.calls));
  report_distance_layer(report, data.database, data.queries, triad_probe());
  report_codec_probe(report, kBlock, data.queries.cols(), kK, config.seed);
  report_merge_probe(report, kBlock, kK, config.seed);
  for (const char* name : {"serve.*", "gen.lag_ms", "net.bytes_per_query",
                           "net.server_busy_frac", "router.knn_ms",
                           "router.overhead_ms", "shard.*", "mutate.*"})
    report.absent(name, "batch-bio calls the indexes directly: no service, "
                        "server, router, shards or writes on its path");
}

}  // namespace perfbench
