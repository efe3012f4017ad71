// net-routed: callers that wait for replies, so a closed loop.
//
// The tiny4 surrogate (n = 1,000,000, d = 4) is split into two contiguous
// shards, each served by its own in-process RbcServer over rbc-exact on
// loopback. Two caller threads each own a NetRouter (two connections each,
// four in all) and send 8-row knn requests with k = 10. At about 1.5k
// distance evaluations per query the wire, the router's scatter/gather and
// the shard merge are the dominant cost, where batch-bio is all compute.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "api/api.hpp"
#include "data/generators.hpp"
#include "dist/net_router.hpp"
#include "probes.hpp"
#include "serve/net/server.hpp"
#include "shard/sharded_index.hpp"
#include "timed_index.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr rbc::index_t kN = 1'000'000;
constexpr rbc::index_t kShards = 2;
constexpr rbc::index_t kPool = 4096;
constexpr rbc::index_t kRows = 8;
constexpr rbc::index_t kK = 10;
constexpr int kCallers = 2;
constexpr int kSetupReps = 5;

LayerLog::Totals combine(const LayerLog::Totals& a, const LayerLog::Totals& b) {
  LayerLog::Totals t = a;
  t.calls += b.calls;
  t.rows += b.rows;
  t.busy_ms += b.busy_ms;
  t.stats.merge(b.stats);
  t.call_ms.insert(t.call_ms.end(), b.call_ms.begin(), b.call_ms.end());
  return t;
}

}  // namespace

void run_net_routed(const RunConfig& config, Tracer& tracer, Report& report) {
  using namespace rbc;
  const data::DataSplit data = data::make_benchmark_data(
      data::dataset_by_name("tiny4"), kN, kPool, config.seed);
  report.context_num("n", kN);
  report.context_num("d", data.database.cols());
  report.context_num("shards", kShards);
  report.context_num("rows_per_call", kRows);
  report.context_num("k", kK);
  report.context_num("callers", kCallers);

  const std::vector<std::vector<index_t>> parts =
      shard::partition_rows(kN, kShards, shard::Partition::kContiguous);
  std::vector<Matrix<float>> shard_rows;
  for (const std::vector<index_t>& part : parts) {
    Matrix<float> m(static_cast<index_t>(part.size()), data.database.cols());
    for (index_t i = 0; i < m.rows(); ++i) m.copy_row_from(data.database, part[i], i);
    shard_rows.push_back(std::move(m));
  }

  // Query blocks and their reference answers: direct knn_search on one
  // unsharded index over the same rows, block by block.
  const index_t num_blocks = kPool / kRows;
  std::vector<Matrix<float>> blocks;
  std::vector<KnnResult> ref;
  std::uint64_t unsharded_evals = 0;
  {
    auto whole = make_index("rbc-exact");
    whole->build(data.database);
    for (index_t b = 0; b < num_blocks; ++b) {
      blocks.push_back(block_of(data.queries, b * kRows, kRows));
      SearchRequest request{.queries = &blocks.back(), .k = kK};
      request.options.collect_stats = true;
      SearchResponse r = whole->knn_search(request);
      unsharded_evals += r.stats.dist_evals();
      ref.push_back(std::move(r.knn));
    }
  }

  // Set-up: shard builds, server start and router connect, kSetupReps
  // times; the last set serves. Declaration order is teardown order in
  // reverse: routers close before servers stop before indexes go.
  LayerLog logs[kShards];
  std::vector<std::unique_ptr<Index>> indexes;
  std::vector<std::unique_ptr<serve::net::RbcServer>> servers;
  std::vector<std::unique_ptr<dist::NetRouter>> routers;
  std::vector<double> setup_s, build_s;
  // The shard servers split the cores between them, as one host running two
  // shard processes would.
  serve::ServiceOptions service_options;
  service_options.backend_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / static_cast<int>(kShards));
  report.context_num("backend_threads_per_shard", service_options.backend_threads);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    routers.clear();
    servers.clear();
    indexes.clear();
    const auto t0 = Clock::now();
    for (index_t s = 0; s < kShards; ++s) {
      indexes.push_back(make_index("rbc-exact"));
      indexes.back()->build(shard_rows[s]);
    }
    build_s.push_back(seconds_since(t0));
    std::vector<dist::Endpoint> endpoints;
    for (index_t s = 0; s < kShards; ++s) {
      servers.push_back(std::make_unique<serve::net::RbcServer>(
          std::make_unique<TimedIndex>(*indexes[s], tracer, "rbc.knn", logs[s]),
          serve::net::ServerOptions{}, service_options));
      endpoints.push_back({.host = "127.0.0.1", .port = servers.back()->port()});
    }
    for (int c = 0; c < kCallers; ++c)
      routers.push_back(std::make_unique<dist::NetRouter>(endpoints));
    setup_s.push_back(seconds_since(t0));
  }

  // Closed loop: each caller sends its next request when the last returns.
  std::vector<std::vector<double>> call_ms(kCallers), call_t(kCallers);
  std::atomic<std::uint64_t> rows_done{0};
  const auto start = Clock::now();
  const auto stop_at = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(config.seconds));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      Rng pick(config.seed * 7919 + static_cast<std::uint64_t>(c));
      dist::NetRouter& router = *routers[static_cast<std::size_t>(c)];
      for (std::uint64_t call = 0; Clock::now() < stop_at; ++call) {
        const index_t b = pick.uniform_index(num_blocks);
        const std::uint64_t id = (static_cast<std::uint64_t>(c) << 40) | (call + 1);
        report.attempt(kRows);
        const auto t0 = Clock::now();
        try {
          ScopedSpan span(tracer, "router.knn", id, kRows);
          const KnnResult r = router.knn(blocks[b], kK);
          span.end();
          call_ms[static_cast<std::size_t>(c)].push_back(seconds_since(t0) * 1e3);
          call_t[static_cast<std::size_t>(c)].push_back(
              std::chrono::duration<double>(t0 - start).count());
          for (index_t i = 0; i < kRows; ++i)
            if (!same_row(r, i, ref[b], i))
              report.mismatch("routed block " + std::to_string(b) + " row " +
                              std::to_string(i) + " differs from unsharded knn_search");
          rows_done += kRows;
        } catch (const std::exception& e) {
          report.fail(kRows, std::string("router.knn: ") + e.what());
        }
      }
    });
  for (std::thread& t : callers) t.join();
  const double wall_s = seconds_since(start);

  std::vector<double> all_ms, all_t;
  for (int c = 0; c < kCallers; ++c) {
    all_ms.insert(all_ms.end(), call_ms[c].begin(), call_ms[c].end());
    all_t.insert(all_t.end(), call_t[c].begin(), call_t[c].end());
  }
  const Summary lat = summarize(all_ms);
  const LayerLog::Totals shard0 = logs[0].totals();
  const LayerLog::Totals shard1 = logs[1].totals();
  const LayerLog::Totals both = combine(shard0, shard1);
  const double rows = static_cast<double>(rows_done.load());
  const double shard_evals_per_q = static_cast<double>(both.stats.dist_evals()) / rows;

  report.e2e("setup_s", median(setup_s), "s", "lower", kSetupReps,
             "median of 2 shard builds + 2 server starts + 2 router connects");
  report.e2e("throughput_qps",
             median_window_rate(all_t, std::vector<double>(all_t.size(), kRows), wall_s),
             "1/s", "higher", static_cast<std::int64_t>(rows),
             "routed query rows per second; median over windows");
  report_latency(report, all_t, all_ms, wall_s, "one 8-row router.knn call");
  report.e2e("work_speedup", static_cast<double>(kN) / shard_evals_per_q, "x", "higher",
             static_cast<std::int64_t>(rows),
             "brute-force evals over summed shard evals per routed query");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB", "lower");

  std::uint64_t bytes = 0, rejected = 0, protocol_errors = 0, timeouts = 0;
  std::uint64_t batches = 0, completed = 0;
  for (const auto& server : servers) {
    const serve::net::NetServerStats st = server->stats();
    bytes += st.bytes_in + st.bytes_out;
    rejected += st.rejected;
    protocol_errors += st.protocol_errors;
    timeouts += st.timeouts;
    const serve::ServiceStats ss = server->service()->stats();
    batches += ss.batches;
    completed += ss.completed;
  }
  std::uint64_t retries = 0, transport_errors = 0, failovers = 0;
  for (const auto& router : routers) {
    retries += router->stats().retries;
    transport_errors += router->stats().transport_errors;
    failovers += router->stats().failovers;
  }
  if (!config.trace) return;

  report_bruteforce_probe(report, data.database, data.queries, kK);
  report.layer("rbc.build_s", median(build_s), "s", "lower", kSetupReps,
               "both shard indexes");
  report_rbc_layer(report, "rbc", both);
  report.layer_timing("router.knn_ms", lat, "ms");
  const Summary compute = summarize(both.call_ms);
  report.layer("router.overhead_ms", lat.p50 - compute.p50, "ms", "lower",
               static_cast<std::int64_t>(lat.samples),
               "router p50 minus shard knn_search p50");
  report.layer("router.retries", static_cast<double>(retries), "count", "lower");
  report.layer("router.transport_errors", static_cast<double>(transport_errors), "count",
               "lower");
  report.layer("router.failovers", static_cast<double>(failovers), "count", "lower");
  report.layer("shard.work_inflation",
               shard_evals_per_q /
                   (static_cast<double>(unsharded_evals) / static_cast<double>(kPool)),
               "ratio", "lower", static_cast<std::int64_t>(rows),
               "summed shard evals over unsharded evals, same 8-row blocks");
  const double mean_busy = 0.5 * (shard0.busy_ms + shard1.busy_ms);
  report.layer("shard.imbalance", std::max(shard0.busy_ms, shard1.busy_ms) / mean_busy,
               "ratio", "lower", -1, "max shard compute over mean");
  report.layer("net.bytes_per_query", static_cast<double>(bytes) / rows, "B", "lower");
  report.layer("net.server_busy_frac", both.busy_ms / (wall_s * 1e3 * kShards), "ratio",
               "higher", -1, "shard knn_search time over wall time, per server");
  report.layer("net.rejected", static_cast<double>(rejected), "count", "lower");
  report.layer("net.protocol_errors", static_cast<double>(protocol_errors), "count",
               "lower");
  report.layer("net.timeouts", static_cast<double>(timeouts), "count", "lower");
  report.layer("serve.mean_batch",
               static_cast<double>(completed) / static_cast<double>(std::max<std::uint64_t>(batches, 1)),
               "rows", "higher", static_cast<std::int64_t>(batches),
               "inside the shard servers' services");
  report_distance_layer(report, data.database, data.queries, triad_probe());
  report_codec_probe(report, kRows, data.queries.cols(), kK, config.seed);
  report_merge_probe(report, kRows, kK, config.seed);
  for (const char* name : {"serve.submit_us", "serve.queue_wait_ms", "gen.lag_ms",
                           "mutate.*", "oneshot.*"})
    report.absent(name, "net-routed is a closed loop whose service submissions "
                        "happen inside the servers; it has no writes");
}

}  // namespace perfbench
