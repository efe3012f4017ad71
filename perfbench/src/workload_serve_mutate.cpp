// serve-mutate: the serve-poisson index and service under a read/write mix.
//
// Two closed-loop reader threads submit single queries (k = 5) while a
// writer thread, open loop at a fixed rate, alternates inserting fresh
// seeded rows with removing live ids, so the size stays steady. The default
// max_delta then triggers several background merges per run. Reads compete
// with the delta scan, merge rebuilds and the writer's calls; a change that
// helps reads by hurting writes, or the reverse, shows here and not in
// serve-poisson. Reads are checked at checkpoints, while the writer holds
// still, against brute force over live_ids().
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "api/api.hpp"
#include "data/generators.hpp"
#include "probes.hpp"
#include "shard/merge.hpp"
#include "timed_index.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr rbc::index_t kN = 200'000;
constexpr rbc::index_t kPool = 4096;
constexpr rbc::index_t kK = 5;
constexpr int kReaders = 2;
constexpr int kSetupReps = 5;
constexpr double kWriteRate = 50.0;   // writer calls per second
constexpr rbc::index_t kWriteRows = 32;  // rows per insert, ids per remove
constexpr int kCheckpoints = 3;       // inside the window; one more at the end
constexpr rbc::index_t kCheckQueries = 64;
constexpr std::size_t kCheckChunk = 25'000;  // live rows per brute-force part

}  // namespace

void run_serve_mutate(const RunConfig& config, Tracer& tracer, Report& report) {
  using namespace rbc;
  const data::DatasetSpec& spec = data::dataset_by_name("robot");
  const data::DataSplit data = data::make_benchmark_data(spec, kN, kPool, config.seed);
  const auto insert_calls =
      static_cast<index_t>(kWriteRate / 2.0 * config.seconds) + 2;
  const Matrix<float> fresh =
      data::make_dataset(spec, insert_calls * kWriteRows, config.seed ^ 0xf7e5b0057ULL);
  report.context_num("n", kN);
  report.context_num("d", data.database.cols());
  report.context_num("k", kK);
  report.context_num("readers", kReaders);
  report.context_num("write_rate", kWriteRate);
  report.context_num("write_rows", kWriteRows);

  std::vector<double> setup_s;
  std::unique_ptr<Index> index;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    index.reset();
    const auto t0 = Clock::now();
    index = make_index("rbc-exact");
    index->build(data.database);
    setup_s.push_back(seconds_since(t0));
  }
  const IndexOptions defaults;
  report.context_num("max_delta", defaults.max_delta);

  // As in serve-poisson, the backend gets all cores but one, which the
  // readers, the writer and the dispatcher share.
  LayerLog log;
  serve::ServiceOptions options;
  options.backend_threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  report.context_num("backend_threads", options.backend_threads);
  serve::SearchService service(
      std::make_unique<TimedIndex>(*index, tracer, "rbc.knn", log), options);

  // The writer's view of the live set, in no order; checkpoints sort a copy.
  const auto row_of = [&](index_t id) {
    return id < kN ? data.database.row(id) : fresh.row(id - kN);
  };
  std::vector<index_t> live(kN);
  for (index_t i = 0; i < kN; ++i) live[i] = i;

  // Checkpoint: the writer holds still, so the live set is fixed. The
  // index's live_ids() must equal the writer's, and service answers must
  // equal brute force over exactly those rows, bit for bit.
  Rng check_pick(config.seed ^ 0xc4ec4ULL);
  int checkpoints = 0;
  const auto checkpoint = [&] {
    ++checkpoints;
    std::vector<index_t> expect = live;
    std::sort(expect.begin(), expect.end());
    const std::vector<index_t> got = service.index().live_ids();
    if (got != expect) {
      report.mismatch("live_ids() differs from the writer's live set");
      return;
    }
    // Brute force over the live rows a chunk at a time, merged exactly by
    // global id, so the check adds only a chunk's memory to the peak RSS
    // this workload reports.
    const Matrix<float> block =
        block_of(data.queries, check_pick.uniform_index(kPool), kCheckQueries);
    std::vector<KnnResult> parts;
    std::vector<std::vector<index_t>> part_ids;
    for (std::size_t begin = 0; begin < got.size(); begin += kCheckChunk) {
      const auto count = static_cast<index_t>(std::min<std::size_t>(kCheckChunk, got.size() - begin));
      Matrix<float> rows(count, data.database.cols());
      for (index_t i = 0; i < count; ++i)
        std::copy(row_of(got[begin + i]), row_of(got[begin + i]) + rows.cols(), rows.row(i));
      auto brute = make_index("bruteforce");
      brute->build(rows);
      parts.push_back(brute->knn_search({.queries = &block, .k = kK}).knn);
      part_ids.emplace_back(got.begin() + static_cast<std::ptrdiff_t>(begin),
                            got.begin() + static_cast<std::ptrdiff_t>(begin + count));
    }
    std::vector<shard::MergeInput> inputs;
    for (std::size_t p = 0; p < parts.size(); ++p)
      inputs.push_back({.knn = &parts[p], .k = kK, .global_ids = &part_ids[p]});
    const KnnResult want = shard::merge_shard_topk(kCheckQueries, kK, inputs);
    for (index_t q = 0; q < kCheckQueries; ++q) {
      report.attempt(1);
      const serve::QueryResult r = service.submit({block.row(q), block.cols()}, kK).get();
      if (!same_row(r.ids.data(), r.dists.data(), want.ids.row(q), want.dists.row(q), kK))
        report.mismatch("checkpoint " + std::to_string(checkpoints) + " query " +
                        std::to_string(q) + " differs from brute force over live_ids()");
    }
  };

  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> read_ms(kReaders), read_t(kReaders), submit_us(kReaders);
  std::vector<std::thread> readers;
  // Stops and joins the readers on every exit path, exceptions included.
  struct JoinReaders {
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~JoinReaders() {
      stop = true;
      for (std::thread& t : threads)
        if (t.joinable()) t.join();
    }
  } join_readers{stop, readers};
  const auto start = Clock::now();
  for (int c = 0; c < kReaders; ++c)
    readers.emplace_back([&, c] {
      Rng pick(config.seed * 104729 + static_cast<std::uint64_t>(c));
      auto& lat = read_ms[static_cast<std::size_t>(c)];
      auto& when = read_t[static_cast<std::size_t>(c)];
      auto& sub = submit_us[static_cast<std::size_t>(c)];
      while (!stop.load(std::memory_order_relaxed)) {
        const index_t qi = pick.uniform_index(kPool);
        report.attempt(1);
        const auto t0 = Clock::now();
        try {
          auto f = service.submit({data.queries.row(qi), data.queries.cols()}, kK);
          sub.push_back(seconds_since(t0) * 1e6);
          const serve::QueryResult r = f.get();
          lat.push_back(seconds_since(t0) * 1e3);
          when.push_back(std::chrono::duration<double>(t0 - start).count());
          bool ok = r.ids.size() == kK && r.dists.size() == kK;
          for (index_t j = 0; ok && j < kK; ++j)
            ok = r.ids[j] != kInvalidIndex && (j == 0 || r.dists[j - 1] <= r.dists[j]);
          if (!ok) report.mismatch("read answer malformed");
        } catch (const std::exception& e) {
          report.fail(1, std::string("read: ") + e.what());
        }
      }
    });

  // Writer: open loop at kWriteRate, latency from each call's due time. The
  // schedule shifts by the length of each checkpoint, which is not a write.
  std::vector<double> write_ms, insert_ms, remove_ms, lag_ms, delta_rows;
  int merges = 0;
  {
    Rng pick(config.seed ^ 0x3e30e5ULL);
    index_t next_fresh = 0;
    index_t prev_delta = 0;
    index_t prev_tombs = 0;
    auto t0 = start;
    int next_check = 0;
    const double window = config.seconds;
    for (std::uint64_t op = 0;; ++op) {
      const double due_s = static_cast<double>(op) / kWriteRate;
      const double elapsed = seconds_since(start);
      if (elapsed >= window) break;
      if (next_check < kCheckpoints &&
          elapsed >= window * (next_check + 1) / (kCheckpoints + 1)) {
        ++next_check;
        const auto c0 = Clock::now();
        checkpoint();
        t0 += Clock::now() - c0;
      }
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(due_s));
      std::this_thread::sleep_until(due);
      const auto call = Clock::now();
      lag_ms.push_back(std::chrono::duration<double, std::milli>(call - due).count());
      report.attempt(1);
      try {
        if (op % 2 == 0 && next_fresh < insert_calls) {
          Matrix<float> rows(kWriteRows, data.database.cols());
          std::vector<index_t> ids(kWriteRows);
          for (index_t i = 0; i < kWriteRows; ++i) {
            rows.copy_row_from(fresh, next_fresh * kWriteRows + i, i);
            ids[i] = kN + next_fresh * kWriteRows + i;
          }
          ++next_fresh;
          service.insert(rows, ids);
          live.insert(live.end(), ids.begin(), ids.end());
          insert_ms.push_back(seconds_since(call) * 1e3);
        } else {
          std::vector<index_t> ids(kWriteRows);
          for (index_t i = 0; i < kWriteRows; ++i) {
            const index_t at = pick.uniform_index(static_cast<index_t>(live.size()));
            ids[i] = live[at];
            live[at] = live.back();
            live.pop_back();
          }
          const index_t removed = service.remove(ids);
          remove_ms.push_back(seconds_since(call) * 1e3);
          if (removed != kWriteRows)
            report.mismatch("remove of live ids removed " + std::to_string(removed));
        }
        write_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - due).count());
      } catch (const std::exception& e) {
        report.fail(1, std::string("write: ") + e.what());
      }
      // Removes only add tombstones and drop at most kWriteRows delta rows,
      // so a drop in tombstones or a larger drop in delta rows is a merge.
      const IndexInfo info = service.index().info();
      if (info.tombstones < prev_tombs || info.delta_rows + kWriteRows < prev_delta)
        ++merges;
      prev_delta = info.delta_rows;
      prev_tombs = info.tombstones;
      delta_rows.push_back(info.delta_rows);
    }
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  const double wall_s = seconds_since(start);
  const LayerLog::Totals reads = log.totals();

  const auto c0 = Clock::now();
  service.compact();
  const double compact_s = seconds_since(c0);
  checkpoint();

  std::vector<double> all_read_ms, all_read_t, all_submit_us;
  for (int c = 0; c < kReaders; ++c) {
    all_read_ms.insert(all_read_ms.end(), read_ms[c].begin(), read_ms[c].end());
    all_read_t.insert(all_read_t.end(), read_t[c].begin(), read_t[c].end());
    all_submit_us.insert(all_submit_us.end(), submit_us[c].begin(), submit_us[c].end());
  }
  const Summary lat = summarize(all_read_ms);
  const Summary wlat = summarize(write_ms);
  const double read_evals_per_q =
      static_cast<double>(reads.stats.dist_evals()) / static_cast<double>(reads.rows);

  report.e2e("setup_s", median(setup_s), "s", "lower", kSetupReps,
             "median of rbc-exact make_index + build");
  report.e2e("throughput_qps",
             median_window_rate(all_read_t, std::vector<double>(all_read_t.size(), 1.0), wall_s),
             "1/s", "higher", static_cast<std::int64_t>(lat.samples),
             "reads per second; median over windows");
  report_latency(report, all_read_t, all_read_ms, wall_s, "single-query read");
  report.e2e("work_speedup", static_cast<double>(kN) / read_evals_per_q, "x", "higher",
             static_cast<std::int64_t>(reads.rows),
             "live rows over evals per read (delta scan included)");
  report.e2e("write_p99_ms", wlat.p99, "ms", "lower", static_cast<std::int64_t>(wlat.samples),
             wlat.p99_supported ? "insert/remove from due time"
                                : "insert/remove from due time; fewer than 10 samples beyond p99");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB", "lower");
  report.context_num("merges", merges);
  report.context_num("checkpoints", checkpoints);

  if (!config.trace) return;
  report_bruteforce_probe(report, data.database, data.queries, kK);
  const serve::ServiceStats stats = service.stats();
  report.layer("rbc.build_s", median(setup_s), "s", "lower", kSetupReps);
  report_rbc_layer(report, "rbc", reads);
  report.layer_timing("mutate.insert_ms", summarize(insert_ms), "ms");
  report.layer_timing("mutate.remove_ms", summarize(remove_ms), "ms");
  report.layer("mutate.merges", merges, "count", "lower", -1,
               "drops observed in info().delta_rows / tombstones after writes");
  double delta_sum = 0.0;
  for (const double d : delta_rows) delta_sum += d;
  report.layer("mutate.delta_rows_mean",
               delta_sum / static_cast<double>(std::max<std::size_t>(delta_rows.size(), 1)),
               "rows", "lower", static_cast<std::int64_t>(delta_rows.size()));
  report.layer("mutate.compact_s", compact_s, "s", "lower");
  report.layer("mutate.read_evals_per_query", read_evals_per_q, "count", "lower",
               static_cast<std::int64_t>(reads.rows));
  const Summary sub = summarize(all_submit_us);
  report.layer("serve.submit_us.p50", sub.p50, "us", "lower",
               static_cast<std::int64_t>(sub.samples));
  report.layer("serve.submit_us.p99", sub.p99, "us", "lower",
               static_cast<std::int64_t>(sub.samples));
  report.layer_timing("serve.compute_ms", summarize(reads.call_ms), "ms");
  report.layer("serve.mean_batch", stats.mean_batch(), "rows", "higher",
               static_cast<std::int64_t>(stats.batches));
  report.layer("serve.max_queue_depth", static_cast<double>(stats.max_queue_depth),
               "count", "lower");
  report.layer("serve.rejected", static_cast<double>(stats.rejected), "count", "lower");
  report.layer("serve.failed", static_cast<double>(stats.failed), "count", "lower");
  report.layer_timing("gen.lag_ms", summarize(lag_ms), "ms");
  report_distance_layer(report, data.database, data.queries, triad_probe());
  report_codec_probe(report, 1, data.queries.cols(), kK, config.seed);
  report_merge_probe(report, 1, kK, config.seed);
  report.absent("serve.queue_wait_ms",
                "closed-loop readers have no due time; see serve-poisson");
  for (const char* name : {"net.bytes_per_query", "net.server_busy_frac",
                           "router.knn_ms", "router.overhead_ms", "shard.*",
                           "oneshot.*"})
    report.absent(name, "serve-mutate runs one in-process service over one "
                        "unsharded index");
}

}  // namespace perfbench
