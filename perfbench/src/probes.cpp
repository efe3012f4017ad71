#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "api/api.hpp"
#include "common/rng.hpp"
#include "distance/dispatch.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/runtime.hpp"
#include "serve/net/protocol.hpp"
#include "shard/merge.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using rbc::index_t;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Runs `pass` until `budget_s` has elapsed (at least 3 passes) and returns
// the median pass time in seconds.
template <class F>
double median_pass(double budget_s, F&& pass) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < 3 || since(start) < budget_s) {
    const auto t0 = Clock::now();
    pass();
    times.push_back(since(t0));
  }
  return median(times);
}

// Median microseconds of `op` over `reps` calls.
template <class F>
double median_us(int reps, F&& op) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    op();
    us.push_back(since(t0) * 1e6);
  }
  return median(us);
}

constexpr index_t kChunk = 1024;  // rows per kernel call in the probes

}  // namespace

void report_distance_layer(Report& report, const rbc::Matrix<float>& X,
                           const rbc::Matrix<float>& Q,
                           const TriadResult& triad) {
  const rbc::dispatch::KernelOps& ops = rbc::dispatch::ops();
  const index_t n = X.rows();
  const index_t d = X.cols();
  constexpr index_t kT = rbc::dispatch::kTile;

  std::vector<float> x_sq(n);
  for (index_t p = 0; p < n; ++p) {
    float s = 0.0f;
    for (index_t j = 0; j < d; ++j) s += X.row(p)[j] * X.row(p)[j];
    x_sq[p] = s;
  }
  std::vector<const float*> qrows(kT);
  for (index_t t = 0; t < kT; ++t) qrows[t] = Q.row(t % Q.rows());
  std::vector<float> qt(static_cast<std::size_t>(d) * kT);
  rbc::dispatch::pack_tile(qrows.data(), kT, d, qt.data());
  std::vector<float> q_sq(kT);
  for (index_t t = 0; t < kT; ++t) {
    float s = 0.0f;
    for (index_t j = 0; j < d; ++j) s += qrows[t][j] * qrows[t][j];
    q_sq[t] = s;
  }

  const index_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<float> sink(static_cast<std::size_t>(rbc::max_threads()) + 1, 0.0f);
  const double t_gemm = median_pass(0.2, [&] {
    rbc::parallel_for(0, chunks, [&](index_t c) {
      thread_local std::vector<float> out(static_cast<std::size_t>(kChunk) * kT);
      float lane_min[kT];
      const index_t lo = c * kChunk;
      const index_t hi = std::min(n, lo + kChunk);
      ops.tile_gemm(qt.data(), q_sq.data(), d, X.data(), X.stride(),
                    x_sq.data(), lo, hi, out.data(), lane_min);
      sink[static_cast<std::size_t>(rbc::thread_id())] += lane_min[0];
    });
  });
  const float* q = Q.row(0);
  const double t_rows = median_pass(0.2, [&] {
    rbc::parallel_for(0, chunks, [&](index_t c) {
      thread_local std::vector<float> out(kChunk);
      const index_t lo = c * kChunk;
      const index_t hi = std::min(n, lo + kChunk);
      sink[static_cast<std::size_t>(rbc::thread_id())] +=
          ops.rows(q, d, X.data(), X.stride(), lo, hi, out.data());
    });
  });
  float keep = 0.0f;
  for (const float v : sink) keep += v;
  report.context_num("distance_probe_sink", keep);

  const double evals = static_cast<double>(n);
  report.layer("distance.tile_gemm_ns_per_eval", t_gemm * 1e9 / (evals * kT),
               "ns", "lower");
  report.layer("distance.rows_ns_per_eval", t_rows * 1e9 / evals, "ns",
               "lower");
  const double bytes = evals * d * sizeof(float);
  const double gb_s = bytes / t_rows / 1e9;
  report.layer("distance.gb_s", gb_s, "GB/s", "higher", -1,
               "database bytes the single-query rows pass computes over");
  report.layer("host.triad_gb_s", triad.gb_s, "GB/s", "higher");
  report.context_num("triad_array_bytes", static_cast<double>(triad.array_bytes));
  report.context_num("triad_llc_bytes", static_cast<double>(triad.llc_bytes));
  report.context_num("triad_fits", triad.fits ? 1 : 0);
  if (triad.fits)
    report.layer("distance.roof_frac", gb_s / triad.gb_s, "ratio", "higher");
  else
    report.absent("distance.roof_frac",
                  "triad arrays could not reach 4x the LLC in available memory; "
                  "the rows kernel computes 3 flops per 4-byte feature (0.75 flop/B)");
}

void report_codec_probe(Report& report, index_t rows, index_t d, index_t k,
                        std::uint64_t seed) {
  namespace net = rbc::serve::net;
  rbc::Rng rng(seed);
  rbc::Matrix<float> queries(rows, d);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < d; ++j)
      queries.row(i)[j] = static_cast<float>(rng.uniform());
  rbc::KnnResult result(rows, k);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < k; ++j) {
      result.dists.row(i)[j] = static_cast<float>(j);
      result.ids.row(i)[j] = rng.uniform_index(1u << 20);
    }
  const int reps = std::clamp<int>(static_cast<int>(200000 / (rows * (d + k) + 1)), 20, 2000);
  std::vector<std::uint8_t> req;
  std::vector<std::uint8_t> resp;
  const double enc_req = median_us(reps, [&] {
    req = net::encode_knn_request(7, queries, k);
  });
  const double enc_resp = median_us(reps, [&] {
    resp = net::encode_knn_response(7, result);
  });
  const std::span<const std::uint8_t> req_payload(req.data() + net::kHeaderSize,
                                                  req.size() - net::kHeaderSize);
  const std::span<const std::uint8_t> resp_payload(
      resp.data() + net::kHeaderSize, resp.size() - net::kHeaderSize);
  std::size_t check = 0;
  const double dec_req = median_us(reps, [&] {
    check += net::decode_knn_request(req_payload).queries.rows();
  });
  const double dec_resp = median_us(reps, [&] {
    check += net::decode_knn_response(resp_payload).result.ids.rows();
  });
  report.context_num("codec_probe_rows_decoded", static_cast<double>(check));
  report.context_num("codec_probe_frame_bytes",
                     static_cast<double>(req.size() + resp.size()));
  report.layer("net.encode_us", enc_req + enc_resp, "us", "lower", reps,
               "knn request + response at this workload's shape");
  report.layer("net.decode_us", dec_req + dec_resp, "us", "lower", reps,
               "knn request + response at this workload's shape");
}

void report_merge_probe(Report& report, index_t rows, index_t k,
                        std::uint64_t seed) {
  rbc::Rng rng(seed);
  rbc::KnnResult a(rows, k);
  rbc::KnnResult b(rows, k);
  std::vector<index_t> ids_a(4 * k);
  std::vector<index_t> ids_b(4 * k);
  for (index_t i = 0; i < 4 * k; ++i) {
    ids_a[i] = 2 * i;
    ids_b[i] = 2 * i + 1;
  }
  for (index_t i = 0; i < rows; ++i) {
    float da = 0.0f;
    float db = 0.0f;
    for (index_t j = 0; j < k; ++j) {
      da += static_cast<float>(rng.uniform());
      db += static_cast<float>(rng.uniform());
      a.dists.row(i)[j] = da;
      a.ids.row(i)[j] = j;
      b.dists.row(i)[j] = db;
      b.ids.row(i)[j] = j;
    }
  }
  const rbc::shard::MergeInput inputs[2] = {
      {.knn = &a, .k = k, .global_ids = &ids_a},
      {.knn = &b, .k = k, .global_ids = &ids_b}};
  std::size_t check = 0;
  const int reps = std::clamp<int>(static_cast<int>(400000 / (rows * k + 1)), 20, 2000);
  const double us = median_us(reps, [&] {
    check += rbc::shard::merge_shard_topk(rows, k, inputs).ids.rows();
  });
  report.context_num("merge_probe_rows", static_cast<double>(check));
  report.layer("router.gather_us", us, "us", "lower", reps,
               "merge_shard_topk over 2 shards at this workload's rows x k");
}

void report_bruteforce(Report& report, double seconds, index_t queries,
                       index_t n) {
  report.layer("bruteforce.qps", queries / seconds, "1/s", "higher", queries);
  report.layer("bruteforce.ns_per_eval",
               seconds * 1e9 / (static_cast<double>(queries) * n), "ns",
               "lower", queries);
}

void report_bruteforce_probe(Report& report, const rbc::Matrix<float>& X,
                             const rbc::Matrix<float>& Q, index_t k) {
  auto brute = rbc::make_index("bruteforce");
  brute->build(X);
  const index_t rows = std::min<index_t>(1024, Q.rows());
  rbc::Matrix<float> block(rows, Q.cols());
  for (index_t i = 0; i < rows; ++i) block.copy_row_from(Q, i, i);
  const auto t0 = Clock::now();
  (void)brute->knn_search({.queries = &block, .k = k});
  report_bruteforce(report, since(t0), rows, X.rows());
}

void report_rbc_layer(Report& report, const std::string& prefix,
                      const LayerLog::Totals& t) {
  if (t.calls == 0 || t.rows == 0) {
    report.absent(prefix + ".*", "no traced calls");
    return;
  }
  const double rows = static_cast<double>(t.rows);
  const rbc::SearchStats& s = t.stats;
  report.layer_timing(prefix + ".knn_ms", summarize(t.call_ms), "ms");
  report.layer(prefix + ".ns_per_eval",
               t.busy_ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(s.dist_evals(), 1)),
               "ns", "lower", static_cast<std::int64_t>(t.calls),
               "wall time of the calls over their distance evaluations");
  report.layer(prefix + ".rows_per_call", rows / static_cast<double>(t.calls),
               "rows", "higher", static_cast<std::int64_t>(t.calls));
  report.layer(prefix + ".evals_per_query", static_cast<double>(s.dist_evals()) / rows,
               "count", "lower", static_cast<std::int64_t>(t.rows));
  if (prefix != "rbc") return;
  report.layer("rbc.rep_evals_per_query", static_cast<double>(s.rep_dist_evals) / rows,
               "count", "lower", static_cast<std::int64_t>(t.rows));
  report.layer("rbc.list_evals_per_query", static_cast<double>(s.list_dist_evals) / rows,
               "count", "lower", static_cast<std::int64_t>(t.rows));
  report.layer("rbc.reps_scanned_per_query", static_cast<double>(s.reps_scanned) / rows,
               "count", "lower", static_cast<std::int64_t>(t.rows));
  const double pruned =
      static_cast<double>(s.reps_pruned_overlap + s.reps_pruned_lemma);
  report.layer("rbc.reps_pruned_frac",
               pruned / static_cast<double>(std::max<std::uint64_t>(s.rep_dist_evals, 1)),
               "ratio", "higher", static_cast<std::int64_t>(t.rows),
               "reps discarded by the overlap or lemma rule over reps measured");
  const double skipped = static_cast<double>(s.points_skipped_early_exit);
  report.layer("rbc.early_exit_frac",
               skipped / std::max(1.0, skipped + static_cast<double>(s.list_dist_evals)),
               "ratio", "higher", static_cast<std::int64_t>(t.rows),
               "list members skipped by the sorted-list early exit");
}

}  // namespace perfbench
