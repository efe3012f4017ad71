// Per-layer probes and the per-layer metrics every workload reports.
//
// Some layers sit on only one workload's request path (the wire, the
// router's gather). Their per-call costs are also probed directly, at each
// workload's own shapes, so every traced run reports them.
#pragma once

#include <string>

#include "common/matrix.hpp"
#include "host.hpp"
#include "report.hpp"
#include "timed_index.hpp"

namespace perfbench {

/// Times dispatch::ops() tile_gemm (16 queries per row pass) and rows (one
/// query) over every row of X, split across the OpenMP threads. Reports
/// distance.{tile_gemm,rows}_ns_per_eval (wall ns per distance evaluation),
/// distance.gb_s (database bytes the rows pass computes over per second),
/// host.triad_gb_s and, when the triad arrays reached 4x the LLC,
/// distance.roof_frac.
void report_distance_layer(Report& report, const rbc::Matrix<float>& X,
                           const rbc::Matrix<float>& Q, const TriadResult& triad);

/// Times encode/decode of a knn request (rows x d, k) and its response.
/// Reports net.encode_us and net.decode_us (request + response, median).
void report_codec_probe(Report& report, rbc::index_t rows, rbc::index_t d,
                        rbc::index_t k, std::uint64_t seed);

/// Times shard::merge_shard_topk over two shards' rows x k blocks.
/// Reports router.gather_us (median).
void report_merge_probe(Report& report, rbc::index_t rows, rbc::index_t k,
                        std::uint64_t seed);

/// Brute-force reference timing: `seconds` spent answering `queries`
/// rows against an n-row database.
void report_bruteforce(Report& report, double seconds, rbc::index_t queries,
                       rbc::index_t n);

/// Builds a bruteforce index over X (untimed) and times it answering up to
/// 1024 rows of Q with k, for workloads whose request path never runs
/// brute force.
void report_bruteforce_probe(Report& report, const rbc::Matrix<float>& X,
                             const rbc::Matrix<float>& Q, rbc::index_t k);

/// The rbc layer from TimedIndex totals: knn_ms p50/p99 per call,
/// ns_per_eval, rows_per_call and the collect_stats work counters, under
/// the given metric prefix ("rbc", "oneshot").
void report_rbc_layer(Report& report, const std::string& prefix,
                      const LayerLog::Totals& totals);

}  // namespace perfbench
