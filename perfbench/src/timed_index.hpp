// An Index decorator that times every call into the index layer.
//
// The service, the network server and the mutable index all reach the search
// backend through rbc::Index, so wrapping the built index in TimedIndex times
// every knn_search any of them issues, from outside the library. Every call
// asks the backend for its work counters (collect_stats) and is timed into a
// LayerLog, traced or not, so work per query is an end-to-end figure; with
// tracing on each call is also recorded as a span.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "api/index.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-layer call accounting filled by TimedIndex.
class LayerLog {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t rows = 0;
    double busy_ms = 0.0;
    rbc::SearchStats stats{};
    std::vector<double> call_ms;
  };

  void record(const rbc::SearchStats& stats, std::uint32_t rows, double ms) {
    std::lock_guard lock(mutex_);
    ++totals_.calls;
    totals_.rows += rows;
    totals_.busy_ms += ms;
    totals_.stats.merge(stats);
    totals_.call_ms.push_back(ms);
  }
  Totals totals() const {
    std::lock_guard lock(mutex_);
    return totals_;
  }

 private:
  mutable std::mutex mutex_;
  Totals totals_;
};

class TimedIndex final : public rbc::Index {
 public:
  /// Borrows `inner`, which must outlive this decorator.
  TimedIndex(rbc::Index& inner, Tracer& tracer, const char* span_name,
             LayerLog& log)
      : inner_(inner), tracer_(tracer), span_name_(span_name), log_(log) {}

  void build(const rbc::Matrix<float>& X) override { inner_.build(X); }

  rbc::SearchResponse knn_search(
      const rbc::SearchRequest& request) const override {
    rbc::SearchRequest counted = request;
    counted.options.collect_stats = true;
    const auto rows = static_cast<std::uint32_t>(request.queries->rows());
    const auto t0 = Tracer::Clock::now();
    rbc::SearchResponse response;
    {
      ScopedSpan span(tracer_, span_name_, 0, rows);
      response = inner_.knn_search(counted);
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Tracer::Clock::now() - t0)
            .count();
    log_.record(response.stats, rows, ms);
    if (!request.options.collect_stats) response.stats = {};
    return response;
  }

  void insert(const rbc::Matrix<float>& rows,
              std::span<const rbc::index_t> ids) override {
    ScopedSpan span(tracer_, "mutate.insert", 0,
                    static_cast<std::uint32_t>(rows.rows()));
    inner_.insert(rows, ids);
  }
  rbc::index_t remove(std::span<const rbc::index_t> ids) override {
    ScopedSpan span(tracer_, "mutate.remove", 0,
                    static_cast<std::uint32_t>(ids.size()));
    return inner_.remove(ids);
  }
  void compact() override {
    ScopedSpan span(tracer_, "mutate.compact");
    inner_.compact();
  }
  std::vector<rbc::index_t> live_ids() const override {
    return inner_.live_ids();
  }
  rbc::IndexInfo info() const override { return inner_.info(); }

 private:
  rbc::Index& inner_;
  Tracer& tracer_;
  const char* span_name_;
  LayerLog& log_;
};

}  // namespace perfbench
