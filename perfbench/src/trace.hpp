// In-memory span recording for the traced run.
//
// A span is one call across a layer boundary, recorded from the benchmark's
// own side of that boundary (nothing inside src/ is instrumented): name,
// start, end, the span that was open on the same thread when it began, the
// request it served when the caller knows it, and how many query rows it
// covered. A span that serves several requests at once (a coalesced service
// batch, a router fan-out) carries request 0 and its row count; metrics built
// from such spans are aggregates over the requests they served.
//
// Spans are kept in memory and written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name = 0;  ///< index into Tracer::names()
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< enclosing span on the same thread, or -1
  std::uint64_t request = 0;  ///< request id; 0 = several or unknown
  std::uint32_t rows = 0;     ///< query rows the call covered
  std::uint32_t thread = 0;   ///< small per-process thread number
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::int64_t now_ns() const { return to_ns(Clock::now()); }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// still open on this thread. Returns its id (-1 when disabled).
  std::int64_t open(const char* name, std::uint64_t request,
                    std::uint32_t rows);
  /// Closes a span opened on the calling thread (innermost first).
  void close(std::int64_t id);
  /// Records an already-finished span measured by the caller.
  std::int64_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent,
                   std::uint64_t request, std::uint32_t rows);

  std::vector<Span> spans() const;
  std::size_t span_count() const;
  std::vector<std::string> names() const;
  std::uint32_t name_id(const char* name);

  /// Writes every span as one CSV row (name,start_ns,end_ns,parent,request,
  /// rows,thread,self_ns). Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction or end().
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0,
             std::uint32_t rows = 0)
      : tracer_(tracer), id_(tracer.open(name, request, rows)) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void end() {
    if (id_ >= 0) tracer_.close(id_);
    id_ = -1;
  }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Self time of every span: its duration minus the part of [start, end)
/// covered by the union of its children's intervals (clipped to the
/// parent). Children are the spans whose `parent` names it.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
