#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

// Spans currently open on this thread, innermost last.
thread_local std::vector<std::int64_t> open_stack;

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::uint32_t Tracer::name_id(const char* name) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t Tracer::open(const char* name, std::uint64_t request,
                          std::uint32_t rows) {
  if (!enabled_) return -1;
  const std::uint32_t nid = name_id(name);
  const std::int64_t parent = open_stack.empty() ? -1 : open_stack.back();
  Span s{.name = nid, .start_ns = now_ns(), .end_ns = 0, .parent = parent,
         .request = request, .rows = rows, .thread = thread_number()};
  std::int64_t id = 0;
  {
    std::lock_guard lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(s);
  }
  open_stack.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t end = now_ns();
  {
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = end;
  }
  const auto it = std::find(open_stack.rbegin(), open_stack.rend(), id);
  if (it != open_stack.rend()) open_stack.erase(std::next(it).base());
}

std::int64_t Tracer::add(const char* name, std::int64_t start_ns,
                         std::int64_t end_ns, std::int64_t parent,
                         std::uint64_t request, std::uint32_t rows) {
  if (!enabled_) return -1;
  const std::uint32_t nid = name_id(name);
  std::lock_guard lock(mutex_);
  spans_.push_back({.name = nid, .start_ns = start_ns, .end_ns = end_ns,
                    .parent = parent, .request = request, .rows = rows,
                    .thread = thread_number()});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::vector<std::string> Tracer::names() const {
  std::lock_guard lock(mutex_);
  return names_;
}

bool Tracer::write_csv(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<std::string> nm = names();
  const std::vector<std::int64_t> self = self_times(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,request,rows,thread,self_ns\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f, "%s,%lld,%lld,%lld,%llu,%u,%u,%lld\n",
                 nm[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.rows, s.thread,
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

}  // namespace perfbench
