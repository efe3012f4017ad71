// Open-loop load generation against a SearchService.
//
// Independent users do not wait for each other, so arrivals follow a
// schedule no matter how the service is doing. One generator thread submits
// each query at its due time; a second thread takes the futures in
// submission order and timestamps each completion. Latency is measured from
// the due time, so a stall that delays the generator or the service is
// charged to every request it held back, and the generator's own lateness
// (submit time minus due time) is reported next to it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/matrix.hpp"
#include "serve/service.hpp"

namespace perfbench {

struct OpenLoopResult {
  std::vector<double> due_s;     ///< seconds after t0
  std::vector<double> call_s;    ///< when the generator called submit()
  std::vector<double> submit_s;  ///< when submit() returned
  std::vector<double> done_s;    ///< when the answer was observed
  std::vector<char> ok;          ///< answered and accepted by `check`
  /// Latency of request i in ms, measured from its due time.
  double latency_ms(std::size_t i) const { return (done_s[i] - due_s[i]) * 1e3; }
  /// Generator lateness of request i in ms.
  double lag_ms(std::size_t i) const { return (call_s[i] - due_s[i]) * 1e3; }
  /// Time spent inside submit() for request i, in microseconds.
  double submit_us(std::size_t i) const { return (submit_s[i] - call_s[i]) * 1e6; }
};

/// Checks request i's answer; false counts it as wrong.
using AnswerCheck = std::function<bool(std::size_t, const rbc::serve::QueryResult&)>;

/// Submits row query_of(i) of `queries` with k at t0 + due_s[i] for every i,
/// waits for every answer, and returns the timestamps. A submission or
/// answer that throws is recorded with ok = 0.
inline OpenLoopResult run_open_loop(
    rbc::serve::SearchService& service, const rbc::Matrix<float>& queries,
    rbc::index_t k, const std::vector<double>& due_s,
    std::chrono::steady_clock::time_point t0,
    const std::function<rbc::index_t(std::size_t)>& query_of,
    const AnswerCheck& check) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = due_s.size();
  OpenLoopResult r;
  r.due_s = due_s;
  r.call_s.assign(n, 0.0);
  r.submit_s.assign(n, 0.0);
  r.done_s.assign(n, 0.0);
  r.ok.assign(n, 0);
  const auto secs = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<rbc::serve::QueryResult>>> inflight;
  bool generator_done = false;

  std::thread completer([&] {
    for (;;) {
      std::pair<std::size_t, std::future<rbc::serve::QueryResult>> item;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return !inflight.empty() || generator_done; });
        if (inflight.empty()) return;
        item = std::move(inflight.front());
        inflight.pop_front();
      }
      const std::size_t i = item.first;
      try {
        const rbc::serve::QueryResult answer = item.second.get();
        r.done_s[i] = secs(Clock::now());
        r.ok[i] = check(i, answer) ? 1 : 0;
      } catch (...) {
        r.done_s[i] = secs(Clock::now());
      }
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due_s[i])));
    const rbc::index_t qi = query_of(i);
    r.call_s[i] = secs(Clock::now());
    try {
      auto future = service.submit({queries.row(qi), queries.cols()}, k);
      r.submit_s[i] = secs(Clock::now());
      std::lock_guard lock(mutex);
      inflight.emplace_back(i, std::move(future));
    } catch (...) {
      r.submit_s[i] = r.done_s[i] = secs(Clock::now());
    }
    cv.notify_one();
  }
  {
    std::lock_guard lock(mutex);
    generator_done = true;
  }
  cv.notify_one();
  completer.join();
  return r;
}

}  // namespace perfbench
