#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "parallel/fair_shared_mutex.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/runtime.hpp"

namespace rbc {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const index_t n = 10'000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(0, n, [&](index_t i) { visits[i].fetch_add(1); });
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for(5, 5, [&](index_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForDynamic, VisitsEveryIndexExactlyOnce) {
  const index_t n = 5'000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for_dynamic(0, n, [&](index_t i) { visits[i].fetch_add(1); }, 3);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForBlocked, BlocksTileTheRange) {
  const index_t n = 1'237;  // deliberately not a multiple of the grain
  std::vector<std::atomic<int>> visits(n);
  std::atomic<int> blocks{0};
  parallel_for_blocked(0, n, 100, [&](index_t lo, index_t hi) {
    EXPECT_LT(lo, hi);
    EXPECT_LE(hi - lo, 100u);
    blocks.fetch_add(1);
    for (index_t i = lo; i < hi; ++i) visits[i].fetch_add(1);
  });
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
  EXPECT_EQ(blocks.load(), 13);  // ceil(1237 / 100)
}

TEST(ParallelForBlocked, GrainBelowOneIsClamped) {
  std::atomic<int> total{0};
  parallel_for_blocked(0, 10, 0, [&](index_t lo, index_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(Runtime, ThreadLimitRestores) {
  const int before = max_threads();
  {
    ThreadLimit limit(1);
    EXPECT_EQ(max_threads(), 1);
  }
  EXPECT_EQ(max_threads(), before);
}

TEST(Runtime, SingleThreadExecutionStillCoversRange) {
  ThreadLimit limit(1);
  const index_t n = 1'000;
  std::vector<int> visits(n, 0);
  parallel_for(0, n, [&](index_t i) { ++visits[i]; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0),
            static_cast<int>(n));
}

TEST(FairSharedMutex, ReadersShareWritersExclude) {
  FairSharedMutex m;
  std::shared_lock reader(m);
  std::thread other([&] {
    EXPECT_TRUE(m.try_lock_shared());
    m.unlock_shared();
    EXPECT_FALSE(m.try_lock());
  });
  other.join();
  reader.unlock();
  std::unique_lock writer(m);
  std::thread blocked([&] { EXPECT_FALSE(m.try_lock_shared()); });
  blocked.join();
}

// Readers that hold the shared lock back to back, always overlapping, leave
// no moment without a reader; the writer must still get in, and promptly.
// The readers give up after a deadline so a starving writer fails the test
// instead of hanging it.
TEST(FairSharedMutex, WriterIsNotStarvedByOverlappingReaders) {
  using Clock = std::chrono::steady_clock;
  FairSharedMutex m;
  std::atomic<bool> writer_done{false};
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!writer_done.load() && Clock::now() < deadline) {
        std::shared_lock lock(m);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  int writes = 0;
  std::thread writer([&] {
    for (int i = 0; i < 50 && Clock::now() < deadline; ++i) {
      std::unique_lock lock(m);
      ++writes;
    }
    writer_done.store(true);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(writes, 50);
}

}  // namespace
}  // namespace rbc
