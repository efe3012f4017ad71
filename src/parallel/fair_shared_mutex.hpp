// A reader/writer mutex whose writers cannot be starved by readers.
//
// std::shared_mutex on glibc (pthread_rwlock_t) prefers readers: while any
// reader holds the lock, new readers keep getting in, so a writer waits for
// a moment with no reader at all. Threads that search back to back, each
// holding the shared lock for a whole search, may never leave such a moment,
// and the writer waits forever. FairSharedMutex puts a turnstile in front:
// a writer takes the turnstile before it waits, which holds back every new
// reader until the readers already inside leave and the writer has run.
//
// Meets the SharedMutex requirements, so std::shared_lock / std::unique_lock
// work unchanged. Not recursive: a thread that already holds the shared lock
// must not take it again (a waiting writer would block it on the turnstile).
#pragma once

#include <mutex>
#include <shared_mutex>

namespace rbc {

class FairSharedMutex {
 public:
  void lock() {
    std::lock_guard turnstile(turnstile_);
    rw_.lock();
  }
  bool try_lock() {
    std::unique_lock turnstile(turnstile_, std::try_to_lock);
    return turnstile.owns_lock() && rw_.try_lock();
  }
  void unlock() { rw_.unlock(); }

  void lock_shared() {
    std::lock_guard turnstile(turnstile_);
    rw_.lock_shared();
  }
  bool try_lock_shared() {
    std::unique_lock turnstile(turnstile_, std::try_to_lock);
    return turnstile.owns_lock() && rw_.try_lock_shared();
  }
  void unlock_shared() { rw_.unlock_shared(); }

 private:
  std::mutex turnstile_;  // held by a writer while it waits for rw_
  std::shared_mutex rw_;
};

}  // namespace rbc
