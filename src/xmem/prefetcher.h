#ifndef RSMI_XMEM_PREFETCHER_H_
#define RSMI_XMEM_PREFETCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "io/mapped_file.h"
#include "obs/metrics.h"

namespace rsmi {
namespace xmem {

/// Worker pool that turns the fused descent's model predictions into
/// overlapped I/O: the query thread enqueues the byte ranges of the
/// predicted leaf blocks the moment level-k inference lands (before the
/// per-point block scans start), and the workers fault those pages in —
/// madvise(MADV_WILLNEED) plus an explicit touch per page, so the read
/// happens on the worker's time, not the query's. On a cold mapping this
/// converts the query thread's major faults into prefetcher waits that
/// run concurrently with the remaining model inference.
///
/// Enqueue never blocks: when the queue is full the hint is dropped and
/// counted (prefetch is advisory — the access path faults on demand
/// regardless, so a dropped hint costs latency, never correctness).
class AsyncPrefetcher {
 public:
  /// Worker threads faulting hinted ranges in.
  static constexpr int kThreads = 2;
  /// Pending hints beyond this are dropped (and counted).
  static constexpr size_t kQueueCapacity = 4096;

  explicit AsyncPrefetcher(const MappedFile* map);
  ~AsyncPrefetcher();

  AsyncPrefetcher(const AsyncPrefetcher&) = delete;
  AsyncPrefetcher& operator=(const AsyncPrefetcher&) = delete;

  /// Hints that [offset, offset+len) will be read soon. Lock + push;
  /// drops (and counts) when the queue is full.
  void EnqueueRange(size_t offset, size_t len);

  /// Blocks until every enqueued range has been processed (benches and
  /// tests that want deterministic cold/warm boundaries).
  void Drain();

  uint64_t issued() const { return issued_.load(std::memory_order_relaxed); }
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  struct Range {
    size_t offset;
    size_t len;
  };

  void WorkerLoop();

  const MappedFile* map_;
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for ranges
  std::condition_variable drain_cv_;  ///< Drain waits for quiescence
  std::deque<Range> queue_;
  size_t in_flight_ = 0;  ///< ranges popped but not yet finished
  bool stop_ = false;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> issued_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> bytes_{0};
  Counter* m_issued_;
  Counter* m_dropped_;
  Counter* m_bytes_;
};

}  // namespace xmem
}  // namespace rsmi

#endif  // RSMI_XMEM_PREFETCHER_H_
