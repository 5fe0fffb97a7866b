#include "xmem/prefetcher.h"

#include <algorithm>
#include <atomic>

namespace rsmi {
namespace xmem {

AsyncPrefetcher::AsyncPrefetcher(const MappedFile* map) : map_(map) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_issued_ = &reg.GetCounter("xmem.prefetch.issued");
  m_dropped_ = &reg.GetCounter("xmem.prefetch.dropped");
  m_bytes_ = &reg.GetCounter("xmem.prefetch.bytes");
  workers_.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncPrefetcher::~AsyncPrefetcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void AsyncPrefetcher::EnqueueRange(size_t offset, size_t len) {
  if (len == 0 || offset >= map_->size()) return;
  len = std::min(len, map_->size() - offset);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= kQueueCapacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      m_dropped_->Add();
      return;
    }
    queue_.push_back({offset, len});
  }
  work_cv_.notify_one();
}

void AsyncPrefetcher::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void AsyncPrefetcher::WorkerLoop() {
  for (;;) {
    Range r{};
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      r = queue_.front();
      queue_.pop_front();
      ++in_flight_;
    }
    map_->Prefetch(r.offset, r.len);
    // WILLNEED alone is asynchronous and may be ignored: one volatile
    // load per page forces the fault to complete here, on prefetcher
    // time. The loads race queries and the eviction clock harmlessly:
    // the mapping is immutable and evicted pages refault.
    const size_t page = MappedFile::PageSize();
    const uint8_t* base = map_->data();
    const size_t end = std::min(map_->size(), r.offset + r.len);
    for (size_t off = r.offset / page * page; off < end; off += page) {
      (void)*static_cast<const volatile uint8_t*>(base + off);
    }
    issued_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(r.len, std::memory_order_relaxed);
    m_issued_->Add();
    m_bytes_->Add(r.len);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

}  // namespace xmem
}  // namespace rsmi
