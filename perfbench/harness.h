// Measurement plumbing of the end-to-end benchmark: clocks, latency
// samples, answer checks, in-memory trace spans, host facts and the
// result JSON. Nothing here knows about a particular workload.
#ifndef RSMI_PERFBENCH_HARNESS_H_
#define RSMI_PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "storage/block_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using rsmi::Point;
using rsmi::PointEntry;
using rsmi::Rect;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Uniform fixed-size sample of a stream of values (Algorithm R with a
/// seeded generator): percentiles stay exact in distribution while the
/// memory a run holds stays bounded, whatever its length.
class Reservoir {
 public:
  explicit Reservoir(size_t cap = 1 << 16, uint64_t seed = 1)
      : cap_(cap), state_(seed * 0x9e3779b97f4a7c15ULL + 1) {
    v_.reserve(cap_);
  }
  void Add(double x) {
    ++seen_;
    if (v_.size() < cap_) {
      v_.push_back(x);
      return;
    }
    const uint64_t j = Next() % seen_;
    if (j < cap_) v_[j] = x;
  }
  uint64_t seen() const { return seen_; }
  const std::vector<double>& values() const { return v_; }
  void Merge(const Reservoir& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    seen_ += o.seen_;
  }

 private:
  uint64_t Next() {  // splitmix64
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t cap_;
  uint64_t state_;
  uint64_t seen_ = 0;
  std::vector<double> v_;
};

/// Linear-interpolated quantile (p in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double p);

/// The highest percentile, capped at p99, with at least ten of `n`
/// samples beyond it (the guide's rule for reporting a tail).
double TailLevel(uint64_t n);

/// Exact-position key of a point, for the answer checks.
struct PosKey {
  uint64_t x, y;
  bool operator==(const PosKey& o) const { return x == o.x && y == o.y; }
};
PosKey KeyOf(const Point& p);
struct PosKeyHash {
  size_t operator()(const PosKey& k) const {
    return static_cast<size_t>(k.x * 0x9e3779b97f4a7c15ULL ^
                               (k.y + 0x7f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL);
  }
};
using PosSet = std::unordered_set<PosKey, PosKeyHash>;

/// Counts every checked answer and every failed check. Thread-safe.
/// The first few failures are kept verbatim for the report.
class Checker {
 public:
  /// `known`: every position an answer may legally contain.
  explicit Checker(const PosSet* known) : known_(known) {}

  /// A point lookup of a stored position must hit exactly that position;
  /// `may_miss` relaxes this for positions a concurrent write deletes.
  void Point(const rsmi::Point& q, const std::optional<PointEntry>& r,
             bool may_miss);
  /// Window answers hold no point outside `w` and none absent from the data.
  void Window(const Rect& w, const std::vector<rsmi::Point>& r);
  /// kNN returns min(k, live) points in non-decreasing distance order.
  void Knn(const rsmi::Point& q, size_t k, size_t live,
           const std::vector<rsmi::Point>& r);
  /// Any other check: `ok` false counts one failure described by `what`.
  void Expect(bool ok, const std::string& what);
  /// `attempted` checks made elsewhere, `failed` of which failed.
  void Count(uint64_t attempted, uint64_t failed, const std::string& what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> failures() const;

  /// Test hook: the next checked answer is corrupted before it is checked
  /// (proves that a wrong answer raises the failure count).
  void PlantWrongAnswer() { plant_.store(true); }
  bool TakePlant() { return plant_.exchange(false); }

 private:
  bool Known(const rsmi::Point& p) const {
    return known_->count(KeyOf(p)) != 0;
  }
  const PosSet* known_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<bool> plant_{false};
  mutable std::mutex mu_;
  std::vector<std::string> first_failures_;
};

/// One recorded span: a call into a layer, made by the benchmark around
/// the library's public function. `op` identifies the request (spans of
/// one request share it); `parent` is the index of the span that caused
/// this one in the same buffer, or -1.
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t op;
  int32_t parent;
  uint32_t thread;
  uint64_t dur_ns() const { return end_ns - start_ns; }
};

/// Per-thread in-memory span buffers, written out once at the end of the
/// run. Each driver thread owns one buffer (no locking on the hot path).
class SpanStore {
 public:
  std::vector<Span>* NewBuffer(size_t reserve);
  /// Durations (ns) of the spans named `name`, across all buffers.
  std::vector<double> DurationsNs(const char* name) const;
  size_t size() const;
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Resident set size of this process from /proc/self/status, in MiB
/// (`field` is "VmRSS", "RssFile", ...); 0 if unavailable.
double ProcStatusMb(const char* field);

/// Memory this process holds, in MiB: heap bytes in use (glibc
/// mallinfo2: arena chunks in use plus mmapped chunks) and resident
/// file-backed pages (RssFile). Unlike VmRSS, the heap figure does not
/// count freed pages the allocator keeps.
struct MemoryUse {
  double heap_mb;
  double file_mb;
};
MemoryUse CurrentMemoryUse();

/// Machine facts recorded next to every result: CPU count, CPU model,
/// cache sizes and the active inference kernel.
std::string HostJson();

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// JSON number with full precision (non-finite values become 0).
std::string Num(double v);
std::string JsonString(const std::string& s);
std::string MetricsJson(const std::vector<Metric>& ms);

}  // namespace perfbench

#endif  // RSMI_PERFBENCH_HARNESS_H_
