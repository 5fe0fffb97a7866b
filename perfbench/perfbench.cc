// End-to-end benchmark of a sharded RSMI (sharded<4>:rsmi) on seeded
// synthetic data. One process runs one workload:
//
//   perfbench --workload serve|local_read|update_mix|mmap_read
//             --seed N --seconds S --trace 0|1 [--n POINTS]
//             [--out-dir DIR] [--plant-wrong]
//
// and prints, as its last stdout line, one JSON object with the keys
// correct / attempted / failed / metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run records spans around the
// calls it makes into each module and the metrics are the per-layer ones.
// Every answer is checked; the exit code is 1 when any check failed.
// perfbench/README.md describes the workloads and metrics.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "baselines/factory.h"
#include "core/spatial_index.h"
#include "data/generators.h"
#include "exec/batch_query_engine.h"
#include "exec/request.h"
#include "harness.h"
#include "io/index_container.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/spatial_server.h"
#include "shard/sharded_index.h"
#include "xmem/external_index.h"

namespace perfbench {
namespace {

using rsmi::MetricsRegistry;
using rsmi::MetricsSnapshot;
using rsmi::MetricSample;
using rsmi::QueryContext;
using rsmi::Request;
using rsmi::Response;
using rsmi::ShardedIndex;
using rsmi::SpatialIndex;
using Type = rsmi::Request::Type;

constexpr const char* kSpec = "sharded<4>:rsmi";
constexpr int kBuildThreads = 4;    // the host's CPU count
constexpr int kDriverThreads = 2;   // in-process closed-loop callers
constexpr int kServerWorkers = 2;
constexpr int kClosedClients = 2;   // served call-reply clients
constexpr double kOpenRate = 20000.0;  // served open loop, requests/s
constexpr double kWindowArea = 0.0001;
constexpr uint32_t kK = 25;
constexpr size_t kPoolOps = 1 << 16;     // read pool, replayed cyclically
constexpr size_t kEpochOps = 1 << 14;    // update_mix ops per epoch
constexpr size_t kCheckOps = 1000;       // cross-path comparison sample
constexpr size_t kRecallOps = 200;       // per kind, against brute force
constexpr size_t kCheckWrites = 2000;    // write-path check (read workloads)
constexpr uint64_t kSpanEvery = 16;      // traced ops: every 16th per thread
constexpr uint64_t kServerTraceEvery = 16;  // Request::trace sampling
// The data set is fixed (the repository's benches use the same seed);
// --seed draws the queries and writes, so runs with different seeds
// replay different request streams against the same index.
constexpr uint64_t kDataSeed = 42;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t n = 50000;
  int setup_reps = 3;
  std::string out_dir = ".bench_build/out";
  bool plant_wrong = false;
};

struct WorkloadSpec {
  const char* name;
  rsmi::Distribution dist;
  double point_frac;   // of reads
  double window_frac;  // of reads; kNN takes the rest
  double write_frac;   // of all ops
};

const WorkloadSpec kWorkloads[] = {
    {"serve", rsmi::Distribution::kOsm, 0.90, 0.05, 0.0},
    {"local_read", rsmi::Distribution::kOsm, 0.60, 0.30, 0.0},
    {"update_mix", rsmi::Distribution::kSkewed, 0.80, 0.10, 0.20},
    {"mmap_read", rsmi::Distribution::kOsm, 0.60, 0.30, 0.0},
};

/// One replayable operation (a Request reduced to what the loops need).
struct Op {
  Type type;
  Point pt;
  Rect w;
};

int KindOf(Type t) {  // 0 point, 1 window, 2 kNN, 3 write
  switch (t) {
    case Type::kPoint: return 0;
    case Type::kWindow: return 1;
    case Type::kKnn: return 2;
    default: return 3;
  }
}
const char* const kKindName[4] = {"point", "window", "knn", "write"};

std::vector<Op> ToOps(const std::vector<Request>& reqs) {
  std::vector<Op> ops;
  ops.reserve(reqs.size());
  for (const Request& r : reqs) ops.push_back({r.type, r.pt, r.window});
  return ops;
}

Request ToRequest(const Op& op, uint64_t id) {
  switch (op.type) {
    case Type::kWindow: return Request::WindowLookup(op.w, id);
    case Type::kKnn: return Request::KnnLookup(op.pt, kK, id);
    default: return Request::PointLookup(op.pt, id);
  }
}

rsmi::WorkloadMix MixOf(const WorkloadSpec& w) {
  rsmi::WorkloadMix m;
  m.point_frac = w.point_frac;
  m.window_frac = w.window_frac;
  m.window_area = kWindowArea;
  m.k = kK;
  m.write_frac = w.write_frac;
  m.buffered_writes = true;
  return m;
}

/// Records spans into one thread's buffer when tracing is on; a no-op
/// (one branch) otherwise.
class Tracer {
 public:
  Tracer(SpanStore* store, uint32_t thread, size_t reserve)
      : buf_(store != nullptr ? store->NewBuffer(reserve) : nullptr),
        thread_(thread) {}
  bool on() const { return buf_ != nullptr; }
  int32_t Add(const char* name, uint64_t start, uint64_t end, uint64_t op,
              int32_t parent = -1) {
    if (buf_ == nullptr) return -1;
    buf_->push_back({name, start, end, op, parent, thread_});
    return static_cast<int32_t>(buf_->size() - 1);
  }

 private:
  std::vector<Span>* buf_;
  uint32_t thread_;
};

/// Per-thread results of a measured loop: latency samples per op kind,
/// and the exact per-kind QueryContext totals.
struct LoopStats {
  Reservoir lat_us[4];
  Reservoir all_us{1 << 17};
  QueryContext cost[3];
  uint64_t results[3] = {0, 0, 0};
  uint64_t ops = 0;
  uint64_t reads = 0;
  double read_us_sum = 0.0;
  double wall_s = 0.0;
  // Shard fan-out observed on traced ops.
  double fanout_sum[2] = {0, 0};
  uint64_t fanout_n[2] = {0, 0};
  size_t delta_depth_max = 0;

  explicit LoopStats(uint64_t seed = 1)
      : lat_us{Reservoir(1 << 16, seed * 4 + 1), Reservoir(1 << 16, seed * 4 + 2),
               Reservoir(1 << 16, seed * 4 + 3), Reservoir(1 << 16, seed * 4 + 4)},
        all_us(1 << 17, seed * 4 + 5) {}

  void Record(int kind, double us) {
    lat_us[kind].Add(us);
    all_us.Add(us);
    ++ops;
    if (kind < 3) {
      read_us_sum += us;
      ++reads;
    }
  }
  void Merge(const LoopStats& o) {
    for (int i = 0; i < 4; ++i) lat_us[i].Merge(o.lat_us[i]);
    all_us.Merge(o.all_us);
    for (int i = 0; i < 3; ++i) {
      cost[i].MergeFrom(o.cost[i]);
      results[i] += o.results[i];
    }
    ops += o.ops;
    reads += o.reads;
    read_us_sum += o.read_us_sum;
    for (int i = 0; i < 2; ++i) {
      fanout_sum[i] += o.fanout_sum[i];
      fanout_n[i] += o.fanout_n[i];
    }
    delta_depth_max = std::max(delta_depth_max, o.delta_depth_max);
  }
};

/// Answer of one read, normalized for cross-path comparison.
struct Answer {
  std::optional<PointEntry> hit;
  std::vector<Point> pts;
};

Answer AnswerOf(const SpatialIndex& idx, const Op& op) {
  QueryContext ctx;
  Answer a;
  if (op.type == Type::kPoint) a.hit = idx.PointQuery(op.pt, ctx);
  if (op.type == Type::kWindow) a.pts = idx.WindowQuery(op.w, ctx);
  if (op.type == Type::kKnn) a.pts = idx.KnnQuery(op.pt, kK, ctx);
  return a;
}

bool SameAnswer(const Op& op, Answer a, Answer b) {
  if (op.type == Type::kPoint) {
    if (a.hit.has_value() != b.hit.has_value()) return false;
    return !a.hit.has_value() || (rsmi::SamePosition(a.hit->pt, b.hit->pt) &&
                                  a.hit->id == b.hit->id);
  }
  auto order = [&](const Point& p, const Point& q) {
    const double dp = rsmi::SquaredDist(p, op.pt);
    const double dq = rsmi::SquaredDist(q, op.pt);
    if (op.type == Type::kKnn && dp != dq) return dp < dq;
    return rsmi::LessByXThenY()(p, q);
  };
  std::sort(a.pts.begin(), a.pts.end(), order);
  std::sort(b.pts.begin(), b.pts.end(), order);
  if (a.pts.size() != b.pts.size()) return false;
  for (size_t i = 0; i < a.pts.size(); ++i) {
    if (!rsmi::SamePosition(a.pts[i], b.pts[i])) return false;
  }
  return true;
}

/// The owning shard's own call for one traced read (core.*): `name`
/// and its start/end (window: the calls to every shard it meets, summed
/// from `start`).
struct InnerCall {
  const char* name = nullptr;
  uint64_t start = 0, end = 0;
};

InnerCall TimeShardCall(const ShardedIndex& sh, const Op& op) {
  QueryContext ctx;
  InnerCall c;
  if (op.type == Type::kWindow) {
    uint64_t busy = 0;
    c.name = "core.WindowQuery";
    c.start = NowNs();
    for (int i = 0; i < sh.num_shards(); ++i) {
      if (!sh.shard_region(i).Intersects(op.w)) continue;
      const uint64_t t0 = NowNs();
      auto r = sh.shard(i).WindowQuery(op.w, ctx);
      busy += NowNs() - t0;
      (void)r;
    }
    c.end = c.start + busy;
    return c;
  }
  const SpatialIndex& s = sh.shard(sh.partitioner().ShardOf(op.pt));
  c.start = NowNs();
  if (op.type == Type::kPoint) {
    c.name = "core.PointQuery";
    auto r = s.PointQuery(op.pt, ctx);
    (void)r;
  } else {
    c.name = "core.KnnQuery";
    auto r = s.KnnQuery(op.pt, kK, ctx);
    (void)r;
  }
  c.end = NowNs();
  return c;
}

/// Shards a traced window / kNN read touches: those whose region meets
/// the window, or lies within the k-th result's distance.
void CountFanout(const ShardedIndex& sh, const Op& op,
                 const std::vector<Point>& result, LoopStats& st) {
  if (op.type == Type::kPoint) return;
  const bool window = op.type == Type::kWindow;
  const double kth =
      result.empty() ? 0.0 : rsmi::SquaredDist(result.back(), op.pt);
  int touched = 0;
  for (int i = 0; i < sh.num_shards(); ++i) {
    touched += window ? sh.shard_region(i).Intersects(op.w)
                      : sh.shard_region(i).MinDist2(op.pt) <= kth;
  }
  st.fanout_sum[window ? 0 : 1] += touched;
  ++st.fanout_n[window ? 0 : 1];
}

/// Shard layer of one traced read whose routed call ran from t0 to t1:
/// the span around it, the owning shard's own call under it, and the
/// fan-out. Sampled reads alternate which of the two calls runs first
/// (`inner`, already timed, or timed here after the routed call), so
/// neither always finds the other's blocks in cache.
void TraceShardLayer(const ShardedIndex* sh, const Op& op, const char* outer,
                     uint64_t opid, uint64_t t0, uint64_t t1, InnerCall inner,
                     const std::vector<Point>& result, Tracer& tr,
                     LoopStats& st) {
  const int32_t parent = tr.Add(outer, t0, t1, opid);
  if (sh == nullptr) return;
  if (inner.name == nullptr) inner = TimeShardCall(*sh, op);
  tr.Add(inner.name, inner.start, inner.end, opid, parent);
  CountFanout(*sh, op, result, st);
}

/// Executes one in-process read and times it, adding its latency and
/// QueryContext counts to `st`. The answer lands in `hit` (point) or
/// `pts` (window, kNN); returns the result count (a point hit is 1).
size_t TimedRead(const SpatialIndex& idx, const Op& op, LoopStats& st,
                 uint64_t* t0, uint64_t* t1, std::optional<PointEntry>* hit,
                 std::vector<Point>* pts) {
  const int kind = KindOf(op.type);
  QueryContext& ctx = st.cost[kind];
  size_t n = 0;
  if (op.type == Type::kPoint) {
    *t0 = NowNs();
    *hit = idx.PointQuery(op.pt, ctx);
    *t1 = NowNs();
    n = hit->has_value() ? 1 : 0;
    pts->clear();
  } else if (op.type == Type::kWindow) {
    *t0 = NowNs();
    *pts = idx.WindowQuery(op.w, ctx);
    *t1 = NowNs();
    n = pts->size();
  } else {
    *t0 = NowNs();
    *pts = idx.KnnQuery(op.pt, kK, ctx);
    *t1 = NowNs();
    n = pts->size();
  }
  st.results[kind] += n;
  st.Record(kind, static_cast<double>(*t1 - *t0) / 1e3);
  return n;
}

/// Checks the answer of one read (see Checker).
void CheckRead(const Op& op, const std::optional<PointEntry>& hit,
               const std::vector<Point>& pts, size_t live, bool may_miss,
               Checker& chk) {
  if (op.type == Type::kPoint) chk.Point(op.pt, hit, may_miss);
  if (op.type == Type::kWindow) chk.Window(op.w, pts);
  if (op.type == Type::kKnn) chk.Knn(op.pt, kK, live, pts);
}

/// Name of the span around a routed read: `via` 0 = ShardedIndex,
/// 1 = ExternalIndex over it, 2 = the check phase's LoadIndex copy.
const char* OuterSpanName(int kind, int via) {
  static const char* const kNames[3][3] = {
      {"shard.PointQuery", "shard.WindowQuery", "shard.KnnQuery"},
      {"xmem.PointQuery", "xmem.WindowQuery", "xmem.KnnQuery"},
      {"check.PointQuery", "check.WindowQuery", "check.KnnQuery"}};
  return kNames[via][kind];
}

/// The checked pass over a read pool: `kDriverThreads` threads run every
/// op once, check its answer in full, and record its result count in
/// the returned vector. It is also the measured loop's warm-up.
std::vector<uint32_t> CheckPool(const SpatialIndex& idx,
                                const std::vector<Op>& pool, size_t live,
                                Checker& chk) {
  std::vector<uint32_t> counts(pool.size(), 0);
  std::atomic<uint64_t> cursor{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kDriverThreads; ++t) {
    ts.emplace_back([&] {
      LoopStats st;
      std::optional<PointEntry> hit;
      std::vector<Point> pts;
      for (uint64_t i = cursor.fetch_add(1); i < pool.size();
           i = cursor.fetch_add(1)) {
        uint64_t t0 = 0, t1 = 0;
        counts[i] = static_cast<uint32_t>(
            TimedRead(idx, pool[i], st, &t0, &t1, &hit, &pts));
        CheckRead(pool[i], hit, pts, live, false, chk);
      }
    });
  }
  for (auto& th : ts) th.join();
  return counts;
}

/// Closed loop of `threads` in-process callers replaying `pool`
/// cyclically for `seconds` (thread t takes ops t, t + threads, ...).
/// Answers are not checked here, so that the loop's time is the
/// program's: CheckPool checked every pool op, and each answer here
/// must only have the result count it had there (`counts`). `sh` (may
/// be null) is the sharded index behind `idx`, used for the shard/core
/// layer spans of traced ops.
LoopStats RunInProcessClosed(const SpatialIndex& idx, const ShardedIndex* sh,
                             int via, const std::vector<Op>& pool,
                             const std::vector<uint32_t>& counts,
                             double seconds, Checker& chk, SpanStore* spans,
                             uint64_t seed) {
  std::vector<LoopStats> per(kDriverThreads, LoopStats(seed));
  std::vector<uint64_t> mismatched(kDriverThreads, 0);
  const auto t_start = Clock::now();
  const auto t_end =
      t_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> ts;
  for (int t = 0; t < kDriverThreads; ++t) {
    ts.emplace_back([&, t] {
      LoopStats& st = per[t];
      Tracer tr(spans, static_cast<uint32_t>(t + 1), 1 << 16);
      std::optional<PointEntry> hit;
      std::vector<Point> pts;
      uint64_t local = 0, bad = 0;
      for (uint64_t i = t; Clock::now() < t_end; i += kDriverThreads) {
        const size_t at = i % pool.size();
        const Op& op = pool[at];
        const bool sampled = tr.on() && (local++ % kSpanEvery) == 0;
        InnerCall inner;
        if (sampled && sh != nullptr && (local / kSpanEvery) % 2 == 1) {
          inner = TimeShardCall(*sh, op);
        }
        uint64_t t0 = 0, t1 = 0;
        bad += TimedRead(idx, op, st, &t0, &t1, &hit, &pts) != counts[at];
        if (sampled) {
          TraceShardLayer(sh, op, OuterSpanName(KindOf(op.type), via), i, t0,
                          t1, inner, pts, tr, st);
        }
      }
      mismatched[t] = bad;
    });
  }
  for (auto& th : ts) th.join();
  LoopStats total(seed);
  for (const auto& s : per) total.Merge(s);
  total.wall_s = SecondsSince(t_start);
  uint64_t bad = 0;
  for (uint64_t b : mismatched) bad += b;
  chk.Count(total.ops, bad,
            "a measured read's result count differs from its checked pass");
  return total;
}

// ---------------------------------------------------------------------------
// Served loops (one process: server and clients talk over loopback).

struct OpenLoopStats {
  Reservoir lat_us{1 << 17, 7};        // from each request's due time
  Reservoir kind_lat_us[3] = {Reservoir(1 << 16, 12), Reservoir(1 << 16, 13),
                              Reservoir(1 << 16, 14)};
  Reservoir lag_us{1 << 17, 8};        // how late the generator sent
  Reservoir send_us{1 << 16, 9};       // ServerClient::Send
  Reservoir unexplained_us{1 << 14, 10};
  uint64_t sent = 0;
  uint64_t received = 0;
};

/// Server-side time of a traced response: queue + coalescing + descent.
double ServerSpanUs(const Response& r) {
  double us = 0.0;
  for (const rsmi::TraceSpan& s : r.trace) {
    if (s.name == "queue" || s.name == "batch_group" || s.name == "descent") {
      us += static_cast<double>(s.end_us - s.start_us);
    }
  }
  return us;
}

/// Checks one served read answer.
void CheckServed(const Op& op, const Response& r, size_t live, Checker& chk) {
  if (r.status != rsmi::StatusCode::kOk &&
      r.status != rsmi::StatusCode::kNotFound) {
    chk.Expect(false, std::string("served request failed: ") +
                          rsmi::StatusCodeName(r.status));
    return;
  }
  if (op.type == Type::kPoint) chk.Point(op.pt, r.hit, false);
  if (op.type == Type::kWindow) chk.Window(op.w, r.points);
  if (op.type == Type::kKnn) chk.Knn(op.pt, kK, live, r.points);
}

/// Open loop over one pipelined connection: request i is due at
/// start + i / rate and is sent then (or as soon after as the generator
/// manages); its latency runs from the due time to its response. Stops
/// after `max_ops` requests or `seconds`, whichever comes first, then
/// drains the outstanding responses. `on_resp` sees every response.
OpenLoopStats RunOpenLoop(uint16_t port, const std::vector<Op>& ops,
                          uint64_t first, uint64_t max_ops, double seconds,
                          bool traced, Checker& chk, SpanStore* spans,
                          const std::function<void(uint64_t, const Response&)>&
                              on_resp) {
  OpenLoopStats st;
  std::string err;
  auto client = rsmi::ServerClient::Connect("127.0.0.1", port, &err);
  if (client == nullptr) {
    chk.Expect(false, "connect: " + err);
    return st;
  }
  client->SetReceiveTimeout(5000);
  const uint64_t cap = std::min<uint64_t>(
      max_ops, static_cast<uint64_t>(kOpenRate * seconds * 1.05) + 16);
  std::vector<uint64_t> due_ns(cap), send_ns(cap);
  std::atomic<uint64_t> sent{0};
  std::atomic<bool> done{false};
  const uint64_t start = NowNs() + 1000000;  // first request due in 1 ms
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::thread sender([&] {
    Tracer tr(spans, 100, 1 << 14);
    const Clock::time_point origin{std::chrono::nanoseconds(start)};
    for (uint64_t i = 0; i < cap; ++i) {
      const uint64_t due = start + static_cast<uint64_t>(
                                       static_cast<double>(i) * 1e9 / kOpenRate);
      if (due >= end) break;
      std::this_thread::sleep_until(
          origin + std::chrono::nanoseconds(due - start));
      Request req = ToRequest(ops[(first + i) % ops.size()], i);
      req.trace = traced && (i % kServerTraceEvery) == 0;
      due_ns[i] = due;
      const uint64_t s0 = NowNs();
      send_ns[i] = s0;
      // Publish the slot before the request can be answered.
      sent.store(i + 1, std::memory_order_release);
      const bool ok = client->Send(req);
      const uint64_t s1 = NowNs();
      st.lag_us.Add(static_cast<double>(s0 > due ? s0 - due : 0) / 1e3);
      st.send_us.Add(static_cast<double>(s1 - s0) / 1e3);
      if (tr.on() && (i % kSpanEvery) == 0) tr.Add("client.Send", s0, s1, i);
      if (!ok) break;
    }
    done.store(true, std::memory_order_release);
  });
  Tracer tr(spans, 101, 1 << 14);
  uint64_t received = 0;
  Response resp;
  while (!(done.load(std::memory_order_acquire) &&
           received >= sent.load(std::memory_order_acquire))) {
    if (received >= sent.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    if (!client->Receive(&resp)) break;
    const uint64_t now = NowNs();
    ++received;
    if (resp.id >= sent.load(std::memory_order_acquire)) {
      chk.Expect(false, "served response with an unknown id");
      continue;
    }
    const Op& op = ops[(first + resp.id) % ops.size()];
    const double lat = static_cast<double>(now - due_ns[resp.id]) / 1e3;
    st.lat_us.Add(lat);
    const int kind = KindOf(op.type);
    if (kind < 3) st.kind_lat_us[kind].Add(lat);
    CheckServed(op, resp, SIZE_MAX, chk);
    if (!resp.trace.empty()) {
      const double rtt = static_cast<double>(now - send_ns[resp.id]) / 1e3;
      st.unexplained_us.Add(rtt - ServerSpanUs(resp));
      const int32_t parent =
          tr.Add("client.RoundTrip", send_ns[resp.id], now, resp.id);
      for (const rsmi::TraceSpan& s : resp.trace) {
        static const char* const kNames[] = {"server.admission", "server.queue",
                                             "server.batch_group",
                                             "server.descent", "server.reply"};
        static const char* const kRaw[] = {"admission", "queue", "batch_group",
                                           "descent", "reply"};
        for (int j = 0; j < 5; ++j) {
          if (s.name == kRaw[j]) {
            tr.Add(kNames[j], send_ns[resp.id] + s.start_us * 1000,
                   send_ns[resp.id] + s.end_us * 1000, resp.id, parent);
          }
        }
      }
    }
    if (on_resp) on_resp(resp.id, resp);
  }
  sender.join();
  st.sent = sent.load();
  st.received = received;
  chk.Expect(st.received == st.sent, "served open loop lost responses");
  return st;
}

/// Closed loop of call-reply clients: each sends its next request only
/// after the previous reply arrived.
LoopStats RunServedClosed(uint16_t port, const std::vector<Op>& pool,
                          double seconds, Checker& chk, SpanStore* spans,
                          uint64_t seed, Reservoir* send_us) {
  std::atomic<uint64_t> cursor{0};
  std::vector<LoopStats> per(kClosedClients, LoopStats(seed));
  std::vector<Reservoir> sends(kClosedClients);
  const auto t_start = Clock::now();
  const auto t_end =
      t_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> ts;
  for (int t = 0; t < kClosedClients; ++t) {
    ts.emplace_back([&, t] {
      LoopStats& st = per[t];
      Tracer tr(spans, static_cast<uint32_t>(200 + t), 1 << 12);
      std::string err;
      auto client = rsmi::ServerClient::Connect("127.0.0.1", port, &err);
      if (client == nullptr) {
        chk.Expect(false, "connect: " + err);
        return;
      }
      client->SetReceiveTimeout(5000);
      Response resp;
      while (Clock::now() < t_end) {
        const uint64_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        const Op& op = pool[i % pool.size()];
        const uint64_t t0 = NowNs();
        const bool sent = client->Send(ToRequest(op, i));
        const uint64_t ts1 = NowNs();
        const bool got = sent && client->Receive(&resp);
        const uint64_t t1 = NowNs();
        if (!got) {
          chk.Expect(false, "served call failed");
          return;
        }
        sends[t].Add(static_cast<double>(ts1 - t0) / 1e3);
        const int kind = KindOf(op.type);
        st.cost[kind].MergeFrom(resp.cost);
        st.results[kind] += resp.ResultCount();
        st.Record(kind, static_cast<double>(t1 - t0) / 1e3);
        CheckServed(op, resp, SIZE_MAX, chk);
        if (tr.on()) {
          const int32_t p = tr.Add("client.Call", t0, t1, i);
          tr.Add("client.Send", t0, ts1, i, p);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  LoopStats total(seed);
  for (const auto& s : per) total.Merge(s);
  for (const auto& s : sends) send_us->Merge(s);
  total.wall_s = SecondsSince(t_start);
  return total;
}

// ---------------------------------------------------------------------------
// Global-registry deltas (shard merges, xmem residency).

int64_t CounterDelta(const MetricsSnapshot& a, const MetricsSnapshot& b,
                     const std::string& name) {
  return b.ValueOf(name) - a.ValueOf(name);
}

MetricSample HistogramDelta(const MetricsSnapshot& a, const MetricsSnapshot& b,
                            const std::string& name) {
  MetricSample out;
  out.kind = MetricSample::Kind::kHistogram;
  const MetricSample* sb = b.Find(name);
  if (sb == nullptr) return out;
  out = *sb;
  const MetricSample* sa = a.Find(name);
  if (sa != nullptr) {
    out.count -= sa->count;
    out.sum -= sa->sum;
    for (size_t i = 0; i < out.buckets.size() && i < sa->buckets.size(); ++i) {
      out.buckets[i] -= sa->buckets[i];
    }
  }
  return out;
}

/// Sum of several same-shaped histograms of one snapshot.
MetricSample HistogramSum(const MetricsSnapshot& s,
                          const std::vector<std::string>& names) {
  MetricSample out;
  out.kind = MetricSample::Kind::kHistogram;
  for (const std::string& n : names) {
    const MetricSample* h = s.Find(n);
    if (h == nullptr) continue;
    if (out.buckets.size() < h->buckets.size()) {
      out.buckets.resize(h->buckets.size(), 0);
    }
    for (size_t i = 0; i < h->buckets.size(); ++i) out.buckets[i] += h->buckets[i];
    out.count += h->count;
    out.sum += h->sum;
  }
  return out;
}

double FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;
}

void RemoveIndexFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wbl").c_str());
  std::remove((path + ".tmp").c_str());
}

// ---------------------------------------------------------------------------
// One run of one workload.

class Run {
 public:
  Run(const Options& o, const WorkloadSpec& w)
      : o_(o),
        w_(w),
        is_serve_(std::strcmp(w.name, "serve") == 0),
        is_mmap_(std::strcmp(w.name, "mmap_read") == 0),
        is_update_(std::strcmp(w.name, "update_mix") == 0),
        own_layers_(!is_serve_ && !is_update_),
        chk_(&known_) {
    if (o.trace) spans_ = std::make_unique<SpanStore>();
    setup_tr_ = std::make_unique<Tracer>(spans_.get(), 0, 256);
    path_ = o.out_dir + "/" + w.name + "-seed" + std::to_string(o.seed) +
            "-pid" + std::to_string(::getpid()) + ".idx";
  }
  ~Run() { RemoveIndexFiles(path_); }

  int Execute();

 private:
  void MakeInputs();
  bool SetUp();
  void Measure();
  void MeasureUpdates();
  void CheckPaths();
  void CheckWritePath(SpatialIndex& copy);
  void Recall(const SpatialIndex& idx);
  void Emit();
  void Fail(const std::string& what) { chk_.Expect(false, what); }

  void SetupSpan(const char* name, uint64_t t0) {
    setup_tr_->Add(name, t0, NowNs(), 0);
  }

  const Options& o_;
  const WorkloadSpec& w_;
  const bool is_serve_, is_mmap_, is_update_;
  /// The measured loop itself yields the shard/core layer numbers
  /// (in-process reads with no concurrent merges).
  const bool own_layers_;
  PosSet known_;
  Checker chk_;
  std::unique_ptr<SpanStore> spans_;
  std::unique_ptr<Tracer> setup_tr_;
  std::string path_;

  std::vector<Point> data_;           // live points (driver's model)
  PosSet live_set_;
  std::vector<Op> pool_;              // read pool (read workloads)

  std::unique_ptr<SpatialIndex> index_;                 // local / update
  std::unique_ptr<rsmi::xmem::ExternalIndex> ext_;      // mmap_read
  std::unique_ptr<rsmi::SpatialServer> server_;         // serve

  std::vector<double> setup_s_, build_s_, save_s_, open_s_;
  double load_s_ = 0.0, check_save_s_ = 0.0, check_open_s_ = 0.0;
  double flush_s_ = 0.0, process_rss_mb_ = 0.0;
  double index_heap_mb_ = 0.0, index_file_mb_ = 0.0;
  double index_bytes_ = 0.0, container_bytes_ = 0.0;

  LoopStats main_{1};
  OpenLoopStats open_;
  bool have_open_ = false;
  OpenLoopStats check_open_;
  Reservoir closed_send_us_{1 << 14, 11};
  LoopStats check_layer_{2};  // traced in-process pass of the check phase

  MetricsSnapshot server_scrape_;
  MetricsSnapshot writes_before_, writes_after_;
  MetricsSnapshot xmem_before_, xmem_after_;
  double xmem_resident_mb_ = 0.0, xmem_budget_mb_ = 0.0;
  double window_recall_ = 0.0, knn_recall_ = 0.0;
  uint64_t applied_ins_ = 0, applied_del_ = 0;
};

void Run::MakeInputs() {
  data_ = rsmi::GenerateDataset(w_.dist, o_.n, kDataSeed);
  for (const Point& p : data_) {
    known_.insert(KeyOf(p));
    live_set_.insert(KeyOf(p));
  }
  if (w_.write_frac == 0.0) {
    pool_ = ToOps(rsmi::BuildMixedWorkload(data_, kPoolOps, MixOf(w_),
                                           o_.seed * 7919 + 1));
  }
}

bool Run::SetUp() {
  rsmi::IndexBuildConfig cfg;
  cfg.build_threads = kBuildThreads;
  const bool persisted = is_serve_ || is_mmap_;
  for (int rep = 0; rep < o_.setup_reps; ++rep) {
    // Tear down the previous repetition outside the timed region.
    server_.reset();
    ext_.reset();
    index_.reset();
    RemoveIndexFiles(path_);

    const uint64_t t0 = NowNs();
    auto built = rsmi::MakeIndexFromSpec(kSpec, data_, cfg);
    SetupSpan("io.Build", t0);
    const uint64_t t_built = NowNs();
    if (built == nullptr) {
      Fail("index build failed");
      return false;
    }
    build_s_.push_back(static_cast<double>(t_built - t0) / 1e9);
    if (persisted) {
      std::string err;
      const uint64_t s0 = NowNs();
      if (!rsmi::SaveIndex(*built, path_, &err)) {
        Fail("SaveIndex: " + err);
        return false;
      }
      SetupSpan("io.SaveIndex", s0);
      save_s_.push_back(static_cast<double>(NowNs() - s0) / 1e9);
      const uint64_t f0 = NowNs();
      built.reset();  // the served / mapped copy is the one that answers
      const uint64_t freed = NowNs() - f0;
      if (is_serve_) {
        rsmi::ServerOptions so;
        so.index_path = path_;
        so.threads = kServerWorkers;
        const uint64_t l0 = NowNs();
        server_ = rsmi::SpatialServer::Start(so, &err);
        SetupSpan("server.Start", l0);
        if (server_ == nullptr) {
          Fail("SpatialServer::Start: " + err);
          return false;
        }
      } else {
        rsmi::xmem::XmemOptions xo;
        xo.rss_budget_bytes = static_cast<size_t>(FileBytes(path_) / 4);
        xo.write_behind = false;
        xo.apply_env_overrides = false;
        const uint64_t x0 = NowNs();
        ext_ = rsmi::xmem::ExternalIndex::Open(path_, xo, &err);
        SetupSpan("xmem.Open", x0);
        open_s_.push_back(static_cast<double>(NowNs() - x0) / 1e9);
        if (ext_ == nullptr) {
          Fail("ExternalIndex::Open: " + err);
          return false;
        }
      }
      setup_s_.push_back(static_cast<double>(NowNs() - t0 - freed) / 1e9);
    } else {
      index_ = std::move(built);
      setup_s_.push_back(static_cast<double>(t_built - t0) / 1e9);
    }
  }
  return true;
}

void Run::Measure() {
  if (is_update_) {
    MeasureUpdates();
    return;
  }
  if (server_ != nullptr) {
    const double warm = std::min(1.0, 0.1 * o_.seconds);
    // Closed phase (call-reply clients), then open phase (one pipelined
    // connection at a fixed rate): half of the run each.
    Checker warm_chk(&known_);
    Reservoir scratch;
    RunServedClosed(server_->port(), pool_, warm * 0.5, warm_chk, nullptr,
                    o_.seed, &scratch);
    if (o_.plant_wrong) chk_.PlantWrongAnswer();
    main_ = RunServedClosed(server_->port(), pool_, o_.seconds / 2, chk_,
                            spans_.get(), o_.seed, &closed_send_us_);
    open_ = RunOpenLoop(server_->port(), pool_, kPoolOps / 2, UINT64_MAX,
                        o_.seconds / 2, o_.trace, chk_, spans_.get(), nullptr);
    have_open_ = true;
    server_scrape_ = server_->Metrics();
    return;
  }
  const SpatialIndex& idx =
      ext_ != nullptr ? static_cast<const SpatialIndex&>(*ext_) : *index_;
  const auto* sh = dynamic_cast<const ShardedIndex*>(
      ext_ != nullptr ? ext_->inner() : index_.get());
  if (o_.plant_wrong) chk_.PlantWrongAnswer();
  const std::vector<uint32_t> counts =
      CheckPool(idx, pool_, data_.size(), chk_);
  xmem_before_ = MetricsRegistry::Global().Snapshot();
  main_ = RunInProcessClosed(idx, sh, is_mmap_ ? 1 : 0, pool_, counts,
                             o_.seconds, chk_, spans_.get(), o_.seed);
  xmem_after_ = MetricsRegistry::Global().Snapshot();
  if (ext_ != nullptr) {
    xmem_resident_mb_ =
        static_cast<double>(ext_->governor().OsResidentBytes()) / (1 << 20);
    xmem_budget_mb_ =
        static_cast<double>(ext_->governor().budget_bytes()) / (1 << 20);
  }
}

/// update_mix: epochs of BuildMixedWorkload over the live set (reads
/// 80/10/10, 20% buffered single-op writes: half inserts at fresh
/// positions, half deletes that hit). Writers and readers share the two
/// driver threads; merges run in the background. Between epochs the
/// driver folds the applied writes into its model of the live set, so
/// every epoch's deletes target live points and the final state is known.
void Run::MeasureUpdates() {
  auto* sh = dynamic_cast<ShardedIndex*>(index_.get());
  writes_before_ = MetricsRegistry::Global().Snapshot();
  double measured = 0.0;
  const double warm = std::min(1.0, 0.1 * o_.seconds);
  bool warmed = false;
  std::vector<LoopStats> per(kDriverThreads, LoopStats(o_.seed));
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (int t = 0; t < kDriverThreads; ++t) {
    tracers.push_back(std::make_unique<Tracer>(
        spans_.get(), static_cast<uint32_t>(t + 1), 1 << 16));
  }
  uint64_t epoch = 0, op_base = 0;
  while (measured < o_.seconds) {
    const bool warming = !warmed;
    auto reqs = rsmi::BuildMixedWorkload(data_, kEpochOps, MixOf(w_),
                                         o_.seed * 1000003 + epoch++);
    PosSet deleting;
    std::vector<Op> ops;
    ops.reserve(reqs.size());
    for (const Request& r : reqs) {
      if (r.type == Type::kInsert && known_.count(KeyOf(r.pt)) != 0) continue;
      if (r.type == Type::kDelete) deleting.insert(KeyOf(r.pt));
      ops.push_back({r.type, r.pt, r.window});
    }
    for (const Op& op : ops) {
      if (op.type == Type::kInsert) known_.insert(KeyOf(op.pt));
    }
    // 0 = not run, 1 = write applied, 2 = write not applied.
    std::vector<uint8_t> outcome(ops.size(), 0);
    std::atomic<uint64_t> cursor{0};
    const double budget = warming ? warm : o_.seconds - measured;
    const auto t_start = Clock::now();
    const auto t_end =
        t_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(budget));
    if (!warming && o_.plant_wrong && epoch == 2) chk_.PlantWrongAnswer();
    Checker warm_chk(&known_);
    Checker& chk = warming ? warm_chk : chk_;
    const size_t live = data_.size();
    std::vector<std::thread> ts;
    for (int t = 0; t < kDriverThreads; ++t) {
      ts.emplace_back([&, t] {
        LoopStats scratch(o_.seed);
        LoopStats& st = warming ? scratch : per[t];
        Tracer& tr = *tracers[t];
        std::optional<PointEntry> hit;
        std::vector<Point> pts;
        uint64_t local = 0;
        while (Clock::now() < t_end) {
          const uint64_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= ops.size()) break;
          const Op& op = ops[i];
          const bool sampled =
              !warming && tr.on() && (local++ % kSpanEvery) == 0;
          if (KindOf(op.type) < 3) {
            uint64_t t0 = 0, t1 = 0;
            const bool may_miss = deleting.count(KeyOf(op.pt)) != 0;
            TimedRead(*index_, op, st, &t0, &t1, &hit, &pts);
            CheckRead(op, hit, pts, live, may_miss, chk);
            if (sampled) {
              tr.Add(OuterSpanName(KindOf(op.type), 0), t0, t1,
                     op_base + i);
            }
            continue;
          }
          rsmi::UpdateBatch b;
          if (op.type == Type::kInsert) b.Insert(op.pt);
          else b.Delete(op.pt);
          rsmi::WriteOptions wo;
          wo.buffered = true;
          const uint64_t t0 = NowNs();
          const rsmi::UpdateResult r = index_->ApplyUpdates(b, wo);
          const uint64_t t1 = NowNs();
          outcome[i] = (r.applied_inserts + r.applied_deletes) > 0 ? 1 : 2;
          st.Record(3, static_cast<double>(t1 - t0) / 1e3);
          if (sampled) tr.Add("shard.ApplyUpdates", t0, t1, op_base + i);
          if (tr.on() && (local % 64) == 0 && sh != nullptr) {
            for (int s = 0; s < sh->num_shards(); ++s) {
              st.delta_depth_max =
                  std::max(st.delta_depth_max, sh->shard_delta_size(s));
            }
          }
        }
      });
    }
    for (auto& th : ts) th.join();
    const double wall = SecondsSince(t_start);
    if (warming) {
      warmed = true;
    } else {
      measured += wall;
    }
    op_base += ops.size();
    // Fold applied writes into the live set.
    bool changed = false;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (outcome[i] == 0) continue;
      const bool applied = outcome[i] == 1;
      if (ops[i].type == Type::kInsert) {
        if (!applied) {
          Fail("buffered insert not applied");
          continue;
        }
        live_set_.insert(KeyOf(ops[i].pt));
        ++applied_ins_;
        changed = true;
      } else if (applied) {
        live_set_.erase(KeyOf(ops[i].pt));
        ++applied_del_;
        changed = true;
      } else {
        Fail("delete of a live point missed");
      }
    }
    if (changed) {
      std::vector<Point> next;
      next.reserve(live_set_.size());
      for (const Point& p : data_) {
        if (live_set_.count(KeyOf(p)) != 0) next.push_back(p);
      }
      for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].type == Type::kInsert && outcome[i] == 1 &&
            live_set_.count(KeyOf(ops[i].pt)) != 0) {
          next.push_back(ops[i].pt);
        }
      }
      data_.swap(next);
    }
  }
  for (const auto& s : per) main_.Merge(s);
  main_.wall_s = measured;
  const uint64_t f0 = NowNs();
  index_->FlushUpdates();
  flush_s_ = static_cast<double>(NowNs() - f0) / 1e9;
  setup_tr_->Add("shard.FlushUpdates", f0, NowNs(), 0);
  writes_after_ = MetricsRegistry::Global().Snapshot();

  // After the flush: every live point is found, every deleted one is
  // absent, and the count is n + inserts - deletes.
  QueryContext ctx;
  for (const Point& p : data_) {
    auto r = index_->PointQuery(p, ctx);
    chk_.Expect(r.has_value() && rsmi::SamePosition(r->pt, p),
                "a live point is missing after the flush");
  }
  for (const PosKey& k : known_) {
    if (live_set_.count(k) != 0) continue;
    Point p;
    std::memcpy(&p.x, &k.x, sizeof(p.x));
    std::memcpy(&p.y, &k.y, sizeof(p.y));
    chk_.Expect(!index_->PointQuery(p, ctx).has_value(),
                "a deleted point is still present after the flush");
  }
  chk_.Expect(index_->Stats().num_points == o_.n + applied_ins_ - applied_del_,
              "point count after the flush is not n + inserts - deletes");
}

/// Brute-force recall of a fixed sample of windows and kNN queries.
void Run::Recall(const SpatialIndex& idx) {
  auto reqs = rsmi::BuildMixedWorkload(
      data_, 2 * kRecallOps, [&] {
        rsmi::WorkloadMix m = MixOf(w_);
        m.point_frac = 0.0;
        m.window_frac = 0.5;
        m.write_frac = 0.0;
        return m;
      }(),
      o_.seed * 31 + 17);
  uint64_t w_hit = 0, w_truth = 0;
  double k_sum = 0.0;
  uint64_t k_n = 0;
  std::vector<std::pair<double, size_t>> d(data_.size());
  for (const Request& r : reqs) {
    QueryContext ctx;
    if (r.type == Type::kWindow) {
      PosSet got;
      for (const Point& p : idx.WindowQuery(r.window, ctx)) got.insert(KeyOf(p));
      for (const Point& p : data_) {
        if (!r.window.Contains(p)) continue;
        ++w_truth;
        w_hit += got.count(KeyOf(p));
      }
    } else if (r.type == Type::kKnn) {
      PosSet got;
      for (const Point& p : idx.KnnQuery(r.pt, kK, ctx)) got.insert(KeyOf(p));
      for (size_t i = 0; i < data_.size(); ++i) {
        d[i] = {rsmi::SquaredDist(data_[i], r.pt), i};
      }
      const size_t k = std::min<size_t>(kK, d.size());
      std::nth_element(d.begin(), d.begin() + (k - 1), d.end());
      size_t hit = 0;
      for (size_t i = 0; i < k; ++i) hit += got.count(KeyOf(data_[d[i].second]));
      k_sum += static_cast<double>(hit) / static_cast<double>(k);
      ++k_n;
    }
  }
  window_recall_ = w_truth == 0 ? 1.0 : static_cast<double>(w_hit) / w_truth;
  knn_recall_ = k_n == 0 ? 1.0 : k_sum / static_cast<double>(k_n);
}

/// The write path on a loaded copy (read-only workloads): buffered single
/// inserts and hit deletes, then a flush, then the same checks as
/// update_mix. It also gives those runs their shard-merge layer numbers.
void Run::CheckWritePath(SpatialIndex& copy) {
  rsmi::WorkloadMix m = MixOf(w_);
  m.write_frac = 1.0;
  auto reqs = rsmi::BuildMixedWorkload(data_, kCheckWrites, m,
                                       o_.seed * 131 + 5);
  writes_before_ = MetricsRegistry::Global().Snapshot();
  auto* sh = dynamic_cast<ShardedIndex*>(&copy);
  Tracer tr(spans_.get(), 300, kCheckWrites + 8);
  PosSet inserted, deleted;
  for (const Request& r : reqs) {
    rsmi::UpdateBatch b;
    if (r.type == Type::kInsert) {
      if (known_.count(KeyOf(r.pt)) != 0) continue;
      b.Insert(r.pt);
    } else {
      b.Delete(r.pt);
    }
    rsmi::WriteOptions wo;
    wo.buffered = true;
    const uint64_t t0 = NowNs();
    const rsmi::UpdateResult res = copy.ApplyUpdates(b, wo);
    tr.Add("shard.ApplyUpdates", t0, NowNs(), r.id);
    if (r.type == Type::kInsert) {
      chk_.Expect(res.applied_inserts == 1, "buffered insert not applied");
      inserted.insert(KeyOf(r.pt));
    } else {
      chk_.Expect(res.applied_deletes == 1, "delete of a live point missed");
      deleted.insert(KeyOf(r.pt));
    }
    if (sh != nullptr && tr.on()) {
      for (int s = 0; s < sh->num_shards(); ++s) {
        check_layer_.delta_depth_max =
            std::max(check_layer_.delta_depth_max, sh->shard_delta_size(s));
      }
    }
  }
  const uint64_t f0 = NowNs();
  copy.FlushUpdates();
  flush_s_ = static_cast<double>(NowNs() - f0) / 1e9;
  tr.Add("shard.FlushUpdates", f0, NowNs(), 0);
  writes_after_ = MetricsRegistry::Global().Snapshot();
  QueryContext ctx;
  for (const Request& r : reqs) {
    auto hit = copy.PointQuery(r.pt, ctx);
    if (r.type == Type::kInsert) {
      chk_.Expect(hit.has_value() && rsmi::SamePosition(hit->pt, r.pt),
                  "an applied insert is missing after the flush");
    } else {
      chk_.Expect(!hit.has_value(),
                  "an applied delete is still present after the flush");
    }
  }
  chk_.Expect(copy.Stats().num_points ==
                  data_.size() + inserted.size() - deleted.size(),
              "point count after the flush is not n + inserts - deletes");
}

/// Cross-path checks on a fixed sample: the in-process answers (of the
/// workload's own index, or of a LoadIndex copy of its container) must
/// equal the served answers and the mmap answers. Also yields the layer
/// numbers of the paths a workload does not measure itself.
void Run::CheckPaths() {
  std::string err;
  // The container every path reads. Read workloads that built in memory
  // save it here; update_mix saves its flushed state.
  if (index_ != nullptr) {
    const uint64_t s0 = NowNs();
    if (!rsmi::SaveIndex(*index_, path_, &err)) {
      Fail("SaveIndex: " + err);
      return;
    }
    setup_tr_->Add("io.SaveIndex", s0, NowNs(), 0);
    check_save_s_ = static_cast<double>(NowNs() - s0) / 1e9;
  }
  container_bytes_ = FileBytes(path_);
  const uint64_t l0 = NowNs();
  std::unique_ptr<SpatialIndex> copy = rsmi::LoadIndex(path_, &err);
  setup_tr_->Add("io.LoadIndex", l0, NowNs(), 0);
  load_s_ = static_cast<double>(NowNs() - l0) / 1e9;
  if (copy == nullptr) {
    Fail("LoadIndex: " + err);
    return;
  }
  const SpatialIndex& ref = index_ != nullptr ? *index_ : *copy;
  index_bytes_ = static_cast<double>(ref.Stats().size_bytes);
  Recall(ref);

  rsmi::WorkloadMix m = MixOf(w_);
  m.write_frac = 0.0;
  const std::vector<Op> sample =
      ToOps(rsmi::BuildMixedWorkload(data_, kCheckOps, m, o_.seed * 17 + 3));
  std::vector<Answer> expect;
  expect.reserve(sample.size());
  for (const Op& op : sample) expect.push_back(AnswerOf(ref, op));

  // Traced in-process pass over the sample: the shard/core layer numbers
  // of runs whose measured loop cannot take them (served, or concurrent
  // with merges).
  if (spans_ != nullptr && !own_layers_) {
    const auto* sh = dynamic_cast<const ShardedIndex*>(copy.get());
    Tracer tr(spans_.get(), 400, 4 * kCheckOps);
    std::optional<PointEntry> hit;
    std::vector<Point> pts;
    for (size_t i = 0; i < sample.size(); ++i) {
      InnerCall inner;
      if (sh != nullptr && i % 2 == 1) inner = TimeShardCall(*sh, sample[i]);
      uint64_t t0 = 0, t1 = 0;
      TimedRead(*copy, sample[i], check_layer_, &t0, &t1, &hit, &pts);
      TraceShardLayer(sh, sample[i], OuterSpanName(KindOf(sample[i].type), 2),
                      i, t0, t1, inner, pts, tr, check_layer_);
    }
  }

  // Served path.
  std::unique_ptr<rsmi::SpatialServer> own_server;
  rsmi::SpatialServer* srv = server_.get();
  if (srv == nullptr) {
    rsmi::ServerOptions so;
    so.index_path = path_;
    so.threads = kServerWorkers;
    own_server = rsmi::SpatialServer::Start(so, &err);
    srv = own_server.get();
    if (srv == nullptr) {
      Fail("SpatialServer::Start: " + err);
      return;
    }
  }
  std::vector<Response> served(sample.size());
  check_open_ = RunOpenLoop(srv->port(), sample, 0, sample.size(), 60.0,
                            spans_ != nullptr, chk_, spans_.get(),
                            [&](uint64_t id, const Response& r) {
                              if (id < served.size()) served[id] = r;
                            });
  for (size_t i = 0; i < sample.size(); ++i) {
    Answer a;
    a.hit = served[i].hit;
    a.pts = served[i].points;
    chk_.Expect(SameAnswer(sample[i], a, expect[i]),
                "served answer differs from the in-process answer");
  }
  if (own_server != nullptr) server_scrape_ = own_server->Metrics();
  own_server.reset();

  // Mapped path.
  std::unique_ptr<rsmi::xmem::ExternalIndex> own_ext;
  rsmi::xmem::ExternalIndex* ext = ext_.get();
  if (ext == nullptr) {
    rsmi::xmem::XmemOptions xo;
    xo.rss_budget_bytes = static_cast<size_t>(container_bytes_ / 4);
    xo.write_behind = false;
    xo.apply_env_overrides = false;
    xmem_before_ = MetricsRegistry::Global().Snapshot();
    const uint64_t x0 = NowNs();
    own_ext = rsmi::xmem::ExternalIndex::Open(path_, xo, &err);
    setup_tr_->Add("xmem.Open", x0, NowNs(), 0);
    check_open_s_ = static_cast<double>(NowNs() - x0) / 1e9;
    ext = own_ext.get();
    if (ext == nullptr) {
      Fail("ExternalIndex::Open: " + err);
      return;
    }
  }
  for (size_t i = 0; i < sample.size(); ++i) {
    chk_.Expect(SameAnswer(sample[i], AnswerOf(*ext, sample[i]), expect[i]),
                "mmap answer differs from the in-process answer");
  }
  if (own_ext != nullptr) {
    xmem_after_ = MetricsRegistry::Global().Snapshot();
    xmem_resident_mb_ =
        static_cast<double>(ext->governor().OsResidentBytes()) / (1 << 20);
    xmem_budget_mb_ =
        static_cast<double>(ext->governor().budget_bytes()) / (1 << 20);
  }
  own_ext.reset();

  if (!is_update_) CheckWritePath(*copy);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

void Run::Emit() {
  std::vector<Metric> e2e, layer, info;
  const LoopStats& m = main_;
  auto p = [&](int kind, double q) {
    return Quantile(m.lat_us[kind].values(), q);
  };
  const uint64_t n_ops = std::max<uint64_t>(1, data_.size());
  const double tail_q = TailLevel(m.all_us.seen());
  const double point_tail_q = TailLevel(m.lat_us[0].seen());
  e2e.push_back({"point_p50_us", p(0, 0.5), "us"});
  e2e.push_back({"point_tail_us", p(0, point_tail_q), "us"});
  // No window median here: served windows stall or not by result size
  // (see README), so serve's few closed-phase windows give no steady
  // median. Window cost shows in read_mean_us, op_tail_us and qps.
  e2e.push_back({"knn_p50_us", p(2, 0.5), "us"});
  e2e.push_back({"op_tail_us", Quantile(m.all_us.values(), tail_q), "us"});
  e2e.push_back({"read_mean_us",
                 m.read_us_sum / static_cast<double>(std::max<uint64_t>(1, m.reads)),
                 "us"});
  e2e.push_back({"qps", static_cast<double>(m.ops) / std::max(1e-9, m.wall_s),
                 "1/s"});
  e2e.push_back({"window_recall", window_recall_, "ratio"});
  e2e.push_back({"knn_recall", knn_recall_, "ratio"});
  e2e.push_back({"setup_s", Median(setup_s_), "s"});
  e2e.push_back({"rss_mb", index_heap_mb_ + index_file_mb_, "MiB"});
  e2e.push_back({"index_bytes_per_point", index_bytes_ / n_ops, "B"});

  // Recorded, not gated: the rest of the per-op picture. "closed." is
  // the workload's closed loop (in process, or serve's call-reply
  // clients); "open." is serve's open phase.
  for (int k = 0; k < 4; ++k) {
    const std::string name = std::string("closed.") + kKindName[k];
    const uint64_t n = m.lat_us[k].seen();
    info.push_back({name + "_count", static_cast<double>(n), "count"});
    if (n == 0) continue;
    info.push_back({name + "_p50_us", p(k, 0.5), "us"});
    if (n >= 1000) info.push_back({name + "_p99_us", p(k, 0.99), "us"});
  }
  info.push_back({"closed.point_tail_level", point_tail_q, "quantile"});
  info.push_back({"closed.op_tail_level", tail_q, "quantile"});
  if (have_open_) {
    info.push_back({"open.rate", kOpenRate, "1/s"});
    info.push_back({"open.count", static_cast<double>(open_.received), "count"});
    info.push_back({"open.p50_us", Quantile(open_.lat_us.values(), 0.5), "us"});
    info.push_back({"open.p99_us", Quantile(open_.lat_us.values(), 0.99), "us"});
    for (int k = 0; k < 3; ++k) {
      info.push_back({std::string("open.") + kKindName[k] + "_p50_us",
                      Quantile(open_.kind_lat_us[k].values(), 0.5), "us"});
    }
    info.push_back({"open.gen_lag_p50_us", Quantile(open_.lag_us.values(), 0.5),
                    "us"});
  }
  const double attempted = static_cast<double>(std::max<uint64_t>(1, chk_.attempted()));
  info.push_back({"failed_share", static_cast<double>(chk_.failed()) / attempted,
                  "ratio"});
  info.push_back({"rss_mb.heap", index_heap_mb_, "MiB"});
  info.push_back({"rss_mb.file", index_file_mb_, "MiB"});
  info.push_back({"process_rss_mb", process_rss_mb_, "MiB"});
  if (is_update_) {
    info.push_back({"applied_inserts", static_cast<double>(applied_ins_), "count"});
    info.push_back({"applied_deletes", static_cast<double>(applied_del_), "count"});
  }

  // Per-layer metrics (traced runs).
  if (spans_ != nullptr) {
    const OpenLoopStats& ol = have_open_ ? open_ : check_open_;
    const MetricsSnapshot& sc = server_scrape_;
    const MetricSample q = HistogramSum(
        sc, {"server.queue_us.point", "server.queue_us.window", "server.queue_us.knn"});
    const MetricSample e = HistogramSum(
        sc, {"server.exec_us.point", "server.exec_us.window", "server.exec_us.knn"});
    const MetricSample* bs = sc.Find("server.batch_size");
    const MetricSample* qp = sc.Find("server.queue_us.point");
    layer.push_back({"server.queue_us.p50", q.Percentile(0.5), "us"});
    layer.push_back({"server.exec_us.p50", e.Percentile(0.5), "us"});
    layer.push_back({"server.batch_size.p50",
                     bs != nullptr ? bs->Percentile(0.5) : 0.0, "count"});
    layer.push_back(
        {"server.coalesced_share",
         qp != nullptr && qp->count > 0
             ? static_cast<double>(sc.ValueOf("server.coalesced_requests")) /
                   static_cast<double>(qp->count)
             : 0.0,
         "ratio"});
    Reservoir sends = ol.send_us;
    if (is_serve_) sends.Merge(closed_send_us_);
    layer.push_back({"client.send_us.p50", Quantile(sends.values(), 0.5), "us"});
    layer.push_back({"client.unexplained_us.p50",
                     Quantile(ol.unexplained_us.values(), 0.5), "us"});
    layer.push_back({"gen.lag_us.p50", Quantile(ol.lag_us.values(), 0.5), "us"});
    layer.push_back({"gen.lag_us.p99", Quantile(ol.lag_us.values(), 0.99), "us"});

    // Shard and core layers: from the measured loop where it could take
    // them (local_read, mmap_read), else from the check phase's pass.
    const LoopStats& ls = own_layers_ ? main_ : check_layer_;
    const char* outer_point = OuterSpanName(0, own_layers_ ? (is_mmap_ ? 1 : 0) : 2);
    std::vector<double> outer = spans_->DurationsNs(outer_point);
    std::vector<double> inner = spans_->DurationsNs("core.PointQuery");
    layer.push_back({"shard.route_ns.point", Quantile(outer, 0.5) - Quantile(inner, 0.5),
                     "ns"});
    layer.push_back({"shard.fanout.window",
                     ls.fanout_sum[0] / std::max<uint64_t>(1, ls.fanout_n[0]), "count"});
    layer.push_back({"shard.fanout.knn",
                     ls.fanout_sum[1] / std::max<uint64_t>(1, ls.fanout_n[1]), "count"});
    const MetricSample mu = HistogramDelta(writes_before_, writes_after_, "shard.merge_us");
    layer.push_back({"shard.merges",
                     static_cast<double>(CounterDelta(writes_before_, writes_after_, "shard.merges")),
                     "count"});
    layer.push_back({"shard.merge_us.p50", mu.Percentile(0.5), "us"});
    layer.push_back({"shard.merge_us.p99", mu.Percentile(0.99), "us"});
    layer.push_back({"shard.replayed_ops",
                     static_cast<double>(CounterDelta(writes_before_, writes_after_,
                                                      "shard.replayed_ops")),
                     "count"});
    layer.push_back({"shard.delta_depth.max",
                     static_cast<double>(std::max(main_.delta_depth_max,
                                                  check_layer_.delta_depth_max)),
                     "count"});
    layer.push_back({"shard.flush_s", flush_s_, "s"});
    layer.push_back({"core.point_ns", Quantile(inner, 0.5), "ns"});
    layer.push_back({"core.window_us",
                     Quantile(spans_->DurationsNs("core.WindowQuery"), 0.5) / 1e3, "us"});
    layer.push_back({"core.knn_us",
                     Quantile(spans_->DurationsNs("core.KnnQuery"), 0.5) / 1e3, "us"});
    // Exact per-op counters of the measured loop (served responses carry
    // the server's per-op QueryContext).
    const LoopStats& cs = main_;
    for (int k = 0; k < 3; ++k) {
      const double ops = static_cast<double>(std::max<uint64_t>(1, cs.lat_us[k].seen()));
      layer.push_back({std::string("core.blocks_per_") + kKindName[k],
                       static_cast<double>(cs.cost[k].block_accesses) / ops, "count"});
    }
    for (int k = 0; k < 3; ++k) {
      const double ops = static_cast<double>(std::max<uint64_t>(1, cs.lat_us[k].seen()));
      layer.push_back({std::string("nn.invocations_per_") + kKindName[k],
                       static_cast<double>(cs.cost[k].model_invocations) / ops, "count"});
    }
    constexpr double kBlockCapacity = 100.0;  // IndexBuildConfig default
    layer.push_back(
        {"storage.scan_efficiency.window",
         static_cast<double>(cs.results[1]) /
             std::max(1.0, static_cast<double>(cs.cost[1].block_accesses) * kBlockCapacity),
         "ratio"});
    layer.push_back({"io.build_s", Median(build_s_), "s"});
    layer.push_back({"io.save_s", save_s_.empty() ? check_save_s_ : Median(save_s_), "s"});
    layer.push_back({"io.load_s", load_s_, "s"});
    layer.push_back({"io.container_bytes_per_point", container_bytes_ / n_ops, "B"});
    layer.push_back({"xmem.open_s", open_s_.empty() ? check_open_s_ : Median(open_s_), "s"});
    for (const char* c : {"xmem.faults", "xmem.evictions", "xmem.evicted_bytes"}) {
      layer.push_back({c, static_cast<double>(CounterDelta(xmem_before_, xmem_after_, c)),
                       std::strcmp(c, "xmem.evicted_bytes") == 0 ? "B" : "count"});
    }
    const int64_t issued = CounterDelta(xmem_before_, xmem_after_, "xmem.prefetch.issued");
    const int64_t hits = CounterDelta(xmem_before_, xmem_after_, "xmem.prefetch.hits");
    layer.push_back({"xmem.prefetch.hit_ratio",
                     issued > 0 ? static_cast<double>(hits) / static_cast<double>(issued) : 0.0,
                     "ratio"});
    layer.push_back({"xmem.mapped_resident_mb", xmem_resident_mb_, "MiB"});
    layer.push_back({"xmem.budget_mb", xmem_budget_mb_, "MiB"});
    // The traced run's own end-to-end numbers: compare with the untraced
    // run of the same workload and seed for the tracing overhead.
    layer.push_back({"traced.point_p50_us", p(0, 0.5), "us"});
    layer.push_back({"traced.qps", static_cast<double>(m.ops) / std::max(1e-9, m.wall_s),
                     "1/s"});
  }

  const bool correct = chk_.failed() == 0;
  std::ostringstream head;
  head << "{\"workload\":" << JsonString(w_.name) << ",\"seed\":" << o_.seed
       << ",\"seconds\":" << Num(o_.seconds) << ",\"trace\":" << (o_.trace ? 1 : 0)
       << ",\"n\":" << o_.n << ",\"spec\":" << JsonString(kSpec)
       << ",\"setup_reps\":" << o_.setup_reps << ",\"setup_s_each\":[";
  for (size_t i = 0; i < setup_s_.size(); ++i) {
    head << (i ? "," : "") << Num(setup_s_[i]);
  }
  head << "]}";
  std::ostringstream fails;
  fails << "[";
  const auto fl = chk_.failures();
  for (size_t i = 0; i < fl.size(); ++i) fails << (i ? "," : "") << JsonString(fl[i]);
  fails << "]";

  std::printf("# run %s\n# host %s\n# info %s\n", head.str().c_str(),
              HostJson().c_str(), MetricsJson(info).c_str());
  if (!fl.empty()) std::printf("# failures %s\n", fails.str().c_str());

  const std::string base = o_.out_dir + "/" + w_.name + "-seed" +
                           std::to_string(o_.seed) + "-trace" +
                           (o_.trace ? "1" : "0");
  std::ofstream rep(base + ".json");
  rep << "{\"run\":" << head.str() << ",\"host\":" << HostJson()
      << ",\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << chk_.attempted() << ",\"failed\":" << chk_.failed()
      << ",\"failures\":" << fails.str() << ",\"end_to_end\":" << MetricsJson(e2e)
      << ",\"per_layer\":" << MetricsJson(layer) << ",\"info\":" << MetricsJson(info)
      << "}\n";
  if (spans_ != nullptr) {
    // One span file per workload (the latest traced run), so repeated
    // runs do not pile up trace data.
    const std::string path = o_.out_dir + "/" + w_.name + "-spans.jsonl";
    spans_->WriteJsonLines(path);
    std::printf("# spans %zu written to %s\n", spans_->size(), path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, chk_.attempted())),
              static_cast<unsigned long long>(chk_.failed()),
              MetricsJson(o_.trace ? layer : e2e).c_str());
  std::fflush(stdout);
}

int Run::Execute() {
  ::mkdir(o_.out_dir.c_str(), 0755);
  MakeInputs();
  if (SetUp()) {
    Measure();
    CheckPaths();
  }
  // The index's memory: what the process holds while the index (and the
  // server or mapping over it) is alive, minus what it holds once they
  // are released. The benchmark's own buffers live through both
  // readings, so they cancel.
  const MemoryUse with = CurrentMemoryUse();
  process_rss_mb_ = ProcStatusMb("VmRSS");
  server_.reset();
  ext_.reset();
  index_.reset();
  const MemoryUse without = CurrentMemoryUse();
  index_heap_mb_ = with.heap_mb - without.heap_mb;
  index_file_mb_ = with.file_mb - without.file_mb;
  Emit();
  return chk_.failed() == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve|local_read|update_mix|mmap_read\n"
               "                 --seed N --seconds S --trace 0|1 [--n POINTS]\n"
               "                 [--setup-reps R] [--out-dir DIR] [--plant-wrong]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(val().c_str());
    else if (a == "--trace") o.trace = val() == "1";
    else if (a == "--n") o.n = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--setup-reps") o.setup_reps = std::max(1, std::atoi(val().c_str()));
    else if (a == "--out-dir") o.out_dir = val();
    else if (a == "--plant-wrong") o.plant_wrong = true;
    else return Usage();
  }
  if (o.seconds <= 0 || o.n < 1000) return Usage();
  for (const WorkloadSpec& w : kWorkloads) {
    if (o.workload == w.name) {
      Run run(o, w);
      return run.Execute();
    }
  }
  return Usage();
}
