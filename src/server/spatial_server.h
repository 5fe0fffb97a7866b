#ifndef RSMI_SERVER_SPATIAL_SERVER_H_
#define RSMI_SERVER_SPATIAL_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/spatial_index.h"
#include "exec/request.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"

namespace rsmi {

/// Spatial query server configuration (`rsmi_cli serve`).
struct ServerOptions {
  /// Index file to serve (any SaveIndex output; the embedded kind spec
  /// decides what gets built).
  std::string index_path;
  /// TCP port to listen on; 0 binds an ephemeral port (read it back via
  /// port()).
  uint16_t port = 0;
  /// Fixed worker pool size (clamped to >= 1).
  int threads = 4;
  /// Most point requests coalesced into one PointQueryBatch group.
  size_t max_batch = 16;
  /// Slow-query threshold in microseconds: a request whose queue wait +
  /// execution reaches it lands in the slow-query log (retrievable via
  /// the kStats op). 0 disables the log.
  uint32_t slow_query_us = 0;
};

/// Counters exposed for tests and the smoke probe — a typed view over
/// the server's metrics registry (the same numbers a kStats scrape
/// returns, minus the histograms).
struct ServerStats {
  uint64_t requests_admitted = 0;
  uint64_t responses_sent = 0;
  /// PointQueryBatch groups executed with >= 2 coalesced requests.
  uint64_t coalesced_batches = 0;
  /// Point requests served inside such groups.
  uint64_t coalesced_requests = 0;
  uint64_t deadline_expired = 0;
  uint64_t reloads = 0;
  /// Undecodable payloads and oversized frames answered with an error.
  uint64_t requests_rejected = 0;
  /// kStats scrapes served. Control plane: NOT counted in
  /// requests_admitted, so admitted reconciles exactly with the data
  /// requests a load generator sent.
  uint64_t stats_requests = 0;
  /// Requests recorded into the slow-query log.
  uint64_t slow_queries = 0;
};

/// Long-running concurrent TCP server in front of the execution layer:
/// one acceptor thread, one reader thread per connection, and a fixed
/// worker pool draining a shared admission queue.
///
/// Every accepted socket sets `TCP_NODELAY` and every response frame is
/// one gathered write, so a reply is on the wire as one segment as soon
/// as it is encoded (no Nagle/delayed-ACK stall between the length
/// prefix and the payload).
///
/// The admission path is the point of the design. Independent in-flight
/// point requests — across connections — are coalesced into one
/// PointQueryBatch group per worker grab, so unrelated clients feed the
/// vectorized level-synchronous descent of learned indices, and the
/// batch's per-op contexts keep every Response's
/// QueryContext counters exactly what a standalone query would have
/// charged. Window/kNN/write requests are dispatched individually.
///
/// Requests carry an admission deadline (Request::deadline_us): the
/// budget starts when the frame is read off the wire, and a request
/// still queued past it is answered kDeadlineExceeded at dequeue
/// instead of occupying a worker.
///
/// `reload` atomically swaps in a freshly LoadIndex-ed snapshot via
/// shared_ptr publish: in-flight requests keep the snapshot they
/// started on (it stays alive until its last reader drops it), requests
/// admitted after the swap see the new one, and no traffic is dropped.
/// Writes (insert/delete) take the snapshot's writer lock, reads its
/// reader lock — the SpatialIndex contract, per snapshot.
///
/// Observability (src/obs/): the server owns a private MetricsRegistry
/// (admission/response counters, queue-wait and execution-time
/// histograms per op kind, coalesced batch sizes) and a bounded
/// slow-query log; the kStats op snapshots the private registry merged
/// with the process-global one (shard merges, engine counters) and
/// returns it over the wire. A request with Request::trace set comes
/// back with timestamped spans (admission -> queue -> [batch-group ->]
/// descent -> reply) in Response::trace. Instrumentation never changes
/// results or QueryContext counters.
class SpatialServer {
 public:
  /// Loads the index, binds, and starts serving. nullptr with a
  /// diagnostic in `*error` on any failure.
  static std::unique_ptr<SpatialServer> Start(const ServerOptions& opts,
                                              std::string* error = nullptr);

  /// Graceful shutdown: stop accepting, unblock connection readers,
  /// answer everything already admitted, then join all threads.
  /// Idempotent; the destructor calls it.
  void Stop();

  ~SpatialServer();

  SpatialServer(const SpatialServer&) = delete;
  SpatialServer& operator=(const SpatialServer&) = delete;

  /// Actual bound port (after an ephemeral bind).
  uint16_t port() const { return port_; }
  int threads() const { return static_cast<int>(workers_.size()); }

  ServerStats stats() const;

  /// The kStats payload: this server's registry merged with the
  /// process-global one. Also handy for in-process tests.
  MetricsSnapshot Metrics() const;

  /// Newest slow-query-log entries (all of them with max == SIZE_MAX).
  std::vector<SlowQueryEntry> SlowQueries(size_t max) const {
    return slow_log_.Latest(max);
  }

 private:
  /// One published index version. Readers hold the shared_ptr (keeping
  /// a reloaded-away snapshot alive until they finish) and its reader
  /// lock; insert/delete take the writer lock.
  struct Snapshot {
    std::unique_ptr<SpatialIndex> index;
    mutable std::shared_mutex rw;
  };

  /// One client connection. The fd is closed by the destructor, i.e. by
  /// whoever drops the last reference — a queued request keeps its
  /// connection alive until the response went out.
  struct Connection {
    int fd = -1;
    /// Serializes response frames (workers answer concurrently).
    std::mutex write_mu;
    ~Connection();
  };

  struct Pending {
    Request req;
    std::shared_ptr<Connection> conn;
    /// Admission order across both queues (rough global FIFO).
    uint64_t seq = 0;
    /// When the frame was decoded — the trace origin and the start of
    /// the queue-wait measurement.
    std::chrono::steady_clock::time_point admit_tp;
    /// Traced requests: offset (us since admit_tp) at which admission
    /// handling ended (the enqueue), closing the "admission" span.
    uint64_t admit_end_us = 0;
    /// Deadline in steady time; only meaningful when has_deadline.
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
  };

  /// Per-op-kind histogram pair (queue wait, execution time).
  struct OpTimers {
    Histogram* queue_us = nullptr;
    Histogram* exec_us = nullptr;
  };

  SpatialServer() = default;

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  /// Drops the registry reference once a connection's reader is done, so
  /// the fd closes (and the client sees EOF) as soon as the last queued
  /// response for it goes out — not at server shutdown.
  void ForgetConnection(const std::shared_ptr<Connection>& conn);
  void WorkerLoop();

  void Enqueue(Pending p);
  /// Encodes and writes one response frame (one segment on the wire).
  void SendResponse(Connection& conn, const Response& resp);
  /// Executes one non-point request (window/kNN/write/reload/stats).
  void ExecuteSingle(const Pending& p);
  /// Executes a coalesced group of point requests in one
  /// per-op-attributed PointQueryBatch call.
  void ExecutePointGroup(const std::vector<Pending>& group);
  Response DoReload(const Request& req);
  Response DoStats(const Request& req);

  /// Queue/exec histograms for a request type (writes share one pair).
  const OpTimers& TimersFor(Request::Type type) const;
  /// Observes queue/exec timings, records the slow-query log entry when
  /// the threshold is crossed, and (traced requests) appends the
  /// queue/descent/reply spans to `resp`. `group_us`: offset at which a
  /// coalesced group finished assembling, 0 for singles.
  void FinishRequest(const Pending& p, uint64_t queue_us, uint64_t group_us,
                     uint64_t exec_end_us, Response* resp);

  std::shared_ptr<Snapshot> CurrentSnapshot() const;

  std::string default_path_;
  uint16_t port_ = 0;
  size_t max_batch_ = 16;
  uint32_t slow_query_us_ = 0;
  int listen_fd_ = -1;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<Snapshot> snapshot_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> point_queue_;
  std::deque<Pending> other_queue_;
  uint64_t next_seq_ = 0;
  bool workers_stop_ = false;

  std::atomic<bool> stopping_{false};
  std::once_flag stop_once_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> readers_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  /// Private registry: server.* metrics live here so concurrent servers
  /// in one process (tests) do not bleed counts into each other. The
  /// raw pointers below are resolved once in Start() — recording is one
  /// relaxed fetch_add, no name lookups on the hot path.
  MetricsRegistry registry_;
  Counter* admitted_ = nullptr;
  Counter* rejected_ = nullptr;
  Counter* responses_ = nullptr;
  Counter* coalesced_batches_ = nullptr;
  Counter* coalesced_requests_ = nullptr;
  Counter* deadline_expired_ = nullptr;
  Counter* reloads_ = nullptr;
  Counter* stats_requests_ = nullptr;
  Counter* slow_queries_ = nullptr;
  Histogram* batch_size_ = nullptr;
  OpTimers op_timers_[4];  ///< point / window / knn / everything else

  SlowQueryLog slow_log_{128};
};

}  // namespace rsmi

#endif  // RSMI_SERVER_SPATIAL_SERVER_H_
