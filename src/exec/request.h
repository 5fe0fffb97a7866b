#ifndef RSMI_EXEC_REQUEST_H_
#define RSMI_EXEC_REQUEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/query_context.h"
#include "core/spatial_index.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"

namespace rsmi {

/// The one request shape of the execution layer: the batch engine replays
/// vectors of these, the server decodes them off the wire (src/server/
/// wire.h), and the CLI builds them from flags — a serialized request and
/// an in-process request are the same type, so a workload recorded on one
/// side replays bit-identically on the other.
struct Request {
  enum class Type : uint8_t {
    kPoint = 0,   ///< exact-position lookup of `pt`
    kWindow = 1,  ///< all points inside `window`
    kKnn = 2,     ///< `k` nearest neighbors of `pt`
    kInsert = 3,  ///< insert `pt` (write; exclusive access)
    kDelete = 4,  ///< delete the point at exactly `pt` (write)
    kReload = 5,  ///< server only: atomically swap in a freshly loaded
                  ///< index snapshot (from `path`, or the serving default)
    kUpdateBatch = 6,  ///< apply `ops` in order under `write_opts` (write)
    kStats = 7,  ///< server only: snapshot the metrics registries and the
                 ///< slow-query log (`k` bounds the returned log entries)
  };
  Type type = Type::kPoint;
  /// Caller-chosen correlation id, echoed verbatim in the Response. The
  /// server may answer one connection's requests out of order (point
  /// requests are coalesced across clients), so responses match up by id,
  /// not by position.
  uint64_t id = 0;
  /// Admission deadline budget in microseconds; 0 means no deadline. The
  /// clock starts when the request is admitted (read off the wire); a
  /// request still queued when the budget runs out is answered with
  /// kDeadlineExceeded instead of occupying a worker.
  uint32_t deadline_us = 0;
  /// Query/write location (point, kNN, insert, delete).
  Point pt{0.0, 0.0};
  /// Query window (window requests only).
  Rect window = Rect::Empty();
  /// Neighbor count (kNN requests only).
  uint32_t k = 0;
  /// kReload only: index file to load; empty means the file the server
  /// was started with.
  std::string path;
  /// kUpdateBatch only: the ops, applied in order.
  std::vector<UpdateOp> ops;
  /// Write execution options (kUpdateBatch, kInsert, kDelete). Buffered
  /// writes run concurrently with reads on indices that support it; the
  /// server falls back to exclusive application on those that don't.
  WriteOptions write_opts;
  /// Opt-in per-request tracing: the server records timestamped spans
  /// (admission -> queue -> batch-group -> descent -> reply) and returns
  /// them in Response::trace. Off by default — the untraced path records
  /// no spans and takes no extra timestamps per span.
  bool trace = false;

  static Request PointLookup(const Point& p, uint64_t id = 0) {
    Request r;
    r.type = Type::kPoint;
    r.pt = p;
    r.id = id;
    return r;
  }
  static Request WindowLookup(const Rect& w, uint64_t id = 0) {
    Request r;
    r.type = Type::kWindow;
    r.window = w;
    r.id = id;
    return r;
  }
  static Request KnnLookup(const Point& p, uint32_t k, uint64_t id = 0) {
    Request r;
    r.type = Type::kKnn;
    r.pt = p;
    r.k = k;
    r.id = id;
    return r;
  }
  /// The primary mutation request: a whole UpdateBatch in one round trip.
  static Request Updates(UpdateBatch batch,
                         const WriteOptions& opts = WriteOptions{},
                         uint64_t id = 0) {
    Request r;
    r.type = Type::kUpdateBatch;
    r.ops = std::move(batch.ops);
    r.write_opts = opts;
    r.id = id;
    return r;
  }
  /// Control-plane stats scrape: the server answers with a merged
  /// MetricsSnapshot plus up to `max_slow` slow-query-log entries.
  static Request Stats(uint32_t max_slow = 0, uint64_t id = 0) {
    Request r;
    r.type = Type::kStats;
    r.k = max_slow;
    r.id = id;
    return r;
  }
};

/// Response status. Modeled on the usual RPC canonical codes, reduced to
/// what the spatial operations can actually produce.
enum class StatusCode : uint8_t {
  kOk = 0,
  /// Point lookup / delete found no entry at that exact position. Not an
  /// error: the payload is simply empty.
  kNotFound = 1,
  /// The request's deadline expired before a worker picked it up.
  kDeadlineExceeded = 2,
  /// Malformed request (undecodable frame, unknown type, k == 0, ...).
  kInvalidArgument = 3,
  /// The operation is not executable in this context (e.g. a write or
  /// reload replayed through the read-only batch engine).
  kFailedPrecondition = 4,
  /// Server-side failure executing the request (e.g. reload I/O error).
  kInternal = 5,
};

/// Stable lowercase name ("ok", "not_found", ...) for logs and JSON.
const char* StatusCodeName(StatusCode code);

/// Result of one executed Request. Every field is set by the executor;
/// `cost` carries the per-op QueryContext counters, which are identical
/// whether the op ran alone or inside a coalesced PointQueryBatch group
/// (the batch charges query i to its own context).
struct Response {
  /// Echo of Request::id.
  uint64_t id = 0;
  StatusCode status = StatusCode::kOk;
  /// Point lookup hit (kPoint with status kOk).
  std::optional<PointEntry> hit;
  /// Window / kNN results (kNN ordered by increasing distance).
  std::vector<Point> points;
  /// Counters charged by exactly this operation.
  QueryContext cost;
  /// Write outcome (kInsert / kDelete / kUpdateBatch); zeros otherwise.
  UpdateResult update;
  /// Diagnostic for non-OK statuses; empty on success.
  std::string message;
  /// Trace spans of a traced request (Request::trace), in recording
  /// order with monotone offsets; empty otherwise.
  std::vector<TraceSpan> trace;
  /// kStats only: the server's merged metrics snapshot.
  std::optional<MetricsSnapshot> stats;
  /// kStats only: newest slow-query-log entries (bounded by Request::k).
  std::vector<SlowQueryEntry> slow;

  bool ok() const { return status == StatusCode::kOk; }
  /// Result cardinality (1 for a point hit, result count for window/kNN,
  /// 0 otherwise) — what the engine folds into BatchQueryStats.
  uint64_t ResultCount() const {
    return (hit.has_value() ? 1 : 0) + points.size();
  }
};

/// Executes one read request (point / window / kNN) against `index`,
/// charging the per-op costs to the response. Write and reload requests
/// come back kFailedPrecondition: this entry point is the read-only
/// replay path (the batch engine, ground-truth tests). Thread-safe under
/// the SpatialIndex contract — any number of callers may run it at once.
Response ExecuteReadRequest(const SpatialIndex& index, const Request& req);

/// Executes any data request, including writes. All three write types
/// (kInsert / kDelete / kUpdateBatch) go through ApplyUpdates under the
/// request's WriteOptions: buffered writes may run concurrently with
/// readers when the index supports it (SupportsConcurrentUpdates());
/// everything else requires exclusive access per the SpatialIndex
/// thread-safety contract — the server picks the lock accordingly.
/// kReload still fails (snapshot swaps are the server's job).
Response ExecuteRequest(SpatialIndex& index, const Request& req);

}  // namespace rsmi

#endif  // RSMI_EXEC_REQUEST_H_
