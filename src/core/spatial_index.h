#ifndef RSMI_CORE_SPATIAL_INDEX_H_
#define RSMI_CORE_SPATIAL_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/query_context.h"
#include "core/update.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "storage/block_store.h"

namespace rsmi {

class Serializer;    // io/serializer.h
class Deserializer;  // io/serializer.h

/// Structural statistics reported by every index (used by Table 3 and the
/// index-size / construction-time figures).
struct IndexStats {
  std::string name;
  size_t num_points = 0;
  /// Index footprint: data blocks + directory/tree nodes + learned models.
  size_t size_bytes = 0;
  /// Number of model/tree levels above the data-block level.
  int height = 0;
  /// Learned indices: number of sub-models.
  size_t num_models = 0;
  /// Learned indices: average number of sub-models invoked per lookup so
  /// far ("average depth", Section 6.2.2); 0 when not applicable.
  double avg_query_depth = 0.0;
};

/// Common interface of all indices evaluated in the paper: the learned
/// RSMI and ZM plus the traditional Grid File, K-D-B-tree, HRR, and
/// R*-tree. All of them store their data points in a BlockStore and report
/// block accesses through a per-call QueryContext, mirroring the paper's
/// "# block accesses" metric.
///
/// Thread-safety contract: **reads are always concurrent; writes are
/// concurrent where the kind supports buffering, exclusive otherwise.**
/// The context-taking query methods (PointQuery / WindowQuery / KnnQuery
/// with a QueryContext argument) are side-effect-free on the index — any
/// number of threads may run them simultaneously, each with its own
/// context (src/exec/ builds on this). Mutations go through
/// ApplyUpdates(UpdateBatch, WriteOptions): when
/// SupportsConcurrentUpdates() is true (the sharded index), buffered
/// batches may run from any number of writer threads concurrently with
/// readers — writers append into per-shard delta buffers and publish
/// epoch snapshots, readers never block (see shard/sharded_index.h).
/// Immediate (non-buffered) application, structural maintenance
/// (rebuilds, Save/Load, installing a BlockStore access hook), and every
/// write on a kind without concurrent-update support keep the legacy
/// requirement: exclusive access, no query in flight. The legacy
/// context-free query wrappers are also safe to call concurrently; they
/// fold their costs into a thread-safe aggregate (see below).
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  virtual std::string Name() const = 0;

  /// Returns the stored entry whose position equals `q` exactly, if any.
  /// Costs (block accesses, model invocations) are charged to `ctx`.
  virtual std::optional<PointEntry> PointQuery(const Point& q,
                                               QueryContext& ctx) const = 0;

  /// Returns the points inside the (closed) window `w`. Learned indices
  /// may return approximate answers with no false positives (Section 4.2);
  /// all traditional indices are exact.
  virtual std::vector<Point> WindowQuery(const Rect& w,
                                         QueryContext& ctx) const = 0;

  /// Returns (approximately, for learned indices) the k nearest neighbors
  /// of `q`, ordered by increasing distance.
  virtual std::vector<Point> KnnQuery(const Point& q, size_t k,
                                      QueryContext& ctx) const = 0;

  /// Answers `n` point queries in one call, writing `out[i]` for `qs[i]`.
  /// Results and per-call costs are identical to running PointQuery once
  /// per point; learned indices override this to batch all sub-model
  /// evaluations level by level through the vectorized inference engine
  /// (src/nn/inference_engine.h), which is where their per-query
  /// function-call and cache-miss overhead goes away. The batch query
  /// engine (src/exec/) feeds same-workload point lookups through here.
  virtual void PointQueryBatch(const Point* qs, size_t n, QueryContext& ctx,
                               std::optional<PointEntry>* out) const {
    for (size_t i = 0; i < n; ++i) out[i] = PointQuery(qs[i], ctx);
  }

  /// Per-op-attributed batch: identical results to the shared-context
  /// overload, but query i's costs are charged to `ctxs[i]` — each
  /// element must equal what a standalone PointQuery(qs[i]) would charge
  /// (their sum equals the shared-context batch, which the parity tests
  /// enforce). This is what lets the serving layer coalesce unrelated
  /// clients' point requests into one vectorized batch while every
  /// Response still reports its own exact QueryContext counters
  /// (src/exec/request.h). Learned indices override both overloads from
  /// one implementation; the default loops.
  virtual void PointQueryBatch(const Point* qs, size_t n, QueryContext* ctxs,
                               std::optional<PointEntry>* out) const {
    for (size_t i = 0; i < n; ++i) out[i] = PointQuery(qs[i], ctxs[i]);
  }

  /// Context-free convenience wrappers (compatibility shims).
  ///
  /// \deprecated Prefer the QueryContext overloads: these wrappers exist
  /// so pre-context call sites (the 23 figure benches, the examples)
  /// compile unchanged. Each call runs the query with a throwaway
  /// context, then folds it into the index-wide aggregate that
  /// block_accesses() reports. They stay safe under concurrency, but the
  /// aggregate mixes all threads' costs together — per-query accounting
  /// needs the context overloads.
  std::optional<PointEntry> PointQuery(const Point& q) const {
    QueryContext ctx;
    auto r = PointQuery(q, ctx);
    AggregateQueryContext(ctx);
    return r;
  }
  std::vector<Point> WindowQuery(const Rect& w) const {
    QueryContext ctx;
    auto r = WindowQuery(w, ctx);
    AggregateQueryContext(ctx);
    return r;
  }
  std::vector<Point> KnnQuery(const Point& q, size_t k) const {
    QueryContext ctx;
    auto r = KnnQuery(q, k, ctx);
    AggregateQueryContext(ctx);
    return r;
  }

  // --- Mutations ---
  //
  // The primary mutation surface is the batched ApplyUpdates below; the
  // per-point Insert/Delete are thin shims over a size-1 immediate batch
  // kept for the pre-batch call sites (figure benches, examples, tests).
  // Subclasses implement the protected InsertOne/DeleteOne hooks (and
  // optionally DoApplyUpdates for a smarter batch strategy) — the public
  // entry points are non-virtual by design so options handling and the
  // fence stay uniform across kinds.

  /// Applies the batch's ops in order. Semantics are always equivalent
  /// to applying the ops one by one sequentially; WriteOptions selects
  /// the execution strategy (immediate vs. delta-buffered, optional
  /// flush fence). Buffered application on a kind that supports
  /// concurrent updates may run concurrently with readers and other
  /// writers; everything else requires exclusive access.
  UpdateResult ApplyUpdates(const UpdateBatch& batch,
                            const WriteOptions& opts = WriteOptions{}) {
    UpdateResult r = DoApplyUpdates(batch, opts);
    if (opts.fence) FlushUpdates();
    return r;
  }

  /// Inserts a new point (Section 5): a size-1 immediate batch.
  void Insert(const Point& p) {
    UpdateBatch b;
    b.Insert(p);
    ApplyUpdates(b);
  }

  /// Deletes the point at exactly this position; false if absent.
  /// A size-1 immediate batch.
  bool Delete(const Point& p) {
    UpdateBatch b;
    b.Delete(p);
    return ApplyUpdates(b).delete_misses == 0;
  }

  /// True when buffered ApplyUpdates may run concurrently with readers
  /// and other writers (per-shard delta buffers + epoch publication).
  /// False (the default) keeps the legacy writes-exclusive contract.
  virtual bool SupportsConcurrentUpdates() const { return false; }

  /// Synchronously merges every buffered delta into the base structure:
  /// after it returns (and absent concurrent writers), queries read pure
  /// structure and SaveTo persists no pending ops. No-op on kinds
  /// without buffering.
  virtual void FlushUpdates() {}

  virtual IndexStats Stats() const = 0;

  /// Folds a finished per-query context into the index-wide legacy
  /// counters. Thread-safe. Indices with extra bookkeeping (RSMI's
  /// average query depth) extend this.
  virtual void AggregateQueryContext(const QueryContext& ctx) const {
    block_store().AggregateAccesses(ctx.block_accesses);
  }

  /// Block accesses aggregated from context-free queries since the index
  /// was built.
  ///
  /// \deprecated Compatibility shim over the QueryContext machinery —
  /// see the context-free query wrappers above. Kept for the figure
  /// benches; new code should sum QueryContexts instead. The aggregate
  /// is monotone: the old ResetBlockAccesses() shim is gone (reset-then-
  /// measure cannot attribute costs under concurrency) — measure deltas
  /// of this counter, or better, pass a QueryContext to the query.
  virtual uint64_t block_accesses() const { return block_store().accesses(); }

  /// The store holding this index's data blocks. Lets callers hook the
  /// external-memory layer (xmem::ExternalIndex) into any index uniformly.
  virtual const BlockStore& block_store() const = 0;

  // --- Polymorphic persistence (src/io/index_container.h) ---
  //
  // Persistence is part of the index contract, not a feature of one
  // subclass: `SaveIndex(index, path)` writes any index whose kind
  // implements the three methods below into a self-describing container
  // file, and `LoadIndex(path)` reconstructs whatever kind the file
  // embeds — including recursive `sharded<K>:<inner>` compositions,
  // which persist one nested container per shard. Save/Load require
  // exclusive access (they are writes under the thread-safety contract).

  /// Stable, factory-parseable spec string of this concrete index kind
  /// ("rsmi", "zm", "grid", "rstar", "sharded<4>:rsmi", ...) — the
  /// dispatch key embedded in the container header. Empty means the kind
  /// does not support persistence (SaveIndex will refuse it).
  virtual std::string KindSpec() const { return ""; }

  /// Serializes the complete index state (models, blocks, configuration)
  /// into `out` so LoadFrom restores a bit-identical index: same query
  /// results, same counted costs, still updatable. Returns false when the
  /// kind does not support persistence.
  virtual bool SaveTo(Serializer& out) const {
    (void)out;
    return false;
  }

  /// Restores the state written by SaveTo into this (shell) instance.
  /// Only the factory's load path calls this, on a shell constructed for
  /// the embedded kind spec; a false return (or a failed read recorded in
  /// `in`) aborts the load — no partially-loaded index escapes.
  virtual bool LoadFrom(Deserializer& in) {
    (void)in;
    return false;
  }

  /// Deep structural self-check (tree/region/chain invariants), for tests
  /// and post-corruption diagnostics. Returns true when every invariant
  /// holds; otherwise false with a description in `*error` (if non-null).
  /// O(index size) — not for hot paths. The base implementation accepts
  /// everything; indices override with their specific invariants.
  virtual bool ValidateStructure(std::string* error) const {
    (void)error;
    return true;
  }

 protected:
  /// Structural single-point insert — what the pre-batch virtual Insert
  /// used to be. Exclusive access required.
  virtual void InsertOne(const Point& p) = 0;

  /// Structural single-point delete; false when the position is absent.
  /// Exclusive access required.
  virtual bool DeleteOne(const Point& p) = 0;

  /// Batch application strategy. The default ignores WriteOptions::
  /// buffered (there is no buffer to use) and applies the ops one by one
  /// through InsertOne/DeleteOne; kinds with a delta layer override this
  /// to buffer and to trigger merges.
  virtual UpdateResult DoApplyUpdates(const UpdateBatch& batch,
                                      const WriteOptions& opts) {
    (void)opts;
    UpdateResult r;
    for (const UpdateOp& op : batch.ops) {
      if (op.kind == UpdateOp::Kind::kInsert) {
        InsertOne(op.pt);
        ++r.applied_inserts;
      } else if (DeleteOne(op.pt)) {
        ++r.applied_deletes;
      } else {
        ++r.delete_misses;
      }
    }
    return r;
  }
};

}  // namespace rsmi

#endif  // RSMI_CORE_SPATIAL_INDEX_H_
