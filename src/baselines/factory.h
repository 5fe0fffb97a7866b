#ifndef RSMI_BASELINES_FACTORY_H_
#define RSMI_BASELINES_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/forwarding_index.h"
#include "core/rsmi_index.h"
#include "core/spatial_index.h"

namespace rsmi {

/// The indices compared in the paper's evaluation (Section 6.1), in the
/// paper's legend order, plus RSMIa (the exact-query RSMI variant added
/// in Section 6.2.3).
enum class IndexKind {
  kGrid,
  kHrr,
  kKdb,
  kRstar,
  kRsmi,
  kRsmia,
  kZm,
};

/// All kinds, legend order.
const std::vector<IndexKind>& AllIndexKinds();

std::string IndexKindName(IndexKind kind);

/// True for the learned indices whose window/kNN answers are approximate
/// (RSMI and ZM); Grid/HRR/KDB/RR* and RSMIa are exact.
bool HasApproximateQueries(IndexKind kind);

/// Shared build parameters. The defaults reproduce the paper's setup
/// (B=100, N=10000); tests and laptop-scale benches shrink them.
struct IndexBuildConfig {
  int block_capacity = 100;
  int partition_threshold = 10000;
  MlpTrainConfig train;
  int internal_sample_cap = 8192;
  uint64_t seed = 42;
  /// Worker threads for RSMI leaf training (bit-identical results at any
  /// count; see RsmiConfig::build_threads). Ignored by the other indices.
  int build_threads = 1;
  /// Worker threads for ShardedIndex intra-query window/kNN fan-out
  /// (1 = sequential; results identical at any count, see
  /// ShardedIndexConfig::query_threads). Ignored by unsharded indices.
  int query_threads = 1;
};

/// Builds an index of the requested kind over `pts`. kRsmi returns the
/// RsmiIndex itself; kRsmia builds a fresh RSMI and wraps it. When
/// benchmarking RSMI and RSMIa together, build one RsmiIndex, query it
/// directly as RSMI, and use MakeRsmiaView to share it as RSMIa.
std::unique_ptr<SpatialIndex> MakeIndex(IndexKind kind,
                                        const std::vector<Point>& pts,
                                        const IndexBuildConfig& cfg);

/// Parses a kind name ("grid", "hrr", "kdb", "rstar"/"rr*", "rsmi",
/// "rsmia", "zm"; case-insensitive). Returns false on unknown names.
bool ParseIndexKind(const std::string& name, IndexKind* out);

/// Builds an index from a spec string: either a kind name (see
/// ParseIndexKind) or "sharded<K>:<inner-spec>" for a ShardedIndex over
/// K space partitions whose inner indices come from the inner spec —
/// recursively, so "sharded<4>:rsmi", "sharded<8>:zm", and even
/// "sharded<2>:sharded<2>:grid" all work. The sharded build runs on
/// cfg.build_threads workers (the inner builds themselves are then
/// single-threaded so shard parallelism is not oversubscribed).
/// Returns nullptr on a malformed spec. This is how benches and the CLI
/// select sharded variants with zero extra plumbing.
std::unique_ptr<SpatialIndex> MakeIndexFromSpec(const std::string& spec,
                                                const std::vector<Point>& pts,
                                                const IndexBuildConfig& cfg);

/// Load-path dispatch of the persistence API (io/index_container.h):
/// constructs an empty shell of the index kind named by `spec` — the spec
/// embedded in a container header — whose LoadFrom the container reader
/// then fills. Supports every persistable spec: "rsmi", "rsmia", "zm",
/// "grid", "rstar", and "sharded<K>:<inner>" recursively (the sharded
/// shell loads each shard from its own nested container). nullptr on an
/// unknown or non-persistable spec (e.g. "kdb", "hrr").
std::unique_ptr<SpatialIndex> MakeIndexShellForLoad(const std::string& spec);

/// The RsmiIndex behind `index` when it is an RSMI in either packaging —
/// a plain RsmiIndex or an RsmiaView over one; nullptr otherwise. Lets
/// callers reach RSMI-only surface (exact queries, error bounds, RSMIr
/// rebuilds, the prefetch hook) behind the polymorphic API.
RsmiIndex* UnwrapRsmi(SpatialIndex* index);

/// RSMIa (Section 6.2.3): a view over a shared RSMI whose window/kNN
/// queries run the exact MBR-based algorithms; everything else, updates
/// and ValidateStructure included, forwards to the RSMI.
class RsmiaView : public ForwardingIndex {
 public:
  explicit RsmiaView(std::shared_ptr<RsmiIndex> impl)
      : ForwardingIndex(impl.get()), impl_(std::move(impl)) {}

  std::string Name() const override { return "RSMIa"; }
  using ForwardingIndex::KnnQuery;
  using ForwardingIndex::WindowQuery;
  std::vector<Point> WindowQuery(const Rect& w,
                                 QueryContext& ctx) const override {
    return impl_->WindowQueryExact(w, ctx);
  }
  std::vector<Point> KnnQuery(const Point& q, size_t k,
                              QueryContext& ctx) const override {
    return impl_->KnnQueryExact(q, k, ctx);
  }
  IndexStats Stats() const override {
    IndexStats s = impl_->Stats();
    s.name = Name();
    return s;
  }

  /// Persists/loads through the shared RSMI (the payload is exactly an
  /// "rsmi" payload; the "rsmia" spec restores the exact-query wrapper).
  std::string KindSpec() const override { return "rsmia"; }

  RsmiIndex* impl() { return impl_.get(); }

 private:
  std::shared_ptr<RsmiIndex> impl_;
};

std::unique_ptr<SpatialIndex> MakeRsmiaView(std::shared_ptr<RsmiIndex> impl);

}  // namespace rsmi

#endif  // RSMI_BASELINES_FACTORY_H_
