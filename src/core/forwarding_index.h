#ifndef RSMI_CORE_FORWARDING_INDEX_H_
#define RSMI_CORE_FORWARDING_INDEX_H_

#include <optional>
#include <string>
#include <vector>

#include "core/spatial_index.h"

namespace rsmi {

/// A SpatialIndex that answers every virtual by forwarding it to a target
/// index — the base of the wrappers that change a few behaviours of an
/// index and pass the rest through (RSMIa's exact-query view in
/// baselines/factory.h, the beyond-RAM xmem::ExternalIndex). Subclasses
/// override only what they change; everything else, ValidateStructure
/// and the update path included, reaches the target.
///
/// The target is non-owning: the subclass owns it (and decides teardown
/// order) and sets `target_` before the first call. The forwarded
/// calls are one plain pointer hop plus the target's own virtual call —
/// no virtual accessor sits on the query path.
class ForwardingIndex : public SpatialIndex {
 public:
  std::string Name() const override { return target_->Name(); }

  using SpatialIndex::KnnQuery;
  using SpatialIndex::PointQuery;
  using SpatialIndex::PointQueryBatch;
  using SpatialIndex::WindowQuery;
  std::optional<PointEntry> PointQuery(const Point& q,
                                       QueryContext& ctx) const override {
    return target_->PointQuery(q, ctx);
  }
  std::vector<Point> WindowQuery(const Rect& w,
                                 QueryContext& ctx) const override {
    return target_->WindowQuery(w, ctx);
  }
  std::vector<Point> KnnQuery(const Point& q, size_t k,
                              QueryContext& ctx) const override {
    return target_->KnnQuery(q, k, ctx);
  }
  void PointQueryBatch(const Point* qs, size_t n, QueryContext* ctxs,
                       std::optional<PointEntry>* out) const override {
    target_->PointQueryBatch(qs, n, ctxs, out);
  }

  bool SupportsConcurrentUpdates() const override {
    return target_->SupportsConcurrentUpdates();
  }
  void FlushUpdates() override { target_->FlushUpdates(); }
  IndexStats Stats() const override { return target_->Stats(); }
  const BlockStore& block_store() const override {
    return target_->block_store();
  }
  std::string KindSpec() const override { return target_->KindSpec(); }
  bool SaveTo(Serializer& out) const override { return target_->SaveTo(out); }
  bool LoadFrom(Deserializer& in) override { return target_->LoadFrom(in); }
  bool ValidateStructure(std::string* error) const override {
    return target_->ValidateStructure(error);
  }

 protected:
  explicit ForwardingIndex(SpatialIndex* target = nullptr)
      : target_(target) {}

  void InsertOne(const Point& p) override { target_->Insert(p); }
  bool DeleteOne(const Point& p) override { return target_->Delete(p); }
  /// The whole batch goes to the target, so it keeps its own strategy
  /// (immediate, leaf buffers, or sharded concurrent deltas).
  UpdateResult DoApplyUpdates(const UpdateBatch& batch,
                              const WriteOptions& opts) override {
    return target_->ApplyUpdates(batch, opts);
  }

  SpatialIndex* target_;
};

}  // namespace rsmi

#endif  // RSMI_CORE_FORWARDING_INDEX_H_
