#ifndef RSMI_BENCH_BENCH_UPDATE_COMMON_H_
#define RSMI_BENCH_BENCH_UPDATE_COMMON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"

namespace rsmi {
namespace bench {

/// The update experiments (Section 6.2.5) initialize each index with the
/// default data set and insert 10%..50% n additional points drawn from
/// the same distribution, measuring update and query costs after each
/// batch. Benchmarks for one index kind share this state and are
/// registered in ascending batch order, so each invocation inserts
/// exactly one further 10% batch.
struct UpdateState {
  std::unique_ptr<SpatialIndex> index;
  RsmiIndex* rsmi = nullptr;  ///< set when the index is RSMI-backed
  bool periodic_rebuild = false;  ///< RSMIr (Section 6.2.5)
  std::vector<Point> live;        ///< ground truth of live points
  std::vector<Point> pending;     ///< the full 50% insert stream
  size_t next = 0;
  double batch_us_per_insert = 0.0;
};

/// Pseudo-kinds for the update benches: the six paper indices plus RSMIr
/// (fig. 17) / RSMIa (figs. 18-19).
enum class UpdateKind {
  kGrid,
  kHrr,
  kKdb,
  kRstar,
  kRsmi,
  kRsmia,
  kRsmir,
  kZm,
};

inline std::string UpdateKindName(UpdateKind k) {
  switch (k) {
    case UpdateKind::kGrid:
      return "Grid";
    case UpdateKind::kHrr:
      return "HRR";
    case UpdateKind::kKdb:
      return "KDB";
    case UpdateKind::kRstar:
      return "RR*";
    case UpdateKind::kRsmi:
      return "RSMI";
    case UpdateKind::kRsmia:
      return "RSMIa";
    case UpdateKind::kRsmir:
      return "RSMIr";
    case UpdateKind::kZm:
      return "ZM";
  }
  return "?";
}

inline UpdateState& GetUpdateState(UpdateKind kind, Distribution dist) {
  static std::map<std::pair<UpdateKind, Distribution>, UpdateState> states;
  auto key = std::make_pair(kind, dist);
  auto it = states.find(key);
  if (it != states.end()) return it->second;

  const Scale& sc = GetScale();
  const auto data = GenerateDataset(dist, sc.default_n, kDataSeed);
  UpdateState st;
  st.live = data;
  // Insert stream: same distribution, disjoint seed (Section 6.2.5 inserts
  // follow the data distribution).
  st.pending = GenerateDataset(dist, sc.default_n / 2, kDataSeed + 77);

  const IndexBuildConfig bc = BuildConfig();
  switch (kind) {
    case UpdateKind::kGrid:
      st.index = MakeIndex(IndexKind::kGrid, data, bc);
      break;
    case UpdateKind::kHrr:
      st.index = MakeIndex(IndexKind::kHrr, data, bc);
      break;
    case UpdateKind::kKdb:
      st.index = MakeIndex(IndexKind::kKdb, data, bc);
      break;
    case UpdateKind::kRstar:
      st.index = MakeIndex(IndexKind::kRstar, data, bc);
      break;
    case UpdateKind::kZm:
      st.index = MakeIndex(IndexKind::kZm, data, bc);
      break;
    case UpdateKind::kRsmi:
    case UpdateKind::kRsmia:
    case UpdateKind::kRsmir: {
      RsmiConfig rc;
      rc.block_capacity = bc.block_capacity;
      rc.partition_threshold = bc.partition_threshold;
      rc.train = bc.train;
      rc.internal_sample_cap = bc.internal_sample_cap;
      rc.build_threads = bc.build_threads;
      auto impl = std::make_unique<RsmiIndex>(data, rc);
      st.rsmi = impl.get();
      st.periodic_rebuild = kind == UpdateKind::kRsmir;
      if (kind == UpdateKind::kRsmia) {
        st.index = MakeRsmiaView(std::move(impl));
      } else {
        st.index = std::move(impl);
      }
      break;
    }
  }
  return states.emplace(key, std::move(st)).first->second;
}

/// Inserts batches until `target_pct` of the original size has been added;
/// records the amortized per-insert time of the newest batch (including
/// the RSMIr rebuild, when enabled).
inline void AdvanceInserts(UpdateState* st, int target_pct) {
  const size_t target =
      st->pending.size() * static_cast<size_t>(target_pct) / 50;
  if (st->next >= target) return;
  WallTimer t;
  size_t batch = 0;
  for (; st->next < target; ++st->next) {
    st->index->Insert(st->pending[st->next]);
    st->live.push_back(st->pending[st->next]);
    ++batch;
  }
  if (st->periodic_rebuild && st->rsmi != nullptr) {
    st->rsmi->RebuildOverflowingSubtrees();
  }
  st->batch_us_per_insert = batch == 0 ? 0.0 : t.ElapsedMicros() / batch;
}

}  // namespace bench
}  // namespace rsmi

#endif  // RSMI_BENCH_BENCH_UPDATE_COMMON_H_
