// ValidateStructure: the deep invariant checkers must accept every index
// the library builds — across distributions, after insert/delete storms,
// after rebuilds and buffer merges, and after save/load — and reject a
// deliberately corrupted structure.
#include <memory>
#include <string>

#include "baselines/factory.h"
#include "baselines/kdb_tree.h"
#include "baselines/rstar_tree.h"
#include "baselines/zm_index.h"
#include "common/rng.h"
#include "core/rsmi_index.h"
#include "data/generators.h"
#include "shard/sharded_index.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

IndexBuildConfig SmallConfig() {
  IndexBuildConfig cfg;
  cfg.block_capacity = 16;
  cfg.partition_threshold = 300;
  cfg.train.epochs = 30;
  return cfg;
}

class ValidateAfterBuildTest
    : public ::testing::TestWithParam<Distribution> {};

TEST_P(ValidateAfterBuildTest, FreshIndexesPassForEveryKind) {
  const auto data = GenerateDataset(GetParam(), 3000, 91);
  for (IndexKind kind : AllIndexKinds()) {
    auto index = MakeIndex(kind, data, SmallConfig());
    std::string error;
    EXPECT_TRUE(index->ValidateStructure(&error))
        << IndexKindName(kind) << ": " << error;
  }
}

TEST_P(ValidateAfterBuildTest, SurvivesAnUpdateStorm) {
  const auto data = GenerateDataset(GetParam(), 2000, 92);
  Rng rng(93);
  for (IndexKind kind : AllIndexKinds()) {
    auto index = MakeIndex(kind, data, SmallConfig());
    for (int i = 0; i < 800; ++i) {
      if (rng.UniformInt(0, 2) == 0 && i > 10) {
        index->Delete(data[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(data.size()) - 1))]);
      } else {
        index->Insert(Point{rng.Uniform(), rng.Uniform()});
      }
    }
    std::string error;
    EXPECT_TRUE(index->ValidateStructure(&error))
        << IndexKindName(kind) << " after update storm: " << error;
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, ValidateAfterBuildTest,
                         ::testing::Values(Distribution::kUniform,
                                           Distribution::kSkewed,
                                           Distribution::kOsm),
                         [](const auto& info) {
                           return DistributionName(info.param);
                         });

TEST(ValidateStructureTest, RsmiAfterRebuildAndBufferMerges) {
  const auto data = GenerateDataset(Distribution::kSkewed, 2500, 94);
  RsmiConfig cfg;
  cfg.block_capacity = 16;
  cfg.partition_threshold = 300;
  cfg.train.epochs = 30;
  cfg.update_strategy = UpdateStrategy::kLeafBuffer;
  RsmiIndex index(data, cfg);
  Rng rng(95);
  for (int i = 0; i < 1500; ++i) {
    index.Insert(Point{rng.Uniform(), rng.Uniform()});
  }
  index.RebuildOverflowingSubtrees();
  std::string error;
  EXPECT_TRUE(index.ValidateStructure(&error)) << error;
}

TEST(ValidateStructureTest, RsmiAfterSaveLoad) {
  const auto data = GenerateDataset(Distribution::kNormal, 2000, 96);
  RsmiConfig cfg;
  cfg.block_capacity = 16;
  cfg.partition_threshold = 300;
  cfg.train.epochs = 30;
  RsmiIndex index(data, cfg);
  const std::string path = ::testing::TempDir() + "/validate.idx";
  ASSERT_TRUE(index.Save(path));
  auto loaded = RsmiIndex::Load(path);
  ASSERT_NE(loaded, nullptr);
  std::string error;
  EXPECT_TRUE(loaded->ValidateStructure(&error)) << error;
}

TEST(ValidateStructureTest, RsmiParallelBuildValidates) {
  const auto data = GenerateDataset(Distribution::kOsm, 3000, 97);
  RsmiConfig cfg;
  cfg.block_capacity = 16;
  cfg.partition_threshold = 300;
  cfg.train.epochs = 30;
  cfg.build_threads = 8;
  RsmiIndex index(data, cfg);
  std::string error;
  EXPECT_TRUE(index.ValidateStructure(&error)) << error;
}

TEST(ValidateStructureTest, NullErrorPointerIsAccepted) {
  const auto data = GenerateDataset(Distribution::kUniform, 500, 98);
  RsmiConfig cfg;
  cfg.block_capacity = 16;
  cfg.partition_threshold = 300;
  cfg.train.epochs = 20;
  RsmiIndex index(data, cfg);
  EXPECT_TRUE(index.ValidateStructure(nullptr));
}

TEST(ValidateStructureTest, GappedAndBufferedVariantsValidate) {
  const auto data = GenerateDataset(Distribution::kTiger, 2000, 99);
  for (double fill : {1.0, 0.7}) {
    for (UpdateStrategy strategy :
         {UpdateStrategy::kOverflowChain, UpdateStrategy::kLeafBuffer}) {
      RsmiConfig cfg;
      cfg.block_capacity = 16;
      cfg.partition_threshold = 300;
      cfg.train.epochs = 25;
      cfg.build_fill_factor = fill;
      cfg.update_strategy = strategy;
      RsmiIndex index(data, cfg);
      Rng rng(100);
      for (int i = 0; i < 300; ++i) {
        index.Insert(Point{rng.Uniform(), rng.Uniform()});
      }
      std::string error;
      EXPECT_TRUE(index.ValidateStructure(&error))
          << "fill=" << fill << " strategy=" << static_cast<int>(strategy)
          << ": " << error;
    }
  }
}

/// Empties the MBR of the first non-empty block in `store`, so at least
/// one stored entry falls outside its block's MBR. False when every
/// block is empty.
bool BreakOneBlockMbr(const BlockStore& store) {
  BlockStore& mut = const_cast<BlockStore&>(store);
  for (size_t id = 0; id < store.NumBlocks(); ++id) {
    if (store.Peek(static_cast<int>(id)).entries.empty()) continue;
    mut.MutableBlock(static_cast<int>(id)).mbr = Rect::Empty();
    return true;
  }
  return false;
}

TEST(ValidateStructureTest, CorruptRsmiIsRejectedBehindEveryPackaging) {
  // The RSMI checker must run whatever wraps the RsmiIndex: the plain
  // factory build, the RSMIa view, and each shard of a sharded RSMI.
  const auto data = GenerateDataset(Distribution::kSkewed, 2000, 101);
  for (const std::string spec : {"rsmi", "rsmia", "sharded<2>:rsmi"}) {
    auto index = MakeIndexFromSpec(spec, data, SmallConfig());
    ASSERT_NE(index, nullptr) << spec;
    std::string error;
    ASSERT_TRUE(index->ValidateStructure(&error)) << spec << ": " << error;
    const auto* sharded = dynamic_cast<const ShardedIndex*>(index.get());
    const BlockStore& store = sharded != nullptr
                                  ? sharded->shard(0).block_store()
                                  : index->block_store();
    ASSERT_TRUE(BreakOneBlockMbr(store)) << spec;
    EXPECT_FALSE(index->ValidateStructure(&error)) << spec;
    EXPECT_NE(error.find("entry outside block MBR"), std::string::npos)
        << spec << ": " << error;
  }
}

}  // namespace
}  // namespace rsmi
