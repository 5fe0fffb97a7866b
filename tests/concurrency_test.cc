// Concurrent-read correctness: the SpatialIndex thread-safety contract
// says any number of threads may run the context-taking queries at once.
// These tests hammer every index kind from 8 threads with a mixed
// point/window/kNN workload and require bit-identical answers to a
// single-threaded replay — under TSan (cmake --preset tsan) they are also
// the data-race proof for the QueryContext read path.
#include "exec/batch_query_engine.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/factory.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "io/index_container.h"
#include "io/mapped_file.h"
#include "xmem/external_index.h"

namespace rsmi {
namespace {

constexpr int kThreads = 8;
constexpr size_t kPoints = 3000;
constexpr size_t kOps = 600;

IndexBuildConfig TestConfig() {
  IndexBuildConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 40;
  cfg.train.batch_size = 128;
  cfg.internal_sample_cap = 2048;
  return cfg;
}

std::vector<Request> TestWorkload(const std::vector<Point>& data) {
  WorkloadMix mix;
  mix.point_frac = 0.5;
  mix.window_frac = 0.3;
  mix.window_area = 0.001;
  mix.k = 10;
  return BuildMixedWorkload(data, kOps, mix, /*seed=*/77);
}

/// Order-independent fingerprint of one query's result set: the result
/// cardinality plus the folded coordinate bits (window results may come
/// back in any traversal order, but the set must match).
uint64_t Fingerprint(uint64_t count, const std::vector<Point>& pts) {
  uint64_t h = count * 0x9e3779b97f4a7c15ULL;
  for (const Point& p : pts) {
    uint64_t bx = 0;
    uint64_t by = 0;
    std::memcpy(&bx, &p.x, sizeof(bx));
    std::memcpy(&by, &p.y, sizeof(by));
    h ^= bx * 0x100000001b3ULL + by;
  }
  return h;
}

/// Replays the whole workload, returning one fingerprint per operation.
std::vector<uint64_t> Replay(const SpatialIndex& index,
                             const std::vector<Request>& reqs,
                             QueryContext* total) {
  std::vector<uint64_t> prints(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Response resp = ExecuteReadRequest(index, reqs[i]);
    if (resp.hit.has_value()) {
      prints[i] = Fingerprint(1, {resp.hit->pt});
    } else {
      prints[i] = Fingerprint(resp.points.size(), resp.points);
    }
    if (total != nullptr) total->MergeFrom(resp.cost);
  }
  return prints;
}

class ConcurrencyTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(ConcurrencyTest, EightThreadsMatchSingleThreadedGroundTruth) {
  const auto data = GenerateDataset(Distribution::kSkewed, kPoints, 42);
  const auto index = MakeIndex(GetParam(), data, TestConfig());
  const auto ops = TestWorkload(data);

  QueryContext truth_cost;
  const std::vector<uint64_t> truth = Replay(*index, ops, &truth_cost);
  EXPECT_GT(truth_cost.block_accesses, 0u);

  // Every thread replays the full workload concurrently; all answers (and
  // per-replay costs — the read path is deterministic) must match.
  std::vector<std::vector<uint64_t>> got(kThreads);
  std::vector<uint64_t> costs(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryContext cost;
      got[static_cast<size_t>(t)] = Replay(*index, ops, &cost);
      costs[static_cast<size_t>(t)] = cost.block_accesses;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], truth) << "thread " << t;
    EXPECT_EQ(costs[static_cast<size_t>(t)], truth_cost.block_accesses)
        << "thread " << t;
  }
}

TEST_P(ConcurrencyTest, BatchedPointPathMatchesScalarUnderEightThreads) {
  // The batched point path (level-synchronous descent + vectorized
  // inference, src/nn/inference_engine.h) is read-only like the scalar
  // one: 8 threads batching the same lookups must reproduce the scalar
  // single-threaded answers and per-replay costs exactly.
  const auto data = GenerateDataset(Distribution::kSkewed, kPoints, 42);
  const auto index = MakeIndex(GetParam(), data, TestConfig());

  std::vector<Point> qs;
  for (size_t i = 0; i < data.size(); i += 4) qs.push_back(data[i]);
  for (size_t i = 2; i < data.size(); i += 16) {
    qs.push_back(Point{data[i].x + 1e-3, data[i].y - 1e-3});
  }

  QueryContext truth_cost;
  std::vector<int64_t> truth(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    const auto hit = index->PointQuery(qs[i], truth_cost);
    truth[i] = hit.has_value() ? hit->id : -1;
  }

  std::vector<std::vector<int64_t>> got(kThreads);
  std::vector<QueryContext> costs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::optional<PointEntry>> hits(qs.size());
      index->PointQueryBatch(qs.data(), qs.size(),
                             costs[static_cast<size_t>(t)], hits.data());
      auto& ids = got[static_cast<size_t>(t)];
      ids.resize(qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        ids[i] = hits[i].has_value() ? hits[i]->id : -1;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], truth) << "thread " << t;
    EXPECT_EQ(costs[static_cast<size_t>(t)].block_accesses,
              truth_cost.block_accesses)
        << "thread " << t;
    EXPECT_EQ(costs[static_cast<size_t>(t)].model_invocations,
              truth_cost.model_invocations)
        << "thread " << t;
  }
}

TEST_P(ConcurrencyTest, LegacyAggregateSumsAllThreads) {
  const auto data = GenerateDataset(Distribution::kUniform, 1500, 7);
  const auto index = MakeIndex(GetParam(), data, TestConfig());

  // The context-free wrappers stay safe under concurrency: the aggregate
  // ends up with exactly the sum of every thread's deterministic costs.
  QueryContext single;
  for (size_t i = 0; i < 64; ++i) index->PointQuery(data[i * 7], single);

  const uint64_t before = index->block_accesses();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < 64; ++i) index->PointQuery(data[i * 7]);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(index->block_accesses() - before,
            kThreads * single.block_accesses);
}

std::string KindName(const ::testing::TestParamInfo<IndexKind>& info) {
  std::string out;
  for (char c : IndexKindName(info.param)) {
    if (c != '*') out.push_back(c);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllIndices, ConcurrencyTest,
                         ::testing::ValuesIn(AllIndexKinds()), KindName);

TEST(ConcurrencyTest, ShardedIndexEightThreadFanOutMatchesGroundTruth) {
  // The sharded fan-out read path (route + per-shard batch + window/kNN
  // merge over the shared result heap) must stay side-effect-free like
  // every other index: 8 threads replaying the mixed workload against a
  // sharded RSMI — built in parallel — reproduce the single-threaded
  // answers and per-replay costs exactly. Under TSan this is the
  // data-race proof for src/shard/.
  const auto data = GenerateDataset(Distribution::kSkewed, kPoints, 42);
  IndexBuildConfig cfg = TestConfig();
  cfg.build_threads = 4;  // parallel shard build runs under TSan too
  const auto index = MakeIndexFromSpec("sharded<4>:rsmi", data, cfg);
  ASSERT_NE(index, nullptr);
  const auto ops = TestWorkload(data);

  QueryContext truth_cost;
  const std::vector<uint64_t> truth = Replay(*index, ops, &truth_cost);
  EXPECT_GT(truth_cost.block_accesses, 0u);

  std::vector<std::vector<uint64_t>> got(kThreads);
  std::vector<uint64_t> costs(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryContext cost;
      got[static_cast<size_t>(t)] = Replay(*index, ops, &cost);
      costs[static_cast<size_t>(t)] = cost.block_accesses;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], truth) << "thread " << t;
    EXPECT_EQ(costs[static_cast<size_t>(t)], truth_cost.block_accesses)
        << "thread " << t;
  }

  // The engine path batches the drained point ops per shard; totals must
  // match the same single-threaded replay.
  BatchQueryEngine engine(kThreads);
  const BatchQueryStats st = engine.Run(*index, ops);
  EXPECT_EQ(st.cost.block_accesses, truth_cost.block_accesses);
}

TEST(ConcurrencyTest, ExternalMemoryHookIsThreadSafe) {
  // Every counted block access of a mapped index runs the BlockStore
  // access hook, which marks the residency clock's reference bits while
  // the governor's background thread evicts chunks under a one-page
  // budget — so readers keep refaulting pages the clock just dropped.
  // The TSan run of this test is the proof that hook and clock are
  // race-free; the replays prove eviction never changes an answer.
  const auto data = GenerateDataset(Distribution::kUniform, 1500, 13);
  const auto built = MakeIndex(IndexKind::kGrid, data, TestConfig());
  const std::string path = ::testing::TempDir() + "/concurrency_hook.idx";
  std::string err;
  ASSERT_TRUE(SaveIndex(*built, path, &err)) << err;
  const auto eager = LoadIndex(path, &err);
  ASSERT_NE(eager, nullptr) << err;

  xmem::XmemOptions opts;
  opts.apply_env_overrides = false;
  opts.write_behind = false;
  opts.chunk_bytes = MappedFile::PageSize();
  opts.rss_budget_bytes = opts.chunk_bytes;
  opts.governor_interval_ms = 1;
  const auto mapped = xmem::ExternalIndex::Open(path, opts, &err);
  ASSERT_NE(mapped, nullptr) << err;

  const auto ops = TestWorkload(data);
  const std::vector<uint64_t> truth = Replay(*eager, ops, nullptr);

  // Readers keep replaying until the clock has evicted at least once, so
  // the race window is exercised however the scheduler interleaves.
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      int rounds = 0;
      do {
        if (Replay(*mapped, ops, nullptr) != truth) {
          ++mismatches[static_cast<size_t>(t)];
        }
      } while (mapped->governor().evictions() == 0 && ++rounds < 50);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_GT(mapped->governor().evictions(), 0u);
  std::remove(path.c_str());
}

TEST(BatchQueryEngineTest, MatchesSingleThreadedTotals) {
  const auto data = GenerateDataset(Distribution::kSkewed, kPoints, 42);
  const auto index = MakeIndex(IndexKind::kKdb, data, TestConfig());
  const auto ops = TestWorkload(data);

  QueryContext truth_cost;
  uint64_t truth_results = 0;
  {
    QueryContext ctx;
    for (const Request& req : ops) {
      const Response resp = ExecuteReadRequest(*index, req);
      truth_results += resp.ResultCount();
      ctx.MergeFrom(resp.cost);
    }
    truth_cost = ctx;
  }

  BatchQueryEngine engine(kThreads);
  EXPECT_EQ(engine.threads(), kThreads);
  const BatchQueryStats st = engine.Run(*index, ops);
  EXPECT_EQ(st.queries, ops.size());
  EXPECT_EQ(st.total_results, truth_results);
  EXPECT_EQ(st.cost.block_accesses, truth_cost.block_accesses);
  EXPECT_GT(st.throughput_qps, 0.0);
  EXPECT_GE(st.p99_us, st.p50_us);
  EXPECT_GE(st.max_us, st.p99_us);

  // The pool is reusable: a second batch on the same engine agrees.
  const BatchQueryStats again = engine.Run(*index, ops);
  EXPECT_EQ(again.total_results, truth_results);
  EXPECT_EQ(again.cost.block_accesses, truth_cost.block_accesses);
}

TEST(BatchQueryEngineTest, ThreadCountDoesNotChangeAnswers) {
  const auto data = GenerateDataset(Distribution::kUniform, 2000, 9);
  const auto index = MakeIndex(IndexKind::kGrid, data, TestConfig());
  const auto ops = TestWorkload(data);

  BatchQueryEngine one(1);
  BatchQueryEngine eight(kThreads);
  const BatchQueryStats a = one.Run(*index, ops);
  const BatchQueryStats b = eight.Run(*index, ops);
  EXPECT_EQ(a.total_results, b.total_results);
  EXPECT_EQ(a.cost.block_accesses, b.cost.block_accesses);
  EXPECT_EQ(a.queries, b.queries);
}

TEST(BatchQueryEngineTest, EmptyWorkloadAndClampedThreads) {
  const auto data = GenerateDataset(Distribution::kUniform, 500, 3);
  const auto index = MakeIndex(IndexKind::kGrid, data, TestConfig());
  BatchQueryEngine engine(0);  // clamped to 1
  EXPECT_EQ(engine.threads(), 1);
  const BatchQueryStats st = engine.Run(*index, {});
  EXPECT_EQ(st.queries, 0u);
  EXPECT_EQ(st.total_results, 0u);
  EXPECT_EQ(st.p50_us, 0.0);
}

TEST(BuildMixedWorkloadTest, MixAndDeterminism) {
  const auto data = GenerateDataset(Distribution::kUniform, 1000, 5);
  WorkloadMix mix;
  mix.point_frac = 0.5;
  mix.window_frac = 0.25;
  mix.k = 7;
  const auto a = BuildMixedWorkload(data, 400, mix, 11);
  const auto b = BuildMixedWorkload(data, 400, mix, 11);
  ASSERT_EQ(a.size(), 400u);
  size_t points = 0;
  size_t windows = 0;
  size_t knns = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a[i].type), static_cast<int>(b[i].type));
    // Ids are the post-shuffle positions, so server replays can match
    // responses back to operations.
    EXPECT_EQ(a[i].id, i);
    switch (a[i].type) {
      case Request::Type::kPoint:
        ++points;
        break;
      case Request::Type::kWindow:
        ++windows;
        break;
      case Request::Type::kKnn:
        ++knns;
        EXPECT_EQ(a[i].k, 7u);
        break;
      default:
        FAIL() << "unexpected request type in read workload";
    }
  }
  EXPECT_EQ(points, 200u);
  EXPECT_EQ(windows, 100u);
  EXPECT_EQ(knns, 100u);
}

}  // namespace
}  // namespace rsmi
