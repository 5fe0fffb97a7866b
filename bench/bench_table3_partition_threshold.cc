// Table 3: impact of the RSMI partition threshold N — construction time,
// height, index size, point-query block accesses, average depth
// (sub-models invoked per descent) and time.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace rsmi {
namespace bench {
namespace {

void ThresholdBench(benchmark::State& state, int threshold) {
  Context& ctx = Context::Get();
  const Scale& sc = GetScale();
  const auto& data = ctx.Dataset(kSweepDistribution, sc.default_n);

  RsmiConfig cfg;
  const IndexBuildConfig bc = BuildConfig();
  cfg.block_capacity = bc.block_capacity;
  cfg.train = bc.train;
  cfg.internal_sample_cap = bc.internal_sample_cap;
  cfg.partition_threshold = threshold;

  WallTimer build_timer;
  RsmiIndex index(data, cfg);
  const double build_s = build_timer.ElapsedSeconds();

  const auto queries = GenerateQueryPoints(
      data, std::min(sc.point_queries, data.size()), kQuerySeed);
  QueryMetrics m;
  for (auto _ : state) {
    m = RunPointQueries(&index, queries);
  }
  const IndexStats s = index.Stats();
  state.counters["build_s"] = build_s;
  state.counters["height"] = s.height;
  state.counters["size_MB"] = static_cast<double>(s.size_bytes) / 1048576.0;
  state.counters["blocks_per_query"] = m.blocks_per_query;
  state.counters["depth"] = m.depth_per_query;
  state.counters["us_per_query"] = m.time_us_per_query;
}

}  // namespace
}  // namespace bench
}  // namespace rsmi

int main(int argc, char** argv) {
  using namespace rsmi;
  using namespace rsmi::bench;
  for (int threshold : {2500, 5000, 10000, 20000, 40000}) {
    RegisterNamed(
        BenchName("Table3", "ImpactOfN", "N" + std::to_string(threshold),
                  "RSMI"),
        [threshold](benchmark::State& s) { ThresholdBench(s, threshold); })
        ->Iterations(1)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
