// Beyond-RAM ablation (src/xmem/): query latency through the mmap-backed
// lazy container against a dataset whose on-disk footprint is 4x the RSS
// budget, cold (every iteration starts with the payload evicted) so the
// cost of refaulting is what's measured, with the model-predicted
// prefetcher on vs off. Gated only on parity: each cell first checks the
// mmap path answers bit-identically to the eagerly loaded twin and skips
// with an error otherwise; the latency numbers themselves are recorded
// (NOT gated) via check_bench_regression.py --xmem, because cold-fault
// timings on shared CI runners are dominated by the page cache and the
// filesystem.
//
// The WindowBudget cells sweep the budget from 1% of the file to all of
// it for RSMI and HRR (Section 3 storage model / Section 6.1: "it is
// straightforward to place the data blocks in external memory"). They
// report chunk faults and evictions per query next to the paper's
// "# block accesses", the logical cost those physical reads stand for.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "io/index_container.h"
#include "io/mapped_file.h"
#include "xmem/external_index.h"
#include "xmem/mapped_container.h"

namespace rsmi {
namespace bench {
namespace {

std::string TempIndexPath(const std::string& spec) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/bench_xmem_" + spec +
         ".idx";
}

/// One saved container + one eager twin per index spec, shared across
/// all cells of that spec.
struct Fixture {
  std::string path;
  size_t file_bytes = 0;
  std::unique_ptr<SpatialIndex> eager;
  std::vector<Point> probes;
  std::vector<Rect> windows;
};

Fixture BuildFixture(const std::string& spec) {
  Fixture f;
  const size_t n = GetScale().default_n;
  const auto& data = Context::Get().Dataset(Distribution::kUniform, n);
  auto built = MakeIndexFromSpec(spec, data, BuildConfig());
  f.path = TempIndexPath(spec);
  std::string err;
  if (!SaveIndex(*built, f.path, &err)) {
    std::fprintf(stderr, "bench_beyond_ram: SaveIndex failed: %s\n",
                 err.c_str());
    std::exit(1);
  }
  IndexContainerInfo info;
  if (ReadIndexContainerInfo(f.path, &info, &err)) {
    f.file_bytes = info.file_bytes;
  }
  f.eager = LoadIndex(f.path, &err);
  if (f.eager == nullptr) {
    std::fprintf(stderr, "bench_beyond_ram: LoadIndex failed: %s\n",
                 err.c_str());
    std::exit(1);
  }
  for (size_t i = 0; i < data.size(); i += 7) f.probes.push_back(data[i]);
  f.windows = GenerateWindowQueries(data, 50, 0.0001, 1.0, 11);
  return f;
}

std::map<std::string, Fixture>& Fixtures() {
  static std::map<std::string, Fixture> fixtures;
  return fixtures;
}

Fixture& GetFixture(const std::string& spec = "rsmi") {
  auto it = Fixtures().find(spec);
  if (it == Fixtures().end()) {
    it = Fixtures().emplace(spec, BuildFixture(spec)).first;
  }
  return it->second;
}

std::unique_ptr<xmem::ExternalIndex> OpenMapped(bool prefetch,
                                                std::string* err) {
  Fixture& fx = GetFixture();
  xmem::XmemOptions opts;
  opts.apply_env_overrides = false;
  opts.governor_interval_ms = 0;  // enforcement timing stays out of cells
  opts.write_behind = false;
  opts.prefetch = prefetch;
  // The acceptance shape: the dataset does not fit — budget is a quarter
  // of the on-disk footprint (at least one chunk so the clock can turn).
  opts.rss_budget_bytes =
      std::max<size_t>(fx.file_bytes / 4, opts.chunk_bytes);
  return xmem::ExternalIndex::Open(fx.path, opts, err);
}

/// The parity gate: the lazy path must answer exactly like the eager
/// twin before any latency is worth recording.
bool ParityHolds(const Fixture& fx, SpatialIndex* mapped, std::string* why) {
  QueryContext ec;
  QueryContext mc;
  std::vector<std::optional<PointEntry>> ehits(fx.probes.size());
  std::vector<std::optional<PointEntry>> mhits(fx.probes.size());
  fx.eager->PointQueryBatch(fx.probes.data(), fx.probes.size(), ec,
                            ehits.data());
  mapped->PointQueryBatch(fx.probes.data(), fx.probes.size(), mc,
                          mhits.data());
  for (size_t i = 0; i < fx.probes.size(); ++i) {
    const bool same = ehits[i].has_value() == mhits[i].has_value() &&
                      (!ehits[i].has_value() ||
                       (ehits[i]->id == mhits[i]->id &&
                        ehits[i]->pt.x == mhits[i]->pt.x &&
                        ehits[i]->pt.y == mhits[i]->pt.y));
    if (!same) {
      *why = "point parity violation at probe " + std::to_string(i);
      return false;
    }
  }
  for (const Rect& w : fx.windows) {
    const auto ew = fx.eager->WindowQuery(w, ec);
    const auto mw = mapped->WindowQuery(w, mc);
    if (ew.size() != mw.size()) {
      *why = "window parity violation";
      return false;
    }
    for (size_t j = 0; j < ew.size(); ++j) {
      if (ew[j].x != mw[j].x || ew[j].y != mw[j].y) {
        *why = "window parity violation";
        return false;
      }
    }
  }
  if (ec.block_accesses != mc.block_accesses ||
      ec.model_invocations != mc.model_invocations) {
    *why = "counter parity violation";
    return false;
  }
  return true;
}

/// Drops the whole payload from RSS so the next iteration faults cold.
void EvictAll(xmem::ExternalIndex* ext) {
  const MappedFile& map = ext->container().map();
  map.Evict(0, map.size());
}

void ColdPointBench(benchmark::State& state, bool prefetch) {
  Fixture& fx = GetFixture();
  std::string err;
  auto ext = OpenMapped(prefetch, &err);
  if (ext == nullptr) {
    state.SkipWithError(("open failed: " + err).c_str());
    return;
  }
  if (!ParityHolds(fx, ext.get(), &err)) {
    state.SkipWithError(err.c_str());
    return;
  }
  std::vector<std::optional<PointEntry>> hits(fx.probes.size());
  for (auto _ : state) {
    state.PauseTiming();
    ext->DrainPrefetch();
    EvictAll(ext.get());
    state.ResumeTiming();
    QueryContext ctx;
    ext->PointQueryBatch(fx.probes.data(), fx.probes.size(), ctx,
                         hits.data());
    benchmark::DoNotOptimize(hits.data());
  }
  ext->DrainPrefetch();
  state.counters["file_mb"] = fx.file_bytes / 1048576.0;
  state.counters["budget_mb"] =
      ext->governor().budget_bytes() / 1048576.0;
  state.counters["queries"] = static_cast<double>(fx.probes.size());
  state.counters["faults"] =
      static_cast<double>(ext->governor().first_touches());
  state.counters["prefetch_hits"] =
      static_cast<double>(ext->governor().prefetch_hits());
}

void ColdWindowBench(benchmark::State& state, bool prefetch) {
  Fixture& fx = GetFixture();
  std::string err;
  auto ext = OpenMapped(prefetch, &err);
  if (ext == nullptr) {
    state.SkipWithError(("open failed: " + err).c_str());
    return;
  }
  if (!ParityHolds(fx, ext.get(), &err)) {
    state.SkipWithError(err.c_str());
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    ext->DrainPrefetch();
    EvictAll(ext.get());
    state.ResumeTiming();
    QueryContext ctx;
    size_t total = 0;
    for (const Rect& w : fx.windows) total += ext->WindowQuery(w, ctx).size();
    benchmark::DoNotOptimize(total);
  }
  state.counters["file_mb"] = fx.file_bytes / 1048576.0;
  state.counters["queries"] = static_cast<double>(fx.windows.size());
}

/// The budget sweep: window queries against a mapping whose RSS budget
/// is `fraction` of the file, one enforcement pass after every query so
/// the budget binds at query granularity (the pass is part of the timed
/// cost, as an in-line buffer-pool eviction would be). Page-sized chunks
/// stand in for disk blocks: a fault is a cold chunk touched, an
/// eviction a chunk dropped by the clock. Prefetch is off so every fault
/// is on demand.
void WindowBudgetBench(benchmark::State& state, const std::string& spec,
                       double fraction) {
  Fixture& fx = GetFixture(spec);
  xmem::XmemOptions opts;
  opts.apply_env_overrides = false;
  opts.governor_interval_ms = 0;
  opts.write_behind = false;
  opts.prefetch = false;
  opts.chunk_bytes = MappedFile::PageSize();
  opts.rss_budget_bytes = std::max(
      static_cast<size_t>(fraction * static_cast<double>(fx.file_bytes)),
      opts.chunk_bytes);
  std::string err;
  {
    // Parity on its own mapping, so the measured one starts cold.
    auto probe = xmem::ExternalIndex::Open(fx.path, opts, &err);
    if (probe == nullptr) {
      state.SkipWithError(("open failed: " + err).c_str());
      return;
    }
    if (!ParityHolds(fx, probe.get(), &err)) {
      state.SkipWithError(err.c_str());
      return;
    }
  }
  auto ext = xmem::ExternalIndex::Open(fx.path, opts, &err);
  if (ext == nullptr) {
    state.SkipWithError(("open failed: " + err).c_str());
    return;
  }
  QueryContext ctx;
  double elapsed_us = 0.0;
  for (auto _ : state) {
    WallTimer timer;
    for (const Rect& w : fx.windows) {
      benchmark::DoNotOptimize(ext->WindowQuery(w, ctx));
      ext->EnforceBudget();
    }
    elapsed_us += timer.ElapsedMicros();
  }
  const double queries =
      static_cast<double>(fx.windows.size() * state.iterations());
  state.counters["win_ms"] = elapsed_us / 1000.0 / queries;
  state.counters["blocks_per_query"] =
      static_cast<double>(ctx.block_accesses) / queries;
  state.counters["faults_per_query"] =
      static_cast<double>(ext->governor().first_touches()) / queries;
  state.counters["evictions"] =
      static_cast<double>(ext->governor().evictions());
}

}  // namespace
}  // namespace bench
}  // namespace rsmi

int main(int argc, char** argv) {
  using namespace rsmi::bench;
  for (const bool prefetch : {true, false}) {
    const std::string tag = prefetch ? "PrefetchOn" : "PrefetchOff";
    RegisterNamed("BeyondRam/ColdPoint/" + tag,
                  [prefetch](benchmark::State& s) {
                    ColdPointBench(s, prefetch);
                  })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
    RegisterNamed("BeyondRam/ColdWindow/" + tag,
                  [prefetch](benchmark::State& s) {
                    ColdWindowBench(s, prefetch);
                  })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  for (const char* spec : {"rsmi", "hrr"}) {
    for (const double fraction : {0.01, 0.05, 0.25, 1.0}) {
      RegisterNamed(
          BenchName("BeyondRam", "WindowBudget", spec,
                    "budget" +
                        std::to_string(static_cast<int>(fraction * 100)) +
                        "pct"),
          [spec, fraction](benchmark::State& s) {
            WindowBudgetBench(s, spec, fraction);
          })
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  for (const auto& entry : Fixtures()) std::remove(entry.second.path.c_str());
  return 0;
}
