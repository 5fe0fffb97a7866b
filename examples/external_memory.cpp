// External-memory deployment: the paper's storage model (Section 3) keeps
// data points in blocks of capacity B on disk. This example builds an RSMI
// over a synthetic POI set, saves it as an index container, and serves
// window queries straight off the file through xmem::ExternalIndex under
// RSS budgets of different sizes — showing how the logical "# block
// accesses" metric translates into page faults and evictions once only
// part of the file may stay in memory.
//
// Run:  ./external_memory [num_points]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/timer.h"
#include "core/rsmi_index.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "io/index_container.h"
#include "io/mapped_file.h"
#include "xmem/external_index.h"

int main(int argc, char** argv) {
  using namespace rsmi;

  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;
  std::printf("Generating %zu OSM-like points...\n", n);
  const auto data = GenerateDataset(Distribution::kOsm, n, /*seed=*/42);

  RsmiConfig cfg;  // paper defaults: B = 100, N = 10,000
  WallTimer build_timer;
  RsmiIndex index(data, cfg);
  std::printf("Built RSMI in %.2fs: %zu blocks, height %d\n",
              build_timer.ElapsedSeconds(), index.block_store().NumBlocks(),
              index.Stats().height);

  const char* tmp = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/rsmi_example_poi.idx";
  std::string err;
  if (!SaveIndex(index, path, &err)) {
    std::fprintf(stderr, "save failed: %s\n", err.c_str());
    return 1;
  }
  IndexContainerInfo info;
  if (!ReadIndexContainerInfo(path, &info, &err)) {
    std::fprintf(stderr, "cannot read container header: %s\n", err.c_str());
    return 1;
  }
  std::printf("Saved %s (%.2f MiB)\n", path.c_str(),
              info.file_bytes / 1048576.0);

  const auto windows =
      GenerateWindowQueries(data, 200, /*area_fraction=*/0.0001,
                            /*aspect_ratio=*/1.0, /*seed=*/7);

  // Sweep the RSS budget from 1% of the file (nearly every block scan
  // faults) up to 100% (each page faults once). Page-sized chunks stand in
  // for disk blocks; one budget pass after every query keeps residency
  // under the budget at query granularity.
  std::printf("\n%-12s %14s %14s %10s %12s\n", "budget", "blocks/query",
              "faults/query", "evictions", "ms/query");
  for (double fraction : {0.01, 0.10, 0.50, 1.00}) {
    xmem::XmemOptions opts;
    opts.apply_env_overrides = false;
    opts.governor_interval_ms = 0;  // explicit EnforceBudget below
    opts.write_behind = false;
    opts.prefetch = false;  // every fault on demand
    opts.chunk_bytes = MappedFile::PageSize();
    opts.rss_budget_bytes = std::max(
        static_cast<size_t>(fraction * static_cast<double>(info.file_bytes)),
        opts.chunk_bytes);
    auto mapped = xmem::ExternalIndex::Open(path, opts, &err);
    if (mapped == nullptr) {
      std::fprintf(stderr, "open failed: %s\n", err.c_str());
      return 1;
    }
    QueryContext ctx;
    WallTimer timer;
    size_t results = 0;
    for (const Rect& w : windows) {
      results += mapped->WindowQuery(w, ctx).size();
      mapped->EnforceBudget();
    }
    const double ms = timer.ElapsedMicros() / 1000.0 / windows.size();
    std::printf("%10.0f%% %14.2f %14.2f %10llu %12.3f\n", fraction * 100,
                static_cast<double>(ctx.block_accesses) / windows.size(),
                static_cast<double>(mapped->governor().first_touches()) /
                    windows.size(),
                static_cast<unsigned long long>(
                    mapped->governor().evictions()),
                ms);
    (void)results;
  }

  std::printf(
      "\nAnswers and block counts are identical at every budget: eviction\n"
      "only moves bytes (see tests/xmem_test.cc for the parity tests).\n");
  std::remove(path.c_str());
  return 0;
}
