#include "xmem/external_index.h"

#include <algorithm>
#include <cstdlib>

#include "core/rsmi_index.h"
#include "io/index_container.h"

namespace rsmi {
namespace xmem {
namespace {

bool SetError(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

bool EnvFlag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return !(v[0] == '0' && v[1] == '\0');
}

void ApplyEnvOverrides(XmemOptions* opts) {
  if (const char* v = std::getenv("RSMI_XMEM_BUDGET_MB")) {
    char* end = nullptr;
    const unsigned long long mb = std::strtoull(v, &end, 10);
    if (end != v && *end == '\0' && mb > 0) {
      opts->rss_budget_bytes = static_cast<size_t>(mb) << 20;
    }
  }
  opts->prefetch = EnvFlag("RSMI_XMEM_PREFETCH", opts->prefetch);
  opts->verify_crc = EnvFlag("RSMI_XMEM_VERIFY_CRC", opts->verify_crc);
  opts->deep_validate =
      EnvFlag("RSMI_XMEM_DEEP_VALIDATE", opts->deep_validate);
}

}  // namespace

std::unique_ptr<ExternalIndex> ExternalIndex::Open(const std::string& path,
                                                   const XmemOptions& opts_in,
                                                   std::string* error) {
  XmemOptions opts = opts_in;
  if (opts.apply_env_overrides) ApplyEnvOverrides(&opts);
  std::unique_ptr<ExternalIndex> x(new ExternalIndex());
  x->opts_ = opts;
  x->container_ = MappedContainer::Open(path, error);
  if (x->container_ == nullptr) return nullptr;
  x->inner_ = x->container_->LoadLazy(opts.verify_crc, error);
  if (x->inner_ == nullptr) return nullptr;
  if (opts.deep_validate) {
    std::string why;
    if (!x->inner_->ValidateStructure(&why)) {
      SetError(error, "mapped index fails structural validation: " + why);
      return nullptr;
    }
  }
  // Replay any write-behind log before hooks go in: recovery mutates the
  // structure (exclusive access), and its updates must land before the
  // first query, exactly as if the logged batches had applied
  // synchronously before the crash.
  if (opts.write_behind) {
    const std::string log = opts.write_behind_log.empty()
                                ? path + ".wbl"
                                : opts.write_behind_log;
    if (!WriteBehindBuffer::Recover(log, x->inner_.get(), nullptr, error)) {
      return nullptr;
    }
    x->wb_ = WriteBehindBuffer::Open(log, error);
    if (x->wb_ == nullptr) return nullptr;
    x->opts_.write_behind_log = log;
  }
  x->InstallHooks();
  return x;
}

ExternalIndex::~ExternalIndex() {
  // Detach the hooks before any member dies: queries are quiescent by the
  // exclusive-teardown contract, and the store must not call into a
  // half-destroyed governor/prefetcher.
  if (inner_ != nullptr) {
    if (auto* rsmi = dynamic_cast<RsmiIndex*>(inner_.get())) {
      rsmi->SetBlockPrefetchHook(nullptr);
    }
    inner_->block_store().SetAccessHook(nullptr);
  }
}

void ExternalIndex::InstallHooks() {
  const MappedFile& map = container_->map();
  const BlockStore& store = inner_->block_store();
  const size_t n = store.NumBlocks();
  block_ranges_.assign(n, BlockRange{});
  size_t first_entry_byte = map.size();
  for (size_t id = 0; id < n; ++id) {
    const Block& b = store.Peek(static_cast<int>(id));
    if (!b.entries.borrowed() || b.entries.empty()) continue;
    const size_t len = b.entries.size() * sizeof(PointEntry);
    if (!map.Contains(b.entries.data(), len)) continue;
    const size_t off = static_cast<size_t>(
        reinterpret_cast<const uint8_t*>(b.entries.data()) - map.data());
    block_ranges_[id].offset = off;
    block_ranges_[id].len = len;
    first_entry_byte = std::min(first_entry_byte, off);
  }
  // Everything before the first borrowed entry byte — container header,
  // models, block metadata runs — is touched by every query and never
  // worth evicting.
  ResidencyGovernor::Options gopts;
  gopts.budget_bytes = opts_.rss_budget_bytes;
  gopts.chunk_bytes = opts_.chunk_bytes;
  gopts.interval_ms = opts_.governor_interval_ms;
  gopts.protected_prefix_bytes =
      first_entry_byte == map.size() ? 0 : first_entry_byte;
  governor_ = std::make_unique<ResidencyGovernor>(&map, gopts);
  // The counted block access doubles as the clock's reference feed: the
  // hook marks the block's entry span referenced, nothing else — contexts
  // are untouched, so counters stay bit-identical to an eager load.
  store.SetAccessHook([this](int id) {
    if (id < 0 || static_cast<size_t>(id) >= block_ranges_.size()) return;
    const BlockRange& r = block_ranges_[static_cast<size_t>(id)];
    if (r.offset != BlockRange::kNone) governor_->MarkRef(r.offset, r.len);
  });
  // Prediction-driven prefetch is wired for a top-level RSMI (the kind
  // whose fused descent publishes leaf-block predictions); other kinds
  // still get lazy loading, the budget, and the write-behind log.
  if (opts_.prefetch) {
    if (auto* rsmi = dynamic_cast<RsmiIndex*>(inner_.get())) {
      prefetcher_ = std::make_unique<AsyncPrefetcher>(&map);
      rsmi->SetBlockPrefetchHook(
          [this](int first, int last) { PrefetchBlocks(first, last); });
    }
  }
}

void ExternalIndex::PrefetchBlocks(int first, int last) {
  if (prefetcher_ == nullptr || block_ranges_.empty()) return;
  int a = std::min(first, last);
  int b = std::max(first, last);
  a = std::max(a, 0);
  b = std::min(b, static_cast<int>(block_ranges_.size()) - 1);
  if (a > b) return;
  // Entries were written in block-id order, so the id range maps to one
  // contiguous byte span — a single madvise instead of per-block calls.
  size_t lo = BlockRange::kNone;
  size_t hi = 0;
  for (int id = a; id <= b; ++id) {
    const BlockRange& r = block_ranges_[static_cast<size_t>(id)];
    if (r.offset == BlockRange::kNone) continue;
    lo = std::min(lo, r.offset);
    hi = std::max(hi, r.offset + r.len);
  }
  if (lo == BlockRange::kNone || hi <= lo) return;
  governor_->MarkPrefetched(lo, hi - lo);
  prefetcher_->EnqueueRange(lo, hi - lo);
}

bool ExternalIndex::Checkpoint(std::string* error) {
  FlushUpdates();
  if (!SaveIndex(*inner_, container_->path(), error)) return false;
  if (wb_ != nullptr && !wb_->Truncate()) {
    return SetError(error,
                    "cannot truncate write-behind log " + wb_->path());
  }
  return true;
}

}  // namespace xmem
}  // namespace rsmi
