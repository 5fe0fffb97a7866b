#ifndef RSMI_XMEM_WRITE_BEHIND_H_
#define RSMI_XMEM_WRITE_BEHIND_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/spatial_index.h"
#include "core/update.h"
#include "obs/metrics.h"

namespace rsmi {
namespace xmem {

/// Sequential append log that absorbs random leaf updates: every
/// UpdateBatch headed for a mapped index is serialized into one CRC'd
/// record and buffered; records stream to disk in large ordered writes
/// (group flush) instead of the random in-place page writes the updates
/// logically are. Crash safety mirrors the container's atomic-save
/// discipline at record granularity:
///
///  - each record carries its own length + CRC-32, so a torn tail (the
///    crash window is the tail write) is detected, not half-applied;
///  - Recover() replays every intact record in order onto a freshly
///    opened index and truncates the first torn/corrupt record and
///    everything after it — byte-identical to having applied the intact
///    prefix synchronously (the PR-8 contract: every execution strategy
///    is observationally equivalent to sequential application);
///  - Checkpoint (SaveIndex + Truncate) bounds replay time.
///
/// Thread-safety: Append/Flush are internally serialized (one mutex —
/// the log models one sequential write head); Recover and Truncate are
/// exclusive-setup operations.
class WriteBehindBuffer {
 public:
  /// Buffered record bytes that trigger an automatic group flush.
  static constexpr size_t kFlushThresholdBytes = 1 << 20;

  /// Opens (creating if absent) the log at `path` for appending. The
  /// file must be empty, a valid log, or freshly Recover()ed — Open
  /// validates the header but does not scan records. nullptr with a
  /// diagnostic in `*error` (if non-null) on I/O failure or a foreign
  /// file.
  static std::unique_ptr<WriteBehindBuffer> Open(const std::string& path,
                                                 std::string* error = nullptr);

  ~WriteBehindBuffer();

  WriteBehindBuffer(const WriteBehindBuffer&) = delete;
  WriteBehindBuffer& operator=(const WriteBehindBuffer&) = delete;

  /// Serializes `batch` as one record into the in-memory group buffer;
  /// flushes the group when it crosses the threshold or `fence` is set.
  /// False on flush I/O failure.
  bool Append(const UpdateBatch& batch, bool fence = false);

  /// Writes the buffered group to the file (one ordered write +
  /// fdatasync). False on I/O failure.
  bool Flush();

  /// Empties the log (after a checkpoint made its records redundant).
  /// Truncates to the header and syncs.
  bool Truncate();

  uint64_t records_appended() const { return records_; }
  uint64_t bytes_appended() const { return bytes_; }
  uint64_t flushes() const { return flushes_; }
  const std::string& path() const { return path_; }

  /// Replays the log at `path` onto `index`: applies every intact
  /// record's batch in order (immediate application — observationally
  /// equivalent to the buffered original), then truncates the file after
  /// the last intact record, removing any torn tail. A missing file is
  /// zero records, not an error. False only on I/O errors or a foreign
  /// header; `*applied_batches` (if non-null) counts replayed records.
  static bool Recover(const std::string& path, SpatialIndex* index,
                      uint64_t* applied_batches = nullptr,
                      std::string* error = nullptr);

  /// Decodes the intact record prefix of the log at `path` without
  /// applying it (tooling and tests). False on I/O errors or a foreign
  /// header.
  static bool ReadBack(const std::string& path,
                       std::vector<UpdateBatch>* out,
                       std::string* error = nullptr);

 private:
  WriteBehindBuffer(std::string path, std::FILE* f);

  bool FlushLocked();

  std::mutex mu_;
  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<uint8_t> group_;  ///< serialized records awaiting flush
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
  uint64_t flushes_ = 0;
  Counter* m_records_;
  Counter* m_bytes_;
  Counter* m_flushes_;
};

}  // namespace xmem
}  // namespace rsmi

#endif  // RSMI_XMEM_WRITE_BEHIND_H_
