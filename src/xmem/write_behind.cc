#include "xmem/write_behind.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "common/crc32.h"
#include "io/serializer.h"

namespace rsmi {
namespace xmem {
namespace {

// "RSMIWBL1" — RSMI write-behind log, revision 1.
constexpr uint64_t kLogMagic = 0x314C4257494D5352ull;
constexpr uint32_t kLogVersion = 1;

bool SetError(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

/// One record's payload: op count then (kind, x, y) per op. The record
/// framing (length + CRC) is added by the appender.
void EncodeBatch(const UpdateBatch& batch, Serializer* out) {
  out->WritePod<uint64_t>(batch.ops.size());
  for (const UpdateOp& op : batch.ops) {
    out->WritePod<uint8_t>(static_cast<uint8_t>(op.kind));
    out->WritePod(op.pt.x);
    out->WritePod(op.pt.y);
  }
}

bool DecodeBatch(Deserializer* in, UpdateBatch* batch) {
  uint64_t n = 0;
  if (!in->ReadPod(&n)) return false;
  if (n > in->remaining() / (1 + 2 * sizeof(double))) return false;
  batch->ops.clear();
  batch->ops.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t kind = 0;
    UpdateOp op;
    if (!in->ReadPod(&kind) || !in->ReadPod(&op.pt.x) ||
        !in->ReadPod(&op.pt.y)) {
      return false;
    }
    if (kind > 1) return false;
    op.kind = static_cast<UpdateOp::Kind>(kind);
    batch->ops.push_back(op);
  }
  return true;
}

/// Scans the intact record prefix of the log image (past the header).
/// Returns the byte offset just after the last intact record and fills
/// `out` (when non-null) with the decoded batches.
size_t ScanRecords(const uint8_t* data, size_t size, size_t begin,
                   std::vector<UpdateBatch>* out) {
  size_t pos = begin;
  for (;;) {
    if (size - pos < sizeof(uint32_t) * 2) break;
    uint32_t len = 0;
    uint32_t crc = 0;
    std::memcpy(&len, data + pos, sizeof(len));
    std::memcpy(&crc, data + pos + sizeof(len), sizeof(crc));
    const size_t body = pos + sizeof(uint32_t) * 2;
    if (len > size - body) break;                       // torn tail
    if (Crc32(data + body, len) != crc) break;          // torn/corrupt
    UpdateBatch batch;
    Deserializer rec(data + body, len);
    if (!DecodeBatch(&rec, &batch) || rec.remaining() != 0) break;
    if (out != nullptr) out->push_back(std::move(batch));
    pos = body + len;
  }
  return pos;
}

constexpr size_t kHeaderBytes = sizeof(uint64_t) + sizeof(uint32_t);

bool ReadLogImage(const std::string& path, std::vector<uint8_t>* image,
                  bool* missing, std::string* error) {
  // Missing file == empty log (the index was never updated).
  *missing = ::access(path.c_str(), F_OK) != 0;
  if (*missing) return true;
  if (!ReadFileFully(path, image)) {
    return SetError(error, "cannot read write-behind log " + path);
  }
  if (image->size() < kHeaderBytes) {
    return SetError(error, "write-behind log " + path + " is truncated");
  }
  uint64_t magic = 0;
  uint32_t version = 0;
  std::memcpy(&magic, image->data(), sizeof(magic));
  std::memcpy(&version, image->data() + sizeof(magic), sizeof(version));
  if (magic != kLogMagic) {
    return SetError(error, path + " is not a write-behind log");
  }
  if (version != kLogVersion) {
    return SetError(error, "write-behind log " + path +
                               " has unsupported version " +
                               std::to_string(version));
  }
  return true;
}

}  // namespace

WriteBehindBuffer::WriteBehindBuffer(std::string path, std::FILE* f)
    : path_(std::move(path)), file_(f) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_records_ = &reg.GetCounter("xmem.writebehind.records");
  m_bytes_ = &reg.GetCounter("xmem.writebehind.bytes");
  m_flushes_ = &reg.GetCounter("xmem.writebehind.flushes");
}

std::unique_ptr<WriteBehindBuffer> WriteBehindBuffer::Open(
    const std::string& path, std::string* error) {
  // "a+b" creates the file when absent and positions every write at the
  // tail — the log is strictly append-only.
  std::FILE* f = std::fopen(path.c_str(), "a+b");
  if (f == nullptr) {
    SetError(error, "cannot open write-behind log " + path + ": " +
                        std::strerror(errno));
    return nullptr;
  }
  // Validate or write the header.
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end == 0) {
    const uint64_t magic = kLogMagic;
    const uint32_t version = kLogVersion;
    if (std::fwrite(&magic, sizeof(magic), 1, f) != 1 ||
        std::fwrite(&version, sizeof(version), 1, f) != 1 ||
        std::fflush(f) != 0) {
      std::fclose(f);
      SetError(error, "cannot initialize write-behind log " + path);
      return nullptr;
    }
  } else {
    uint64_t magic = 0;
    uint32_t version = 0;
    bool ok = static_cast<size_t>(end) >= kHeaderBytes &&
              std::fseek(f, 0, SEEK_SET) == 0 &&
              std::fread(&magic, sizeof(magic), 1, f) == 1 &&
              std::fread(&version, sizeof(version), 1, f) == 1 &&
              magic == kLogMagic && version == kLogVersion;
    if (!ok) {
      std::fclose(f);
      SetError(error, path + " is not a write-behind log");
      return nullptr;
    }
    std::fseek(f, 0, SEEK_END);
  }
  return std::unique_ptr<WriteBehindBuffer>(
      new WriteBehindBuffer(path, f));
}

WriteBehindBuffer::~WriteBehindBuffer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    FlushLocked();
  }
  if (file_ != nullptr) std::fclose(file_);
}

bool WriteBehindBuffer::Append(const UpdateBatch& batch, bool fence) {
  Serializer payload;
  EncodeBatch(batch, &payload);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());

  std::lock_guard<std::mutex> lock(mu_);
  const uint8_t* lenb = reinterpret_cast<const uint8_t*>(&len);
  const uint8_t* crcb = reinterpret_cast<const uint8_t*>(&crc);
  group_.insert(group_.end(), lenb, lenb + sizeof(len));
  group_.insert(group_.end(), crcb, crcb + sizeof(crc));
  group_.insert(group_.end(), payload.data(),
                payload.data() + payload.size());
  ++records_;
  bytes_ += sizeof(len) + sizeof(crc) + payload.size();
  m_records_->Add();
  m_bytes_->Add(sizeof(len) + sizeof(crc) + payload.size());
  if (fence || group_.size() >= kFlushThresholdBytes) {
    return FlushLocked();
  }
  return true;
}

bool WriteBehindBuffer::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

bool WriteBehindBuffer::FlushLocked() {
  if (group_.empty()) return true;
  if (std::fwrite(group_.data(), 1, group_.size(), file_) != group_.size()) {
    return false;
  }
  if (std::fflush(file_) != 0) return false;
  if (::fdatasync(::fileno(file_)) != 0) return false;
  group_.clear();
  ++flushes_;
  m_flushes_->Add();
  return true;
}

bool WriteBehindBuffer::Truncate() {
  std::lock_guard<std::mutex> lock(mu_);
  group_.clear();
  if (std::fflush(file_) != 0) return false;
  if (::ftruncate(::fileno(file_), static_cast<off_t>(kHeaderBytes)) != 0) {
    return false;
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) return false;
  return ::fdatasync(::fileno(file_)) == 0;
}

bool WriteBehindBuffer::Recover(const std::string& path, SpatialIndex* index,
                                uint64_t* applied_batches,
                                std::string* error) {
  if (applied_batches != nullptr) *applied_batches = 0;
  std::vector<uint8_t> image;
  bool missing = false;
  if (!ReadLogImage(path, &image, &missing, error)) return false;
  if (missing) return true;
  std::vector<UpdateBatch> batches;
  const size_t good_end =
      ScanRecords(image.data(), image.size(), kHeaderBytes, &batches);
  // Drop the torn tail before replaying, so a second crash mid-recovery
  // never sees the bad bytes again.
  if (good_end < image.size()) {
    if (::truncate(path.c_str(), static_cast<off_t>(good_end)) != 0) {
      return SetError(error, "cannot truncate torn tail of " + path + ": " +
                                 std::strerror(errno));
    }
  }
  for (const UpdateBatch& batch : batches) {
    index->ApplyUpdates(batch);  // immediate application, in log order
    if (applied_batches != nullptr) ++*applied_batches;
  }
  return true;
}

bool WriteBehindBuffer::ReadBack(const std::string& path,
                                 std::vector<UpdateBatch>* out,
                                 std::string* error) {
  out->clear();
  std::vector<uint8_t> image;
  bool missing = false;
  if (!ReadLogImage(path, &image, &missing, error)) return false;
  if (missing) return true;
  ScanRecords(image.data(), image.size(), kHeaderBytes, out);
  return true;
}

}  // namespace xmem
}  // namespace rsmi
