#include "server/wire.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "io/serializer.h"

namespace rsmi {

std::vector<uint8_t> EncodeRequest(const Request& req) {
  Serializer ser;
  ser.WritePod<uint8_t>(static_cast<uint8_t>(req.type));
  ser.WritePod<uint64_t>(req.id);
  ser.WritePod<uint32_t>(req.deadline_us);
  ser.WritePod<Point>(req.pt);
  ser.WritePod<Rect>(req.window);
  ser.WritePod<uint32_t>(req.k);
  ser.WriteString(req.path);
  uint8_t wflags = 0;
  if (req.write_opts.buffered) wflags |= 1;
  if (req.write_opts.fence) wflags |= 2;
  ser.WritePod<uint8_t>(wflags);
  ser.WritePod<uint32_t>(static_cast<uint32_t>(req.ops.size()));
  for (const UpdateOp& op : req.ops) {
    ser.WritePod<uint8_t>(static_cast<uint8_t>(op.kind));
    ser.WritePod<Point>(op.pt);
  }
  ser.WritePod<uint8_t>(req.trace ? 1 : 0);
  return ser.buffer();
}

bool DecodeRequest(const uint8_t* data, size_t n, Request* out) {
  Deserializer in(data, n);
  uint8_t type = 0;
  if (!in.ReadPod(&type)) return false;
  if (type > static_cast<uint8_t>(Request::Type::kStats)) return false;
  out->type = static_cast<Request::Type>(type);
  if (!in.ReadPod(&out->id)) return false;
  if (!in.ReadPod(&out->deadline_us)) return false;
  if (!in.ReadPod(&out->pt)) return false;
  if (!in.ReadPod(&out->window)) return false;
  if (!in.ReadPod(&out->k)) return false;
  if (!in.ReadString(&out->path)) return false;
  uint8_t wflags = 0;
  if (!in.ReadPod(&wflags)) return false;
  if (wflags > 3) return false;
  out->write_opts.buffered = (wflags & 1) != 0;
  out->write_opts.fence = (wflags & 2) != 0;
  uint32_t nops = 0;
  if (!in.ReadPod(&nops)) return false;
  if (nops > in.remaining() / (1 + sizeof(Point))) return false;
  out->ops.clear();
  out->ops.reserve(nops);
  for (uint32_t i = 0; i < nops; ++i) {
    uint8_t kind = 0;
    UpdateOp op;
    if (!in.ReadPod(&kind) || !in.ReadPod(&op.pt)) return false;
    if (kind > static_cast<uint8_t>(UpdateOp::Kind::kDelete)) return false;
    op.kind = static_cast<UpdateOp::Kind>(kind);
    out->ops.push_back(op);
  }
  uint8_t trace = 0;
  if (!in.ReadPod(&trace)) return false;
  if (trace > 1) return false;
  out->trace = trace != 0;
  // Trailing bytes mean the peer framed something else entirely.
  return in.ok() && in.remaining() == 0;
}

std::vector<uint8_t> EncodeResponse(const Response& resp) {
  Serializer ser;
  ser.WritePod<uint64_t>(resp.id);
  ser.WritePod<uint8_t>(static_cast<uint8_t>(resp.status));
  ser.WritePod<uint8_t>(resp.hit.has_value() ? 1 : 0);
  if (resp.hit.has_value()) ser.WritePod<PointEntry>(*resp.hit);
  ser.WriteVec(resp.points);
  ser.WritePod<QueryContext>(resp.cost);
  ser.WritePod<uint64_t>(resp.update.applied_inserts);
  ser.WritePod<uint64_t>(resp.update.applied_deletes);
  ser.WritePod<uint64_t>(resp.update.delete_misses);
  ser.WritePod<uint64_t>(resp.update.buffered_ops);
  ser.WritePod<uint64_t>(resp.update.merges_triggered);
  ser.WriteString(resp.message);
  ser.WritePod<uint32_t>(static_cast<uint32_t>(resp.trace.size()));
  for (const TraceSpan& s : resp.trace) {
    ser.WriteString(s.name);
    ser.WritePod<uint64_t>(s.start_us);
    ser.WritePod<uint64_t>(s.end_us);
  }
  ser.WritePod<uint8_t>(resp.stats.has_value() ? 1 : 0);
  if (resp.stats.has_value()) resp.stats->EncodeTo(&ser);
  EncodeSlowQueryEntries(resp.slow, &ser);
  return ser.buffer();
}

bool DecodeResponse(const uint8_t* data, size_t n, Response* out) {
  Deserializer in(data, n);
  if (!in.ReadPod(&out->id)) return false;
  uint8_t status = 0;
  if (!in.ReadPod(&status)) return false;
  if (status > static_cast<uint8_t>(StatusCode::kInternal)) return false;
  out->status = static_cast<StatusCode>(status);
  uint8_t has_hit = 0;
  if (!in.ReadPod(&has_hit)) return false;
  if (has_hit > 1) return false;
  if (has_hit != 0) {
    PointEntry e;
    if (!in.ReadPod(&e)) return false;
    out->hit = e;
  } else {
    out->hit.reset();
  }
  if (!in.ReadVec(&out->points)) return false;
  if (!in.ReadPod(&out->cost)) return false;
  if (!in.ReadPod(&out->update.applied_inserts)) return false;
  if (!in.ReadPod(&out->update.applied_deletes)) return false;
  if (!in.ReadPod(&out->update.delete_misses)) return false;
  if (!in.ReadPod(&out->update.buffered_ops)) return false;
  if (!in.ReadPod(&out->update.merges_triggered)) return false;
  if (!in.ReadString(&out->message)) return false;
  uint32_t nspans = 0;
  if (!in.ReadPod(&nspans)) return false;
  // A span is at least a name length prefix plus the two offsets.
  if (nspans > in.remaining() / (4 + 8 + 8)) return false;
  out->trace.clear();
  out->trace.reserve(nspans);
  for (uint32_t i = 0; i < nspans; ++i) {
    TraceSpan s;
    if (!in.ReadString(&s.name)) return false;
    if (!in.ReadPod(&s.start_us)) return false;
    if (!in.ReadPod(&s.end_us)) return false;
    out->trace.push_back(std::move(s));
  }
  uint8_t has_stats = 0;
  if (!in.ReadPod(&has_stats)) return false;
  if (has_stats > 1) return false;
  if (has_stats != 0) {
    MetricsSnapshot snap;
    if (!MetricsSnapshot::DecodeFrom(&in, &snap)) return false;
    out->stats = std::move(snap);
  } else {
    out->stats.reset();
  }
  if (!DecodeSlowQueryEntries(&in, &out->slow)) return false;
  return in.ok() && in.remaining() == 0;
}

bool ReadExact(int fd, void* buf, size_t n) {
  auto* p = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::read(fd, p + done, n - done);
    if (r > 0) {
      done += static_cast<size_t>(r);
    } else if (r == 0) {
      return false;  // EOF
    } else if (errno != EINTR) {
      return false;
    }
  }
  return true;
}

namespace {

/// Sends every byte of `iov[0, count)` with gathered writes, resuming
/// mid-iovec after a short write. send + MSG_NOSIGNAL semantics: a peer
/// that closed mid-reply fails the call instead of raising SIGPIPE at
/// the whole process.
bool SendAll(int fd, iovec* iov, size_t count) {
  msghdr msg{};
  while (count > 0) {
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Skip what went out in full (zero-length iovecs included), then
    // trim the one the write stopped inside — possibly a length prefix.
    size_t sent = static_cast<size_t>(r);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (sent > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return true;
}

}  // namespace

bool WriteAll(int fd, const void* buf, size_t n) {
  iovec iov{const_cast<void*>(buf), n};
  return SendAll(fd, &iov, 1);
}

FrameReadResult ReadFrame(int fd, uint32_t max_payload,
                          std::vector<uint8_t>* payload) {
  uint32_t len = 0;
  {
    // Distinguish the clean shutdown (EOF before any prefix byte) from a
    // truncated prefix.
    uint8_t first = 0;
    const ssize_t r = ::read(fd, &first, 1);
    if (r == 0) return FrameReadResult::kEof;
    if (r < 0) {
      if (errno == EINTR) return ReadFrame(fd, max_payload, payload);
      return FrameReadResult::kError;
    }
    uint8_t rest[3];
    if (!ReadExact(fd, rest, sizeof(rest))) return FrameReadResult::kError;
    uint8_t raw[4] = {first, rest[0], rest[1], rest[2]};
    std::memcpy(&len, raw, sizeof(len));
  }
  if (len > max_payload) return FrameReadResult::kTooLarge;
  payload->resize(len);
  if (len != 0 && !ReadExact(fd, payload->data(), len)) {
    return FrameReadResult::kError;
  }
  return FrameReadResult::kOk;
}

bool WriteFrame(int fd, const uint8_t* payload, size_t n) {
  if (n > UINT32_MAX) return false;
  uint32_t len = static_cast<uint32_t>(n);
  iovec iov[2] = {{&len, sizeof(len)},
                  {const_cast<uint8_t*>(payload), n}};
  return SendAll(fd, iov, 2);
}

}  // namespace rsmi
