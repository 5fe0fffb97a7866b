#ifndef RSMI_SERVER_WIRE_H_
#define RSMI_SERVER_WIRE_H_

#include <cstdint>
#include <vector>

#include "exec/request.h"

namespace rsmi {

/// Wire protocol of the spatial query server: every message (both
/// directions) is one length-prefixed frame
///
///   uint32 payload_bytes | payload
///
/// with the payload encoded by the same Serializer/Deserializer the
/// index container format uses — native endianness, range-checked
/// decode. The protocol is a session cache between one build of the
/// binary on both ends, not an interchange format, exactly like the
/// index files themselves (io/serializer.h).
///
/// Request payload:
///   u8 type | u64 id | u32 deadline_us | Point pt | Rect window |
///   u32 k | string path | u8 write_flags | u32 num_ops |
///   num_ops * (u8 kind | Point pt) | u8 trace
/// Response payload:
///   u64 id | u8 status | u8 has_hit | [PointEntry hit] |
///   vec<Point> points | QueryContext cost |
///   5 * u64 update counters (applied_inserts, applied_deletes,
///   delete_misses, buffered_ops, merges_triggered) | string message |
///   u32 num_spans | num_spans * (string name | u64 start | u64 end) |
///   u8 has_stats | [MetricsSnapshot] | slow-query entries
///
/// write_flags: bit 0 = WriteOptions::buffered, bit 1 = fence. The op
/// list rides on every request for uniformity but is only non-empty on
/// kUpdateBatch (ops are encoded field-wise — UpdateOp has padding).
///
/// Each frame leaves its writer in one gathered `sendmsg` (prefix and
/// payload as two iovecs, no copy), and both ends set `TCP_NODELAY`, so
/// a small frame is one segment on the wire at once. Two separate
/// writes with Nagle on would hold the payload until the peer ACKs the
/// prefix — a delayed-ACK stall of ~40 ms per call-reply round trip.
///
/// A frame whose length prefix exceeds the cap is a protocol violation
/// (the connection cannot be resynchronized — the server closes it); a
/// frame whose *payload* fails to decode is a per-request error (the
/// server answers kInvalidArgument and keeps the connection).

/// Cap on request frames the server accepts. The largest legal request
/// is an update batch (~61k ops fit); ServerClient::Send refuses a
/// bigger one without writing, so callers split bigger batches.
constexpr uint32_t kMaxRequestFrameBytes = 1u << 20;
/// Cap on response frames the client accepts: window results over a
/// dense region can run to millions of points.
constexpr uint32_t kMaxResponseFrameBytes = 1u << 28;

/// Encodes `req` into a payload (no length prefix).
std::vector<uint8_t> EncodeRequest(const Request& req);
/// Decodes a request payload; false when the payload is truncated,
/// carries trailing garbage, or names an unknown request type.
bool DecodeRequest(const uint8_t* data, size_t n, Request* out);

/// Encodes `resp` into a payload (no length prefix).
std::vector<uint8_t> EncodeResponse(const Response& resp);
/// Decodes a response payload (same strictness as DecodeRequest).
bool DecodeResponse(const uint8_t* data, size_t n, Response* out);

/// Outcome of reading one frame off a socket.
enum class FrameReadResult : uint8_t {
  kOk = 0,
  /// Clean EOF on the frame boundary — the peer finished sending.
  kEof = 1,
  /// Socket error or EOF mid-frame.
  kError = 2,
  /// Length prefix exceeds `max_payload`: protocol violation, the
  /// stream cannot be resynchronized.
  kTooLarge = 3,
};

/// Reads exactly `n` bytes (retrying short reads and EINTR). False on
/// EOF or error.
bool ReadExact(int fd, void* buf, size_t n);
/// Writes all `n` bytes (retrying short writes and EINTR).
bool WriteAll(int fd, const void* buf, size_t n);

/// Reads one length-prefixed frame into `*payload`.
FrameReadResult ReadFrame(int fd, uint32_t max_payload,
                          std::vector<uint8_t>* payload);
/// Writes one length-prefixed frame with one gathered `sendmsg`
/// (resuming after short writes, EINTR, and never raising SIGPIPE).
/// False on a socket error, and — with nothing written — when `n` does
/// not fit the 32-bit length prefix.
bool WriteFrame(int fd, const uint8_t* payload, size_t n);

}  // namespace rsmi

#endif  // RSMI_SERVER_WIRE_H_
