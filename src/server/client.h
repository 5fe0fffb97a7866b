#ifndef RSMI_SERVER_CLIENT_H_
#define RSMI_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "server/wire.h"

namespace rsmi {

/// Blocking client for the spatial query server: connects, frames
/// requests, decodes responses. One instance per connection; Send and
/// Receive may run on different threads (the loadgen pipelines them),
/// but each side is single-threaded.
class ServerClient {
 public:
  /// Connects to `host:port` (numeric IPv4 host). nullptr with a
  /// diagnostic in `*error` on failure.
  static std::unique_ptr<ServerClient> Connect(const std::string& host,
                                               uint16_t port,
                                               std::string* error = nullptr);

  ~ServerClient();
  ServerClient(const ServerClient&) = delete;
  ServerClient& operator=(const ServerClient&) = delete;

  /// Frames and sends one request. False on a broken connection, and —
  /// with nothing written, the connection still usable — when the
  /// encoded request exceeds kMaxRequestFrameBytes.
  bool Send(const Request& req);
  /// Blocks for the next response frame. False on EOF, error, or an
  /// undecodable frame.
  bool Receive(Response* resp);
  /// Send + Receive. Requests answered out of order (the server
  /// coalesces across connections, not within one) do not affect a
  /// strictly call-reply caller.
  bool Call(const Request& req, Response* resp);

  /// Half-closes the write side so the server sees EOF and finishes the
  /// connection after draining what was sent.
  void ShutdownWrite();

  /// Sets SO_RCVTIMEO so a Receive cannot block forever (0 restores
  /// blocking reads).
  bool SetReceiveTimeout(int millis);

  /// Raw socket, for tests that need to write malformed bytes.
  int fd() const { return fd_; }

 private:
  explicit ServerClient(int fd) : fd_(fd) {}
  int fd_;
};

}  // namespace rsmi

#endif  // RSMI_SERVER_CLIENT_H_
