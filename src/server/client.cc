#include "server/client.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace rsmi {

std::unique_ptr<ServerClient> ServerClient::Connect(const std::string& host,
                                                    uint16_t port,
                                                    std::string* error) {
  auto fail = [&](const std::string& why) -> std::unique_ptr<ServerClient> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail(std::string("socket: ") + std::strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return fail("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return fail("connect: " + why);
  }
  // Request frames are small and each goes out in one write; batching
  // them behind Nagle would serialize the server's coalescing
  // opportunity instead of feeding it.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<ServerClient>(new ServerClient(fd));
}

ServerClient::~ServerClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool ServerClient::Send(const Request& req) {
  const std::vector<uint8_t> payload = EncodeRequest(req);
  // The server cannot resynchronize past an oversized frame and would
  // drop the whole connection; refuse it here and keep the connection.
  if (payload.size() > kMaxRequestFrameBytes) return false;
  return WriteFrame(fd_, payload.data(), payload.size());
}

bool ServerClient::Receive(Response* resp) {
  std::vector<uint8_t> payload;
  if (ReadFrame(fd_, kMaxResponseFrameBytes, &payload) !=
      FrameReadResult::kOk) {
    return false;
  }
  return DecodeResponse(payload.data(), payload.size(), resp);
}

bool ServerClient::Call(const Request& req, Response* resp) {
  return Send(req) && Receive(resp);
}

void ServerClient::ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

bool ServerClient::SetReceiveTimeout(int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

}  // namespace rsmi
