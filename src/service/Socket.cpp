//===- service/Socket.cpp - Unix-domain socket helpers ------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Socket.h"
#include <cerrno>
#include <cstring>
#include <sys/socket.h>

using namespace salssa;

bool salssa::unixSocketAddress(const std::string &Path, sockaddr_un &Addr) {
  std::memset(&Addr, 0, sizeof(Addr));
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path))
    return false;
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  return true;
}

bool salssa::sendAll(int Fd, const std::vector<uint8_t> &Bytes) {
  size_t Sent = 0;
  while (Sent < Bytes.size()) {
    ssize_t W =
        ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent, MSG_NOSIGNAL);
    if (W <= 0) {
      if (W < 0 && (errno == EINTR || errno == EAGAIN))
        continue;
      return false;
    }
    Sent += static_cast<size_t>(W);
  }
  return true;
}
