//===- service/Socket.h - Unix-domain socket helpers --------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket plumbing the daemon (service/Daemon.h) and the client
/// (service/Client.h) share.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_SERVICE_SOCKET_H
#define SALSSA_SERVICE_SOCKET_H

#include <cstdint>
#include <string>
#include <sys/un.h>
#include <vector>

namespace salssa {

/// Fills \p Addr for the Unix-domain socket at \p Path. Returns false when
/// the path is empty or does not fit sun_path.
bool unixSocketAddress(const std::string &Path, sockaddr_un &Addr);

/// Sends all of \p Bytes on \p Fd, retrying interrupted and short sends.
/// Returns false once the peer is gone (never raises SIGPIPE).
bool sendAll(int Fd, const std::vector<uint8_t> &Bytes);

} // namespace salssa

#endif // SALSSA_SERVICE_SOCKET_H
