//===- service/Client.cpp - salssad client library ----------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Socket.h"
#include "support/RNG.h"
#include <cerrno>
#include <chrono>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace salssa;

DaemonClient::DaemonClient(const ClientOptions &Opts)
    : Options(Opts), JitterState(mix64(Opts.RetrySeed ^ 0x5a1d5ad0c11e47ULL)) {
}

DaemonClient::~DaemonClient() { closeConnection(); }

void DaemonClient::closeConnection() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool DaemonClient::ensureConnected() {
  if (Fd >= 0)
    return true;
  sockaddr_un Addr;
  if (!unixSocketAddress(Options.SocketPath, Addr))
    return false;
  int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (S < 0)
    return false;
  // Bounded connect: nonblocking connect + poll for writability.
  int Flags = ::fcntl(S, F_GETFL, 0);
  ::fcntl(S, F_SETFL, Flags | O_NONBLOCK);
  int R = ::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  if (R < 0 && errno == EINPROGRESS) {
    pollfd P{S, POLLOUT, 0};
    if (::poll(&P, 1, static_cast<int>(Options.ConnectTimeoutMillis)) <= 0) {
      ::close(S);
      return false;
    }
    int Err = 0;
    socklen_t Len = sizeof(Err);
    if (::getsockopt(S, SOL_SOCKET, SO_ERROR, &Err, &Len) < 0 || Err != 0) {
      ::close(S);
      return false;
    }
  } else if (R < 0) {
    ::close(S);
    return false;
  }
  ::fcntl(S, F_SETFL, Flags); // back to blocking; reads use poll
  Fd = S;
  ++Reconnects;
  return true;
}

void DaemonClient::backoff(unsigned Attempt) {
  uint64_t Delay = Options.BackoffBaseMillis;
  for (unsigned I = 0; I < Attempt && Delay < Options.BackoffMaxMillis; ++I)
    Delay *= 2;
  if (Delay > Options.BackoffMaxMillis)
    Delay = Options.BackoffMaxMillis;
  // Up to 50% deterministic jitter, decorrelating concurrent clients.
  JitterState = mix64(JitterState + 0x9e3779b97f4a7c15ULL);
  Delay += (JitterState % (Delay / 2 + 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
}

bool DaemonClient::attemptOnce(RequestKind Kind, uint64_t RequestId,
                               const std::vector<uint8_t> &Body,
                               uint32_t DeadlineMillis,
                               std::vector<uint8_t> &OutPayload) {
  if (!ensureConnected())
    return false;
  std::vector<uint8_t> Request =
      toBytes(WireRequestHeader{Kind, RequestId, DeadlineMillis});
  Request.insert(Request.end(), Body.begin(), Body.end());
  if (!sendAll(Fd, encodeFrame(Request))) {
    closeConnection();
    return false;
  }
  FrameAssembler Asm;
  uint8_t Buf[4096];
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(Options.RequestTimeoutMillis);
  for (;;) {
    auto Now = std::chrono::steady_clock::now();
    if (Now >= Deadline) {
      closeConnection();
      return false;
    }
    int WaitMs = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Deadline - Now)
            .count());
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, WaitMs > 200 ? 200 : WaitMs);
    if (R < 0) {
      closeConnection();
      return false;
    }
    if (R == 0)
      continue;
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0) {
      closeConnection();
      return false;
    }
    Asm.feed(Buf, static_cast<size_t>(N));
    std::vector<uint8_t> Payload;
    while (Asm.next(Payload)) {
      ByteReader HR(Payload.data(), Payload.size());
      WireResponseHeader Hdr;
      if (!decodeResponseHeader(HR, Hdr))
        continue; // garbage payload; keep draining until timeout
      if (Hdr.RequestId != RequestId)
        continue; // stale response from a previous life of this id space
      OutPayload = std::move(Payload);
      return true;
    }
    if (Asm.error() != FrameError::None) {
      // Damaged response frame (or an injected protocol fault): clean
      // per-request failure — tear down and let the retry loop decide.
      closeConnection();
      return false;
    }
  }
}

template <typename Body, typename Reply>
DaemonClient::Result DaemonClient::call(RequestKind Kind, const Body &B,
                                        Reply &Out,
                                        uint32_t DeadlineMillis) {
  const std::vector<uint8_t> BodyBytes = toBytes(B);
  Result Res;
  for (unsigned Attempt = 0; Attempt <= Options.MaxRetries; ++Attempt) {
    if (Attempt > 0) {
      ++Retries;
      backoff(Attempt - 1);
    }
    std::vector<uint8_t> Payload;
    if (!attemptOnce(Kind, NextRequestId++, BodyBytes, DeadlineMillis,
                     Payload))
      continue;
    ByteReader R(Payload.data(), Payload.size());
    WireResponseHeader Hdr;
    decodeResponseHeader(R, Hdr);
    Res.Status = Hdr.Status;
    Res.TransportOk = true;
    if (Hdr.Status != StatusCode::Ok) {
      uint32_t Version = 0;
      decodeErrorBody(R, Hdr.Status, Version, Res.ErrorMessage);
    } else if (!R.whole(Out)) {
      Res.Status = StatusCode::BadFrame;
    }
    return Res;
  }
  Res.ErrorMessage = "transport retries exhausted";
  return Res;
}

DaemonClient::Result
DaemonClient::registerModules(const RegisterModulesRequest &RM,
                              StatsSnapshot &Out) {
  return call(RequestKind::RegisterModules, RM, Out);
}

DaemonClient::Result DaemonClient::beginDelta() {
  EmptyBody Reply;
  return call(RequestKind::BeginDelta, EmptyBody(), Reply,
              Options.LeaseDeadlineMillis);
}

DaemonClient::Result DaemonClient::checkoutForEdit(uint32_t ModuleIdx,
                                                   const std::string &Name) {
  EmptyBody Reply;
  return call(RequestKind::CheckoutForEdit, CheckoutRequest{ModuleIdx, Name},
              Reply);
}

DaemonClient::Result DaemonClient::applyDelta(const EditStepSpec &Spec,
                                              uint64_t Token,
                                              ApplyDeltaResponse &Out) {
  return call(RequestKind::ApplyDelta, ApplyDeltaRequest{Token, Spec}, Out);
}

DaemonClient::Result DaemonClient::queryStats(bool IncludePrints,
                                              QueryStatsResponse &Out) {
  return call(RequestKind::QueryStats, QueryStatsRequest{IncludePrints}, Out);
}

DaemonClient::Result DaemonClient::shutdown() {
  EmptyBody Reply;
  return call(RequestKind::Shutdown, EmptyBody(), Reply);
}

DaemonClient::Result DaemonClient::applyStep(const EditStepSpec &Spec,
                                             uint64_t Token,
                                             ApplyDeltaResponse &Out) {
  // BeginDelta acquires the writer lease on the *current* connection; a
  // transport retry inside applyDelta forfeits it (fresh connection), in
  // which case the daemon answers NoBatch and we re-acquire. The token
  // makes the loop safe: an apply that already landed replays.
  Result Res;
  for (unsigned Round = 0; Round <= Options.MaxRetries; ++Round) {
    Res = beginDelta();
    if (!Res.TransportOk || Res.Status != StatusCode::Ok)
      return Res;
    Res = applyDelta(Spec, Token, Out);
    if (!Res.TransportOk)
      return Res;
    if (Res.Status != StatusCode::NoBatch)
      return Res;
  }
  return Res;
}
