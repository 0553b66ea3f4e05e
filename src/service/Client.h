//===- service/Client.h - salssad client library ------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the merge daemon protocol (service/Protocol.h):
/// one Unix-domain connection with timeouts, bounded exponential backoff
/// and idempotent retry. This is what `salssa-client` and the service
/// differential tests drive; it is deliberately dependency-free beyond
/// the protocol layer so any tool can embed it.
///
/// ## Robustness contract
///
/// Every request runs under a transport retry loop: a connect failure,
/// request timeout, torn connection or damaged response frame closes
/// the socket, sleeps a bounded exponentially-growing backoff (with
/// deterministic jitter from a seeded RNG), reconnects and resends — up
/// to MaxRetries times. Because a reconnect gets a fresh connection id
/// on the daemon side, a deterministically-injected protocol fault
/// cannot fire identically forever.
///
/// Retries are safe by construction: ApplyDelta carries a client-chosen
/// token the daemon remembers, so a retried apply whose first attempt
/// *did* land replays the original response (Replayed=1) instead of
/// double-applying; every other request kind is naturally idempotent. A
/// reconnect forfeits the writer lease, so applyStep() re-issues
/// BeginDelta whenever ApplyDelta answers NoBatch.
///
/// A *clean* error response (NotRegistered, UnknownFunction, ...) is an
/// answer, not a transport failure — it is returned to the caller, not
/// retried.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_SERVICE_CLIENT_H
#define SALSSA_SERVICE_CLIENT_H

#include "service/Protocol.h"
#include <cstdint>
#include <string>
#include <vector>

namespace salssa {

struct ClientOptions {
  std::string SocketPath;
  /// Socket connect() bound. Unit: milliseconds.
  uint32_t ConnectTimeoutMillis = 2000;
  /// Per-attempt response wait. Unit: milliseconds.
  uint32_t RequestTimeoutMillis = 20000;
  /// Transport-level retry attempts after the first try.
  unsigned MaxRetries = 5;
  /// Backoff schedule: min(BackoffMaxMillis, BackoffBaseMillis * 2^n)
  /// plus up to 50% deterministic jitter. Units: milliseconds.
  uint32_t BackoffBaseMillis = 10;
  uint32_t BackoffMaxMillis = 500;
  /// Seeds the jitter RNG (deterministic backoff sequences per client).
  uint64_t RetrySeed = 1;
  /// Deadline stamped on BeginDelta requests (admission bound server
  /// side). 0 = wait forever for the writer lease.
  uint32_t LeaseDeadlineMillis = 0;
};

/// One logical client session. Not thread-safe: drive one DaemonClient
/// per thread (connections are cheap; fairness comes from the daemon's
/// FIFO lease).
class DaemonClient {
public:
  explicit DaemonClient(const ClientOptions &Options);
  ~DaemonClient();
  DaemonClient(const DaemonClient &) = delete;
  DaemonClient &operator=(const DaemonClient &) = delete;

  /// The outcome of one request: the daemon's status plus transport
  /// success. TransportOk=false means retries were exhausted and Status
  /// is InternalError.
  struct Result {
    StatusCode Status = StatusCode::InternalError;
    bool TransportOk = false;
    std::string ErrorMessage;
  };

  Result registerModules(const RegisterModulesRequest &RM, StatsSnapshot &Out);
  Result beginDelta();
  Result checkoutForEdit(uint32_t ModuleIdx, const std::string &Name);
  Result applyDelta(const EditStepSpec &Spec, uint64_t Token,
                    ApplyDeltaResponse &Out);
  Result queryStats(bool IncludePrints, QueryStatsResponse &Out);
  Result shutdown();

  /// BeginDelta + ApplyDelta as one robust operation: re-acquires the
  /// writer lease whenever a transport retry forfeited it (NoBatch).
  Result applyStep(const EditStepSpec &Spec, uint64_t Token,
                   ApplyDeltaResponse &Out);

  /// Transport-level retries spent so far (observability for soaks).
  uint64_t retriesUsed() const { return Retries; }
  uint64_t reconnects() const { return Reconnects; }

private:
  /// The one call path behind every public request: sends \p B as a
  /// \p Kind request under the transport retry loop. An Ok answer's body
  /// must decode exactly into \p Out (else the result is BadFrame); an
  /// error answer's message lands in Result::ErrorMessage.
  template <typename Body, typename Reply>
  Result call(RequestKind Kind, const Body &B, Reply &Out,
              uint32_t DeadlineMillis = 0);
  bool ensureConnected();
  void closeConnection();
  bool attemptOnce(RequestKind Kind, uint64_t RequestId,
                   const std::vector<uint8_t> &Body, uint32_t DeadlineMillis,
                   std::vector<uint8_t> &OutPayload);
  void backoff(unsigned Attempt);

  ClientOptions Options;
  int Fd = -1;
  uint64_t NextRequestId = 1;
  uint64_t JitterState;
  uint64_t Retries = 0;
  uint64_t Reconnects = 0;
};

} // namespace salssa

#endif // SALSSA_SERVICE_CLIENT_H
