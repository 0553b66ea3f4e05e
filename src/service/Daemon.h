//===- service/Daemon.h - The salssad merge daemon ----------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The merge daemon: a Unix-domain-socket server that multiplexes any
/// number of concurrent client connections onto one long-lived
/// MergeService session. The daemon is the compile-server deployment
/// shape of the incremental service — clients register a deterministic
/// module spec once, then stream edit deltas; the daemon keeps the merge
/// warm across all of them and across its own restarts.
///
/// ## Concurrency model
///
/// One accept thread plus one thread per live connection. The session
/// writer is exclusive by construction (MergeService::DeltaBatch), so
/// the daemon fronts it with a *fair FIFO admission lease*: BeginDelta
/// enqueues a ticket and blocks until every earlier ticket released (or
/// its deadline expires — DeadlineExpired, no side effects). The lease
/// is logical and connection-owned: the real DeltaBatch only exists
/// inside the ApplyDelta handler (and the healing path), so a client
/// that holds the lease but never applies cannot wedge the session —
/// its disconnect heals the batch (checked-out functions re-applied as
/// no-op changes, DaemonCounters::HealedBatches) and admits the next
/// waiter.
///
/// QueryStats never touches the session: the daemon refreshes a cached
/// StatsSnapshot (and module prints) after initialization and after
/// every applied delta, so stats reads are wait-free with respect to a
/// running merge.
///
/// ## Fault containment
///
/// FaultKind::Protocol points on the response path, keyed by connection
/// and request identity plus a damage flavour:
///   - "disconnect": the connection drops *before* the request is
///     processed (nothing applied; a retry re-applies for real);
///   - "truncate": the request was processed, then only half the
///     response frame is sent (a retry replays from the token cache);
///   - "checksum": the request was processed, then the response frame
///     goes out with a corrupted checksum (same retry path).
/// Every flavour degrades to a clean per-request error on the client —
/// never a wedged daemon, never a corrupt session (the token cache
/// guarantees a retried ApplyDelta is never double-applied).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_SERVICE_DAEMON_H
#define SALSSA_SERVICE_DAEMON_H

#include "merge/MergeService.h"
#include "service/Protocol.h"
#include "support/FaultInjection.h"
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

namespace salssa {

struct DaemonOptions {
  /// Filesystem path of the Unix-domain listening socket. Unlinked (if
  /// stale) before bind and on shutdown.
  std::string SocketPath;
  /// Startup defaults merged into RegisterModules requests that leave
  /// the warm-path knobs unset (false HashClustering, zero
  /// QuarantineDecayEpochs). Defaults.Driver.DecisionCachePath is the
  /// only decision cache a session ever uses — requests must not name
  /// one. This is how `salssad --decision-cache=...` makes a restarted
  /// daemon warm-replay its first session without the client knowing.
  MergeServiceOptions Defaults;
  /// Protocol fault injection (FaultKind::Protocol rate applies).
  /// Resolved from SALSSA_FAULTS when left disarmed.
  FaultInjectionConfig Faults;
  /// ApplyDelta idempotency window (token cache bound).
  size_t TokenCacheEntries = 256;
};

/// The daemon. start() binds and spawns the accept loop; stop() (or a
/// client Shutdown request) drains it. One Daemon serves one
/// MergeService session, created by the first RegisterModules.
class Daemon {
public:
  explicit Daemon(const DaemonOptions &Options);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds SocketPath and starts serving. Returns false (with strerror
  /// detail in lastError()) when the socket cannot be created.
  bool start();
  /// Requests shutdown and joins every serving thread. Idempotent.
  void stop();
  /// Blocks until a Shutdown request (or stop()) drains the daemon.
  void wait();

  bool running() const { return Running.load(); }
  const std::string &lastError() const { return LastError; }
  DaemonCounters counters() const;

private:
  struct Connection;

  void acceptLoop();
  void serveConnection(int Fd, uint64_t ConnId);
  /// Decodes one request payload and dispatches it; returns the response
  /// payload (always — protocol faults are applied by the caller on the
  /// send path, not here). A body that does not decode strictly is
  /// answered BadFrame before any handler runs.
  std::vector<uint8_t> handleRequest(Connection &Conn,
                                     const std::vector<uint8_t> &Payload);

  std::vector<uint8_t> handleRegister(const WireRequestHeader &Req,
                                      RegisterModulesRequest RM);
  std::vector<uint8_t> handleBeginDelta(Connection &Conn,
                                        const WireRequestHeader &Req);
  std::vector<uint8_t> handleCheckout(Connection &Conn,
                                      const WireRequestHeader &Req,
                                      const CheckoutRequest &CR);
  std::vector<uint8_t> handleApplyDelta(Connection &Conn,
                                        const WireRequestHeader &Req,
                                        const ApplyDeltaRequest &AR);
  std::vector<uint8_t> handleQueryStats(const WireRequestHeader &Req,
                                        const QueryStatsRequest &QR);
  std::vector<uint8_t> handleShutdown(const WireRequestHeader &Req);

  /// Adds one to \p Counter under StatsMutex.
  void count(uint64_t DaemonCounters::*Counter);
  /// The error answer to \p Req, counted in RequestErrors.
  std::vector<uint8_t> reject(const WireRequestHeader &Req, StatusCode Status,
                              const std::string &Message);

  /// FIFO lease admission for \p ConnId; blocks up to \p DeadlineMillis
  /// (0 = forever). Returns false on deadline expiry.
  bool acquireLease(uint64_t ConnId, uint32_t DeadlineMillis);
  void releaseLease(uint64_t ConnId);
  /// Connection teardown while holding the lease: re-applies the
  /// checked-out functions as a no-op change delta so the session heals
  /// and the next waiter is admitted.
  void healAbandonedBatch(Connection &Conn);

  /// Re-caches the post-mutation stats snapshot and module prints.
  void refreshSnapshot(const MergeServiceStats &St);
  StatsSnapshot snapshotNow() const;

  Function *findFunction(uint32_t ModuleIdx, const std::string &Name) const;

  DaemonOptions Options;
  std::string LastError;

  int ListenFd = -1;
  std::thread AcceptThread;
  std::vector<std::thread> ConnThreads;
  std::mutex ThreadsMutex;
  std::atomic<bool> Running{false};
  std::atomic<bool> Stopping{false};
  std::atomic<uint64_t> NextConnId{1};

  // --- Session state (RegisterModules creates it) ---------------------------
  mutable std::mutex SessionSetupMutex;
  Context Ctx;
  ModuleGroup Group;
  std::vector<Module *> Mods;
  std::unique_ptr<MergeService> Svc;
  std::vector<uint8_t> RegisterBody; ///< idempotency witness
  std::atomic<bool> Registered{false};

  // --- FIFO writer lease ----------------------------------------------------
  std::mutex LeaseMutex;
  std::condition_variable LeaseCV;
  std::deque<uint64_t> LeaseQueue; ///< waiting connection ids, FIFO
  uint64_t LeaseHolder = 0;        ///< 0 = free

  // --- Cached stats ---------------------------------------------------------
  mutable std::mutex StatsMutex;
  StatsSnapshot CachedStats;
  std::string CachedPrints;
  DaemonCounters Counters;

  ApplyTokenCache TokenCache;
  std::mutex TokenMutex;
};

} // namespace salssa

#endif // SALSSA_SERVICE_DAEMON_H
