//===- service/Daemon.cpp - The salssad merge daemon --------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"
#include "ir/IRPrinter.h"
#include "service/Socket.h"
#include "workloads/EditScript.h"
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace salssa;

namespace {

std::string faultKey(uint64_t ConnId, uint64_t RequestId) {
  return "conn" + std::to_string(ConnId) + ".req" + std::to_string(RequestId);
}

/// The Ok answer to \p Req, carrying \p Body.
template <typename Body = EmptyBody>
std::vector<uint8_t> okReply(const WireRequestHeader &Req,
                             const Body &B = Body()) {
  return toBytes(WireResponseHeader{Req.Kind, Req.RequestId, StatusCode::Ok},
                 B);
}

} // namespace

struct Daemon::Connection {
  uint64_t Id = 0;
  int Fd = -1;
  std::vector<Function *> Checkouts;
  bool HoldsLease = false;
};

Daemon::Daemon(const DaemonOptions &Opts)
    : Options(Opts), TokenCache(Opts.TokenCacheEntries) {
  if (!Options.Faults.armed())
    Options.Faults = FaultInjectionConfig::fromEnv();
}

Daemon::~Daemon() { stop(); }

bool Daemon::start() {
  if (Running.load())
    return true;
  sockaddr_un Addr;
  if (!unixSocketAddress(Options.SocketPath, Addr)) {
    LastError = "invalid socket path";
    return false;
  }
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    LastError = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(Options.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    LastError = std::string("bind: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 64) < 0) {
    LastError = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  Stopping.store(false);
  Running.store(true);
  AcceptThread = std::thread([this] { acceptLoop(); });
  return true;
}

void Daemon::stop() {
  Stopping.store(true);
  LeaseCV.notify_all();
  if (AcceptThread.joinable())
    AcceptThread.join();
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> L(ThreadsMutex);
    Threads.swap(ConnThreads);
  }
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Options.SocketPath.c_str());
  }
  Running.store(false);
}

void Daemon::wait() {
  while (!Stopping.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop();
}

DaemonCounters Daemon::counters() const {
  std::lock_guard<std::mutex> L(StatsMutex);
  return Counters;
}

void Daemon::count(uint64_t DaemonCounters::*Counter) {
  std::lock_guard<std::mutex> L(StatsMutex);
  ++(Counters.*Counter);
}

std::vector<uint8_t> Daemon::reject(const WireRequestHeader &Req,
                                    StatusCode Status,
                                    const std::string &Message) {
  count(&DaemonCounters::RequestErrors);
  return buildErrorPayload(Req, Status, Message);
}

void Daemon::acceptLoop() {
  while (!Stopping.load()) {
    pollfd P{ListenFd, POLLIN, 0};
    int R = ::poll(&P, 1, 200);
    if (R <= 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    uint64_t ConnId = NextConnId.fetch_add(1);
    count(&DaemonCounters::Connections);
    std::lock_guard<std::mutex> L(ThreadsMutex);
    ConnThreads.emplace_back(
        [this, Fd, ConnId] { serveConnection(Fd, ConnId); });
  }
}

void Daemon::serveConnection(int Fd, uint64_t ConnId) {
  Connection Conn;
  Conn.Id = ConnId;
  Conn.Fd = Fd;
  FrameAssembler Asm;
  uint8_t Buf[4096];
  bool Alive = true;
  while (Alive && !Stopping.load()) {
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, 200);
    if (R < 0)
      break;
    if (R == 0)
      continue;
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break; // peer closed or error
    Asm.feed(Buf, static_cast<size_t>(N));
    std::vector<uint8_t> Payload;
    while (Alive && Asm.next(Payload)) {
      count(&DaemonCounters::RequestsServed);
      // Peek the request identity for the fault key (a malformed header
      // still yields deterministic bytes for the key).
      ByteReader HR(Payload.data(), Payload.size());
      WireRequestHeader Req;
      decodeRequestHeader(HR, Req);
      std::string Key = faultKey(ConnId, Req.RequestId);
      if (faultFires(Options.Faults, FaultKind::Protocol, Key,
                     "disconnect")) {
        // Drop before processing: nothing applied, a retry re-applies.
        count(&DaemonCounters::ProtocolFaultsInjected);
        Alive = false;
        break;
      }
      std::vector<uint8_t> Frame = encodeFrame(handleRequest(Conn, Payload));
      // Damage after processing: half a frame, or a corrupt checksum; the
      // connection then drops and a retry replays from the token cache.
      bool Damaged = true;
      if (faultFires(Options.Faults, FaultKind::Protocol, Key, "truncate"))
        Frame.resize(Frame.size() / 2);
      else if (faultFires(Options.Faults, FaultKind::Protocol, Key,
                          "checksum"))
        Frame[12] ^= 0xFF; // first checksum byte
      else
        Damaged = false;
      if (Damaged)
        count(&DaemonCounters::ProtocolFaultsInjected);
      if (!sendAll(Fd, Frame) || Damaged)
        Alive = false;
    }
    if (Asm.error() != FrameError::None) {
      // Desynchronized stream: best-effort error frame, then tear down.
      sendAll(Fd, encodeFrame(reject(
                      WireRequestHeader(),
                      Asm.error() == FrameError::BadVersion
                          ? StatusCode::VersionMismatch
                          : StatusCode::BadFrame,
                      "frame error: " +
                          std::to_string(static_cast<int>(Asm.error())))));
      break;
    }
  }
  if (Conn.HoldsLease) {
    healAbandonedBatch(Conn);
    releaseLease(Conn.Id);
  }
  ::close(Fd);
}

std::vector<uint8_t>
Daemon::handleRequest(Connection &Conn, const std::vector<uint8_t> &Payload) {
  ByteReader R(Payload.data(), Payload.size());
  WireRequestHeader Req;
  if (!decodeRequestHeader(R, Req))
    return reject(Req, StatusCode::BadFrame, "short request header");
  // One decoding rule for every kind: the body must decode strictly and
  // end the payload (Protocol.h "Payloads").
  auto Malformed = [&] {
    return reject(Req, StatusCode::BadFrame,
                  std::string("malformed ") + requestKindName(Req.Kind) +
                      " body");
  };
  switch (Req.Kind) {
  case RequestKind::RegisterModules: {
    RegisterModulesRequest RM;
    return R.whole(RM) ? handleRegister(Req, std::move(RM)) : Malformed();
  }
  case RequestKind::BeginDelta: {
    EmptyBody None;
    return R.whole(None) ? handleBeginDelta(Conn, Req) : Malformed();
  }
  case RequestKind::CheckoutForEdit: {
    CheckoutRequest CR;
    return R.whole(CR) ? handleCheckout(Conn, Req, CR) : Malformed();
  }
  case RequestKind::ApplyDelta: {
    ApplyDeltaRequest AR;
    return R.whole(AR) ? handleApplyDelta(Conn, Req, AR) : Malformed();
  }
  case RequestKind::QueryStats: {
    QueryStatsRequest QR;
    return R.whole(QR) ? handleQueryStats(Req, QR) : Malformed();
  }
  case RequestKind::Shutdown: {
    EmptyBody None;
    return R.whole(None) ? handleShutdown(Req) : Malformed();
  }
  }
  return reject(Req, StatusCode::UnknownRequest,
                "unknown request kind " +
                    std::to_string(static_cast<int>(Req.Kind)));
}

std::vector<uint8_t> Daemon::handleRegister(const WireRequestHeader &Req,
                                            RegisterModulesRequest RM) {
  // Idempotency witness: the body's bytes, which a strict decode makes
  // the exact bytes the client sent.
  std::vector<uint8_t> Bytes = toBytes(RM);
  std::lock_guard<std::mutex> Setup(SessionSetupMutex);
  if (Registered.load()) {
    if (Bytes == RegisterBody)
      return okReply(Req, snapshotNow());
    return reject(Req, StatusCode::AlreadyRegistered,
                  "session already registered with a different spec");
  }
  if (std::string Why = validateRequest(RM); !Why.empty())
    return reject(Req, StatusCode::BadFrame, Why);
  // Daemon startup defaults fill warm-path knobs the request left unset,
  // and the decision cache is always the daemon's own (validateRequest
  // refuses a client-named path): this is how a restarted
  // `salssad --decision-cache=PATH` warm-replays its first session
  // transparently to clients.
  if (!RM.HashClustering && Options.Defaults.Driver.HashClustering)
    RM.HashClustering = true;
  if (RM.QuarantineDecayEpochs == 0)
    RM.QuarantineDecayEpochs = Options.Defaults.QuarantineDecayEpochs;
  try {
    Group = buildBenchmarkModuleGroup(RM.Profile, Ctx, RM.NumModules);
    Mods.clear();
    for (size_t I = 0; I < Group.size(); ++I)
      Mods.push_back(&Group[I]);
    MergeServiceOptions SO;
    SO.Driver.Technique = MergeTechnique::SalSSA;
    SO.Driver.Selection = RM.Selection;
    SO.Driver.NumThreads = RM.NumThreads;
    SO.Driver.ShardCount = RM.ShardCount;
    SO.Driver.ExplorationThreshold = RM.ExplorationThreshold;
    SO.Driver.Host = RM.Host;
    SO.Driver.HashClustering = RM.HashClustering;
    SO.Driver.Canonicalize = RM.Canonicalize;
    SO.Driver.DecisionCachePath = Options.Defaults.Driver.DecisionCachePath;
    SO.QuarantineDecayEpochs = RM.QuarantineDecayEpochs;
    Svc = std::make_unique<MergeService>(SO);
    for (Module *M : Mods)
      Svc->addModule(*M);
    MergeServiceStats St = Svc->initialize();
    refreshSnapshot(St);
  } catch (const std::exception &E) {
    Svc.reset();
    Mods.clear();
    return reject(Req, StatusCode::InternalError,
                  std::string("initialize failed: ") + E.what());
  }
  RegisterBody = std::move(Bytes);
  Registered.store(true);
  return okReply(Req, snapshotNow());
}

std::vector<uint8_t> Daemon::handleBeginDelta(Connection &Conn,
                                              const WireRequestHeader &Req) {
  if (!Registered.load())
    return reject(Req, StatusCode::NotRegistered, "RegisterModules first");
  if (Stopping.load())
    return reject(Req, StatusCode::ShuttingDown, "daemon is draining");
  if (!acquireLease(Conn.Id, Req.DeadlineMillis)) {
    if (Stopping.load())
      return reject(Req, StatusCode::ShuttingDown, "daemon is draining");
    return reject(Req, StatusCode::DeadlineExpired,
                  "writer lease not acquired within the deadline");
  }
  Conn.HoldsLease = true;
  return okReply(Req);
}

std::vector<uint8_t> Daemon::handleCheckout(Connection &Conn,
                                            const WireRequestHeader &Req,
                                            const CheckoutRequest &CR) {
  if (!Registered.load())
    return reject(Req, StatusCode::NotRegistered, "RegisterModules first");
  if (!Conn.HoldsLease)
    return reject(Req, StatusCode::NoBatch, "BeginDelta first");
  Function *F = findFunction(CR.ModuleIdx, CR.Name);
  if (!F)
    return reject(Req, StatusCode::UnknownFunction,
                  "no definition " + CR.Name + " in module " +
                      std::to_string(CR.ModuleIdx));
  if (std::find(Conn.Checkouts.begin(), Conn.Checkouts.end(), F) ==
      Conn.Checkouts.end())
    Conn.Checkouts.push_back(F);
  return okReply(Req);
}

std::vector<uint8_t> Daemon::handleApplyDelta(Connection &Conn,
                                              const WireRequestHeader &Req,
                                              const ApplyDeltaRequest &AR) {
  if (!Registered.load())
    return reject(Req, StatusCode::NotRegistered, "RegisterModules first");
  if (std::string Why = validateRequest(AR, Mods.size()); !Why.empty())
    return reject(Req, StatusCode::BadFrame, Why);
  {
    // Idempotent retry: a token we already served replays the remembered
    // response body (encoded with Replayed=1) and never re-applies.
    std::lock_guard<std::mutex> L(TokenMutex);
    if (const std::vector<uint8_t> *Cached = TokenCache.lookup(AR.Token)) {
      count(&DaemonCounters::TokenReplays);
      if (Conn.HoldsLease) { // the logical batch this retry belongs to is done
        Conn.Checkouts.clear();
        Conn.HoldsLease = false;
        releaseLease(Conn.Id);
      }
      std::vector<uint8_t> Reply = okReply(Req);
      Reply.insert(Reply.end(), Cached->begin(), Cached->end());
      return Reply;
    }
  }
  if (!Conn.HoldsLease)
    return reject(Req, StatusCode::NoBatch, "BeginDelta first");
  MergeServiceStats St;
  try {
    MergeService::DeltaBatch Batch = Svc->beginDelta();
    AppliedEditStep A = applyEditStep(
        Mods, AR.Spec, [&](Function *F) { Batch.checkoutForEdit(F); });
    MergeDelta D;
    D.Changed = A.Changed;
    D.Added = A.Added;
    D.Deleted = A.Deleted;
    // Wire checkouts the spec did not change replay as no-op changes
    // (the client contract says they should be in Spec.Changes; tolerate
    // the gap rather than leak a stale checkout).
    for (Function *F : Conn.Checkouts) {
      if (std::find(D.Changed.begin(), D.Changed.end(), F) !=
          D.Changed.end())
        continue;
      if (std::find(D.Deleted.begin(), D.Deleted.end(), F) !=
          D.Deleted.end())
        continue;
      Batch.checkoutForEdit(F);
      D.Changed.push_back(F);
    }
    St = Batch.apply(D);
  } catch (const std::exception &E) {
    return reject(Req, StatusCode::InternalError,
                  std::string("delta failed: ") + E.what());
  }
  refreshSnapshot(St);
  count(&DaemonCounters::DeltasApplied);
  Conn.Checkouts.clear();
  Conn.HoldsLease = false;
  releaseLease(Conn.Id);

  ApplyDeltaResponse Resp;
  Resp.Stats = snapshotNow();
  Resp.Replayed = true;
  {
    std::lock_guard<std::mutex> L(TokenMutex);
    TokenCache.remember(AR.Token, toBytes(Resp));
  }
  Resp.Replayed = false;
  return okReply(Req, Resp);
}

std::vector<uint8_t> Daemon::handleQueryStats(const WireRequestHeader &Req,
                                              const QueryStatsRequest &QR) {
  QueryStatsResponse Resp;
  {
    std::lock_guard<std::mutex> L(StatsMutex);
    Resp.Stats = CachedStats;
    Resp.Daemon = Counters;
    if (QR.IncludePrints)
      Resp.Prints = CachedPrints;
  }
  return okReply(Req, Resp);
}

std::vector<uint8_t> Daemon::handleShutdown(const WireRequestHeader &Req) {
  Stopping.store(true);
  LeaseCV.notify_all();
  return okReply(Req);
}

bool Daemon::acquireLease(uint64_t ConnId, uint32_t DeadlineMillis) {
  std::unique_lock<std::mutex> L(LeaseMutex);
  if (LeaseHolder == ConnId)
    return true;
  LeaseQueue.push_back(ConnId);
  auto Ready = [&] {
    return Stopping.load() ||
           (LeaseHolder == 0 && !LeaseQueue.empty() &&
            LeaseQueue.front() == ConnId);
  };
  bool Admitted;
  if (DeadlineMillis == 0) {
    LeaseCV.wait(L, Ready);
    Admitted = !Stopping.load();
  } else {
    Admitted = LeaseCV.wait_for(
                   L, std::chrono::milliseconds(DeadlineMillis), Ready) &&
               !Stopping.load();
  }
  if (!Admitted) {
    LeaseQueue.erase(
        std::remove(LeaseQueue.begin(), LeaseQueue.end(), ConnId),
        LeaseQueue.end());
    LeaseCV.notify_all(); // the next waiter may now be at the front
    if (!Stopping.load())
      count(&DaemonCounters::DeadlineExpirations);
    return false;
  }
  LeaseQueue.pop_front();
  LeaseHolder = ConnId;
  return true;
}

void Daemon::releaseLease(uint64_t ConnId) {
  std::lock_guard<std::mutex> L(LeaseMutex);
  if (LeaseHolder == ConnId) {
    LeaseHolder = 0;
    LeaseCV.notify_all();
  }
}

void Daemon::healAbandonedBatch(Connection &Conn) {
  // The connection died holding the lease. Its wire checkouts never
  // mutated anything (edits only land via ApplyDelta), so healing is a
  // no-op change delta over the checked-out set — the session stays
  // coherent and the next waiter is admitted against a clean state.
  if (Conn.Checkouts.empty() || !Registered.load() || !Svc)
    return;
  try {
    MergeServiceStats St;
    {
      MergeService::DeltaBatch Batch = Svc->beginDelta();
      MergeDelta D;
      for (Function *F : Conn.Checkouts) {
        Batch.checkoutForEdit(F);
        D.Changed.push_back(F);
      }
      St = Batch.apply(D);
    }
    refreshSnapshot(St);
    count(&DaemonCounters::HealedBatches);
  } catch (const std::exception &) {
    // Healing is best-effort; the session's own containment already
    // guarantees coherence.
  }
  Conn.Checkouts.clear();
}

void Daemon::refreshSnapshot(const MergeServiceStats &St) {
  StatsSnapshot S;
  S.Epoch = St.Epoch;
  S.FullRemerges = Svc->fullRemerges();
  S.HostReelections = Svc->hostReelections();
  S.QuarantinedCount = Svc->quarantinedCount();
  S.Attempts = St.Session.Driver.Attempts;
  S.CommittedMerges = St.Session.Driver.CommittedMerges;
  S.CrossModuleMerges = St.Session.CrossModuleMerges;
  S.SizeBefore = St.Session.SizeBefore;
  S.SizeAfter = St.Session.SizeAfter;
  S.CacheHits = St.Session.Driver.CacheHits;
  S.HashClusterCommits = St.Session.Driver.HashClusterCommits;
  S.DegradedToFullRemerge = St.DegradedToFullRemerge;
  S.HostReelected = St.HostReelected;
  std::string Prints;
  for (Module *M : Mods)
    Prints += printModule(*M);
  S.ModuleDigest =
      fnv1a64(reinterpret_cast<const uint8_t *>(Prints.data()), Prints.size());
  std::lock_guard<std::mutex> L(StatsMutex);
  CachedStats = S;
  CachedPrints = std::move(Prints);
}

StatsSnapshot Daemon::snapshotNow() const {
  std::lock_guard<std::mutex> L(StatsMutex);
  return CachedStats;
}

Function *Daemon::findFunction(uint32_t ModuleIdx,
                               const std::string &Name) const {
  if (ModuleIdx >= Mods.size())
    return nullptr;
  Function *F = Mods[ModuleIdx]->getFunction(Name);
  if (!F || F->isDeclaration())
    return nullptr;
  return F;
}
