//===- service/Daemon.cpp - The salssad merge daemon --------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"
#include "ir/IRPrinter.h"
#include "workloads/EditScript.h"
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace salssa;

namespace {

bool sendAll(int Fd, const uint8_t *Data, size_t N) {
  size_t Sent = 0;
  while (Sent < N) {
    ssize_t W = ::send(Fd, Data + Sent, N - Sent, MSG_NOSIGNAL);
    if (W <= 0) {
      if (W < 0 && (errno == EINTR || errno == EAGAIN))
        continue;
      return false;
    }
    Sent += static_cast<size_t>(W);
  }
  return true;
}

std::string faultKey(uint64_t ConnId, uint64_t RequestId) {
  return "conn" + std::to_string(ConnId) + ".req" + std::to_string(RequestId);
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
  if (Options.SocketPath.empty() ||
      Options.SocketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
    LastError = "invalid socket path";
    return false;
  }
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    LastError = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(Options.SocketPath.c_str());
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Options.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
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
    {
      std::lock_guard<std::mutex> L(StatsMutex);
      ++Counters.Connections;
    }
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
      {
        std::lock_guard<std::mutex> L(StatsMutex);
        ++Counters.RequestsServed;
      }
      // Peek the request identity for the fault key (a malformed header
      // still yields deterministic bytes for the key).
      ByteReader HR(Payload.data(), Payload.size());
      WireRequestHeader Req;
      decodeRequestHeader(HR, Req);
      std::string Key = faultKey(ConnId, Req.RequestId);
      if (faultFires(Options.Faults, FaultKind::Protocol, Key,
                     "disconnect")) {
        // Drop before processing: nothing applied, a retry re-applies.
        std::lock_guard<std::mutex> L(StatsMutex);
        ++Counters.ProtocolFaultsInjected;
        Alive = false;
        break;
      }
      std::vector<uint8_t> Response = handleRequest(Conn, Payload);
      std::vector<uint8_t> Frame = encodeFrame(Response);
      if (faultFires(Options.Faults, FaultKind::Protocol, Key, "truncate")) {
        {
          std::lock_guard<std::mutex> L(StatsMutex);
          ++Counters.ProtocolFaultsInjected;
        }
        sendAll(Fd, Frame.data(), Frame.size() / 2);
        Alive = false;
        break;
      }
      if (faultFires(Options.Faults, FaultKind::Protocol, Key, "checksum")) {
        {
          std::lock_guard<std::mutex> L(StatsMutex);
          ++Counters.ProtocolFaultsInjected;
        }
        Frame[12] ^= 0xFF; // first checksum byte
        sendAll(Fd, Frame.data(), Frame.size());
        Alive = false;
        break;
      }
      if (!sendAll(Fd, Frame.data(), Frame.size()))
        Alive = false;
    }
    if (Asm.error() != FrameError::None) {
      // Desynchronized stream: best-effort error frame, then tear down.
      WireRequestHeader Req;
      std::vector<uint8_t> Err = buildErrorPayload(
          Req,
          Asm.error() == FrameError::BadVersion ? StatusCode::VersionMismatch
                                                : StatusCode::BadFrame,
          "frame error: " + std::to_string(static_cast<int>(Asm.error())));
      {
        std::lock_guard<std::mutex> L(StatsMutex);
        ++Counters.RequestErrors;
      }
      std::vector<uint8_t> Frame = encodeFrame(Err);
      sendAll(Fd, Frame.data(), Frame.size());
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
  auto error = [&](StatusCode S, const std::string &Msg) {
    std::lock_guard<std::mutex> L(StatsMutex);
    ++Counters.RequestErrors;
    return buildErrorPayload(Req, S, Msg);
  };
  if (!decodeRequestHeader(R, Req))
    return error(StatusCode::BadFrame, "short request header");
  switch (Req.Kind) {
  case RequestKind::RegisterModules:
    return handleRegister(Req, R);
  case RequestKind::BeginDelta: {
    std::vector<uint8_t> Resp = handleBeginDelta(Conn, Req);
    return Resp;
  }
  case RequestKind::CheckoutForEdit:
    return handleCheckout(Conn, Req, R);
  case RequestKind::ApplyDelta:
    return handleApplyDelta(Conn, Req, R);
  case RequestKind::QueryStats:
    return handleQueryStats(Req, R);
  case RequestKind::Shutdown:
    return handleShutdown(Req);
  }
  return error(StatusCode::UnknownRequest,
               "unknown request kind " +
                   std::to_string(static_cast<int>(Req.Kind)));
}

std::vector<uint8_t> Daemon::handleRegister(const WireRequestHeader &Req,
                                            ByteReader &Body) {
  auto error = [&](StatusCode S, const std::string &Msg) {
    std::lock_guard<std::mutex> L(StatsMutex);
    ++Counters.RequestErrors;
    return buildErrorPayload(Req, S, Msg);
  };
  // Idempotency witness: the raw body bytes, before decoding.
  std::vector<uint8_t> Bytes;
  Bytes.reserve(Body.remaining());
  {
    ByteReader Probe = Body;
    while (!Probe.atEnd())
      Bytes.push_back(Probe.u8());
  }
  std::lock_guard<std::mutex> Setup(SessionSetupMutex);
  if (Registered.load()) {
    if (Bytes == RegisterBody) {
      ByteWriter W;
      encodeResponseHeader(W, {Req.Kind, Req.RequestId, StatusCode::Ok});
      snapshotNow().encode(W);
      return W.buffer();
    }
    return error(StatusCode::AlreadyRegistered,
                 "session already registered with a different spec");
  }
  RegisterModulesRequest RM;
  if (!RM.decode(Body))
    return error(StatusCode::BadFrame, "malformed RegisterModules body");
  if (std::string Why = validateRequest(RM); !Why.empty())
    return error(StatusCode::BadFrame, Why);
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
    return error(StatusCode::InternalError,
                 std::string("initialize failed: ") + E.what());
  }
  RegisterBody = std::move(Bytes);
  Registered.store(true);
  ByteWriter W;
  encodeResponseHeader(W, {Req.Kind, Req.RequestId, StatusCode::Ok});
  snapshotNow().encode(W);
  return W.buffer();
}

std::vector<uint8_t> Daemon::handleBeginDelta(Connection &Conn,
                                              const WireRequestHeader &Req) {
  auto error = [&](StatusCode S, const std::string &Msg) {
    std::lock_guard<std::mutex> L(StatsMutex);
    ++Counters.RequestErrors;
    return buildErrorPayload(Req, S, Msg);
  };
  if (!Registered.load())
    return error(StatusCode::NotRegistered, "RegisterModules first");
  if (Stopping.load())
    return error(StatusCode::ShuttingDown, "daemon is draining");
  if (!acquireLease(Conn.Id, Req.DeadlineMillis)) {
    if (Stopping.load())
      return error(StatusCode::ShuttingDown, "daemon is draining");
    return error(StatusCode::DeadlineExpired,
                 "writer lease not acquired within the deadline");
  }
  Conn.HoldsLease = true;
  ByteWriter W;
  encodeResponseHeader(W, {Req.Kind, Req.RequestId, StatusCode::Ok});
  return W.buffer();
}

std::vector<uint8_t> Daemon::handleCheckout(Connection &Conn,
                                            const WireRequestHeader &Req,
                                            ByteReader &Body) {
  auto error = [&](StatusCode S, const std::string &Msg) {
    std::lock_guard<std::mutex> L(StatsMutex);
    ++Counters.RequestErrors;
    return buildErrorPayload(Req, S, Msg);
  };
  if (!Registered.load())
    return error(StatusCode::NotRegistered, "RegisterModules first");
  if (!Conn.HoldsLease)
    return error(StatusCode::NoBatch, "BeginDelta first");
  CheckoutRequest CR;
  if (!CR.decode(Body))
    return error(StatusCode::BadFrame, "malformed CheckoutForEdit body");
  Function *F = findFunction(CR.ModuleIdx, CR.Name);
  if (!F)
    return error(StatusCode::UnknownFunction,
                 "no definition " + CR.Name + " in module " +
                     std::to_string(CR.ModuleIdx));
  if (std::find(Conn.Checkouts.begin(), Conn.Checkouts.end(), F) ==
      Conn.Checkouts.end())
    Conn.Checkouts.push_back(F);
  ByteWriter W;
  encodeResponseHeader(W, {Req.Kind, Req.RequestId, StatusCode::Ok});
  return W.buffer();
}

std::vector<uint8_t> Daemon::handleApplyDelta(Connection &Conn,
                                              const WireRequestHeader &Req,
                                              ByteReader &Body) {
  auto error = [&](StatusCode S, const std::string &Msg) {
    std::lock_guard<std::mutex> L(StatsMutex);
    ++Counters.RequestErrors;
    return buildErrorPayload(Req, S, Msg);
  };
  if (!Registered.load())
    return error(StatusCode::NotRegistered, "RegisterModules first");
  ApplyDeltaRequest AR;
  if (!AR.decode(Body))
    return error(StatusCode::BadFrame, "malformed ApplyDelta body");
  if (std::string Why = validateRequest(AR, Mods.size()); !Why.empty())
    return error(StatusCode::BadFrame, Why);
  {
    // Idempotent retry: a token we already served replays the remembered
    // response body (encoded with Replayed=1) and never re-applies.
    std::lock_guard<std::mutex> L(TokenMutex);
    if (const std::vector<uint8_t> *Cached = TokenCache.lookup(AR.Token)) {
      {
        std::lock_guard<std::mutex> SL(StatsMutex);
        ++Counters.TokenReplays;
      }
      if (Conn.HoldsLease) { // the logical batch this retry belongs to is done
        Conn.Checkouts.clear();
        Conn.HoldsLease = false;
        releaseLease(Conn.Id);
      }
      ByteWriter W;
      encodeResponseHeader(W, {Req.Kind, Req.RequestId, StatusCode::Ok});
      for (uint8_t B : *Cached)
        W.u8(B);
      return W.buffer();
    }
  }
  if (!Conn.HoldsLease)
    return error(StatusCode::NoBatch, "BeginDelta first");
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
    return error(StatusCode::InternalError,
                 std::string("delta failed: ") + E.what());
  }
  refreshSnapshot(St);
  {
    std::lock_guard<std::mutex> L(StatsMutex);
    ++Counters.DeltasApplied;
  }
  Conn.Checkouts.clear();
  Conn.HoldsLease = false;
  releaseLease(Conn.Id);

  ApplyDeltaResponse Resp;
  Resp.Stats = snapshotNow();
  Resp.Replayed = false;
  ByteWriter Fresh;
  Resp.encode(Fresh);
  Resp.Replayed = true;
  ByteWriter Replay;
  Resp.encode(Replay);
  {
    std::lock_guard<std::mutex> L(TokenMutex);
    TokenCache.remember(AR.Token, Replay.buffer());
  }
  ByteWriter W;
  encodeResponseHeader(W, {Req.Kind, Req.RequestId, StatusCode::Ok});
  for (uint8_t B : Fresh.buffer())
    W.u8(B);
  return W.buffer();
}

std::vector<uint8_t> Daemon::handleQueryStats(const WireRequestHeader &Req,
                                              ByteReader &Body) {
  QueryStatsRequest QR;
  QR.decode(Body); // zero-initialized on malformed body is fine
  QueryStatsResponse Resp;
  {
    std::lock_guard<std::mutex> L(StatsMutex);
    Resp.Stats = CachedStats;
    Resp.Daemon = Counters;
    if (QR.IncludePrints)
      Resp.Prints = CachedPrints;
  }
  ByteWriter W;
  encodeResponseHeader(W, {Req.Kind, Req.RequestId, StatusCode::Ok});
  Resp.encode(W);
  return W.buffer();
}

std::vector<uint8_t> Daemon::handleShutdown(const WireRequestHeader &Req) {
  Stopping.store(true);
  LeaseCV.notify_all();
  ByteWriter W;
  encodeResponseHeader(W, {Req.Kind, Req.RequestId, StatusCode::Ok});
  return W.buffer();
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
    if (!Stopping.load()) {
      std::lock_guard<std::mutex> SL(StatsMutex);
      ++Counters.DeadlineExpirations;
    }
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
    std::lock_guard<std::mutex> L(StatsMutex);
    ++Counters.HealedBatches;
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

DaemonCounters Daemon::countersNow() const {
  std::lock_guard<std::mutex> L(StatsMutex);
  return Counters;
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
