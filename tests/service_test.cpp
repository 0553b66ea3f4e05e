//===- tests/service_test.cpp - Daemon differential harness -------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
//
// The salssad acceptance harness (service/Daemon.h + service/Client.h):
//
//  1. Differential matrix — N concurrent wire clients drive interleaved
//     delta batches through a real Unix-domain socket; after every epoch
//     and at the end, the daemon's modules and session stats must be
//     byte-identical to the same edit script applied to an in-process
//     MergeService — across {1,4} threads x {1,4} shards.
//  2. Warm restart — the daemon is killed and relaunched with the same
//     --decision-cache path; the new first session must warm-replay
//     (CacheHits > 0) to the byte-identical epoch-0 state, and absorb
//     the same edit script to the byte-identical end state.
//  3. Protocol-fault soak — with FaultKind::Protocol armed (truncated
//     frames, corrupt checksums, mid-request disconnects), every client
//     request must still eventually succeed via clean retries, the
//     session must end byte-identical to the in-process run, and no
//     batch may wedge (zero stuck lease holders; the daemon stays
//     responsive).
//  4. Error paths and the admission deadline — clean per-request status
//     codes, idempotent re-registration, retry-token replay over the
//     wire, out-of-bounds and malformed bodies of every kind answered
//     BadFrame, DeadlineExpired on lease timeout.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "merge/MergeService.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Socket.h"
#include "support/RNG.h"
#include "workloads/EditScript.h"
#include "workloads/Suites.h"
#include "gtest/gtest.h"
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace salssa;

namespace {

BenchmarkProfile daemonProfile() {
  // The merge-service harness profile: clone families across two TUs,
  // three return types (several classes to dirty independently).
  BenchmarkProfile P;
  P.Name = "daemon";
  P.NumFunctions = 26;
  P.MinSize = 6;
  P.AvgSize = 36;
  P.MaxSize = 120;
  P.CloneFamilyPercent = 55;
  P.MinFamily = 2;
  P.MaxFamily = 4;
  P.FamilyDriftPercent = 10;
  P.LoopPercent = 50;
  P.RetTypeVariety = 3;
  P.Seed = 9001;
  return P;
}

EditScriptOptions scriptOptions(uint64_t Seed, unsigned Steps = 4) {
  EditScriptOptions EO;
  EO.NumSteps = Steps;
  EO.ChangesPerStep = 3;
  EO.AddsPerStep = 1;
  EO.DeletesPerStep = 1;
  EO.Generate.TargetSize = 30;
  EO.Generate.RetTypeVariety = 3;
  EO.Seed = Seed;
  return EO;
}

std::string socketPath(const std::string &Tag) {
  std::string Path = "salssa_" + Tag + ".sock";
  std::remove(Path.c_str());
  return Path;
}

std::string cachePath(const std::string &Tag) {
  std::string Path = "salssa_svc_" + Tag + ".bin";
  std::remove(Path.c_str());
  return Path;
}

std::string groupPrints(const std::vector<Module *> &Mods) {
  std::string Prints;
  for (Module *M : Mods)
    Prints += printModule(*M);
  return Prints;
}

uint64_t digestOf(const std::string &Prints) {
  return fnv1a64(reinterpret_cast<const uint8_t *>(Prints.data()),
                 Prints.size());
}

/// The in-process twin the daemon must stay byte-identical to: its own
/// module group built from the same profile, driven by the same specs.
struct Mirror {
  Context Ctx;
  ModuleGroup Group;
  std::vector<Module *> Mods;
  std::unique_ptr<MergeService> Svc;
  MergeServiceStats Last;

  Mirror(const BenchmarkProfile &P, unsigned NumModules, unsigned Threads,
         unsigned Shards) {
    Group = buildBenchmarkModuleGroup(P, Ctx, NumModules);
    for (size_t I = 0; I < Group.size(); ++I)
      Mods.push_back(&Group[I]);
    MergeServiceOptions SO;
    SO.Driver.NumThreads = Threads;
    SO.Driver.ShardCount = Shards;
    SO.Driver.ExplorationThreshold = 3;
    Svc = std::make_unique<MergeService>(SO);
    for (Module *M : Mods)
      Svc->addModule(*M);
    Last = Svc->initialize();
  }

  void applySpec(const EditStepSpec &Spec) {
    MergeService::DeltaBatch Batch = Svc->beginDelta();
    AppliedEditStep A = applyEditStep(
        Mods, Spec, [&](Function *F) { Batch.checkoutForEdit(F); });
    MergeDelta D;
    D.Changed = A.Changed;
    D.Added = A.Added;
    D.Deleted = A.Deleted;
    Last = Batch.apply(D);
  }

  uint64_t digest() const { return digestOf(groupPrints(Mods)); }
};

RegisterModulesRequest registerRequest(unsigned Threads, unsigned Shards) {
  RegisterModulesRequest RM;
  RM.Profile = daemonProfile();
  RM.NumModules = 2;
  RM.NumThreads = Threads;
  RM.ShardCount = Shards;
  RM.ExplorationThreshold = 3;
  return RM;
}

ClientOptions clientOptions(const std::string &Socket) {
  ClientOptions CO;
  CO.SocketPath = Socket;
  CO.MaxRetries = 10;
  CO.BackoffBaseMillis = 2;
  CO.BackoffMaxMillis = 50;
  return CO;
}

/// The wire-vs-mirror equality check: module bytes and the session-level
/// outcome the snapshot carries. Epoch is deliberately excluded (healed
/// or replayed batches may add no-op epochs without changing outcomes).
void expectSnapshotMatchesMirror(const StatsSnapshot &S, const Mirror &M,
                                 const std::string &Tag,
                                 bool CompareWork = true) {
  EXPECT_EQ(S.ModuleDigest, M.digest()) << Tag << ": module bytes diverged";
  EXPECT_EQ(S.CommittedMerges, M.Last.Session.Driver.CommittedMerges) << Tag;
  EXPECT_EQ(S.CrossModuleMerges, M.Last.Session.CrossModuleMerges) << Tag;
  EXPECT_EQ(S.SizeBefore, M.Last.Session.SizeBefore) << Tag;
  EXPECT_EQ(S.SizeAfter, M.Last.Session.SizeAfter) << Tag;
  if (CompareWork)
    EXPECT_EQ(S.Attempts, M.Last.Session.Driver.Attempts) << Tag;
}

//===----------------------------------------------------------------------===//
// 1. The concurrent differential matrix
//===----------------------------------------------------------------------===//

// For each thread x shard configuration: three concurrent wire clients
// apply the script's steps round-robin (a turnstile keeps script order;
// the connections and their batches interleave through the daemon's
// FIFO lease), while a fourth client hammers QueryStats concurrently.
// Every epoch must match the in-process mirror byte-for-byte.
TEST(ServiceDaemon, ConcurrentClientsMatchInProcessAcrossMatrix) {
  for (unsigned Threads : {1u, 4u}) {
    for (unsigned Shards : {1u, 4u}) {
      std::string Tag =
          "t" + std::to_string(Threads) + ".s" + std::to_string(Shards);
      std::string Socket = socketPath("matrix_" + Tag);
      DaemonOptions DOpts;
      DOpts.SocketPath = Socket;
      Daemon D(DOpts);
      ASSERT_TRUE(D.start()) << D.lastError();

      // Register through the wire; epoch 0 must already match.
      Mirror M(daemonProfile(), 2, Threads, Shards);
      DaemonClient Registrar(clientOptions(Socket));
      StatsSnapshot Init;
      DaemonClient::Result R =
          Registrar.registerModules(registerRequest(Threads, Shards), Init);
      ASSERT_TRUE(R.TransportOk && R.Status == StatusCode::Ok)
          << Tag << ": " << R.ErrorMessage;
      expectSnapshotMatchesMirror(Init, M, Tag + " epoch0");

      // Plan the script from a pristine local copy (same spec).
      Context PlanCtx;
      ModuleGroup PlanGroup =
          buildBenchmarkModuleGroup(daemonProfile(), PlanCtx, 2);
      std::vector<Module *> PlanMods;
      for (size_t I = 0; I < PlanGroup.size(); ++I)
        PlanMods.push_back(&PlanGroup[I]);
      EditScript Script(PlanMods, scriptOptions(1200 + Threads));

      constexpr unsigned NumWriters = 3;
      std::mutex TurnMutex;
      std::condition_variable TurnCV;
      unsigned NextStep = 0;
      std::atomic<bool> Failed{false};
      std::atomic<bool> Done{false};

      auto Writer = [&](unsigned K) {
        DaemonClient Client(clientOptions(Socket));
        for (;;) {
          std::unique_lock<std::mutex> L(TurnMutex);
          TurnCV.wait(L, [&] {
            return NextStep >= Script.numSteps() ||
                   NextStep % NumWriters == K;
          });
          if (NextStep >= Script.numSteps())
            return;
          unsigned S = NextStep;
          EditStepSpec Spec = Script.stepSpec(S);
          ApplyDeltaResponse Resp;
          uint64_t Token = mix64(0xAB5000 + Threads * 100 + Shards * 10 + S);
          DaemonClient::Result RR = Client.applyStep(Spec, Token, Resp);
          if (!RR.TransportOk || RR.Status != StatusCode::Ok) {
            ADD_FAILURE() << Tag << " step " << S << ": "
                          << statusCodeName(RR.Status) << " "
                          << RR.ErrorMessage;
            Failed.store(true);
            NextStep = Script.numSteps();
            TurnCV.notify_all();
            return;
          }
          M.applySpec(Spec);
          expectSnapshotMatchesMirror(Resp.Stats, M,
                                      Tag + " step " + std::to_string(S));
          ++NextStep;
          TurnCV.notify_all();
        }
      };
      auto Reader = [&] {
        DaemonClient Client(clientOptions(Socket));
        while (!Done.load()) {
          QueryStatsResponse Resp;
          DaemonClient::Result RR = Client.queryStats(false, Resp);
          if (RR.TransportOk && RR.Status == StatusCode::Ok)
            EXPECT_LE(Resp.Stats.SizeAfter, Resp.Stats.SizeBefore) << Tag;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      };

      std::vector<std::thread> Threads_;
      Threads_.emplace_back(Reader);
      for (unsigned K = 0; K < NumWriters; ++K)
        Threads_.emplace_back(Writer, K);
      for (size_t I = 1; I < Threads_.size(); ++I)
        Threads_[I].join();
      Done.store(true);
      Threads_[0].join();
      ASSERT_FALSE(Failed.load()) << Tag;

      // Full byte-identity witness: the printed modules themselves.
      QueryStatsResponse Final;
      R = Registrar.queryStats(true, Final);
      ASSERT_TRUE(R.TransportOk && R.Status == StatusCode::Ok) << Tag;
      EXPECT_EQ(Final.Prints, groupPrints(M.Mods))
          << Tag << ": final module text diverged";
      EXPECT_EQ(Final.Daemon.DeltasApplied, Script.numSteps()) << Tag;
      EXPECT_EQ(Final.Daemon.RequestErrors, 0u) << Tag;

      D.stop();
    }
  }
}

//===----------------------------------------------------------------------===//
// 2. Warm restart through the decision cache
//===----------------------------------------------------------------------===//

// Daemon A runs with --decision-cache defaults, serves a session, dies.
// Daemon B on the same cache file must warm-replay its first session to
// the byte-identical epoch-0 state (CacheHits > 0, zero extra cost for
// the client), then absorb the same script to the same end state.
TEST(ServiceDaemon, WarmRestartReplaysFirstSessionByteIdentical) {
  std::string Cache = cachePath("daemon_restart");
  std::string Socket = socketPath("restart");
  DaemonOptions DOpts;
  DOpts.SocketPath = Socket;
  DOpts.Defaults.Driver.DecisionCachePath = Cache;

  Context PlanCtx;
  ModuleGroup PlanGroup = buildBenchmarkModuleGroup(daemonProfile(), PlanCtx, 2);
  std::vector<Module *> PlanMods;
  for (size_t I = 0; I < PlanGroup.size(); ++I)
    PlanMods.push_back(&PlanGroup[I]);
  EditScript Script(PlanMods, scriptOptions(4242, 2));

  StatsSnapshot ColdInit;
  uint64_t ColdFinalDigest = 0;
  uint64_t ColdCommits = 0;
  {
    Daemon A(DOpts);
    ASSERT_TRUE(A.start()) << A.lastError();
    DaemonClient Client(clientOptions(Socket));
    DaemonClient::Result R =
        Client.registerModules(registerRequest(1, 1), ColdInit);
    ASSERT_TRUE(R.TransportOk && R.Status == StatusCode::Ok)
        << R.ErrorMessage;
    EXPECT_EQ(ColdInit.CacheHits, 0u) << "first daemon run must be cold";
    for (unsigned S = 0; S < Script.numSteps(); ++S) {
      ApplyDeltaResponse Resp;
      DaemonClient::Result RR =
          Client.applyStep(Script.stepSpec(S), 9100 + S, Resp);
      ASSERT_TRUE(RR.TransportOk && RR.Status == StatusCode::Ok);
      ColdFinalDigest = Resp.Stats.ModuleDigest;
      ColdCommits = Resp.Stats.CommittedMerges;
    }
    A.stop(); // kill without Shutdown: the cache file must already exist
  }

  {
    Daemon B(DOpts);
    ASSERT_TRUE(B.start()) << B.lastError();
    DaemonClient Client(clientOptions(Socket));
    StatsSnapshot WarmInit;
    DaemonClient::Result R =
        Client.registerModules(registerRequest(1, 1), WarmInit);
    ASSERT_TRUE(R.TransportOk && R.Status == StatusCode::Ok)
        << R.ErrorMessage;
    // The restarted daemon's first session replays from the cache —
    // byte-identical state, same committed merges, hits counted. (Warm
    // replay legitimately changes Attempts accounting — skipped
    // non-winners — so work counters are not compared.)
    EXPECT_GT(WarmInit.CacheHits, 0u) << "restart did not warm-replay";
    EXPECT_EQ(WarmInit.ModuleDigest, ColdInit.ModuleDigest);
    EXPECT_EQ(WarmInit.CommittedMerges, ColdInit.CommittedMerges);
    EXPECT_EQ(WarmInit.SizeBefore, ColdInit.SizeBefore);
    EXPECT_EQ(WarmInit.SizeAfter, ColdInit.SizeAfter);
    // Same script, same end bytes (tokens differ; sessions are fresh).
    uint64_t WarmFinalDigest = 0, WarmCommits = 0;
    for (unsigned S = 0; S < Script.numSteps(); ++S) {
      ApplyDeltaResponse Resp;
      DaemonClient::Result RR =
          Client.applyStep(Script.stepSpec(S), 9200 + S, Resp);
      ASSERT_TRUE(RR.TransportOk && RR.Status == StatusCode::Ok);
      WarmFinalDigest = Resp.Stats.ModuleDigest;
      WarmCommits = Resp.Stats.CommittedMerges;
    }
    EXPECT_EQ(WarmFinalDigest, ColdFinalDigest)
        << "post-restart deltas diverged from the first daemon's";
    EXPECT_EQ(WarmCommits, ColdCommits);
    B.stop();
  }
  std::remove(Cache.c_str());
}

//===----------------------------------------------------------------------===//
// 3. Protocol-fault soak
//===----------------------------------------------------------------------===//

// With FaultKind::Protocol armed at a heavy rate, frames get truncated,
// checksums corrupted and connections dropped mid-request — yet every
// apply must eventually land exactly once (the retry token absorbs
// replays), the end state must match the in-process mirror, and the
// daemon must stay fully responsive: zero wedged sessions.
TEST(ServiceDaemon, ProtocolFaultSoakNeverWedgesAndStaysByteIdentical) {
  std::string Socket = socketPath("soak");
  DaemonOptions DOpts;
  DOpts.SocketPath = Socket;
  DOpts.Faults.Seed = 77;
  DOpts.Faults.setRate(FaultKind::Protocol, 200); // 20% of responses damaged
  Daemon D(DOpts);
  ASSERT_TRUE(D.start()) << D.lastError();

  Mirror M(daemonProfile(), 2, 1, 1);
  DaemonClient Registrar(clientOptions(Socket));
  StatsSnapshot Init;
  DaemonClient::Result R =
      Registrar.registerModules(registerRequest(1, 1), Init);
  ASSERT_TRUE(R.TransportOk && R.Status == StatusCode::Ok) << R.ErrorMessage;

  Context PlanCtx;
  ModuleGroup PlanGroup = buildBenchmarkModuleGroup(daemonProfile(), PlanCtx, 2);
  std::vector<Module *> PlanMods;
  for (size_t I = 0; I < PlanGroup.size(); ++I)
    PlanMods.push_back(&PlanGroup[I]);
  EditScript Script(PlanMods, scriptOptions(6001));

  constexpr unsigned NumWriters = 2;
  std::mutex TurnMutex;
  std::condition_variable TurnCV;
  unsigned NextStep = 0;
  std::atomic<bool> Failed{false};
  std::atomic<uint64_t> TotalRetries{0};

  auto Writer = [&](unsigned K) {
    DaemonClient Client(clientOptions(Socket));
    for (;;) {
      std::unique_lock<std::mutex> L(TurnMutex);
      TurnCV.wait(L, [&] {
        return NextStep >= Script.numSteps() || NextStep % NumWriters == K;
      });
      if (NextStep >= Script.numSteps())
        break;
      unsigned S = NextStep;
      ApplyDeltaResponse Resp;
      DaemonClient::Result RR =
          Client.applyStep(Script.stepSpec(S), mix64(0x50AB + S), Resp);
      if (!RR.TransportOk || RR.Status != StatusCode::Ok) {
        ADD_FAILURE() << "soak step " << S << ": "
                      << statusCodeName(RR.Status) << " " << RR.ErrorMessage;
        Failed.store(true);
        NextStep = Script.numSteps();
        TurnCV.notify_all();
        break;
      }
      M.applySpec(Script.stepSpec(S));
      EXPECT_EQ(Resp.Stats.ModuleDigest, M.digest())
          << "soak step " << S << " diverged";
      ++NextStep;
      TurnCV.notify_all();
    }
    TotalRetries.fetch_add(Client.retriesUsed());
  };

  std::vector<std::thread> Writers;
  for (unsigned K = 0; K < NumWriters; ++K)
    Writers.emplace_back(Writer, K);
  for (std::thread &T : Writers)
    T.join();
  ASSERT_FALSE(Failed.load());

  // Zero wedged sessions: a fresh client must get the lease and stats
  // immediately (every batch either applied, replayed, or was healed).
  DaemonClient Probe(clientOptions(Socket));
  ApplyDeltaResponse Empty;
  EditStepSpec Noop;
  R = Probe.applyStep(Noop, 0xF1A7, Empty);
  ASSERT_TRUE(R.TransportOk && R.Status == StatusCode::Ok)
      << "daemon wedged after the soak: " << R.ErrorMessage;
  QueryStatsResponse Final;
  R = Probe.queryStats(true, Final);
  ASSERT_TRUE(R.TransportOk && R.Status == StatusCode::Ok);
  EXPECT_EQ(Final.Prints, groupPrints(M.Mods))
      << "soak end state diverged from in-process";
  // The soak must have actually soaked: injected faults on the daemon
  // side, transport retries on the client side.
  EXPECT_GT(Final.Daemon.ProtocolFaultsInjected, 0u);
  EXPECT_GT(TotalRetries.load() + Probe.retriesUsed(), 0u);
  // Every scripted delta landed exactly once — the token cache absorbed
  // every retried apply (the empty probe delta is the +1). No writer
  // ever checked functions out over the wire, so nothing needed healing.
  EXPECT_EQ(Final.Daemon.DeltasApplied, Script.numSteps() + 1);
  EXPECT_EQ(Final.Daemon.HealedBatches, 0u);
  D.stop();
}

//===----------------------------------------------------------------------===//
// 4. Error paths, idempotency, admission deadline
//===----------------------------------------------------------------------===//

TEST(ServiceDaemon, CleanStatusCodesOnEveryErrorPath) {
  std::string Socket = socketPath("errors");
  DaemonOptions DOpts;
  DOpts.SocketPath = Socket;
  Daemon D(DOpts);
  ASSERT_TRUE(D.start()) << D.lastError();
  DaemonClient Client(clientOptions(Socket));

  // Session requests before RegisterModules.
  DaemonClient::Result R = Client.beginDelta();
  EXPECT_EQ(R.Status, StatusCode::NotRegistered);
  ApplyDeltaResponse AResp;
  EditStepSpec Noop;
  R = Client.applyDelta(Noop, 1, AResp);
  EXPECT_EQ(R.Status, StatusCode::NotRegistered);

  StatsSnapshot Init;
  R = Client.registerModules(registerRequest(1, 1), Init);
  ASSERT_TRUE(R.TransportOk && R.Status == StatusCode::Ok) << R.ErrorMessage;

  // Idempotent re-registration with the identical spec...
  StatsSnapshot Again;
  R = Client.registerModules(registerRequest(1, 1), Again);
  EXPECT_EQ(R.Status, StatusCode::Ok);
  EXPECT_EQ(Again.ModuleDigest, Init.ModuleDigest);
  // ...but a different spec is refused.
  RegisterModulesRequest Other = registerRequest(1, 1);
  Other.Profile.Seed = 999;
  R = Client.registerModules(Other, Again);
  EXPECT_EQ(R.Status, StatusCode::AlreadyRegistered);

  // Checkout/apply without a batch.
  R = Client.checkoutForEdit(0, "whatever");
  EXPECT_EQ(R.Status, StatusCode::NoBatch);
  R = Client.applyDelta(Noop, 2, AResp);
  EXPECT_EQ(R.Status, StatusCode::NoBatch);

  // Unknown function inside a held batch.
  R = Client.beginDelta();
  ASSERT_EQ(R.Status, StatusCode::Ok);
  R = Client.checkoutForEdit(0, "no_such_function");
  EXPECT_EQ(R.Status, StatusCode::UnknownFunction);
  R = Client.checkoutForEdit(99, "f");
  EXPECT_EQ(R.Status, StatusCode::UnknownFunction);
  R = Client.applyDelta(Noop, 3, AResp); // close the batch cleanly
  EXPECT_EQ(R.Status, StatusCode::Ok);

  // Wire-level retry-token idempotency: the same token replays the
  // remembered response (Replayed=1) and does not advance the session.
  ApplyDeltaResponse First, Second;
  R = Client.applyStep(Noop, 0x70CEC, First);
  ASSERT_EQ(R.Status, StatusCode::Ok);
  EXPECT_FALSE(First.Replayed);
  R = Client.applyStep(Noop, 0x70CEC, Second);
  ASSERT_EQ(R.Status, StatusCode::Ok);
  EXPECT_TRUE(Second.Replayed) << "same token must replay, not re-apply";
  EXPECT_EQ(Second.Stats.Epoch, First.Stats.Epoch)
      << "a replayed token advanced the session";
  EXPECT_EQ(Second.Stats.ModuleDigest, First.Stats.ModuleDigest);

  D.stop();
}

TEST(ServiceDaemon, OutOfBoundsRegisterModulesIsBadFrame) {
  // Every field that sizes server-side work is bounded at the boundary:
  // each out-of-range value is refused with BadFrame and a reason, and
  // none of them registers anything.
  std::string Socket = socketPath("register_bounds");
  DaemonOptions DOpts;
  DOpts.SocketPath = Socket;
  Daemon D(DOpts);
  ASSERT_TRUE(D.start()) << D.lastError();
  DaemonClient Client(clientOptions(Socket));

  using Mutation = std::function<void(RegisterModulesRequest &)>;
  const std::vector<std::pair<const char *, Mutation>> Cases = {
      {"NumModules 0", [](auto &RM) { RM.NumModules = 0; }},
      {"NumModules 65", [](auto &RM) { RM.NumModules = 65; }},
      {"NumFunctions 0", [](auto &RM) { RM.Profile.NumFunctions = 0; }},
      {"NumFunctions 65537",
       [](auto &RM) { RM.Profile.NumFunctions = 65537; }},
      {"MinSize > AvgSize", [](auto &RM) { RM.Profile.MinSize = 37; }},
      {"AvgSize > MaxSize", [](auto &RM) { RM.Profile.AvgSize = 121; }},
      {"MaxSize 4097", [](auto &RM) { RM.Profile.MaxSize = 4097; }},
      {"CloneFamilyPercent 101",
       [](auto &RM) { RM.Profile.CloneFamilyPercent = 101; }},
      {"FamilyDriftPercent 101",
       [](auto &RM) { RM.Profile.FamilyDriftPercent = 101; }},
      {"SyntacticDriftPercent 101",
       [](auto &RM) { RM.Profile.SyntacticDriftPercent = 101; }},
      {"LoopPercent 101", [](auto &RM) { RM.Profile.LoopPercent = 101; }},
      {"InvokePercent 101", [](auto &RM) { RM.Profile.InvokePercent = 101; }},
      {"NumThreads 257", [](auto &RM) { RM.NumThreads = 257; }},
      {"ShardCount 257", [](auto &RM) { RM.ShardCount = 257; }},
      {"ExplorationThreshold 0",
       [](auto &RM) { RM.ExplorationThreshold = 0; }},
      {"ExplorationThreshold 65",
       [](auto &RM) { RM.ExplorationThreshold = 65; }},
      {"Selection 3",
       [](auto &RM) { RM.Selection = static_cast<SelectionStrategy>(3); }},
      {"Host 3", [](auto &RM) { RM.Host = static_cast<HostPolicy>(3); }},
      {"MinFamily > MaxFamily",
       [](auto &RM) {
         RM.Profile.MinFamily = 5;
         RM.Profile.MaxFamily = 4;
       }},
      // The body that used to kill the daemon: the generator's family
      // draw wrapped to nextBelow(0).
      {"MaxFamily 4294967295",
       [](auto &RM) {
         RM.Profile.CloneFamilyPercent = 100;
         RM.Profile.MinFamily = 0;
         RM.Profile.MaxFamily = 4294967295u;
       }},
      {"MaxFamily 65537", [](auto &RM) { RM.Profile.MaxFamily = 65537; }},
      {"GiantPairSize 4097",
       [](auto &RM) { RM.Profile.GiantPairSize = 4097; }},
      {"DecisionCachePath set",
       [](auto &RM) { RM.DecisionCachePath = "client_chosen.bin"; }},
  };
  for (const auto &[Name, Mutate] : Cases) {
    SCOPED_TRACE(Name);
    RegisterModulesRequest RM = registerRequest(1, 1);
    Mutate(RM);
    StatsSnapshot Out;
    DaemonClient::Result R = Client.registerModules(RM, Out);
    EXPECT_TRUE(R.TransportOk);
    EXPECT_EQ(R.Status, StatusCode::BadFrame);
    EXPECT_FALSE(R.ErrorMessage.empty());
  }
  // Nothing registered: the session is still open for a valid spec.
  StatsSnapshot Init;
  DaemonClient::Result R = Client.registerModules(registerRequest(1, 1), Init);
  EXPECT_EQ(R.Status, StatusCode::Ok) << R.ErrorMessage;
  D.stop();
}

TEST(ServiceDaemon, OutOfBoundsApplyDeltaIsBadFrame) {
  std::string Socket = socketPath("apply_bounds");
  DaemonOptions DOpts;
  DOpts.SocketPath = Socket;
  Daemon D(DOpts);
  ASSERT_TRUE(D.start()) << D.lastError();
  DaemonClient Client(clientOptions(Socket));
  StatsSnapshot Init;
  ASSERT_EQ(Client.registerModules(registerRequest(1, 1), Init).Status,
            StatusCode::Ok);
  ASSERT_EQ(Client.beginDelta().Status, StatusCode::Ok);

  auto opAt = [](uint32_t ModuleIdx, EditOp::Kind K) {
    EditOp O;
    O.K = K;
    O.ModuleIdx = ModuleIdx;
    O.Name = "f";
    O.OpSeed = 1;
    return O;
  };
  using Mutation = std::function<void(EditStepSpec &)>;
  const std::vector<std::pair<const char *, Mutation>> Cases = {
      {"unknown op kind",
       [&](auto &S) {
         S.Changes.push_back(opAt(0, static_cast<EditOp::Kind>(3)));
       }},
      {"change ModuleIdx 2",
       [&](auto &S) { S.Changes.push_back(opAt(2, EditOp::Change)); }},
      {"add ModuleIdx 2",
       [&](auto &S) { S.Adds.push_back(opAt(2, EditOp::Add)); }},
      {"delete ModuleIdx 2",
       [&](auto &S) { S.Deletes.push_back(opAt(2, EditOp::Delete)); }},
      {"MutatePercent 101", [](auto &S) { S.Drift.MutatePercent = 101; }},
      {"LoopPercent 101", [](auto &S) { S.Generate.LoopPercent = 101; }},
      {"TargetSize 4097", [](auto &S) { S.Generate.TargetSize = 4097; }},
      {"65537 edit ops",
       [&](auto &S) {
         S.Deletes.assign(20000, opAt(0, EditOp::Delete));
         S.Changes.assign(20000, opAt(0, EditOp::Change));
         S.Adds.assign(25537, opAt(0, EditOp::Add));
       }},
  };
  uint64_t Token = 0xB0B;
  for (const auto &[Name, Mutate] : Cases) {
    SCOPED_TRACE(Name);
    EditStepSpec Spec;
    Mutate(Spec);
    ApplyDeltaResponse Resp;
    DaemonClient::Result R = Client.applyDelta(Spec, ++Token, Resp);
    EXPECT_TRUE(R.TransportOk);
    EXPECT_EQ(R.Status, StatusCode::BadFrame);
    EXPECT_FALSE(R.ErrorMessage.empty());
  }
  // The batch is still held and the session untouched.
  ApplyDeltaResponse Resp;
  DaemonClient::Result R = Client.applyDelta(EditStepSpec(), ++Token, Resp);
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.ErrorMessage;
  EXPECT_EQ(Resp.Stats.ModuleDigest, Init.ModuleDigest);
  D.stop();
}

/// The daemon's answer to one hand-built request payload.
struct RawAnswer {
  bool Received = false;
  WireResponseHeader Hdr;
  std::string Message;
};

/// Sends \p Kind with the raw \p Body on a fresh connection: bodies
/// DaemonClient cannot produce (truncated, trailing bytes, bad booleans).
RawAnswer rawRequest(const std::string &Socket, RequestKind Kind,
                     const std::vector<uint8_t> &Body) {
  RawAnswer A;
  sockaddr_un Addr;
  if (!unixSocketAddress(Socket, Addr))
    return A;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return A;
  timeval Timeout{10, 0}; // a daemon that never answers fails the test
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  std::vector<uint8_t> Payload =
      toBytes(WireRequestHeader{Kind, 0x7E57, 0});
  Payload.insert(Payload.end(), Body.begin(), Body.end());
  FrameAssembler Asm;
  std::vector<uint8_t> Reply;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0 &&
      sendAll(Fd, encodeFrame(Payload))) {
    uint8_t Buf[4096];
    ssize_t N = 0;
    while (!(A.Received = Asm.next(Reply)) &&
           (N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
      Asm.feed(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  ByteReader R(Reply.data(), Reply.size());
  A.Received = A.Received && decodeResponseHeader(R, A.Hdr);
  uint32_t Version = 0;
  if (A.Received && A.Hdr.Status != StatusCode::Ok)
    decodeErrorBody(R, A.Hdr.Status, Version, A.Message);
  return A;
}

TEST(ServiceDaemon, MalformedBodiesOfEveryKindAreBadFrame) {
  // One decoding rule for every request kind: a truncated body, a boolean
  // byte other than 0/1, or bytes after the body answer BadFrame, count in
  // RequestErrors and change nothing.
  std::string Socket = socketPath("malformed");
  DaemonOptions DOpts;
  DOpts.SocketPath = Socket;
  Daemon D(DOpts);
  ASSERT_TRUE(D.start()) << D.lastError();
  DaemonClient Client(clientOptions(Socket));
  StatsSnapshot Init;
  ASSERT_EQ(Client.registerModules(registerRequest(1, 1), Init).Status,
            StatusCode::Ok);
  ApplyDeltaRequest Apply;
  Apply.Token = 0xBAD;
  auto withTrailingByte = [](std::vector<uint8_t> Bytes) {
    Bytes.push_back(0);
    return Bytes;
  };
  const std::vector<std::tuple<const char *, RequestKind, std::vector<uint8_t>>>
      Cases = {
          {"QueryStats truncated", RequestKind::QueryStats, {}},
          {"QueryStats IncludePrints 2", RequestKind::QueryStats, {2}},
          {"RegisterModules trailing byte", RequestKind::RegisterModules,
           withTrailingByte(toBytes(registerRequest(1, 1)))},
          {"BeginDelta trailing byte", RequestKind::BeginDelta, {0}},
          {"CheckoutForEdit trailing byte", RequestKind::CheckoutForEdit,
           withTrailingByte(toBytes(CheckoutRequest{0, "f"}))},
          {"ApplyDelta trailing byte", RequestKind::ApplyDelta,
           withTrailingByte(toBytes(Apply))},
          {"QueryStats trailing byte", RequestKind::QueryStats, {0, 0}},
          {"Shutdown trailing byte", RequestKind::Shutdown, {0}},
      };
  const uint64_t ErrorsBefore = D.counters().RequestErrors;
  for (const auto &[Name, Kind, Body] : Cases) {
    SCOPED_TRACE(Name);
    RawAnswer A = rawRequest(Socket, Kind, Body);
    ASSERT_TRUE(A.Received);
    EXPECT_EQ(A.Hdr.Kind, Kind);
    EXPECT_EQ(A.Hdr.Status, StatusCode::BadFrame);
    EXPECT_FALSE(A.Message.empty());
  }
  EXPECT_EQ(D.counters().RequestErrors - ErrorsBefore, Cases.size());
  // The daemon still serves, nothing shut down or changed the session.
  EXPECT_TRUE(D.running());
  QueryStatsResponse Stats;
  ASSERT_EQ(Client.queryStats(false, Stats).Status, StatusCode::Ok);
  EXPECT_EQ(Stats.Stats.Epoch, Init.Epoch);
  EXPECT_EQ(Stats.Stats.ModuleDigest, Init.ModuleDigest);
  ApplyDeltaResponse Resp;
  ASSERT_EQ(Client.applyStep(EditStepSpec(), Apply.Token, Resp).Status,
            StatusCode::Ok);
  EXPECT_FALSE(Resp.Replayed) << "a refused ApplyDelta filled the token cache";
  D.stop();
}

TEST(ServiceDaemon, LeaseAdmissionDeadlineExpiresCleanly) {
  std::string Socket = socketPath("deadline");
  DaemonOptions DOpts;
  DOpts.SocketPath = Socket;
  Daemon D(DOpts);
  ASSERT_TRUE(D.start()) << D.lastError();

  DaemonClient Holder(clientOptions(Socket));
  StatsSnapshot Init;
  DaemonClient::Result R =
      Holder.registerModules(registerRequest(1, 1), Init);
  ASSERT_TRUE(R.TransportOk && R.Status == StatusCode::Ok) << R.ErrorMessage;
  ASSERT_EQ(Holder.beginDelta().Status, StatusCode::Ok);

  // A second client with a short admission deadline must fail cleanly —
  // DeadlineExpired, no side effects — while the lease is held.
  ClientOptions Short = clientOptions(Socket);
  Short.LeaseDeadlineMillis = 100;
  Short.MaxRetries = 0; // a deadline answer is an answer, not a failure
  DaemonClient Waiter(Short);
  R = Waiter.beginDelta();
  EXPECT_EQ(R.Status, StatusCode::DeadlineExpired);

  // The holder finishes; now the same waiter is admitted promptly.
  ApplyDeltaResponse Resp;
  EditStepSpec Noop;
  ASSERT_EQ(Holder.applyDelta(Noop, 0xDEAD1, Resp).Status, StatusCode::Ok);
  R = Waiter.beginDelta();
  EXPECT_EQ(R.Status, StatusCode::Ok);
  ASSERT_EQ(Waiter.applyDelta(Noop, 0xDEAD2, Resp).Status, StatusCode::Ok);

  EXPECT_GE(D.counters().DeadlineExpirations, 1u);
  D.stop();
}

// An abandoned batch (client dies holding the lease, functions checked
// out) must heal: the next client is admitted against a coherent
// session whose bytes did not drift.
TEST(ServiceDaemon, DisconnectedBatchHealsAndAdmitsNextWriter) {
  std::string Socket = socketPath("heal");
  DaemonOptions DOpts;
  DOpts.SocketPath = Socket;
  Daemon D(DOpts);
  ASSERT_TRUE(D.start()) << D.lastError();

  Mirror M(daemonProfile(), 2, 1, 1);
  DaemonClient Survivor(clientOptions(Socket));
  StatsSnapshot Init;
  DaemonClient::Result R =
      Survivor.registerModules(registerRequest(1, 1), Init);
  ASSERT_TRUE(R.TransportOk && R.Status == StatusCode::Ok) << R.ErrorMessage;
  std::string SomeFunction;
  for (Function *F : M.Mods[0]->functions())
    if (!F->isDeclaration()) {
      SomeFunction = F->getName();
      break;
    }
  ASSERT_FALSE(SomeFunction.empty());

  {
    // This client acquires the lease, checks a function out, and dies.
    DaemonClient Doomed(clientOptions(Socket));
    ASSERT_EQ(Doomed.beginDelta().Status, StatusCode::Ok);
    ASSERT_EQ(Doomed.checkoutForEdit(0, SomeFunction).Status, StatusCode::Ok);
  } // destructor closes the socket mid-batch

  // The survivor must be admitted (the daemon healed the abandoned
  // batch) and the session bytes must not have drifted.
  ApplyDeltaResponse Resp;
  EditStepSpec Noop;
  R = Survivor.applyStep(Noop, 0x4EA1, Resp);
  ASSERT_TRUE(R.TransportOk && R.Status == StatusCode::Ok)
      << "session wedged after an abandoned batch";
  EXPECT_EQ(Resp.Stats.ModuleDigest, M.digest())
      << "healing changed module bytes";
  EXPECT_GE(D.counters().HealedBatches, 1u);
  D.stop();
}

} // namespace
