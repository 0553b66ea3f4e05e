//===- tests/session_digest_test.cpp - Pinned output digests per route ---------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Every way into the merge pipeline must keep producing the exact bytes it
// produced when these digests were captured. Each route hashes (FNV-1a,
// 64-bit) its serial merge records — names, commit flag, attempt outcome —
// followed by the printed IR of every module it touched, over a fixed pool:
//
//   - runFunctionMerging, SalSSA and FMSA;
//   - a 4-module CrossModuleMerger session at ShardCount {1, 4} x
//     NumThreads {1, 4};
//   - a HashClustering session with a DecisionCachePath, cold then warm;
//   - a MergeService driven through a 3-epoch edit script;
//   - every attempt a serial run records on a pool with invokes,
//     committed or discarded, regenerated through attemptMerge.
//
// The equality tests elsewhere compare one route against another inside
// one build; these constants compare every route against history, so a
// refactor that changes all routes the same way still fails here.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "merge/CrossModuleMerger.h"
#include "merge/FunctionMerger.h"
#include "merge/MergeService.h"
#include "workloads/EditScript.h"
#include "workloads/Suites.h"
#include <cinttypes>
#include <cstdio>
#include <gtest/gtest.h>

using namespace salssa;

namespace {

uint64_t fnv1a(uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

constexpr uint64_t FnvBasis = 0xcbf29ce484222325ULL;

/// Folds \p Records and the prints of \p Mods into \p H.
uint64_t digest(uint64_t H, const std::vector<MergeRecord> &Records,
                const std::vector<Module *> &Mods) {
  for (const MergeRecord &R : Records)
    H = fnv1a(H, R.Name1 + "|" + R.Name2 + "|" + (R.Committed ? "C" : "-") +
                     std::to_string(int(R.Stats.Outcome)) + "\n");
  for (Module *M : Mods) {
    EXPECT_TRUE(verifyModule(*M).ok()) << M->getName();
    H = fnv1a(H, printModule(*M));
  }
  return H;
}

std::vector<Module *> modsOf(const ModuleGroup &Group) {
  std::vector<Module *> Mods;
  for (size_t I = 0; I < Group.size(); ++I)
    Mods.push_back(&Group[I]);
  return Mods;
}

BenchmarkProfile profile(const char *Name, uint64_t Seed, unsigned NumFns,
                         unsigned Variety, unsigned DriftPercent = 10) {
  BenchmarkProfile P;
  P.Name = Name;
  P.NumFunctions = NumFns;
  P.MinSize = 6;
  P.AvgSize = 40;
  P.MaxSize = 160;
  P.CloneFamilyPercent = 55;
  P.MinFamily = 2;
  P.MaxFamily = 5;
  P.FamilyDriftPercent = DriftPercent;
  P.LoopPercent = 50;
  P.RetTypeVariety = Variety;
  P.Seed = Seed;
  return P;
}

MergeDriverOptions options(unsigned NumThreads, unsigned Shards) {
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 3;
  DO.NumThreads = NumThreads;
  DO.ShardCount = Shards;
  return DO;
}

/// Reports a digest in the form the expectation tables below use.
void expectDigest(uint64_t Got, uint64_t Want, const std::string &Route) {
  std::printf("  digest %-28s 0x%016" PRIx64 "\n", Route.c_str(), Got);
  EXPECT_EQ(Got, Want) << Route;
}

TEST(SessionDigestTest, RunFunctionMerging) {
  struct Case {
    MergeTechnique Tech;
    const char *Route;
    uint64_t Want;
  };
  for (Case C :
       {Case{MergeTechnique::SalSSA, "driver salssa", 0x189d1dd2273e76b1ULL},
        Case{MergeTechnique::FMSA, "driver fmsa", 0x75e920ad015741e6ULL}}) {
    Context Ctx;
    std::unique_ptr<Module> M =
        buildBenchmarkModule(profile("solo", 17, 40, 3), Ctx);
    MergeDriverOptions DO = options(1, 1);
    DO.Technique = C.Tech;
    MergeDriverStats S = runFunctionMerging(*M, DO);
    ASSERT_GT(S.CommittedMerges, 0u) << C.Route;
    expectDigest(digest(FnvBasis, S.Records, {M.get()}), C.Want, C.Route);
  }
}

TEST(SessionDigestTest, FourModuleSessionAtEveryShardAndThreadCount) {
  // Shard and thread counts only move wall-clock time: one digest for all.
  const uint64_t Want = 0x020b4b0450b3bfd6ULL;
  struct Case {
    unsigned Shards;
    unsigned Threads;
  };
  for (Case C : {Case{1, 1}, Case{1, 4}, Case{4, 1}, Case{4, 4}}) {
    Context Ctx;
    ModuleGroup Group = buildSuiteModuleGroup(
        {profile("alpha", 101, 48, 5), profile("beta", 202, 40, 4)}, Ctx, 2);
    std::vector<Module *> Mods = modsOf(Group);
    ASSERT_EQ(Mods.size(), 4u);
    CrossModuleMerger Session(options(C.Threads, C.Shards));
    for (Module *M : Mods)
      Session.addModule(*M);
    CrossModuleStats S = Session.run();
    ASSERT_GT(S.CrossModuleMerges, 0u);
    expectDigest(digest(FnvBasis, S.Driver.Records, Mods), Want,
                 "session shards=" + std::to_string(C.Shards) +
                     " threads=" + std::to_string(C.Threads));
  }
}

TEST(SessionDigestTest, ClusteredSessionColdThenWarm) {
  const std::string Path = ::testing::TempDir() + "salssa_digest_cache.bin";
  std::remove(Path.c_str());
  MergeDriverOptions DO = options(1, 1);
  DO.HashClustering = true;
  DO.DecisionCachePath = Path;
  struct Case {
    const char *Route;
    uint64_t Want;
  };
  for (Case C : {Case{"clustered cold", 0xa82c4234b65ea9cdULL},
                 Case{"clustered warm", 0xcffbcb3d53085ad3ULL}}) {
    Context Ctx;
    ModuleGroup Group =
        buildBenchmarkModuleGroup(profile("clone", 19, 40, 3, 0), Ctx, 2);
    std::vector<Module *> Mods = modsOf(Group);
    CrossModuleMerger Session(DO);
    for (Module *M : Mods)
      Session.addModule(*M);
    CrossModuleStats S = Session.run();
    ASSERT_GT(S.Driver.HashClusterCommits, 0u) << C.Route;
    expectDigest(digest(FnvBasis, S.Driver.Records, Mods), C.Want, C.Route);
  }
  std::remove(Path.c_str());
}

TEST(SessionDigestTest, MergeServiceEditScript) {
  const BenchmarkProfile P = profile("incsvc", 9001, 26, 3);
  EditScriptOptions EO;
  EO.NumSteps = 3;
  EO.ChangesPerStep = 3;
  EO.AddsPerStep = 1;
  EO.DeletesPerStep = 1;
  EO.Generate.TargetSize = 30;
  EO.Generate.RetTypeVariety = 3;
  EO.Seed = 71;
  EditScript Script = [&] {
    Context Ctx;
    ModuleGroup Group = buildBenchmarkModuleGroup(P, Ctx, 2);
    return EditScript(modsOf(Group), EO);
  }();

  Context Ctx;
  ModuleGroup Group = buildBenchmarkModuleGroup(P, Ctx, 2);
  std::vector<Module *> Mods = modsOf(Group);
  MergeServiceOptions SO;
  SO.Driver = options(2, 1);
  MergeService Svc(SO);
  for (Module *M : Mods)
    Svc.addModule(*M);
  MergeServiceStats Init = Svc.initialize();
  ASSERT_GT(Init.Session.Driver.CommittedMerges, 0u);
  uint64_t H = digest(FnvBasis, Init.Session.Driver.Records, Mods);
  for (unsigned Step = 0; Step < Script.numSteps(); ++Step) {
    MergeService::DeltaBatch Batch = Svc.beginDelta();
    EditScript::AppliedStep A = Script.applyStep(
        Mods, Step, [&](Function *F) { Batch.checkoutForEdit(F); });
    MergeDelta D;
    D.Changed = A.Changed;
    D.Added = A.Added;
    D.Deleted = A.Deleted;
    MergeServiceStats St = Batch.apply(D);
    EXPECT_FALSE(St.DegradedToFullRemerge) << "epoch " << Step + 1;
    H = digest(H, St.Session.Driver.Records, Mods);
  }
  expectDigest(H, 0xbd0af24f340a5cbfULL, "service 3 epochs");
}

TEST(SessionDigestTest, EveryAttemptOnAnInvokePool) {
  // Winners are not the only bytes the generator makes: a discarded
  // attempt's body decides profitability too. A serial SalSSA run over a
  // pool with invokes records every attempt. A fresh copy of the pool
  // then replays those records in order: each attempt is regenerated
  // through attemptMerge into a staging module, its body and repair
  // counters are folded in, and the recorded winners are committed so
  // later attempts find the merged functions they name.
  BenchmarkProfile P = profile("eh", 23, 40, 3);
  P.InvokePercent = 12;
  MergeDriverOptions DO = options(1, 1);
  std::vector<MergeRecord> Records;
  std::string DriverModule;
  uint64_t H;
  {
    Context Ctx;
    std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
    MergeDriverStats S = runFunctionMerging(*M, DO);
    ASSERT_GT(S.CommittedMerges, 0u);
    H = digest(FnvBasis, S.Records, {M.get()});
    Records = S.Records;
    DriverModule = printModule(*M);
  }

  Context Ctx;
  std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
  Module Staging("staging", Ctx);
  MergeCodeGenOptions CG = MergeCodeGenOptions::forTechnique(
      DO.Technique, DO.EnablePhiCoalescing);
  unsigned Discarded = 0, WithInvokes = 0;
  // A slate is a run of records sharing Name1: all of its attempts see
  // the same inputs, then its winner (if any) commits. Every attempt
  // burns one merged-function name, as in the serial driver.
  for (size_t First = 0, End; First < Records.size(); First = End) {
    for (End = First; End < Records.size() &&
                      Records[End].Name1 == Records[First].Name1;
         ++End) {
    }
    std::vector<MergeAttempt> Slate;
    std::vector<std::string> Names;
    for (size_t K = First; K < End; ++K) {
      const MergeRecord &R = Records[K];
      Function *F1 = M->getFunction(R.Name1);
      Function *F2 = M->getFunction(R.Name2);
      ASSERT_TRUE(F1 && F2) << R.Name1 << " / " << R.Name2;
      MergeAttempt A = attemptMerge(*F1, *F2, CG, DO.Arch, R.Stats.SizeF1,
                                    R.Stats.SizeF2, &Staging);
      ASSERT_TRUE(A.Valid && A.Gen.Merged) << R.Name1 << " / " << R.Name2;
      EXPECT_TRUE(verifyFunction(*A.Gen.Merged).ok())
          << verifyFunction(*A.Gen.Merged).str();
      EXPECT_EQ(A.Stats.SizeMerged, R.Stats.SizeMerged)
          << R.Name1 << " / " << R.Name2;
      std::string Body = printFunction(*A.Gen.Merged);
      WithInvokes += Body.find(" invoke ") != std::string::npos;
      H = fnv1a(H, Body + std::to_string(A.Stats.RepairSlots) + "/" +
                       std::to_string(A.Stats.CoalescedPairs) + "/" +
                       std::to_string(A.Stats.SelectsInserted) + "\n");
      Slate.push_back(std::move(A));
      Names.push_back(M->makeUniqueName(R.Name1 + ".m"));
    }
    for (size_t K = First; K < End; ++K) {
      MergeAttempt &A = Slate[K - First];
      if (Records[K].Committed) {
        adoptMergedFunction(A, *M, Names[K - First]);
        commitMerge(A, Ctx);
      } else {
        discardMerge(A);
        ++Discarded;
      }
    }
  }
  EXPECT_GT(Discarded, 0u);
  EXPECT_GT(WithInvokes, 0u);
  EXPECT_EQ(printModule(*M), DriverModule); // the replay is faithful
  expectDigest(H, 0xbd7d45fbf26a4795ULL, "every attempt, invoke pool");
}

} // namespace
