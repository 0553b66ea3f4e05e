//===- tests/cross_module_test.cpp - CrossModuleMerger contract tests ----------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// The CrossModuleMerger contract has three legs:
//
//  1. N=1 equivalence: runFunctionMerging is exactly a session with one
//     registered module (same merges, records, names, module bytes).
//  2. Determinism: for any module split and any thread count the session
//     commits identical merges with identical records and byte-identical
//     module prints (the MergePipeline contract, extended to groups).
//  3. Correctness of the commit: after a session every registered module
//     is verifier-clean — thunks in every module dispatch into merged
//     functions that live only in the designated host module.
//
// Plus the profitability point of the whole exercise: a clone-heavy
// suite split across modules merges strictly better cross-module than
// per-module. These tests run under -DSALSSA_TSAN=ON as well (tsan
// preset), which races the cross-module attempt stage under TSan.
//
//===----------------------------------------------------------------------===//

#include "codesize/SizeModel.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "merge/CrossModuleMerger.h"
#include "workloads/Suites.h"
#include <gtest/gtest.h>

using namespace salssa;

namespace {

BenchmarkProfile crossProfile(uint64_t Seed, unsigned NumFns = 40) {
  BenchmarkProfile P;
  P.Name = "xmod";
  P.NumFunctions = NumFns;
  P.MinSize = 6;
  P.AvgSize = 45;
  P.MaxSize = 200;
  P.CloneFamilyPercent = 60; // split families are the cross-module payload
  P.MinFamily = 2;
  P.MaxFamily = 6;
  P.FamilyDriftPercent = 10;
  P.LoopPercent = 50;
  P.Seed = Seed;
  return P;
}

MergeDriverOptions defaultOptions(unsigned NumThreads) {
  MergeDriverOptions DO;
  DO.Technique = MergeTechnique::SalSSA;
  DO.ExplorationThreshold = 3;
  DO.NumThreads = NumThreads;
  return DO;
}

/// Everything observable about one session run (timings excluded).
struct GroupOutcome {
  unsigned Attempts = 0;
  unsigned CommittedMerges = 0;
  unsigned CrossModuleMerges = 0;
  unsigned IntraModuleMerges = 0;
  std::vector<std::tuple<std::string, std::string, bool>> Records;
  uint64_t SizeAfter = 0;
  std::string Prints; ///< all module prints, in registration order
  bool VerifierOk = false;
};

GroupOutcome runSession(const BenchmarkProfile &P, unsigned NumModules,
                        MergeDriverOptions DO, size_t HostIdx = 0) {
  Context Ctx;
  ModuleGroup Group = buildBenchmarkModuleGroup(P, Ctx, NumModules);
  CrossModuleMerger Session(DO);
  for (size_t I = 0; I < Group.size(); ++I)
    Session.addModule(Group[I]);
  Session.setHostModule(Group[HostIdx]);
  CrossModuleStats S = Session.run();

  GroupOutcome O;
  O.Attempts = S.Driver.Attempts;
  O.CommittedMerges = S.Driver.CommittedMerges;
  O.CrossModuleMerges = S.CrossModuleMerges;
  O.IntraModuleMerges = S.IntraModuleMerges;
  for (const MergeRecord &R : S.Driver.Records)
    O.Records.emplace_back(R.Name1, R.Name2, R.Committed);
  O.SizeAfter = S.SizeAfter;
  O.VerifierOk = true;
  for (size_t I = 0; I < Group.size(); ++I) {
    O.Prints += printModule(Group[I]);
    O.VerifierOk = O.VerifierOk && verifyModule(Group[I]).ok();
  }
  return O;
}

void expectSameOutcome(const GroupOutcome &Got, const GroupOutcome &Want,
                       const std::string &Tag) {
  EXPECT_TRUE(Got.VerifierOk) << Tag;
  EXPECT_EQ(Got.CommittedMerges, Want.CommittedMerges) << Tag;
  EXPECT_EQ(Got.CrossModuleMerges, Want.CrossModuleMerges) << Tag;
  EXPECT_EQ(Got.Attempts, Want.Attempts) << Tag;
  EXPECT_EQ(Got.SizeAfter, Want.SizeAfter) << Tag;
  ASSERT_EQ(Got.Records.size(), Want.Records.size()) << Tag;
  for (size_t I = 0; I < Got.Records.size(); ++I)
    EXPECT_EQ(Got.Records[I], Want.Records[I]) << Tag << " record " << I;
  EXPECT_EQ(Got.Prints, Want.Prints) << Tag;
}

TEST(CrossModuleTest, SingleModuleSessionMatchesDriverBitForBit) {
  // Leg 1 of the contract: the driver entry point and an explicit
  // one-module session must produce the same bytes.
  BenchmarkProfile P = crossProfile(17);
  for (MergeTechnique Tech :
       {MergeTechnique::SalSSA, MergeTechnique::FMSA}) {
    auto runOne = [&](bool ViaSession) {
      Context Ctx;
      std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
      MergeDriverOptions DO = defaultOptions(1);
      DO.Technique = Tech;
      MergeDriverStats S;
      if (ViaSession) {
        CrossModuleMerger Session(DO);
        Session.addModule(*M);
        S = Session.run().Driver;
      } else {
        S = runFunctionMerging(*M, DO);
      }
      EXPECT_TRUE(verifyModule(*M).ok());
      std::string Serialized;
      for (const MergeRecord &R : S.Records)
        Serialized += R.Name1 + "|" + R.Name2 + "|" +
                      (R.Committed ? "C" : "-") + "\n";
      Serialized += printModule(*M);
      EXPECT_EQ(S.CrossModuleMerges, 0u);
      return std::make_tuple(S.Attempts, S.CommittedMerges, Serialized);
    };
    EXPECT_EQ(runOne(false), runOne(true))
        << (Tech == MergeTechnique::SalSSA ? "salssa" : "fmsa");
  }
}

class CrossModuleDeterminismTest
    : public ::testing::TestWithParam<unsigned> {};

TEST_P(CrossModuleDeterminismTest, ThreadCountsProduceIdenticalMerges) {
  // Leg 2: a K-way split commits identical merges at every thread count,
  // down to byte-identical prints of every module.
  const unsigned NumModules = GetParam();
  BenchmarkProfile P = crossProfile(23);
  MergeDriverOptions DO = defaultOptions(1);
  GroupOutcome Serial = runSession(P, NumModules, DO);
  ASSERT_TRUE(Serial.VerifierOk);
  EXPECT_GT(Serial.CommittedMerges, 0u);
  if (NumModules > 1) { // split families must actually cross the boundary
    EXPECT_GT(Serial.CrossModuleMerges, 0u);
  }
  for (unsigned NT : {2u, 4u, 8u}) {
    GroupOutcome Parallel = runSession(P, NumModules, defaultOptions(NT));
    expectSameOutcome(Parallel, Serial,
                      "modules=" + std::to_string(NumModules) +
                          " threads=" + std::to_string(NT));
  }
}

INSTANTIATE_TEST_SUITE_P(Splits, CrossModuleDeterminismTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(CrossModuleTest, MergedFunctionsLiveOnlyInTheHost) {
  // Leg 3: thunks everywhere, merged bodies only in the designated host
  // — including a non-default host — and every module verifier-clean.
  BenchmarkProfile P = crossProfile(41);
  for (size_t HostIdx : {size_t(0), size_t(2)}) {
    Context Ctx;
    ModuleGroup Group = buildBenchmarkModuleGroup(P, Ctx, 4);
    CrossModuleMerger Session(defaultOptions(2));
    for (size_t I = 0; I < Group.size(); ++I)
      Session.addModule(Group[I]);
    Session.setHostModule(Group[HostIdx]);
    ASSERT_EQ(Session.hostModule(), &Group[HostIdx]);
    CrossModuleStats S = Session.run();
    EXPECT_GT(S.Driver.CommittedMerges, 0u);
    // Generated names contain no '.'; merged functions are "<name>.m.N".
    for (size_t I = 0; I < Group.size(); ++I) {
      VerifierReport VR = verifyModule(Group[I]);
      EXPECT_TRUE(VR.ok()) << "module " << I << ":\n" << VR.str();
      for (Function *F : Group[I].functions())
        if (F->getName().find(".m") != std::string::npos) {
          EXPECT_EQ(I, HostIdx)
              << "merged function " << F->getName() << " outside the host";
        }
    }
  }
}

TEST(CrossModuleTest, SplitSuiteMergesStrictlyBetterCrossModule) {
  // The acceptance property: merging a 4-way split as one session beats
  // merging each module independently — the split hides clone families
  // from per-module runs.
  BenchmarkProfile P = crossProfile(53, 48);
  MergeDriverOptions DO = defaultOptions(1);

  uint64_t PerModuleAfter = 0;
  unsigned PerModuleCommits = 0;
  {
    Context Ctx;
    ModuleGroup Group = buildBenchmarkModuleGroup(P, Ctx, 4);
    for (size_t I = 0; I < Group.size(); ++I) {
      MergeDriverStats S = runFunctionMerging(Group[I], DO);
      PerModuleCommits += S.CommittedMerges;
      PerModuleAfter += estimateModuleSize(Group[I], DO.Arch);
      EXPECT_TRUE(verifyModule(Group[I]).ok());
    }
  }

  GroupOutcome Session = runSession(P, 4, DO);
  ASSERT_TRUE(Session.VerifierOk);
  EXPECT_GT(Session.CrossModuleMerges, 0u);
  EXPECT_GE(Session.CommittedMerges, PerModuleCommits);
  EXPECT_LT(Session.SizeAfter, PerModuleAfter)
      << "cross-module session must reduce strictly more than "
      << PerModuleCommits << " per-module commits did";
}

TEST(CrossModuleTest, ProfitSelectionClosesTheTwoWayGreedyGap) {
  // The K=2 greedy-gap regression (ROADMAP "Next" items 1/3, closed by
  // the profit-guided selection layer): at a 2-way split the global
  // greedy order can consume partners that per-module runs pair better,
  // landing the distance-ranked session *above* per-module merging.
  // Profit-ranked selection — widened slate, estimate re-ranking,
  // same-module tie-breaking — must recover it: session reduction >=
  // per-module reduction. Both configurations here gap under Distance
  // (asserted, so the scenario stays a real one) and close under
  // Profit. The suite-scale version of this bar (every K in {1,2,4,8})
  // is enforced by bench_cross_module.
  struct Config {
    uint64_t Seed;
    unsigned NumFns;
  };
  for (Config C : {Config{83, 72}, Config{31, 56}}) {
    BenchmarkProfile P = crossProfile(C.Seed, C.NumFns);
    auto splitVsSession = [&](SelectionStrategy Sel) {
      MergeDriverOptions DO = defaultOptions(1);
      DO.ExplorationThreshold = 2;
      DO.Selection = Sel;
      uint64_t PerModuleAfter = 0;
      {
        Context Ctx;
        ModuleGroup Group = buildBenchmarkModuleGroup(P, Ctx, 2);
        for (size_t I = 0; I < Group.size(); ++I) {
          runFunctionMerging(Group[I], DO);
          PerModuleAfter += estimateModuleSize(Group[I], DO.Arch);
          EXPECT_TRUE(verifyModule(Group[I]).ok());
        }
      }
      GroupOutcome Session = runSession(P, 2, DO);
      EXPECT_TRUE(Session.VerifierOk);
      return std::make_pair(PerModuleAfter, Session);
    };
    auto [DistancePer, DistanceSession] =
        splitVsSession(SelectionStrategy::Distance);
    EXPECT_GT(DistanceSession.SizeAfter, DistancePer)
        << "seed " << C.Seed << ": the distance-mode greedy gap this "
        << "regression guards closed on its own — pick a gapping config";
    auto [ProfitPer, ProfitSession] = splitVsSession(SelectionStrategy::Profit);
    EXPECT_GT(ProfitSession.CrossModuleMerges, 0u) << "seed " << C.Seed;
    EXPECT_LE(ProfitSession.SizeAfter, ProfitPer)
        << "seed " << C.Seed << ": profit-ranked session must merge at "
        << "least as well as per-module runs at a 2-way split";
  }
}

TEST(CrossModuleTest, GroupRebuildIsDeterministic) {
  // buildBenchmarkModuleGroup's own contract: same (profile, K) twice →
  // byte-identical modules. Everything above leans on this.
  BenchmarkProfile P = crossProfile(71, 24);
  auto build = [&] {
    Context Ctx;
    ModuleGroup Group = buildBenchmarkModuleGroup(P, Ctx, 3);
    std::string Prints;
    for (size_t I = 0; I < Group.size(); ++I)
      Prints += printModule(Group[I]);
    return Prints;
  };
  EXPECT_EQ(build(), build());
}

} // namespace
