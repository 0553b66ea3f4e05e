//===- tests/selection_test.cpp - Profit-guided selection tests ---------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// The selection layer's contract has four legs:
//
//  1. Regression anchor: SelectionStrategy::Distance (the default) is the
//     paper's scheme verbatim — the driver entry point equals an
//     explicit one-module session at every thread count. (The ranking
//     underneath is pinned query by query against the brute-force
//     oracle in ranking_test.cpp, bounded extension and profit
//     annotation included.)
//  2. Determinism: Profit and Adaptive commit identical merges with
//     identical records and module bytes at every thread count.
//  3. The ProfitModel: the estimate is monotone (decreasing in distance,
//     increasing in overlap at fixed total size), tracks actual
//     MergeAttempt::profit() ordering on representative pairs, and its
//     online calibration moves toward observations under clamps.
//  4. Adaptive bounds: the exploration threshold stays within
//     [t, t + AdaptiveRange] and converges back to t on pools where the
//     top-ranked candidate keeps winning; speculation-skip accounting
//     stays separate from CommitConflicts.
//
//===----------------------------------------------------------------------===//

#include "codesize/SizeModel.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "merge/CrossModuleMerger.h"
#include "merge/FunctionMerger.h"
#include "workloads/Suites.h"
#include <gtest/gtest.h>

using namespace salssa;

namespace {

/// Mirrors MergePipeline's adaptation ceiling (CurrentT <= t + 4); keep
/// in sync with MergePipeline::AdaptiveRange.
constexpr unsigned AdaptiveRange = 4;

BenchmarkProfile cloneHeavyProfile(uint64_t Seed, unsigned NumFns = 32) {
  BenchmarkProfile P;
  P.Name = "seltest";
  P.NumFunctions = NumFns;
  P.MinSize = 6;
  P.AvgSize = 45;
  P.MaxSize = 200;
  P.CloneFamilyPercent = 50;
  P.MaxFamily = 5;
  P.FamilyDriftPercent = 10;
  P.LoopPercent = 50;
  P.Seed = Seed;
  return P;
}

/// Everything observable about one driver run (timings excluded).
struct RunOutcome {
  unsigned Attempts = 0;
  unsigned CommittedMerges = 0;
  std::vector<std::tuple<std::string, std::string, bool>> Records;
  uint64_t ModuleSize = 0;
  std::string ModulePrint;
  bool VerifierOk = false;
  MergeDriverStats Stats;
};

/// Runs \p DO over a fresh build of \p P through runFunctionMerging, or
/// through an explicit one-module CrossModuleMerger session.
RunOutcome runDriver(const BenchmarkProfile &P, MergeDriverOptions DO,
                     bool ViaSession = false) {
  Context Ctx;
  std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
  MergeDriverStats S;
  if (ViaSession) {
    CrossModuleMerger Session(DO);
    Session.addModule(*M);
    S = Session.run().Driver;
  } else {
    S = runFunctionMerging(*M, DO);
  }
  RunOutcome O;
  O.Attempts = S.Attempts;
  O.CommittedMerges = S.CommittedMerges;
  for (const MergeRecord &R : S.Records)
    O.Records.emplace_back(R.Name1, R.Name2, R.Committed);
  O.ModuleSize = estimateModuleSize(*M, TargetArch::X86Like);
  O.ModulePrint = printModule(*M);
  O.VerifierOk = verifyModule(*M).ok();
  O.Stats = std::move(S);
  return O;
}

void expectSameOutcome(const RunOutcome &Got, const RunOutcome &Want,
                       const std::string &Tag) {
  EXPECT_TRUE(Got.VerifierOk) << Tag;
  EXPECT_EQ(Got.CommittedMerges, Want.CommittedMerges) << Tag;
  EXPECT_EQ(Got.Attempts, Want.Attempts) << Tag;
  EXPECT_EQ(Got.ModuleSize, Want.ModuleSize) << Tag;
  ASSERT_EQ(Got.Records.size(), Want.Records.size()) << Tag;
  for (size_t I = 0; I < Got.Records.size(); ++I)
    EXPECT_EQ(Got.Records[I], Want.Records[I]) << Tag << " record " << I;
  EXPECT_EQ(Got.ModulePrint, Want.ModulePrint) << Tag;
}

//===----------------------------------------------------------------------===//
// Leg 1 — the Distance path, one route at every thread count
//===----------------------------------------------------------------------===//

TEST(SelectionTest, DistanceIsTheDefault) {
  // New selection machinery must be opt-in: a default-constructed
  // options struct runs the paper's scheme.
  MergeDriverOptions DO;
  EXPECT_EQ(DO.Selection, SelectionStrategy::Distance);
}

TEST(SelectionTest, DistanceMatchesCrossModuleRouteAndThreads) {
  // Under the default: an explicit one-module session and the thread
  // matrix must replay the serial driver entry point exactly.
  BenchmarkProfile P = cloneHeavyProfile(29);
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 3;
  RunOutcome Serial = runDriver(P, DO);
  ASSERT_TRUE(Serial.VerifierOk);
  EXPECT_GT(Serial.CommittedMerges, 0u);
  expectSameOutcome(runDriver(P, DO, /*ViaSession=*/true), Serial,
                    "session route");
  for (unsigned NT : {2u, 8u}) {
    MergeDriverOptions TDO = DO;
    TDO.NumThreads = NT;
    expectSameOutcome(runDriver(P, TDO), Serial,
                      "threads=" + std::to_string(NT));
  }
}

//===----------------------------------------------------------------------===//
// Leg 2 — Profit/Adaptive determinism
//===----------------------------------------------------------------------===//

class SelectionDeterminismTest
    : public ::testing::TestWithParam<SelectionStrategy> {};

TEST_P(SelectionDeterminismTest, ThreadCountsProduceIdenticalMerges) {
  // The selection layer only ever advances at the serial commit stage,
  // so the pipeline's determinism contract must hold unchanged: same
  // merges, records, names and bytes at every thread count — including
  // with the speculation-skip and adaptive-window machinery engaged.
  BenchmarkProfile P = cloneHeavyProfile(61);
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 2;
  DO.Selection = GetParam();
  RunOutcome Serial = runDriver(P, DO);
  ASSERT_TRUE(Serial.VerifierOk);
  EXPECT_GT(Serial.CommittedMerges, 0u);
  for (unsigned NT : {2u, 4u, 8u}) {
    MergeDriverOptions TDO = DO;
    TDO.NumThreads = NT;
    expectSameOutcome(runDriver(P, TDO), Serial,
                      "threads=" + std::to_string(NT));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, SelectionDeterminismTest,
                         ::testing::Values(SelectionStrategy::Profit,
                                           SelectionStrategy::Adaptive),
                         [](const auto &Info) {
                           return Info.param == SelectionStrategy::Profit
                                      ? "Profit"
                                      : "Adaptive";
                         });

TEST(SelectionTest, CommitWindowDoesNotChangeAdaptiveOutcomes) {
  // The adaptive window (engaged when CommitWindow == 0) may only ever
  // change speculation waste; pinning the window must not change what
  // gets committed.
  BenchmarkProfile P = cloneHeavyProfile(71);
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 2;
  DO.Selection = SelectionStrategy::Adaptive;
  RunOutcome Serial = runDriver(P, DO);
  for (unsigned Window : {1u, 16u, 128u}) {
    MergeDriverOptions WDO = DO;
    WDO.NumThreads = 4;
    WDO.CommitWindow = Window;
    expectSameOutcome(runDriver(P, WDO), Serial,
                      "window=" + std::to_string(Window));
  }
}

//===----------------------------------------------------------------------===//
// Leg 3 — the ProfitModel
//===----------------------------------------------------------------------===//

Fingerprint syntheticFingerprint(uint32_t Size) {
  // estimate() reads only Size (and the distance argument), so a bare
  // size-only fingerprint exercises it fully.
  Fingerprint FP;
  FP.Size = Size;
  return FP;
}

TEST(ProfitModelTest, EstimateIsMonotoneInDistanceAndOverlap) {
  const ProfitModel M = ProfitModel::forArch(TargetArch::X86Like);
  Fingerprint A = syntheticFingerprint(60);
  Fingerprint B = syntheticFingerprint(60);
  // At fixed |A| + |B|, growing distance shrinks overlap one-for-one:
  // both monotonicity claims are the same sweep.
  int64_t Prev = M.estimate(A, B, 0);
  for (uint64_t D = 2; D <= 120; D += 2) {
    int64_t Cur = M.estimate(A, B, D);
    EXPECT_LT(Cur, Prev) << "distance " << D;
    Prev = Cur;
  }
  // Exact-clone estimate must be clearly profitable; disjoint must not.
  EXPECT_GT(M.estimate(A, B, 0), 0);
  EXPECT_LT(M.estimate(A, B, 120), 0);
  // Overlap helper: the histogram-intersection identity.
  EXPECT_EQ(ProfitModel::overlap(A, B, 0), 60u);
  EXPECT_EQ(ProfitModel::overlap(A, B, 40), 40u);
  EXPECT_EQ(ProfitModel::overlap(A, B, 120), 0u);
  EXPECT_EQ(ProfitModel::overlap(A, B, 500), 0u); // saturates at disjoint
}

TEST(ProfitModelTest, EstimateTracksActualAttemptProfit) {
  // Representative pairs, most to least similar: an exact clone, a
  // drifted clone, and an unrelated function. The (uncalibrated) model
  // estimate must order them exactly like the executed attempts' actual
  // profit — this is the property that makes profit re-ranking mean
  // anything.
  Context Ctx;
  Module M("estimate", Ctx);
  RNG Rng(97);
  WorkloadEnvironment Env(M, Rng);
  RandomFunctionOptions FO;
  FO.TargetSize = 60;
  Function *Base = generateRandomFunction(Env, Rng, "base", FO);
  DriftOptions Exact;
  Exact.MutatePercent = 0;
  Exact.InsertPercent = 0;
  Function *Clone = cloneWithDrift(Base, "clone", Env, Rng, Exact);
  DriftOptions Drift;
  Drift.MutatePercent = 20;
  Drift.InsertPercent = 6;
  Function *Drifted = cloneWithDrift(Base, "drifted", Env, Rng, Drift);
  // An unrelated function with the same return type as Base (retry
  // seeds until the signature matches; generation is deterministic).
  Function *Other = nullptr;
  for (uint64_t Salt = 0; !Other; ++Salt) {
    RNG ORng = Rng.fork(Salt);
    Function *Cand = generateRandomFunction(
        Env, ORng, "other" + std::to_string(Salt), FO);
    if (Cand->getReturnType() == Base->getReturnType())
      Other = Cand;
    else
      M.eraseFunction(Cand);
  }

  const ProfitModel PM = ProfitModel::forArch(TargetArch::X86Like);
  const Fingerprint FB = Fingerprint::compute(*Base);
  MergeCodeGenOptions CG =
      MergeCodeGenOptions::forTechnique(MergeTechnique::SalSSA);
  auto evaluate = [&](Function *F2) {
    Fingerprint FP2 = Fingerprint::compute(*F2);
    uint64_t D = fingerprintDistance(FB, FP2);
    int64_t Est = PM.estimate(FB, FP2, D);
    MergeAttempt A = attemptMerge(
        *Base, *F2, CG, TargetArch::X86Like,
        estimateFunctionSize(*Base, TargetArch::X86Like),
        estimateFunctionSize(*F2, TargetArch::X86Like));
    EXPECT_TRUE(A.Valid);
    int Actual = A.profit();
    discardMerge(A);
    return std::make_pair(Est, Actual);
  };
  auto [EstClone, ActClone] = evaluate(Clone);
  auto [EstDrift, ActDrift] = evaluate(Drifted);
  auto [EstOther, ActOther] = evaluate(Other);
  // Actual profits must be ordered as constructed...
  EXPECT_GT(ActClone, ActDrift);
  EXPECT_GT(ActDrift, ActOther);
  // ...and the estimates must agree with that ordering, including a
  // clearly profitable exact clone. (No sign claim for the unrelated
  // pair: independently generated same-size functions share much of
  // their opcode histogram, so its estimate legitimately sits near
  // zero — the *ordering* is the contract that makes re-ranking work.)
  EXPECT_GT(EstClone, EstDrift);
  EXPECT_GT(EstDrift, EstOther);
  EXPECT_GT(EstClone, 0);
}

TEST(ProfitModelTest, CalibrationMovesTowardObservationsUnderClamps) {
  ProfitModel M = ProfitModel::forArch(TargetArch::X86Like);
  const double Seed = M.BytesPerOverlap;
  // Attempts that realize more bytes per overlap than the seed pull the
  // EMA up...
  M.observe(/*Overlap=*/100, /*Distance=*/0, /*ActualProfit=*/800);
  EXPECT_GT(M.BytesPerOverlap, Seed);
  // ...and pathological observations saturate at the clamp instead of
  // capsizing the model.
  ProfitModel Low = ProfitModel::forArch(TargetArch::X86Like);
  for (int I = 0; I < 1000; ++I)
    Low.observe(10, 0, -100000);
  EXPECT_GE(Low.BytesPerOverlap, ProfitModel::MinBytesPerOverlap);
  ProfitModel High = ProfitModel::forArch(TargetArch::X86Like);
  for (int I = 0; I < 1000; ++I)
    High.observe(10, 0, 100000);
  EXPECT_LE(High.BytesPerOverlap, ProfitModel::MaxBytesPerOverlap);
  // Zero overlap is a no-op, never a division by zero.
  ProfitModel Z = ProfitModel::forArch(TargetArch::X86Like);
  Z.observe(0, 50, 10);
  EXPECT_EQ(Z.BytesPerOverlap, Seed);
}

//===----------------------------------------------------------------------===//
// Leg 4 — adaptive threshold bounds and waste accounting
//===----------------------------------------------------------------------===//

TEST(SelectionTest, AdaptiveThresholdStaysWithinConvergenceBounds) {
  for (unsigned BaseT : {1u, 2u, 3u}) {
    BenchmarkProfile P = cloneHeavyProfile(83, 40);
    MergeDriverOptions DO;
    DO.ExplorationThreshold = BaseT;
    DO.Selection = SelectionStrategy::Adaptive;
    RunOutcome O = runDriver(P, DO);
    EXPECT_GE(O.Stats.AdaptiveThresholdMax, BaseT) << "base " << BaseT;
    EXPECT_LE(O.Stats.AdaptiveThresholdMax, BaseT + AdaptiveRange)
        << "base " << BaseT;
    EXPECT_GE(O.Stats.AdaptiveThresholdFinal, BaseT) << "base " << BaseT;
    EXPECT_LE(O.Stats.AdaptiveThresholdFinal, O.Stats.AdaptiveThresholdMax)
        << "base " << BaseT;
  }
}

TEST(SelectionTest, AdaptiveConvergesToBaseOnTopHeavyPools) {
  // Exact-clone families: the nearest candidate is a zero-distance
  // clone, so the top pick wins every entry, every vote is a shrink
  // vote, and t must never leave the configured base. Base 1 is the
  // sharp case: a slate of one is simultaneously the top pick and the
  // slate tail, and counting it as a deep win would ratchet t up on
  // exactly the pools that need no exploration.
  for (unsigned BaseT : {1u, 2u}) {
    BenchmarkProfile P = cloneHeavyProfile(89, 36);
    P.CloneFamilyPercent = 100;
    P.FamilyDriftPercent = 0;
    MergeDriverOptions DO;
    DO.ExplorationThreshold = BaseT;
    DO.Selection = SelectionStrategy::Adaptive;
    RunOutcome O = runDriver(P, DO);
    EXPECT_GT(O.CommittedMerges, 0u) << "base " << BaseT;
    EXPECT_EQ(O.Stats.AdaptiveThresholdMax, BaseT) << "base " << BaseT;
    EXPECT_EQ(O.Stats.AdaptiveThresholdFinal, BaseT) << "base " << BaseT;
  }
}

TEST(SelectionTest, DryEntriesDoNotBreakAdaptiveDeterminism) {
  // Entries with no same-return-type partner ("dry" entries) never
  // reach the commit stage in parallel rounds (the snapshot loop drops
  // empty slates), so they must carry no adaptive signal in the serial
  // path either — otherwise the adaptive t trajectory, and with it the
  // attempted pairs and records, would differ by thread count. The
  // benchmark generator only emits i32 returns, so plant the dry
  // entries by hand: two mergeable functions whose return types are
  // unique in the module.
  for (uint64_t Seed : {3ull, 7ull, 13ull}) {
    BenchmarkProfile P = cloneHeavyProfile(Seed, 28);
    auto runWithDryEntries = [&](unsigned NumThreads) {
      Context Ctx;
      std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
      for (Type *RetTy : {Ctx.int64Ty(), Ctx.doubleTy()}) {
        Function *F = M->createFunction(
            "dry" + std::to_string(RetTy == Ctx.int64Ty() ? 1 : 2),
            Ctx.types().getFunctionTy(RetTy, {Ctx.int32Ty()}));
        IRBuilder B(Ctx, F->createBlock("entry"));
        Value *V = B.createAdd(F->getArg(0), Ctx.getInt32(7));
        for (int I = 0; I < 10; ++I)
          V = B.createXor(B.createAdd(V, Ctx.getInt32(I)), F->getArg(0));
        if (RetTy == Ctx.int64Ty())
          B.createRet(B.createSExt(V, RetTy));
        else
          B.createRet(B.createCast(ValueKind::SIToFP, V, RetTy));
      }
      EXPECT_TRUE(verifyModule(*M).ok()) << verifyModule(*M).str();
      MergeDriverOptions DO;
      DO.ExplorationThreshold = 1;
      DO.Selection = SelectionStrategy::Adaptive;
      DO.NumThreads = NumThreads;
      DO.CommitWindow = NumThreads > 1 ? 4 : 0; // tight windows: many rounds
      MergeDriverStats S = runFunctionMerging(*M, DO);
      RunOutcome O;
      O.Attempts = S.Attempts;
      O.CommittedMerges = S.CommittedMerges;
      for (const MergeRecord &R : S.Records)
        O.Records.emplace_back(R.Name1, R.Name2, R.Committed);
      O.ModuleSize = estimateModuleSize(*M, TargetArch::X86Like);
      O.ModulePrint = printModule(*M);
      O.VerifierOk = verifyModule(*M).ok();
      O.Stats = std::move(S);
      return O;
    };
    RunOutcome Serial = runWithDryEntries(1);
    ASSERT_TRUE(Serial.VerifierOk);
    for (unsigned NT : {2u, 4u}) {
      RunOutcome Parallel = runWithDryEntries(NT);
      expectSameOutcome(Parallel, Serial,
                        "dry-entry seed " + std::to_string(Seed) +
                            " threads=" + std::to_string(NT));
      EXPECT_EQ(Parallel.Stats.AdaptiveThresholdMax,
                Serial.Stats.AdaptiveThresholdMax);
      EXPECT_EQ(Parallel.Stats.AdaptiveThresholdFinal,
                Serial.Stats.AdaptiveThresholdFinal);
    }
  }
}

TEST(SelectionTest, NonAdaptiveModesEchoTheConfiguredThreshold) {
  BenchmarkProfile P = cloneHeavyProfile(91, 20);
  for (SelectionStrategy Sel :
       {SelectionStrategy::Distance, SelectionStrategy::Profit}) {
    MergeDriverOptions DO;
    DO.ExplorationThreshold = 3;
    DO.Selection = Sel;
    RunOutcome O = runDriver(P, DO);
    EXPECT_EQ(O.Stats.AdaptiveThresholdMax, 3u);
    EXPECT_EQ(O.Stats.AdaptiveThresholdFinal, 3u);
  }
}

TEST(SelectionTest, SkippedSpeculationsAreCountedSeparately) {
  // Profit-guided parallel runs skip speculating for entries whose top
  // candidate an earlier window entry already claimed. The prediction
  // must be counted in SpeculationsSkipped — never conflated into
  // CommitConflicts — and must not exist at all in Distance mode (whose
  // stats must stay exactly PR 3's).
  BenchmarkProfile P = cloneHeavyProfile(93, 40);
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 2;
  DO.NumThreads = 4;

  DO.Selection = SelectionStrategy::Distance;
  RunOutcome Distance = runDriver(P, DO);
  EXPECT_EQ(Distance.Stats.SpeculationsSkipped, 0u);

  DO.Selection = SelectionStrategy::Profit;
  RunOutcome Profit = runDriver(P, DO);
  // The clone-heavy pool guarantees claimed top candidates in the first
  // window (family members rank each other first).
  EXPECT_GT(Profit.Stats.SpeculationsSkipped, 0u);
  // Skipped entries run inline without Spec bookkeeping, so the skip
  // count is not double-reported as conflicts: every conflict still
  // corresponds to an entry that actually speculated.
  EXPECT_LE(Profit.Stats.CommitConflicts, Profit.Stats.SpeculativeAttempts);

  // And the serial run of the same configuration has no speculation at
  // all to skip.
  DO.NumThreads = 1;
  RunOutcome Serial = runDriver(P, DO);
  EXPECT_EQ(Serial.Stats.SpeculationsSkipped, 0u);
  expectSameOutcome(Profit, Serial, "skip-speculation parallel vs serial");
}

} // namespace
