//===- tests/ranking_test.cpp - CandidateIndex correctness tests --------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// The CandidateIndex contract is exactness: query(FP, k) must return the
// same candidates, in the same order, as the brute-force all-pairs
// ranking it replaces (tests/RankingOracle.h) — LSH banding and the
// size-bounded walk are only allowed to make it faster. These tests check
// that property on randomized pools, under the pipeline's full query
// shape (module payload, bounded extension, profit annotation,
// cross-return-type exclusion) with the driver's retire/insert churn on
// single-module, multi-module, FMSA-demoted and MiBench pools, plus the
// early-exit distance kernel.
//
//===----------------------------------------------------------------------===//

#include "RankingOracle.h"
#include "merge/MergeDriver.h"
#include "support/RNG.h"
#include "transforms/Reg2Mem.h"
#include "workloads/Suites.h"
#include <algorithm>
#include <gtest/gtest.h>

using namespace salssa;

namespace {

/// Builds a clone-heavy module and returns the fingerprints of its
/// mergeable functions, ordered like the driver's pool (stable by
/// descending size).
std::vector<Fingerprint> poolFingerprints(uint64_t Seed, unsigned NumFns,
                                          Context &Ctx,
                                          std::unique_ptr<Module> &M) {
  BenchmarkProfile P;
  P.Name = "ranking";
  P.NumFunctions = NumFns;
  P.MinSize = 5;
  P.AvgSize = 40;
  P.MaxSize = 160;
  P.CloneFamilyPercent = 50;
  P.MaxFamily = 5;
  P.FamilyDriftPercent = 12;
  P.LoopPercent = 50;
  P.Seed = Seed;
  M = buildBenchmarkModule(P, Ctx);
  std::vector<Fingerprint> FPs;
  for (Function *F : M->functions())
    if (F->isMergeable())
      FPs.push_back(Fingerprint::compute(*F));
  std::stable_sort(FPs.begin(), FPs.end(),
                   [](const Fingerprint &A, const Fingerprint &B) {
                     return A.Size > B.Size;
                   });
  return FPs;
}

void expectSameHits(const std::vector<CandidateIndex::Hit> &Got,
                    const std::vector<CandidateIndex::Hit> &Want,
                    const std::string &Tag) {
  ASSERT_EQ(Got.size(), Want.size()) << Tag;
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_EQ(Got[I].Id, Want[I].Id) << Tag << " position " << I;
    EXPECT_EQ(Got[I].Distance, Want[I].Distance) << Tag << " position " << I;
    EXPECT_EQ(Got[I].ModuleId, Want[I].ModuleId) << Tag << " position " << I;
    EXPECT_EQ(Got[I].EstProfit, Want[I].EstProfit)
        << Tag << " position " << I;
  }
}

class RankingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RankingPropertyTest, TopKMatchesBruteForce) {
  Context Ctx;
  std::unique_ptr<Module> M;
  std::vector<Fingerprint> FPs = poolFingerprints(GetParam(), 40, Ctx, M);
  ASSERT_GT(FPs.size(), 10u);

  CandidateIndex Index;
  OraclePool Oracle;
  for (uint32_t I = 0; I < FPs.size(); ++I) {
    Index.insert(I, FPs[I]);
    Oracle.insert(I, FPs[I]);
  }

  for (unsigned K : {1u, 2u, 5u, 10u, 1000u})
    for (uint32_t Q = 0; Q < FPs.size(); ++Q) {
      std::vector<CandidateIndex::Hit> Got = Index.query(FPs[Q], K, Q);
      std::vector<CandidateIndex::Hit> Want =
          bruteForceTopK(Oracle, FPs[Q], K, Q);
      expectSameHits(Got, Want,
                     "k=" + std::to_string(K) + " q=" + std::to_string(Q));
    }
}

TEST_P(RankingPropertyTest, RetireAndReinsertStayExact) {
  Context Ctx;
  std::unique_ptr<Module> M;
  std::vector<Fingerprint> FPs = poolFingerprints(GetParam() + 101, 32, Ctx, M);

  CandidateIndex Index;
  OraclePool Oracle;
  std::vector<bool> Live(FPs.size(), true);
  for (uint32_t I = 0; I < FPs.size(); ++I) {
    Index.insert(I, FPs[I]);
    Oracle.insert(I, FPs[I]);
  }

  // Churn: retire random pairs (the driver's commit pattern), re-query
  // everything live, occasionally resurrect an id (remerge insertion).
  RNG Rng(GetParam() * 31337 + 11);
  for (int Round = 0; Round < 12; ++Round) {
    size_t NumLive = Index.liveCount();
    if (NumLive > 4 && Rng.chancePercent(75)) {
      // Retire two random live ids.
      for (int Pick = 0; Pick < 2; ++Pick) {
        uint32_t Id;
        do
          Id = static_cast<uint32_t>(Rng.nextBelow(FPs.size()));
        while (!Live[Id]);
        Index.retire(Id);
        Oracle.retire(Id);
        Live[Id] = false;
      }
    } else {
      // Resurrect one retired id, if any.
      for (uint32_t Id = 0; Id < Live.size(); ++Id)
        if (!Live[Id]) {
          Index.insert(Id, FPs[Id]);
          Oracle.insert(Id, FPs[Id]);
          Live[Id] = true;
          break;
        }
    }
    ASSERT_EQ(Index.liveCount(),
              static_cast<size_t>(
                  std::count(Live.begin(), Live.end(), true)));
    unsigned K = 1 + static_cast<unsigned>(Rng.nextBelow(6));
    for (uint32_t Q = 0; Q < FPs.size(); ++Q) {
      if (!Live[Q])
        continue;
      expectSameHits(Index.query(FPs[Q], K, Q),
                     bruteForceTopK(Oracle, FPs[Q], K, Q),
                     "round " + std::to_string(Round) + " q=" +
                         std::to_string(Q));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankingPropertyTest,
                         ::testing::Values(1ull, 2ull, 3ull, 17ull, 99ull));

TEST(RankingTest, BoundedDistanceAgreesWithExact) {
  Context Ctx;
  std::unique_ptr<Module> M;
  std::vector<Fingerprint> FPs = poolFingerprints(7, 24, Ctx, M);
  RNG Rng(0xb0bb);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    const Fingerprint &A = FPs[Rng.nextBelow(FPs.size())];
    const Fingerprint &B = FPs[Rng.nextBelow(FPs.size())];
    uint64_t Exact = fingerprintDistance(A, B);
    uint64_t Bound = Rng.nextBelow(120);
    uint64_t Bounded = fingerprintDistance(A, B, Bound);
    if (Exact <= Bound)
      EXPECT_EQ(Bounded, Exact);
    else {
      EXPECT_GT(Bounded, Bound);  // flagged as over-bound...
      EXPECT_LE(Bounded, Exact);  // ...via a lower bound of the truth
    }
  }
}

TEST(RankingTest, SketchIsDeterministicAndSizeGapBoundsDistance) {
  Context Ctx;
  std::unique_ptr<Module> M;
  std::vector<Fingerprint> FPs = poolFingerprints(21, 20, Ctx, M);
  // Recompute: bit-identical sketches.
  for (Function *F : M->functions()) {
    if (!F->isMergeable())
      continue;
    Fingerprint FP = Fingerprint::compute(*F);
    Fingerprint FP2 = Fingerprint::compute(*F);
    EXPECT_EQ(FP.MinHash, FP2.MinHash);
    for (size_t B = 0; B < Fingerprint::SketchBands; ++B)
      EXPECT_EQ(FP.bandHash(B), FP2.bandHash(B));
  }
  // The exactness argument rests on |SizeA - SizeB| <= distance(A, B).
  for (const Fingerprint &A : FPs)
    for (const Fingerprint &B : FPs) {
      uint64_t D = fingerprintDistance(A, B);
      if (D == UINT64_MAX)
        continue;
      uint64_t Gap = A.Size > B.Size ? A.Size - B.Size : B.Size - A.Size;
      EXPECT_GE(D, Gap);
    }
}

/// Fingerprints of every mergeable function of \p Mods, tagged with their
/// module index and ordered like the driver's pool (stable by descending
/// size, ties by module then creation order).
std::vector<std::pair<Fingerprint, uint32_t>>
driverPool(const std::vector<Module *> &Mods) {
  std::vector<std::pair<Fingerprint, uint32_t>> Pool;
  for (uint32_t Mi = 0; Mi < Mods.size(); ++Mi)
    for (Function *F : Mods[Mi]->functions())
      if (F->isMergeable())
        Pool.emplace_back(Fingerprint::compute(*F), Mi);
  std::stable_sort(Pool.begin(), Pool.end(), [](const auto &A, const auto &B) {
    return A.first.Size > B.first.Size;
  });
  return Pool;
}

/// Replays the driver's index traffic over \p Pool — every commit
/// retires an entry and its nearest candidate and inserts the merged
/// function under a fresh id in the host module — and checks every live
/// entry's query against the oracle after each step, at the pipeline's
/// query shapes (Distance: top-t; Profit/Adaptive: top-t plus the
/// bounded extension, annotated by a calibrated ProfitModel).
void expectIndexMatchesOracleUnderChurn(
    const std::vector<std::pair<Fingerprint, uint32_t>> &Pool,
    const std::string &Tag) {
  ASSERT_GT(Pool.size(), 2u) << Tag;
  CandidateIndex Index;
  OraclePool Oracle;
  std::vector<Fingerprint> FPs;
  for (const auto &E : Pool) {
    auto Id = static_cast<uint32_t>(FPs.size());
    Index.insert(Id, E.first, E.second);
    Oracle.insert(Id, E.first, E.second);
    FPs.push_back(E.first);
  }
  const ProfitModel Model = [] {
    ProfitModel M = ProfitModel::forArch(TargetArch::X86Like);
    M.observe(40, 12, 90); // move the EMA off its seed
    return M;
  }();

  auto checkAll = [&](const std::string &Step) {
    for (uint32_t Q = 0; Q < FPs.size(); ++Q) {
      if (!Oracle.Live[Q])
        continue;
      for (auto [K, ExtraK] : {std::pair<unsigned, unsigned>{1, 0},
                               {3, 0},
                               {2, 2},
                               {4, 3}})
        for (const ProfitModel *M :
             {static_cast<const ProfitModel *>(nullptr), &Model})
          expectSameHits(Index.query(FPs[Q], K, Q, M, ExtraK),
                         bruteForceTopK(Oracle, FPs[Q], K, Q, M, ExtraK),
                         Tag + " " + Step + " q=" + std::to_string(Q) +
                             " k=" + std::to_string(K) + "+" +
                             std::to_string(ExtraK) +
                             (M ? " profit" : ""));
    }
  };
  checkAll("initial");
  RNG Rng(Pool.size() * 7919 + 3);
  for (unsigned Round = 0; Round < 8 && Index.liveCount() > 2; ++Round) {
    uint32_t Q;
    do
      Q = static_cast<uint32_t>(Rng.nextBelow(FPs.size()));
    while (!Oracle.Live[Q]);
    std::vector<CandidateIndex::Hit> Top = Index.query(FPs[Q], 1, Q);
    Index.retire(Q);
    Oracle.retire(Q);
    if (!Top.empty()) {
      Index.retire(Top[0].Id);
      Oracle.retire(Top[0].Id);
      auto Id = static_cast<uint32_t>(FPs.size());
      Index.insert(Id, FPs[Q], 0);
      Oracle.insert(Id, FPs[Q], 0);
      FPs.push_back(FPs[Q]);
    }
    checkAll("round " + std::to_string(Round));
  }
}

BenchmarkProfile oracleProfile(uint64_t Seed, unsigned Variety) {
  BenchmarkProfile P;
  P.Name = "oracle";
  P.NumFunctions = 40;
  P.MinSize = 6;
  P.AvgSize = 45;
  P.MaxSize = 200;
  P.CloneFamilyPercent = 45;
  P.MaxFamily = 4;
  P.FamilyDriftPercent = 10;
  P.LoopPercent = 50;
  P.RetTypeVariety = Variety;
  P.Seed = Seed;
  return P;
}

TEST(RankingOracleTest, SingleModulePool) {
  Context Ctx;
  std::unique_ptr<Module> M = buildBenchmarkModule(oracleProfile(11, 3), Ctx);
  expectIndexMatchesOracleUnderChurn(driverPool({M.get()}), "single");
}

TEST(RankingOracleTest, FourModulePool) {
  Context Ctx;
  ModuleGroup Group = buildBenchmarkModuleGroup(oracleProfile(22, 2), Ctx, 4);
  std::vector<Module *> Mods;
  for (size_t I = 0; I < Group.size(); ++I)
    Mods.push_back(&Group[I]);
  expectIndexMatchesOracleUnderChurn(driverPool(Mods), "four-module");
}

TEST(RankingOracleTest, FMSADemotedPool) {
  Context Ctx;
  std::unique_ptr<Module> M = buildBenchmarkModule(oracleProfile(33, 1), Ctx);
  for (Function *F : M->functions())
    if (!F->isDeclaration())
      demoteRegistersToMemory(*F, Ctx);
  expectIndexMatchesOracleUnderChurn(driverPool({M.get()}), "fmsa");
}

TEST(RankingOracleTest, MiBenchSuitePools) {
  unsigned Checked = 0;
  for (const BenchmarkProfile &P : mibenchProfiles()) {
    if (P.NumFunctions > 64) // keep the matrix CI-sized
      continue;
    Context Ctx;
    std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
    std::vector<std::pair<Fingerprint, uint32_t>> Pool = driverPool({M.get()});
    if (Pool.size() < 3)
      continue; // nothing to rank against after one commit
    expectIndexMatchesOracleUnderChurn(Pool, P.Name);
    ++Checked;
  }
  EXPECT_GE(Checked, 8u) << "suite filter got too aggressive";
}

TEST(RankingTest, CommittedRecordMarksTheWinningAttempt) {
  // The committed record must be the exact attempt that won, even when
  // the same pair shows up in several attempts across pool iterations.
  Context Ctx;
  BenchmarkProfile P;
  P.Name = "records";
  P.NumFunctions = 30;
  P.CloneFamilyPercent = 60;
  P.MaxFamily = 5;
  P.FamilyDriftPercent = 8;
  P.Seed = 77;
  std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 4;
  MergeDriverStats S = runFunctionMerging(*M, DO);
  unsigned Committed = 0;
  for (const MergeRecord &R : S.Records) {
    if (!R.Committed)
      continue;
    ++Committed;
    // A committed record must correspond to a profitable valid attempt.
    EXPECT_TRUE(R.Stats.Profitable) << R.Name1 << " + " << R.Name2;
  }
  EXPECT_EQ(Committed, S.CommittedMerges);
}

} // namespace
