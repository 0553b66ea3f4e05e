//===- tests/decision_cache_test.cpp - Persistent decision cache contract ------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// The cross-run decision cache contract (merge/DecisionCache.h):
//
//  1. Cold runs (cache enabled, no file) are bit-identical to the
//     no-cache pipeline across selection modes x threads x shards, and
//     leave a valid cache file behind.
//  2. Warm runs over unchanged input replay every entry — zero ranking
//     work, zero alignment work — and emit byte-identical merged
//     modules, at every shard and thread count, rewriting the cache
//     file byte-identically (sorted serialization).
//  3. Damaged or incompatible files self-invalidate: the load is
//     refused (Stats.CacheLoadRejected), the run proceeds cold and
//     correct, and a fresh cache is written. Missing files are plain
//     cold runs, not rejections.
//  4. CacheIO fault injection degrades both load and save to the
//     no-cache behavior — a broken cache can cost the fast path, never
//     a merge.
//  5. Warm replay shares the optimistic attempt stage: on a one-class
//     pool the attempt workers build the replayed winners, with nothing
//     discarded and nothing re-run inline, and neither edited input nor
//     worker task failures make a warm run depend on the thread count.
//  6. A replayed winner runs through the live commit loop, so under
//     armed faults its failures are counted and strike the quarantine
//     ladder exactly like a live attempt's.
//  7. The file bytes of one fixed cache are pinned, so a field moved in
//     both save() and load() cannot pass as a round trip, and a record
//     byte that is not a valid boolean rejects the file.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "merge/DecisionCache.h"
#include "merge/MergeDriver.h"
#include "support/Serialization.h"
#include "workloads/EditScript.h"
#include "workloads/Suites.h"
#include <cstdio>
#include <functional>
#include <gtest/gtest.h>

using namespace salssa;

namespace {

/// Clone-heavy, multi-class population with drift: plenty of near-miss
/// attempts (so slates have real non-winners to skip on replay).
BenchmarkProfile cacheProfile(uint64_t Seed) {
  BenchmarkProfile P;
  P.Name = "cache";
  P.NumFunctions = 40;
  P.MinSize = 6;
  P.AvgSize = 36;
  P.MaxSize = 120;
  P.CloneFamilyPercent = 55;
  P.MaxFamily = 5;
  P.FamilyDriftPercent = 10;
  P.LoopPercent = 50;
  P.RetTypeVariety = 3;
  P.Seed = Seed;
  return P;
}

std::string cachePath(const std::string &Tag) {
  std::string P = "salssa_dcache_" + Tag + ".bin";
  std::remove(P.c_str()); // every test starts from a missing file
  return P;
}

struct RunOutcome {
  MergeDriverStats Stats;
  /// (Name1, Name2, Committed) — attempt *outcomes* are deliberately
  /// excluded: a warm run records skipped non-winners as CacheSkipped
  /// where the cold run saw Completed, by design.
  std::vector<std::tuple<std::string, std::string, bool>> Records;
  std::string Print;
  bool VerifierOk = false;
};

/// Builds \p P, applies \p Edit (when set) and merges under \p DO.
RunOutcome runConfig(const BenchmarkProfile &P, MergeDriverOptions DO,
                     const std::function<void(Module &)> &Edit = {}) {
  Context Ctx;
  std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
  if (Edit)
    Edit(*M);
  RunOutcome O;
  O.Stats = runFunctionMerging(*M, DO);
  for (const MergeRecord &R : O.Stats.Records)
    O.Records.emplace_back(R.Name1, R.Name2, R.Committed);
  O.Print = printModule(*M);
  O.VerifierOk = verifyModule(*M).ok();
  return O;
}

void expectSameMerges(const RunOutcome &Got, const RunOutcome &Want,
                      const std::string &Tag) {
  EXPECT_TRUE(Got.VerifierOk) << Tag;
  EXPECT_EQ(Got.Stats.CommittedMerges, Want.Stats.CommittedMerges) << Tag;
  ASSERT_EQ(Got.Records.size(), Want.Records.size()) << Tag;
  for (size_t I = 0; I < Got.Records.size(); ++I)
    EXPECT_EQ(Got.Records[I], Want.Records[I]) << Tag << " record " << I;
  EXPECT_EQ(Got.Print, Want.Print) << Tag;
}

MergeDriverOptions baseOptions() {
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 3;
  return DO;
}

std::vector<uint8_t> fileBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  EXPECT_TRUE(readFileBytes(Path, Bytes)) << Path;
  return Bytes;
}

//===----------------------------------------------------------------------===//
// Cold runs
//===----------------------------------------------------------------------===//

TEST(DecisionCacheTest, ColdRunBitIdenticalToNoCachePipeline) {
  BenchmarkProfile P = cacheProfile(11);
  for (SelectionStrategy Sel :
       {SelectionStrategy::Distance, SelectionStrategy::Profit,
        SelectionStrategy::Adaptive})
    for (unsigned Shards : {1u, 4u})
      for (unsigned NT : {1u, 4u}) {
        MergeDriverOptions Plain = baseOptions();
        Plain.Selection = Sel;
        Plain.ShardCount = Shards;
        Plain.NumThreads = NT;
        RunOutcome Want = runConfig(P, Plain);
        std::string Tag = "mode=" + std::to_string(int(Sel)) +
                          " shards=" + std::to_string(Shards) +
                          " threads=" + std::to_string(NT);
        MergeDriverOptions Cached = Plain;
        Cached.DecisionCachePath = cachePath("cold_" + Tag);
        RunOutcome Got = runConfig(P, Cached);
        expectSameMerges(Got, Want, Tag);
        // Stats parity on the authoritative serial counters too.
        EXPECT_EQ(Got.Stats.Attempts, Want.Stats.Attempts) << Tag;
        EXPECT_EQ(Got.Stats.ProfitableMerges, Want.Stats.ProfitableMerges)
            << Tag;
        EXPECT_EQ(Got.Stats.CacheHits, 0u) << Tag;
        EXPECT_GT(Got.Stats.CacheMisses, 0u) << Tag;
        EXPECT_EQ(Got.Stats.CacheLoadRejected, 0u) << Tag;
        // ... and a cache file exists afterwards.
        EXPECT_FALSE(fileBytes(Cached.DecisionCachePath).empty()) << Tag;
        std::remove(Cached.DecisionCachePath.c_str());
      }
}

//===----------------------------------------------------------------------===//
// Warm runs
//===----------------------------------------------------------------------===//

TEST(DecisionCacheTest, WarmRunReplaysByteIdenticallyWithZeroAlignmentWork) {
  BenchmarkProfile P = cacheProfile(13);
  for (SelectionStrategy Sel :
       {SelectionStrategy::Distance, SelectionStrategy::Profit,
        SelectionStrategy::Adaptive}) {
    MergeDriverOptions DO = baseOptions();
    DO.Selection = Sel;
    DO.DecisionCachePath =
        cachePath("warm_mode" + std::to_string(int(Sel)));
    std::string Tag = "mode=" + std::to_string(int(Sel));
    RunOutcome Cold = runConfig(P, DO);
    ASSERT_TRUE(Cold.VerifierOk) << Tag;
    ASSERT_GT(Cold.Stats.CommittedMerges, 0u) << Tag;
    std::vector<uint8_t> ColdFile = fileBytes(DO.DecisionCachePath);

    RunOutcome Warm = runConfig(P, DO);
    expectSameMerges(Warm, Cold, Tag + " warm");
    // Every entry replays: no live entries, no ranking, no aligner.
    EXPECT_GT(Warm.Stats.CacheHits, 0u) << Tag;
    EXPECT_EQ(Warm.Stats.CacheMisses, 0u) << Tag;
    EXPECT_GT(Warm.Stats.CacheSkips, 0u) << Tag;
    EXPECT_EQ(Warm.Stats.PairingDistanceCalls, 0u) << Tag;
    EXPECT_EQ(Warm.Stats.PeakAlignmentBytes, 0u) << Tag;
    // Only winners execute attempts on a warm run.
    EXPECT_EQ(Warm.Stats.Attempts, Warm.Stats.CommittedMerges) << Tag;
    EXPECT_LT(Warm.Stats.Attempts, Cold.Stats.Attempts) << Tag;
    // The adaptive trajectory replays too.
    EXPECT_EQ(Warm.Stats.AdaptiveThresholdMax, Cold.Stats.AdaptiveThresholdMax)
        << Tag;
    // The rewritten cache file is byte-identical (sorted serialization,
    // same decisions).
    EXPECT_EQ(fileBytes(DO.DecisionCachePath), ColdFile) << Tag;
    std::remove(DO.DecisionCachePath.c_str());
  }
}

TEST(DecisionCacheTest, OneCacheFileWarmsEveryShardAndThreadCount) {
  BenchmarkProfile P = cacheProfile(17);
  MergeDriverOptions DO = baseOptions();
  DO.DecisionCachePath = cachePath("warm_sharded");
  RunOutcome Cold = runConfig(P, DO);
  ASSERT_GT(Cold.Stats.CommittedMerges, 0u);
  std::vector<uint8_t> ColdFile = fileBytes(DO.DecisionCachePath);
  for (unsigned Shards : {1u, 4u})
    for (unsigned NT : {1u, 4u}) {
      MergeDriverOptions Warm = DO;
      Warm.ShardCount = Shards;
      Warm.NumThreads = NT;
      std::string Tag = "shards=" + std::to_string(Shards) +
                        " threads=" + std::to_string(NT);
      RunOutcome O = runConfig(P, Warm);
      expectSameMerges(O, Cold, Tag);
      EXPECT_GT(O.Stats.CacheHits, 0u) << Tag;
      EXPECT_EQ(O.Stats.CacheMisses, 0u) << Tag;
      // Zero pairing work at every plan — including the parallel
      // unsharded one, where the snapshot loop must predict partners the
      // replays will consume instead of ranking them (they carry no
      // cached decision of their own: the cold run consumed them before
      // their turn).
      EXPECT_EQ(O.Stats.PairingDistanceCalls, 0u) << Tag;
      // The shared file is rewritten byte-identically by every plan.
      EXPECT_EQ(fileBytes(DO.DecisionCachePath), ColdFile) << Tag;
    }
  std::remove(DO.DecisionCachePath.c_str());
}

TEST(DecisionCacheTest, ComposesWithHashClustering) {
  BenchmarkProfile P = cacheProfile(19);
  P.FamilyDriftPercent = 0; // exact clones: give the fast path targets
  MergeDriverOptions DO = baseOptions();
  DO.HashClustering = true;
  DO.DecisionCachePath = cachePath("warm_clustered");
  RunOutcome Cold = runConfig(P, DO);
  ASSERT_TRUE(Cold.VerifierOk);
  ASSERT_GT(Cold.Stats.HashClusterCommits, 0u);
  RunOutcome Warm = runConfig(P, DO);
  expectSameMerges(Warm, Cold, "clustered warm");
  EXPECT_EQ(Warm.Stats.HashClusterCommits, Cold.Stats.HashClusterCommits);
  EXPECT_EQ(Warm.Stats.CacheMisses, 0u);
  std::remove(DO.DecisionCachePath.c_str());
}

//===----------------------------------------------------------------------===//
// Warm replay on the attempt workers
//===----------------------------------------------------------------------===//

TEST(DecisionCacheTest, OneClassWarmRunBuildsWinnersOnTheAttemptWorkers) {
  // One class gets every thread, so a warm run replays through the
  // optimistic attempt stage: workers build the recorded winners from
  // their alignments, and the commit stage reuses every one of them.
  BenchmarkProfile P = cacheProfile(43);
  P.RetTypeVariety = 1;
  MergeDriverOptions DO = baseOptions();
  DO.DecisionCachePath = cachePath("oneclass");
  RunOutcome Cold = runConfig(P, DO);
  ASSERT_GT(Cold.Stats.CommittedMerges, 0u);
  for (unsigned NT : {2u, 4u}) {
    MergeDriverOptions Warm = DO;
    Warm.NumThreads = NT;
    std::string Tag = "threads=" + std::to_string(NT);
    RunOutcome O = runConfig(P, Warm);
    expectSameMerges(O, Cold, Tag);
    EXPECT_EQ(O.Stats.CacheMisses, 0u) << Tag;
    EXPECT_GT(O.Stats.SpeculativeAttempts, 0u) << Tag;
    EXPECT_EQ(O.Stats.SpeculativeDiscarded, 0u) << Tag;
    EXPECT_EQ(O.Stats.InlineReattempts, 0u) << Tag;
    EXPECT_EQ(O.Stats.CommitConflicts, 0u) << Tag;
    EXPECT_EQ(O.Stats.PairingDistanceCalls, 0u) << Tag;
    EXPECT_EQ(O.Stats.PeakAlignmentBytes, 0u) << Tag;
    EXPECT_EQ(O.Stats.Attempts, O.Stats.CommittedMerges) << Tag;
  }
  std::remove(DO.DecisionCachePath.c_str());
}

TEST(DecisionCacheTest, WarmReplayOnEditedInputIsThreadCountInvariant) {
  // A cache recorded on the pristine pool, replayed after a few edit
  // steps: entries whose recorded partners still resolve replay, the
  // rest miss and run live. Which is which must not depend on the
  // thread count, nor may the bytes. Each run starts from the pristine
  // recording (a warm run rewrites the file with its misses).
  BenchmarkProfile P = cacheProfile(47);
  P.NumFunctions = 96;
  P.RetTypeVariety = 1;
  MergeDriverOptions DO = baseOptions();
  DO.DecisionCachePath = cachePath("edited");
  runConfig(P, DO);
  std::vector<uint8_t> Pristine = fileBytes(DO.DecisionCachePath);

  EditScriptOptions EO;
  EO.NumSteps = 3;
  EO.Drift.InsertPercent = 0;
  EO.Generate.TargetSize = 30;
  EO.Seed = 47;
  auto edit = [&EO](Module &M) {
    EditScript Script({&M}, EO);
    for (unsigned S = 0; S < Script.numSteps(); ++S)
      for (Function *F : Script.applyStep({&M}, S).Deleted)
        M.eraseFunction(F);
  };

  RunOutcome Serial;
  for (unsigned NT : {1u, 2u, 4u}) {
    ASSERT_TRUE(writeFileBytes(DO.DecisionCachePath, Pristine));
    MergeDriverOptions Warm = DO;
    Warm.NumThreads = NT;
    std::string Tag = "threads=" + std::to_string(NT);
    RunOutcome O = runConfig(P, Warm, edit);
    EXPECT_GT(O.Stats.CacheHits, 0u) << Tag;
    EXPECT_GT(O.Stats.CacheMisses, 0u) << Tag;
    if (NT == 1) {
      ASSERT_TRUE(O.VerifierOk);
      Serial = std::move(O);
      continue;
    }
    expectSameMerges(O, Serial, Tag);
    EXPECT_EQ(O.Stats.CacheHits, Serial.Stats.CacheHits) << Tag;
    EXPECT_EQ(O.Stats.CacheMisses, Serial.Stats.CacheMisses) << Tag;
    EXPECT_EQ(O.Stats.Attempts, Serial.Stats.Attempts) << Tag;
  }
  std::remove(DO.DecisionCachePath.c_str());
}

TEST(DecisionCacheTest, TaskFailuresOnReplayTasksNeverChangeTheBytes) {
  // The per-task guard covers replay tasks like live ones: a worker that
  // dies building a recorded winner demotes the entry to an inline
  // replay at the commit stage.
  BenchmarkProfile P = cacheProfile(53);
  P.RetTypeVariety = 1;
  MergeDriverOptions DO = baseOptions();
  DO.DecisionCachePath = cachePath("taskfail");
  RunOutcome Cold = runConfig(P, DO);
  ASSERT_GT(Cold.Stats.CommittedMerges, 0u);
  MergeDriverOptions Warm = DO;
  Warm.NumThreads = 4;
  Warm.Faults.Seed = 6;
  Warm.Faults.setRate(FaultKind::TaskFailure, 300);
  RunOutcome O = runConfig(P, Warm);
  expectSameMerges(O, Cold, "task faults");
  EXPECT_GT(O.Stats.TaskFailures, 0u);
  EXPECT_EQ(O.Stats.CacheMisses, 0u);
  EXPECT_EQ(O.Stats.Attempts, O.Stats.CommittedMerges);
  std::remove(DO.DecisionCachePath.c_str());
}

//===----------------------------------------------------------------------===//
// Warm replay under armed faults
//===----------------------------------------------------------------------===//

TEST(DecisionCacheTest, ReplayedWinnersAreCountedLikeLiveAttempts) {
  // A fault-free recording replayed under alignment, budget and codegen
  // faults: every containment counter must equal the records carrying
  // its outcome (replayed winners included), and the warm run must not
  // depend on the thread count. Each leg starts from the fault-free file
  // (a warm run rewrites it with its misses).
  BenchmarkProfile P = cacheProfile(11);
  MergeDriverOptions DO = baseOptions();
  DO.DecisionCachePath = cachePath("faulted_warm");
  RunOutcome Cold = runConfig(P, DO);
  ASSERT_GT(Cold.Stats.CommittedMerges, 0u);
  const std::vector<uint8_t> Recording = fileBytes(DO.DecisionCachePath);
  for (const char *Spec :
       {"seed=3,align=300", "seed=5,budget=300", "seed=7,codegen=400"}) {
    RunOutcome Serial;
    for (unsigned NT : {1u, 4u}) {
      ASSERT_TRUE(writeFileBytes(DO.DecisionCachePath, Recording));
      MergeDriverOptions Warm = DO;
      Warm.NumThreads = NT;
      Warm.Faults = FaultInjectionConfig::parse(Spec);
      std::string Tag = std::string(Spec) + " threads=" + std::to_string(NT);
      RunOutcome O = runConfig(P, Warm);
      EXPECT_TRUE(O.VerifierOk) << Tag;
      EXPECT_GT(O.Stats.CacheHits, 0u) << Tag;
      unsigned Faulted = 0, Budget = 0, Rejected = 0;
      for (const MergeRecord &R : O.Stats.Records) {
        Faulted += R.Stats.Outcome == AttemptOutcome::Faulted;
        Budget += R.Stats.Outcome == AttemptOutcome::BudgetAlignment ||
                  R.Stats.Outcome == AttemptOutcome::BudgetBody;
        Rejected += R.Stats.VerifierRejected;
      }
      EXPECT_GT(Faulted + Budget + Rejected, 0u) << Tag << ": nothing fired";
      EXPECT_EQ(O.Stats.AttemptFailures, Faulted) << Tag;
      EXPECT_EQ(O.Stats.BudgetRejects, Budget) << Tag;
      EXPECT_EQ(O.Stats.VerifierRejects, Rejected) << Tag;
      if (NT == 1) {
        Serial = std::move(O);
        continue;
      }
      expectSameMerges(O, Serial, Tag);
      for (size_t I = 0; I < O.Stats.Records.size(); ++I)
        EXPECT_EQ(O.Stats.Records[I].Stats.Outcome,
                  Serial.Stats.Records[I].Stats.Outcome)
            << Tag << " record " << I;
      EXPECT_EQ(O.Stats.QuarantinedFunctions,
                Serial.Stats.QuarantinedFunctions)
          << Tag;
      EXPECT_EQ(O.Stats.CacheHits, Serial.Stats.CacheHits) << Tag;
      EXPECT_EQ(O.Stats.CacheMisses, Serial.Stats.CacheMisses) << Tag;
    }
  }
  std::remove(DO.DecisionCachePath.c_str());
}

//===----------------------------------------------------------------------===//
// Invalidation
//===----------------------------------------------------------------------===//

TEST(DecisionCacheTest, MissingFileIsAColdRunNotARejection) {
  BenchmarkProfile P = cacheProfile(23);
  MergeDriverOptions DO = baseOptions();
  DO.DecisionCachePath = cachePath("missing");
  RunOutcome O = runConfig(P, DO);
  EXPECT_TRUE(O.VerifierOk);
  EXPECT_EQ(O.Stats.CacheLoadRejected, 0u);
  EXPECT_EQ(O.Stats.CacheHits, 0u);
  EXPECT_GT(O.Stats.CacheMisses, 0u);
  std::remove(DO.DecisionCachePath.c_str());
}

TEST(DecisionCacheTest, DamagedFilesAreRejectedWithACounterNotACrash) {
  BenchmarkProfile P = cacheProfile(29);
  MergeDriverOptions DO = baseOptions();
  DO.DecisionCachePath = cachePath("damaged");
  RunOutcome Cold = runConfig(P, DO);
  ASSERT_GT(Cold.Stats.CommittedMerges, 0u);
  std::vector<uint8_t> Valid = fileBytes(DO.DecisionCachePath);
  ASSERT_GT(Valid.size(), 64u);

  auto corrupt = [&](const char *Tag,
                     std::vector<uint8_t> (*Damage)(std::vector<uint8_t>)) {
    ASSERT_TRUE(writeFileBytes(DO.DecisionCachePath, Damage(Valid))) << Tag;
    RunOutcome O = runConfig(P, DO);
    expectSameMerges(O, Cold, Tag);
    EXPECT_EQ(O.Stats.CacheLoadRejected, 1u) << Tag;
    EXPECT_EQ(O.Stats.CacheHits, 0u) << Tag;
    // The damaged file was replaced by a fresh, valid recording.
    EXPECT_EQ(fileBytes(DO.DecisionCachePath), Valid) << Tag;
  };
  // A flipped payload byte (checksum mismatch).
  corrupt("bitflip", +[](std::vector<uint8_t> B) {
    B[B.size() / 2] ^= 0x40;
    return B;
  });
  // Truncation (payload size mismatch).
  corrupt("truncated", +[](std::vector<uint8_t> B) {
    B.resize(B.size() / 2);
    return B;
  });
  // A foreign file (bad magic).
  corrupt("bad-magic", +[](std::vector<uint8_t> B) {
    B[0] ^= 0xff;
    return B;
  });
  // A future format version.
  corrupt("version-bump", +[](std::vector<uint8_t> B) {
    B[4] += 1;
    return B;
  });
  std::remove(DO.DecisionCachePath.c_str());
}

TEST(DecisionCacheTest, OptionChangesInvalidateTheFile) {
  // A cache recorded at t=3 must be refused by a t=1 run (the decision
  // geometry changed), which then records its own decisions.
  BenchmarkProfile P = cacheProfile(31);
  MergeDriverOptions Wide = baseOptions();
  Wide.DecisionCachePath = cachePath("options");
  runConfig(P, Wide);

  MergeDriverOptions Narrow = Wide;
  Narrow.ExplorationThreshold = 1;
  RunOutcome NoCacheNarrow = runConfig(P, [&] {
    MergeDriverOptions D = Narrow;
    D.DecisionCachePath.clear();
    return D;
  }());
  RunOutcome Got = runConfig(P, Narrow);
  expectSameMerges(Got, NoCacheNarrow, "narrow after wide");
  EXPECT_EQ(Got.Stats.CacheLoadRejected, 1u);
  // The file now carries the narrow fingerprint: a warm narrow run hits.
  RunOutcome Warm = runConfig(P, Narrow);
  EXPECT_EQ(Warm.Stats.CacheLoadRejected, 0u);
  EXPECT_GT(Warm.Stats.CacheHits, 0u);
  std::remove(Narrow.DecisionCachePath.c_str());
}

TEST(DecisionCacheTest, CanonicalizeFlagInvalidatesTheFile) {
  // Canonicalize changes which pairs rank as candidates (hashes are
  // computed over the canonical shadow view), so it is part of the
  // decision geometry: a cache recorded with the flag off must be
  // refused by a run with it on, and vice versa.
  BenchmarkProfile P = cacheProfile(41);
  P.SyntacticDriftPercent = 25; // make the two geometries actually differ
  MergeDriverOptions Raw = baseOptions();
  Raw.DecisionCachePath = cachePath("canon");
  runConfig(P, Raw);

  MergeDriverOptions Canon = Raw;
  Canon.Canonicalize = true;
  RunOutcome NoCacheCanon = runConfig(P, [&] {
    MergeDriverOptions D = Canon;
    D.DecisionCachePath.clear();
    return D;
  }());
  RunOutcome Got = runConfig(P, Canon);
  expectSameMerges(Got, NoCacheCanon, "canon after raw");
  EXPECT_EQ(Got.Stats.CacheLoadRejected, 1u);
  // The file now carries the canonical fingerprint: warm canon run hits,
  // and a raw run is refused right back.
  RunOutcome Warm = runConfig(P, Canon);
  EXPECT_EQ(Warm.Stats.CacheLoadRejected, 0u);
  EXPECT_GT(Warm.Stats.CacheHits, 0u);
  RunOutcome RawAgain = runConfig(P, Raw);
  EXPECT_EQ(RawAgain.Stats.CacheLoadRejected, 1u);
  std::remove(Raw.DecisionCachePath.c_str());
}

//===----------------------------------------------------------------------===//
// CacheIO fault injection
//===----------------------------------------------------------------------===//

TEST(DecisionCacheTest, CacheIOFaultsDegradeToAColdRunNeverAWrongMerge) {
  BenchmarkProfile P = cacheProfile(37);
  MergeDriverOptions DO = baseOptions();
  DO.DecisionCachePath = cachePath("cacheio");
  runConfig(P, DO); // leaves a valid warm file behind
  std::vector<uint8_t> Valid = fileBytes(DO.DecisionCachePath);

  MergeDriverOptions Plain = baseOptions();
  RunOutcome Want = runConfig(P, Plain);

  MergeDriverOptions Faulted = DO;
  Faulted.Faults = FaultInjectionConfig::parse("seed=2,cacheio=1000");
  ASSERT_TRUE(Faulted.Faults.armed());
  ASSERT_EQ(Faulted.Faults.rate(FaultKind::CacheIO), 1000u);
  RunOutcome Got = runConfig(P, Faulted);
  // The valid file is there, but the injected I/O fault refuses it: the
  // run is a plain cold run, and the failed save leaves the file alone.
  expectSameMerges(Got, Want, "cacheio-faulted");
  EXPECT_EQ(Got.Stats.CacheLoadRejected, 1u);
  EXPECT_EQ(Got.Stats.CacheHits, 0u);
  EXPECT_EQ(fileBytes(DO.DecisionCachePath), Valid);
  std::remove(DO.DecisionCachePath.c_str());
}

//===----------------------------------------------------------------------===//
// The container itself
//===----------------------------------------------------------------------===//

TEST(DecisionCacheTest, RoundTripPreservesDecisionsExactly) {
  DecisionCache Cache;
  std::vector<DecisionCacheUpdate> Updates;
  CachedDecision Win;
  CachedAttempt Lose;
  Lose.Partner = {{0x1111, 0x2222}, 3};
  Lose.Distance = 42;
  Lose.ProfitObs = -7;
  Lose.Profitable = false;
  CachedAttempt Best;
  Best.Partner = {{0x3333, 0x4444}, 0};
  Best.Distance = 5;
  Best.ProfitObs = 99;
  Best.Profitable = true;
  Best.SeqLen1 = 3;
  Best.SeqLen2 = 2;
  Best.Align = {{0, 0}, {1, -1}, {2, 1}};
  Win.Attempts = {Lose, Best};
  Win.Winner = 1;
  Win.VoteTallied = true;
  Win.VoteWiden = true;
  Updates.push_back({{{0xabcd, 0xef01}, 7}, Win});
  Updates.push_back({{{0x9999, 0x8888}, 0}, CachedDecision{}}); // ranked dry
  Cache.apply(std::move(Updates));
  ASSERT_EQ(Cache.size(), 2u);

  std::string Path = cachePath("roundtrip");
  ASSERT_TRUE(Cache.save(Path, 0xfeedULL, nullptr));

  DecisionCache Loaded;
  ASSERT_EQ(Loaded.load(Path, 0xfeedULL, nullptr),
            DecisionCache::LoadOutcome::Loaded);
  ASSERT_EQ(Loaded.size(), 2u);
  const CachedDecision *D = Loaded.lookup({{0xabcd, 0xef01}, 7});
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Winner, 1);
  EXPECT_TRUE(D->VoteTallied);
  EXPECT_FALSE(D->VoteShrink);
  EXPECT_TRUE(D->VoteWiden);
  ASSERT_EQ(D->Attempts.size(), 2u);
  EXPECT_EQ(D->Attempts[0].Distance, 42u);
  EXPECT_EQ(D->Attempts[0].ProfitObs, -7);
  EXPECT_EQ(D->Attempts[1].SeqLen1, 3u);
  EXPECT_EQ(D->Attempts[1].Align, Best.Align);
  const CachedDecision *Dry = Loaded.lookup({{0x9999, 0x8888}, 0});
  ASSERT_NE(Dry, nullptr);
  EXPECT_TRUE(Dry->Attempts.empty());
  EXPECT_EQ(Dry->Winner, -1);
  // A fingerprint mismatch refuses the same bytes.
  DecisionCache Refused;
  EXPECT_EQ(Refused.load(Path, 0xbeefULL, nullptr),
            DecisionCache::LoadOutcome::Rejected);
  EXPECT_TRUE(Refused.empty());
  std::remove(Path.c_str());
}

TEST(DecisionCacheTest, NonBooleanRecordBytesAreRejected) {
  // The cache decodes by the wire protocol's strict rules: a Profitable
  // byte other than 0/1, or a vote-flag bit beyond the three flags, is a
  // damaged file even under a valid checksum.
  CachedAttempt A;
  A.Partner = {{0x11, 0x22}, 3};
  A.Profitable = true;
  CachedDecision D;
  D.Attempts = {A};
  D.Winner = 0;
  D.VoteTallied = true;
  DecisionCache Cache;
  std::vector<DecisionCacheUpdate> Updates;
  Updates.push_back({{{0x33, 0x44}, 0}, D});
  Cache.apply(std::move(Updates));
  std::string Path = cachePath("strict");
  ASSERT_TRUE(Cache.save(Path, 0xfeedULL, nullptr));
  const std::vector<uint8_t> Valid = fileBytes(Path);
  // 32-byte header, u64 count, 20-byte key, i32 winner, then the flags.
  const size_t FlagsAt = 32 + 8 + 20 + 4;
  // Flags, u32 attempt count, 20-byte partner key, distance, profit.
  const size_t ProfitableAt = FlagsAt + 1 + 4 + 20 + 8 + 8;
  ASSERT_EQ(Valid[FlagsAt], 1u);
  ASSERT_EQ(Valid[ProfitableAt], 1u);
  for (auto [At, Byte] : {std::pair<size_t, uint8_t>{FlagsAt, 0x09},
                          std::pair<size_t, uint8_t>{ProfitableAt, 2}}) {
    std::vector<uint8_t> Bad = Valid;
    Bad[At] = Byte;
    uint64_t Sum = fnv1a64(Bad.data() + 32, Bad.size() - 32);
    for (size_t I = 0; I < 8; ++I) // the payload checksum: header bytes 24..31
      Bad[24 + I] = static_cast<uint8_t>(Sum >> (8 * I));
    ASSERT_TRUE(writeFileBytes(Path, Bad));
    DecisionCache Loaded;
    EXPECT_EQ(Loaded.load(Path, 0xfeedULL, nullptr),
              DecisionCache::LoadOutcome::Rejected)
        << "byte " << At;
    EXPECT_TRUE(Loaded.empty());
  }
  std::remove(Path.c_str());
}

std::string hexOf(const std::vector<uint8_t> &Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  for (uint8_t B : Bytes) {
    Out += Digits[B >> 4];
    Out += Digits[B & 15];
  }
  return Out;
}

std::vector<uint8_t> hexBytes(const char *Hex) {
  std::vector<uint8_t> Out;
  auto nibble = [](char C) {
    return C <= '9' ? C - '0' : C - 'a' + 10;
  };
  for (const char *P = Hex; *P && P[1]; P += 2)
    Out.push_back(static_cast<uint8_t>(nibble(P[0]) << 4 | nibble(P[1])));
  return Out;
}

// Round trips cannot see a change that moves the same field in save() and
// load() alike, yet such a change silently turns every existing cache file
// into a wrong replay. This pins the file bytes of one fixed cache (format
// version 1); every field holds a distinct value, so swapping any two
// fields changes the bytes.
TEST(DecisionCacheTest, FileBytesArePinned) {
  // A committed entry: the winner carries an alignment, the other
  // attempt does not.
  CachedAttempt Lose;
  Lose.Partner = {{0x1112131415161718ULL, 0x191a1b1c1d1e1f20ULL}, 0x21};
  Lose.Distance = 0x22;
  Lose.ProfitObs = -3;
  Lose.Profitable = false;
  CachedAttempt Best;
  Best.Partner = {{0x3132333435363738ULL, 0x393a3b3c3d3e3f40ULL}, 0x41};
  Best.Distance = 0x42;
  Best.ProfitObs = 0x43;
  Best.Profitable = true;
  Best.SeqLen1 = 0x44;
  Best.SeqLen2 = 0x45;
  Best.Align = {{0, 0}, {1, -1}, {-1, 1}};
  CachedDecision Committed;
  Committed.Attempts = {Lose, Best};
  Committed.Winner = 1;
  // An entry that recorded an Adaptive vote (tallied, shrink, no widen).
  CachedAttempt Voter;
  Voter.Partner = {{0x5152535455565758ULL, 0x595a5b5c5d5e5f60ULL}, 0x61};
  Voter.Distance = 0x62;
  Voter.ProfitObs = 0x63;
  Voter.Profitable = true;
  CachedDecision Voted;
  Voted.Attempts = {Voter};
  Voted.Winner = 0;
  Voted.VoteTallied = true;
  Voted.VoteShrink = true;
  std::vector<DecisionCacheUpdate> Updates;
  Updates.push_back({{{0x0102030405060708ULL, 0x090a0b0c0d0e0f10ULL}, 1},
                     Committed});
  Updates.push_back({{{0x0102030405060708ULL, 0x090a0b0c0d0e0f10ULL}, 2},
                     CachedDecision{}}); // ranked dry: Winner -1
  Updates.push_back({{{0x7172737475767778ULL, 0x797a7b7c7d7e7f80ULL}, 3},
                     Voted});
  DecisionCache Cache;
  Cache.apply(std::move(Updates));

  const std::vector<uint8_t> Want = hexBytes(
      // magic "SALC", format version 1, options fingerprint
      "53414c4301000000efcdab8967452301"
      // payload size, payload checksum
      "0a01000000000000463a0e92640e0a68"
      // payload: entry count
      "0300000000000000"
      // committed entry: key (hash hi, hash lo, occurrence), winner 1,
      // no vote flags, two attempts
      "0807060504030201100f0e0d0c0b0a0901000000"
      "010000000002000000"
      //   losing attempt: partner key, distance, profit -3, unprofitable,
      //   sequence lengths 0 and 0, no alignment
      "1817161514131211201f1e1d1c1b1a1921000000"
      "2200000000000000fdffffffffffffff00"
      "000000000000000000000000"
      //   winning attempt: partner key, distance, profit, profitable,
      //   sequence lengths, three alignment pairs
      "3837363534333231403f3e3d3c3b3a3941000000"
      "4200000000000000430000000000000001"
      "440000004500000003000000"
      "000000000000000001000000ffffffffffffffff01000000"
      // dry entry: key, winner -1, no vote flags, no attempts
      "0807060504030201100f0e0d0c0b0a0902000000"
      "ffffffff0000000000"
      // voting entry: key, winner 0, tallied + shrink, one attempt
      "7877767574737271807f7e7d7c7b7a7903000000"
      "000000000301000000"
      "5857565554535251605f5e5d5c5b5a5961000000"
      "6200000000000000630000000000000001"
      "000000000000000000000000");
  std::string Path = cachePath("golden");
  ASSERT_TRUE(Cache.save(Path, 0x0123456789abcdefULL, nullptr));
  EXPECT_EQ(hexOf(fileBytes(Path)), hexOf(Want));

  ASSERT_TRUE(writeFileBytes(Path, Want));
  DecisionCache Loaded;
  ASSERT_EQ(Loaded.load(Path, 0x0123456789abcdefULL, nullptr),
            DecisionCache::LoadOutcome::Loaded);
  ASSERT_EQ(Loaded.size(), 3u);
  const CachedDecision *C =
      Loaded.lookup({{0x0102030405060708ULL, 0x090a0b0c0d0e0f10ULL}, 1});
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Winner, 1);
  EXPECT_FALSE(C->VoteTallied);
  ASSERT_EQ(C->Attempts.size(), 2u);
  EXPECT_EQ(C->Attempts[0].Partner, Lose.Partner);
  EXPECT_EQ(C->Attempts[0].Distance, Lose.Distance);
  EXPECT_EQ(C->Attempts[0].ProfitObs, Lose.ProfitObs);
  EXPECT_FALSE(C->Attempts[0].Profitable);
  EXPECT_TRUE(C->Attempts[0].Align.empty());
  EXPECT_EQ(C->Attempts[1].Partner, Best.Partner);
  EXPECT_EQ(C->Attempts[1].Distance, Best.Distance);
  EXPECT_EQ(C->Attempts[1].ProfitObs, Best.ProfitObs);
  EXPECT_TRUE(C->Attempts[1].Profitable);
  EXPECT_EQ(C->Attempts[1].SeqLen1, Best.SeqLen1);
  EXPECT_EQ(C->Attempts[1].SeqLen2, Best.SeqLen2);
  EXPECT_EQ(C->Attempts[1].Align, Best.Align);
  const CachedDecision *Dry =
      Loaded.lookup({{0x0102030405060708ULL, 0x090a0b0c0d0e0f10ULL}, 2});
  ASSERT_NE(Dry, nullptr);
  EXPECT_EQ(Dry->Winner, -1);
  EXPECT_TRUE(Dry->Attempts.empty());
  const CachedDecision *V =
      Loaded.lookup({{0x7172737475767778ULL, 0x797a7b7c7d7e7f80ULL}, 3});
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Winner, 0);
  EXPECT_TRUE(V->VoteTallied);
  EXPECT_TRUE(V->VoteShrink);
  EXPECT_FALSE(V->VoteWiden);
  ASSERT_EQ(V->Attempts.size(), 1u);
  EXPECT_EQ(V->Attempts[0].Partner, Voter.Partner);
  EXPECT_EQ(V->Attempts[0].ProfitObs, Voter.ProfitObs);
  // Saving what was loaded writes the pinned bytes again.
  ASSERT_TRUE(Loaded.save(Path, 0x0123456789abcdefULL, nullptr));
  EXPECT_EQ(hexOf(fileBytes(Path)), hexOf(Want));
  std::remove(Path.c_str());
}

} // namespace
