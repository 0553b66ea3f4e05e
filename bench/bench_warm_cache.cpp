//===- bench/bench_warm_cache.cpp - Fast path + decision cache payoff ----------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Measures the two cold-start shortcuts (per *Optimistic Global Function
// Merger*):
//
//   Leg A - structural-hash pre-clustering: a clone-heavy workload (>=25%
//           hash-identical functions) merged with and without
//           MergeDriverOptions::HashClustering. The fast path must cut
//           exact pairing-distance evaluations by >= 2x at no reduction
//           cost (direct thunks skip fid dispatch, so the clustered
//           module can only be smaller or equal).
//
//   Leg B - persistent decision cache: the same session run cold
//           (recording) and warm (replaying) through one
//           DecisionCachePath. The warm run must replay every entry —
//           zero pairing work, zero alignment bytes — and emit a
//           byte-identical merged module. It replays once more at 4
//           threads with ShardCount 1, where each class gets every
//           thread: the attempt workers must build replayed winners
//           (SpeculativeAttempts > 0) without discarding one, and the
//           module must stay byte-identical.
//
// Modes:
//   (default)  sweep: cold/warm wall-clock and work counters across
//              selection modes and shard counts on a 512-function pool.
//   --smoke    the acceptance bars above on a CI-sized pool; wall-clock
//              is reported but never gated (the counters are the
//              deterministic signal). Writes a JsonSummary
//              (SALSSA_BENCH_JSON): cache_hits, hash_cluster_commits,
//              cold_pairing_calls, warm_pairing_calls,
//              warm_speculative_attempts, reduction_pct.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "ir/IRPrinter.h"
#include <cstdio>
#include <cstring>

using namespace salssa;
using namespace salssa::bench;

namespace {

/// Clone-heavy pool: 60% of functions in families, zero drift — the
/// families are exact clones, the workload shape Leg A exists for.
BenchmarkProfile cloneHeavyProfile(unsigned NumFns) {
  BenchmarkProfile P;
  P.Name = "warm_cache";
  P.NumFunctions = NumFns;
  P.MinSize = 8;
  P.AvgSize = 42;
  P.MaxSize = 160;
  P.CloneFamilyPercent = 60;
  P.MinFamily = 3;
  P.MaxFamily = 6;
  P.FamilyDriftPercent = 0;
  P.LoopPercent = 45;
  P.RetTypeVariety = 4;
  P.Seed = 0xCAC4E;
  return P;
}

/// Drifted variant for Leg B: near-miss clones produce real multi-attempt
/// slates, so warm replay has non-winners to skip.
BenchmarkProfile driftedProfile(unsigned NumFns) {
  BenchmarkProfile P = cloneHeavyProfile(NumFns);
  P.Name = "warm_cache_drift";
  P.FamilyDriftPercent = 10;
  P.Seed = 0xCAC4F;
  return P;
}

struct CacheRun {
  MergeDriverStats Stats;
  uint64_t SizeBefore = 0;
  uint64_t SizeAfter = 0;
  std::string Print;
  bool VerifierOk = false;

  double reductionPercent() const {
    if (SizeBefore == 0)
      return 0;
    return 100.0 * (1.0 - double(SizeAfter) / double(SizeBefore));
  }
};

CacheRun runOnce(const BenchmarkProfile &P, MergeDriverOptions DO) {
  Context Ctx;
  std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
  CacheRun R;
  R.SizeBefore = estimateModuleSize(*M, DO.Arch);
  R.Stats = runFunctionMerging(*M, DO);
  R.SizeAfter = estimateModuleSize(*M, DO.Arch);
  R.Print = printModule(*M);
  R.VerifierOk = verifyModule(*M).ok();
  return R;
}

MergeDriverOptions baseOptions() {
  MergeDriverOptions DO;
  DO.Technique = MergeTechnique::SalSSA;
  DO.ExplorationThreshold = 3;
  return DO;
}

unsigned poolSize(unsigned Default) {
  unsigned Scale = benchScale();
  return Scale > 1 ? std::max(32u, Default / Scale) : Default;
}

int smokeMode() {
  const unsigned PoolFns = poolSize(192);
  printHeader("bench_warm_cache --smoke (pool " + std::to_string(PoolFns) +
              ")");

  // --- Leg A: structural-hash pre-clustering -----------------------------
  BenchmarkProfile Clones = cloneHeavyProfile(PoolFns);
  MergeDriverOptions Off = baseOptions();
  CacheRun Base = runOnce(Clones, Off);
  MergeDriverOptions On = Off;
  On.HashClustering = true;
  CacheRun Fast = runOnce(Clones, On);
  std::printf("clustering off: %u commits, %.2f%% reduction, %llu pairing "
              "calls, %.3fs\n",
              Base.Stats.CommittedMerges, Base.reductionPercent(),
              (unsigned long long)Base.Stats.PairingDistanceCalls,
              Base.Stats.TotalSeconds);
  std::printf("clustering on:  %u commits + %llu cluster groups, %.2f%% "
              "reduction, %llu pairing calls, %.3fs\n",
              Fast.Stats.CommittedMerges,
              (unsigned long long)Fast.Stats.HashClusterCommits,
              Fast.reductionPercent(),
              (unsigned long long)Fast.Stats.PairingDistanceCalls,
              Fast.Stats.TotalSeconds);
  if (!Base.VerifierOk || !Fast.VerifierOk) {
    std::printf("FAIL: verifier errors after merging\n");
    return 1;
  }
  if (Fast.Stats.HashClusterCommits == 0) {
    std::printf("FAIL: the clone-heavy pool produced no hash clusters — "
                "the workload no longer exercises the fast path\n");
    return 1;
  }
  if (Fast.Stats.PairingDistanceCalls * 2 > Base.Stats.PairingDistanceCalls) {
    std::printf("FAIL: pre-clustering must cut pairing distance calls by "
                ">= 2x (%llu vs %llu)\n",
                (unsigned long long)Fast.Stats.PairingDistanceCalls,
                (unsigned long long)Base.Stats.PairingDistanceCalls);
    return 1;
  }
  if (Fast.SizeAfter > Base.SizeAfter) {
    std::printf("FAIL: clustering lost reduction (%llu B vs %llu B after)\n",
                (unsigned long long)Fast.SizeAfter,
                (unsigned long long)Base.SizeAfter);
    return 1;
  }

  // --- Leg B: cold write / warm read -------------------------------------
  BenchmarkProfile Drifted = driftedProfile(PoolFns);
  const std::string CachePath = "bench_warm_cache.decisions.bin";
  std::remove(CachePath.c_str());
  MergeDriverOptions Cached = baseOptions();
  Cached.DecisionCachePath = CachePath;
  CacheRun Cold = runOnce(Drifted, Cached);
  CacheRun Warm = runOnce(Drifted, Cached);
  MergeDriverOptions Threaded = Cached;
  Threaded.NumThreads = 4;
  Threaded.ShardCount = 1;
  CacheRun Warm4 = runOnce(Drifted, Threaded);
  std::remove(CachePath.c_str());
  std::printf("cold: %u commits, %llu pairing calls, %zu peak align B, "
              "%.3fs\n",
              Cold.Stats.CommittedMerges,
              (unsigned long long)Cold.Stats.PairingDistanceCalls,
              Cold.Stats.PeakAlignmentBytes, Cold.Stats.TotalSeconds);
  std::printf("warm: %u commits, %llu hits / %llu misses / %llu skips, "
              "%llu pairing calls, %zu peak align B, %.3fs\n",
              Warm.Stats.CommittedMerges,
              (unsigned long long)Warm.Stats.CacheHits,
              (unsigned long long)Warm.Stats.CacheMisses,
              (unsigned long long)Warm.Stats.CacheSkips,
              (unsigned long long)Warm.Stats.PairingDistanceCalls,
              Warm.Stats.PeakAlignmentBytes, Warm.Stats.TotalSeconds);
  std::printf("warm, 4 threads, 1 shard: %u commits, %u winners built by "
              "workers, %u discarded, %.3fs\n",
              Warm4.Stats.CommittedMerges, Warm4.Stats.SpeculativeAttempts,
              Warm4.Stats.SpeculativeDiscarded, Warm4.Stats.TotalSeconds);
  if (!Cold.VerifierOk || !Warm.VerifierOk || !Warm4.VerifierOk) {
    std::printf("FAIL: verifier errors after merging\n");
    return 1;
  }
  if (Warm.Print != Cold.Print) {
    std::printf("FAIL: warm run is not byte-identical to its cold run\n");
    return 1;
  }
  if (Warm.Stats.CacheHits == 0 || Warm.Stats.CacheMisses != 0) {
    std::printf("FAIL: warm run must replay every entry (%llu hits, %llu "
                "misses)\n",
                (unsigned long long)Warm.Stats.CacheHits,
                (unsigned long long)Warm.Stats.CacheMisses);
    return 1;
  }
  if (Warm.Stats.PairingDistanceCalls >= Cold.Stats.PairingDistanceCalls ||
      Warm.Stats.PairingDistanceCalls != 0) {
    std::printf("FAIL: warm run must do zero pairing work (%llu vs cold "
                "%llu)\n",
                (unsigned long long)Warm.Stats.PairingDistanceCalls,
                (unsigned long long)Cold.Stats.PairingDistanceCalls);
    return 1;
  }
  if (Warm.Stats.PeakAlignmentBytes != 0) {
    std::printf("FAIL: warm run must do zero alignment work (%zu peak B)\n",
                Warm.Stats.PeakAlignmentBytes);
    return 1;
  }
  if (Warm4.Print != Cold.Print) {
    std::printf("FAIL: 4-thread warm run is not byte-identical to its cold "
                "run\n");
    return 1;
  }
  if (Warm4.Stats.SpeculativeAttempts == 0 ||
      Warm4.Stats.SpeculativeDiscarded != 0) {
    std::printf("FAIL: 4-thread warm run must build replayed winners on the "
                "attempt workers and keep them all (%u built, %u "
                "discarded)\n",
                Warm4.Stats.SpeculativeAttempts,
                Warm4.Stats.SpeculativeDiscarded);
    return 1;
  }

  JsonSummary Json("bench_warm_cache");
  Json.add("pool_functions", uint64_t(PoolFns));
  Json.add("hash_cluster_commits", Fast.Stats.HashClusterCommits);
  Json.add("clustered_pairing_calls", Fast.Stats.PairingDistanceCalls);
  Json.add("baseline_pairing_calls", Base.Stats.PairingDistanceCalls);
  Json.add("cache_hits", Warm.Stats.CacheHits);
  Json.add("cache_skips", Warm.Stats.CacheSkips);
  Json.add("cold_pairing_calls", Cold.Stats.PairingDistanceCalls);
  Json.add("warm_pairing_calls", Warm.Stats.PairingDistanceCalls);
  Json.add("warm_speculative_attempts", Warm4.Stats.SpeculativeAttempts);
  Json.add("reduction_pct", Cold.reductionPercent());
  Json.add("cold_seconds", Cold.Stats.TotalSeconds);
  Json.add("warm_seconds", Warm.Stats.TotalSeconds);

  std::printf("PASS: >=2x pairing cut from clustering, warm replay "
              "byte-identical with zero alignment work, replayed winners "
              "built on the attempt workers\n");
  return 0;
}

int sweepMode() {
  const unsigned PoolFns = poolSize(512);
  printHeader("Cold vs warm decision-cache sessions, " +
              std::to_string(PoolFns) + " functions");
  std::printf("%-10s %-8s %-6s %10s %12s %12s %12s %10s\n", "selection",
              "shards", "run", "commits", "pairing", "align B", "hits",
              "wall (s)");
  printRule(88);
  bool Ok = true;
  BenchmarkProfile P = driftedProfile(PoolFns);
  for (SelectionStrategy Sel :
       {SelectionStrategy::Distance, SelectionStrategy::Profit,
        SelectionStrategy::Adaptive}) {
    for (unsigned Shards : {1u, 4u}) {
      const std::string CachePath = "bench_warm_cache.sweep.bin";
      std::remove(CachePath.c_str());
      MergeDriverOptions DO = baseOptions();
      DO.Selection = Sel;
      DO.ShardCount = Shards;
      DO.NumThreads = 4;
      DO.DecisionCachePath = CachePath;
      CacheRun Cold = runOnce(P, DO);
      CacheRun Warm = runOnce(P, DO);
      std::remove(CachePath.c_str());
      Ok &= Cold.VerifierOk && Warm.VerifierOk && Warm.Print == Cold.Print;
      std::printf("%-10s %-8u %-6s %10u %12llu %12zu %12llu %10.3f\n",
                  selectionName(Sel), Shards, "cold",
                  Cold.Stats.CommittedMerges,
                  (unsigned long long)Cold.Stats.PairingDistanceCalls,
                  Cold.Stats.PeakAlignmentBytes,
                  (unsigned long long)Cold.Stats.CacheHits,
                  Cold.Stats.TotalSeconds);
      std::printf("%-10s %-8u %-6s %10u %12llu %12zu %12llu %10.3f\n",
                  selectionName(Sel), Shards, "warm",
                  Warm.Stats.CommittedMerges,
                  (unsigned long long)Warm.Stats.PairingDistanceCalls,
                  Warm.Stats.PeakAlignmentBytes,
                  (unsigned long long)Warm.Stats.CacheHits,
                  Warm.Stats.TotalSeconds);
      std::fflush(stdout);
    }
    printRule(88);
  }
  std::printf("\nWarm rows replay the cold run's serial decisions: ranking "
              "and alignment drop to zero, codegen runs with the recorded "
              "alignment, and the merged module is byte-identical (the "
              "smoke mode enforces it).\n");
  return Ok ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      return smokeMode();
  return sweepMode();
}
