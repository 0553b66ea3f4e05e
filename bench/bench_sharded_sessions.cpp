//===- bench/bench_sharded_sessions.cpp - Sharded vs unsharded sessions --------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Measures what sharding buys a whole-program session: a heterogeneous
// group (several suites, several return-type classes, split across TUs)
// is merged by CrossModuleMerger as one shard ("unsharded": ShardCount =
// 1, every class in one pipeline) and at several shard counts, on the
// same thread budget. Sharding replaces the optimistic attempt-stage parallelism
// (speculation waste, serial commit bottleneck, window barriers) with
// fully independent pipelines over provably independent partitions — the
// whole session, ranking and commits included, runs in parallel.
//
// Both flavours commit the bit-identical merge set (the tentpole
// contract, enforced here too), so every row differs in wall-clock only.
//
// Modes:
//   (default)  sweep: shard counts {1, 2, 4, 8} x thread counts {1, 4, 8}
//              on a 512-function group; reports wall-clock, speedup over
//              the unsharded run at the same thread count, and the
//              balancer's ShardImbalance.
//   --smoke    the acceptance bar: on the 512-function heterogeneous
//              group at 4 threads, the sharded session (4 shards) must
//              not be slower than the unsharded session (best of 2 runs
//              each), and must commit the identical merge set. The
//              timing leg is skipped under SALSSA_BENCH_NO_TIMING (TSan
//              builds — wall-clock there measures the sanitizer, not the
//              code). Writes a JsonSummary (SALSSA_BENCH_JSON).
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "ir/IRPrinter.h"
#include "merge/CrossModuleMerger.h"
#include <cstring>
#include <thread>

using namespace salssa;
using namespace salssa::bench;

namespace {

/// Four suites x 128 functions = 512 functions, several return-type
/// classes each, every suite split across 2 TUs (8 modules total).
std::vector<BenchmarkProfile> heterogeneousSuites(unsigned Total) {
  const unsigned Each = std::max(8u, Total / 4);
  auto P = [&](const char *Name, uint64_t Seed, unsigned Variety,
               unsigned AvgSize) {
    BenchmarkProfile B;
    B.Name = Name;
    B.NumFunctions = Each;
    B.MinSize = 6;
    B.AvgSize = AvgSize;
    B.MaxSize = 4 * AvgSize;
    B.CloneFamilyPercent = 55;
    B.MinFamily = 2;
    B.MaxFamily = 6;
    B.FamilyDriftPercent = 10;
    B.LoopPercent = 50;
    B.RetTypeVariety = Variety;
    B.Seed = Seed;
    return B;
  };
  return {P("shard_a", 0x51A, 5, 45), P("shard_b", 0x51B, 4, 55),
          P("shard_c", 0x51C, 5, 40), P("shard_d", 0x51D, 3, 60)};
}

MergeDriverOptions driverOptions(unsigned NumThreads, unsigned Shards) {
  MergeDriverOptions DO;
  DO.Technique = MergeTechnique::SalSSA;
  DO.ExplorationThreshold = 2;
  DO.NumThreads = NumThreads;
  DO.ShardCount = Shards;
  return DO;
}

struct SessionRun {
  double Seconds = 0;
  unsigned Commits = 0;
  unsigned ShardCount = 0;
  double Imbalance = 0;
  uint64_t SizeBefore = 0;
  uint64_t SizeAfter = 0;
  uint64_t PairingDistanceCalls = 0;
  std::string Prints;
  bool VerifierOk = true;

  double reductionPercent() const {
    if (SizeBefore == 0)
      return 0;
    return 100.0 * (1.0 - double(SizeAfter) / double(SizeBefore));
  }
};

SessionRun runSession(unsigned Total, unsigned NumThreads, unsigned Shards) {
  Context Ctx;
  ModuleGroup Group = buildSuiteModuleGroup(heterogeneousSuites(Total), Ctx, 2);
  CrossModuleMerger Session(driverOptions(NumThreads, Shards));
  for (size_t I = 0; I < Group.size(); ++I)
    Session.addModule(Group[I]);
  CrossModuleStats S = Session.run();
  SessionRun R;
  R.Seconds = S.Driver.TotalSeconds;
  R.Commits = S.Driver.CommittedMerges;
  R.ShardCount = S.Driver.ShardCount;
  R.Imbalance = S.Driver.ShardImbalance;
  R.SizeBefore = S.SizeBefore;
  R.SizeAfter = S.SizeAfter;
  R.PairingDistanceCalls = S.Driver.PairingDistanceCalls;
  for (size_t I = 0; I < Group.size(); ++I) {
    R.Prints += printModule(Group[I]);
    R.VerifierOk = R.VerifierOk && verifyModule(Group[I]).ok();
  }
  return R;
}

unsigned poolSize(unsigned Default) {
  unsigned Scale = benchScale();
  return Scale > 1 ? std::max(32u, Default / Scale) : Default;
}

bool timingEnabled() { return std::getenv("SALSSA_BENCH_NO_TIMING") == nullptr; }

int smokeMode() {
  const unsigned PoolFns = poolSize(512);
  printHeader("bench_sharded_sessions --smoke (pool " +
              std::to_string(PoolFns) + ", 4 threads)");

  // Deterministic leg: sharded and unsharded sessions must commit the
  // bit-identical merge set (merges, reduction, module bytes).
  SessionRun Unsharded = runSession(PoolFns, 4, 1);
  SessionRun Sharded = runSession(PoolFns, 4, 4);
  std::printf("unsharded: %u commits, %.2f%% reduction, %.3fs\n",
              Unsharded.Commits, Unsharded.reductionPercent(),
              Unsharded.Seconds);
  std::printf("sharded:   %u commits, %.2f%% reduction, %.3fs "
              "(%u shards, imbalance %.2f)\n",
              Sharded.Commits, Sharded.reductionPercent(), Sharded.Seconds,
              Sharded.ShardCount, Sharded.Imbalance);
  if (!Unsharded.VerifierOk || !Sharded.VerifierOk) {
    std::printf("FAIL: verifier errors after merging\n");
    return 1;
  }
  if (Sharded.Commits != Unsharded.Commits ||
      Sharded.SizeAfter != Unsharded.SizeAfter ||
      Sharded.Prints != Unsharded.Prints) {
    std::printf("FAIL: sharded session diverged from the unsharded merge "
                "set (%u vs %u commits, %llu vs %llu B after)\n",
                Sharded.Commits, Unsharded.Commits,
                (unsigned long long)Sharded.SizeAfter,
                (unsigned long long)Unsharded.SizeAfter);
    return 1;
  }
  if (Sharded.ShardCount < 2) {
    std::printf("FAIL: the heterogeneous pool produced only %u shard(s) — "
                "the workload no longer exercises sharding\n",
                Sharded.ShardCount);
    return 1;
  }

  JsonSummary Json("bench_sharded_sessions");
  Json.add("pool_functions", uint64_t(PoolFns));
  Json.add("commits", Unsharded.Commits);
  Json.add("reduction_pct", Unsharded.reductionPercent());
  Json.add("pairing_distance_calls", Unsharded.PairingDistanceCalls);
  Json.add("shards", Sharded.ShardCount);
  Json.add("shard_imbalance", Sharded.Imbalance);

  if (!timingEnabled()) {
    std::printf("PASS: identical merge sets (timing leg skipped: "
                "SALSSA_BENCH_NO_TIMING)\n");
    return 0;
  }

  // Timing leg: at 4 shards the sharded session must not lose to the
  // unsharded optimistic pipeline on the same thread budget. Up to 3
  // best-so-far attempts damp a noisy neighbour (the ctest registration
  // is additionally RUN_SERIAL so no sibling test competes for cores);
  // on <4-core machines both flavours degenerate toward serial, so like
  // bench_pipeline_scaling we only require the overhead to stay bounded
  // there instead of demanding a win the hardware cannot express.
  const unsigned HW = std::thread::hardware_concurrency();
  const double Allowed = HW >= 4 ? 1.0 : 1.10;
  double UnshardedBest = Unsharded.Seconds;
  double ShardedBest = Sharded.Seconds;
  for (int Attempt = 0; Attempt < 2 && ShardedBest > UnshardedBest * Allowed;
       ++Attempt) {
    UnshardedBest = std::min(UnshardedBest, runSession(PoolFns, 4, 1).Seconds);
    ShardedBest = std::min(ShardedBest, runSession(PoolFns, 4, 4).Seconds);
  }
  Json.add("unsharded_seconds", UnshardedBest);
  Json.add("sharded_seconds", ShardedBest);
  std::printf("best so far: unsharded %.3fs, sharded %.3fs (%.2fx, "
              "allowed ratio %.2f on %u hw cores)\n",
              UnshardedBest, ShardedBest, UnshardedBest / ShardedBest,
              Allowed, HW);
  if (ShardedBest > UnshardedBest * Allowed) {
    std::printf("FAIL: sharded session slower than unsharded at 4 shards "
                "(%.3fs vs %.3fs)\n",
                ShardedBest, UnshardedBest);
    return 1;
  }
  std::printf("PASS: sharded <= unsharded wall-clock, identical merge set\n");
  return 0;
}

int sweepMode() {
  const unsigned PoolFns = poolSize(512);
  printHeader("Sharded vs unsharded whole-program sessions, " +
              std::to_string(PoolFns) + " functions (4 suites x 2 TUs)");
  std::printf("%-8s %-8s %10s %10s %12s %10s %10s\n", "threads", "shards",
              "commits", "red %", "wall (s)", "speedup", "imbalance");
  printRule(74);
  bool Ok = true;
  for (unsigned NT : {1u, 4u, 8u}) {
    double UnshardedSecs = 0;
    for (unsigned Shards : {1u, 2u, 4u, 8u}) {
      SessionRun R = runSession(PoolFns, NT, Shards);
      Ok &= R.VerifierOk;
      if (Shards == 1)
        UnshardedSecs = R.Seconds;
      std::printf("%-8u %-8u %10u %9.2f%% %12.3f %9.2fx %10.2f\n", NT,
                  R.ShardCount, R.Commits, R.reductionPercent(), R.Seconds,
                  UnshardedSecs / std::max(1e-9, R.Seconds), R.Imbalance);
      std::fflush(stdout);
    }
    printRule(74);
  }
  std::printf("\nSharding runs whole pipelines — ranking, attempts, commits "
              "— concurrently over independent per-return-type partitions; "
              "the unsharded rows parallelize only the attempt stage and "
              "pay speculation waste. Identical merge sets throughout (the "
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
