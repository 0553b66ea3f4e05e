//===- bench/bench_pipeline_scaling.cpp - Attempt-stage thread scaling ---------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Measures the staged merge driver (MergePipeline) as the worker count
// grows on a fixed clone-heavy pool. The serial path (1 thread) is the
// legacy driver; every other row runs the attempt stream described in
// merge/README.md. Committed merges, records and final module bytes are
// identical across rows by construction — the table verifies that on
// every run — so the comparison is pure attempt-stage wall time.
//
// Modes:
//   (default)  scaling table over 1/2/4/8 threads at a 512-function pool,
//              with speculation/conflict counters. Exits non-zero if any
//              row commits different merges, or if 4 threads fail the
//              >= 2x speedup acceptance bar on hardware with >= 4 cores.
//   --smoke    one 512-function pool, serial vs multi-thread; FAILS
//              (exit 1) if outcomes differ or the multi-thread driver
//              falls below serial throughput (with head-room for
//              single-core machines, where threading can only add
//              overhead) — wired into ctest as a regression guard. Its
//              JSON line carries the stream's speculative_attempts,
//              speculative_discarded and inline_reattempts.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "support/ThreadPool.h"
#include <cstring>

using namespace salssa;
using namespace salssa::bench;

namespace {

BenchmarkProfile pipelineProfile(unsigned NumFunctions) {
  BenchmarkProfile P;
  P.Name = "pipeline" + std::to_string(NumFunctions);
  P.NumFunctions = NumFunctions;
  P.MinSize = 6;
  P.AvgSize = 45;
  P.MaxSize = 220;
  P.CloneFamilyPercent = 45;
  P.MinFamily = 2;
  P.MaxFamily = 5;
  P.FamilyDriftPercent = 12;
  P.LoopPercent = 50;
  P.Seed = 0x9a11e1;
  return P;
}

struct ThreadRun {
  double TotalSeconds = 0;
  uint64_t SizeAfter = 0;
  unsigned CommittedMerges = 0;
  unsigned SpeculativeAttempts = 0;
  unsigned SpeculativeDiscarded = 0;
  unsigned CommitConflicts = 0;
  unsigned InlineReattempts = 0;
};

ThreadRun runOnce(unsigned NumFunctions, unsigned NumThreads) {
  Context Ctx;
  BenchmarkProfile P = pipelineProfile(NumFunctions);
  std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
  MergeDriverOptions DO;
  DO.Technique = MergeTechnique::SalSSA;
  DO.ExplorationThreshold = 2;
  DO.NumThreads = NumThreads;
  MergeDriverStats S = runFunctionMerging(*M, DO);
  ThreadRun R;
  R.TotalSeconds = S.TotalSeconds;
  R.SizeAfter = estimateModuleSize(*M, TargetArch::X86Like);
  R.CommittedMerges = S.CommittedMerges;
  R.SpeculativeAttempts = S.SpeculativeAttempts;
  R.SpeculativeDiscarded = S.SpeculativeDiscarded;
  R.CommitConflicts = S.CommitConflicts;
  R.InlineReattempts = S.InlineReattempts;
  return R;
}

ThreadRun bestOf(unsigned NumFunctions, unsigned NumThreads, int Repeats) {
  ThreadRun Best = runOnce(NumFunctions, NumThreads);
  for (int R = 1; R < Repeats; ++R) {
    ThreadRun Next = runOnce(NumFunctions, NumThreads);
    if (Next.SizeAfter != Best.SizeAfter ||
        Next.CommittedMerges != Best.CommittedMerges) {
      std::fprintf(stderr, "FATAL: nondeterministic merge outcome\n");
      std::abort();
    }
    if (Next.TotalSeconds < Best.TotalSeconds)
      Best = Next;
  }
  return Best;
}

unsigned poolSize() {
  unsigned N = 512;
  unsigned Scale = benchScale();
  return Scale > 1 ? std::max(16u, N / Scale) : N;
}

int smokeMode() {
  const unsigned PoolFns = poolSize();
  const unsigned HW = ThreadPool::resolveThreadCount(0);
  const unsigned MT = std::min(4u, std::max(2u, HW));
  // With enough cores for real parallelism the driver must not lose to
  // serial (in practice it is >= 2x there, so 1.0 has ample head-room).
  // On 1-2 core machines threading can only add overhead, and a loaded
  // small CI runner legitimately lands just under parity — require the
  // overhead to stay bounded instead.
  const double NeedSpeedup = HW >= 4 ? 1.0 : 0.8;
  printHeader("bench_pipeline_scaling --smoke (pool " +
              std::to_string(PoolFns) + ", " + std::to_string(MT) +
              " threads, " + std::to_string(HW) + " hw cores)");
  double BestSpeedup = 0;
  for (int Attempt = 0; Attempt < 3; ++Attempt) {
    ThreadRun Serial = runOnce(PoolFns, 1);
    ThreadRun Multi = runOnce(PoolFns, MT);
    if (Serial.SizeAfter != Multi.SizeAfter ||
        Serial.CommittedMerges != Multi.CommittedMerges) {
      std::printf("FAIL: thread counts disagree (serial: size %llu, %u "
                  "merges; %u threads: size %llu, %u merges)\n",
                  (unsigned long long)Serial.SizeAfter,
                  Serial.CommittedMerges, MT,
                  (unsigned long long)Multi.SizeAfter, Multi.CommittedMerges);
      return 1;
    }
    double Speedup = Multi.TotalSeconds > 0
                         ? Serial.TotalSeconds / Multi.TotalSeconds
                         : 0.0;
    BestSpeedup = std::max(BestSpeedup, Speedup);
    std::printf("attempt %d: serial %.3f s, %u threads %.3f s, speedup "
                "%.2fx (committed %u, conflicts %u)\n",
                Attempt + 1, Serial.TotalSeconds, MT, Multi.TotalSeconds,
                Speedup, Multi.CommittedMerges, Multi.CommitConflicts);
    if (Speedup >= NeedSpeedup) {
      JsonSummary Json("bench_pipeline_scaling");
      Json.add("pool_functions", uint64_t(PoolFns));
      Json.add("threads", MT);
      Json.add("speedup_vs_serial", Speedup);
      Json.add("serial_seconds", Serial.TotalSeconds);
      Json.add("multi_seconds", Multi.TotalSeconds);
      Json.add("commits", Multi.CommittedMerges);
      Json.add("speculative_attempts", Multi.SpeculativeAttempts);
      Json.add("speculative_discarded", Multi.SpeculativeDiscarded);
      Json.add("inline_reattempts", Multi.InlineReattempts);
      std::printf("PASS: multi-thread throughput is %.2fx of serial "
                  "(threshold %.2fx)\n", Speedup, NeedSpeedup);
      return 0;
    }
  }
  std::printf("FAIL: multi-thread throughput stayed below %.2fx of serial "
              "(best %.2fx)\n", NeedSpeedup, BestSpeedup);
  return 1;
}

int scalingMode() {
  const unsigned PoolFns = poolSize();
  const unsigned HW = ThreadPool::resolveThreadCount(0);
  printHeader("Attempt-stage scaling: MergePipeline at a " +
              std::to_string(PoolFns) + "-function pool (" +
              std::to_string(HW) + " hw cores)");
  std::printf("%-8s %12s %9s %10s %10s %10s %10s %10s\n", "threads",
              "total (s)", "speedup", "committed", "spec.att", "discarded",
              "conflicts", "redone");
  printRule(88);

  double SerialSeconds = 0;
  uint64_t SerialSize = 0;
  unsigned SerialCommitted = 0;
  bool AllEqual = true;
  double SpeedupAt4 = 0;
  for (unsigned NT : {1u, 2u, 4u, 8u}) {
    ThreadRun R = bestOf(PoolFns, NT, 3);
    if (NT == 1) {
      SerialSeconds = R.TotalSeconds;
      SerialSize = R.SizeAfter;
      SerialCommitted = R.CommittedMerges;
    }
    bool Equal =
        R.SizeAfter == SerialSize && R.CommittedMerges == SerialCommitted;
    AllEqual &= Equal;
    double Speedup = R.TotalSeconds > 0 ? SerialSeconds / R.TotalSeconds : 0;
    if (NT == 4)
      SpeedupAt4 = Speedup;
    std::printf("%-8u %12.3f %8.2fx %10u %10u %10u %10u %10u%s\n", NT,
                R.TotalSeconds, Speedup, R.CommittedMerges,
                R.SpeculativeAttempts, R.SpeculativeDiscarded,
                R.CommitConflicts, R.InlineReattempts,
                Equal ? "" : "  OUTCOME MISMATCH");
    std::fflush(stdout);
  }
  printRule(88);
  // The >= 2x bar needs real cores; report but do not enforce elsewhere.
  bool SpeedupOk = HW < 4 || SpeedupAt4 >= 2.0;
  std::printf("\nacceptance: identical merges on every thread count: %s; "
              "speedup at 4 threads: %.2fx (need >= 2x%s)\n",
              AllEqual ? "yes" : "NO", SpeedupAt4,
              HW < 4 ? ", not enforced on < 4 hw cores" : "");
  return AllEqual && SpeedupOk ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      return smokeMode();
  return scalingMode();
}
