//===- tests/pipeline_test.cpp - MergePipeline determinism tests --------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// The MergePipeline contract is that threading is a pure wall-clock
// optimization: for any NumThreads the driver commits the same merges,
// produces the same records in the same (serial) order, allocates the
// same merged-function names, and leaves behind a byte-identical module
// print. These tests run the driver over randomized clone-heavy modules
// at NumThreads in {1, 2, 3, 4, 8} — on pools longer than the attempt
// stream's look-ahead, and on one shorter than it that grows at its tail
// — and compare everything observable; the same binary runs under
// ThreadSanitizer in the SALSSA_TSAN=ON configuration, which additionally
// proves the attempt stage races on nothing.
//
//===----------------------------------------------------------------------===//

#include "codesize/SizeModel.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "merge/MergeDriver.h"
#include "support/ThreadPool.h"
#include "workloads/Suites.h"
#include <algorithm>
#include <atomic>
#include <gtest/gtest.h>

using namespace salssa;

namespace {

/// Pool size of the thread-determinism tests: longer than the attempt
/// stream's look-ahead (4 x threads entries) at 2, 4 and 8 threads, so
/// every parallel run commits entries while later ones are ranked ahead
/// and attempted on the workers.
constexpr unsigned MultiRoundPool = 72;

BenchmarkProfile pipelineProfile(uint64_t Seed,
                                 unsigned NumFns = MultiRoundPool) {
  BenchmarkProfile P;
  P.Name = "pipeline";
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
  unsigned ProfitableMerges = 0;
  unsigned CommittedMerges = 0;
  std::vector<std::tuple<std::string, std::string, bool>> Records;
  uint64_t ModuleSize = 0;
  std::string ModulePrint;
  bool VerifierOk = false;
  // Not compared by expectSameOutcome: they depend on the thread count.
  uint64_t PairingDistanceCalls = 0;
  uint64_t PairingProbes = 0;
  unsigned CommitConflicts = 0;
};

RunOutcome runDriver(const BenchmarkProfile &P, MergeDriverOptions DO,
                     unsigned NumThreads) {
  Context Ctx;
  std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
  DO.NumThreads = NumThreads;
  MergeDriverStats S = runFunctionMerging(*M, DO);
  RunOutcome O;
  O.Attempts = S.Attempts;
  O.ProfitableMerges = S.ProfitableMerges;
  O.CommittedMerges = S.CommittedMerges;
  for (const MergeRecord &R : S.Records)
    O.Records.emplace_back(R.Name1, R.Name2, R.Committed);
  O.ModuleSize = estimateModuleSize(*M, TargetArch::X86Like);
  O.ModulePrint = printModule(*M);
  O.VerifierOk = verifyModule(*M).ok();
  O.PairingDistanceCalls = S.PairingDistanceCalls;
  O.PairingProbes = S.PairingProbes;
  O.CommitConflicts = S.CommitConflicts;
  return O;
}

void expectSameOutcome(const RunOutcome &Got, const RunOutcome &Want,
                       const std::string &Tag) {
  EXPECT_TRUE(Got.VerifierOk) << Tag;
  EXPECT_EQ(Got.CommittedMerges, Want.CommittedMerges) << Tag;
  EXPECT_EQ(Got.Attempts, Want.Attempts) << Tag;
  EXPECT_EQ(Got.ProfitableMerges, Want.ProfitableMerges) << Tag;
  EXPECT_EQ(Got.ModuleSize, Want.ModuleSize) << Tag;
  ASSERT_EQ(Got.Records.size(), Want.Records.size()) << Tag;
  for (size_t I = 0; I < Got.Records.size(); ++I)
    EXPECT_EQ(Got.Records[I], Want.Records[I]) << Tag << " record " << I;
  // The strongest check last: the final IR must print byte-identically
  // (same merges, same merged-function names, same function order).
  EXPECT_EQ(Got.ModulePrint, Want.ModulePrint) << Tag;
}

class PipelineDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineDeterminismTest, ThreadCountsProduceIdenticalMerges) {
  for (MergeTechnique Tech :
       {MergeTechnique::SalSSA, MergeTechnique::FMSA}) {
    BenchmarkProfile P = pipelineProfile(GetParam());
    MergeDriverOptions DO;
    DO.Technique = Tech;
    DO.ExplorationThreshold = 3;
    RunOutcome Serial = runDriver(P, DO, 1);
    ASSERT_TRUE(Serial.VerifierOk);
    EXPECT_GT(Serial.CommittedMerges, 0u); // the workload must exercise commits
    for (unsigned NT : {2u, 4u, 8u}) {
      RunOutcome Parallel = runDriver(P, DO, NT);
      expectSameOutcome(Parallel, Serial,
                        std::string(Tech == MergeTechnique::SalSSA
                                        ? "salssa"
                                        : "fmsa") +
                            " threads=" + std::to_string(NT));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDeterminismTest,
                         ::testing::Values(5ull, 23ull, 77ull));

TEST(PipelineTest, HardwareThreadCountResolvesAndMatchesSerial) {
  BenchmarkProfile P = pipelineProfile(9, 20);
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 2;
  RunOutcome Serial = runDriver(P, DO, 1);
  // NumThreads = 0 resolves to the hardware concurrency, whatever it is.
  expectSameOutcome(runDriver(P, DO, 0), Serial, "threads=hw");
}

TEST(PipelineTest, StreamRankingWorkRepeatsExactly) {
  // The attempt stream ranks only on the commit thread, at points the
  // commit cursor fixes — never because a worker did or did not start a
  // task yet — so one pool at one thread count does the same pairing work
  // every run, however the workers are scheduled.
  BenchmarkProfile P = pipelineProfile(5);
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 3;
  RunOutcome First = runDriver(P, DO, 4);
  EXPECT_GT(First.PairingDistanceCalls, 0u);
  for (unsigned Run = 1; Run < 5; ++Run) {
    RunOutcome Again = runDriver(P, DO, 4);
    std::string Tag = "run " + std::to_string(Run);
    EXPECT_EQ(Again.PairingDistanceCalls, First.PairingDistanceCalls) << Tag;
    EXPECT_EQ(Again.PairingProbes, First.PairingProbes) << Tag;
    EXPECT_EQ(Again.CommitConflicts, First.CommitConflicts) << Tag;
    expectSameOutcome(Again, First, Tag);
  }
}

TEST(PipelineTest, StreamGrowsAtItsTail) {
  // One clone family shorter than the look-ahead at every thread count
  // below: merged functions re-enter the pool inside the look-ahead, and
  // one merges again, so the stream ranks and schedules entries that did
  // not exist when it started.
  BenchmarkProfile P = pipelineProfile(31, 7);
  P.CloneFamilyPercent = 100;
  P.MinFamily = P.MaxFamily = 7;
  P.FamilyDriftPercent = 4;
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 2;
  RunOutcome Serial = runDriver(P, DO, 1);
  ASSERT_TRUE(Serial.VerifierOk);
  auto Remerge = [](const std::string &Name) {
    return Name.find(".m") != std::string::npos;
  };
  EXPECT_TRUE(std::any_of(Serial.Records.begin(), Serial.Records.end(),
                          [&Remerge](const auto &R) {
                            return std::get<2>(R) && (Remerge(std::get<0>(R)) ||
                                                      Remerge(std::get<1>(R)));
                          }))
      << "no merged function merged again";
  for (unsigned NT : {2u, 3u, 4u, 8u})
    expectSameOutcome(runDriver(P, DO, NT), Serial,
                      "threads=" + std::to_string(NT));
}

TEST(PipelineTest, NoRemergeStaysDeterministic) {
  BenchmarkProfile P = pipelineProfile(13);
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 2;
  DO.AllowRemerge = false;
  expectSameOutcome(runDriver(P, DO, 4), runDriver(P, DO, 1), "no-remerge");
}

TEST(ThreadPoolTest, RunsEveryJobExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::atomic<int> Counter{0};
  for (int I = 0; I < 1000; ++I)
    Pool.submit([&Counter] { Counter.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 1000);
  // The pool stays usable after a wait.
  Pool.submit([&Counter] { Counter.fetch_add(1); });
  Pool.wait();
  Pool.wait(); // idempotent
  EXPECT_EQ(Counter.load(), 1001);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::resolveThreadCount(3), 3u);
  EXPECT_GE(ThreadPool::resolveThreadCount(0), 1u);
}

TEST(ThreadPoolTest, JobExceptionRethrownAtWait) {
  // A throwing job must not std::terminate the worker; wait() rethrows
  // the captured exception to the caller.
  ThreadPool Pool(2);
  Pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  // The exception is consumed: a second wait is clean, and the pool
  // stays fully usable.
  Pool.wait();
  std::atomic<int> Counter{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Counter] { Counter.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 100);
}

TEST(ThreadPoolTest, FirstExceptionWinsAndOtherJobsStillRun) {
  ThreadPool Pool(4);
  std::atomic<int> Counter{0};
  for (int I = 0; I < 200; ++I)
    Pool.submit([&Counter, I] {
      Counter.fetch_add(1);
      if (I % 10 == 3)
        throw std::runtime_error("job " + std::to_string(I));
    });
  // Exactly one of the twenty throwers surfaces; the queue still drains
  // completely (a thrown job counts as executed, not retried).
  bool Caught = false;
  try {
    Pool.wait();
  } catch (const std::runtime_error &E) {
    Caught = true;
    EXPECT_EQ(std::string(E.what()).rfind("job ", 0), 0u) << E.what();
  }
  EXPECT_TRUE(Caught);
  EXPECT_EQ(Counter.load(), 200);
  Pool.wait(); // later exceptions were dropped, not queued
}

TEST(ThreadPoolTest, DestructionWithPendingExceptionIsSafe) {
  // Destroying a pool whose exception was never collected by wait()
  // must not terminate or leak the throw.
  ThreadPool Pool(2);
  Pool.submit([] { throw std::runtime_error("never collected"); });
  // Give the job a chance to run; destruction joins the workers either
  // way and drops the pending exception.
}

} // namespace
