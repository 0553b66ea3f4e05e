//===- tests/heterogeneous_session_test.cpp - Mixed-suite sessions -------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Whole-program sessions over *heterogeneous* groups: several benchmark
// suites' modules linked into one session (workloads/Suites.h,
// buildSuiteModuleGroup). The bars:
//
//  1. Profitability: one session over suites A+B merges at least as much
//     as merging each suite's group alone — extra unrelated candidates
//     must never cost commits or size (the greedy order stays inside
//     each suite's compatibility classes unless a cross-suite pair
//     genuinely wins).
//  2. Determinism: byte-identical outcomes at 1 and 4 threads, at 1 and
//     4 shards (this file runs under the tsan preset, racing the
//     attempt stage and the shard pool under TSan).
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

BenchmarkProfile suiteProfile(const char *Name, uint64_t Seed,
                              unsigned NumFns, unsigned Variety) {
  BenchmarkProfile P;
  P.Name = Name;
  P.NumFunctions = NumFns;
  P.MinSize = 6;
  P.AvgSize = 42;
  P.MaxSize = 180;
  P.CloneFamilyPercent = 55;
  P.MinFamily = 2;
  P.MaxFamily = 5;
  P.FamilyDriftPercent = 10;
  P.LoopPercent = 50;
  P.RetTypeVariety = Variety;
  P.Seed = Seed;
  return P;
}

std::vector<BenchmarkProfile> mixedSuites() {
  return {suiteProfile("gamma", 311, 36, 3),
          suiteProfile("delta", 412, 32, 4)};
}

MergeDriverOptions defaultOptions(unsigned NumThreads, unsigned Shards = 1) {
  MergeDriverOptions DO;
  DO.Technique = MergeTechnique::SalSSA;
  DO.ExplorationThreshold = 3;
  DO.NumThreads = NumThreads;
  DO.ShardCount = Shards;
  return DO;
}

struct SessionResult {
  unsigned Commits = 0;
  uint64_t SizeBefore = 0;
  uint64_t SizeAfter = 0;
  std::string Prints;
  bool VerifierOk = true;
};

SessionResult runOver(ModuleGroup &Group, const MergeDriverOptions &DO) {
  CrossModuleMerger Session(DO);
  for (size_t I = 0; I < Group.size(); ++I)
    Session.addModule(Group[I]);
  CrossModuleStats S = Session.run();
  SessionResult R;
  R.Commits = S.Driver.CommittedMerges;
  R.SizeBefore = S.SizeBefore;
  R.SizeAfter = S.SizeAfter;
  for (size_t I = 0; I < Group.size(); ++I) {
    R.Prints += printModule(Group[I]);
    R.VerifierOk = R.VerifierOk && verifyModule(Group[I]).ok();
  }
  return R;
}

TEST(HeterogeneousSessionTest, MixedSuitesMergeAtLeastEachSuiteAlone) {
  MergeDriverOptions DO = defaultOptions(1);
  unsigned AloneCommits = 0;
  uint64_t AloneAfter = 0;
  for (const BenchmarkProfile &P : mixedSuites()) {
    Context Ctx;
    ModuleGroup Group = buildSuiteModuleGroup({P}, Ctx, 2);
    SessionResult R = runOver(Group, DO);
    EXPECT_TRUE(R.VerifierOk) << P.Name;
    EXPECT_GT(R.Commits, 0u) << P.Name;
    AloneCommits += R.Commits;
    AloneAfter += R.SizeAfter;
  }
  Context Ctx;
  ModuleGroup Mixed = buildSuiteModuleGroup(mixedSuites(), Ctx, 2);
  SessionResult R = runOver(Mixed, DO);
  EXPECT_TRUE(R.VerifierOk);
  EXPECT_GE(R.Commits, AloneCommits)
      << "mixing suites into one session must not lose merges";
  EXPECT_LE(R.SizeAfter, AloneAfter)
      << "mixing suites into one session must not lose size reduction";
}

TEST(HeterogeneousSessionTest, DeterministicAcrossThreadCounts) {
  auto run = [](unsigned NumThreads, unsigned Shards) {
    Context Ctx;
    ModuleGroup Group = buildSuiteModuleGroup(mixedSuites(), Ctx, 2);
    return runOver(Group, defaultOptions(NumThreads, Shards));
  };
  for (unsigned Shards : {1u, 4u}) {
    SessionResult Serial = run(1, Shards);
    ASSERT_TRUE(Serial.VerifierOk);
    EXPECT_GT(Serial.Commits, 0u);
    SessionResult Parallel = run(4, Shards);
    EXPECT_TRUE(Parallel.VerifierOk);
    EXPECT_EQ(Parallel.Commits, Serial.Commits) << "shards=" << Shards;
    EXPECT_EQ(Parallel.SizeAfter, Serial.SizeAfter) << "shards=" << Shards;
    EXPECT_EQ(Parallel.Prints, Serial.Prints) << "shards=" << Shards;
  }
}

TEST(HeterogeneousSessionTest, GroupRebuildIsDeterministic) {
  auto build = [] {
    Context Ctx;
    ModuleGroup Group = buildSuiteModuleGroup(mixedSuites(), Ctx, 2);
    std::string Prints;
    for (size_t I = 0; I < Group.size(); ++I)
      Prints += printModule(Group[I]);
    return Prints;
  };
  EXPECT_EQ(build(), build());
}

} // namespace
