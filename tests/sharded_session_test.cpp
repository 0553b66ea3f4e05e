//===- tests/sharded_session_test.cpp - Sharded session contract ---------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// The contract of the sharded whole-program session
// (merge/CrossModuleMerger.h):
//
//  1. Bit-identity: under the default Distance selection, every shard
//     plan commits a bit-identical merge set to the one-shard session
//     (ShardCount = 1, every class in one pipeline) — same merges, same
//     records, same names, byte-identical module prints — at every shard
//     count x thread count. Pinned here for shard counts {2, 4, 8} x
//     thread counts {1, 4} on a heterogeneous (two-suite,
//     multi-return-type) group, plus FMSA and the auto shard count, plus
//     the MergeDriverOptions::ShardCount routing through
//     runFunctionMerging.
//  2. Shard counts clamp to the pool's merge-compatibility classes, and
//     the imbalance of the balancer's packing is reported.
//  3. Host policy: MergeDriverOptions::Host resolves Biggest/Hottest
//     deterministically; an explicit setHostModule always wins; merged
//     functions live only in the resolved host.
//  4. The profit-guided modes are shard-count-invariant too: their
//     ProfitModel/adaptive-threshold state is kept per
//     merge-compatibility class (MergePipeline.h), so every shard plan
//     reproduces the one-shard session bit for bit — the property that
//     lets one decision-cache file warm sessions at any shard count.
//
//===----------------------------------------------------------------------===//

#include "codesize/SizeModel.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "merge/CrossModuleMerger.h"
#include "workloads/Suites.h"
#include <gtest/gtest.h>

using namespace salssa;

namespace {

BenchmarkProfile varietyProfile(const char *Name, uint64_t Seed,
                                unsigned NumFns, unsigned Variety) {
  BenchmarkProfile P;
  P.Name = Name;
  P.NumFunctions = NumFns;
  P.MinSize = 6;
  P.AvgSize = 40;
  P.MaxSize = 160;
  P.CloneFamilyPercent = 55;
  P.MinFamily = 2;
  P.MaxFamily = 5;
  P.FamilyDriftPercent = 10;
  P.LoopPercent = 50;
  P.RetTypeVariety = Variety;
  P.Seed = Seed;
  return P;
}

/// Two suites, two TUs each: clone families span modules AND the pool
/// spans several return-type classes — the shape sharding exists for.
std::vector<BenchmarkProfile> twoSuites() {
  return {varietyProfile("alpha", 101, 48, 5),
          varietyProfile("beta", 202, 40, 4)};
}

MergeDriverOptions defaultOptions(unsigned NumThreads, unsigned Shards) {
  MergeDriverOptions DO;
  DO.Technique = MergeTechnique::SalSSA;
  DO.ExplorationThreshold = 3;
  DO.NumThreads = NumThreads;
  DO.ShardCount = Shards;
  return DO;
}

struct GroupOutcome {
  unsigned Attempts = 0;
  unsigned CommittedMerges = 0;
  unsigned CrossModuleMerges = 0;
  unsigned ShardCount = 0;
  double ShardImbalance = 0;
  std::vector<std::tuple<std::string, std::string, bool>> Records;
  uint64_t SizeAfter = 0;
  std::string Prints;
  bool VerifierOk = false;
};

GroupOutcome outcomeOf(const ModuleGroup &Group, const CrossModuleStats &S) {
  GroupOutcome O;
  O.Attempts = S.Driver.Attempts;
  O.CommittedMerges = S.Driver.CommittedMerges;
  O.CrossModuleMerges = S.CrossModuleMerges;
  O.ShardCount = S.Driver.ShardCount;
  O.ShardImbalance = S.Driver.ShardImbalance;
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

/// A session over a fresh build of the two-suite group.
GroupOutcome runSharded(MergeDriverOptions DO) {
  Context Ctx;
  ModuleGroup Group = buildSuiteModuleGroup(twoSuites(), Ctx, 2);
  CrossModuleMerger Session(DO);
  for (size_t I = 0; I < Group.size(); ++I)
    Session.addModule(Group[I]);
  CrossModuleStats S = Session.run();
  return outcomeOf(Group, S);
}

/// The baseline every shard plan must reproduce: one shard.
GroupOutcome runOneShard(MergeDriverOptions DO) {
  DO.ShardCount = 1;
  return runSharded(DO);
}

void expectSameMergeSet(const GroupOutcome &Got, const GroupOutcome &Want,
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

TEST(ShardedSessionTest, BitIdenticalToOneShardAtEveryShardAndThreadCount) {
  GroupOutcome Baseline = runOneShard(defaultOptions(1, 1));
  ASSERT_TRUE(Baseline.VerifierOk);
  ASSERT_GT(Baseline.CommittedMerges, 0u);
  ASSERT_GT(Baseline.CrossModuleMerges, 0u);
  EXPECT_EQ(Baseline.ShardCount, 1u);
  for (unsigned Shards : {1u, 2u, 4u, 8u})
    for (unsigned NT : {1u, 4u}) {
      GroupOutcome Sharded = runSharded(defaultOptions(NT, Shards));
      expectSameMergeSet(Sharded, Baseline,
                         "shards=" + std::to_string(Shards) +
                             " threads=" + std::to_string(NT));
      EXPECT_GE(Sharded.ShardCount, 1u);
      EXPECT_LE(Sharded.ShardCount, Shards);
    }
}

TEST(ShardedSessionTest, AutoShardCountMatchesToo) {
  GroupOutcome Baseline = runOneShard(defaultOptions(1, 1));
  MergeDriverOptions DO = defaultOptions(4, 0); // 0 = auto (threads)
  GroupOutcome Auto = runSharded(DO);
  expectSameMergeSet(Auto, Baseline, "auto shard count");
  EXPECT_GE(Auto.ShardCount, 1u);
  EXPECT_LE(Auto.ShardCount, 4u);
  EXPECT_GE(Auto.ShardImbalance, 1.0);
}

TEST(ShardedSessionTest, FMSATechniqueIsBitIdenticalToo) {
  MergeDriverOptions DO = defaultOptions(1, 1);
  DO.Technique = MergeTechnique::FMSA;
  GroupOutcome Baseline = runOneShard(DO);
  ASSERT_GT(Baseline.CommittedMerges, 0u);
  MergeDriverOptions Sharded = defaultOptions(2, 4);
  Sharded.Technique = MergeTechnique::FMSA;
  expectSameMergeSet(runSharded(Sharded), Baseline, "fmsa shards=4");
}

TEST(ShardedSessionTest, ShardCountRoutesThroughRunFunctionMerging) {
  // MergeDriverOptions::ShardCount reaches the single-module driver
  // entry point too, and 4 shards reproduce 1 shard bit for bit.
  BenchmarkProfile P = varietyProfile("solo", 77, 40, 4);
  auto runOne = [&](unsigned Shards) {
    Context Ctx;
    std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
    MergeDriverOptions DO = defaultOptions(1, Shards);
    MergeDriverStats S = runFunctionMerging(*M, DO);
    EXPECT_TRUE(verifyModule(*M).ok());
    std::string Serialized;
    for (const MergeRecord &R : S.Records)
      Serialized += R.Name1 + "|" + R.Name2 + "|" +
                    (R.Committed ? "C" : "-") + "\n";
    Serialized += printModule(*M);
    return std::make_tuple(S.Attempts, S.CommittedMerges, Serialized);
  };
  EXPECT_EQ(runOne(1), runOne(4));
}

TEST(ShardedSessionTest, ShardCountClampsToCompatibilityClasses) {
  // A variety-1 pool has a single class (every function returns i32):
  // any requested shard count collapses to 1, and the run still matches
  // the one-shard session exactly.
  BenchmarkProfile P = varietyProfile("mono", 55, 32, 1);
  auto session = [&](unsigned Shards) {
    Context Ctx;
    ModuleGroup Group = buildBenchmarkModuleGroup(P, Ctx, 2);
    CrossModuleMerger Session(defaultOptions(2, Shards));
    for (size_t I = 0; I < Group.size(); ++I)
      Session.addModule(Group[I]);
    CrossModuleStats S = Session.run();
    return outcomeOf(Group, S);
  };
  GroupOutcome Eight = session(8);
  EXPECT_EQ(Eight.ShardCount, 1u);
  EXPECT_DOUBLE_EQ(Eight.ShardImbalance, 1.0);
  expectSameMergeSet(Eight, session(1), "mono-class clamp");
}

TEST(ShardedSessionTest, ProfitModesAreShardCountInvariant) {
  // Calibration is per merge-compatibility class, and a class's serial
  // observation sequence is the same in every shard plan: the
  // profit-guided merge set is a function of (modules, options) alone —
  // never of the shard or thread count.
  for (SelectionStrategy Sel :
       {SelectionStrategy::Profit, SelectionStrategy::Adaptive}) {
    MergeDriverOptions Base = defaultOptions(1, 1);
    Base.Selection = Sel;
    GroupOutcome OneShard = runOneShard(Base);
    EXPECT_TRUE(OneShard.VerifierOk);
    EXPECT_GT(OneShard.CommittedMerges, 0u);
    for (unsigned Shards : {1u, 2u, 4u, 8u})
      for (unsigned NT : {1u, 4u}) {
        MergeDriverOptions DO = defaultOptions(NT, Shards);
        DO.Selection = Sel;
        expectSameMergeSet(runSharded(DO), OneShard,
                           "profit-mode sel=" + std::to_string(int(Sel)) +
                               " shards=" + std::to_string(Shards) +
                               " threads=" + std::to_string(NT));
      }
  }
}

TEST(ShardedSessionTest, HostPolicyBiggestPicksTheLargestModule) {
  // Profile "alpha" is bigger than "beta"; with 2 TUs per profile the
  // biggest module is one of alpha's. Verify against an independent
  // size scan, for both session flavours.
  for (bool Sharded : {false, true}) {
    Context Ctx;
    ModuleGroup Group = buildSuiteModuleGroup(twoSuites(), Ctx, 2);
    MergeDriverOptions DO = defaultOptions(2, Sharded ? 4u : 1u);
    DO.Host = HostPolicy::Biggest;
    size_t Expect = 0;
    uint64_t Best = 0;
    for (size_t I = 0; I < Group.size(); ++I) {
      uint64_t Sz = estimateModuleSize(Group[I], DO.Arch);
      if (Sz > Best) {
        Best = Sz;
        Expect = I;
      }
    }
    ASSERT_GT(Expect, 0u) << "host must not default to first for this "
                             "configuration to prove anything";
    CrossModuleMerger Session(DO);
    for (size_t I = 0; I < Group.size(); ++I)
      Session.addModule(Group[I]);
    CrossModuleStats S = Session.run();
    EXPECT_GT(S.Driver.CommittedMerges, 0u);
    EXPECT_EQ(Session.hostModule(), &Group[Expect])
        << (Sharded ? "4 shards" : "1 shard");
    // Merged functions (named "<fn>.m.N") live only in the host.
    for (size_t I = 0; I < Group.size(); ++I) {
      EXPECT_TRUE(verifyModule(Group[I]).ok());
      for (Function *F : Group[I].functions())
        if (F->getName().find(".m") != std::string::npos) {
          EXPECT_EQ(I, Expect) << "merged function " << F->getName()
                               << " outside the policy host";
        }
    }
  }
}

TEST(ShardedSessionTest, HostPolicyHottestFollowsCallSiteInDegree) {
  // Handcrafted group: M1's definition receives the most call sites
  // (3 from M0 + 1 from M2), so Hottest must pick M1 even though M0 is
  // registered first and M2 is bigger.
  Context Ctx;
  ModuleGroup Group;
  for (const char *Name : {"m0", "m1", "m2"})
    Group.add(std::make_unique<Module>(Name, Ctx));
  Type *I32 = Ctx.int32Ty();
  Type *FnTy = Ctx.types().getFunctionTy(I32, {I32});
  auto defineLeaf = [&](Module &M, const std::string &Name,
                        unsigned Pad) {
    Function *F = M.createFunction(Name, FnTy);
    IRBuilder B(Ctx, F->createBlock("entry"));
    Value *V = F->getArg(0);
    for (unsigned I = 0; I < Pad; ++I)
      V = B.createAdd(V, Ctx.getInt32(I + 1));
    B.createRet(V);
    return F;
  };
  auto defineCaller = [&](Module &M, const std::string &Name,
                          Function *Callee, unsigned Calls) {
    Function *F = M.createFunction(Name, FnTy);
    IRBuilder B(Ctx, F->createBlock("entry"));
    Value *V = F->getArg(0);
    for (unsigned I = 0; I < Calls; ++I)
      V = B.createCall(Callee, {V});
    B.createRet(V);
    return F;
  };
  Function *Hot = defineLeaf(Group[1], "hot", 2);
  defineCaller(Group[0], "caller0", Hot, 3);
  defineCaller(Group[2], "caller2", Hot, 1);
  defineLeaf(Group[2], "bulk", 24); // M2 is the biggest module
  ASSERT_TRUE(verifyModule(Group[0]).ok() && verifyModule(Group[1]).ok() &&
              verifyModule(Group[2]).ok());

  std::vector<Module *> Modules = {&Group[0], &Group[1], &Group[2]};
  EXPECT_EQ(selectHostModule(Modules, HostPolicy::Hottest,
                             TargetArch::X86Like),
            &Group[1]);
  EXPECT_EQ(selectHostModule(Modules, HostPolicy::Biggest,
                             TargetArch::X86Like),
            &Group[2]);
  EXPECT_EQ(selectHostModule(Modules, HostPolicy::First,
                             TargetArch::X86Like),
            &Group[0]);
}

TEST(ShardedSessionTest, ExplicitHostOverridesPolicy) {
  Context Ctx;
  ModuleGroup Group = buildSuiteModuleGroup(twoSuites(), Ctx, 2);
  MergeDriverOptions DO = defaultOptions(2, 4);
  DO.Host = HostPolicy::Biggest;
  CrossModuleMerger Session(DO);
  for (size_t I = 0; I < Group.size(); ++I)
    Session.addModule(Group[I]);
  Session.setHostModule(Group[3]);
  CrossModuleStats S = Session.run();
  EXPECT_GT(S.Driver.CommittedMerges, 0u);
  EXPECT_EQ(Session.hostModule(), &Group[3]);
  for (size_t I = 0; I < Group.size(); ++I)
    for (Function *F : Group[I].functions())
      if (F->getName().find(".m") != std::string::npos) {
        EXPECT_EQ(I, 3u) << "merged function outside the explicit host";
      }
}

} // namespace
