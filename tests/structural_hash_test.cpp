//===- tests/structural_hash_test.cpp - Canonical hashing + pre-clustering -----===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// The structural-hash fast path contract (merge/StructuralHash.h):
//
//  1. The hash is canonical: blind to value/block/function names and to
//     the owning module, sensitive to every structural fact (opcodes,
//     types, constants, operand wiring, called symbol).
//  2. structurallyEqual is strict where the hash is lenient: callees and
//     globals must be pointer-identical, so a hash collision across
//     same-named-but-distinct symbols can never cluster.
//  3. preClusterIdenticalFunctions commits each confirmed, profitable
//     group as one verbatim body + direct thunks, returns the committed
//     groups, and degrades to the plain pipeline under Fingerprint
//     faults.
//  4. End to end, HashClustering cuts pairing work on a clone-heavy
//     workload without losing reduction, stays deterministic at every
//     thread and shard count, and leaves the default pipeline untouched.
//
//===----------------------------------------------------------------------===//

#include "codesize/SizeModel.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "merge/MergeDriver.h"
#include "merge/StructuralHash.h"
#include "workloads/Suites.h"
#include <gtest/gtest.h>

using namespace salssa;

namespace {

/// One straight-line body: ((a + C) * a) cmp'd and selected via a
/// diamond — enough structure (blocks, phi, constants, branch) to make
/// the canonicalization tests meaningful.
Function *buildDiamond(Module &M, const std::string &Name, uint64_t C,
                       const char *BlockTag = "bb") {
  Context &Ctx = M.getContext();
  Type *I32 = Ctx.int32Ty();
  Function *F =
      M.createFunction(Name, Ctx.types().getFunctionTy(I32, {I32}));
  BasicBlock *Entry = F->createBlock(std::string(BlockTag) + "_entry");
  BasicBlock *Then = F->createBlock(std::string(BlockTag) + "_then");
  BasicBlock *Join = F->createBlock(std::string(BlockTag) + "_join");
  IRBuilder B(Ctx, Entry);
  Value *A = F->getArg(0);
  Value *Sum = B.createAdd(A, Ctx.getInt32(C));
  Value *Prod = B.createMul(Sum, A);
  Value *Cond = B.createICmp(CmpPredicate::SLT, Prod, Ctx.getInt32(100));
  B.createCondBr(Cond, Then, Join);
  B.setInsertPoint(Then);
  Value *Twice = B.createAdd(Prod, Prod);
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *Phi = B.createPhi(I32);
  Phi->addIncoming(Prod, Entry);
  Phi->addIncoming(Twice, Then);
  B.createRet(Phi);
  return F;
}

/// A function whose only structure is a call into \p Callee.
Function *buildCaller(Module &M, const std::string &Name, Function *Callee) {
  Context &Ctx = M.getContext();
  Type *I32 = Ctx.int32Ty();
  Function *F =
      M.createFunction(Name, Ctx.types().getFunctionTy(I32, {I32}));
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *V = B.createCall(Callee, {F->getArg(0)});
  B.createRet(B.createAdd(V, Ctx.getInt32(7)));
  return F;
}

//===----------------------------------------------------------------------===//
// Canonical hashing
//===----------------------------------------------------------------------===//

TEST(StructuralHashTest, BlindToNamesAndOwningModule) {
  Context Ctx;
  Module M1("m1", Ctx), M2("m2", Ctx);
  Function *A = buildDiamond(M1, "alpha", 5, "x");
  Function *B = buildDiamond(M1, "a_very_different_name", 5, "yyyy");
  Function *C = buildDiamond(M2, "other_module", 5, "z");
  EXPECT_EQ(computeStructuralHash(*A), computeStructuralHash(*B));
  EXPECT_EQ(computeStructuralHash(*A), computeStructuralHash(*C));
  EXPECT_TRUE(structurallyEqual(*A, *B));
  EXPECT_TRUE(structurallyEqual(*A, *C)); // constants are Context-interned
}

TEST(StructuralHashTest, SeesEveryStructuralFact) {
  Context Ctx;
  Module M("m", Ctx);
  Function *Base = buildDiamond(M, "base", 5);
  StructuralHash H = computeStructuralHash(*Base);

  // A different constant.
  Function *Cst = buildDiamond(M, "cst", 6);
  EXPECT_NE(computeStructuralHash(*Cst), H);
  EXPECT_FALSE(structurallyEqual(*Base, *Cst));

  // A different signature type (i64 instead of i32) — structurally
  // different even before any instruction is compared.
  Type *I64 = Ctx.int64Ty();
  Function *Wide =
      M.createFunction("wide", Ctx.types().getFunctionTy(I64, {I64}));
  {
    IRBuilder B(Ctx, Wide->createBlock("entry"));
    B.createRet(B.createAdd(Wide->getArg(0), Ctx.getInt64(5)));
  }
  EXPECT_NE(computeStructuralHash(*Wide), H);

  // A different opcode on otherwise identical wiring.
  Type *I32 = Ctx.int32Ty();
  auto buildUnop = [&](const std::string &Name, bool Add) {
    Function *F =
        M.createFunction(Name, Ctx.types().getFunctionTy(I32, {I32}));
    IRBuilder B(Ctx, F->createBlock("entry"));
    Value *A = F->getArg(0);
    B.createRet(Add ? B.createAdd(A, Ctx.getInt32(3))
                    : B.createSub(A, Ctx.getInt32(3)));
    return F;
  };
  Function *AddF = buildUnop("addf", true);
  Function *SubF = buildUnop("subf", false);
  EXPECT_NE(computeStructuralHash(*AddF), computeStructuralHash(*SubF));
  EXPECT_FALSE(structurallyEqual(*AddF, *SubF));
}

TEST(StructuralHashTest, EqualityIsStrictWhereTheHashIsLenient) {
  // Two modules each define a callee under the same name and signature.
  // The hash content-addresses the call by symbol (equal hashes — the
  // cross-run property the DecisionCache needs); structurallyEqual
  // demands the same callee *object* and must refuse.
  Context Ctx;
  Module M1("m1", Ctx), M2("m2", Ctx);
  Function *Leaf1 = buildDiamond(M1, "leaf", 9);
  Function *Leaf2 = buildDiamond(M2, "leaf", 9);
  Function *C1 = buildCaller(M1, "caller", Leaf1);
  Function *C2 = buildCaller(M2, "caller", Leaf2);
  EXPECT_EQ(computeStructuralHash(*C1), computeStructuralHash(*C2));
  EXPECT_FALSE(structurallyEqual(*C1, *C2));
  // Same module, same callee object: both agree.
  Function *C3 = buildCaller(M1, "caller2", Leaf1);
  EXPECT_EQ(computeStructuralHash(*C1), computeStructuralHash(*C3));
  EXPECT_TRUE(structurallyEqual(*C1, *C3));
}

//===----------------------------------------------------------------------===//
// The pre-cluster pass
//===----------------------------------------------------------------------===//

TEST(PreClusterTest, CommitsOneBodyAndDirectThunks) {
  // The body lands in its own target module, the way a class pipeline
  // clusters into its scratch module; the thunks stay where they are.
  Context Ctx;
  Module M("m", Ctx), Target("target", Ctx);
  Function *K1 = buildDiamond(M, "k1", 5);
  Function *K2 = buildDiamond(M, "k2", 5, "other");
  Function *Lone = buildDiamond(M, "lone", 17);
  Function *K3 = buildDiamond(M, "k3", 5, "names");

  uint64_t Faults = 0;
  std::vector<PreClusterGroup> Groups = preClusterIdenticalFunctions(
      {K1, K2, Lone, K3}, Target, TargetArch::X86Like, nullptr, Faults);
  EXPECT_EQ(Faults, 0u);
  ASSERT_EQ(Groups.size(), 1u);
  const PreClusterGroup &G = Groups.front();
  EXPECT_EQ(G.Members, (std::vector<Function *>{K1, K2, K3}));
  EXPECT_EQ(G.FirstSeen, K1);

  // The merged body is a verbatim clone of the leader under "k1.m.N".
  Function *Merged = G.Merged;
  ASSERT_NE(Merged, nullptr);
  EXPECT_EQ(Merged->getParent(), &Target);
  EXPECT_EQ(Merged->getName().rfind("k1.m.", 0), 0u) << Merged->getName();
  EXPECT_TRUE(verifyModule(M).ok());
  EXPECT_TRUE(verifyModule(Target).ok());
  EXPECT_TRUE(structurallyEqual(*Merged, *buildDiamond(Target, "ref", 5, "r")));

  // Members became two-instruction direct thunks into the merged body.
  for (Function *F : {K1, K2, K3}) {
    ASSERT_EQ(F->getNumBlocks(), 1u) << F->getName();
    BasicBlock *BB = *F->blocks().begin();
    ASSERT_EQ(BB->size(), 2u) << F->getName();
    auto *Call = cast<CallInst>(*BB->begin());
    EXPECT_EQ(Call->getCallee(), Merged) << F->getName();
  }
  // The non-member keeps its body.
  EXPECT_TRUE(structurallyEqual(*Lone, *buildDiamond(M, "ref17", 17, "q")));
}

TEST(PreClusterTest, ProfitGateSkipsTinyGroups) {
  // Two-instruction bodies: thunking k of them costs more than the one
  // body it saves, so the group must be skipped.
  Context Ctx;
  Module M("m", Ctx);
  Type *I32 = Ctx.int32Ty();
  std::vector<Function *> Members;
  for (const char *Name : {"t1", "t2", "t3"}) {
    Function *F =
        M.createFunction(Name, Ctx.types().getFunctionTy(I32, {I32}));
    IRBuilder B(Ctx, F->createBlock("entry"));
    B.createRet(B.createAdd(F->getArg(0), Ctx.getInt32(1)));
    Members.push_back(F);
  }
  uint64_t Faults = 0;
  std::string Before = printModule(M);
  EXPECT_TRUE(preClusterIdenticalFunctions(Members, M, TargetArch::X86Like,
                                           nullptr, Faults)
                  .empty());
  EXPECT_EQ(printModule(M), Before);
}

TEST(PreClusterTest, FingerprintFaultsDegradeToThePlainPool) {
  Context Ctx;
  Module M("m", Ctx);
  std::vector<Function *> Members{buildDiamond(M, "k1", 5),
                                  buildDiamond(M, "k2", 5, "other"),
                                  buildDiamond(M, "k3", 5, "names")};
  FaultInjectionConfig Faults = FaultInjectionConfig::parse(
      "seed=3,fingerprint=1000");
  ASSERT_TRUE(Faults.armed());
  uint64_t Fired = 0;
  std::string Before = printModule(M);
  // Every fingerprint faulted: no clustering, nothing mutated, every
  // function left for the ordinary pipeline.
  EXPECT_TRUE(preClusterIdenticalFunctions(Members, M, TargetArch::X86Like,
                                           &Faults, Fired)
                  .empty());
  EXPECT_EQ(Fired, 3u);
  EXPECT_EQ(printModule(M), Before);
}

//===----------------------------------------------------------------------===//
// End to end through the driver
//===----------------------------------------------------------------------===//

/// Clone-heavy population with zero drift: families are exact clones, the
/// workload shape the fast path exists for (>=25% hash-identical).
BenchmarkProfile exactCloneProfile(uint64_t Seed) {
  BenchmarkProfile P;
  P.Name = "clones";
  P.NumFunctions = 48;
  P.MinSize = 8;
  P.AvgSize = 40;
  P.MaxSize = 120;
  P.CloneFamilyPercent = 60;
  P.MinFamily = 3;
  P.MaxFamily = 6;
  P.FamilyDriftPercent = 0; // exact clones
  P.LoopPercent = 40;
  P.RetTypeVariety = 3;
  P.Seed = Seed;
  return P;
}

struct DriverOutcome {
  MergeDriverStats Stats;
  std::string Print;
  uint64_t SizeAfter = 0;
  bool VerifierOk = false;
};

DriverOutcome runDriver(const BenchmarkProfile &P, MergeDriverOptions DO) {
  Context Ctx;
  std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
  DriverOutcome O;
  O.Stats = runFunctionMerging(*M, DO);
  O.Print = printModule(*M);
  O.SizeAfter = estimateModuleSize(*M, DO.Arch);
  O.VerifierOk = verifyModule(*M).ok();
  return O;
}

TEST(HashClusteringTest, CutsPairingWorkWithoutLosingReduction) {
  BenchmarkProfile P = exactCloneProfile(11);
  MergeDriverOptions Off;
  Off.ExplorationThreshold = 3;
  DriverOutcome Base = runDriver(P, Off);
  ASSERT_TRUE(Base.VerifierOk);
  ASSERT_GT(Base.Stats.CommittedMerges, 0u);

  MergeDriverOptions On = Off;
  On.HashClustering = true;
  DriverOutcome Fast = runDriver(P, On);
  EXPECT_TRUE(Fast.VerifierOk);
  EXPECT_GT(Fast.Stats.HashClusterCommits, 0u);
  // The clone families collapse before ranking ever runs: the acceptance
  // bar is >= 2x fewer exact distance evaluations.
  EXPECT_LE(Fast.Stats.PairingDistanceCalls * 2,
            Base.Stats.PairingDistanceCalls)
      << "clustered: " << Fast.Stats.PairingDistanceCalls
      << " baseline: " << Base.Stats.PairingDistanceCalls;
  // ... at no reduction cost (direct thunks skip fid dispatch, so the
  // clustered module can only be smaller or equal).
  EXPECT_LE(Fast.SizeAfter, Base.SizeAfter);
}

TEST(HashClusteringTest, DeterministicAtEveryThreadAndShardCount) {
  BenchmarkProfile P = exactCloneProfile(13);
  MergeDriverOptions DO;
  DO.ExplorationThreshold = 3;
  DO.HashClustering = true;
  DriverOutcome Serial = runDriver(P, DO);
  ASSERT_TRUE(Serial.VerifierOk);
  ASSERT_GT(Serial.Stats.HashClusterCommits, 0u);
  for (unsigned Shards : {1u, 4u})
    for (unsigned NT : {1u, 4u}) {
      MergeDriverOptions V = DO;
      V.NumThreads = NT;
      V.ShardCount = Shards;
      DriverOutcome O = runDriver(P, V);
      std::string Tag = "shards=" + std::to_string(Shards) +
                        " threads=" + std::to_string(NT);
      EXPECT_EQ(O.Print, Serial.Print) << Tag;
      EXPECT_EQ(O.Stats.CommittedMerges, Serial.Stats.CommittedMerges) << Tag;
      EXPECT_EQ(O.Stats.HashClusterCommits, Serial.Stats.HashClusterCommits)
          << Tag;
      EXPECT_EQ(O.Stats.Attempts, Serial.Stats.Attempts) << Tag;
    }
}

} // namespace
