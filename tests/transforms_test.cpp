//===- tests/transforms_test.cpp - Transform pass unit tests ----------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "transforms/Cloning.h"
#include "transforms/Mem2Reg.h"
#include "transforms/Reg2Mem.h"
#include "transforms/Simplify.h"
#include <gtest/gtest.h>

using namespace salssa;

namespace {

/// Counts instructions with a given opcode in \p F.
static unsigned countOpcode(const Function &F, ValueKind K) {
  unsigned N = 0;
  for (const BasicBlock *BB : F)
    for (const Instruction *I : *BB)
      if (I->getOpcode() == K)
        ++N;
  return N;
}

/// Builds a classic loop with phis:
///   int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
static Function *buildLoopFunction(Module &M, const std::string &Name) {
  Context &Ctx = M.getContext();
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction(Name, FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(Ctx, Entry);
  B.createBr(Header);

  B.setInsertPoint(Header);
  PhiInst *I = B.createPhi(Ctx.int32Ty(), "i");
  PhiInst *S = B.createPhi(Ctx.int32Ty(), "s");
  Value *Cmp = B.createICmp(CmpPredicate::SLT, I, F->getArg(0), "cmp");
  B.createCondBr(Cmp, Body, Exit);

  B.setInsertPoint(Body);
  Value *S2 = B.createAdd(S, I, "s2");
  Value *I2 = B.createAdd(I, Ctx.getInt32(1), "i2");
  B.createBr(Header);

  I->addIncoming(Ctx.getInt32(0), Entry);
  I->addIncoming(I2, Body);
  S->addIncoming(Ctx.getInt32(0), Entry);
  S->addIncoming(S2, Body);

  B.setInsertPoint(Exit);
  B.createRet(S);
  return F;
}

//===----------------------------------------------------------------------===//
// Reg2Mem
//===----------------------------------------------------------------------===//

TEST(Reg2MemTest, EliminatesAllPhis) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "loop");
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  Reg2MemStats Stats = demoteRegistersToMemory(*F, Ctx);
  EXPECT_EQ(countOpcode(*F, ValueKind::Phi), 0u);
  EXPECT_EQ(Stats.DemotedPhis, 2u);
  EXPECT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str()
                                       << printFunction(*F);
}

TEST(Reg2MemTest, InflatesFunctionSize) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "loop");
  unsigned Before = static_cast<unsigned>(F->getInstructionCount());
  Reg2MemStats Stats = demoteRegistersToMemory(*F, Ctx);
  EXPECT_GT(F->getInstructionCount(), Before);
  EXPECT_GT(Stats.inflation(), 1.0);
  EXPECT_EQ(Stats.InstructionsBefore, Before);
}

TEST(Reg2MemTest, RoundTripThroughMem2RegPreservesShape) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "loop");
  size_t Original = F->getInstructionCount();
  demoteRegistersToMemory(*F, Ctx);
  Mem2RegStats PStats = promoteAllocasToRegisters(*F, Ctx);
  EXPECT_GT(PStats.PromotedAllocas, 0u);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  simplifyFunction(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  // After the round trip the function should be back to (about) its
  // original size: phis restored, spills gone.
  EXPECT_LE(F->getInstructionCount(), Original + 2);
  EXPECT_EQ(countOpcode(*F, ValueKind::Alloca), 0u);
}

TEST(Reg2MemTest, StraightLineCodeUntouchedExceptCrossBlock) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("s", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *X = B.createAdd(F->getArg(0), Ctx.getInt32(1), "x");
  Value *Y = B.createMul(X, X, "y");
  B.createRet(Y);
  Reg2MemStats Stats = demoteRegistersToMemory(*F, Ctx);
  // Everything is block-local: no demotion at all.
  EXPECT_EQ(Stats.DemotedValues, 0u);
  EXPECT_EQ(Stats.DemotedPhis, 0u);
  EXPECT_EQ(Stats.inflation(), 1.0);
}

TEST(Reg2MemTest, DemotesInvokeResultViaEdgeSplit) {
  Context Ctx;
  Module M("m", Ctx);
  Type *CalleeTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *Callee = M.createFunction("ext", CalleeTy);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *F = M.createFunction("inv", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Normal = F->createBlock("normal");
  BasicBlock *Unwind = F->createBlock("unwind");
  IRBuilder B(Ctx, Entry);
  InvokeInst *Inv = B.createInvoke(Callee, {}, Normal, Unwind, "r");
  B.setInsertPoint(Normal);
  B.createRet(Inv); // cross-block use of the invoke result
  B.setInsertPoint(Unwind);
  Value *Token = B.createLandingPad("lp");
  B.createResume(Token);

  demoteRegistersToMemory(*F, Ctx);
  EXPECT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str()
                                       << printFunction(*F);
  // The spill lives on a split edge, not in the invoke's own block.
  EXPECT_GT(F->getNumBlocks(), 3u);
}

//===----------------------------------------------------------------------===//
// Mem2Reg
//===----------------------------------------------------------------------===//

TEST(Mem2RegTest, PromotableDetection) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("p", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  AllocaInst *Good = B.createAlloca(Ctx.int32Ty(), 1, "good");
  AllocaInst *Escaped = B.createAlloca(Ctx.int32Ty(), 1, "escaped");
  AllocaInst *Array = B.createAlloca(Ctx.int32Ty(), 4, "array");
  B.createStore(F->getArg(0), Good);
  Value *L = B.createLoad(Ctx.int32Ty(), Good);
  // Escaped: address flows into a gep.
  B.createGep(Ctx.int32Ty(), Escaped, Ctx.getInt32(1));
  B.createRet(L);
  EXPECT_TRUE(isPromotableAlloca(Good));
  EXPECT_FALSE(isPromotableAlloca(Escaped));
  EXPECT_FALSE(isPromotableAlloca(Array));
}

TEST(Mem2RegTest, StoredAddressIsNotPromotable) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {});
  Function *F = M.createFunction("p", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  AllocaInst *A = B.createAlloca(Ctx.ptrTy(), 1, "a");
  AllocaInst *Target = B.createAlloca(Ctx.ptrTy(), 1, "t");
  B.createStore(A, Target); // A's address escapes as a stored value
  B.createRetVoid();
  EXPECT_FALSE(isPromotableAlloca(A));
  EXPECT_TRUE(isPromotableAlloca(Target));
}

TEST(Mem2RegTest, SingleBlockPromotion) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("p", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  AllocaInst *A = B.createAlloca(Ctx.int32Ty(), 1, "a");
  B.createStore(F->getArg(0), A);
  Value *L1 = B.createLoad(Ctx.int32Ty(), A, "l1");
  Value *Inc = B.createAdd(L1, Ctx.getInt32(1), "inc");
  B.createStore(Inc, A);
  Value *L2 = B.createLoad(Ctx.int32Ty(), A, "l2");
  B.createRet(L2);

  Mem2RegStats S = promoteAllocasToRegisters(*F, Ctx);
  EXPECT_EQ(S.PromotedAllocas, 1u);
  EXPECT_EQ(S.LoadsRemoved, 2u);
  EXPECT_EQ(S.StoresRemoved, 2u);
  EXPECT_EQ(S.PhisInserted, 0u);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  // ret now returns the add directly.
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_EQ(Ret->getReturnValue(), Inc);
}

TEST(Mem2RegTest, DiamondInsertsPhi) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("p", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *E = F->createBlock("e");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  AllocaInst *A = B.createAlloca(Ctx.int32Ty(), 1, "a");
  B.createCondBr(F->getArg(0), T, E);
  B.setInsertPoint(T);
  B.createStore(Ctx.getInt32(10), A);
  B.createBr(Join);
  B.setInsertPoint(E);
  B.createStore(Ctx.getInt32(20), A);
  B.createBr(Join);
  B.setInsertPoint(Join);
  Value *L = B.createLoad(Ctx.int32Ty(), A, "l");
  B.createRet(L);

  Mem2RegStats S = promoteAllocasToRegisters(*F, Ctx);
  EXPECT_EQ(S.PhisInserted, 1u);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  auto *P = dyn_cast<PhiInst>(Join->front());
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(cast<ConstantInt>(P->getIncomingValueForBlock(T))->getSExtValue(),
            10);
  EXPECT_EQ(cast<ConstantInt>(P->getIncomingValueForBlock(E))->getSExtValue(),
            20);
}

TEST(Mem2RegTest, ReadBeforeWriteYieldsUndef) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *F = M.createFunction("p", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  AllocaInst *A = B.createAlloca(Ctx.int32Ty(), 1, "a");
  Value *L = B.createLoad(Ctx.int32Ty(), A, "l");
  B.createRet(L);
  promoteAllocasToRegisters(*F, Ctx);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_TRUE(isa<UndefValue>(Ret->getReturnValue()));
}

TEST(Mem2RegTest, LoopPromotionMatchesHandWrittenPhis) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "loop");
  size_t HandWrittenPhis = countOpcode(*F, ValueKind::Phi);
  demoteRegistersToMemory(*F, Ctx);
  ASSERT_EQ(countOpcode(*F, ValueKind::Phi), 0u);
  promoteAllocasToRegisters(*F, Ctx);
  simplifyFunction(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_EQ(countOpcode(*F, ValueKind::Phi), HandWrittenPhis);
}

//===----------------------------------------------------------------------===//
// Simplify
//===----------------------------------------------------------------------===//

TEST(SimplifyTest, ConstantFolding) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *F = M.createFunction("cf", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *X = B.createAdd(Ctx.getInt32(2), Ctx.getInt32(3), "x");
  Value *Y = B.createMul(X, Ctx.getInt32(4), "y");
  B.createRet(Y);
  simplifyFunction(*F, Ctx);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  auto *C = dyn_cast<ConstantInt>(Ret->getReturnValue());
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getSExtValue(), 20);
  EXPECT_EQ(F->getInstructionCount(), 1u);
}

TEST(SimplifyTest, SelectIdenticalArmsFolds) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(),
                                         {Ctx.int1Ty(), Ctx.int32Ty()});
  Function *F = M.createFunction("sel", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *S = B.createSelect(F->getArg(0), F->getArg(1), F->getArg(1), "s");
  B.createRet(S);
  simplifyFunction(*F, Ctx);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_EQ(Ret->getReturnValue(), F->getArg(1));
}

TEST(SimplifyTest, SelectUndefArmFolds) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy =
      Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty(), Ctx.int32Ty()});
  Function *F = M.createFunction("sel", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *S = B.createSelect(F->getArg(0), F->getArg(1),
                            Ctx.getUndef(Ctx.int32Ty()), "s");
  B.createRet(S);
  simplifyFunction(*F, Ctx);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_EQ(Ret->getReturnValue(), F->getArg(1));
}

TEST(SimplifyTest, ConstantBranchFoldsAndDeadBlockGoes) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *F = M.createFunction("cb", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *E = F->createBlock("e");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(Ctx.getTrue(), T, E);
  B.setInsertPoint(T);
  B.createRet(Ctx.getInt32(1));
  B.setInsertPoint(E);
  B.createRet(Ctx.getInt32(2));
  SimplifyStats S = simplifyFunction(*F, Ctx);
  EXPECT_GE(S.BranchesFolded, 1u);
  // Entry merged with T; E unreachable and removed.
  EXPECT_EQ(F->getNumBlocks(), 1u);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_EQ(cast<ConstantInt>(Ret->getReturnValue())->getSExtValue(), 1);
}

TEST(SimplifyTest, ThreadsTrivialBlock) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("tt", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Mid = F->createBlock("mid"); // only a br
  BasicBlock *T = F->createBlock("t");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(0), Mid, T);
  B.setInsertPoint(Mid);
  B.createBr(Join);
  B.setInsertPoint(T);
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *P = B.createPhi(Ctx.int32Ty(), "p");
  P->addIncoming(Ctx.getInt32(1), Mid);
  P->addIncoming(Ctx.getInt32(2), T);
  B.createRet(P);
  simplifyFunction(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str()
                                       << printFunction(*F);
  // Mid and T are gone; phi entries retargeted to Entry... but both values
  // flow from Entry, which is impossible for a single block -- so the
  // threading must have kept at least one of them, or folded the phi by
  // rerouting only one side. Either way the function must stay correct:
  EXPECT_LE(F->getNumBlocks(), 3u);
}

TEST(SimplifyTest, MergesIdenticalPhis) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("ip", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *E = F->createBlock("e");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(0), T, E);
  B.setInsertPoint(T);
  B.createBr(Join);
  B.setInsertPoint(E);
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *P1 = B.createPhi(Ctx.int32Ty(), "p1");
  P1->addIncoming(Ctx.getInt32(1), T);
  P1->addIncoming(Ctx.getInt32(2), E);
  PhiInst *P2 = B.createPhi(Ctx.int32Ty(), "p2");
  P2->addIncoming(Ctx.getInt32(1), T);
  P2->addIncoming(Ctx.getInt32(2), E);
  Value *Sum = B.createAdd(P1, P2, "sum");
  B.createRet(Sum);
  SimplifyStats S = simplifyFunction(*F, Ctx);
  EXPECT_GE(S.PhisMerged, 1u);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_LE(countOpcode(*F, ValueKind::Phi), 1u);
}

TEST(SimplifyTest, RemovesUnreachableBlocks) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {});
  Function *F = M.createFunction("u", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Dead1 = F->createBlock("dead1");
  BasicBlock *Dead2 = F->createBlock("dead2");
  IRBuilder B(Ctx, Entry);
  B.createRetVoid();
  // Dead blocks reference each other.
  B.setInsertPoint(Dead1);
  B.createBr(Dead2);
  B.setInsertPoint(Dead2);
  B.createBr(Dead1);
  EXPECT_EQ(removeUnreachableBlocks(*F), 2u);
  EXPECT_EQ(F->getNumBlocks(), 1u);
  EXPECT_TRUE(verifyFunction(*F).ok());
}

TEST(SimplifyTest, DCERemovesChains) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("dce", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *A = B.createAdd(F->getArg(0), Ctx.getInt32(1), "a");
  B.createMul(A, A, "dead"); // unused chain head
  B.createRet(F->getArg(0));
  unsigned Removed = eliminateDeadCode(*F);
  EXPECT_EQ(Removed, 2u); // mul then add
  EXPECT_EQ(F->getInstructionCount(), 1u);
}

TEST(SimplifyTest, CallsSurviveDCE) {
  Context Ctx;
  Module M("m", Ctx);
  Type *ExtTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *Ext = M.createFunction("ext", ExtTy);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *F = M.createFunction("keep", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  B.createCall(Ext, {}, "unused"); // side effects: must stay
  B.createRet(Ctx.getInt32(0));
  EXPECT_EQ(eliminateDeadCode(*F), 0u);
  EXPECT_EQ(F->getInstructionCount(), 2u);
}

TEST(SimplifyTest, XorIdentities) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int1Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("x", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  // xor(c, false) == c -- the Fig 11 xor insertion should simplify away
  // when the function identifier is known.
  Value *X = B.createXor(F->getArg(0), Ctx.getFalse(), "x");
  B.createRet(X);
  simplifyFunction(*F, Ctx);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_EQ(Ret->getReturnValue(), F->getArg(0));
}

//===----------------------------------------------------------------------===//
// Pinned CFG edits: the clean-up passes keep predecessor maps current
// through their own edits, and these printed outputs pin the edit order.
//===----------------------------------------------------------------------===//

/// A function `f(i32 %x, i1 %c, i1 %d)` plus a side-effecting `sink(i32)`
/// that keeps blocks from being empty (and thus from being threaded).
struct PinnedFunction {
  Context Ctx;
  Module M{"m", Ctx};
  Function *Sink = nullptr;
  Function *F = nullptr;
  IRBuilder B{Ctx};

  explicit PinnedFunction(const std::string &Name) {
    Sink = M.createFunction(
        "sink", Ctx.types().getFunctionTy(Ctx.voidTy(), {Ctx.int32Ty()}));
    F = M.createFunction(
        Name, Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty(),
                                                        Ctx.int1Ty(),
                                                        Ctx.int1Ty()}));
  }
  BasicBlock *block(const std::string &Name) { return F->createBlock(Name); }
  void sink(Value *V) { B.createCall(Sink, {V}); }
  Value *x() { return F->getArg(0); }
  Value *c() { return F->getArg(1); }
  Value *d() { return F->getArg(2); }
};

TEST(PinnedEditsTest, MergeChainSeesEarlierMergesOfThePass) {
  // k's only predecessor is j; merging k into j makes j the unique
  // predecessor of m, which the same pass (walking layout order) then
  // merges as well — its phi dissolves.
  PinnedFunction P("chain");
  Context &Ctx = P.Ctx;
  BasicBlock *Entry = P.block("entry"), *L = P.block("l"), *R = P.block("r"),
             *J = P.block("j"), *K = P.block("k"), *Mb = P.block("m"),
             *N = P.block("n"), *Exit = P.block("exit");
  IRBuilder &B = P.B;
  B.setInsertPoint(Entry);
  Value *A = B.createAdd(P.x(), Ctx.getInt32(1), "a");
  P.sink(A);
  B.createCondBr(P.c(), L, R);
  B.setInsertPoint(L);
  P.sink(Ctx.getInt32(1));
  B.createBr(J);
  B.setInsertPoint(R);
  P.sink(Ctx.getInt32(2));
  B.createBr(J);
  B.setInsertPoint(J);
  PhiInst *PJ = B.createPhi(Ctx.int32Ty(), "pj");
  PJ->addIncoming(A, L);
  PJ->addIncoming(P.x(), R);
  P.sink(PJ);
  B.createBr(K);
  B.setInsertPoint(K);
  P.sink(Ctx.getInt32(3));
  B.createBr(Mb);
  B.setInsertPoint(Mb);
  PhiInst *PM = B.createPhi(Ctx.int32Ty(), "pm");
  PM->addIncoming(PJ, K);
  P.sink(PM);
  B.createCondBr(P.d(), N, Exit);
  B.setInsertPoint(N);
  P.sink(Ctx.getInt32(4));
  B.createBr(Exit);
  B.setInsertPoint(Exit);
  PhiInst *PE = B.createPhi(Ctx.int32Ty(), "pe");
  PE->addIncoming(PM, Mb);
  PE->addIncoming(Ctx.getInt32(9), N);
  B.createRet(PE);
  ASSERT_TRUE(verifyFunction(*P.F).ok()) << verifyFunction(*P.F).str();

  SimplifyStats S = simplifyFunction(*P.F, Ctx);
  ASSERT_TRUE(verifyFunction(*P.F).ok()) << verifyFunction(*P.F).str();
  EXPECT_EQ(S.BlocksRemoved, 2u); // k, then m, into j
  EXPECT_EQ(printFunction(*P.F), R"(define i32 @chain(i32 %arg0, i1 %arg1, i1 %arg2) {
entry:
  %a = add i32 %arg0, 1
  call void @sink(%a)
  br i1 %arg1, l, r
l:
  call void @sink(1)
  br j
r:
  call void @sink(2)
  br j
j:
  %pj = phi i32 [%a, l], [%arg0, r]
  call void @sink(%pj)
  call void @sink(3)
  call void @sink(%pj)
  br i1 %arg2, n, exit
n:
  call void @sink(4)
  br exit
exit:
  %pe = phi i32 [%pj, j], [9, n]
  ret i32 %pe
}
)");
}

TEST(PinnedEditsTest, ThreadingKeepsPredecessorLayoutOrder) {
  // t holds only a branch. Its predecessors are entry (twice, through a
  // switch), a and b; a already reaches dest with the same phi values as
  // t, so threading is allowed, and the rerouted predecessors gain phi
  // entries in layout order.
  PinnedFunction P("thread");
  Context &Ctx = P.Ctx;
  BasicBlock *Entry = P.block("entry"), *A = P.block("a"),
             *Bb = P.block("b"), *E = P.block("e"), *T = P.block("t"),
             *Dest = P.block("dest");
  IRBuilder &B = P.B;
  B.setInsertPoint(Entry);
  Value *V = B.createAdd(P.x(), Ctx.getInt32(5), "v");
  SwitchInst *SW = B.createSwitch(P.x(), T);
  SW->addCase(Ctx.getInt32(1), A);
  SW->addCase(Ctx.getInt32(2), T);
  SW->addCase(Ctx.getInt32(3), Bb);
  SW->addCase(Ctx.getInt32(4), E);
  B.setInsertPoint(A);
  P.sink(Ctx.getInt32(1));
  B.createCondBr(P.c(), T, Dest);
  B.setInsertPoint(Bb);
  P.sink(Ctx.getInt32(2));
  B.createBr(T);
  B.setInsertPoint(E);
  Value *W = B.createMul(P.x(), P.x(), "w");
  P.sink(W);
  B.createBr(Dest);
  B.setInsertPoint(T);
  B.createBr(Dest);
  B.setInsertPoint(Dest);
  PhiInst *P1 = B.createPhi(Ctx.int32Ty(), "p1");
  P1->addIncoming(V, A);
  P1->addIncoming(W, E);
  P1->addIncoming(V, T);
  PhiInst *P2 = B.createPhi(Ctx.int32Ty(), "p2");
  P2->addIncoming(Ctx.getInt32(7), T);
  P2->addIncoming(Ctx.getInt32(7), A);
  P2->addIncoming(Ctx.getInt32(8), E);
  Value *Sum = B.createAdd(P1, P2, "sum");
  B.createRet(Sum);
  ASSERT_TRUE(verifyFunction(*P.F).ok()) << verifyFunction(*P.F).str();

  SimplifyStats S = simplifyFunction(*P.F, Ctx);
  ASSERT_TRUE(verifyFunction(*P.F).ok()) << verifyFunction(*P.F).str();
  EXPECT_EQ(S.BlocksRemoved, 1u); // t
  EXPECT_EQ(printFunction(*P.F), R"(define i32 @thread(i32 %arg0, i1 %arg1, i1 %arg2) {
entry:
  %v = add i32 %arg0, 5
  switch i32 %arg0, default dest [1:a 2:dest 3:b 4:e]
a:
  call void @sink(1)
  br dest
b:
  call void @sink(2)
  br dest
e:
  %w = mul i32 %arg0, %arg0
  call void @sink(%w)
  br dest
dest:
  %p1 = phi i32 [%v, a], [%w, e], [%v, entry], [%v, b]
  %p2 = phi i32 [7, a], [8, e], [7, entry], [7, b]
  %sum = add i32 %p1, %p2
  ret i32 %sum
}
)");
}

TEST(PinnedEditsTest, PromotionFillsEdgesFromUnreachableBlocks) {
  // dead is unreachable and branches into the join, which needs phis for
  // both slots: renaming gives the reachable edges their values in visit
  // order, and clean-up appends undef for dead's edge.
  PinnedFunction P("promote");
  Context &Ctx = P.Ctx;
  BasicBlock *Entry = P.block("entry"), *L = P.block("l"), *R = P.block("r"),
             *Dead = P.block("dead"), *Join = P.block("join");
  IRBuilder &B = P.B;
  B.setInsertPoint(Entry);
  AllocaInst *S1 = B.createAlloca(Ctx.int32Ty(), 1, "s1");
  AllocaInst *S2 = B.createAlloca(Ctx.int32Ty(), 1, "s2");
  B.createStore(Ctx.getInt32(1), S1);
  B.createStore(P.x(), S2);
  B.createCondBr(P.c(), L, R);
  B.setInsertPoint(L);
  B.createStore(Ctx.getInt32(2), S1);
  B.createBr(Join);
  B.setInsertPoint(R);
  Value *Y = B.createAdd(P.x(), Ctx.getInt32(3), "y");
  B.createStore(Y, S2);
  B.createBr(Join);
  B.setInsertPoint(Dead);
  Value *Stale = B.createLoad(Ctx.int32Ty(), S2, "stale");
  B.createStore(Stale, S1);
  B.createBr(Join);
  B.setInsertPoint(Join);
  Value *V1 = B.createLoad(Ctx.int32Ty(), S1, "v1");
  Value *V2 = B.createLoad(Ctx.int32Ty(), S2, "v2");
  B.createRet(B.createAdd(V1, V2, "r"));
  ASSERT_TRUE(verifyFunction(*P.F).ok()) << verifyFunction(*P.F).str();

  Mem2RegStats St = promoteAllocas(*P.F, Ctx, {S1, S2});
  ASSERT_TRUE(verifyFunction(*P.F).ok()) << verifyFunction(*P.F).str();
  EXPECT_EQ(St.PromotedAllocas, 2u);
  EXPECT_EQ(St.PhisInserted, 2u);
  EXPECT_EQ(printFunction(*P.F), R"(define i32 @promote(i32 %arg0, i1 %arg1, i1 %arg2) {
entry:
  br i1 %arg1, l, r
l:
  br join
r:
  %y = add i32 %arg0, 3
  br join
dead:
  br join
join:
  %s2.phi = phi i32 [%y, r], [%arg0, l], [undef, dead]
  %s1.phi = phi i32 [1, r], [2, l], [undef, dead]
  %r = add i32 %s1.phi, %s2.phi
  ret i32 %r
}
)");
}

TEST(PinnedEditsTest, DeadCodeChainsAndPhiWebs) {
  // The chain's dead root (c) follows its operands in layout order, so a
  // single forward sweep cannot finish it; p and q only feed each other.
  PinnedFunction P("dce");
  Context &Ctx = P.Ctx;
  BasicBlock *Entry = P.block("entry"), *Loop = P.block("loop"),
             *Latch = P.block("latch"), *Exit = P.block("exit");
  IRBuilder &B = P.B;
  B.setInsertPoint(Entry);
  Value *A = B.createAdd(P.x(), Ctx.getInt32(1), "a");
  Value *Bv = B.createMul(A, Ctx.getInt32(2), "b");
  B.createSub(Bv, A, "c");
  Value *Kept = B.createAdd(P.x(), Ctx.getInt32(2), "kept");
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  PhiInst *Pp = B.createPhi(Ctx.int32Ty(), "p");
  PhiInst *Live = B.createPhi(Ctx.int32Ty(), "live");
  B.createAdd(Pp, Live, "usesweb"); // dead: its removal frees p
  P.sink(Live);
  B.createCondBr(P.c(), Latch, Exit);
  B.setInsertPoint(Latch);
  PhiInst *Q = B.createPhi(Ctx.int32Ty(), "q");
  Q->addIncoming(Pp, Loop);
  Value *Next = B.createAdd(Live, Ctx.getInt32(1), "next");
  B.createBr(Loop);
  Pp->addIncoming(Ctx.getInt32(0), Entry);
  Pp->addIncoming(Q, Latch);
  Live->addIncoming(Kept, Entry);
  Live->addIncoming(Next, Latch);
  B.setInsertPoint(Exit);
  B.createRet(Live);
  ASSERT_TRUE(verifyFunction(*P.F).ok()) << verifyFunction(*P.F).str();

  EXPECT_EQ(eliminateDeadCode(*P.F), 6u);
  ASSERT_TRUE(verifyFunction(*P.F).ok()) << verifyFunction(*P.F).str();
  EXPECT_EQ(printFunction(*P.F), R"(define i32 @dce(i32 %arg0, i1 %arg1, i1 %arg2) {
entry:
  %kept = add i32 %arg0, 2
  br loop
loop:
  %live = phi i32 [%kept, entry], [%next, latch]
  call void @sink(%live)
  br i1 %arg1, latch, exit
latch:
  %next = add i32 %live, 1
  br loop
exit:
  ret i32 %live
}
)");
}

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

TEST(CloningTest, CloneFunctionIsIdenticalAndIndependent) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "orig");
  Function *C = cloneFunction(F, "copy");
  ASSERT_TRUE(verifyFunction(*C).ok()) << verifyFunction(*C).str();
  EXPECT_EQ(printFunction(*F).substr(printFunction(*F).find('(')),
            printFunction(*C).substr(printFunction(*C).find('(')));
  // Mutating the clone leaves the original untouched.
  size_t Before = F->getInstructionCount();
  C->clearBody();
  EXPECT_EQ(F->getInstructionCount(), Before);
  EXPECT_TRUE(verifyFunction(*F).ok());
}

TEST(CloningTest, CloneInstructionSharesOperandsUntilRemap) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("f", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  auto *Add =
      cast<Instruction>(B.createAdd(F->getArg(0), Ctx.getInt32(7), "a"));
  B.createRet(Add);

  Instruction *Clone = cloneInstruction(Add, Ctx);
  EXPECT_EQ(Clone->getOperand(0), F->getArg(0));
  EXPECT_EQ(Clone->getOperand(1), Ctx.getInt32(7));
  // The placeholder operands are deliberately unregistered (the original
  // may be shared with merge attempts on other threads); only the remap
  // registers the final operands.
  EXPECT_EQ(F->getArg(0)->getNumUses(), 1u);
  CloneMaps Maps;
  Maps.Values[F->getArg(0)] = Ctx.getInt32(1);
  remapInstruction(Clone, Maps);
  EXPECT_EQ(Clone->getOperand(0), Ctx.getInt32(1));
  EXPECT_EQ(F->getArg(0)->getNumUses(), 1u);
  Clone->eraseFromParent(); // unlinked delete
}

TEST(CloningTest, ClonePreservesPhiStructure) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "orig2");
  Function *C = cloneFunction(F, "copy2");
  unsigned Phis = 0;
  for (BasicBlock *BB : *C)
    Phis += static_cast<unsigned>(BB->phis().size());
  EXPECT_EQ(Phis, 2u);
  // Phi incoming blocks must point at *cloned* blocks.
  for (BasicBlock *BB : *C)
    for (PhiInst *P : BB->phis())
      for (unsigned K = 0; K < P->getNumIncoming(); ++K)
        EXPECT_EQ(P->getIncomingBlock(K)->getParent(), C);
}

} // namespace
