//===- transforms/Simplify.cpp - Cleanup passes --------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "transforms/Simplify.h"
#include "analysis/Dominators.h"
#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include <algorithm>
#include <optional>
#include <set>
#include <unordered_set>

using namespace salssa;

namespace {

/// Folds an integer binary op over constant bits (width-truncated by the
/// constant pool). Division by zero stays unfolded (it is UB at runtime;
/// we simply leave the instruction alone).
Value *foldIntBinOp(ValueKind Op, ConstantInt *L, ConstantInt *R,
                    Context &Ctx) {
  Type *Ty = L->getType();
  unsigned W = Ty->getIntegerBitWidth();
  uint64_t A = L->getZExtValue();
  uint64_t B = R->getZExtValue();
  int64_t SA = L->getSExtValue();
  int64_t SB = R->getSExtValue();
  switch (Op) {
  case ValueKind::Add:
    return Ctx.getInt(Ty, A + B);
  case ValueKind::Sub:
    return Ctx.getInt(Ty, A - B);
  case ValueKind::Mul:
    return Ctx.getInt(Ty, A * B);
  case ValueKind::SDiv:
    if (SB == 0 || (SA == INT64_MIN && SB == -1))
      return nullptr;
    return Ctx.getInt(Ty, static_cast<uint64_t>(SA / SB));
  case ValueKind::UDiv:
    return B == 0 ? nullptr : Ctx.getInt(Ty, A / B);
  case ValueKind::SRem:
    if (SB == 0 || (SA == INT64_MIN && SB == -1))
      return nullptr;
    return Ctx.getInt(Ty, static_cast<uint64_t>(SA % SB));
  case ValueKind::URem:
    return B == 0 ? nullptr : Ctx.getInt(Ty, A % B);
  case ValueKind::And:
    return Ctx.getInt(Ty, A & B);
  case ValueKind::Or:
    return Ctx.getInt(Ty, A | B);
  case ValueKind::Xor:
    return Ctx.getInt(Ty, A ^ B);
  case ValueKind::Shl:
    return B >= W ? Ctx.getInt(Ty, 0) : Ctx.getInt(Ty, A << B);
  case ValueKind::LShr:
    return B >= W ? Ctx.getInt(Ty, 0) : Ctx.getInt(Ty, A >> B);
  case ValueKind::AShr:
    return B >= W ? Ctx.getInt(Ty, SA < 0 ? ~uint64_t(0) : 0)
                  : Ctx.getInt(Ty, static_cast<uint64_t>(SA >> B));
  default:
    return nullptr;
  }
}

bool evalICmp(CmpPredicate P, ConstantInt *L, ConstantInt *R) {
  uint64_t A = L->getZExtValue(), B = R->getZExtValue();
  int64_t SA = L->getSExtValue(), SB = R->getSExtValue();
  switch (P) {
  case CmpPredicate::EQ:
    return A == B;
  case CmpPredicate::NE:
    return A != B;
  case CmpPredicate::SLT:
    return SA < SB;
  case CmpPredicate::SLE:
    return SA <= SB;
  case CmpPredicate::SGT:
    return SA > SB;
  case CmpPredicate::SGE:
    return SA >= SB;
  case CmpPredicate::ULT:
    return A < B;
  case CmpPredicate::ULE:
    return A <= B;
  case CmpPredicate::UGT:
    return A > B;
  case CmpPredicate::UGE:
    return A >= B;
  }
  return false;
}

/// Algebraic identities for integer binary ops.
Value *simplifyBinOpIdentities(BinaryOperator *B, Context &Ctx) {
  Value *L = B->getLHS();
  Value *R = B->getRHS();
  auto *RC = dyn_cast<ConstantInt>(R);
  auto *LC = dyn_cast<ConstantInt>(L);
  switch (B->getOpcode()) {
  case ValueKind::Add:
    if (RC && RC->isZero())
      return L;
    if (LC && LC->isZero())
      return R;
    break;
  case ValueKind::Sub:
    if (RC && RC->isZero())
      return L;
    if (L == R)
      return Ctx.getInt(B->getType(), 0);
    break;
  case ValueKind::Mul:
    if (RC && RC->isOne())
      return L;
    if (LC && LC->isOne())
      return R;
    if ((RC && RC->isZero()) || (LC && LC->isZero()))
      return Ctx.getInt(B->getType(), 0);
    break;
  case ValueKind::And:
    if (L == R)
      return L;
    if ((RC && RC->isZero()) || (LC && LC->isZero()))
      return Ctx.getInt(B->getType(), 0);
    break;
  case ValueKind::Or:
    if (L == R)
      return L;
    if (RC && RC->isZero())
      return L;
    if (LC && LC->isZero())
      return R;
    break;
  case ValueKind::Xor:
    if (L == R)
      return Ctx.getInt(B->getType(), 0);
    if (RC && RC->isZero())
      return L;
    if (LC && LC->isZero())
      return R;
    break;
  case ValueKind::Shl:
  case ValueKind::LShr:
  case ValueKind::AShr:
    if (RC && RC->isZero())
      return L;
    break;
  default:
    break;
  }
  return nullptr;
}

} // namespace

Value *salssa::simplifyInstructionValue(Instruction *I, Context &Ctx) {
  switch (I->getOpcode()) {
  case ValueKind::Select: {
    auto *S = cast<SelectInst>(I);
    if (S->getTrueValue() == S->getFalseValue())
      return S->getTrueValue();
    if (auto *C = dyn_cast<ConstantInt>(S->getCondition()))
      return C->isTrue() ? S->getTrueValue() : S->getFalseValue();
    // select c, x, undef -> x (and symmetric): undef may be chosen to be x.
    if (isa<UndefValue>(S->getFalseValue()))
      return S->getTrueValue();
    if (isa<UndefValue>(S->getTrueValue()))
      return S->getFalseValue();
    break;
  }
  case ValueKind::Phi: {
    auto *P = cast<PhiInst>(I);
    if (P->getNumIncoming() == 0)
      return Ctx.getUndef(P->getType());
    // NOTE: a phi whose incomings reduce to one value V (others undef or
    // self) may only fold when V dominates every user of the phi — the
    // undef entries exist precisely because V does not reach those paths
    // (LLVM guards the same fold with valueDominatesPHI). That check
    // requires a dominator tree, so it lives in simplifyInstructions; a
    // bare simplifyInstructionValue only folds the trivially safe cases.
    bool AllUndefOrSelf = true;
    for (unsigned K = 0; K < P->getNumIncoming(); ++K) {
      Value *V = P->getIncomingValue(K);
      if (V != P && !isa<UndefValue>(V)) {
        AllUndefOrSelf = false;
        break;
      }
    }
    if (AllUndefOrSelf)
      return Ctx.getUndef(P->getType());
    if (Value *V = P->hasConstantValue())
      if (!isa<Instruction>(V))
        return V; // constants/arguments dominate everything
    break;
  }
  case ValueKind::ICmp: {
    auto *C = cast<ICmpInst>(I);
    auto *LC = dyn_cast<ConstantInt>(C->getLHS());
    auto *RC = dyn_cast<ConstantInt>(C->getRHS());
    if (LC && RC)
      return Ctx.getInt1(evalICmp(C->getPredicate(), LC, RC));
    if (C->getLHS() == C->getRHS()) {
      switch (C->getPredicate()) {
      case CmpPredicate::EQ:
      case CmpPredicate::SLE:
      case CmpPredicate::SGE:
      case CmpPredicate::ULE:
      case CmpPredicate::UGE:
        return Ctx.getTrue();
      default:
        return Ctx.getFalse();
      }
    }
    break;
  }
  case ValueKind::ZExt: {
    auto *C = dyn_cast<ConstantInt>(I->getOperand(0));
    if (C)
      return Ctx.getInt(I->getType(), C->getZExtValue());
    break;
  }
  case ValueKind::SExt: {
    auto *C = dyn_cast<ConstantInt>(I->getOperand(0));
    if (C)
      return Ctx.getInt(I->getType(),
                        static_cast<uint64_t>(C->getSExtValue()));
    break;
  }
  case ValueKind::Trunc: {
    auto *C = dyn_cast<ConstantInt>(I->getOperand(0));
    if (C)
      return Ctx.getInt(I->getType(), C->getZExtValue());
    break;
  }
  default:
    if (auto *B = dyn_cast<BinaryOperator>(I)) {
      if (B->getType()->isInteger()) {
        auto *LC = dyn_cast<ConstantInt>(B->getLHS());
        auto *RC = dyn_cast<ConstantInt>(B->getRHS());
        if (LC && RC)
          if (Value *V = foldIntBinOp(B->getOpcode(), LC, RC, Ctx))
            return V;
        if (Value *V = simplifyBinOpIdentities(B, Ctx))
          return V;
      }
    }
    break;
  }
  return nullptr;
}

unsigned salssa::removeUnreachableBlocks(Function &F) {
  if (F.isDeclaration())
    return 0;
  // Reachability only: a depth-first walk from the entry. This runs every
  // simplify round, so it builds no order and no predecessor lists.
  std::unordered_set<const BasicBlock *> Reached{F.getEntryBlock()};
  std::vector<BasicBlock *> Stack{F.getEntryBlock()};
  while (!Stack.empty()) {
    BasicBlock *BB = Stack.back();
    Stack.pop_back();
    for (BasicBlock *Succ : BB->successors())
      if (Reached.insert(Succ).second)
        Stack.push_back(Succ);
  }
  if (Reached.size() == F.getNumBlocks())
    return 0;
  std::vector<BasicBlock *> Dead;
  for (BasicBlock *BB : F)
    if (!Reached.count(BB))
      Dead.push_back(BB);
  // Remove phi entries in surviving blocks that came from dead edges.
  for (BasicBlock *BB : Dead)
    for (BasicBlock *Succ : BB->successors())
      if (Reached.count(Succ))
        Succ->removePredecessorEntries(BB);
  // Sever all cross references, then delete.
  for (BasicBlock *BB : Dead)
    BB->dropAllBlockReferences();
  for (BasicBlock *BB : Dead)
    BB->eraseFromParent();
  return static_cast<unsigned>(Dead.size());
}

unsigned salssa::eliminateDeadCode(Function &F, bool PreserveTraps) {
  auto IsDead = [&](const Instruction *I) {
    return I->isSideEffectFree() && !I->hasUses() &&
           !(PreserveTraps && I->mayTrap());
  };
  // Worklist to the unique fixpoint: erasing an instruction can only make
  // its operands dead. Erase order cannot reorder any survivor's use list
  // (Value::removeUser erases in place), so it is not observable.
  std::vector<Instruction *> Worklist;
  std::unordered_set<const Instruction *> Queued;
  for (BasicBlock *BB : F)
    for (Instruction *I : *BB)
      if (IsDead(I)) {
        Worklist.push_back(I);
        Queued.insert(I);
      }
  unsigned Removed = 0;
  std::vector<Value *> Operands;
  while (!Worklist.empty()) {
    Instruction *I = Worklist.back();
    Worklist.pop_back();
    Operands = I->operands();
    I->eraseFromParent();
    ++Removed;
    for (Value *Op : Operands) {
      auto *OI = dyn_cast<Instruction>(Op);
      if (OI && IsDead(OI) && Queued.insert(OI).second)
        Worklist.push_back(OI);
    }
  }

  // Dead phi webs: phis that only feed each other never reach the simple
  // no-uses test above. Keep the phis transitively reachable (through use
  // edges) from non-phi users; drop the rest as a group.
  std::vector<PhiInst *> AllPhis;
  std::unordered_set<const PhiInst *> Live;
  std::vector<PhiInst *> PhiWorklist;
  for (BasicBlock *BB : F)
    for (PhiInst *P : BB->phis()) {
      AllPhis.push_back(P);
      for (const User *U : P->users())
        if (!isa<PhiInst>(U)) {
          if (Live.insert(P).second)
            PhiWorklist.push_back(P);
          break;
        }
    }
  while (!PhiWorklist.empty()) {
    PhiInst *P = PhiWorklist.back();
    PhiWorklist.pop_back();
    for (unsigned K = 0; K < P->getNumIncoming(); ++K)
      if (auto *In = dyn_cast<PhiInst>(P->getIncomingValue(K)))
        if (Live.insert(In).second)
          PhiWorklist.push_back(In);
  }
  std::vector<PhiInst *> Dead;
  for (PhiInst *P : AllPhis)
    if (!Live.count(P))
      Dead.push_back(P);
  if (!Dead.empty()) {
    for (PhiInst *P : Dead)
      P->dropAllReferences();
    for (PhiInst *P : Dead) {
      assert(!P->hasUses() && "dead phi web still referenced");
      P->eraseFromParent();
      ++Removed;
    }
  }
  return Removed;
}

namespace {

/// Replaces a conditional branch/switch with an unconditional branch to
/// \p Target, detaching phi entries of abandoned successors.
void foldTerminatorTo(Instruction *Term, BasicBlock *Target, Context &Ctx) {
  BasicBlock *BB = Term->getParent();
  std::set<BasicBlock *> Abandoned;
  for (BasicBlock *S : Term->successors())
    if (S != Target)
      Abandoned.insert(S);
  for (BasicBlock *S : Abandoned)
    S->removePredecessorEntries(BB);
  Term->dropAllReferences();
  Term->eraseFromParent();
  IRBuilder B(Ctx, BB);
  B.createBr(Target);
}

/// Folds constant-condition branches and switches, and degenerate
/// conditional branches whose successors coincide.
bool foldBranches(Function &F, Context &Ctx, SimplifyStats &Stats) {
  bool Changed = false;
  for (BasicBlock *BB : F) {
    Instruction *Term = BB->getTerminator();
    if (!Term)
      continue;
    if (auto *Br = dyn_cast<BranchInst>(Term)) {
      if (!Br->isConditional())
        continue;
      if (Br->getTrueDest() == Br->getFalseDest()) {
        foldTerminatorTo(Br, Br->getTrueDest(), Ctx);
        ++Stats.BranchesFolded;
        Changed = true;
        continue;
      }
      if (auto *C = dyn_cast<ConstantInt>(Br->getCondition())) {
        foldTerminatorTo(Br, C->isTrue() ? Br->getTrueDest()
                                         : Br->getFalseDest(),
                         Ctx);
        ++Stats.BranchesFolded;
        Changed = true;
      }
      continue;
    }
    if (auto *SW = dyn_cast<SwitchInst>(Term)) {
      if (auto *C = dyn_cast<ConstantInt>(SW->getCondition())) {
        BasicBlock *Target = SW->getDefaultDest();
        for (unsigned K = 0; K < SW->getNumCases(); ++K)
          if (SW->getCaseValue(K) == C)
            Target = SW->getCaseDest(K);
        foldTerminatorTo(SW, Target, Ctx);
        ++Stats.BranchesFolded;
        Changed = true;
      } else if (SW->getNumCases() == 0) {
        foldTerminatorTo(SW, SW->getDefaultDest(), Ctx);
        ++Stats.BranchesFolded;
        Changed = true;
      }
    }
  }
  return Changed;
}

/// Merges \p BB into its unique predecessor when the predecessor
/// unconditionally branches to it and has no other successors. One
/// predecessor map serves the pass: after each merge, the merged block's
/// successors name its predecessor instead, so later blocks see the
/// predecessors earlier merges left.
bool mergeBlocksIntoPredecessors(Function &F, Context &Ctx,
                                 SimplifyStats &Stats) {
  bool Changed = false;
  PredecessorMap PredMap(F);
  for (auto It = F.begin(); It != F.end();) {
    BasicBlock *BB = *It++;
    if (BB == F.getEntryBlock())
      continue;
    const std::vector<BasicBlock *> &Preds = PredMap.predecessors(BB);
    if (Preds.size() != 1)
      continue;
    BasicBlock *Pred = Preds.front();
    if (Pred == BB)
      continue;
    auto *Br = dyn_cast_or_null<BranchInst>(Pred->getTerminator());
    if (!Br || Br->isConditional())
      continue;
    assert(Br->getTrueDest() == BB && "unique pred must branch here");
    // Dissolve single-entry phis (a self-referencing one can only sit in
    // unreachable code; undef is as good as anything there).
    for (PhiInst *P : BB->phis()) {
      assert(P->getNumIncoming() == 1 && "single-pred block phi arity");
      Value *V = P->getIncomingValue(0);
      if (V == P)
        V = Ctx.getUndef(P->getType());
      P->replaceAllUsesWith(V);
      P->eraseFromParent();
    }
    // Splice all instructions of BB after Pred's (removed) branch.
    Br->eraseFromParent();
    for (auto BIt = BB->begin(); BIt != BB->end();) {
      Instruction *I = *BIt++;
      I->removeFromParent();
      I->insertAtEnd(Pred);
    }
    // Successor phis now flow from Pred.
    for (BasicBlock *Succ : Pred->successors()) {
      Succ->replacePhiUsesWith(BB, Pred);
      PredMap.removePredecessor(Succ, BB);
      PredMap.addPredecessor(Succ, Pred);
    }
    BB->eraseFromParent();
    ++Stats.BlocksRemoved;
    Changed = true;
  }
  return Changed;
}

/// Removes blocks that contain only an unconditional branch by rerouting
/// their predecessors directly to the destination (LLVM's
/// TryToSimplifyUncondBranchFromEmptyBlock, conservative variant). One
/// predecessor map serves the pass, built at the first candidate and kept
/// in layout order across reroutes (the destination's phis gain entries
/// in that order).
bool threadTrivialBlocks(Function &F, SimplifyStats &Stats) {
  bool Changed = false;
  std::optional<PredecessorMap> PredMap;
  for (auto It = F.begin(); It != F.end();) {
    BasicBlock *BB = *It++;
    if (BB == F.getEntryBlock())
      continue;
    if (BB->size() != 1)
      continue;
    auto *Br = dyn_cast<BranchInst>(BB->getTerminator());
    if (!Br || Br->isConditional())
      continue;
    BasicBlock *Dest = Br->getTrueDest();
    if (Dest == BB)
      continue;
    if (!PredMap)
      PredMap.emplace(F);
    const std::vector<BasicBlock *> Preds = PredMap->predecessors(BB);
    if (Preds.empty())
      continue; // unreachable; left to removeUnreachableBlocks
    // Phi-consistency precondition: a pred that already reaches Dest must
    // agree on every phi value.
    bool Safe = true;
    std::vector<PhiInst *> DestPhis = Dest->phis();
    for (BasicBlock *P : Preds) {
      // An invoke edge into a plain block must keep its landing structure;
      // only plain branches/switches are rerouted here.
      if (isa<InvokeInst>(P->getTerminator())) {
        Safe = false;
        break;
      }
      for (PhiInst *Phi : DestPhis) {
        int ExistingIdx = Phi->indexOfBlock(P);
        if (ExistingIdx >= 0 &&
            Phi->getIncomingValue(static_cast<unsigned>(ExistingIdx)) !=
                Phi->getIncomingValueForBlock(BB)) {
          Safe = false;
          break;
        }
      }
      if (!Safe)
        break;
    }
    if (!Safe)
      continue;
    for (PhiInst *Phi : DestPhis) {
      Value *V = Phi->getIncomingValueForBlock(BB);
      int BBIdx = Phi->indexOfBlock(BB);
      Phi->removeIncoming(static_cast<unsigned>(BBIdx));
      for (BasicBlock *P : Preds)
        if (Phi->indexOfBlock(P) < 0)
          Phi->addIncoming(V, P);
    }
    PredMap->removePredecessor(Dest, BB);
    for (BasicBlock *P : Preds) {
      P->getTerminator()->replaceSuccessorWith(BB, Dest);
      PredMap->addPredecessor(Dest, P);
    }
    BB->dropAllBlockReferences();
    BB->eraseFromParent();
    ++Stats.BlocksRemoved;
    Changed = true;
  }
  return Changed;
}

/// Merges identical phi-nodes within each block (same incoming value for
/// every incoming block).
bool mergeIdenticalPhis(Function &F, SimplifyStats &Stats) {
  bool Changed = false;
  for (BasicBlock *BB : F) {
    std::vector<PhiInst *> Phis = BB->phis();
    for (size_t A = 0; A < Phis.size(); ++A) {
      if (!Phis[A])
        continue;
      for (size_t B = A + 1; B < Phis.size(); ++B) {
        if (!Phis[B])
          continue;
        PhiInst *P1 = Phis[A];
        PhiInst *P2 = Phis[B];
        if (P1->getType() != P2->getType() ||
            P1->getNumIncoming() != P2->getNumIncoming())
          continue;
        bool Same = true;
        for (unsigned K = 0; K < P2->getNumIncoming(); ++K) {
          int Idx = P1->indexOfBlock(P2->getIncomingBlock(K));
          if (Idx < 0 || P1->getIncomingValue(static_cast<unsigned>(Idx)) !=
                             P2->getIncomingValue(K)) {
            Same = false;
            break;
          }
        }
        if (!Same)
          continue;
        P2->replaceAllUsesWith(P1);
        P2->eraseFromParent();
        Phis[B] = nullptr;
        ++Stats.PhisMerged;
        Changed = true;
      }
    }
  }
  return Changed;
}

/// One round of per-instruction simplification. Instruction-level RAUW
/// never changes the CFG, so one dominator tree serves the whole round; it
/// is built on the first dominance-guarded phi fold that needs it.
bool simplifyInstructions(Function &F, Context &Ctx, SimplifyStats &Stats) {
  bool Changed = false;
  std::optional<DominatorTree> DT;
  for (BasicBlock *BB : F) {
    for (auto It = BB->begin(); It != BB->end();) {
      Instruction *I = *It++;
      Value *V = simplifyInstructionValue(I, Ctx);
      if (!V) {
        // The dominance-guarded phi fold: phi [v, A], [undef, B] -> v only
        // if v dominates every user of the phi.
        auto *P = dyn_cast<PhiInst>(I);
        if (!P)
          continue;
        Value *Common = P->hasConstantValue();
        auto *CI = dyn_cast_or_null<Instruction>(Common);
        if (!CI)
          continue;
        if (!DT)
          DT.emplace(F);
        bool DominatesAllUsers = true;
        for (const User *U : P->users()) {
          const auto *UI = cast<Instruction>(U);
          if (UI == P)
            continue;
          if (const auto *UP = dyn_cast<PhiInst>(UI)) {
            // Must dominate the exit of every edge carrying the phi.
            for (unsigned K = 0; K < UP->getNumIncoming(); ++K)
              if (UP->getIncomingValue(K) == P &&
                  !DT->dominatesBlockExit(CI, UP->getIncomingBlock(K))) {
                DominatesAllUsers = false;
                break;
              }
          } else if (!DT->dominates(CI, UI)) {
            DominatesAllUsers = false;
          }
          if (!DominatesAllUsers)
            break;
        }
        if (!DominatesAllUsers)
          continue;
        V = Common;
      }
      if (V == I)
        continue;
      I->replaceAllUsesWith(V);
      I->eraseFromParent();
      ++Stats.InstructionsRemoved;
      Changed = true;
    }
  }
  return Changed;
}

} // namespace

SimplifyStats salssa::simplifyFunction(Function &F, Context &Ctx,
                                       bool PreserveTraps) {
  SimplifyStats Stats;
  if (F.isDeclaration())
    return Stats;
  const unsigned MaxIterations = 16;
  bool Changed = true;
  while (Changed && Stats.Iterations < MaxIterations) {
    ++Stats.Iterations;
    Changed = false;
    Changed |= simplifyInstructions(F, Ctx, Stats);
    Changed |= mergeIdenticalPhis(F, Stats);
    Changed |= foldBranches(F, Ctx, Stats);
    unsigned DeadBlocks = removeUnreachableBlocks(F);
    Stats.BlocksRemoved += DeadBlocks;
    Changed |= DeadBlocks != 0;
    Changed |= threadTrivialBlocks(F, Stats);
    Changed |= mergeBlocksIntoPredecessors(F, Ctx, Stats);
    unsigned Dce = eliminateDeadCode(F, PreserveTraps);
    Stats.InstructionsRemoved += Dce;
    Changed |= Dce != 0;
  }
  return Stats;
}
