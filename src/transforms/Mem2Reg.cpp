//===- transforms/Mem2Reg.cpp - SSA construction (register promotion) ---------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "transforms/Mem2Reg.h"
#include "analysis/Dominators.h"
#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include <unordered_map>

using namespace salssa;

bool salssa::isPromotableAlloca(const AllocaInst *A) {
  if (A->getNumElements() != 1)
    return false; // array slots are addressable storage, not registers
  if (!A->getAllocatedType()->isFirstClass())
    return false;
  for (const User *U : A->users()) {
    if (const auto *L = dyn_cast<LoadInst>(U)) {
      if (L->getPointerOperand() != A)
        return false;
      if (L->getType() != A->getAllocatedType())
        return false;
      continue;
    }
    if (const auto *S = dyn_cast<StoreInst>(U)) {
      // The slot must be the address, not the stored value, and the type
      // must round-trip.
      if (S->getPointerOperand() != A || S->getValueOperand() == A)
        return false;
      if (S->getValueOperand()->getType() != A->getAllocatedType())
        return false;
      continue;
    }
    return false; // any other use (gep, call, select...) escapes the slot
  }
  return true;
}

namespace {

/// Runs Cytron et al. phi placement + renaming for a batch of allocas.
/// Blocks are identified by their CFGInfo number (RPO position); the
/// per-slot flags are vectors of stamps, one stamp per slot, so no vector
/// is cleared between slots.
class PromotionDriver {
public:
  PromotionDriver(Function &F, Context &Ctx,
                  const std::vector<AllocaInst *> &Allocas)
      : F(F), Ctx(Ctx), Allocas(Allocas), DT(F), CFG(DT.getCFG()),
        SlotPhis(CFG.getNumReachableBlocks()) {}

  Mem2RegStats run() {
    SlotIndex.reserve(Allocas.size());
    for (unsigned I = 0; I < Allocas.size(); ++I) {
      assert(isPromotableAlloca(Allocas[I]) && "alloca is not promotable");
      SlotIndex[Allocas[I]] = I;
    }
    placePhis();
    renameFromEntry();
    cleanup();
    return Stats;
  }

private:
  void placePhis() {
    const size_t N = CFG.getNumReachableBlocks();
    StoreMark.assign(N, 0);
    LiveMark.assign(N, 0);
    ScanMark.assign(N, 0);
    for (unsigned Slot = 0; Slot < Allocas.size(); ++Slot) {
      AllocaInst *A = Allocas[Slot];
      const unsigned Stamp = Slot + 1;
      // Unreachable stores and loads can neither place nor prune a phi:
      // the frontiers and the liveness closure only reach reachable code.
      std::vector<BasicBlock *> DefBlocks;
      for (User *U : A->users())
        if (auto *S = dyn_cast<StoreInst>(U)) {
          unsigned B = CFG.getNumber(S->getParent());
          if (B != CFGInfo::Unreachable && StoreMark[B] != Stamp) {
            StoreMark[B] = Stamp;
            DefBlocks.push_back(S->getParent());
          }
        }
      markLiveInBlocks(A, Stamp);
      // The frontier comes back in ascending RPO position; pruned SSA
      // places no phi where the slot is dead.
      for (BasicBlock *BB : DT.iteratedDominanceFrontier(DefBlocks)) {
        unsigned B = CFG.getNumber(BB);
        if (LiveMark[B] != Stamp)
          continue;
        // One phi per (slot, block).
        auto *P = new PhiInst(A->getAllocatedType());
        P->setName(A->hasName() ? A->getName() + ".phi" : "m2r.phi");
        BB->insert(BB->begin(), P);
        SlotPhis[B].push_back({P, Slot});
        ++Stats.PhisInserted;
      }
    }
  }

  /// Marks with \p Stamp the blocks at whose entry the slot's value may
  /// still be read (the pruning set of LLVM's mem2reg): blocks that load
  /// before any store, closed backwards through store-free blocks. Needs
  /// StoreMark of this slot.
  void markLiveInBlocks(AllocaInst *A, unsigned Stamp) {
    std::vector<unsigned> Worklist;
    for (User *U : A->users()) {
      auto *L = dyn_cast<LoadInst>(U);
      if (!L)
        continue;
      BasicBlock *BB = L->getParent();
      unsigned B = CFG.getNumber(BB);
      if (B == CFGInfo::Unreachable || LiveMark[B] == Stamp)
        continue;
      if (StoreMark[B] == Stamp) {
        // Mixed block: does a load come first? Decided once per block.
        if (ScanMark[B] == Stamp)
          continue;
        ScanMark[B] = Stamp;
        bool LoadFirst = false;
        for (Instruction *I : *BB) {
          if (auto *St = dyn_cast<StoreInst>(I);
              St && St->getPointerOperand() == A)
            break;
          if (auto *Ld = dyn_cast<LoadInst>(I);
              Ld && Ld->getPointerOperand() == A) {
            LoadFirst = true;
            break;
          }
        }
        if (!LoadFirst)
          continue;
      }
      LiveMark[B] = Stamp;
      Worklist.push_back(B);
    }
    // Backward closure through store-free blocks.
    while (!Worklist.empty()) {
      unsigned B = Worklist.back();
      Worklist.pop_back();
      for (unsigned Pred : CFG.predecessorNumbers(B)) {
        if (StoreMark[Pred] == Stamp)
          continue; // the store screens off entry liveness
        if (LiveMark[Pred] != Stamp) {
          LiveMark[Pred] = Stamp;
          Worklist.push_back(Pred);
        }
      }
    }
  }

  Value *undefFor(AllocaInst *A) {
    // Reads before any write observe undef — the entry pseudo-definition.
    return Ctx.getUndef(A->getAllocatedType());
  }

  /// The slot owning \p Ptr's loads and stores, or -1.
  int slotOf(Value *Ptr) const {
    auto It = SlotIndex.find(dyn_cast<AllocaInst>(Ptr));
    return It == SlotIndex.end() ? -1 : int(It->second);
  }

  void renameFromEntry() {
    // Iterative DFS over the CFG carrying per-slot value stacks.
    size_t N = Allocas.size();
    std::vector<Value *> Incoming(N, nullptr);
    for (unsigned I = 0; I < N; ++I)
      Incoming[I] = undefFor(Allocas[I]);

    struct Frame {
      BasicBlock *BB;
      std::vector<Value *> Values; // live definition per slot on entry
    };
    std::vector<Frame> Worklist;
    Worklist.push_back({F.getEntryBlock(), std::move(Incoming)});
    std::vector<bool> Visited(CFG.getNumReachableBlocks(), false);
    // FedFrom[S] == B: block S's phis already hold B's entry (a
    // terminator naming S twice feeds it once).
    std::vector<unsigned> FedFrom(CFG.getNumReachableBlocks(),
                                  CFGInfo::Unreachable);

    while (!Worklist.empty()) {
      Frame Fr = std::move(Worklist.back());
      Worklist.pop_back();
      BasicBlock *BB = Fr.BB;
      unsigned B = CFG.getNumber(BB);
      if (Visited[B])
        continue;
      Visited[B] = true;
      std::vector<Value *> &Cur = Fr.Values;

      for (auto &[P, Slot] : SlotPhis[B])
        Cur[Slot] = P;
      for (auto It = BB->begin(); It != BB->end();) {
        Instruction *I = *It++;
        if (auto *L = dyn_cast<LoadInst>(I)) {
          int Slot = slotOf(L->getPointerOperand());
          if (Slot >= 0) {
            L->replaceAllUsesWith(Cur[Slot]);
            L->eraseFromParent();
            ++Stats.LoadsRemoved;
          }
          continue;
        }
        if (auto *S = dyn_cast<StoreInst>(I)) {
          int Slot = slotOf(S->getPointerOperand());
          if (Slot >= 0) {
            Cur[Slot] = S->getValueOperand();
            S->eraseFromParent();
            ++Stats.StoresRemoved;
          }
          continue;
        }
      }

      // Feed successors' slot-phis and queue dominator-tree children with
      // the current values. Successor phi feeding must happen per CFG
      // edge; value propagation per dominator tree. Using CFG successors
      // for phis and re-queuing via CFG is the classic approach: a
      // successor's non-phi code is renamed when visited with the values
      // that dominate it, which is exactly the state carried along the
      // dominator tree. We approximate by propagating over the CFG but
      // only renaming at first visit — correct because any value live into
      // a block from a non-dominating path must go through a placed phi,
      // which resets Cur for that slot.
      for (BasicBlock *Succ : BB->successors()) {
        unsigned S = CFG.getNumber(Succ);
        if (FedFrom[S] != B) {
          FedFrom[S] = B;
          // Slot phis sit at the block head in reverse placement order;
          // feeding them in block order keeps the values' use lists in
          // the order a walk over the block's phis produces.
          const auto &Phis = SlotPhis[S];
          for (auto It = Phis.rbegin(); It != Phis.rend(); ++It)
            It->first->addIncoming(Cur[It->second], BB);
        }
        if (!Visited[S])
          Worklist.push_back({Succ, Cur});
      }
    }
  }

  void cleanup() {
    // Edges from unreachable blocks are never walked by renaming, so their
    // phi entries are missing (every reachable predecessor was visited and
    // fed its entry); fill them with undef (they can never execute), in
    // layout order, then drop the now-unused allocas.
    if (Stats.PhisInserted && CFG.getNumReachableBlocks() < F.getNumBlocks()) {
      PredecessorMap AllPreds(F);
      for (const auto &Phis : SlotPhis)
        for (auto &[P, Slot] : Phis)
          for (BasicBlock *Pred : AllPreds.predecessors(P->getParent()))
            if (!CFG.isReachable(Pred)) {
              assert(P->indexOfBlock(Pred) < 0 && "unreachable edge was fed");
              P->addIncoming(Ctx.getUndef(P->getType()), Pred);
            }
    }
    for (AllocaInst *A : Allocas) {
      // Loads/stores in unreachable code are never renamed; dissolve them
      // (dead code, any value will do).
      std::vector<User *> Remaining(A->users().begin(), A->users().end());
      for (User *U : Remaining) {
        auto *I = cast<Instruction>(U);
        if (auto *L = dyn_cast<LoadInst>(I)) {
          L->replaceAllUsesWith(Ctx.getUndef(L->getType()));
          L->eraseFromParent();
        } else {
          cast<StoreInst>(I)->eraseFromParent();
        }
      }
      assert(!A->hasUses() && "promotion left a slot use behind");
      A->eraseFromParent();
      ++Stats.PromotedAllocas;
    }
  }

  Function &F;
  Context &Ctx;
  std::vector<AllocaInst *> Allocas;
  DominatorTree DT;
  const CFGInfo &CFG;
  std::unordered_map<const AllocaInst *, unsigned> SlotIndex;
  /// Per block number, the slot phis placed there, in placement order.
  std::vector<std::vector<std::pair<PhiInst *, unsigned>>> SlotPhis;
  /// Per block number, the stamp of the last slot that stores there, is
  /// live into it, or had its load/store order scanned there.
  std::vector<unsigned> StoreMark, LiveMark, ScanMark;
  Mem2RegStats Stats;
};

} // namespace

Mem2RegStats salssa::promoteAllocas(Function &F, Context &Ctx,
                                    const std::vector<AllocaInst *> &Allocas) {
  if (Allocas.empty())
    return {};
  return PromotionDriver(F, Ctx, Allocas).run();
}

Mem2RegStats salssa::promoteAllocasToRegisters(Function &F, Context &Ctx) {
  std::vector<AllocaInst *> Promotable;
  for (BasicBlock *BB : F)
    for (Instruction *I : *BB)
      if (auto *A = dyn_cast<AllocaInst>(I))
        if (isPromotableAlloca(A))
          Promotable.push_back(A);
  return promoteAllocas(F, Ctx, Promotable);
}
