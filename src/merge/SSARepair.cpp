//===- merge/SSARepair.cpp - Dominance repair + phi-node coalescing -----------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "merge/SSARepair.h"
#include "analysis/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "transforms/Mem2Reg.h"
#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

using namespace salssa;

namespace {

/// Collects the definitions that violate the dominance property anywhere
/// in \p F, in deterministic encounter order (function layout order, not
/// pointer order — experiment reproducibility depends on this).
std::vector<Instruction *> findViolatingDefs(Function &F) {
  DominatorTree DT(F);
  const CFGInfo &CFG = DT.getCFG();
  InstructionOrder Order(F);
  std::unordered_set<const Instruction *> Seen;
  std::vector<Instruction *> Defs;
  auto Record = [&](Instruction *D) {
    if (Seen.insert(D).second)
      Defs.push_back(D);
  };
  for (BasicBlock *BB : F) {
    if (!CFG.isReachable(BB))
      continue;
    for (Instruction *I : *BB) {
      if (auto *P = dyn_cast<PhiInst>(I)) {
        for (unsigned K = 0; K < P->getNumIncoming(); ++K) {
          auto *D = dyn_cast<Instruction>(P->getIncomingValue(K));
          if (D && D->getParent() &&
              !DT.dominatesBlockExit(D, P->getIncomingBlock(K)))
            Record(D);
        }
        continue;
      }
      for (Value *Op : I->operands()) {
        auto *D = dyn_cast<Instruction>(Op);
        if (D && D->getParent() && !DT.dominates(D, I, &Order))
          Record(D);
      }
    }
  }
  return Defs;
}

/// Splits the invoke->normal edge so a spill store can follow the
/// definition (same pattern as Reg2Mem).
BasicBlock *splitInvokeNormalEdge(InvokeInst *Inv, Context &Ctx) {
  BasicBlock *From = Inv->getParent();
  BasicBlock *To = Inv->getNormalDest();
  Function *F = From->getParent();
  BasicBlock *Mid = F->createBlock(From->getName() + ".repair", To);
  IRBuilder B(Ctx, Mid);
  B.createBr(To);
  Inv->setNormalDest(Mid);
  To->replacePhiUsesWith(From, Mid);
  return Mid;
}

/// Places `store Def, Slot` immediately after \p Def's definition point.
void storeDefToSlot(Instruction *Def, AllocaInst *Slot, Context &Ctx) {
  IRBuilder B(Ctx);
  if (auto *Inv = dyn_cast<InvokeInst>(Def)) {
    BasicBlock *Mid = splitInvokeNormalEdge(Inv, Ctx);
    B.setInsertPoint(Mid->getTerminator());
  } else if (Def->isPhi()) {
    Instruction *FirstNonPhi = Def->getParent()->getFirstNonPhi();
    assert(FirstNonPhi && "block with only phis");
    B.setInsertPoint(FirstNonPhi);
  } else {
    assert(!Def->isTerminator() && "value-producing terminator is invoke");
    auto Next = std::next(
        std::find(Def->getParent()->begin(), Def->getParent()->end(), Def));
    B.setInsertPoint(*Next);
  }
  B.createStore(Def, Slot);
}

/// Replaces every use in \p Users of \p Def with a load from \p Slot
/// placed directly before the user (phi uses: at the incoming block's
/// terminator).
void rewriteUsesWithLoads(Instruction *Def, const std::vector<User *> &Users,
                          AllocaInst *Slot, Context &Ctx) {
  IRBuilder B(Ctx);
  for (User *U : Users) {
    auto *UI = cast<Instruction>(U);
    if (auto *P = dyn_cast<PhiInst>(UI)) {
      for (unsigned K = 0; K < P->getNumIncoming(); ++K) {
        if (P->getIncomingValue(K) != Def)
          continue;
        B.setInsertPoint(P->getIncomingBlock(K)->getTerminator());
        P->setIncomingValue(K, B.createLoad(Def->getType(), Slot));
      }
      continue;
    }
    if (UI->findOperand(Def) < 0)
      continue; // duplicate snapshot entry, already rewritten
    B.setInsertPoint(UI);
    Value *L = B.createLoad(Def->getType(), Slot);
    for (unsigned K = 0; K < UI->getNumOperands(); ++K)
      if (UI->getOperand(K) == Def)
        UI->setOperand(K, L);
  }
}

/// The user-block set UB(d) = { Block(u) : u in Users(d) } of §4.4.
std::set<const BasicBlock *> userBlocks(const Instruction *Def) {
  std::set<const BasicBlock *> Blocks;
  for (const User *U : Def->users()) {
    const auto *UI = cast<Instruction>(U);
    if (UI->getParent())
      Blocks.insert(UI->getParent());
  }
  return Blocks;
}

/// The paths one input function's executions take through the merged
/// function: every CFG edge except the untaken arm of a branch on %fid
/// (argument 0; true selects F1).
class InputPaths {
public:
  InputPaths(Function &F, bool IsF1) : Fid(F.getArg(0)), IsF1(IsF1) {
    std::vector<BasicBlock *> Work = {F.getEntryBlock()};
    Reach.insert(Work.front());
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      for (BasicBlock *S : successors(BB))
        if (Reach.insert(S).second)
          Work.push_back(S);
    }
  }

  /// Whether an execution of this input can run \p BB.
  bool reaches(const BasicBlock *BB) const { return Reach.count(BB) != 0; }

  /// Whether an execution of this input can take the edge \p From -> \p To.
  bool takesEdge(BasicBlock *From, const BasicBlock *To) const {
    if (!reaches(From))
      return false;
    std::vector<BasicBlock *> Succs = successors(From);
    return std::find(Succs.begin(), Succs.end(), To) != Succs.end();
  }

  /// Whether \p Def's value is still needed at the head of \p At (after
  /// its phis) on some execution of this input: a use is reachable from
  /// there without passing \p Def's block, which would redefine it.
  bool liveAtHead(const Instruction *Def, BasicBlock *At) const {
    BasicBlock *DefBlock = Def->getParent();
    if (At == DefBlock)
      return true; // conservatively: two slot stores in one block
    std::unordered_set<const BasicBlock *> UseBlocks;  // non-phi uses
    std::unordered_set<const BasicBlock *> UseAtExits; // phi uses, on the edge
    for (const User *U : Def->users()) {
      const auto *UI = cast<Instruction>(U);
      if (const auto *P = dyn_cast<PhiInst>(UI)) {
        for (unsigned K = 0; K < P->getNumIncoming(); ++K)
          if (P->getIncomingValue(K) == Def)
            UseAtExits.insert(P->getIncomingBlock(K));
      } else if (UI->getParent()) {
        UseBlocks.insert(UI->getParent());
      }
    }
    std::unordered_set<const BasicBlock *> Seen = {At};
    std::vector<BasicBlock *> Work = {At};
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      if (UseBlocks.count(BB) || UseAtExits.count(BB))
        return true;
      for (BasicBlock *S : successors(BB))
        if (S != DefBlock && Seen.insert(S).second)
          Work.push_back(S);
    }
    return false;
  }

private:
  std::vector<BasicBlock *> successors(BasicBlock *BB) const {
    Instruction *T = BB->getTerminator();
    if (auto *Br = dyn_cast<BranchInst>(T))
      if (Br->isConditional() && Br->getCondition() == Fid)
        return {IsF1 ? Br->getTrueDest() : Br->getFalseDest()};
    return T->successors();
  }

  Value *Fid;
  bool IsF1;
  std::unordered_set<const BasicBlock *> Reach;
};

/// A phi incoming edge whose value is replaced by a reload of the phi's
/// (shared) slot.
using Reload = std::pair<PhiInst *, BasicBlock *>;

/// Whether definition \p D (of the input running \p Own's paths) can
/// share a slot with \p Partner (of the input running \p Other's).
/// Disjointness is what makes sharing sound: the slot holds D's value on
/// Own's paths and Partner's on Other's. But D can also run on Other's
/// paths — a phi copied into a block both inputs share — and its slot
/// store there would overwrite Partner's value while Partner is live.
/// For such a phi, sharing stays sound when Other only enters its block
/// from blocks Own never runs: those incoming values are don't-cares for
/// D, so they become reloads of the slot (appended to \p Reloads), and
/// D's store on Other's paths writes back what the slot already holds.
/// Any other such pair would miscompile and is not shared.
bool canShare(Instruction *D, Instruction *Partner, const InputPaths &Own,
              const InputPaths &Other, std::vector<Reload> &Reloads) {
  BasicBlock *B = D->getParent();
  if (!Other.reaches(B) || !Other.liveAtHead(Partner, B))
    return true;
  auto *P = dyn_cast<PhiInst>(D);
  if (!P || B == Partner->getParent())
    return false;
  std::vector<Reload> Edges;
  for (unsigned K = 0; K < P->getNumIncoming(); ++K) {
    BasicBlock *Pred = P->getIncomingBlock(K);
    if (!Other.takesEdge(Pred, B))
      continue;
    // An invoke's result is stored on a split-off edge block, after any
    // reload placed before the invoke could see it.
    if (Own.reaches(Pred) || isa<InvokeInst>(Pred->getTerminator()))
      return false;
    Edges.push_back({P, Pred});
  }
  Reloads.insert(Reloads.end(), Edges.begin(), Edges.end());
  return true;
}

} // namespace

SSARepairStats salssa::repairSSA(
    Function &Merged, Context &Ctx,
    const std::unordered_map<Instruction *, MergeOrigin> &Origin,
    bool EnableCoalescing) {
  SSARepairStats Stats;
  std::vector<Instruction *> Defs = findViolatingDefs(Merged);
  Stats.ViolatingDefs = static_cast<unsigned>(Defs.size());
  if (Defs.empty())
    return Stats;

  auto originOf = [&](Instruction *I) {
    auto It = Origin.find(I);
    return It == Origin.end() ? MergeOrigin::Shared : It->second;
  };

  // --- Phi-node coalescing: pair disjoint definitions (one per input
  // function, same type) greedily by descending user-block overlap.
  std::map<Instruction *, Instruction *> Partner;
  std::vector<Reload> SlotReloads;
  if (EnableCoalescing) {
    std::vector<Instruction *> Side1, Side2;
    for (Instruction *D : Defs) {
      if (originOf(D) == MergeOrigin::FromF1)
        Side1.push_back(D);
      else if (originOf(D) == MergeOrigin::FromF2)
        Side2.push_back(D);
    }
    struct Candidate {
      size_t Overlap;
      Instruction *D1;
      Instruction *D2;
      std::vector<Reload> Reloads; ///< needed iff the pair is chosen
    };
    std::vector<Candidate> Candidates;
    std::map<Instruction *, std::set<const BasicBlock *>> UB;
    for (Instruction *D : Side1)
      UB[D] = userBlocks(D);
    for (Instruction *D : Side2)
      UB[D] = userBlocks(D);
    InputPaths Paths1(Merged, /*IsF1=*/true);
    InputPaths Paths2(Merged, /*IsF1=*/false);
    for (Instruction *D1 : Side1)
      for (Instruction *D2 : Side2) {
        if (D1->getType() != D2->getType())
          continue;
        size_t Overlap = 0;
        for (const BasicBlock *BB : UB[D1])
          Overlap += UB[D2].count(BB);
        std::vector<Reload> Reloads;
        if (Overlap > 0 && canShare(D1, D2, Paths1, Paths2, Reloads) &&
            canShare(D2, D1, Paths2, Paths1, Reloads))
          Candidates.push_back({Overlap, D1, D2, std::move(Reloads)});
      }
    std::stable_sort(Candidates.begin(), Candidates.end(),
                     [](const Candidate &A, const Candidate &B) {
                       return A.Overlap > B.Overlap;
                     });
    for (const Candidate &C : Candidates) {
      if (Partner.count(C.D1) || Partner.count(C.D2))
        continue;
      Partner[C.D1] = C.D2;
      Partner[C.D2] = C.D1;
      SlotReloads.insert(SlotReloads.end(), C.Reloads.begin(),
                         C.Reloads.end());
      ++Stats.CoalescedPairs;
    }
  }

  // --- Demotion: one slot per definition (shared for coalesced pairs).
  // Snapshot the user lists before inserting any spill stores.
  std::map<Instruction *, std::vector<User *>> SavedUsers;
  for (Instruction *D : Defs)
    SavedUsers[D] = std::vector<User *>(D->users().begin(), D->users().end());

  IRBuilder B(Ctx);
  BasicBlock *Entry = Merged.getEntryBlock();
  std::vector<AllocaInst *> Slots;
  std::map<Instruction *, AllocaInst *> SlotOf;
  for (Instruction *D : Defs) {
    auto PIt = Partner.find(D);
    if (PIt != Partner.end() && SlotOf.count(PIt->second)) {
      SlotOf[D] = SlotOf[PIt->second];
      continue;
    }
    B.setInsertPoint(Entry->front());
    AllocaInst *Slot = B.createAlloca(D->getType(), 1, "repair.slot");
    // Move the builder insertion semantics: createAlloca appends before
    // Entry->front(), keeping all slots at the top of the entry block.
    Slots.push_back(Slot);
    SlotOf[D] = Slot;
    ++Stats.SlotsCreated;
  }

  for (const auto &[P, Pred] : SlotReloads) {
    B.setInsertPoint(Pred->getTerminator());
    P->setIncomingValue(static_cast<unsigned>(P->indexOfBlock(Pred)),
                        B.createLoad(P->getType(), SlotOf.at(P)));
  }
  for (Instruction *D : Defs)
    storeDefToSlot(D, SlotOf.at(D), Ctx);
  for (Instruction *D : Defs)
    rewriteUsesWithLoads(D, SavedUsers.at(D), SlotOf.at(D), Ctx);

  // --- Promotion: the standard SSA construction algorithm restores the
  // dominance property, inserting phis (with undef pseudo-definitions on
  // paths that bypass the store) exactly as §4.3 describes.
  Mem2RegStats M2R = promoteAllocas(Merged, Ctx, Slots);
  Stats.PhisInserted = M2R.PhisInserted;
  return Stats;
}
