//===- analysis/Dominators.cpp - Dominator tree --------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Implements the iterative dominance algorithm of Cooper, Harvey & Kennedy,
// "A Simple, Fast Dominance Algorithm" (2001), and dominance frontiers per
// Cytron et al. (1991).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include <algorithm>

using namespace salssa;

InstructionOrder::InstructionOrder(const Function &F) {
  unsigned N = 0;
  for (const BasicBlock *BB : F)
    for (const Instruction *I : *BB)
      Position.emplace(I, N++);
}

DominatorTree::DominatorTree(const Function &F) : CFG(F) {
  const std::vector<BasicBlock *> &RPO = CFG.reversePostOrder();
  const unsigned N = static_cast<unsigned>(RPO.size());
  if (N == 0)
    return;

  // Numbers are RPO positions, so a block's dominators all have smaller
  // numbers; the entry (0) is its own idom internally.
  IDom.assign(N, CFGInfo::Unreachable);
  IDom[0] = 0;
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (A > B)
        A = IDom[A];
      while (B > A)
        B = IDom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = 1; B < N; ++B) {
      unsigned NewIDom = CFGInfo::Unreachable;
      for (unsigned P : CFG.predecessorNumbers(B)) {
        if (IDom[P] == CFGInfo::Unreachable)
          continue; // predecessor not yet processed
        NewIDom = NewIDom == CFGInfo::Unreachable ? P : Intersect(NewIDom, P);
      }
      assert(NewIDom != CFGInfo::Unreachable &&
             "reachable block with no processed predecessor");
      if (IDom[B] != NewIDom) {
        IDom[B] = NewIDom;
        Changed = true;
      }
    }
  }

  Children.resize(N);
  for (unsigned B = 1; B < N; ++B)
    Children[IDom[B]].push_back(RPO[B]);

  // Preorder intervals: A dominates B iff B's interval nests in A's.
  DFSIn.assign(N, 0);
  DFSOut.assign(N, 0);
  unsigned Clock = 0;
  std::vector<std::pair<unsigned, size_t>> Stack = {{0, 0}};
  DFSIn[0] = Clock++;
  while (!Stack.empty()) {
    auto &[B, NextChild] = Stack.back();
    if (NextChild < Children[B].size()) {
      unsigned C = CFG.getNumber(Children[B][NextChild++]);
      DFSIn[C] = Clock++;
      Stack.push_back({C, 0});
      continue;
    }
    DFSOut[B] = Clock++;
    Stack.pop_back();
  }
}

const std::vector<BasicBlock *> &
DominatorTree::getChildren(const BasicBlock *BB) const {
  unsigned N = CFG.getNumber(BB);
  return N == CFGInfo::Unreachable ? Empty : Children[N];
}

BasicBlock *DominatorTree::getIDom(const BasicBlock *BB) const {
  unsigned N = CFG.getNumber(BB);
  if (N == CFGInfo::Unreachable || N == 0)
    return nullptr; // the entry's sentinel self-idom is reported as null
  return CFG.reversePostOrder()[IDom[N]];
}

bool DominatorTree::dominates(const BasicBlock *A,
                              const BasicBlock *B) const {
  unsigned BN = CFG.getNumber(B);
  if (BN == CFGInfo::Unreachable)
    return true; // vacuous: nothing executes in B
  unsigned AN = CFG.getNumber(A);
  if (AN == CFGInfo::Unreachable)
    return false;
  return DFSIn[AN] <= DFSIn[BN] && DFSOut[BN] <= DFSOut[AN];
}

bool DominatorTree::dominates(const Instruction *Def,
                              const Instruction *User,
                              const InstructionOrder *Order) const {
  const BasicBlock *DefBB = Def->getParent();
  const BasicBlock *UserBB = User->getParent();
  assert(DefBB && UserBB && "dominance query on unlinked instructions");
  if (DefBB != UserBB)
    return dominates(DefBB, UserBB);
  if (Def == User)
    return false; // an instruction does not dominate itself as a use
  // Phis at the block head execute "simultaneously on entry": a phi
  // dominates every non-phi in its block but no other phi.
  if (Def->isPhi() && !User->isPhi())
    return true;
  if (User->isPhi())
    return false;
  if (Order)
    return Order->comesBefore(Def, User);
  for (const Instruction *I : *DefBB) {
    if (I == Def)
      return true;
    if (I == User)
      return false;
  }
  assert(false && "instructions not found in their own parent block");
  return false;
}

bool DominatorTree::dominatesBlockExit(const Instruction *Def,
                                       const BasicBlock *BB) const {
  const BasicBlock *DefBB = Def->getParent();
  if (DefBB == BB)
    return true; // any instruction in BB executes before BB's exit edge
  return dominates(DefBB, BB);
}

void DominatorTree::computeFrontiers() {
  FrontiersComputed = true;
  const unsigned N = static_cast<unsigned>(CFG.getNumReachableBlocks());
  Frontiers.resize(N);
  // Blocks are visited in RPO, so every frontier list ends up ascending,
  // and a block already added by an earlier predecessor's walk is the
  // list's tail.
  for (unsigned B = 0; B < N; ++B) {
    const std::vector<unsigned> &Preds = CFG.predecessorNumbers(B);
    if (Preds.size() < 2)
      continue;
    for (unsigned P : Preds) {
      // Walk up from P to B's idom; the entry (whose own idom is null)
      // ends the walk when B is the entry itself.
      for (unsigned Runner = P;
           B == 0 || Runner != IDom[B]; Runner = IDom[Runner]) {
        std::vector<unsigned> &L = Frontiers[Runner];
        if (L.empty() || L.back() != B)
          L.push_back(B);
        if (Runner == 0)
          break;
      }
    }
  }
}

std::vector<BasicBlock *>
DominatorTree::dominanceFrontier(const BasicBlock *BB) {
  if (!FrontiersComputed)
    computeFrontiers();
  std::vector<BasicBlock *> Result;
  unsigned N = CFG.getNumber(BB);
  if (N != CFGInfo::Unreachable)
    for (unsigned Y : Frontiers[N])
      Result.push_back(CFG.reversePostOrder()[Y]);
  return Result;
}

std::vector<BasicBlock *> DominatorTree::iteratedDominanceFrontier(
    const std::vector<BasicBlock *> &DefBlocks) {
  if (!FrontiersComputed)
    computeFrontiers();
  // One stamp per query marks the blocks already in the result, so
  // repeated queries (one per promoted slot) reuse the mark vector.
  if (IDFMark.empty() || ++IDFStamp == 0) {
    IDFMark.assign(CFG.getNumReachableBlocks(), 0);
    IDFStamp = 1;
  }
  std::vector<unsigned> Result;
  std::vector<unsigned> Worklist;
  for (BasicBlock *BB : DefBlocks) {
    unsigned N = CFG.getNumber(BB);
    if (N != CFGInfo::Unreachable)
      Worklist.push_back(N);
  }
  while (!Worklist.empty()) {
    unsigned B = Worklist.back();
    Worklist.pop_back();
    for (unsigned Y : Frontiers[B])
      if (IDFMark[Y] != IDFStamp) {
        IDFMark[Y] = IDFStamp;
        Result.push_back(Y);
        Worklist.push_back(Y);
      }
  }
  std::sort(Result.begin(), Result.end());
  std::vector<BasicBlock *> Blocks;
  Blocks.reserve(Result.size());
  for (unsigned Y : Result)
    Blocks.push_back(CFG.reversePostOrder()[Y]);
  return Blocks;
}
