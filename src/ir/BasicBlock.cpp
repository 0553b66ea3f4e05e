//===- ir/BasicBlock.cpp - Basic block implementation ----------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/BasicBlock.h"
#include "ir/Function.h"

using namespace salssa;

BasicBlock::~BasicBlock() {
  // Teardown protocol: sever all cross-references first, then delete. A
  // block deleted in isolation must already have use-free instructions;
  // whole-function teardown calls dropAllBlockReferences across every
  // block before any destructor runs.
  for (Instruction *I : Insts)
    I->dropAllReferences();
  for (Instruction *I : Insts) {
    I->Parent = nullptr; // avoid removeFromParent touching the dead list
    delete I;
  }
  Insts.clear();
}

Instruction *BasicBlock::getFirstNonPhi() const {
  for (Instruction *I : Insts)
    if (!I->isPhi())
      return I;
  return nullptr;
}

std::vector<PhiInst *> BasicBlock::phis() const {
  std::vector<PhiInst *> Result;
  for (Instruction *I : Insts) {
    auto *P = dyn_cast<PhiInst>(I);
    if (!P)
      break;
    Result.push_back(P);
  }
  return Result;
}

const std::vector<BasicBlock *> &BasicBlock::successors() const {
  static const std::vector<BasicBlock *> None;
  Instruction *T = getTerminator();
  return T ? T->successors() : None;
}

bool BasicBlock::isLandingBlock() const {
  Instruction *First = getFirstNonPhi();
  return First && isa<LandingPadInst>(First);
}

void BasicBlock::push_back(Instruction *I) {
  assert(!I->getParent() && "instruction already linked");
  Insts.push_back(I);
  I->SelfIt = std::prev(Insts.end());
  I->Parent = this;
}

BasicBlock::iterator BasicBlock::insert(iterator Pos, Instruction *I) {
  assert(!I->getParent() && "instruction already linked");
  auto It = Insts.insert(Pos, I);
  I->SelfIt = It;
  I->Parent = this;
  return It;
}

void BasicBlock::removeFromParent() {
  assert(Parent && "block is not linked");
  Parent->Blocks.erase(SelfIt);
  Parent = nullptr;
}

void BasicBlock::eraseFromParent() {
  if (Parent)
    removeFromParent();
  delete this;
}

void BasicBlock::dropAllBlockReferences() {
  for (Instruction *I : Insts)
    I->dropAllReferences();
}

void BasicBlock::replacePhiUsesWith(BasicBlock *OldPred,
                                    BasicBlock *NewPred) {
  for (PhiInst *P : phis())
    P->replaceIncomingBlockWith(OldPred, NewPred);
}

void BasicBlock::removePredecessorEntries(BasicBlock *Pred) {
  for (PhiInst *P : phis()) {
    int I = P->indexOfBlock(Pred);
    if (I >= 0)
      P->removeIncoming(static_cast<unsigned>(I));
  }
}
