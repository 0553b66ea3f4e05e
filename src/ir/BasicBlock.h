//===- ir/BasicBlock.h - Basic block ---------------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A basic block: a label plus an ordered list of instructions ending in a
/// terminator. Blocks own their instructions. Successors are read off the
/// terminator; predecessors are served by the analysis layer (CFGInfo for
/// reachable edges, PredecessorMap for every edge) — blocks do not keep
/// incremental predecessor lists that could drift out of sync during CFG
/// surgery.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_IR_BASICBLOCK_H
#define SALSSA_IR_BASICBLOCK_H

#include "ir/Instruction.h"
#include <list>

namespace salssa {

class Function;

/// A node of the control-flow graph.
class BasicBlock {
public:
  using InstListTy = std::list<Instruction *>;
  using iterator = InstListTy::iterator;
  using const_iterator = InstListTy::const_iterator;

  explicit BasicBlock(const std::string &Name = "") : Name(Name) {}
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;
  ~BasicBlock();

  const std::string &getName() const { return Name; }
  void setName(const std::string &N) { Name = N; }

  Function *getParent() const { return Parent; }

  /// \name Instruction list.
  /// @{
  iterator begin() { return Insts.begin(); }
  iterator end() { return Insts.end(); }
  const_iterator begin() const { return Insts.begin(); }
  const_iterator end() const { return Insts.end(); }
  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }
  Instruction *front() const { return Insts.front(); }
  Instruction *back() const { return Insts.back(); }
  const InstListTy &instructions() const { return Insts; }
  /// @}

  /// The block's terminator, or null if the block is not yet terminated.
  Instruction *getTerminator() const {
    if (Insts.empty() || !Insts.back()->isTerminator())
      return nullptr;
    return Insts.back();
  }

  /// First non-phi instruction (or null for an empty block).
  Instruction *getFirstNonPhi() const;

  /// The phi-nodes at the head of this block.
  std::vector<PhiInst *> phis() const;

  /// Successor blocks, taken from the terminator (empty when
  /// unterminated).
  const std::vector<BasicBlock *> &successors() const;

  /// True when this block starts (after phis) with a landingpad.
  bool isLandingBlock() const;

  /// Appends \p I, transferring ownership to this block.
  void push_back(Instruction *I);

  /// Inserts \p I before \p Pos, transferring ownership.
  iterator insert(iterator Pos, Instruction *I);

  /// Unlinks this block from its parent function without deleting it.
  void removeFromParent();

  /// Unlinks and deletes. All instructions must be use-free (call
  /// dropAllBlockReferences first when tearing down whole subgraphs).
  void eraseFromParent();

  /// Calls dropAllReferences on every instruction; used before bulk
  /// deletion so cross-references don't dangle.
  void dropAllBlockReferences();

  /// Updates every phi in this block that has an incoming entry for
  /// \p OldPred to reference \p NewPred instead.
  void replacePhiUsesWith(BasicBlock *OldPred, BasicBlock *NewPred);

  /// Removes the incoming entries for \p Pred from all phis (when the edge
  /// Pred->this is deleted).
  void removePredecessorEntries(BasicBlock *Pred);

private:
  friend class Function;
  friend class Instruction;

  std::string Name;
  Function *Parent = nullptr;
  std::list<BasicBlock *>::iterator SelfIt;
  InstListTy Insts;
};

} // namespace salssa

#endif // SALSSA_IR_BASICBLOCK_H
