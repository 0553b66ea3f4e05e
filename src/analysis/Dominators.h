//===- analysis/Dominators.h - Dominator tree --------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree built with the Cooper-Harvey-Kennedy iterative algorithm,
/// plus dominance frontiers (Cytron et al.) used by SSA construction. The
/// verifier uses instruction-level dominance to check the SSA dominance
/// property that SalSSA's code generator must restore (§4.3 of the paper).
///
/// Blocks are identified by their CFGInfo number (RPO position); idoms,
/// children and frontiers live in vectors indexed by it, and block
/// dominance is an O(1) interval test on a DFS numbering of the tree.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_ANALYSIS_DOMINATORS_H
#define SALSSA_ANALYSIS_DOMINATORS_H

#include "analysis/CFG.h"

namespace salssa {

/// Layout positions of one function's instructions, numbered once for
/// repeated same-block dominance queries while the function does not
/// change (the verifier, violation scans).
class InstructionOrder {
public:
  explicit InstructionOrder(const Function &F);

  /// True when \p A comes before \p B (both in the numbered function).
  bool comesBefore(const Instruction *A, const Instruction *B) const {
    return Position.at(A) < Position.at(B);
  }

private:
  std::unordered_map<const Instruction *, unsigned> Position;
};

/// Immediate-dominator tree over the reachable CFG of one function.
class DominatorTree {
public:
  explicit DominatorTree(const Function &F);

  /// Immediate dominator of \p BB (null for the entry or unreachable
  /// blocks).
  BasicBlock *getIDom(const BasicBlock *BB) const;

  /// Block-level dominance (reflexive). Unreachable blocks dominate
  /// nothing and are dominated by everything (vacuous truth, matching
  /// LLVM's convention for verifier purposes).
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

  /// Instruction-level dominance: true when \p Def's value is available at
  /// \p User. Same-block cases use instruction order — read from \p Order
  /// when given, else by scanning the block; phi uses must be checked
  /// against the incoming block's terminator by the caller.
  bool dominates(const Instruction *Def, const Instruction *User,
                 const InstructionOrder *Order = nullptr) const;

  /// True when the value \p Def is available on exit from block \p BB.
  bool dominatesBlockExit(const Instruction *Def,
                          const BasicBlock *BB) const;

  /// Dominance frontier of \p BB in ascending RPO order (frontiers are
  /// computed for every block on the first query).
  std::vector<BasicBlock *> dominanceFrontier(const BasicBlock *BB);

  /// Children of \p BB in the dominator tree, in ascending RPO order.
  const std::vector<BasicBlock *> &getChildren(const BasicBlock *BB) const;

  /// Iterated dominance frontier of \p DefBlocks — the phi placement set
  /// of Cytron et al.'s SSA construction — in ascending RPO order.
  /// Unreachable entries of \p DefBlocks contribute nothing.
  std::vector<BasicBlock *>
  iteratedDominanceFrontier(const std::vector<BasicBlock *> &DefBlocks);

  const CFGInfo &getCFG() const { return CFG; }

private:
  void computeFrontiers();

  CFGInfo CFG;
  std::vector<unsigned> IDom; ///< by number; the entry is its own idom
  std::vector<std::vector<BasicBlock *>> Children;
  std::vector<unsigned> DFSIn, DFSOut; ///< preorder interval in the tree
  std::vector<BasicBlock *> Empty;
  bool FrontiersComputed = false;
  std::vector<std::vector<unsigned>> Frontiers; ///< by number
  std::vector<unsigned> IDFMark; ///< per-block query stamp
  unsigned IDFStamp = 0;
};

} // namespace salssa

#endif // SALSSA_ANALYSIS_DOMINATORS_H
