//===- analysis/CFG.h - CFG utilities ----------------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow graph queries computed from a snapshot of a function:
/// traversal orders, reachability, predecessor maps. Each analysis numbers
/// the blocks once and keeps its results in vectors indexed by that
/// number; the numbering lives in the analysis object, never in the IR
/// (analyses run on worker threads over shared functions). Passes that
/// mutate the CFG recompute CFGInfo; a PredecessorMap may instead be kept
/// current by the pass that edits the CFG.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_ANALYSIS_CFG_H
#define SALSSA_ANALYSIS_CFG_H

#include "ir/Function.h"
#include <unordered_map>
#include <vector>

namespace salssa {

/// An immutable snapshot of a function's reachable CFG. Reachable blocks
/// are numbered by their reverse post-order position.
class CFGInfo {
public:
  /// Number of a block the entry does not reach.
  static constexpr unsigned Unreachable = ~0u;

  explicit CFGInfo(const Function &F);

  /// Unique predecessor blocks of \p BB over reachable edges (no duplicate
  /// entries even when multiple edges exist from the same block), in RPO
  /// order of the predecessor. Empty for unreachable blocks.
  const std::vector<BasicBlock *> &predecessors(const BasicBlock *BB) const;

  /// Blocks in reverse post-order from the entry (unreachable blocks are
  /// excluded).
  const std::vector<BasicBlock *> &reversePostOrder() const { return RPO; }

  /// RPO position of \p BB, or Unreachable.
  unsigned getNumber(const BasicBlock *BB) const {
    auto It = Number.find(BB);
    return It == Number.end() ? Unreachable : It->second;
  }

  /// Predecessors of the block numbered \p N, by number (same order as
  /// predecessors()).
  const std::vector<unsigned> &predecessorNumbers(unsigned N) const {
    return PredNums[N];
  }

  bool isReachable(const BasicBlock *BB) const {
    return Number.count(BB) != 0;
  }

  size_t getNumReachableBlocks() const { return RPO.size(); }

private:
  std::unordered_map<const BasicBlock *, unsigned> Number;
  std::vector<BasicBlock *> RPO;
  std::vector<std::vector<BasicBlock *>> Preds;
  std::vector<std::vector<unsigned>> PredNums;
  std::vector<BasicBlock *> Empty;
};

/// Predecessors over *every* edge of a function, unreachable sources
/// included: for each block, every block whose terminator names it, once
/// each, in function layout order — the set a phi's incoming blocks must
/// match. Built in one pass over the terminators. A pass that edits the
/// CFG may keep it current with removePredecessor/addPredecessor; blocks
/// keep the layout numbers they had when the map was built, which stay
/// ordered as long as the pass only erases blocks.
class PredecessorMap {
public:
  explicit PredecessorMap(const Function &F);

  const std::vector<BasicBlock *> &predecessors(const BasicBlock *BB) const {
    return Preds[Number.at(BB)];
  }

  /// Records that \p Pred no longer branches to \p BB.
  void removePredecessor(const BasicBlock *BB, const BasicBlock *Pred);

  /// Records that \p Pred branches to \p BB (no-op when already known),
  /// keeping \p BB's list in layout order.
  void addPredecessor(const BasicBlock *BB, BasicBlock *Pred);

private:
  std::unordered_map<const BasicBlock *, unsigned> Number; ///< layout
  std::vector<std::vector<BasicBlock *>> Preds;
};

} // namespace salssa

#endif // SALSSA_ANALYSIS_CFG_H
