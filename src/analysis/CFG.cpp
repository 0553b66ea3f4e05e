//===- analysis/CFG.cpp - CFG utilities ---------------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include <algorithm>

using namespace salssa;

CFGInfo::CFGInfo(const Function &F) {
  if (F.isDeclaration())
    return;
  // Iterative DFS computing post-order; RPO is its reverse. Blocks are
  // marked on discovery and renumbered by RPO position at the end.
  std::vector<BasicBlock *> PostOrder;
  // Stack of (block, next successor index).
  std::vector<std::pair<BasicBlock *, size_t>> Stack;
  BasicBlock *Entry = F.getEntryBlock();
  Stack.push_back({Entry, 0});
  Number.emplace(Entry, Unreachable);
  while (!Stack.empty()) {
    auto &[BB, NextIdx] = Stack.back();
    const std::vector<BasicBlock *> &Succs = BB->successors();
    if (NextIdx < Succs.size()) {
      BasicBlock *S = Succs[NextIdx++];
      if (Number.emplace(S, Unreachable).second)
        Stack.push_back({S, 0});
      continue;
    }
    PostOrder.push_back(BB);
    Stack.pop_back();
  }
  RPO.assign(PostOrder.rbegin(), PostOrder.rend());
  for (unsigned I = 0; I < RPO.size(); ++I)
    Number[RPO[I]] = I;

  // Unique predecessor lists over reachable edges, in RPO order of the
  // predecessor. Predecessors are visited in that order, so a successor
  // listed twice by one terminator finds this predecessor at its tail.
  Preds.resize(RPO.size());
  PredNums.resize(RPO.size());
  for (unsigned P = 0; P < RPO.size(); ++P)
    for (BasicBlock *S : RPO[P]->successors()) {
      unsigned SN = Number.find(S)->second;
      std::vector<unsigned> &L = PredNums[SN];
      if (!L.empty() && L.back() == P)
        continue;
      L.push_back(P);
      Preds[SN].push_back(RPO[P]);
    }
}

const std::vector<BasicBlock *> &
CFGInfo::predecessors(const BasicBlock *BB) const {
  unsigned N = getNumber(BB);
  return N == Unreachable ? Empty : Preds[N];
}

PredecessorMap::PredecessorMap(const Function &F) {
  unsigned N = 0;
  for (const BasicBlock *BB : F)
    Number.emplace(BB, N++);
  Preds.resize(N);
  // Blocks are visited in layout order, so a successor listed twice by
  // one terminator finds BB at its tail.
  for (BasicBlock *BB : F)
    for (BasicBlock *S : BB->successors()) {
      std::vector<BasicBlock *> &L = Preds[Number.at(S)];
      if (L.empty() || L.back() != BB)
        L.push_back(BB);
    }
}

void PredecessorMap::removePredecessor(const BasicBlock *BB,
                                       const BasicBlock *Pred) {
  std::vector<BasicBlock *> &L = Preds[Number.at(BB)];
  auto It = std::find(L.begin(), L.end(), Pred);
  if (It != L.end())
    L.erase(It);
}

void PredecessorMap::addPredecessor(const BasicBlock *BB, BasicBlock *Pred) {
  std::vector<BasicBlock *> &L = Preds[Number.at(BB)];
  const unsigned PN = Number.at(Pred);
  auto It = std::find_if(L.begin(), L.end(), [&](const BasicBlock *X) {
    return Number.find(X)->second >= PN;
  });
  if (It == L.end() || *It != Pred)
    L.insert(It, Pred);
}
