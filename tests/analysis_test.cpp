//===- tests/analysis_test.cpp - CFG and dominator analyses vs brute force ----===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Seeded random functions of 1-60 blocks — unconditional and conditional
// branches (both arms to one block included), self-loops, switches with
// repeated destinations, invoke edges, and unreachable blocks, some of
// them branching into reachable code — checked against reference
// computations that share no code with the analyses:
//
//   - CFGInfo: reverse post-order against a recursive DFS in successor
//     order, reachability, unique predecessors in RPO order;
//   - DominatorTree: dominator sets by iterative dataflow, from which the
//     immediate dominators, both dominates() overloads,
//     dominatesBlockExit, the tree's children, dominance frontiers and
//     iterated dominance frontiers follow by definition;
//   - PredecessorMap: every block whose terminator names a block, once
//     each, in layout order, unreachable sources included.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/RNG.h"
#include <algorithm>
#include <functional>
#include <gtest/gtest.h>
#include <map>
#include <set>

using namespace salssa;

namespace {

/// A random function and the module that owns it.
struct RandomCFG {
  Context Ctx;
  Module M{"m", Ctx};
  Function *F = nullptr;
  std::vector<BasicBlock *> Blocks; ///< layout order; Blocks[0] is the entry
};

/// Builds a function of \p NumBlocks blocks. Each block holds a couple of
/// instructions (a phi in some, so same-block phi rules get exercised)
/// and a random terminator. A few non-entry blocks are "dead": no block
/// outside the dead set targets them, while they may target anything, so
/// the function has unreachable blocks branching into reachable ones.
void buildRandomCFG(RandomCFG &R, uint64_t Seed, unsigned NumBlocks) {
  RNG Rng(Seed);
  Context &Ctx = R.Ctx;
  Type *I32 = Ctx.int32Ty();
  Function *Callee =
      R.M.createFunction("callee", Ctx.types().getFunctionTy(I32, {}));
  R.F = R.M.createFunction(
      "f", Ctx.types().getFunctionTy(I32, {I32, Ctx.int1Ty()}));
  for (unsigned I = 0; I < NumBlocks; ++I)
    R.Blocks.push_back(R.F->createBlock("b" + std::to_string(I)));

  std::vector<bool> Dead(NumBlocks, false);
  for (unsigned I = 1; I < NumBlocks; ++I)
    Dead[I] = Rng.chancePercent(15);
  std::vector<BasicBlock *> LiveTargets, AnyTargets;
  for (unsigned I = 1; I < NumBlocks; ++I) {
    AnyTargets.push_back(R.Blocks[I]);
    if (!Dead[I])
      LiveTargets.push_back(R.Blocks[I]);
  }

  IRBuilder B(Ctx);
  for (unsigned I = 0; I < NumBlocks; ++I) {
    BasicBlock *BB = R.Blocks[I];
    B.setInsertPoint(BB);
    if (I != 0 && Rng.chancePercent(30))
      B.createPhi(I32, "p" + std::to_string(I));
    Value *X = B.createAdd(R.F->getArg(0), Ctx.getInt32(I + 1));
    B.createMul(X, X);
    const std::vector<BasicBlock *> &Pool = Dead[I] ? AnyTargets : LiveTargets;
    auto pick = [&] { return Pool[Rng.nextBelow(Pool.size())]; };
    unsigned Kind = Pool.empty() ? 0 : unsigned(Rng.nextBelow(100));
    if (Kind < 12) {
      B.createRet(X);
    } else if (Kind < 35) {
      B.createBr(pick());
    } else if (Kind < 40 && I != 0) {
      B.createBr(BB); // self-loop
    } else if (Kind < 60) {
      B.createCondBr(R.F->getArg(1), pick(), pick());
    } else if (Kind < 66) {
      BasicBlock *T = pick();
      B.createCondBr(R.F->getArg(1), T, T); // both arms to one block
    } else if (Kind < 70 && I != 0) {
      B.createCondBr(R.F->getArg(1), BB, pick()); // self-loop arm
    } else if (Kind < 88) {
      SwitchInst *SW = B.createSwitch(R.F->getArg(0), pick());
      unsigned Cases = unsigned(Rng.nextBelow(5));
      BasicBlock *Repeat = pick();
      for (unsigned K = 0; K < Cases; ++K)
        SW->addCase(Ctx.getInt32(K),
                    Rng.chancePercent(40) ? Repeat : pick());
    } else {
      B.createInvoke(Callee, {}, pick(), pick(), "inv" + std::to_string(I));
    }
  }
}

/// Reference analyses, computed from definitions.
struct Reference {
  std::vector<BasicBlock *> RPO;
  std::map<const BasicBlock *, unsigned> Pos; ///< RPO position (reachable)
  std::vector<std::vector<unsigned>> Preds;   ///< unique, by position
  std::vector<std::vector<bool>> Dom;         ///< Dom[b][a]: a dominates b
  std::vector<int> IDom;                      ///< -1 for the entry

  explicit Reference(const Function &F) {
    std::vector<BasicBlock *> PostOrder;
    std::set<const BasicBlock *> Visited;
    std::function<void(BasicBlock *)> Visit = [&](BasicBlock *BB) {
      Visited.insert(BB);
      for (BasicBlock *S : BB->getTerminator()->successors())
        if (!Visited.count(S))
          Visit(S);
      PostOrder.push_back(BB);
    };
    Visit(F.getEntryBlock());
    RPO.assign(PostOrder.rbegin(), PostOrder.rend());
    for (unsigned I = 0; I < RPO.size(); ++I)
      Pos[RPO[I]] = I;

    size_t N = RPO.size();
    Preds.assign(N, {});
    for (unsigned P = 0; P < N; ++P)
      for (BasicBlock *S : RPO[P]->getTerminator()->successors()) {
        std::vector<unsigned> &L = Preds[Pos.at(S)];
        if (std::find(L.begin(), L.end(), P) == L.end())
          L.push_back(P);
      }
    for (std::vector<unsigned> &L : Preds)
      std::sort(L.begin(), L.end());

    // Dom(entry) = {entry}; Dom(b) = {b} + intersection over preds.
    Dom.assign(N, std::vector<bool>(N, true));
    Dom[0].assign(N, false);
    Dom[0][0] = true;
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (unsigned B = 1; B < N; ++B) {
        std::vector<bool> New(N, true);
        for (unsigned P : Preds[B])
          for (unsigned A = 0; A < N; ++A)
            New[A] = New[A] && Dom[P][A];
        New[B] = true;
        if (New != Dom[B]) {
          Dom[B] = New;
          Changed = true;
        }
      }
    }
    // The immediate dominator is the strict dominator dominated by all
    // the others: the one with the most dominators of its own.
    IDom.assign(N, -1);
    for (unsigned B = 1; B < N; ++B) {
      size_t Best = 0;
      for (unsigned A = 0; A < N; ++A) {
        if (A == B || !Dom[B][A])
          continue;
        size_t Depth = std::count(Dom[A].begin(), Dom[A].end(), true);
        if (IDom[B] < 0 || Depth > Best) {
          IDom[B] = int(A);
          Best = Depth;
        }
      }
    }
  }

  bool reachable(const BasicBlock *BB) const { return Pos.count(BB) != 0; }

  bool dominates(const BasicBlock *A, const BasicBlock *B) const {
    if (!reachable(B))
      return true;
    if (!reachable(A))
      return false;
    return Dom[Pos.at(B)][Pos.at(A)];
  }

  /// DF(b) = { y : b dominates a predecessor of y, b does not strictly
  /// dominate y }.
  std::set<BasicBlock *> frontier(const BasicBlock *BB) const {
    std::set<BasicBlock *> Result;
    if (!reachable(BB))
      return Result;
    unsigned B = Pos.at(BB);
    for (unsigned Y = 0; Y < RPO.size(); ++Y) {
      bool StrictlyDominates = B != Y && Dom[Y][B];
      if (StrictlyDominates)
        continue;
      for (unsigned P : Preds[Y])
        if (Dom[P][B]) {
          Result.insert(RPO[Y]);
          break;
        }
    }
    return Result;
  }

  std::set<BasicBlock *> iteratedFrontier(std::set<BasicBlock *> Defs) const {
    std::set<BasicBlock *> Result;
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (BasicBlock *D : Defs)
        for (BasicBlock *Y : frontier(D))
          Changed |= Result.insert(Y).second;
      Defs.insert(Result.begin(), Result.end());
    }
    return Result;
  }
};

/// Every block whose terminator names \p BB, once each, in layout order.
std::vector<BasicBlock *> scanPredecessors(const Function &F,
                                           const BasicBlock *BB) {
  std::vector<BasicBlock *> Result;
  for (BasicBlock *P : F) {
    const std::vector<BasicBlock *> &Succs = P->getTerminator()->successors();
    if (std::find(Succs.begin(), Succs.end(), BB) != Succs.end())
      Result.push_back(P);
  }
  return Result;
}

template <typename Container>
std::set<BasicBlock *> asSet(const Container &C) {
  return std::set<BasicBlock *>(C.begin(), C.end());
}

void checkFunction(uint64_t Seed, unsigned NumBlocks) {
  SCOPED_TRACE("seed " + std::to_string(Seed) + ", " +
               std::to_string(NumBlocks) + " blocks");
  RandomCFG R;
  buildRandomCFG(R, Seed, NumBlocks);
  const Function &F = *R.F;
  Reference Ref(F);

  // --- CFGInfo.
  CFGInfo CFG(F);
  ASSERT_EQ(CFG.reversePostOrder(), Ref.RPO);
  EXPECT_EQ(CFG.getNumReachableBlocks(), Ref.RPO.size());
  for (BasicBlock *BB : R.Blocks) {
    EXPECT_EQ(CFG.isReachable(BB), Ref.reachable(BB)) << BB->getName();
    std::vector<BasicBlock *> Want;
    if (Ref.reachable(BB))
      for (unsigned P : Ref.Preds[Ref.Pos.at(BB)])
        Want.push_back(Ref.RPO[P]);
    EXPECT_EQ(CFG.predecessors(BB), Want) << BB->getName();
  }

  // --- PredecessorMap: all edges, layout order.
  PredecessorMap AllPreds(F);
  for (BasicBlock *BB : R.Blocks)
    EXPECT_EQ(AllPreds.predecessors(BB), scanPredecessors(F, BB))
        << BB->getName();

  // --- DominatorTree, block level.
  DominatorTree DT(F);
  for (BasicBlock *BB : R.Blocks) {
    BasicBlock *WantIDom = nullptr;
    if (Ref.reachable(BB) && Ref.IDom[Ref.Pos.at(BB)] >= 0)
      WantIDom = Ref.RPO[Ref.IDom[Ref.Pos.at(BB)]];
    EXPECT_EQ(DT.getIDom(BB), WantIDom) << BB->getName();

    std::vector<BasicBlock *> WantChildren;
    for (unsigned C = 0; C < Ref.RPO.size(); ++C)
      if (Ref.reachable(BB) && Ref.IDom[C] == int(Ref.Pos.at(BB)))
        WantChildren.push_back(Ref.RPO[C]);
    EXPECT_EQ(DT.getChildren(BB), WantChildren) << BB->getName();

    for (BasicBlock *Other : R.Blocks)
      EXPECT_EQ(DT.dominates(BB, Other), Ref.dominates(BB, Other))
          << BB->getName() << " dom " << Other->getName();

    const auto &DF = DT.dominanceFrontier(BB);
    EXPECT_EQ(asSet(DF), Ref.frontier(BB)) << BB->getName();
    EXPECT_EQ(asSet(DF).size(), size_t(std::distance(DF.begin(), DF.end())))
        << "duplicate frontier entries for " << BB->getName();
  }

  // --- Iterated dominance frontiers of random block sets (unreachable
  // members included; they contribute nothing).
  RNG Rng(Seed * 31 + 7);
  for (unsigned Trial = 0; Trial < 8; ++Trial) {
    std::set<BasicBlock *> Defs;
    for (BasicBlock *BB : R.Blocks)
      if (Rng.chancePercent(20))
        Defs.insert(BB);
    auto IDF = DT.iteratedDominanceFrontier({Defs.begin(), Defs.end()});
    EXPECT_EQ(asSet(IDF), Ref.iteratedFrontier(Defs)) << "trial " << Trial;
    EXPECT_EQ(asSet(IDF).size(),
              size_t(std::distance(IDF.begin(), IDF.end())));
  }

  // --- Instruction level: every ordered pair of a few instructions per
  // block, phis and terminators (invokes are values) included.
  std::vector<const Instruction *> Insts;
  std::map<const Instruction *, unsigned> Index; ///< position in block
  for (BasicBlock *BB : R.Blocks) {
    unsigned I = 0;
    for (const Instruction *Inst : *BB) {
      Insts.push_back(Inst);
      Index[Inst] = I++;
    }
  }
  for (const Instruction *Def : Insts)
    for (const Instruction *User : Insts) {
      const BasicBlock *DB = Def->getParent();
      const BasicBlock *UB = User->getParent();
      bool Want;
      if (DB != UB)
        Want = Ref.dominates(DB, UB);
      else if (Def == User)
        Want = false;
      else if (Def->isPhi() && !User->isPhi())
        Want = true;
      else if (User->isPhi())
        Want = false;
      else
        Want = Index.at(Def) < Index.at(User);
      EXPECT_EQ(DT.dominates(Def, User), Want)
          << DB->getName() << ":" << Index.at(Def) << " dom "
          << UB->getName() << ":" << Index.at(User);
    }
  for (const Instruction *Def : Insts)
    for (BasicBlock *BB : R.Blocks)
      EXPECT_EQ(DT.dominatesBlockExit(Def, BB),
                Def->getParent() == BB ||
                    Ref.dominates(Def->getParent(), BB))
          << Def->getParent()->getName() << " exit " << BB->getName();
}

TEST(AnalysisBruteForceTest, RandomFunctions) {
  for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
    unsigned NumBlocks = 1 + unsigned(mix64(Seed) % 60);
    checkFunction(Seed, NumBlocks);
    if (::testing::Test::HasFailure())
      return; // one failing function is enough to read
  }
}

TEST(AnalysisBruteForceTest, GeneratorCoversTheEdgeKinds) {
  // Guards the generator itself: over the seeds above, every edge kind
  // the analyses must handle shows up, and so do unreachable blocks that
  // branch into reachable code.
  bool SawInvoke = false, SawSwitchRepeat = false, SawSameArms = false,
       SawSelfLoop = false, SawDeadIntoLive = false;
  for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
    RandomCFG R;
    buildRandomCFG(R, Seed, 1 + unsigned(mix64(Seed) % 60));
    CFGInfo CFG(*R.F);
    for (BasicBlock *BB : R.Blocks) {
      const Instruction *T = BB->getTerminator();
      const std::vector<BasicBlock *> &S = T->successors();
      SawInvoke |= isa<InvokeInst>(T) && CFG.isReachable(BB);
      SawSelfLoop |= std::find(S.begin(), S.end(), BB) != S.end();
      if (isa<BranchInst>(T) && S.size() == 2 && S[0] == S[1])
        SawSameArms = true;
      if (isa<SwitchInst>(T) && asSet(S).size() < S.size())
        SawSwitchRepeat = true;
      if (!CFG.isReachable(BB))
        for (BasicBlock *Succ : S)
          SawDeadIntoLive |= CFG.isReachable(Succ);
    }
  }
  EXPECT_TRUE(SawInvoke);
  EXPECT_TRUE(SawSwitchRepeat);
  EXPECT_TRUE(SawSameArms);
  EXPECT_TRUE(SawSelfLoop);
  EXPECT_TRUE(SawDeadIntoLive);
}

} // namespace
