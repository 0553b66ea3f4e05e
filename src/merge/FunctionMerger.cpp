//===- merge/FunctionMerger.cpp - Pairwise merge pipeline ----------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "merge/FunctionMerger.h"
#include "align/Matcher.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/Chrono.h"
#include <chrono>

using namespace salssa;

ProfitModel ProfitModel::forArch(TargetArch Arch) {
  ProfitModel M;
  if (Arch == TargetArch::X86Like) {
    // Average lowered instruction on the CISC model is ~3-4 bytes; the
    // per-commit toll mirrors attemptMerge's thunk estimate (two thunks
    // of overhead + call + ret, a few argument moves each).
    M.BytesPerOverlap = 3.5;
    M.BytesPerMismatch = 1.0;
    M.OverheadBytes = 2 * (12 + 5 + 1 + 2 * 3);
  } else {
    M.BytesPerOverlap = 2.5;
    M.BytesPerMismatch = 1.0;
    M.OverheadBytes = 2 * (8 + 4 + 2 + 2 * 3);
  }
  return M;
}

void ProfitModel::observe(uint64_t Overlap, uint64_t Distance,
                          int ActualProfit) {
  if (Overlap == 0)
    return;
  // Invert the estimate at the observed profit: the bytes-per-aligned-
  // slot this attempt actually realized, given the fixed mismatch and
  // overhead terms. |A| + |B| = 2·overlap + D reconstructs the
  // similarity discount without needing the fingerprints here. Clamp
  // before folding so one pathological attempt (tiny overlap, huge
  // negative profit) cannot capsize the model.
  double Expected = double(Overlap) * (2.0 * double(Overlap) /
                                       double(2 * Overlap + Distance));
  double Implied = (double(ActualProfit) + OverheadBytes +
                    BytesPerMismatch * double(Distance)) /
                   Expected;
  if (Implied < MinBytesPerOverlap)
    Implied = MinBytesPerOverlap;
  else if (Implied > MaxBytesPerOverlap)
    Implied = MaxBytesPerOverlap;
  BytesPerOverlap = (1.0 - Alpha) * BytesPerOverlap + Alpha * Implied;
}

namespace {

/// Deterministically corrupts a generated merged body for the
/// FaultKind::CodeGenCorruption fault point: appends a second terminator
/// to the entry block, the exact shape of bug the structural verifier
/// exists to catch ("terminator in the middle of a block" + a bogus
/// back-edge). The body stays safe to size, print and erase — only the
/// commit firewall may reject it.
void corruptMergedBody(Function &Merged, Context &Ctx) {
  BasicBlock *Entry = Merged.getEntryBlock();
  if (!Entry || !Entry->getTerminator())
    return;
  IRBuilder B(Ctx, Entry);
  B.createBr(Entry);
}

/// Reconstructs an AlignmentResult from a cached entry list, validating
/// every step: lengths match the current linearization, the non-gap
/// indices cover both sequences exactly once in order, and every match
/// entry still satisfies itemsMatch. Returns false (leaving \p Out
/// unspecified) on the first inconsistency.
bool replayAlignment(const AlignmentReplay &Replay,
                     const std::vector<SeqItem> &Seq1,
                     const std::vector<SeqItem> &Seq2,
                     AlignmentResult &Out) {
  if (!Replay.Entries || Replay.SeqLen1 != Seq1.size() ||
      Replay.SeqLen2 != Seq2.size())
    return false;
  Out.Entries.clear();
  Out.Entries.reserve(Replay.Entries->size());
  Out.MatchedPairs = 0;
  int64_t Next1 = 0, Next2 = 0;
  for (const auto &[I1, I2] : *Replay.Entries) {
    if (I1 < 0 && I2 < 0)
      return false;
    if (I1 >= 0 && I1 != Next1++)
      return false;
    if (I2 >= 0 && I2 != Next2++)
      return false;
    if (I1 >= 0 && I2 >= 0) {
      if (!itemsMatch(Seq1[static_cast<size_t>(I1)],
                      Seq2[static_cast<size_t>(I2)]))
        return false;
      ++Out.MatchedPairs;
    }
    Out.Entries.push_back({static_cast<int>(I1), static_cast<int>(I2)});
  }
  if (Next1 != static_cast<int64_t>(Seq1.size()) ||
      Next2 != static_cast<int64_t>(Seq2.size()))
    return false;
  Out.DPBytes = 0; // no DP state: the whole point of the warm path
  Out.UsedLinearSpace = false;
  return true;
}

} // namespace

MergeAttempt salssa::attemptMerge(Function &F1, Function &F2,
                                  const MergeCodeGenOptions &Options,
                                  TargetArch Arch, unsigned SizeF1,
                                  unsigned SizeF2, Module *StagingModule,
                                  const AttemptBudget *Budget,
                                  const FaultInjectionConfig *Faults,
                                  const AlignmentReplay *Replay,
                                  bool CaptureAlignment) {
  MergeAttempt Attempt;
  Attempt.F1 = &F1;
  Attempt.F2 = &F2;
  if (F1.getReturnType() != F2.getReturnType())
    return Attempt; // Stats.Outcome stays TypeMismatch

  // Fault point: a pair the aligner "blows up on". Thrown before any
  // work so no partial state exists; the caller's attempt guard converts
  // it into a skipped pair. Keyed by the pair's names — identical
  // decision on the speculative and the inline re-attempt path.
  if (Faults)
    maybeInjectFault(*Faults, FaultKind::AlignmentThrow, F1.getName(),
                     F2.getName());

  // Linearization + alignment (instrumented).
  auto T0 = std::chrono::steady_clock::now();
  std::vector<SeqItem> Seq1 = linearizeFunction(F1);
  std::vector<SeqItem> Seq2 = linearizeFunction(F2);
  Attempt.Stats.SeqLen1 = Seq1.size();
  Attempt.Stats.SeqLen2 = Seq2.size();

  // Budget gate, before the quadratic stage: the DP cell count and the
  // linear work bound are both known from the sequences alone. The
  // BudgetBlowout fault forces this reject path without any caps
  // configured.
  bool BudgetHit =
      Budget &&
      ((Budget->MaxAlignmentCells &&
        uint64_t(Seq1.size()) * uint64_t(Seq2.size()) >
            Budget->MaxAlignmentCells) ||
       (Budget->MaxAttemptSteps &&
        uint64_t(Seq1.size()) + uint64_t(Seq2.size()) >
            Budget->MaxAttemptSteps));
  if (!BudgetHit && Faults)
    BudgetHit = faultFires(*Faults, FaultKind::BudgetBlowout, F1.getName(),
                           F2.getName());
  if (BudgetHit) {
    Attempt.Stats.AlignmentSeconds = secondsSince(T0);
    Attempt.Stats.Outcome = AttemptOutcome::BudgetAlignment;
    return Attempt;
  }

  AlignmentResult Alignment;
  if (!(Replay && replayAlignment(*Replay, Seq1, Seq2, Alignment)))
    Alignment = alignSequences(Seq1, Seq2, itemsMatch, Options.Alignment);
  Attempt.Stats.AlignmentSeconds = secondsSince(T0);
  Attempt.Stats.MatchedPairs = Alignment.MatchedPairs;
  Attempt.Stats.AlignmentBytes = Alignment.DPBytes;
  if (CaptureAlignment) {
    Attempt.AlignEntries.reserve(Alignment.Entries.size());
    for (const AlignedEntry &E : Alignment.Entries)
      Attempt.AlignEntries.emplace_back(static_cast<int32_t>(E.Idx1),
                                        static_cast<int32_t>(E.Idx2));
  }

  // Code generation + clean-up (instrumented).
  auto T1 = std::chrono::steady_clock::now();
  Attempt.Gen = generateMergedFunction(F1, F2, Seq1, Seq2, Alignment,
                                       Options, F1.getName() + ".m",
                                       StagingModule);
  // Fault point: a "codegen bug" — the attempt itself succeeds, the body
  // is wrong. Only the always-on commit firewall stands between this and
  // the host module.
  if (Faults && faultFires(*Faults, FaultKind::CodeGenCorruption,
                           F1.getName(), F2.getName()))
    corruptMergedBody(*Attempt.Gen.Merged,
                      Attempt.Gen.Merged->getParent()->getContext());
  Attempt.Stats.CodeGenSeconds = secondsSince(T1);
  Attempt.Stats.SelectsInserted = Attempt.Gen.SelectsInserted;
  Attempt.Stats.LabelSelectionBlocks = Attempt.Gen.LabelSelectionBlocks;
  Attempt.Stats.XorFusions = Attempt.Gen.XorFusions;
  Attempt.Stats.RepairSlots = Attempt.Gen.RepairSlots;
  Attempt.Stats.CoalescedPairs = Attempt.Gen.CoalescedPairs;

  // Profitability: merged function + the two thunk bodies must undercut
  // the two original bodies.
  Attempt.Stats.SizeF1 = SizeF1;
  Attempt.Stats.SizeF2 = SizeF2;
  unsigned ThunkCost = 0;
  {
    // A thunk is a call + ret + argument shuffling, plus the function
    // overhead; estimate it from the signature without materializing it.
    unsigned PerThunk = (Arch == TargetArch::X86Like ? 12 : 8) /*overhead*/ +
                        (Arch == TargetArch::X86Like ? 5 : 4) /*call*/ +
                        (Arch == TargetArch::X86Like ? 1 : 2) /*ret*/;
    PerThunk += 2 * static_cast<unsigned>(
                        Attempt.Gen.Signature.FnTy->getParamTypes().size());
    ThunkCost = 2 * PerThunk;
  }
  Attempt.Stats.SizeMerged =
      estimateFunctionSize(*Attempt.Gen.Merged, Arch) + ThunkCost;

  // Budget gate, post-codegen: discard oversized bodies before the
  // profitability decision. The unique name was already burned (codegen
  // ran) — AttemptOutcome::BudgetBody records that for the shard
  // splicer's name replay.
  if (Budget && Budget->MaxMergedBodySize &&
      uint64_t(Attempt.Stats.SizeMerged) > Budget->MaxMergedBodySize) {
    Module *M = Attempt.Gen.Merged->getParent();
    M->eraseFunction(Attempt.Gen.Merged);
    Attempt.Gen.Merged = nullptr;
    Attempt.Stats.Outcome = AttemptOutcome::BudgetBody;
    return Attempt; // Valid stays false: no merged function exists
  }

  Attempt.Stats.Profitable = Attempt.profit() > 0;
  Attempt.Stats.Outcome = AttemptOutcome::Completed;
  Attempt.Valid = true;
  return Attempt;
}

namespace {

/// Builds one thunk body: F(args...) { return Merged(fid, mapped args); }
void buildThunkBody(Function &F, Function &Merged, bool IsF1,
                    const MergedSignature &Sig, Context &Ctx) {
  F.clearBody();
  BasicBlock *Entry = F.createBlock("entry");
  IRBuilder B(Ctx, Entry);

  const std::vector<Type *> &Params = Merged.getFunctionType()->getParamTypes();
  std::vector<Value *> Args(Params.size(), nullptr);
  Args[0] = IsF1 ? Ctx.getTrue() : Ctx.getFalse();
  const std::vector<unsigned> &Map = IsF1 ? Sig.ArgIndex1 : Sig.ArgIndex2;
  for (unsigned I = 0; I < Map.size(); ++I)
    Args[Map[I]] = F.getArg(I);
  for (unsigned S = 1; S < Args.size(); ++S)
    if (!Args[S])
      Args[S] = Ctx.getUndef(Params[S]);

  CallInst *Call = B.createCall(&Merged, Args);
  if (F.getReturnType()->isVoid())
    B.createRetVoid();
  else
    B.createRet(Call);
}

} // namespace

void salssa::adoptMergedFunction(MergeAttempt &Attempt, Module &Dst,
                                 const std::string &Name) {
  assert(Attempt.Valid && Attempt.Gen.Merged && "adopting an invalid attempt");
  Function *Merged = Attempt.Gen.Merged;
  Module *Src = Merged->getParent();
  if (Src == &Dst && Merged->getName() == Name)
    return;
  Attempt.Gen.Merged = Dst.adoptFunction(Src->takeFunction(Merged), Name);
}

void salssa::commitMerge(MergeAttempt &Attempt, Context &Ctx) {
  assert(Attempt.Valid && "committing an invalid attempt");
  // The merged function may live in a different module than the inputs
  // (cross-module commits thunk into the host module); it must only
  // have left any per-task staging module by now (structural check
  // via Module::isStaging).
  assert(Attempt.Gen.Merged->getParent() != nullptr &&
         !Attempt.Gen.Merged->getParent()->isStaging() &&
         "staged attempt committed without adoptMergedFunction");
  buildThunkBody(*Attempt.F1, *Attempt.Gen.Merged, /*IsF1=*/true,
                 Attempt.Gen.Signature, Ctx);
  buildThunkBody(*Attempt.F2, *Attempt.Gen.Merged, /*IsF1=*/false,
                 Attempt.Gen.Signature, Ctx);
}

void salssa::discardMerge(MergeAttempt &Attempt) {
  if (!Attempt.Valid || !Attempt.Gen.Merged)
    return;
  Module *M = Attempt.Gen.Merged->getParent();
  M->eraseFunction(Attempt.Gen.Merged);
  Attempt.Gen.Merged = nullptr;
  Attempt.Valid = false;
}
