//===- merge/MergeOptions.h - Merge configuration and statistics --------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration knobs and statistics shared by the FMSA baseline and
/// SalSSA. The knobs correspond to the design choices the paper ablates:
/// phi-node coalescing (§4.4 / Fig 20), commutative operand reordering
/// (Fig 9) and the xor branch fusion (Fig 11).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_MERGE_MERGEOPTIONS_H
#define SALSSA_MERGE_MERGEOPTIONS_H

#include "align/NeedlemanWunsch.h"
#include <cstddef>
#include <cstdint>
#include <string>

namespace salssa {

/// Which merging technique a pipeline run uses.
enum class MergeTechnique : uint8_t {
  FMSA,   ///< state of the art: register demotion + alignment (CGO'19)
  SalSSA, ///< this paper: direct SSA-form merging
};

/// How the driver selects which of a function's nearest candidates to
/// attempt (MergeDriverOptions::Selection). Fingerprint distance is only
/// a proxy for the real objective — code-size profit — so the non-paper
/// modes re-rank a widened distance slate by a cheap calibrated profit
/// estimate (ProfitModel, FunctionMerger.h) before spending alignment
/// time on the top-t.
enum class SelectionStrategy : uint8_t {
  /// The paper's scheme verbatim: top-t by (Manhattan distance, pool
  /// position). Bit-identical to the pre-selection-layer driver.
  Distance,
  /// Query a widened distance slate, annotate each hit with a ProfitModel
  /// estimate, re-rank by (estimated profit, same-module preference,
  /// distance, pool position), keep the top-t. Deterministic at every
  /// thread count (the model calibrates only from serial-order records).
  Profit,
  /// Profit ranking plus an exploration threshold t driven per round of
  /// eight voting entries from observed selection outcomes (deep wins
  /// widen t, top-1 wins and dry entries shrink it, bounded in
  /// [t, t+4]). Votes are tallied only at the serial commit stage, so the
  /// threshold trajectory — and every outcome — is identical at every
  /// thread count.
  Adaptive,
};

/// How a whole-program session picks the *host* module — the one module
/// every merged function materializes in (CrossModuleMerger,
/// MergeService). An explicit setHostModule always wins over the policy.
enum class HostPolicy : uint8_t {
  /// The first registered module (the legacy behaviour).
  First,
  /// The module with the largest estimated size (SizeModel under the
  /// session's TargetArch). Rationale: the biggest module contributes the
  /// most pool entries, so hosting there maximizes intra-module commits
  /// (no cross-module operand references, cheaper link layouts). Ties go
  /// to the earlier-registered module.
  Biggest,
  /// The module whose *definitions* receive the most call sites across
  /// the whole registered set (a static hotness proxy: no profile data is
  /// modelled, so call-site in-degree stands in for call frequency).
  /// Merged bodies land next to the callers that reach them most often.
  /// Ties go to the earlier-registered module.
  Hottest,
};

/// Code-generator options.
struct MergeCodeGenOptions {
  /// §4.4: coalesce disjoint definitions into one slot before SSA
  /// reconstruction (SalSSA-NoPC disables this; FMSA never has it).
  bool EnablePhiCoalescing = true;
  /// Fig 9: reorder commutative operands to avoid selects.
  bool EnableOperandReordering = true;
  /// Fig 11: merge crossed conditional branches with one xor instead of
  /// two label-selection blocks.
  bool EnableXorBranchFusion = true;
  /// DP variant for the alignment stage. Auto keeps the paper's full
  /// traceback matrix for normal pairs and switches to the linear-space
  /// variant past FullMatrixCellLimit cells (giant pairs).
  AlignMode Alignment = AlignMode::Auto;

  static MergeCodeGenOptions forTechnique(MergeTechnique T,
                                          bool PhiCoalescing = true) {
    MergeCodeGenOptions O;
    if (T == MergeTechnique::FMSA) {
      O.EnablePhiCoalescing = false; // the paper's novel optimization
      O.EnableXorBranchFusion = false;
    } else {
      O.EnablePhiCoalescing = PhiCoalescing;
    }
    return O;
  }
};

/// How far one pairwise merge attempt got. Recorded on
/// MergeAttemptStats (hence on every MergeRecord), and — because shard
/// splicing replays name allocation from records — also the authority on
/// whether an attempt burned a unique merged-function name: codegen runs
/// for Completed and BudgetBody attempts only.
enum class AttemptOutcome : uint8_t {
  /// The full pipeline ran: the merged function was generated and priced
  /// (it may still be unprofitable, or rejected later by the commit
  /// firewall).
  Completed = 0,
  /// Nothing ran: the pair's return types cannot merge.
  TypeMismatch,
  /// Rejected before code generation: the alignment cell/step budget was
  /// exceeded (or a BudgetBlowout fault fired).
  BudgetAlignment,
  /// Rejected after code generation: the merged body blew the size cap.
  /// The body was discarded, but its unique name was already burned.
  BudgetBody,
  /// The attempt aborted with an exception (real or injected) and was
  /// converted into a skipped pair by the attempt guard.
  Faulted,
  /// Nothing ran: the warm decision cache (merge/DecisionCache.h)
  /// recorded this attempt as a non-winner, so the whole pipeline was
  /// skipped. The unique merged-function name a cold run would have
  /// burned is burned anyway — replay must keep the name counter in
  /// lockstep with the cold run for byte-identical modules.
  CacheSkipped,
};

/// True when an attempt with this outcome consumed one unique
/// merged-function name (i.e. its code generation stage ran — or, for
/// CacheSkipped, was replayed as if it had).
inline bool attemptBurnedName(AttemptOutcome O) {
  return O == AttemptOutcome::Completed || O == AttemptOutcome::BudgetBody ||
         O == AttemptOutcome::CacheSkipped;
}

/// Per-attempt resource caps, enforced inside attemptMerge. Every cap
/// defaults to 0 = unlimited, which keeps the zero-fault/zero-budget
/// configuration bit-identical to the uncapped pipeline. A capped-out
/// attempt is not an error: it reports AttemptOutcome::BudgetAlignment /
/// BudgetBody and the driver counts it in MergeDriverStats::BudgetRejects
/// and moves on.
struct AttemptBudget {
  /// Cap on the alignment DP size, in cells (SeqLen1 x SeqLen2). The
  /// first line of defence against a giant pair blowing peak memory.
  uint64_t MaxAlignmentCells = 0;
  /// Cap on the *linear* work of one attempt (SeqLen1 + SeqLen2):
  /// linearization items, clone counts and repair work all scale with
  /// it.
  uint64_t MaxAttemptSteps = 0;
  /// Cap on the generated merged body, in size-model cost units
  /// (estimateFunctionSize + thunks). Bodies past the cap are discarded
  /// before the profitability decision.
  uint64_t MaxMergedBodySize = 0;

  bool any() const {
    return MaxAlignmentCells || MaxAttemptSteps || MaxMergedBodySize;
  }
};

/// Statistics of one pairwise merge attempt.
struct MergeAttemptStats {
  // Alignment.
  size_t SeqLen1 = 0;
  size_t SeqLen2 = 0;
  size_t MatchedPairs = 0;
  size_t AlignmentBytes = 0;   ///< DP footprint (Fig 22)
  double AlignmentSeconds = 0; ///< Fig 23
  // Code generation.
  double CodeGenSeconds = 0; ///< Fig 23 (includes repair + clean-up)
  unsigned SelectsInserted = 0;
  unsigned LabelSelectionBlocks = 0;
  unsigned XorFusions = 0;
  unsigned RepairSlots = 0;
  unsigned CoalescedPairs = 0;
  // Profitability.
  unsigned SizeF1 = 0;
  unsigned SizeF2 = 0;
  unsigned SizeMerged = 0; ///< merged fn + thunks, in cost-model units
  bool Profitable = false;
  // Containment.
  AttemptOutcome Outcome = AttemptOutcome::TypeMismatch; ///< how far it got
  /// Set at the serial commit stage when the would-be winner failed the
  /// always-on verifier firewall and was rolled back.
  bool VerifierRejected = false;
};

} // namespace salssa

#endif // SALSSA_MERGE_MERGEOPTIONS_H
