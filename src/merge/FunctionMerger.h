//===- merge/FunctionMerger.h - Pairwise merge pipeline ------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end pairwise pipeline of Fig 1: linearization, alignment,
/// code generation, clean-up, and the profitability decision, with
/// instrumentation for the time/memory experiments. Also provides thunk
/// creation for committing a merge (the original functions' bodies are
/// replaced with tail-call dispatchers into the merged function).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_MERGE_FUNCTIONMERGER_H
#define SALSSA_MERGE_FUNCTIONMERGER_H

#include "codesize/SizeModel.h"
#include "merge/Fingerprint.h"
#include "merge/MergedFunctionGenerator.h"
#include "support/FaultInjection.h"
#include <cstdint>
#include <utility>
#include <vector>

namespace salssa {

/// Result of one pairwise merge attempt. When Valid, the merged function
/// exists in the module (uncommitted — call commitMerge or discardMerge).
struct MergeAttempt {
  bool Valid = false;
  GeneratedMerge Gen;
  MergeAttemptStats Stats;
  Function *F1 = nullptr;
  Function *F2 = nullptr;

  /// The full alignment as (Idx1, Idx2) entries with -1 gaps, captured
  /// when attemptMerge ran with CaptureAlignment (the decision cache
  /// records it for the committed winner so a warm run can regenerate
  /// the identical body with zero aligner work). Empty otherwise.
  std::vector<std::pair<int32_t, int32_t>> AlignEntries;

  /// Estimated profit in bytes (positive = smaller after merging).
  int profit() const {
    return static_cast<int>(Stats.SizeF1) + static_cast<int>(Stats.SizeF2) -
           static_cast<int>(Stats.SizeMerged);
  }
};

/// A recorded alignment offered back to attemptMerge by the warm
/// decision cache. Validated entry by entry against the pair's current
/// linearization (lengths, full coverage in order, every match passing
/// itemsMatch); any mismatch silently falls back to the live aligner,
/// so a stale or corrupt payload can cost speed but never correctness.
struct AlignmentReplay {
  uint32_t SeqLen1 = 0; ///< recorded linearized length of F1
  uint32_t SeqLen2 = 0; ///< recorded linearized length of F2
  const std::vector<std::pair<int32_t, int32_t>> *Entries = nullptr;
};

/// A cheap, calibrated estimator of merge profit from fingerprints alone
/// — no linearization, no alignment, no code generation. The driver's
/// profit-guided selection modes (SelectionStrategy::Profit/Adaptive)
/// use it to re-rank a widened distance slate before spending alignment
/// time, so the estimate must cost O(1) given a precomputed distance.
///
/// Model: the opcode-histogram overlap |A ∩ B| = (|A| + |B| − D) / 2
/// (D = Manhattan distance) upper-bounds how many instruction slots the
/// aligner can share — but only an *ordered* alignment realizes them,
/// and histogram intersection is blind to order. The expected aligned
/// fraction is discounted by the pair's similarity ratio
/// sim = 2·overlap / (|A| + |B|) ∈ [0, 1]: near-clones (sim → 1) realize
/// almost all of their overlap, structurally different pairs almost none
/// (this quadratic-in-sim shape is what stops the estimate from chasing
/// big far-away partners whose raw overlap is large). Each expected
/// aligned slot is worth ~BytesPerOverlap of the size model's lowered
/// bytes, every mismatched slot (D of them) costs a fraction of a
/// select/dispatch (BytesPerMismatch), and a committed merge pays a
/// fixed toll (OverheadBytes: two thunks + the fid parameter plumbing):
///
///   estimate = BytesPerOverlap·overlap·sim
///            − BytesPerMismatch·D − OverheadBytes
///
/// The estimate is monotone: it strictly increases in overlap (at fixed
/// |A|+|B|) and strictly decreases in distance (selection_test.cpp pins
/// both).
///
/// BytesPerOverlap is *calibrated online* against FunctionMerger attempt
/// stats: every executed attempt reveals its actual profit()
/// (SizeF1 + SizeF2 − SizeMerged), and observe() folds the implied
/// bytes-per-overlap into an EMA, clamped to a sane range so degenerate
/// attempts cannot capsize the model. Calibration happens only at the
/// serial commit stage, in record order — records are identical at every
/// thread count, so the model (and everything ranked with it) is too.
struct ProfitModel {
  double BytesPerOverlap = 3.5;  ///< EMA-calibrated (seeded per arch)
  double BytesPerMismatch = 0.5; ///< select/dispatch toll per unmatched op
  double OverheadBytes = 48.0;   ///< thunks + fid plumbing per commit

  /// EMA smoothing and clamp bounds for the online calibration.
  static constexpr double Alpha = 0.125;
  static constexpr double MinBytesPerOverlap = 0.25;
  static constexpr double MaxBytesPerOverlap = 12.0;

  /// Seeds the constants from the target's size model (average lowered
  /// instruction bytes, thunk overhead for a small signature).
  static ProfitModel forArch(TargetArch Arch);

  /// Opcode-histogram intersection size: the number of instruction slots
  /// both functions can cover with the same opcode, (|A|+|B|−D)/2.
  static uint64_t overlap(const Fingerprint &A, const Fingerprint &B,
                          uint64_t Distance) {
    uint64_t Total = uint64_t(A.Size) + uint64_t(B.Size);
    return Distance >= Total ? 0 : (Total - Distance) / 2;
  }

  /// Expected aligned slots: the histogram overlap discounted by the
  /// similarity ratio (see the model note above).
  static double expectedAligned(const Fingerprint &A, const Fingerprint &B,
                                uint64_t Distance) {
    uint64_t Total = uint64_t(A.Size) + uint64_t(B.Size);
    if (Total == 0)
      return 0;
    double Ov = double(overlap(A, B, Distance));
    return Ov * (2.0 * Ov / double(Total));
  }

  /// Estimated commit profit in size-model bytes (positive = shrink).
  int64_t estimate(const Fingerprint &A, const Fingerprint &B,
                   uint64_t Distance) const {
    return static_cast<int64_t>(BytesPerOverlap *
                                    expectedAligned(A, B, Distance) -
                                BytesPerMismatch * double(Distance) -
                                OverheadBytes);
  }

  /// Folds one executed attempt into the calibration: \p Overlap and
  /// \p Distance as passed to estimate(), \p ActualProfit from
  /// MergeAttempt::profit(). No-op for zero overlap.
  void observe(uint64_t Overlap, uint64_t Distance, int ActualProfit);
};

/// Runs the full pipeline on \p F1 and \p F2 (which must share a return
/// type). \p SizeF1 / \p SizeF2 are the pre-pipeline sizes used by the
/// profitability model (for FMSA: sizes before register demotion).
/// The inputs are not modified.
///
/// When \p StagingModule is non-null the speculative merged function is
/// built there instead of F1's module. This is what makes the attempt
/// re-entrant across threads: the inputs' module is only read, and each
/// speculative task owns its own staging module (see MergePipeline). A
/// staged winner is moved into the real module with adoptMergedFunction
/// before committing.
///
/// \p Budget, when non-null, bounds the attempt's resources (see
/// AttemptBudget): a capped-out attempt returns Valid == false with
/// Stats.Outcome reporting which stage rejected, never a partial merged
/// function. \p Faults, when non-null and armed, arms the deterministic
/// fault points (support/FaultInjection.h): AlignmentThrow escapes as an
/// InjectedFault exception — callers sit behind an attempt guard —
/// CodeGenCorruption deterministically corrupts the merged body for the
/// commit firewall to catch, and BudgetBlowout forces the
/// budget-rejected path. Null for both (the default, and the only mode
/// direct callers outside the driver use) is the plain uncapped attempt.
///
/// \p Replay, when non-null, offers a cached alignment (see
/// AlignmentReplay): if it validates against the pair's current
/// linearization the Needleman-Wunsch stage is skipped entirely
/// (Stats.AlignmentBytes reports 0); otherwise the live aligner runs as
/// usual. \p CaptureAlignment makes the attempt fill
/// MergeAttempt::AlignEntries for the decision cache to record.
MergeAttempt attemptMerge(Function &F1, Function &F2,
                          const MergeCodeGenOptions &Options,
                          TargetArch Arch, unsigned SizeF1, unsigned SizeF2,
                          Module *StagingModule = nullptr,
                          const AttemptBudget *Budget = nullptr,
                          const FaultInjectionConfig *Faults = nullptr,
                          const AlignmentReplay *Replay = nullptr,
                          bool CaptureAlignment = false);

/// Moves \p Attempt's merged function out of its staging module into
/// \p Dst under \p Name (which must be unique in \p Dst). No-op when the
/// function already lives in \p Dst under that name.
void adoptMergedFunction(MergeAttempt &Attempt, Module &Dst,
                         const std::string &Name);

/// Replaces the bodies of both input functions with thunks into
/// \p Attempt's merged function. The merged function must have left any
/// staging module (adoptMergedFunction for staged attempts) but may live
/// in a different module than the inputs: cross-module commits thunk
/// into the host module, and calls dispatch by Function pointer, not by
/// per-module symbol tables.
void commitMerge(MergeAttempt &Attempt, Context &Ctx);

/// Deletes the merged function of a rejected attempt (from whichever
/// module — staging or real — currently owns it).
void discardMerge(MergeAttempt &Attempt);

} // namespace salssa

#endif // SALSSA_MERGE_FUNCTIONMERGER_H
