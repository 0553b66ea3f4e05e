//===- merge/MergeDriver.h - Module-level function merging pass ---------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The module-level pass (the "FM" box of Fig 16): ranks candidate pairs
/// with fingerprints, attempts up to t merges per function, commits the
/// most profitable one, and feeds merged functions back into the pool.
///
/// For FMSA the driver reproduces the paper's pipeline faithfully:
/// register demotion is applied to *every* function up front (merged or
/// not — the source of "FMSA Residue", Fig 18), alignment operates on the
/// inflated bodies, and a final promotion/simplification round models the
/// late clean-up passes that mostly undo the residue.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_MERGE_MERGEDRIVER_H
#define SALSSA_MERGE_MERGEDRIVER_H

#include "merge/FunctionMerger.h"
#include "support/FaultInjection.h"
#include <string>
#include <vector>

namespace salssa {

class Module;

/// Pass configuration. A mirror of this struct — one row per knob with
/// default, units and interactions — lives in src/merge/README.md
/// ("Options reference"); keep the two in step.
struct MergeDriverOptions {
  /// Which merging algorithm runs: SalSSA (the paper's SSA-form
  /// technique, the default) or FMSA (the exchange-format baseline it
  /// improves on, kept for the comparison figures). Most post-paper
  /// machinery (pipeline stages, cross-module sessions, MergeService)
  /// requires SalSSA.
  MergeTechnique Technique = MergeTechnique::SalSSA;
  /// The exploration threshold t of §5.1: how many top-ranked
  /// candidates are *attempted* per pool entry before the best
  /// profitable one commits (paper evaluates 1, 5, 10). Default 1.
  /// Unit: candidates per entry. Larger t finds more merges at
  /// linearly more attempt work; under SelectionStrategy::Adaptive the
  /// effective t floats per merge-compatibility class and this value
  /// is only its starting point.
  unsigned ExplorationThreshold = 1;
  /// Coalesce phi-webs in merged output (§4.3). Default true; false is
  /// the paper's SalSSA-NoPC ablation (Fig 20) — more copies, bigger
  /// merged bodies, same semantics. Ignored for FMSA.
  bool EnablePhiCoalescing = true;
  /// Target whose size model (codesize/SizeModel.h) drives
  /// profitability. Default X86Like. Changing it changes which merges
  /// are deemed profitable, hence the whole commit sequence — it is
  /// part of the DecisionCache options fingerprint for that reason.
  TargetArch Arch = TargetArch::X86Like;
  /// Allow merged functions to re-enter the pool and be merged again
  /// (as in the paper). Default true; false caps every function at one
  /// merge generation.
  bool AllowRemerge = true;
  /// Candidate *selection* policy layered on top of the CandidateIndex
  /// ranking (see SelectionStrategy, MergeOptions.h). Distance (the default) keeps
  /// the paper's scheme and is bit-identical to the pre-selection-layer
  /// driver; Profit re-ranks a widened slate by estimated profit with
  /// same-module tie-breaking; Adaptive additionally drives the
  /// exploration threshold from observed selection outcomes. All three
  /// honor the determinism contract: same merges/records/bytes at every
  /// thread count (selection state only ever advances at the serial
  /// commit stage).
  SelectionStrategy Selection = SelectionStrategy::Distance;
  /// Worker threads for the attempt stage (see MergePipeline). 1 (the
  /// default) runs the legacy serial driver bit-identically; 0 resolves
  /// to the hardware concurrency. Any value produces identical merges,
  /// records and final modules — threads only change wall-clock time.
  unsigned NumThreads = 1;
  /// The cap on concurrently running class pipelines, with one meaning
  /// in CrossModuleMerger, MergeService and the daemon. Every session
  /// runs one pipeline per merge-compatibility class (per-return-type
  /// partition — provably independent, since cross-type pairs rank at
  /// +inf; runClassPipelines, MergePipeline.h), heaviest class first, and
  /// splices the results back serially in the exact record order and
  /// name allocation of one whole-pool pipeline. W = min(ShardCount,
  /// classes) pipelines run at a time, each with max(1, threads / W)
  /// attempt-stage threads:
  ///   1 (default)  one class after another, each with every thread;
  ///   0            the resolved NumThreads takes ShardCount's place.
  /// A lone giant class therefore still speculates. The
  /// result is bit-identical at every ShardCount x thread count in
  /// *every* selection mode (sharded_session_test pins it): the
  /// profit-guided modes calibrate their ProfitModel — and drive the
  /// adaptive threshold — within one class, and cross-class pairs never
  /// rank, so classes never exchange observations. This is also what
  /// lets one DecisionCachePath warm sessions at any ShardCount.
  unsigned ShardCount = 1;
  /// Host-module selection for whole-program sessions when the caller
  /// does not pick one explicitly (see HostPolicy, MergeOptions.h, and
  /// selectHostModule): First (default) takes the first registered
  /// module, Biggest the largest estimateModuleSize under Arch's size
  /// model, Hottest the most call sites into its definitions across the
  /// registered set (counted after symbol resolution); ties go to the
  /// earlier-registered module. MergeService re-runs the election after
  /// every delta, as a cold run over the new pool would; under First it
  /// can never move.
  HostPolicy Host = HostPolicy::First;
  /// Per-attempt resource caps (see AttemptBudget, MergeOptions.h). All
  /// caps default to 0 = unlimited: the zero-budget path is bit-identical
  /// to the uncapped driver. Capped-out attempts become budget-rejected
  /// records (Stats.BudgetRejects) and the session continues.
  AttemptBudget Budget;
  /// Degradation ladder: a pool entry whose attempts fail (fault, budget
  /// reject, or verifier reject) this many times is quarantined —
  /// retired from the candidate pool/index without being merged, counted
  /// in Stats.QuarantinedFunctions — so a function that poisons every
  /// attempt cannot keep burning attempt time for the rest of the
  /// session. Both sides of a failed attempt accrue a strike. 0 disables
  /// quarantine. The default of 3 is invisible on healthy runs: an
  /// attempt on a fault-free, budget-free session never fails.
  unsigned QuarantineThreshold = 3;
  /// Deterministic fault injection (tests/soaks only; see
  /// support/FaultInjection.h). Disarmed by default; when disarmed here,
  /// a session falls back to the SALSSA_FAULTS environment spec, so a
  /// stock binary can be soaked without a rebuild.
  FaultInjectionConfig Faults;
  /// Exact structural-hash pre-clustering (merge/StructuralHash.h), the
  /// first stage of each class pipeline: before pairwise ranking runs,
  /// hash-identical function groups are committed as one merged body +
  /// direct thunks, with zero CandidateIndex queries and zero alignment
  /// work. Off by default —
  /// the default pipeline stays bit-identical to the pre-fast-path
  /// driver. With clustering on, final reduction can only improve
  /// (cluster bodies skip fid-dispatch overhead) and the clustered
  /// session remains deterministic at every thread and shard count.
  bool HashClustering = false;
  /// Canonical shadow view for candidate discovery
  /// (transforms/Canonicalize.h): fingerprints and structural hashes are
  /// computed from a normalized scratch clone (commutative ordering,
  /// reassociation, value numbering, dead-store/dead-code sweep) instead
  /// of the raw body, so semantically-equal-but-syntactically-divergent
  /// functions rank close and merge. Original bodies are never touched —
  /// codegen, thunks and behaviour are unaffected; only *which* pairs
  /// are discovered changes. Off by default: the raw pipeline stays
  /// bit-identical to the pre-canonicalization driver. Folded into the
  /// DecisionCache options fingerprint (canonical and raw hashes name
  /// different key spaces, so a stale cache self-invalidates). Note:
  /// HashClustering's exact-identity pre-pass deliberately keeps hashing
  /// raw bodies — clustering commits one body for the whole group, which
  /// is only sound for *identical* functions, not canonical-equal ones.
  bool Canonicalize = false;
  /// Path of the persistent cross-run decision cache
  /// (merge/DecisionCache.h). Empty (default) disables the cache; the
  /// first run over a pool writes decisions, subsequent runs replay
  /// them — skipping ranking and alignment for unchanged entries — and
  /// re-record anything that no longer resolves. Invalid/corrupt files
  /// self-invalidate (Stats.CacheLoadRejected) and the run proceeds
  /// cold. A session's class pipelines share this one cache, which the
  /// class runner alone loads and saves (serial-commit-stage recordings
  /// only). Interactions: the cache key embeds an options fingerprint
  /// (Arch, Selection, Canonicalize, ... — see DecisionCache.h), so
  /// flipping Canonicalize or the size-model target self-invalidates
  /// stale entries rather than replaying wrong decisions; MergeService
  /// honours the cache on full session builds only, never on
  /// incremental deltas. Under armed fault injection a replayed winner
  /// runs the fault points, budget gate, firewall and quarantine ladder
  /// like a live attempt, but skipped non-winners consult no fault
  /// point, so a warm run under faults is still not a cold run under
  /// faults.
  std::string DecisionCachePath;
};

/// One committed/attempted merge record (drives Fig 19/21/22/23).
struct MergeRecord {
  std::string Name1;
  std::string Name2;
  MergeAttemptStats Stats;
  bool Committed = false;
};

/// Aggregate results of one pass execution.
///
/// Threading semantics of the timing fields: AlignmentSeconds and
/// CodeGenSeconds are *CPU* seconds, accumulated per speculative task
/// (each task owns its accumulator; the pipeline sums them in task
/// creation order once the attempt stream drains, plus the commit
/// thread's inline attempts). With NumThreads == 1 they degenerate to
/// the historical serial accounting; with threads they can legitimately
/// exceed TotalSeconds (overlapping workers) and include speculative
/// work later discarded at commit. Summing raw wall-clock intervals from
/// one global clock would instead double-count overlapped work — that is
/// the accounting bug this scheme replaces. RankingSeconds stays a
/// commit-thread wall time (ranking is serial by design; in parallel
/// runs it includes both the look-ahead ranking and the commit-time
/// re-validation). TotalSeconds is whole-pass wall time.
struct MergeDriverStats {
  unsigned Attempts = 0;         ///< serial-order attempts (see Records)
  unsigned ProfitableMerges = 0; ///< the Fig 21 metric
  unsigned CommittedMerges = 0;
  /// Committed merges whose inputs lived in different modules. Always 0
  /// for single-module runs; cross-module sessions (CrossModuleMerger)
  /// use it to report how much of the win the module boundary was hiding.
  unsigned CrossModuleMerges = 0;
  double AlignmentSeconds = 0; ///< CPU s, per-worker accumulators summed
  double CodeGenSeconds = 0;   ///< CPU s, per-worker accumulators summed
  double RankingSeconds = 0;   ///< pairing phase only (candidate ranking)
  double TotalSeconds = 0;     ///< whole-pass wall time (Fig 24 numerator)
  size_t PeakAlignmentBytes = 0; ///< Fig 22 metric
  /// One record per serial-order attempt, identical across every
  /// NumThreads value (speculative attempts discarded at commit are
  /// intentionally not recorded — they have no serial counterpart).
  std::vector<MergeRecord> Records;

  // Pipeline instrumentation: only ever non-zero when the attempt stream
  // (NumThreads > 1) ran. The first three depend on scheduling — on
  // which tasks a worker started before the commit thread reached their
  // entry — so they vary from run to run; CommitConflicts, like the
  // pairing-work counters below, depends only on the pool and the thread
  // count.
  /// Attempts executed by workers: live look-ahead attempts, and on a
  /// warm run the replayed winners workers built from recorded
  /// alignments.
  unsigned SpeculativeAttempts = 0;
  unsigned SpeculativeDiscarded = 0; ///< worker attempts no commit took
  /// Attempts the commit stage ran inline for an entry that did have
  /// finished worker attempts: candidates the look-ahead missed, and
  /// candidates whose task no worker had started by the entry's turn.
  unsigned InlineReattempts = 0;
  /// Entries ranked ahead of their turn whose latest look-ahead ranking
  /// differed from the commit-time one (a remerge entered the slate).
  unsigned CommitConflicts = 0;

  // Failure containment (the attempt guard / commit firewall /
  // quarantine ladder; see "Failure containment & fault injection" in
  // src/merge/README.md). The first four are authoritative and counted
  // only at the serial commit stage, in record order — identical at
  // every thread and shard count, like Records:
  unsigned AttemptFailures = 0; ///< attempts aborted by an exception
  unsigned BudgetRejects = 0;   ///< attempts rejected by AttemptBudget caps
  unsigned VerifierRejects = 0; ///< would-be winners the firewall rolled back
  unsigned QuarantinedFunctions = 0; ///< pool entries retired by the ladder
  // The two below are parallel-only wastage counters (0 in serial runs,
  // and scheduling-dependent like SpeculativeAttempts — speculative
  // failures are re-observed and re-counted authoritatively when the
  // commit stage re-runs the pair):
  unsigned SpeculativeFailures = 0; ///< worker-side attempt guard catches
  unsigned TaskFailures = 0; ///< worker tasks recovered (per-task guard)

  // Selection instrumentation (SelectionStrategy::Adaptive; for the
  // other modes both fields echo Options.ExplorationThreshold). The
  // adaptive t evolves only at the serial commit stage, so these are
  // identical at every thread count.
  unsigned AdaptiveThresholdMax = 0;   ///< peak exploration threshold
  unsigned AdaptiveThresholdFinal = 0; ///< threshold after the last entry

  // Class structure of the session (runClassPipelines). ShardCount is
  // the number of live merge-compatibility classes, in both sessions.
  // ShardImbalance is how far the heaviest class keeps a cold run over
  // W = min(ShardCount option, classes) workers from an even split, under
  // the alignment-cost proxy (Σ size² per class): max(1, heaviest × W /
  // total), 1.0 = no class dominates, 0 for an empty pool — the number to
  // watch when wall-clock stops tracking 1/W.
  unsigned ShardCount = 1;
  double ShardImbalance = 1.0;

  // CandidateIndex pairing-work counters. Deterministic — unlike
  // RankingSeconds — so regression guards can compare pairing *work*
  // across selection modes without wall-clock noise: the
  // bounded-extension contract is precisely that profit-guided slates do
  // not widen the walk (bench_selection enforces the ratio).
  uint64_t PairingDistanceCalls = 0; ///< exact distance evaluations
  uint64_t PairingProbes = 0; ///< LSH seed probes + size-bucket steps

  // Structural-hash fast path + decision cache (both 0 unless the
  // corresponding MergeDriverOptions knob is on). All counted serially
  // within a class (cluster stage / serial commit stage), so they are
  // identical at every thread and shard count.
  uint64_t HashClusterCommits = 0; ///< identical-function groups committed
  uint64_t CacheHits = 0;   ///< pool entries replayed from the cache
  uint64_t CacheMisses = 0; ///< cache-enabled entries that ran live
  uint64_t CacheSkips = 0;  ///< cached non-winner attempts skipped outright
  uint64_t CacheLoadRejected = 0; ///< cache files refused at load
  uint64_t FingerprintFaults = 0; ///< functions skipped by Fingerprint faults
};

/// Runs function merging over \p M, mutating it in place.
MergeDriverStats runFunctionMerging(Module &M,
                                    const MergeDriverOptions &Options);

/// Runs only FMSA's preprocessing over \p M without merging anything —
/// the "FMSA Residue" series of Fig 18.
void runFMSAResidueOnly(Module &M);

} // namespace salssa

#endif // SALSSA_MERGE_MERGEDRIVER_H
