//===- merge/MergePipeline.h - Staged, shardable merge driver -----------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged module-level merge driver. What used to be one monolithic
/// loop in MergeDriver.cpp is split into three explicit stages:
///
///   rank    - candidate pool + CandidateIndex maintenance; produces the
///             top-t candidate list for one pool entry (cheap, serial);
///   attempt - linearization, alignment and speculative code generation
///             for one (entry, candidate) pair (the expensive part;
///             side-effect free with respect to the real module when
///             given a staging module, hence parallelizable);
///   commit  - profit selection, thunking, pool retire/insert (serial:
///             the only stage that mutates the real module and the pool).
///
/// With MergeDriverOptions::NumThreads == 1 the stages run inline per
/// pool entry, reproducing the legacy serial driver bit for bit (same
/// attempts, same records, same merged-function names, same module).
///
/// With NumThreads > 1 the pipeline runs *optimistic rounds* in the
/// spirit of "Optimistic Global Function Merger" (Lee et al.): the rank
/// stage snapshots the top-t lists for a window of live pool entries,
/// the attempt stage runs every snapshot attempt on a worker pool (each
/// worker building speculative functions in its own staging module), and
/// the serial commit stage walks the window in pool order re-validating
/// each entry's ranking against the *current* pool. A speculative
/// attempt is reused only when its candidate still appears in the
/// re-validated list — its inputs are then provably untouched — and any
/// candidate the snapshot missed (consumed inputs, fresh remerge
/// functions) is re-attempted inline. Commits therefore happen in
/// exactly the serial order with exactly the serial outcomes: every
/// thread count produces identical merges, records, names, and final
/// modules, and stale speculation only costs wasted worker time.
/// Unique-name allocation is replayed at commit time so that even the
/// name counters advance exactly as in the serial driver.
///
/// The pipeline is module-set-agnostic and always runs as one slice of a
/// session: CrossModuleMerger (one pipeline per shard) and MergeService
/// (one per dirty merge-compatibility class) construct it with a full
/// PipelineShardScope — the slice's pool filter, precomputed
/// fingerprints, a scratch module to materialize merged functions in,
/// and the journal spliceSlices() later replays into the real host.
/// Pool entries carry their module id, the CandidateIndex ranks all
/// modules' live candidates in one structure, and attempts pair
/// functions across module boundaries exactly like intra-module pairs,
/// with thunks committed in the inputs' own modules. The determinism
/// contract above holds for any module count at any thread count.
///
/// The profit-guided selection modes keep their calibration (ProfitModel
/// EMA) and adaptive exploration state *per merge-compatibility class*
/// (return type), which makes Profit/Adaptive outcomes invariant across
/// shard counts too — a class never sees another class's signal, no
/// matter how the session was partitioned. And when a PipelineShardScope
/// attaches a warm DecisionCache, the serial commit stage replays cached
/// entry decisions — skipping ranking and alignment while burning the
/// exact unique-name sequence of the cold run — with a per-entry
/// fallback to the live path (see merge/DecisionCache.h).
///
/// Failure containment (see "Failure containment & fault injection" in
/// src/merge/README.md): every attempt runs behind an attempt guard that
/// converts exceptions and blown AttemptBudget caps into skipped pairs;
/// an always-on commit firewall verifies each would-be winner with
/// ir/Verifier before it can replace Best, rolling rejects back and
/// falling through to the next candidate; and a quarantine ladder
/// retires functions whose attempts keep failing. None of it changes a
/// healthy run: with no armed faults and no caps the pipeline's output
/// is bit-identical to the pre-containment driver, and a faulted run
/// stays deterministic per (config, seed) at every thread/shard count
/// because fault decisions are keyed by function names, not by
/// scheduling (support/FaultInjection.h).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_MERGE_MERGEPIPELINE_H
#define SALSSA_MERGE_MERGEPIPELINE_H

#include "merge/CandidateIndex.h"
#include "merge/DecisionCache.h"
#include "merge/MergeDriver.h"
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

namespace salssa {

class Module;

/// Journal record of one commitEntry invocation, appended in serial pool
/// order (exactly one per pool entry, empty for entries that produced no
/// attempts). spliceSlices() replays these journals to splice per-slice
/// results back into the host module with the exact attempt order,
/// record order and unique-name sequence of one whole-pool run:
/// names are re-derived from the Function pointers at splice time (by
/// then every earlier merged function already carries its final host
/// name), so shard-local staging names never leak into the result.
struct PipelineEntryTrace {
  /// The pool entry's function (null for entries consumed before their
  /// turn — they emit nothing and burn nothing).
  Function *EntryFn = nullptr;
  /// One partner per record this entry emitted, in attempt order.
  std::vector<Function *> Partners;
  /// Offset of the committed attempt within Partners, -1 when the entry
  /// committed nothing.
  int32_t WinnerRecord = -1;
  /// The committed merged function (in the Materialize module), null
  /// when WinnerRecord is -1.
  Function *Merged = nullptr;
};

/// The slice of a session one pipeline runs over. The first four fields
/// are required; the rest are optional.
struct PipelineShardScope {
  /// Module that receives every generated merged function (a
  /// slice-local scratch host). The pipeline's *logical* host — remerge
  /// module ids, cross-module accounting, same-module tie-breaking — is
  /// the real host; only materialization (function creation,
  /// unique-name burning, adoption) happens here. Must not be one of the
  /// registered modules and must share their Context.
  Module *Materialize = nullptr;
  /// Exactly the functions that enter the candidate pool. The caller
  /// guarantees the set is merge-closed (no function outside it can ever
  /// rank against one inside — unions of per-return-type classes have
  /// this property; see CrossModuleMerger.h).
  const std::unordered_set<const Function *> *PoolFilter = nullptr;
  /// Fingerprints covering (at least) every function in PoolFilter,
  /// captured post FMSA demotion, pre merging. Pointees must outlive the
  /// pipeline.
  const std::unordered_map<const Function *, const Fingerprint *>
      *Fingerprints = nullptr;
  /// Receives one PipelineEntryTrace per pool entry in serial pool order.
  std::vector<PipelineEntryTrace> *Journal = nullptr;
  /// Read-only warm decision cache (merge/DecisionCache.h). When set,
  /// every pool entry gets a (StructuralHash, occurrence) key and the
  /// serial commit stage replays cached decisions instead of ranking —
  /// falling back to the live path per entry whenever a recorded partner
  /// no longer resolves.
  const DecisionCache *Cache = nullptr;
  /// When set, the serial commit stage records each *clean* live entry
  /// (every attempt completed, no verifier reject) as a pending cache
  /// update. The owning session applies and persists them after the run;
  /// pipelines never write the cache directly.
  std::vector<DecisionCacheUpdate> *CacheUpdates = nullptr;
  /// When set, every function the quarantine ladder retires during this
  /// run is appended (in the serial commit order the strikes landed).
  /// A long-lived session (merge/MergeService.h) uses this to move
  /// struck-out functions into its decay ledger so they can re-enter
  /// candidacy after QuarantineDecayEpochs.
  std::vector<Function *> *Quarantined = nullptr;
};

/// One independently run slice of a session's pool — a CrossModuleMerger
/// shard or a MergeService class — as the splice consumes it.
struct SpliceSlice {
  const std::vector<PipelineEntryTrace> *Journal = nullptr;
  const MergeDriverStats *Stats = nullptr;
};

/// Splices per-slice pipeline results into \p Host in the exact order one
/// pipeline over the whole pool would have produced them. \p Walk holds
/// the slice index of every original pool entry in global pool order
/// (size descending); remerge entries are appended to it as the replay
/// commits, exactly like the pipeline's own pool walk. Each step consumes
/// its slice's next journal entry; per-class processing is identical in
/// every slicing, so the interleaved streams reconstruct the whole-pool
/// record order. One unique name is burned in \p Host per record whose
/// attempt burned one, and each committed merged function — taken from
/// whichever module holds it, a scratch host or \p Host itself — is
/// re-adopted into \p Host under the name burned at its own record, so
/// the name sequence and function order are the serial allocator's.
/// Record names are re-derived from Function pointers at each step.
/// Appends the replayed records to \p Into.Records and folds every
/// slice's counters into \p Into (sums, and maxima for the peak fields).
void spliceSlices(Module &Host, const std::vector<SpliceSlice> &Slices,
                  std::vector<uint32_t> Walk, bool AllowRemerge,
                  MergeDriverStats &Into);

/// One run of the staged merge driver over one session slice. Constructed
/// with the pool's profitability baselines (captured before any
/// preprocessing), then driven once via run(). Aggregates into the
/// caller's MergeDriverStats; see MergeDriverStats for the threading
/// semantics of the timing fields.
class MergePipeline {
public:
  /// A run over the \p Scope slice of \p Modules. All modules must share
  /// one Context; \p Host (a member of \p Modules) is the module every
  /// merged function ends up in after the splice. \p BaselineSize must
  /// cover every pool function. Registration order is part of the
  /// determinism contract: it fixes pool order among equal-sized
  /// functions.
  MergePipeline(const std::vector<Module *> &Modules, Module &Host,
                const MergeDriverOptions &Options,
                const std::map<Function *, unsigned> &BaselineSize,
                MergeDriverStats &Stats, const PipelineShardScope &Scope);
  ~MergePipeline();

  MergePipeline(const MergePipeline &) = delete;
  MergePipeline &operator=(const MergePipeline &) = delete;

  /// Runs rank/attempt/commit to quiescence (every live pool entry
  /// processed, including remerge insertions).
  void run();

private:
  struct PoolEntry {
    Function *F = nullptr;
    Fingerprint FP;
    unsigned CostSize = 0;  ///< profitability baseline (pre-demotion size)
    uint32_t ModuleId = 0;  ///< index into Modules
    bool Consumed = false;
    /// True for merged functions re-offered to the pool. Their bodies
    /// carry fid-dispatch overhead (selects, label selection, phis) the
    /// ProfitModel's original-function calibration does not fit, so the
    /// profit-guided modes keep plain distance ordering for them.
    bool IsRemerge = false;
    /// Failed attempts this function took part in (either side of the
    /// pair). At Options.QuarantineThreshold strikes the entry is
    /// quarantined: retired from the pool/index unmerged, counted in
    /// Stats.QuarantinedFunctions. Only ever advanced at the serial
    /// commit stage, so the ladder is thread-count-deterministic.
    unsigned Failures = 0;
    /// Decision-cache address (assigned only when a cache or an update
    /// sink is attached): canonical body hash plus occurrence index
    /// among equal hashes in serial pool order (see DecisionCache.h).
    StructuralHash Hash;
    uint32_t HashOcc = 0;
  };

  /// Snapshot work unit for one pool entry in an optimistic round.
  struct AttemptTask {
    uint32_t PoolIdx = 0;
    std::vector<CandidateIndex::Hit> Hits; ///< snapshot top-t ranking
    std::vector<MergeAttempt> Attempts;    ///< parallel results, 1:1 with Hits
    /// False when the profit-guided modes predicted this entry's attempt
    /// would stale (its top candidate was already claimed by an earlier
    /// entry in the window): workers leave it alone and the commit stage
    /// runs it inline, exactly like the serial path.
    bool Speculate = true;
  };

  /// Per-worker accumulators, merged into Stats in worker order at join
  /// (satisfying determinism of the aggregation structure — no shared
  /// clock, no cross-thread increments).
  struct WorkerState {
    std::unique_ptr<Module> Staging; ///< owns this worker's speculative fns
    unsigned AttemptsRun = 0;
    unsigned FailuresRun = 0;     ///< attempt-guard catches on this worker
    unsigned TaskFailuresRun = 0; ///< whole tasks recovered on this worker
    double AlignmentSeconds = 0;
    double CodeGenSeconds = 0;
  };

  // --- rank stage -----------------------------------------------------------
  void buildPool();
  /// Top-t live candidates for pool entry \p I under the configured
  /// selection mode (instrumented into
  /// Stats.RankingSeconds). Under SelectionStrategy::Profit/Adaptive the
  /// distance slate is widened with the bounded extension, annotated
  /// with ProfitModel estimates and re-ranked by (bucketed profit,
  /// same-module, distance, id) before truncation to t. rank() itself
  /// never advances selection state (model EMA, adaptive t) — only the
  /// serial commit stage does — so parallel snapshot calls and the
  /// authoritative commit-stage re-rank share this one entry point.
  std::vector<CandidateIndex::Hit> rank(size_t I);
  /// The exploration threshold an entry of return-type class \p RetTy
  /// will use: the configured t, or the class's adaptively driven one
  /// under SelectionStrategy::Adaptive.
  unsigned effectiveThreshold(Type *RetTy) const;
  /// Re-orders \p Hits by (estimated profit desc, same-module-as-entry,
  /// distance asc, id asc) and truncates to \p T.
  void profitRerank(std::vector<CandidateIndex::Hit> &Hits,
                    uint32_t SelfModule, unsigned T) const;

  // --- commit stage ---------------------------------------------------------
  /// Processes pool entry \p I to completion: re-ranks against the
  /// current pool, reuses matching speculative attempts from \p Spec
  /// (null in the serial path), runs any missing attempt inline, commits
  /// the most profitable one. Exactly replays the serial driver's
  /// attempt order, record order and name allocation.
  void commitEntry(size_t I, AttemptTask *Spec);
  /// The commit tail shared by the live path and cache replay: thunks
  /// both inputs of \p Best (entry \p I, partner \p PartnerIdx), marks
  /// record \p BestRecord committed, retires both inputs, offers the
  /// merged function back to the pool and journals \p Trace with the
  /// winner at offset \p WinnerOffset of its partners.
  void commitWinner(size_t I, size_t PartnerIdx, MergeAttempt &Best,
                    size_t BestRecord, size_t WinnerOffset,
                    PipelineEntryTrace &Trace);
  /// Discards every speculative attempt of \p Spec not consumed yet.
  void discardRemaining(AttemptTask &Spec);
  /// Guarded attempt: attemptMerge behind the attempt guard. Every
  /// exception (injected or real) is converted into an invalid attempt
  /// with AttemptOutcome::Faulted — the session never dies on one pair.
  /// \p Failures, when non-null, receives guard catches (the workers'
  /// parallel-only counter; the serial commit path counts
  /// authoritatively from record outcomes instead).
  MergeAttempt guardedAttempt(Function &F1, Function &F2, unsigned SizeF1,
                              unsigned SizeF2, Module *Target,
                              unsigned *Failures,
                              const AlignmentReplay *Replay = nullptr);

  // --- decision cache -------------------------------------------------------
  /// Assigns pool entry \p I its (hash, occurrence) cache key and
  /// registers it in the key-to-pool map. Called for every entry at
  /// buildPool time and for every remerge insertion, in serial pool
  /// order — which is what makes occurrence indices stable across
  /// thread and shard counts.
  void assignCacheKey(size_t I);
  /// Serial-commit-stage cache replay for entry \p I. Returns true when
  /// a cached decision was found and every recorded partner resolved to
  /// a live pool entry: the whole entry was then replayed (skipped
  /// records + name burns for non-winners, codegen with the recorded
  /// alignment for the winner, votes and model observations as
  /// recorded) and committed/journaled exactly like the live path.
  /// Returns false — entry untouched — on any mismatch; the caller runs
  /// the live path and counts a CacheMiss.
  bool replayFromCache(size_t I, AttemptTask *Spec);

  // --- failure containment --------------------------------------------------
  /// One strike for each side of a failed attempt (fault, budget or
  /// verifier reject). The partner is quarantined the moment it strikes
  /// out; the entry itself is judged by its commitEntry (gate +
  /// epilogue). Serial-commit-stage only.
  void noteAttemptFailure(size_t EntryIdx, uint32_t PartnerId);
  /// Retires pool entry \p I unmerged iff quarantine is enabled and the
  /// entry has struck out. Returns true when the entry is (now) gone.
  bool quarantineIfStruckOut(size_t I);

  // --- orchestration --------------------------------------------------------
  void runSerial();
  void runParallel(unsigned NumThreads);

  std::vector<Module *> Modules;
  Module &Host; ///< the logical host; a member of Modules
  /// Where merged functions are actually generated/adopted and unique
  /// names burned: the slice's scratch host (the splice re-burns the real
  /// host's names).
  Module &Materialize;
  const std::unordered_set<const Function *> &PoolFilter;
  const std::unordered_map<const Function *, const Fingerprint *>
      &Fingerprints;
  std::vector<PipelineEntryTrace> &Journal;
  uint32_t HostId = 0; ///< Host's index in Modules (remerge entries' id)
  const MergeDriverOptions &Options;
  const std::map<Function *, unsigned> &BaselineSize;
  MergeDriverStats &Stats;
  MergeCodeGenOptions CGOpts;

  // --- failure-containment configuration ------------------------------------
  // Resolved once at construction. Both pointers stay null on a healthy
  // run (no caps, no armed faults), keeping attemptMerge on its exact
  // pre-containment path — the zero-fault bit-identity invariant.
  FaultInjectionConfig Faults; ///< Options.Faults, else SALSSA_FAULTS env
  const FaultInjectionConfig *FaultsPtr = nullptr; ///< &Faults iff armed
  const AttemptBudget *Budget = nullptr; ///< &Options.Budget iff any cap

  std::vector<PoolEntry> Pool;
  CandidateIndex Index;

  // --- profit-guided selection state ----------------------------------------
  // Everything below only ever advances inside commitEntry (the serial
  // commit stage), in pool order — which is what keeps the Profit and
  // Adaptive modes deterministic at every thread count.
  //
  // The state is *per merge-compatibility class* (keyed by the pool
  // entries' return type): functions only ever rank, calibrate against
  // and vote with members of their own class, and within a class the
  // serial pool order is the same in every shard plan — so per-class
  // calibration makes the Profit and Adaptive modes shard-count-
  // invariant, where a single global EMA/threshold would entangle
  // classes that sharding separates. A single-class pool degenerates to
  // the old global state bit for bit.
  struct ClassSelectionState {
    ProfitModel Profit;        ///< calibrated online from this class's records
    unsigned CurrentT = 1;     ///< adaptive exploration threshold
    unsigned RoundEntries = 0; ///< entries since the last t adjustment
    unsigned WidenVotes = 0;   ///< deep wins (profit found at the slate tail)
    unsigned ShrinkVotes = 0;  ///< top-1 wins / dry entries
  };
  /// Lazily created per return-type class; lookup only (never iterated
  /// in an outcome-relevant order — Type pointers are not stable across
  /// runs).
  std::map<Type *, ClassSelectionState> Classes;
  /// Finds-or-creates the class state for \p RetTy (seeded from
  /// SeedProfit / BaseT).
  ClassSelectionState &classState(Type *RetTy);
  /// Applies one entry's adaptive vote to its class and closes the
  /// round when AdaptRoundSize entries have voted. Shared by the live
  /// commit path and cache replay (which replays recorded votes so the
  /// threshold trajectory — hence every live-ranked entry — matches the
  /// cold run).
  void tallyVote(ClassSelectionState &CS, bool Shrink, bool Widen);
  /// Max CurrentT across classes (BaseT when none exists) — the value
  /// Stats.AdaptiveThresholdFinal reports.
  unsigned maxThreshold() const;
  ProfitModel SeedProfit;   ///< ProfitModel::forArch seed for new classes
  unsigned BaseT = 1;       ///< == Options.ExplorationThreshold
  unsigned MaxT = 1;        ///< adaptation ceiling (BaseT + AdaptiveRange)

  // --- decision cache -------------------------------------------------------
  const DecisionCache *Cache = nullptr; ///< warm decisions (read-only)
  std::vector<DecisionCacheUpdate> *CacheUpdates = nullptr; ///< recordings
  /// Optional sink for functions the quarantine ladder retires (see
  /// PipelineShardScope::Quarantined).
  std::vector<Function *> *QuarantineSink = nullptr;
  /// Live pool entries by cache key (maintained alongside the pool;
  /// consumed entries stay mapped and are rejected at resolve time).
  std::map<DecisionKey, uint32_t> KeyToPool;
  /// Next occurrence index per structural hash, in serial pool order.
  std::map<StructuralHash, uint32_t> HashOccCounter;
  /// Adaptation geometry: how far t may rise above the configured base,
  /// how wide the distance slate is queried relative to t, and how many
  /// committed entries form one adaptation round.
  static constexpr unsigned AdaptiveRange = 4;
  static constexpr unsigned AdaptRoundSize = 8;
  /// Resolution at which profit scores are compared during re-ranking:
  /// scores in the same ScoreBucketBytes-wide bucket count as equal and
  /// the finer signals (same-module preference, then distance) break
  /// the tie. This is what keeps the model from evicting a
  /// near-by-distance candidate over an estimate gap smaller than its
  /// own error bars — and what gives the same-module preference real
  /// traction (it decides whole buckets, not exact-to-the-byte ties).
  static constexpr int64_t ScoreBucketBytes = 64;
  /// How many bounded-extension candidates (CandidateIndex::query
  /// ExtraK) widen the profit slate beyond the exact top-t. The
  /// extension reuses the top-t walk's bound, so it is nearly free.
  static constexpr unsigned SlateExtra = 2;
};

} // namespace salssa

#endif // SALSSA_MERGE_MERGEPIPELINE_H
