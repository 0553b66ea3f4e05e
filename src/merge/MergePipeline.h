//===- merge/MergePipeline.h - Staged per-class merge driver ------------------===//
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
/// Under MergeDriverOptions::HashClustering a cluster stage precedes them
/// once per run: exact-clone clustering (merge/StructuralHash.h) commits
/// the class's hash-identical members as one body plus direct thunks
/// before the pool is built, so the pool sees the bodies, not the clones.
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
/// The pipeline is module-set-agnostic and always runs over one
/// merge-compatibility class of a session: runClassPipelines (below),
/// shared by CrossModuleMerger and MergeService, constructs one per
/// class with the class's pool, precomputed fingerprints, a scratch
/// module to materialize merged functions in, and the journal the splice
/// later replays into the real host. Pool entries carry their module id,
/// the CandidateIndex ranks all modules' live candidates in one
/// structure, and attempts pair functions across module boundaries
/// exactly like intra-module pairs, with thunks committed in the inputs'
/// own modules. The determinism contract above holds for any module
/// count at any thread count.
///
/// The profit-guided selection modes calibrate (ProfitModel EMA) and
/// adapt their exploration threshold within the class alone, so a class
/// never sees another class's signal and Profit/Adaptive outcomes do not
/// depend on how classes are scheduled. And when a warm DecisionCache is
/// attached, an entry whose recorded slate still resolves (a cache hit,
/// see merge/DecisionCache.h) takes that slate instead of ranking, and
/// runs it through the same commit loop as a ranked one: recorded
/// non-winners are skipped — burning the exact unique-name sequence of
/// the cold run — and the recorded winner is attempted with its recorded
/// alignment, behind the same containment, firewall and quarantine
/// accounting as a live attempt. Replay shares the optimistic attempt
/// stage too: when a cached winner's partner is live at snapshot time, a
/// worker builds the winner from its recorded alignment, and the commit
/// stage reuses that attempt under the same rule as a live one (both
/// inputs still unconsumed).
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
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace salssa {

class Module;

/// Journal record of one commitEntry invocation, appended in serial pool
/// order (exactly one per pool entry, empty for entries that produced no
/// attempts). The splice (runClassPipelines) replays these journals to
/// move per-class results into the host module with the exact attempt
/// order, record order and unique-name sequence of one whole-pool run:
/// names are re-derived from the Function pointers at splice time (by
/// then every earlier merged function already carries its final host
/// name), so class-local scratch names never leak into the result.
struct PipelineEntryTrace {
  /// The pool entry's function (null for entries consumed before their
  /// turn — they emit nothing and burn nothing).
  Function *EntryFn = nullptr;
  /// One partner per record this entry emitted, in attempt order.
  std::vector<Function *> Partners;
  /// Offset of the committed attempt within Partners, -1 when the entry
  /// committed nothing.
  int32_t WinnerRecord = -1;
  /// The committed merged function (in the scratch module), null when
  /// WinnerRecord is -1.
  Function *Merged = nullptr;
};

/// Precomputed fingerprints of a session's pool, by function.
using FingerprintView =
    std::unordered_map<const Function *, const Fingerprint *>;

/// One exact-clone group a class's cluster stage committed: the group
/// (body, members, first-seen function) plus the body's fingerprint size,
/// its key in the pool walk.
struct ClusterCommit : PreClusterGroup {
  uint32_t Size = 0;
};

/// One merge-compatibility class of a session — its pool functions of one
/// return type — and what its last pipeline run left for the splice.
/// Classes are provably independent: pairs with different return types
/// rank at +inf and never merge, a merged function keeps its inputs'
/// return type, so no remerge generation crosses a class either, and
/// structurally identical functions share a return type, so neither does
/// an exact-clone group.
struct ClassSlice {
  /// Exactly the functions offered to the class: its cluster stage (under
  /// MergeDriverOptions::HashClustering) runs over them, and every one it
  /// does not consume enters the candidate pool.
  std::unordered_set<const Function *> Members;
  /// The exact-clone groups of the last run, in commit order. Each body
  /// is generated in the class scratch module and joins the pool; the
  /// splice adopts it into the host.
  std::vector<ClusterCommit> Clusters;
  /// One trace per pool entry of the last run, in serial pool order.
  std::vector<PipelineEntryTrace> Journal;
  MergeDriverStats Stats;
  /// Functions the quarantine ladder retired during the last run, in the
  /// serial commit order the strikes landed. MergeService moves them into
  /// its decay ledger so they can re-enter candidacy later.
  std::vector<Function *> Quarantined;
};

/// A session's classes by return type. Map order never reaches an
/// outcome: the splice follows the pool walk, not the map.
using ClassSlices = std::map<Type *, ClassSlice>;

/// The class-pipeline runner both sessions share (CrossModuleMerger runs
/// every class, MergeService the dirty ones of an epoch).
///
///   run     one MergePipeline per class of \p Run with members, each over
///           exactly its Members and generating merged functions (cluster
///           bodies included) into a class-local scratch module. Classes
///           are provably independent, so they are submitted heaviest
///           first (Σ size² of the members, the alignment-cost proxy) to a
///           FIFO pool of W = min(MergeDriverOptions::ShardCount — 0 =
///           NumThreads —, classes) workers, each pipeline with
///           max(1, threads / W) attempt-stage threads. ShardCount = 1
///           runs them one after another with every thread. Fault
///           injection is resolved once here (Options.Faults, else the
///           SALSSA_FAULTS environment spec) for every pipeline and the
///           cache I/O.
///   cache   when \p UseCache is set and MergeDriverOptions::
///           DecisionCachePath is not empty, the runner loads the file
///           (setting Into.CacheLoadRejected), the pipelines replay its
///           decisions read-only, and after the run their recordings are
///           applied and the file is saved. No other code reads or
///           writes the cache file.
///   splice  serially, in the exact order one pipeline over the whole
///           pool would have produced. Cluster bodies come first: one
///           unique name is burned in \p Host per committed group of
///           every class, ordered by the global (module registration,
///           creation) position of the group's first-seen function, then
///           peel order, and the body is adopted under it. Then the walk:
///           every unconsumed member of every class of \p Classes, with
///           the cluster bodies (in that order) after the host's members,
///           in global pool order (size descending, then module and
///           creation order); each step consumes its class's next
///           journal entry — classes outside \p Run replay the clusters
///           and journal they kept from an earlier run. One unique name
///           is burned in \p Host per record whose attempt burned one,
///           and every committed merged function, taken from whichever
///           module holds it, is re-adopted into \p Host under the name
///           burned at its own record, so names and function order are
///           the serial allocator's. Record names are re-derived from
///           Function pointers at each step.
///
/// Appends the replayed records to \p Into.Records, folds every class's
/// counters into \p Into, and reports the session's live classes and
/// their imbalance in Into.ShardCount and Into.ShardImbalance (see
/// MergeDriverStats).
void runClassPipelines(const std::vector<Module *> &Modules, Module &Host,
                       const MergeDriverOptions &Options,
                       const std::map<Function *, unsigned> &BaselineSize,
                       const FingerprintView &Fingerprints, bool UseCache,
                       ClassSlices &Classes, const std::set<Type *> &Run,
                       MergeDriverStats &Into);

/// One run of the staged merge driver over one class of a session.
/// Constructed with the pool's profitability baselines (captured before
/// any preprocessing), then driven once via run(). Aggregates into the
/// class's MergeDriverStats; see MergeDriverStats for the threading
/// semantics of the timing fields.
class MergePipeline {
public:
  /// A run over \p Class, whose Members live in \p Modules. All modules
  /// must share one Context; \p Host (a member of \p Modules) is the
  /// module every merged function ends up in after the splice, and the
  /// pipeline's *logical* host (remerge and cluster-body module ids,
  /// cross-module accounting, same-module tie-breaking). Merged functions
  /// and cluster bodies are generated, named and adopted in \p Scratch
  /// instead: a class-local module outside \p Modules sharing their
  /// Context. \p BaselineSize and \p Fingerprints (captured post FMSA
  /// demotion, pre merging) must cover every member. Registration order
  /// is part of the determinism contract: it fixes cluster order and pool
  /// order among equal-sized functions.
  ///
  /// \p Cache, when set, is a read-only warm decision cache
  /// (merge/DecisionCache.h): every pool entry gets a (StructuralHash,
  /// occurrence) key and the serial commit stage takes an entry's
  /// recorded slate instead of ranking, falling back to the live path per
  /// entry whenever a recorded partner no longer resolves. \p CacheUpdates,
  /// when set, receives each *clean* live entry (every attempt completed,
  /// no verifier reject) as a pending update; pipelines never write the
  /// cache directly.
  MergePipeline(const std::vector<Module *> &Modules, Module &Host,
                const MergeDriverOptions &Options,
                const std::map<Function *, unsigned> &BaselineSize,
                const FingerprintView &Fingerprints, ClassSlice &Class,
                Module &Scratch, const DecisionCache *Cache,
                std::vector<DecisionCacheUpdate> *CacheUpdates);
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
    /// A live entry's snapshot top-t ranking; for a cache-hit entry, the
    /// recorded winner's partner alone.
    std::vector<CandidateIndex::Hit> Hits;
    std::vector<MergeAttempt> Attempts;    ///< parallel results, 1:1 with Hits
    /// The recorded winning attempt of a cache-hit entry (null for live
    /// entries): workers build it with its alignment replayed, and only a
    /// cache hit's slate may reuse the result — commitEntry drops it when
    /// the entry misses.
    const CachedAttempt *Replay = nullptr;
    /// False for inert tasks — cache-hit entries whose winner cannot be
    /// built ahead (dry decisions, partners that do not resolve to a live
    /// entry at snapshot time), partners an earlier replay in the window
    /// is predicted to consume, and tasks a worker failure demoted:
    /// workers leave them alone and the commit stage runs them inline,
    /// exactly like the serial path.
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
  /// Clusters the class's members (under HashClustering) into
  /// Class.Clusters, then builds the pool: the unconsumed members in
  /// (module, creation) order with the cluster bodies after the host's,
  /// sorted by size.
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
  /// The exploration threshold the next entry will use: the configured
  /// t, or the adaptively driven one under SelectionStrategy::Adaptive.
  unsigned effectiveThreshold() const;
  /// Re-orders \p Hits by (estimated profit desc, same-module-as-entry,
  /// distance asc, id asc) and truncates to \p T.
  void profitRerank(std::vector<CandidateIndex::Hit> &Hits,
                    uint32_t SelfModule, unsigned T) const;

  // --- commit stage ---------------------------------------------------------
  /// Processes pool entry \p I to completion in one loop over its slate:
  /// the recorded slate on a cache hit (cachedSlate), otherwise a
  /// re-rank against the current pool. Recorded non-winners are skipped;
  /// every other slot reuses its matching speculative attempt from \p
  /// Spec (null in the serial path) or runs inline, and the most
  /// profitable one commits. Exactly replays the serial driver's attempt
  /// order, record order and name allocation.
  void commitEntry(size_t I, AttemptTask *Spec);
  /// The commit-stage attempt of entry \p I with partner \p PartnerIdx.
  /// Reuses the Valid speculative attempt \p Spec holds for exactly that
  /// partner, burning into \p StagedName the unique name the serial
  /// generator would have consumed here; otherwise runs the attempt
  /// inline into Materialize (with \p Replay's alignment, when set) and
  /// leaves \p StagedName empty. The caller must have checked that both
  /// inputs are unconsumed — that is what makes a reused attempt current.
  MergeAttempt attemptAt(size_t I, uint32_t PartnerIdx, AttemptTask *Spec,
                         std::string &StagedName,
                         const AlignmentReplay *Replay = nullptr);
  /// The commit tail of commitEntry: adopts a staged \p Best into
  /// Materialize under \p StagedName (empty: it was generated there),
  /// thunks both its inputs (entry \p I, partner \p PartnerIdx), marks
  /// record \p BestRecord committed, retires both inputs, offers the
  /// merged function back to the pool and journals \p Trace with the
  /// winner at offset \p WinnerOffset of its partners.
  void commitWinner(size_t I, size_t PartnerIdx, MergeAttempt &Best,
                    const std::string &StagedName, size_t BestRecord,
                    size_t WinnerOffset, PipelineEntryTrace &Trace);
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
  /// thread counts and class schedules.
  void assignCacheKey(size_t I);
  /// The cache hit of entry \p I: its recorded decision, returned only
  /// when every recorded partner resolves through KeyToPool to an
  /// unconsumed entry other than \p I (all or nothing). \p Slate then
  /// holds those partners in recorded order, each at its recorded
  /// distance. Null on a miss.
  const CachedDecision *
  cachedSlate(size_t I, std::vector<CandidateIndex::Hit> &Slate) const;

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
  /// names burned: the class's scratch module (the splice re-burns the
  /// real host's names).
  Module &Materialize;
  const FingerprintView &Fingerprints;
  ClassSlice &Class; ///< pool filter in; journal, stats, quarantine out
  std::vector<PipelineEntryTrace> &Journal; ///< == Class.Journal
  MergeDriverStats &Stats;                  ///< == Class.Stats
  uint32_t HostId = 0; ///< Host's index in Modules (remerge entries' id)
  const MergeDriverOptions &Options;
  const std::map<Function *, unsigned> &BaselineSize;
  MergeCodeGenOptions CGOpts;

  // --- failure-containment configuration ------------------------------------
  // Resolved once at construction. Both pointers stay null on a healthy
  // run (no caps, no armed faults), keeping attemptMerge on its exact
  // pre-containment path — the zero-fault bit-identity invariant.
  /// &Options.Faults iff armed (the class runner has already applied
  /// the SALSSA_FAULTS fallback to it).
  const FaultInjectionConfig *FaultsPtr = nullptr;
  const AttemptBudget *Budget = nullptr; ///< &Options.Budget iff any cap

  std::vector<PoolEntry> Pool;
  CandidateIndex Index;

  // --- profit-guided selection state ----------------------------------------
  // Everything below only ever advances inside commitEntry (the serial
  // commit stage), in pool order — which is what keeps the Profit and
  // Adaptive modes deterministic at every thread count. The pipeline
  // runs one merge-compatibility class, so the model calibrates on, and
  // the threshold adapts to, that class alone: its serial pool order is
  // the same however the session schedules its classes, which makes
  // both modes invariant to the class schedule too.
  ProfitModel Profit;        ///< calibrated online from this class's records
  unsigned CurrentT = 1;     ///< adaptive exploration threshold
  unsigned RoundEntries = 0; ///< entries since the last t adjustment
  unsigned WidenVotes = 0;   ///< deep wins (profit found at the slate tail)
  unsigned ShrinkVotes = 0;  ///< top-1 wins / dry entries
  /// Applies one entry's adaptive vote and closes the round when
  /// AdaptRoundSize entries have voted. A cache hit casts its recorded
  /// vote instead of computing one.
  void tallyVote(bool Shrink, bool Widen);
  unsigned BaseT = 1;       ///< == Options.ExplorationThreshold
  unsigned MaxT = 1;        ///< adaptation ceiling (BaseT + AdaptiveRange)

  // --- decision cache -------------------------------------------------------
  const DecisionCache *Cache = nullptr; ///< warm decisions (read-only)
  std::vector<DecisionCacheUpdate> *CacheUpdates = nullptr; ///< recordings
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
