//===- merge/MergeService.h - Long-lived incremental merge sessions -----------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental merge service: a long-lived, compile-server-shaped
/// session that keeps a whole-program merge warm across edit/rebuild
/// cycles. Where CrossModuleMerger is batch — build a pool, merge once,
/// exit — MergeService owns the session state that used to die with the
/// pipeline:
///
///  - per merge-compatibility class (per-return-type partition): the
///    class's pipeline journal, committed-merge records and stats from
///    its last run — the state that lets an untouched class skip its
///    re-merge entirely;
///  - an archive of every original body (thunk-free clones in a private
///    module), so un-committing a merge is a body restore, not a rerun;
///  - the structural-hash table over tracked functions (no-op-edit
///    detection and delta integrity);
///  - a quarantine ledger with *decay*: functions struck out by the
///    pipeline's quarantine ladder re-enter candidacy after
///    QuarantineDecayEpochs deltas (strikes age out — a long-lived
///    session must not ban a function forever for transient faults).
///
/// ## Delta protocol
///
/// Clients submit deltas as an exclusive batch:
///
/// \code
///   MergeService Svc(Opts);
///   Svc.addModule(M0); Svc.addModule(M1);
///   Svc.initialize();                       // epoch 0: full session
///   {
///     auto Batch = Svc.beginDelta();        // locks the session
///     Batch.checkoutForEdit(F);             // F's original body is back
///     mutate(F);                            // client edit, any shape
///     Mods[1]->createFunction("g", ...);    // client adds directly
///     MergeDelta D;
///     D.Changed = {F}; D.Added = {G}; D.Deleted = {H};
///     Batch.apply(D);                       // epoch N: localized re-merge
///   }                                       // unlock
/// \endcode
///
/// beginDelta() holds the session mutex until the batch object dies, so
/// concurrent client batches serialize wholesale: no client can ever
/// observe (or edit into) a half-applied session — snapshot isolation by
/// construction. Rules: every previously-merged changed function must be
/// checked out before mutation (checkout restores the thunk-free
/// original to edit); a changed function keeps its signature (signature
/// changes are delete + add); deleted functions must have no remaining
/// call sites (generated workloads guarantee this; real clients own it).
///
/// ## Equivalence contract
///
/// After every applyDelta the session is *provably equivalent to a
/// from-scratch run over the current pool state*: same committed merges,
/// same records (names, outcomes, order), same module bytes — at every
/// selection mode x thread count x shard configuration
/// (tests/merge_service_test.cpp pins this differentially against
/// CrossModuleMerger). The mechanism is the class-pipeline runner both
/// sessions share (runClassPipelines, MergePipeline.h): each class's
/// pipeline journal is replayed against the global size-ordered pool walk
/// with the host's unique-name counter reset to its pre-merge base, so
/// name burns, record order and FunctionOrder all reconstruct the cold
/// run exactly — a clean class replays its retained journal, a dirty
/// class re-runs first.
///
/// ## Fault containment
///
/// Service-level fault points (FaultKind::Ranking, SymbolResolution,
/// Fingerprint via support/FaultInjection.h) fire while a delta is being
/// planned. Any exception there degrades the delta to a *counted full
/// re-merge* (Stats.DegradedToFullRemerge, fullRemerges()): every class
/// is un-committed, registration is rebuilt from scratch, and the whole
/// pool re-merges — with the service-level fault points disarmed on the
/// recovery path so a deterministic fault cannot degrade forever.
/// Pipeline-level faults (alignment/codegen/task/budget, and the cluster
/// stage's fingerprint points) stay contained inside the pipelines
/// exactly as in batch sessions and never degrade a delta. A faulted
/// delta is never a corrupt session. Quarantined functions are not class
/// members, so the cluster stage skips them too.
///
/// ## Warm paths & host moves
///
/// A delta runs one of two ways: the localized epoch above, or the
/// counted degrade. Neither needs a special case for the warm paths:
///
///  - `Driver.HashClustering`: exact-clone clustering is the first stage
///    of each class pipeline (MergePipeline.h), so a cluster commit is
///    class state like any merge. A clean class's splice replays it; a
///    dirty class un-commits it — members restored from the archive,
///    body erased — and re-clusters its members.
///  - `Driver.DecisionCachePath`: read and written only by the two full
///    session builds, initialize() and the degraded path, exactly like a
///    batch session — both run their classes through runClassPipelines
///    with the cache on, and that runner alone loads the file before the
///    class pipelines run and saves it after. A localized epoch runs with
///    the cache off and never touches the file; every epoch reports the
///    last full build's CacheLoadRejected. A restarted service pointed at
///    the same file warm-replays its epoch 0 (the merge daemon's restart
///    story, service/Daemon.h).
///
/// Host election: a cold run always elects, so unless setHostModule() pinned
/// the host or the policy is HostPolicy::First, the Driver.Host election
/// re-runs after every delta's bookkeeping refresh: the cold run's
/// selectHostModule, scored over the pristine archived bodies (what a cold
/// run scores after resolution). When the leader moves, the remaining classes
/// are un-committed, the old host's unique-name counter returns to its base,
/// the new host's counter becomes the base, and the ordinary localized epoch
/// re-runs every class in place; MergeServiceStats::HostReelected reports it.
/// The degraded path elects over the restored pool before it rebuilds.
///
/// v1 limits: SalSSA technique only. Destroy the service before the
/// modules it serves (the archive keeps operand references into them).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_MERGE_MERGESERVICE_H
#define SALSSA_MERGE_MERGESERVICE_H

#include "ir/SymbolResolution.h"
#include "merge/CrossModuleMerger.h"
#include "merge/MergePipeline.h"
#include "merge/StructuralHash.h"
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace salssa {

/// Service configuration.
struct MergeServiceOptions {
  /// The per-run merge configuration (technique must stay SalSSA).
  /// ShardCount caps the concurrently running dirty-class pipelines
  /// exactly as in a batch session (runClassPipelines, MergePipeline.h):
  /// outcomes are identical at every value (the determinism contract).
  /// HashClustering runs in every class pipeline; DecisionCachePath is
  /// honoured on full session builds; Host is re-elected after every
  /// delta (see "Warm paths & host moves" above).
  MergeDriverOptions Driver;
  /// Quarantine-ladder strike decay: a function the ladder struck out
  /// re-enters candidacy after this many further epochs (its class
  /// re-merges with it back in the pool). 0 (the default) = strikes
  /// never decay (the batch sessions' behaviour). Unit: epochs.
  unsigned QuarantineDecayEpochs = 0;
};

/// One delta batch: functions whose bodies changed, functions the client
/// created in registered modules since the last epoch, and functions to
/// remove. All pointers must be definitions in registered modules.
struct MergeDelta {
  std::vector<Function *> Changed;
  std::vector<Function *> Added;
  std::vector<Function *> Deleted;

  bool empty() const {
    return Changed.empty() && Added.empty() && Deleted.empty();
  }
};

/// Per-epoch result. Session is the cold-equivalent whole-session view
/// (what a from-scratch CrossModuleMerger run over the current pool
/// would report for merges/records/sizes); the Epoch* counters isolate
/// the work actually spent on *this* delta (dirty classes only) — the
/// incrementality win is Session-sized results at Epoch-sized cost.
struct MergeServiceStats {
  CrossModuleStats Session;
  unsigned Epoch = 0;
  unsigned DirtyClasses = 0;
  unsigned TotalClasses = 0;       ///< live classes after the epoch
  unsigned UncommittedMerges = 0;  ///< merges undone before the re-merge
  unsigned QuarantineReleases = 0; ///< ledger entries decayed this epoch
  /// Declared-changed functions whose structural hash did not move
  /// (no-op edits; their class still re-merges — checkout restored it).
  unsigned NoopChanges = 0;
  bool DegradedToFullRemerge = false;
  /// The host election moved this epoch: every class re-ran on the new
  /// leader (see "Warm paths & host moves" in the file comment).
  bool HostReelected = false;
  // Work spent this epoch, summed over the dirty classes' runs only:
  uint64_t EpochPairingDistanceCalls = 0;
  uint64_t EpochPairingProbes = 0;
  unsigned EpochAttempts = 0;
};

class MergeService {
public:
  explicit MergeService(const MergeServiceOptions &Options);
  ~MergeService();
  MergeService(const MergeService &) = delete;
  MergeService &operator=(const MergeService &) = delete;

  /// Module registration, before initialize(). Same rules as
  /// CrossModuleMerger: one shared Context, host must be registered.
  void addModule(Module &M);
  void setHostModule(Module &M);
  Module *hostModule() const { return Host; }

  /// Runs the initial full session (epoch 0). Call exactly once.
  MergeServiceStats initialize();

  /// An exclusive delta batch: holds the session lock from construction
  /// to destruction. Obtain via beginDelta(); apply() at most once.
  class DeltaBatch {
  public:
    DeltaBatch(const DeltaBatch &) = delete;
    DeltaBatch &operator=(const DeltaBatch &) = delete;
    ~DeltaBatch() = default;

    /// Prepares \p F for client editing: restores its thunk-free
    /// original body from the archive (a no-op-shaped rewrite when F
    /// was never merged) and records the checkout. Every checked-out
    /// function must appear in the applied delta's Changed list.
    Function *checkoutForEdit(Function *F);

    /// Applies the delta and runs the localized re-merge. Call at most
    /// once; consumes the batch (the session lock is released on
    /// return, so introspection works immediately afterwards).
    MergeServiceStats apply(const MergeDelta &Delta);

  private:
    friend class MergeService;
    explicit DeltaBatch(MergeService &S)
        : S(S), Lock(S.SessionMutex) {}
    MergeService &S;
    std::unique_lock<std::mutex> Lock;
    std::unordered_set<const Function *> CheckedOut;
    bool Applied = false;
  };

  /// Starts an exclusive delta batch (blocks while another batch or
  /// initialize() holds the session).
  DeltaBatch beginDelta() { return DeltaBatch(*this); }

  // --- Introspection (each takes the session lock; do not call while
  // --- holding an unapplied DeltaBatch) ------------------------------------
  unsigned epoch() const;
  unsigned fullRemerges() const;    ///< cumulative degraded deltas
  unsigned hostReelections() const; ///< cumulative host moves
  bool isQuarantined(const Function *F) const;
  size_t quarantinedCount() const;
  /// The retained structural hash of a tracked function.
  StructuralHash structuralHash(const Function *F) const;
  MergeServiceStats lastStats() const;

private:
  /// Everything the session knows about one live original function.
  struct TrackedFunction {
    uint32_t ModuleId = 0; ///< index into Modules
    Fingerprint FP;        ///< element-stable (node-based map)
    StructuralHash Hash;
    Function *Archived = nullptr; ///< thunk-free clone in the archive
    unsigned Baseline = 0;        ///< estimateFunctionSize of the original
  };

  void registerFunction(Function *F, uint32_t ModuleId);
  void archiveFunction(Function *F, TrackedFunction &TF);
  void restoreBody(Function *F, const Function *Src);
  uint32_t moduleIdOf(const Module *M) const;
  /// Every class the session has ever run (keys of Classes).
  std::set<Type *> allClasses() const;
  /// Un-commits every retained cluster and merge of the given classes:
  /// restores archived originals (except functions in \p SkipRestore or
  /// \p Deleted), clears deleted bodies, erases the cluster bodies and
  /// then the merged functions (forward commit order) from the host, and
  /// drops the classes' clusters/journals/stats/members.
  void uncommitClasses(const std::set<Type *> &Dirty,
                       const std::unordered_set<const Function *> &SkipRestore,
                       const std::unordered_set<const Function *> &Deleted,
                       MergeServiceStats &Out);
  void eraseDeleted(const std::vector<Function *> &Deleted);
  /// Rebuilds the whole session over the current pool — the shared core
  /// of initialize() and the degraded path. Caller contract: every
  /// original body is live and pristine in its registered module (thunks
  /// restored, cluster bodies and merged functions erased, deletions
  /// applied), resolution has run, Host is chosen and its unique-name
  /// counter sits at the pre-burn base. Re-registers everything and
  /// merges every class as a full build.
  void rebuildSession(MergeServiceStats &Out);
  /// Runs pipelines for the dirty classes, splices every class's journal
  /// into the host against the global plan, and fills Out.Session. Only
  /// a \p FullBuild (initialize() and the degraded path) runs against
  /// the decision cache, which the class runner loads and saves; a delta
  /// never touches the file.
  void runEpoch(const std::set<Type *> &Dirty, MergeServiceStats &Out,
                bool FullBuild);
  void degradeToFullRemerge(const MergeDelta &Delta, MergeServiceStats &Out);
  MergeServiceStats applyDeltaLocked(const MergeDelta &Delta,
                                     const std::unordered_set<const Function *>
                                         &BatchCheckouts);

  MergeServiceOptions Options;
  std::vector<Module *> Modules;
  Module *Host = nullptr;
  bool ExplicitHost = false;
  bool Initialized = false;

  std::unordered_map<const Function *, TrackedFunction> Tracked;
  std::map<Function *, unsigned> Baselines; ///< pipeline-shaped view
  /// Retained per merge-compatibility class: the clusters/journal/
  /// records/stats of its last pipeline run plus the exact members that
  /// run used (the splice must replay against the pool *as of* that run).
  ClassSlices Classes;
  std::unique_ptr<Module> Archive;
  /// Struck-out functions -> the epoch the ladder retired them.
  std::map<const Function *, unsigned> QuarantinedAt;

  unsigned Epoch = 0;
  unsigned HostCounterBase = 0; ///< unique-name counter before splice burns
  unsigned FullRemergeCount = 0;
  unsigned HostReelectionCount = 0;
  /// The last full build's CacheLoadRejected, reported by every delta
  /// epoch too (cold sessions set it once per run).
  uint64_t SessionCacheLoadRejected = 0;
  SymbolResolutionStats LastResolution;
  FaultInjectionConfig SessionFaults; ///< resolved at initialize()
  MergeServiceStats Last;

  mutable std::mutex SessionMutex;
};

} // namespace salssa

#endif // SALSSA_MERGE_MERGESERVICE_H
