//===- merge/DecisionCache.h - Persistent cross-run decision cache ------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent cross-run decision cache (per *Optimistic Global
/// Function Merger*): a content-addressed record of what the serial
/// commit stage decided for each pool entry, keyed so a warm run over
/// unchanged code can replay the whole entry — ranking, rejected
/// attempts, and the winning alignment — without touching the
/// CandidateIndex or the Needleman-Wunsch aligner.
///
/// Key derivation. A pool entry is addressed by
/// (StructuralHash, occurrence index): the canonical body hash plus how
/// many earlier pool entries (in serial pool order) share that hash.
/// The occurrence index disambiguates exact clones and is schedule- and
/// thread-invariant: equal hashes imply equal return types, so all
/// occurrences of one hash live in one merge-compatibility class, and a
/// class's pipeline orders its pool (stable sort by fingerprint size over
/// module/creation order) the same way whatever else runs. Partners
/// inside a decision are addressed the same way, which is also what
/// lets one cache file warm sessions at any shard count.
///
/// File format. A fixed header — magic "SALC", FormatVersion, options
/// fingerprint, payload size, payload checksum (fnv1a64) — then the
/// payload: a u64 entry count and every entry in key order, as its
/// DecisionKey then its CachedDecision. Each record's layout is one field
/// list in DecisionCache.cpp ("Record layouts"), walked by both save()
/// and load() (support/Serialization.h); load() decodes strictly
/// (booleans 0/1, counts bounded by the bytes left, nothing left over)
/// and also refuses a Winner outside -1..attempts-1 and a repeated key.
/// decision_cache_test pins the bytes of one fixed file.
///
/// Invalidation. The file carries a format-version + an options
/// fingerprint (hash geometry, technique, selection mode, budget caps —
/// everything that can change a decision, deliberately excluding thread
/// and shard counts). Any mismatch, size/checksum failure or truncation
/// rejects the load: the session counts CacheLoadRejected and runs
/// cold. A rejected or missing cache can never produce a wrong merge —
/// only the fast path is lost.
///
/// Determinism contract. A warm run replays cached entries only when every
/// referenced partner resolves to a live pool entry; anything else falls back
/// to the live rank/attempt path for that entry (and re-records it). A replayed
/// entry is its recorded slate run through the commit stage's one loop:
/// recorded non-winners are skipped and the winner is attempted with its
/// recorded alignment, behind the same containment accounting, firewall and
/// quarantine ladder as a live attempt. For unchanged input and no armed
/// faults, a warm run burns the same unique-name sequence and emits
/// byte-identical merged modules to its cold run; for changed input the
/// replayed subset is the *recorded* decision (optimistic content-addressed
/// caching) — delete the cache file to force full re-ranking. Which entries
/// replay is decided at the serial commit stage in pool order, so it is the
/// same at every thread and shard count on changed input too; a parallel
/// pipeline only moves *where* a replayed winner is built — an attempt worker
/// builds it from the recorded alignment when its partner is live at snapshot
/// time — and the commit stage reuses that attempt only while both inputs are
/// unconsumed, after the same verifier firewall. The cache itself is read-only
/// while pipelines run: writes happen only at the serial commit stage, as
/// pending updates the session's class runner (runClassPipelines,
/// merge/MergePipeline.h) applies serially once every class pipeline finished.
/// That runner is the only code that loads and saves the file.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_MERGE_DECISIONCACHE_H
#define SALSSA_MERGE_DECISIONCACHE_H

#include "merge/StructuralHash.h"
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace salssa {

struct FaultInjectionConfig;
struct MergeDriverOptions;

/// Content address of one pool entry: canonical body hash + occurrence
/// index among equal hashes in serial pool order.
struct DecisionKey {
  StructuralHash Hash;
  uint32_t Occ = 0;

  bool operator==(const DecisionKey &O) const {
    return Hash == O.Hash && Occ == O.Occ;
  }
  bool operator<(const DecisionKey &O) const {
    return Hash != O.Hash ? Hash < O.Hash : Occ < O.Occ;
  }
};

/// One attempt of a recorded slate, in attempt order. Non-winning
/// attempts replay as skipped records (AttemptOutcome::CacheSkipped)
/// plus a ProfitModel observation; the winning attempt additionally
/// carries the full alignment (gaps included) so code generation runs
/// with zero aligner work.
struct CachedAttempt {
  DecisionKey Partner;
  uint64_t Distance = 0;   ///< fingerprint distance, as ranked
  int64_t ProfitObs = 0;   ///< MergeAttempt::profit() of the attempt
  bool Profitable = false; ///< profit() > 0
  /// Winner-only alignment replay payload (empty for non-winners):
  /// linearized sequence lengths for validation plus the aligner's
  /// entry list as (Idx1, Idx2) with -1 gaps.
  uint32_t SeqLen1 = 0;
  uint32_t SeqLen2 = 0;
  std::vector<std::pair<int32_t, int32_t>> Align;
};

/// The serial commit stage's full decision for one pool entry. Only
/// clean entries are recorded: every attempt completed (no faults, no
/// budget rejects, no verifier rejects). Replay still runs the winner
/// behind the failure-containment ladder, so faults armed on a warm run
/// are contained and counted there like a live attempt's.
struct CachedDecision {
  std::vector<CachedAttempt> Attempts; ///< empty = entry ranked dry
  int32_t Winner = -1;                 ///< index into Attempts, -1 = no commit
  /// Adaptive-threshold vote replay (SelectionStrategy::Adaptive): the
  /// votes this entry cast when recorded.
  bool VoteTallied = false;
  bool VoteShrink = false;
  bool VoteWiden = false;
};

/// One pending cache write, produced at the serial commit stage and
/// applied by the owning session.
struct DecisionCacheUpdate {
  DecisionKey Key;
  CachedDecision Decision;
};

/// The cache proper: an in-memory decision map with versioned,
/// checksummed binary persistence. Owned by the class runner
/// (runClassPipelines) for one call; pipelines see a read-only view
/// plus an update vector (merge/MergePipeline.h).
class DecisionCache {
public:
  /// Bumped on any change to the file format, the structural-hash
  /// algorithm, or replay semantics.
  static constexpr uint32_t FormatVersion = 1;

  enum class LoadOutcome : uint8_t {
    Loaded,  ///< file read, verified, decisions available
    Missing, ///< no file — a plain cold run
    Rejected ///< damaged or incompatible — cold run + CacheLoadRejected
  };

  /// Fingerprint of every option that can change a recorded decision.
  /// Thread count and ShardCount are excluded by design: decisions are
  /// invariant across them.
  static uint64_t optionsFingerprint(const MergeDriverOptions &Options);

  /// Loads \p Path, verifying magic, version, options fingerprint,
  /// payload size and checksum. \p Faults, when armed, may fire
  /// FaultKind::CacheIO (keyed by path) to force the Rejected path.
  LoadOutcome load(const std::string &Path, uint64_t OptionsFP,
                   const FaultInjectionConfig *Faults);

  /// Serializes (sorted by key — deterministic bytes) and writes via
  /// temp + rename. Returns false on I/O failure or a fired CacheIO
  /// fault; the session treats that as "no cache written", never as an
  /// error.
  bool save(const std::string &Path, uint64_t OptionsFP,
            const FaultInjectionConfig *Faults) const;

  const CachedDecision *lookup(const DecisionKey &Key) const {
    auto It = Entries.find(Key);
    return It == Entries.end() ? nullptr : &It->second;
  }

  /// Insert-or-replace every update (fresh recordings win over stale
  /// entries for the same key).
  void apply(std::vector<DecisionCacheUpdate> &&Updates);

  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }

private:
  std::map<DecisionKey, CachedDecision> Entries;
};

} // namespace salssa

#endif // SALSSA_MERGE_DECISIONCACHE_H
