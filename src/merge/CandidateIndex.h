//===- merge/CandidateIndex.h - Near-linear candidate ranking -----------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The indexing layer that replaces the driver's O(n²) all-pairs
/// fingerprint scan. The pool's live fingerprints are held in a
/// two-level structure:
///
///  1. an LSH band table (Fingerprint::SketchBands buckets per entry):
///     functions sharing a band hash are probable near-duplicates, so a
///     query probes its own band buckets first to *seed* the running
///     top-k with very close candidates;
///
///  2. a per-return-type flat array of size buckets: because the ranking
///     metric is Manhattan distance over opcode counts,
///     |Size(A) - Size(B)| is a lower bound on distance(A, B). A query
///     walks outward from its own size bucket (gap 0, 1, 2, ...) and
///     stops — provably losing nothing — as soon as the size gap alone
///     exceeds the current k-th best distance. The buckets are plain
///     vectors indexed by instruction count, so each expansion step is
///     two array probes instead of a std::multimap pointer chase; this
///     is what pushes the pairing exponent from ~1.6 toward ~1.2 on
///     4k+ pools (bench_ranking_scaling).
///
/// Step 2 makes query() *exact*: it returns precisely the k nearest live
/// candidates under the brute-force ordering (distance, then insertion
/// id), no matter how the sketch behaves. Step 1 only accelerates it:
/// a tight early bound means the outward walk terminates after touching
/// a few size-neighbours instead of the whole pool. Every distance on
/// the shortlist is verified with the early-exit exact distance
/// (fingerprintDistance with a running bound), so committed-merge
/// decisions are bit-identical to the quadratic baseline — this is the
/// property ranking_test.cpp checks and bench_ranking_scaling measures.
///
/// insert is amortized O(SketchBands); retire additionally scans the
/// (tiny) size bucket and band buckets it leaves. The driver maintains
/// the index incrementally across committed merges and remerge
/// insertions instead of rescanning the pool.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_MERGE_CANDIDATEINDEX_H
#define SALSSA_MERGE_CANDIDATEINDEX_H

#include "merge/Fingerprint.h"
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace salssa {

struct ProfitModel;

/// Incremental top-k nearest-fingerprint index over a pool of live
/// candidates. Ids are dense pool indices assigned by the caller.
class CandidateIndex {
public:
  /// One query hit. Ordered exactly like the brute-force ranking: by
  /// distance, ties by lower id (== earlier pool position). ModuleId is
  /// a caller-supplied payload echoed back from insert — cross-module
  /// sessions register every module's candidates in one index and use it
  /// to tell intra- from cross-module pairs; single-module drivers leave
  /// it 0. EstProfit is a ProfitModel estimate filled in only when the
  /// caller passes a model to query() (the profit-guided selection
  /// modes); neither payload ever participates in the index's ordering —
  /// re-ranking by profit is the *caller's* move (MergePipeline), so the
  /// index's exactness contract stays purely distance-based.
  struct Hit {
    uint64_t Distance = 0;
    uint32_t Id = 0;
    uint32_t ModuleId = 0;
    int64_t EstProfit = 0;
  };

  /// Cumulative instrumentation (for benchmarks and tests).
  struct Stats {
    uint64_t Queries = 0;
    uint64_t SeedProbes = 0;      ///< LSH bucket entries examined
    uint64_t ExpansionSteps = 0;  ///< size-map entries examined
    uint64_t DistanceCalls = 0;   ///< exact distance evaluations
  };

  /// Aggregate view of one merge-compatibility partition (all live
  /// entries sharing a return type — the only candidates ever at finite
  /// distance from each other, hence the provable independence boundary
  /// sharded sessions split on; see CrossModuleMerger.h). Summaries
  /// are reported in *first-insertion order*, which is deterministic
  /// given the caller's insertion order — never in hash-map order.
  struct PartitionSummary {
    Type *RetTy = nullptr;
    /// First-insertion rank of this partition (== its index in the
    /// summary vector): a stable partition id across runs.
    uint32_t FirstSeen = 0;
    size_t Live = 0;
    /// Σ Fingerprint::Size over live entries.
    uint64_t SizeSum = 0;
    /// Σ Size² over live entries — the alignment-cost proxy shard
    /// balancing weighs partitions by (attempt cost is quadratic in
    /// function size, so SizeSum alone under-weights giant-function
    /// partitions).
    uint64_t CostSum = 0;
    /// The partition's dominant coarse-histogram group (argmax of the
    /// live entries' summed Fingerprint::GroupSum; ties to the lowest
    /// group): a cheap structural signature, mixed into the shard
    /// assignment seed so equal-weight partitions spread deterministically
    /// rather than by insertion accident.
    uint32_t CoarseBucket = 0;
  };

  /// Live-partition summaries in first-insertion order. Partitions whose
  /// every entry has been retired are still reported (Live == 0) so the
  /// FirstSeen ranks stay stable.
  std::vector<PartitionSummary> partitionSummaries() const;

  size_t numPartitions() const { return PartitionOrder.size(); }

  /// Registers \p FP under \p Id and makes it live. \p Id must not be
  /// currently live; ids should be dense (they index an internal vector).
  /// \p ModuleId tags the entry with its owning module (see Hit).
  void insert(uint32_t Id, const Fingerprint &FP, uint32_t ModuleId = 0);

  /// Removes \p Id from the live set (committed or consumed candidates).
  void retire(uint32_t Id);

  bool isLive(uint32_t Id) const {
    return Id < Entries.size() && Entries[Id].Live;
  }
  size_t liveCount() const { return NumLive; }

  /// Returns the \p K live candidates nearest to \p FP — exactly the
  /// first K entries of the brute-force (distance, id)-sorted ranking,
  /// excluding \p ExcludeId and any candidate with a different return
  /// type. Sorted ascending. When \p Model is non-null every returned
  /// hit additionally carries Model->estimate(FP, candidate, distance)
  /// in EstProfit (annotation only — it never changes which K are
  /// selected or their order).
  ///
  /// \p ExtraK is the *bounded extension* used by the profit-guided
  /// selection modes to widen their slate at (nearly) the plain query's
  /// cost: up to ExtraK additional candidates are returned — the next
  /// entries of the same brute-force ranking, but only those whose
  /// distance does not exceed the K-th best. The search bound (hence
  /// the size-bucket walk, hence the cost) stays exactly the top-K
  /// bound; the extension recycles candidates the walk examined anyway.
  /// The result is deterministic: the first min(K, live) hits are the
  /// exact top-K, the rest are the (distance, id)-ranked continuation
  /// truncated at the K-th-best distance.
  std::vector<Hit> query(const Fingerprint &FP, unsigned K,
                         uint32_t ExcludeId = UINT32_MAX,
                         const ProfitModel *Model = nullptr,
                         unsigned ExtraK = 0) const;

  const Stats &stats() const { return Counters; }

private:
  struct Entry {
    /// Owned copy (~330 bytes): the driver's pool reallocates on
    /// remerge push_back, so borrowing a pointer into it would dangle.
    Fingerprint FP;
    uint32_t ModuleId = 0;
    bool Live = false;
  };

  /// All same-return-type candidates (the only ones at finite distance).
  struct Partition {
    /// Live ids bucketed by Fingerprint::Size (bucket index == size):
    /// the exact-search backbone. Buckets only ever grow in count;
    /// MinSize/MaxSize are a monotone outer hull of the sizes ever
    /// inserted, so a query's outward walk may probe empty buckets left
    /// by retires — each probe is one vector-size check, far cheaper
    /// than keeping the hull tight.
    std::vector<std::vector<uint32_t>> SizeBuckets;
    uint32_t MinSize = UINT32_MAX;
    uint32_t MaxSize = 0;
    size_t NumLive = 0;
    /// Aggregates over the live entries, maintained by insert/retire,
    /// backing partitionSummaries().
    uint64_t SizeSum = 0;
    uint64_t CostSum = 0;
    std::array<uint64_t, Fingerprint::NumGroups> GroupAgg{};
    /// LSH band buckets: band-salted hash -> live ids.
    std::unordered_map<uint64_t, std::vector<uint32_t>> Bands;
  };

  Partition &partitionFor(Type *RetTy);
  const Partition *partitionFor(Type *RetTy) const;

  std::vector<Entry> Entries;
  std::unordered_map<Type *, Partition> Partitions;
  /// Return types in first-insertion order (never erased): the
  /// deterministic iteration order partitionSummaries() reports in.
  std::vector<Type *> PartitionOrder;
  size_t NumLive = 0;

  // Query-scoped scratch: epoch-stamped visited marks, reused across
  // queries to avoid per-query allocation (mutable: query() is
  // logically const).
  mutable std::vector<uint32_t> VisitEpoch;
  mutable uint32_t CurrentEpoch = 0;
  mutable Stats Counters;
};

} // namespace salssa

#endif // SALSSA_MERGE_CANDIDATEINDEX_H
