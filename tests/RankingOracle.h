//===- tests/RankingOracle.h - Brute-force reference ranking ----*- C++ -*-===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exactness oracle for CandidateIndex::query: the paper's candidate
/// ranking verbatim — scan every live pool entry, sort by (distance,
/// id), truncate — with the full query shape the merge pipeline uses:
///
///   - the ModuleId payload echoed back on every hit;
///   - the bounded extension: up to ExtraK further hits past the top K,
///     but only those within the K-th best distance;
///   - the ProfitModel EstProfit annotation when a model is passed;
///   - cross-return-type exclusion (such pairs are at infinite distance).
///
/// The index is only allowed to be faster than this scan, never
/// different: tests/ranking_test.cpp compares the two hit for hit, and
/// bench_ranking_scaling times them against each other. Header-only so
/// both can include it.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_TESTS_RANKINGORACLE_H
#define SALSSA_TESTS_RANKINGORACLE_H

#include "merge/CandidateIndex.h"
#include "merge/FunctionMerger.h"
#include <algorithm>
#include <vector>

namespace salssa {

/// The pool a CandidateIndex holds, mirrored slot for slot: ids index
/// the vectors, and insert/retire follow the index's own contract.
struct OraclePool {
  std::vector<Fingerprint> FPs;
  std::vector<uint32_t> ModuleIds;
  std::vector<bool> Live;

  void insert(uint32_t Id, const Fingerprint &FP, uint32_t ModuleId = 0) {
    if (Id >= FPs.size()) {
      FPs.resize(Id + 1);
      ModuleIds.resize(Id + 1);
      Live.resize(Id + 1, false);
    }
    FPs[Id] = FP;
    ModuleIds[Id] = ModuleId;
    Live[Id] = true;
  }
  void retire(uint32_t Id) { Live[Id] = false; }
};

/// The brute-force ranking CandidateIndex::query(FP, K, ExcludeId, Model,
/// ExtraK) must reproduce exactly (same parameters, same result; K >= 1,
/// as the pipeline always asks).
inline std::vector<CandidateIndex::Hit>
bruteForceTopK(const OraclePool &Pool, const Fingerprint &FP, unsigned K,
               uint32_t ExcludeId = UINT32_MAX,
               const ProfitModel *Model = nullptr, unsigned ExtraK = 0) {
  std::vector<CandidateIndex::Hit> Hits;
  for (uint32_t J = 0; J < Pool.FPs.size(); ++J) {
    if (J == ExcludeId || !Pool.Live[J])
      continue;
    uint64_t D = fingerprintDistance(FP, Pool.FPs[J]);
    if (D == UINT64_MAX)
      continue; // different return type: never a candidate
    Hits.push_back({D, J, Pool.ModuleIds[J]});
  }
  std::stable_sort(Hits.begin(), Hits.end(),
                   [](const CandidateIndex::Hit &A,
                      const CandidateIndex::Hit &B) {
                     return A.Distance < B.Distance;
                   });
  if (Hits.size() > K) {
    const uint64_t KthBest = Hits[K - 1].Distance;
    size_t End = std::min(Hits.size(), size_t(K) + ExtraK);
    while (End > K && Hits[End - 1].Distance > KthBest)
      --End;
    Hits.resize(End);
  }
  if (Model)
    for (CandidateIndex::Hit &H : Hits)
      H.EstProfit = Model->estimate(FP, Pool.FPs[H.Id], H.Distance);
  return Hits;
}

} // namespace salssa

#endif // SALSSA_TESTS_RANKINGORACLE_H
