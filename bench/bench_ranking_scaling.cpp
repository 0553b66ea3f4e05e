//===- bench/bench_ranking_scaling.cpp - Pairing-phase scaling -----------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Measures the candidate-pairing phase (fingerprint ranking only, not
// alignment/codegen) as the pool grows: the driver's ranking traffic over
// one pool's fingerprints — every live entry, in pool order, asks for its
// top t, then retires together with its nearest candidate (the commit
// pattern) — answered two ways:
//
//   brute   - the paper's O(n²·buckets) all-pairs rescan, i.e. the
//             exactness oracle of tests/RankingOracle.h
//   index   - CandidateIndex: LSH-seeded, size-bounded exact top-k
//
// Both must return identical hit lists (checked here and in
// ranking_test.cpp), so the comparison is pure pairing cost. The printed
// exponent is the log-log slope of pairing time between consecutive pool
// sizes: ~2 for brute force, ~1 for the index.
//
// Modes:
//   (default)  scaling table over pool sizes 64..4096
//   --smoke    one small pool; FAILS (exit 1) if the index is slower
//              than 1.5x brute force or returns different hits — wired
//              into ctest as a perf-regression guard.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "RankingOracle.h"
#include "support/Chrono.h"
#include <algorithm>
#include <chrono>
#include <cstring>

using namespace salssa;
using namespace salssa::bench;

namespace {

/// Candidates ranked per pool entry (the exploration threshold t).
constexpr unsigned TopT = 2;

/// Fingerprints of a clone-heavy pool of \p NumFunctions functions, in the
/// driver's pool order (stable by descending size).
std::vector<Fingerprint> poolFingerprints(unsigned NumFunctions,
                                          Context &Ctx) {
  BenchmarkProfile P;
  P.Name = "pool" + std::to_string(NumFunctions);
  P.NumFunctions = NumFunctions;
  P.MinSize = 6;
  P.AvgSize = 45;
  P.MaxSize = 220;
  P.CloneFamilyPercent = 45;
  P.MinFamily = 2;
  P.MaxFamily = 5;
  P.FamilyDriftPercent = 12;
  P.LoopPercent = 50;
  P.Seed = 0x5ca11ab1;
  std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
  std::vector<Fingerprint> FPs;
  for (Function *F : M->functions())
    if (F->isMergeable())
      FPs.push_back(Fingerprint::compute(*F));
  std::stable_sort(FPs.begin(), FPs.end(),
                   [](const Fingerprint &A, const Fingerprint &B) {
                     return A.Size > B.Size;
                   });
  return FPs;
}

struct PairingRun {
  double Seconds = 0;
  std::vector<std::vector<CandidateIndex::Hit>> Hits; ///< one list per query
};

/// Replays the driver's ranking traffic over \p FPs with the index, or
/// with the brute-force oracle when \p Brute is set.
PairingRun replayPairing(const std::vector<Fingerprint> &FPs, bool Brute) {
  CandidateIndex Index;
  OraclePool Oracle;
  PairingRun R;
  auto T0 = std::chrono::steady_clock::now();
  for (uint32_t I = 0; I < FPs.size(); ++I)
    Brute ? Oracle.insert(I, FPs[I]) : Index.insert(I, FPs[I]);
  std::vector<bool> Live(FPs.size(), true);
  auto retire = [&](uint32_t Id) {
    Live[Id] = false;
    Brute ? Oracle.retire(Id) : Index.retire(Id);
  };
  for (uint32_t I = 0; I < FPs.size(); ++I) {
    if (!Live[I])
      continue;
    std::vector<CandidateIndex::Hit> Hits =
        Brute ? bruteForceTopK(Oracle, FPs[I], TopT, I)
              : Index.query(FPs[I], TopT, I);
    retire(I);
    if (!Hits.empty())
      retire(Hits.front().Id);
    R.Hits.push_back(std::move(Hits));
  }
  R.Seconds = secondsSince(T0);
  return R;
}

bool sameHits(const PairingRun &A, const PairingRun &B) {
  if (A.Hits.size() != B.Hits.size())
    return false;
  for (size_t Q = 0; Q < A.Hits.size(); ++Q) {
    if (A.Hits[Q].size() != B.Hits[Q].size())
      return false;
    for (size_t H = 0; H < A.Hits[Q].size(); ++H)
      if (A.Hits[Q][H].Id != B.Hits[Q][H].Id ||
          A.Hits[Q][H].Distance != B.Hits[Q][H].Distance)
        return false;
  }
  return true;
}

/// Best of \p Repeats replays (damps scheduler noise; the hit lists are
/// deterministic, so any replay's are representative).
PairingRun bestOf(const std::vector<Fingerprint> &FPs, bool Brute,
                  int Repeats) {
  PairingRun Best = replayPairing(FPs, Brute);
  for (int R = 1; R < Repeats; ++R)
    Best.Seconds = std::min(Best.Seconds, replayPairing(FPs, Brute).Seconds);
  return Best;
}

int smokeMode() {
  // Small-pool guard: the index must return the oracle's hits and must
  // not be slower than 1.5x brute force. Run up to 3 attempts so a noisy
  // neighbour cannot fail the suite spuriously.
  const unsigned PoolSize = 256;
  printHeader("bench_ranking_scaling --smoke (pool " +
              std::to_string(PoolSize) + ")");
  Context Ctx;
  const std::vector<Fingerprint> FPs = poolFingerprints(PoolSize, Ctx);
  double BestRatio = 1e9;
  for (int Attempt = 0; Attempt < 3; ++Attempt) {
    PairingRun Brute = replayPairing(FPs, /*Brute=*/true);
    PairingRun Index = replayPairing(FPs, /*Brute=*/false);
    if (!sameHits(Brute, Index)) {
      std::printf("FAIL: the index and the brute-force oracle returned "
                  "different hits\n");
      return 1;
    }
    double Ratio = Brute.Seconds > 0 ? Index.Seconds / Brute.Seconds : 0.0;
    BestRatio = std::min(BestRatio, Ratio);
    std::printf("attempt %d: brute %.3f ms, index %.3f ms, ratio %.3fx "
                "(%zu queries)\n",
                Attempt + 1, Brute.Seconds * 1e3, Index.Seconds * 1e3, Ratio,
                Index.Hits.size());
    if (Ratio <= 1.5) {
      JsonSummary Json("bench_ranking_scaling");
      Json.add("pool_functions", uint64_t(PoolSize));
      Json.add("pairing_ratio_vs_brute", Ratio);
      Json.add("index_pairing_seconds", Index.Seconds);
      Json.add("queries", uint64_t(Index.Hits.size()));
      std::printf("PASS: index pairing is %.2fx of brute force "
                  "(threshold 1.5x)\n", Ratio);
      return 0;
    }
  }
  std::printf("FAIL: index pairing stayed above 1.5x brute force "
              "(best %.2fx)\n", BestRatio);
  return 1;
}

int scalingMode() {
  printHeader("Pairing-phase scaling: brute-force rescan vs CandidateIndex");
  std::printf("%-8s %14s %14s %9s %8s %8s %10s\n", "pool", "brute (ms)",
              "index (ms)", "speedup", "a.brute", "a.index", "same-hits");
  printRule(80);

  // The 1024+ rows are where the flat size-bucket expansion pays off:
  // the multimap walk's pointer chasing used to push the index exponent
  // toward ~1.6 up here.
  std::vector<unsigned> Sizes{64, 128, 256, 512, 1024, 2048, 4096};
  unsigned Scale = benchScale();
  if (Scale > 1)
    for (unsigned &S : Sizes)
      S = std::max(8u, S / Scale);

  double PrevBrute = 0, PrevIndex = 0;
  unsigned PrevN = 0;
  bool AllEqual = true;
  double SpeedupAtLargest = 0;
  for (unsigned N : Sizes) {
    Context Ctx;
    const std::vector<Fingerprint> FPs = poolFingerprints(N, Ctx);
    PairingRun Brute = bestOf(FPs, /*Brute=*/true, 3);
    PairingRun Index = bestOf(FPs, /*Brute=*/false, 3);
    bool Equal = sameHits(Brute, Index);
    AllEqual &= Equal;
    double Speedup = Index.Seconds > 0 ? Brute.Seconds / Index.Seconds : 0.0;
    SpeedupAtLargest = Speedup;
    // Log-log slope vs the previous pool size: ~2 quadratic, ~1 linear.
    auto slope = [&](double Cur, double Prev) {
      if (PrevN == 0 || Prev <= 0 || Cur <= 0)
        return 0.0;
      return std::log(Cur / Prev) / std::log(double(N) / PrevN);
    };
    std::printf("%-8u %14.3f %14.3f %8.1fx %8.2f %8.2f %10s\n", N,
                Brute.Seconds * 1e3, Index.Seconds * 1e3, Speedup,
                slope(Brute.Seconds, PrevBrute),
                slope(Index.Seconds, PrevIndex), Equal ? "yes" : "NO");
    std::fflush(stdout);
    PrevBrute = Brute.Seconds;
    PrevIndex = Index.Seconds;
    PrevN = N;
  }
  printRule(80);
  // Exit status enforces both halves of the acceptance criterion; the
  // speedup check only applies at unscaled pool sizes (small scaled
  // pools sit below the index's break-even point).
  bool SpeedupOk = Scale > 1 || SpeedupAtLargest >= 5.0;
  std::printf("\nacceptance: identical hits on every pool: %s; "
              "speedup at %u functions: %.1fx (need >= 5x%s)\n",
              AllEqual ? "yes" : "NO", PrevN, SpeedupAtLargest,
              Scale > 1 ? ", not enforced when scaled" : "");
  return AllEqual && SpeedupOk ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      return smokeMode();
  return scalingMode();
}
