//===- bench/BenchUtils.h - Shared experiment harness -------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the per-figure benchmark binaries: suite
/// execution, reduction computation, geometric means and table printing.
/// Each binary regenerates one table/figure of the paper and prints the
/// measured series next to the paper's published numbers.
///
/// Environment knobs:
///   SALSSA_BENCH_SCALE  - divide every profile's function count by this
///                         factor (quick smoke runs); default 1.
///   SALSSA_BENCH_JSON   - when set, every benchmark's smoke run appends
///                         one JSON object (name + headline metrics) per
///                         line to this file; CI assembles the lines
///                         into the BENCH_ci.json artifact that tracks
///                         the perf trajectory per PR (JsonSummary).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_BENCH_BENCHUTILS_H
#define SALSSA_BENCH_BENCHUTILS_H

#include "codesize/SizeModel.h"
#include "ir/Verifier.h"
#include "merge/MergeDriver.h"
#include "workloads/Suites.h"
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace salssa {
namespace bench {

inline unsigned benchScale() {
  const char *S = std::getenv("SALSSA_BENCH_SCALE");
  if (!S)
    return 1;
  int V = std::atoi(S);
  return V < 1 ? 1 : static_cast<unsigned>(V);
}

inline BenchmarkProfile scaled(BenchmarkProfile P) {
  unsigned S = benchScale();
  if (S > 1) {
    P.NumFunctions = std::max(2u, P.NumFunctions / S);
    P.GiantPairSize /= S;
  }
  return P;
}

inline const char *selectionName(SelectionStrategy S) {
  switch (S) {
  case SelectionStrategy::Distance:
    return "distance";
  case SelectionStrategy::Profit:
    return "profit";
  case SelectionStrategy::Adaptive:
    return "adaptive";
  }
  return "?";
}

/// Result of one (benchmark, configuration) cell.
struct SuiteResult {
  std::string Benchmark;
  uint64_t BaselineSize = 0;
  uint64_t OptimizedSize = 0;
  MergeDriverStats Driver;

  double reductionPercent() const {
    if (BaselineSize == 0)
      return 0;
    return 100.0 * (1.0 - double(OptimizedSize) / double(BaselineSize));
  }
};

/// Builds the profile's module, runs one merge configuration, returns the
/// sizes and driver statistics.
inline SuiteResult runConfiguration(const BenchmarkProfile &Profile,
                                    MergeTechnique Technique, unsigned T,
                                    TargetArch Arch,
                                    bool PhiCoalescing = true) {
  Context Ctx;
  std::unique_ptr<Module> M = buildBenchmarkModule(Profile, Ctx);
  SuiteResult R;
  R.Benchmark = Profile.Name;
  R.BaselineSize = estimateModuleSize(*M, Arch);
  MergeDriverOptions DO;
  DO.Technique = Technique;
  DO.ExplorationThreshold = T;
  DO.Arch = Arch;
  DO.EnablePhiCoalescing = PhiCoalescing;
  R.Driver = runFunctionMerging(*M, DO);
  R.OptimizedSize = estimateModuleSize(*M, Arch);
  VerifierReport VR = verifyModule(*M);
  if (!VR.ok()) {
    std::fprintf(stderr, "verifier FAILED on %s:\n%s\n",
                 Profile.Name.c_str(), VR.str().c_str());
    std::abort();
  }
  return R;
}

/// Geometric mean of size ratios, reported as a reduction percentage.
inline double geomeanReduction(const std::vector<SuiteResult> &Results) {
  double LogSum = 0;
  unsigned N = 0;
  for (const SuiteResult &R : Results) {
    if (R.BaselineSize == 0)
      continue;
    double Ratio = double(R.OptimizedSize) / double(R.BaselineSize);
    LogSum += std::log(std::max(Ratio, 1e-9));
    ++N;
  }
  if (N == 0)
    return 0;
  return 100.0 * (1.0 - std::exp(LogSum / N));
}

/// Geometric mean of arbitrary positive values.
inline double geomean(const std::vector<double> &Values) {
  double LogSum = 0;
  unsigned N = 0;
  for (double V : Values) {
    if (V <= 0)
      continue;
    LogSum += std::log(V);
    ++N;
  }
  return N == 0 ? 0 : std::exp(LogSum / N);
}

/// One benchmark's machine-readable summary line. Collects (key, value)
/// pairs and, when the SALSSA_BENCH_JSON environment variable names a
/// file, appends them as a single JSON object line on destruction —
/// nothing happens without the variable, so interactive runs stay
/// byte-identical. Values are numbers or plain identifier-ish strings;
/// keys are snake_case literals (no escaping is attempted beyond
/// quoting, by construction of the call sites).
class JsonSummary {
public:
  explicit JsonSummary(const std::string &Bench) {
    Line = "{\"bench\": \"" + Bench + "\"";
  }
  JsonSummary(const JsonSummary &) = delete;
  JsonSummary &operator=(const JsonSummary &) = delete;

  void add(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
    Line += ", \"" + Key + "\": " + Buf;
  }
  void add(const std::string &Key, uint64_t V) {
    Line += ", \"" + Key + "\": " + std::to_string(V);
  }
  void add(const std::string &Key, unsigned V) { add(Key, uint64_t(V)); }
  void add(const std::string &Key, const std::string &V) {
    Line += ", \"" + Key + "\": \"" + V + "\"";
  }

  ~JsonSummary() {
    const char *Path = std::getenv("SALSSA_BENCH_JSON");
    if (!Path)
      return;
    if (std::FILE *F = std::fopen(Path, "a")) {
      std::fprintf(F, "%s}\n", Line.c_str());
      std::fclose(F);
    }
  }

private:
  std::string Line;
};

inline void printHeader(const std::string &Title) {
  std::printf("\n=== %s ===\n", Title.c_str());
}

inline void printRule(unsigned Width = 100) {
  for (unsigned I = 0; I < Width; ++I)
    std::putchar('-');
  std::putchar('\n');
}

} // namespace bench
} // namespace salssa

#endif // SALSSA_BENCH_BENCHUTILS_H
