//===- bench/ledger/Workloads.h - The ledger's workloads ----------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four ledger workloads and the traced layer replay. Each workload
/// runs in its own process, builds its inputs from the seed, runs a fixed
/// amount of work derived from --seconds (identical on every commit), checks
/// its outputs and reports end-to-end metrics; a traced run additionally
/// reports every per-layer metric.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_BENCH_LEDGER_WORKLOADS_H
#define SALSSA_BENCH_LEDGER_WORKLOADS_H

#include "Ledger.h"
#include "merge/MergeDriver.h"
#include "service/Protocol.h"
#include <functional>

namespace salssa {
class Context;
}

namespace ledger {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  /// Nominal measuring time. Sets the work quota (reps, epochs, applies)
  /// at the reference rate of each workload, so both sides of a comparison
  /// run the identical work.
  double Seconds = 15;
  bool Smoke = false;  ///< tiny pools and quotas, for harness checks
  bool Trace = false;  ///< spans + layer replay
  std::string WorkDir; ///< working files (decision caches, sockets)

  /// Work units for a measuring time of Seconds at \p UnitsPerSecond,
  /// never below \p Min; \p SmokeUnits under --smoke.
  unsigned quota(double UnitsPerSecond, unsigned Min,
                 unsigned SmokeUnits) const;
  std::string workPath(const std::string &Leaf) const;
};

struct RunOutputs {
  MetricSink EndToEnd;
  MetricSink Layers;
  OpCounter Ops;
  DifferentialResult Differential; ///< summed over every check of the run
};

void runBatchMulticlass(const RunConfig &C, RunOutputs &Out);
void runBatchOneclass(const RunConfig &C, RunOutputs &Out);
void runEditSession(const RunConfig &C, RunOutputs &Out);
void runDaemonMixed(const RunConfig &C, RunOutputs &Out);

/// What the traced layer replay runs on.
struct ReplayInputs {
  /// Builds a fresh copy of the workload's final input pool.
  std::function<salssa::ModuleGroup(salssa::Context &)> Build;
  /// (Name1, Name2) of every attempt the session recorded.
  std::vector<std::pair<std::string, std::string>> Pairs;
  /// Decision cache file the cold rep wrote; empty when the cache is off.
  std::string CachePath;
  /// The session's options (exploration threshold, codegen, cache key).
  salssa::MergeDriverOptions Options;
  /// Recorded wire traffic (daemon_mixed only).
  std::vector<salssa::ApplyDeltaRequest> Requests;
  std::vector<salssa::ApplyDeltaResponse> Responses;
  std::vector<salssa::QueryStatsResponse> StatsResponses;
};

void runLayerReplay(const ReplayInputs &In, RunOutputs &Out);

/// Per-layer metric names and units; a traced run reports every one, with
/// 0 (and 0 samples) for layers its workload does not exercise.
const std::vector<std::pair<const char *, const char *>> &layerMetricTable();

} // namespace ledger

#endif // SALSSA_BENCH_LEDGER_WORKLOADS_H
