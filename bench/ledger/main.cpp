//===- bench/ledger/main.cpp - bench_ledger entry point -----------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Runs one ledger workload per process (see README.md):
//
//   bench_ledger --workload=W [--seed=N] [--seconds=S] [--trace=FILE]
//                [--json=FILE] [--workdir=DIR] [--smoke]
//
// Prints every metric by name with its unit and sample count, checks the
// workload's outputs, and exits non-zero when any operation failed.
// --trace=FILE records a span around every call into a layer, adds the
// layer replay, writes the spans as Chrome trace-event JSON and reports
// every per-layer metric; end-to-end numbers of record come from untraced
// runs only.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace ledger;

namespace {

struct WorkloadEntry {
  const char *Name;
  void (*Run)(const RunConfig &, RunOutputs &);
};

const WorkloadEntry Workloads[] = {
    {"batch_multiclass", runBatchMulticlass},
    {"batch_oneclass", runBatchOneclass},
    {"edit_session", runEditSession},
    {"daemon_mixed", runDaemonMixed},
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_ledger --workload=W [--seed=N] [--seconds=S] "
               "[--trace=FILE] [--json=FILE] [--workdir=DIR] [--smoke]\n"
               "workloads:");
  for (const WorkloadEntry &W : Workloads)
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool flagValue(const char *Arg, const char *Flag, std::string &Out) {
  size_t N = std::strlen(Flag);
  if (std::strncmp(Arg, Flag, N) != 0 || Arg[N] != '=')
    return false;
  Out = Arg + N + 1;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  // Wall-clock start, so compare.py can order runs into pairs.
  const double Started = std::chrono::duration<double>(
                             std::chrono::system_clock::now().time_since_epoch())
                             .count();
  RunConfig C;
  std::string TracePath, JsonPath, V;
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (flagValue(A, "--workload", V))
      C.Workload = V;
    else if (flagValue(A, "--seed", V))
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (flagValue(A, "--seconds", V))
      C.Seconds = std::atof(V.c_str());
    else if (flagValue(A, "--trace", V))
      TracePath = V;
    else if (flagValue(A, "--json", V))
      JsonPath = V;
    else if (flagValue(A, "--workdir", V))
      C.WorkDir = V;
    else if (std::strcmp(A, "--smoke") == 0)
      C.Smoke = true;
    else
      return usage();
  }
  const WorkloadEntry *Entry = nullptr;
  for (const WorkloadEntry &W : Workloads)
    if (C.Workload == W.Name)
      Entry = &W;
  if (!Entry || C.Seconds <= 0)
    return usage();
  C.Trace = !TracePath.empty();
  if (C.Trace)
    Tracer::get().enable();

  RunOutputs Out;
  Entry->Run(C, Out);

  if (C.Trace) {
    for (const auto &[Name, Unit] : layerMetricTable()) {
      bool Seen = false;
      for (const auto &Item : Out.Layers.all())
        Seen |= Item.first == Name;
      if (!Seen) // the workload does not exercise this layer
        Out.Layers.set(Name, 0, Unit, 0);
    }
    Out.Ops.check(Tracer::get().writeChromeTrace(TracePath),
                  "cannot write trace file " + TracePath);
  }

  const uint64_t Attempted = Out.Ops.attempted();
  const uint64_t Failed = Out.Ops.failed();
  const bool Correct = Attempted > 0 && Failed == 0;
  const double FailedRatio = Attempted ? double(Failed) / Attempted : 1.0;
  std::printf("bench_ledger %s seed=%llu seconds=%g%s%s\n", Entry->Name,
              (unsigned long long)C.Seed, C.Seconds, C.Smoke ? " smoke" : "",
              C.Trace ? " traced" : "");
  Out.EndToEnd.print(C.Trace ? "end to end (traced: overhead only)"
                             : "end to end");
  if (C.Trace)
    Out.Layers.print("per layer");
  std::printf("ops: %llu attempted, %llu failed, failed_op_ratio %g\n",
              (unsigned long long)Attempted, (unsigned long long)Failed,
              FailedRatio);

  if (!JsonPath.empty()) {
    std::FILE *F = std::fopen(JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "bench_ledger: cannot write %s\n",
                   JsonPath.c_str());
      return 1;
    }
    std::fprintf(
        F,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"started\": %.3f, \"smoke\": %s, \"traced\": %s, \"correct\": %s, "
        "\"attempted\": %llu, \"failed\": %llu, \"failed_op_ratio\": %.17g, "
        "\"env\": {\"nproc\": %u, \"compiler\": \"%s\"},\n"
        " \"metrics\": %s,\n \"layers\": %s}\n",
        Entry->Name, (unsigned long long)C.Seed, C.Seconds, Started,
        C.Smoke ? "true" : "false", C.Trace ? "true" : "false",
        Correct ? "true" : "false", (unsigned long long)Attempted,
        (unsigned long long)Failed, FailedRatio,
        std::thread::hardware_concurrency(), __VERSION__,
        Out.EndToEnd.json().c_str(), Out.Layers.json().c_str());
    if (std::fclose(F) != 0)
      return 1;
  }
  return Correct ? 0 : 1;
}
