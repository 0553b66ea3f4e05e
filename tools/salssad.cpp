//===- tools/salssad.cpp - The merge daemon binary ----------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
//
// salssad — serve one long-lived incremental merge session over a
// Unix-domain socket (service/Daemon.h). Clients register a
// deterministic module spec and stream edit deltas; the daemon keeps
// the merge warm across all of them, and — when started with
// --decision-cache — across its own restarts (the first session after a
// restart warm-replays from the cache file).
//
//   salssad --socket=/tmp/salssad.sock
//           [--decision-cache=PATH]    # warm-restart cache file
//           [--hash-clustering]        # exact-clone pre-clustering
//           [--quarantine-decay=N]     # strike decay, in epochs
//           [--token-cache=N]          # ApplyDelta idempotency window
//           [--faults=SPEC]            # SALSSA_FAULTS-style injection
//
// The process exits when a client sends Shutdown.
//
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace salssa;

namespace {

bool flagValue(const char *Arg, const char *Name, std::string &Out) {
  size_t N = std::strlen(Name);
  if (std::strncmp(Arg, Name, N) != 0 || Arg[N] != '=')
    return false;
  Out = Arg + N + 1;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: salssad --socket=PATH [--decision-cache=PATH] "
               "[--hash-clustering] "
               "[--quarantine-decay=N] [--token-cache=N] [--faults=SPEC]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonOptions Opts;
  std::string Value;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (flagValue(Arg, "--socket", Value)) {
      Opts.SocketPath = Value;
    } else if (flagValue(Arg, "--decision-cache", Value)) {
      Opts.Defaults.Driver.DecisionCachePath = Value;
    } else if (std::strcmp(Arg, "--hash-clustering") == 0) {
      Opts.Defaults.Driver.HashClustering = true;
    } else if (flagValue(Arg, "--quarantine-decay", Value)) {
      Opts.Defaults.QuarantineDecayEpochs =
          static_cast<unsigned>(std::strtoul(Value.c_str(), nullptr, 10));
    } else if (flagValue(Arg, "--token-cache", Value)) {
      Opts.TokenCacheEntries =
          static_cast<size_t>(std::strtoul(Value.c_str(), nullptr, 10));
    } else if (flagValue(Arg, "--faults", Value)) {
      Opts.Faults = FaultInjectionConfig::parse(Value);
    } else {
      std::fprintf(stderr, "salssad: unknown argument '%s'\n", Arg);
      return usage();
    }
  }
  if (Opts.SocketPath.empty())
    return usage();

  Daemon D(Opts);
  if (!D.start()) {
    std::fprintf(stderr, "salssad: %s\n", D.lastError().c_str());
    return 1;
  }
  std::printf("salssad: listening on %s\n", Opts.SocketPath.c_str());
  std::fflush(stdout);
  D.wait();
  DaemonCounters C = D.counters();
  std::printf("salssad: served %llu requests over %llu connections "
              "(%llu deltas, %llu token replays, %llu healed batches, "
              "%llu injected faults)\n",
              static_cast<unsigned long long>(C.RequestsServed),
              static_cast<unsigned long long>(C.Connections),
              static_cast<unsigned long long>(C.DeltasApplied),
              static_cast<unsigned long long>(C.TokenReplays),
              static_cast<unsigned long long>(C.HealedBatches),
              static_cast<unsigned long long>(C.ProtocolFaultsInjected));
  return 0;
}
