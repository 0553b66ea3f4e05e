//===- workloads/Suites.h - Synthetic benchmark suites -------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic stand-ins for SPEC CPU2006, SPEC CPU2017 and MiBench. Each
/// benchmark profile controls the statistics that matter to function
/// merging: how many functions, how large, how phi/loop-rich (the register
/// demotion penalty of Fig 5), and how much similarity exists (clone
/// families for template-heavy C++ code, drifted clones for partially
/// similar C code). MiBench profiles mirror Table 1's published function
/// counts and size ranges exactly. SPEC sizes are scaled down ~10x from
/// the real suites so the full experiment matrix runs in CI time; all
/// relative effects are preserved.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_WORKLOADS_SUITES_H
#define SALSSA_WORKLOADS_SUITES_H

#include "workloads/RandomFunction.h"
#include <memory>
#include <string>
#include <vector>

namespace salssa {

/// Generation parameters of one benchmark program.
struct BenchmarkProfile {
  std::string Name;
  unsigned NumFunctions = 50;
  unsigned MinSize = 4;    ///< instructions
  unsigned AvgSize = 60;
  unsigned MaxSize = 400;
  /// Percent of functions that belong to a clone family (template-like).
  unsigned CloneFamilyPercent = 30;
  /// Family size range.
  unsigned MinFamily = 2;
  unsigned MaxFamily = 5;
  /// Drift applied to family members (percent mutation per instruction).
  unsigned FamilyDriftPercent = 8;
  /// Semantics-preserving syntactic divergence applied to family members
  /// (percent per rewrite site; see DriftOptions::SyntacticPercent):
  /// commutations, temp renames, reassociation rotations, dead stores,
  /// redundant recomputes. Family clones stay interpreter-equivalent to
  /// their base — the workload shape the Canonicalize shadow view
  /// recovers. 0 (default, every stock profile) draws no RNG and keeps
  /// every legacy population byte-identical.
  unsigned SyntacticDriftPercent = 0;
  /// Percent of control-flow statements that are loops: drives phi
  /// density and hence the Reg2Mem inflation of Fig 5.
  unsigned LoopPercent = 50;
  /// Percent of calls emitted as invoke/landingpad (C++ profiles).
  unsigned InvokePercent = 0;
  /// When set, adds one pair of giant similar functions (the
  /// recog_16/recog_26 effect in 403.gcc driving peak memory, §5.5).
  unsigned GiantPairSize = 0;
  /// Distinct return types drawn per function, 1-5 (see
  /// RandomFunctionOptions::RetTypeVariety). 1 — the default for every
  /// stock profile — keeps the legacy i32-only population and RNG
  /// stream; > 1 populates multiple merge-compatibility classes, the
  /// workload shape sharded sessions split on.
  unsigned RetTypeVariety = 1;
  uint64_t Seed = 1;
};

/// Builds the module for one profile (functions + globals + libraries).
std::unique_ptr<Module> buildBenchmarkModule(const BenchmarkProfile &Profile,
                                             Context &Ctx);

/// Builds one profile's function population split across \p NumModules
/// modules ("translation units") round-robin, so clone families span
/// module boundaries — the workload cross-module merging exists for.
/// Every module gets an identically-shaped library/global environment
/// (same signatures, same table shapes — like TUs compiled from the same
/// headers), which is what lets family members in different modules stay
/// alignable. Deterministic in (Profile, NumModules): rebuilding with
/// the same arguments yields byte-identical modules. Returned as a
/// ModuleGroup because cross-module merging leaves cross-module operand
/// references that require group teardown (see ir/Module.h).
ModuleGroup buildBenchmarkModuleGroup(const BenchmarkProfile &Profile,
                                      Context &Ctx, unsigned NumModules);

/// Builds a *heterogeneous* group: every profile's population, each
/// split round-robin across its own \p ModulesPerProfile "translation
/// units" exactly as buildBenchmarkModuleGroup would (same per-profile
/// determinism, same shared-header environments), all owned by one
/// ModuleGroup in profile order — the whole-program shape where several
/// unrelated programs (or libraries) link into one session
/// (one CrossModuleMerger session over the full group).
/// Profiles must have distinct names: symbol suffixes, and hence
/// cross-module symbol resolution, are per-profile.
ModuleGroup
buildSuiteModuleGroup(const std::vector<BenchmarkProfile> &Profiles,
                      Context &Ctx, unsigned ModulesPerProfile);

/// The 19 C/C++ SPEC CPU2006 benchmarks evaluated in the paper.
std::vector<BenchmarkProfile> spec2006Profiles();

/// The 16 C/C++ SPEC CPU2017 benchmarks evaluated in the paper.
std::vector<BenchmarkProfile> spec2017Profiles();

/// The 23 MiBench programs of Table 1 (exact function counts/sizes).
std::vector<BenchmarkProfile> mibenchProfiles();

} // namespace salssa

#endif // SALSSA_WORKLOADS_SUITES_H
