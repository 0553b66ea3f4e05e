//===- merge/CrossModuleMerger.h - Whole-program merge session ----------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The merging session — the one path every merge takes into
/// MergePipeline (runFunctionMerging is a one-module session). The paper
/// evaluates SalSSA inside one translation unit, but its ranking and
/// alignment machinery is module-agnostic; following the direction of
/// "Optimistic Global Function Merger" (Lee et al.), this session links
/// any number of Modules into one candidate pool and lets the
/// MergePipeline rank, attempt and commit merges across module
/// boundaries.
///
/// Session lifecycle:
///
///   CrossModuleMerger Session(Options);
///   Session.addModule(M0);   // registration order is deterministic state
///   Session.addModule(M1);
///   ...
///   Session.setHostModule(M1);          // optional; default = first added
///   CrossModuleStats S = Session.run(); // one shot
///
/// run() begins with linker-style symbol resolution
/// (ir/SymbolResolution.h): same-named external declarations across the
/// registered modules are bound to one canonical function and call
/// sites retargeted, so calls into common libraries align across module
/// boundaries — without this binding step, clone families split across
/// translation units fail to match at every call site and cross-module
/// merging loses most of its profit.
///
/// The session then sorts the pool into *merge-compatibility classes*:
/// pairs with different return types rank at +inf and never survive, and
/// a merged function keeps its inputs' return type, so the
/// per-return-type classes are provably independent, including every
/// remerge generation. runClassPipelines (MergePipeline.h) — the runner
/// MergeService shares — runs one MergePipeline per class, concurrently
/// on MergeDriverOptions::ShardCount workers (1 = one class after
/// another), and splices the results into the real host serially, in
/// the exact order one pipeline over the whole pool would have produced
/// them — same records, same unique-name sequence, same function order.
///
/// In *every* selection mode the result is bit-identical at every
/// ShardCount x thread count (tests/sharded_session_test.cpp): Distance
/// gets this from the class independence above, the profit-guided modes
/// from calibrating within the class (MergePipeline.h). This is also what
/// lets one DecisionCachePath warm sessions at any ShardCount.
///
/// Host module: every merged function materializes in exactly one
/// designated module, the *host* (default: the first registered module).
/// Attempts build merged functions in per-class scratch modules (and
/// per-task staging modules); the splice moves every winner into the
/// host with Module::takeFunction/adoptFunction, and the commit stage
/// rewrites both inputs — in whichever modules they live — into thunks
/// that tail-call the merged function. Thunks keep each input's name,
/// signature and module, so every caller in every registered module (and
/// any external caller) is rewritten *implicitly*: call sites are
/// untouched, the callee's body dispatches. This is the paper's committing scheme, applied across
/// modules; the merged function is externally visible by construction
/// since calls resolve by Function pointer, not by per-module symbol
/// tables. Call-site redirection (rewriting callers to invoke the merged
/// function directly and dropping dead thunks) is a size win only with
/// visibility information this IR does not model, so the profitability
/// model keeps charging two thunks per commit (SizeModel), exactly as in
/// the single-module driver.
///
/// Determinism contract: pool order is (size desc, module registration
/// order, creation order) — all deterministic — and the MergePipeline's
/// optimistic-commit replay is module-count-agnostic, so for any module
/// set the session commits identical merges with identical records,
/// names and module bytes at every thread count and ShardCount.
///
/// Candidate selection: the session's global greedy order can consume
/// partners that per-module runs pair better — at a coarse split (K=2)
/// distance-ranked sessions can land a hair below per-module merging.
/// MergeDriverOptions::Selection = Profit/Adaptive re-ranks each
/// entry's slate by estimated profit with same-module tie-breaking
/// (prefer the local partner at equal score, leaving other modules'
/// partners for their own near-clones), which restores session >=
/// per-module at every split (bench_cross_module enforces it; the K=2
/// regression lives in tests/cross_module_test.cpp). See "Candidate
/// selection" in the directory README.
///
/// Ownership/teardown: after a session, merged functions in the host keep
/// operand references to input modules' globals. Own the registered
/// modules with a ModuleGroup (ir/Module.h) so teardown order cannot
/// dangle those references. The class scratch modules are internal and
/// are destroyed — provably empty — before run() returns.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_MERGE_CROSSMODULEMERGER_H
#define SALSSA_MERGE_CROSSMODULEMERGER_H

#include "merge/MergeDriver.h"
#include <cstdint>
#include <utility>
#include <vector>

namespace salssa {

class Function;
class Module;

/// Aggregate results of one cross-module session.
struct CrossModuleStats {
  /// The pipeline's stats, exactly as a single-module run reports them
  /// (records in serial order, CPU-second accounting, etc.).
  MergeDriverStats Driver;
  unsigned NumModules = 0;
  /// Commits pairing functions from different modules — the merges a
  /// per-module run structurally cannot find.
  unsigned CrossModuleMerges = 0;
  /// Commits whose inputs shared a module.
  unsigned IntraModuleMerges = 0;
  /// Link-step symbol resolution (ir/SymbolResolution.h), run before
  /// ranking: external symbols bound across modules, and call sites
  /// retargeted to their canonical callees.
  unsigned CanonicalSymbols = 0;
  unsigned RetargetedCalls = 0;
  /// Sum of estimateModuleSize over the registered modules, before and
  /// after the session (same SizeModel the profitability decisions use).
  uint64_t SizeBefore = 0;
  uint64_t SizeAfter = 0;

  double reductionPercent() const {
    if (SizeBefore == 0)
      return 0;
    return 100.0 * (1.0 - double(SizeAfter) / double(SizeBefore));
  }
};

/// One cross-module merging session: register modules, optionally pick a
/// host, run once. The session borrows the modules — it does not own
/// them — and must not outlive them.
class CrossModuleMerger {
public:
  explicit CrossModuleMerger(const MergeDriverOptions &Options);

  /// Registers \p M. All registered modules must share one Context.
  /// Registration order is deterministic session state (it breaks pool
  /// ties); callers wanting reproducible runs must register in a fixed
  /// order.
  void addModule(Module &M);

  /// Designates \p M (already registered) as the host module that will
  /// own every merged function, overriding MergeDriverOptions::Host.
  /// Without an explicit host, run() resolves the configured HostPolicy
  /// (First — the legacy default —, Biggest, or Hottest; see
  /// selectHostModule).
  void setHostModule(Module &M);

  /// The explicit host, or — after run() — the policy-resolved one;
  /// before run() resolves a policy this reports the would-be
  /// HostPolicy::First choice.
  Module *hostModule() const { return Host; }
  size_t numModules() const { return Modules.size(); }

  /// Runs the session to quiescence. Call exactly once, after all
  /// addModule calls.
  CrossModuleStats run();

private:
  MergeDriverOptions Options;
  std::vector<Module *> Modules;
  Module *Host = nullptr;
  bool ExplicitHost = false;
  bool Ran = false;
};

/// Resolves \p Policy over \p Modules (registration order): the module
/// every merged function will materialize in. Biggest measures
/// estimateModuleSize under \p Arch; Hottest counts call sites across
/// the whole set whose callee is *defined* in the candidate module —
/// sessions call this AFTER cross-module symbol resolution, so calls
/// that reached a definition through a per-TU extern declaration count
/// toward the definition's module. All ties resolve to the
/// earlier-registered module. Returns null for an empty set.
Module *selectHostModule(const std::vector<Module *> &Modules,
                         HostPolicy Policy, TargetArch Arch);

/// The same election scored over an explicit list of (function, index
/// into \p Modules) pairs instead of the modules' own functions: Biggest
/// sums each listed function's estimateFunctionSize into its module,
/// Hottest counts the call sites in the listed bodies. MergeService
/// scores its archived pristine bodies this way, so a delta elects
/// exactly like a cold run over the same pool.
Module *selectHostModule(
    const std::vector<Module *> &Modules,
    const std::vector<std::pair<const Function *, uint32_t>> &Functions,
    HostPolicy Policy, TargetArch Arch);

} // namespace salssa

#endif // SALSSA_MERGE_CROSSMODULEMERGER_H
