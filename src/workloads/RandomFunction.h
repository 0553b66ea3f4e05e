//===- workloads/RandomFunction.h - Random SSA function generation -----------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic random generation of well-formed SSA functions, and
/// "clone-with-drift" mutation. Together these synthesize the function
/// populations that drive the merging experiments:
///
///  - *clone families* model C++ template instantiations (the dealII /
///    parest effect in the paper: many highly similar functions);
///  - *drifted clones* model partially similar code (shared skeleton,
///    divergent details) where alignment finds partial matches;
///  - *independent functions* model the dissimilar remainder.
///
/// The generator emits loops and if/else diamonds with real phi-nodes —
/// the code shape whose register demotion penalty motivates the paper
/// (Fig 5) — plus calls to a shared pool of external "library" functions,
/// global-table accesses, and optionally invoke/landingpad clusters.
/// Generated loops have constant trip counts so the interpreter-based
/// differential tests and runtime measurements terminate.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_WORKLOADS_RANDOMFUNCTION_H
#define SALSSA_WORKLOADS_RANDOMFUNCTION_H

#include "ir/Module.h"
#include "support/RNG.h"

namespace salssa {

/// Knobs for one generated function.
struct RandomFunctionOptions {
  /// Target instruction count (approximate; structure granularity means
  /// the result lands within ~20%).
  unsigned TargetSize = 60;
  /// Percent chance that a statement becomes control flow (if/loop).
  unsigned ControlFlowPercent = 30;
  /// Percent of control-flow statements that are loops (phi-rich shape).
  unsigned LoopPercent = 50;
  /// Percent chance of join-point phis after if/else diamonds.
  unsigned JoinPhiPercent = 60;
  /// Percent chance a call statement uses invoke + landingpad.
  unsigned InvokePercent = 0;
  /// Maximum nesting depth of structured control flow.
  unsigned MaxDepth = 3;
  /// How many distinct *return types* the generator draws from, 1-5 over
  /// the fixed palette [i32, i64, i1, f64, void]. Return types are the
  /// merge-compatibility boundary (cross-type pairs never merge), so
  /// variety > 1 is what gives sharded sessions real partitions to split
  /// (CrossModuleMerger.h). The default 1 keeps the legacy i32-only
  /// shape AND the legacy RNG stream — no draw is consumed — so every
  /// pre-variety workload rebuilds byte-identically.
  unsigned RetTypeVariety = 1;
};

/// Shared context for generating one module's functions: the external
/// "library" declarations and global tables calls and memory ops target.
///
/// \p SymbolSuffix names the library/global symbols ("libN_<suffix>",
/// "tblN_<suffix>"); it defaults to the module's own name, which keeps
/// symbols distinct when many benchmark modules share a Context. Module
/// groups pass one shared suffix instead, so every "translation unit"
/// declares the *same-named* externals — the shape real TUs compiled
/// from common headers have, and what cross-module symbol resolution
/// (ir/SymbolResolution.h) binds back together at merge time.
class WorkloadEnvironment {
public:
  WorkloadEnvironment(Module &M, RNG &Rng, unsigned NumLibFunctions = 8,
                      unsigned NumGlobals = 4,
                      const std::string &SymbolSuffix = "");

  /// Re-attaches an environment to a module whose library declarations
  /// and global tables already exist (one previously built by the
  /// constructor above): the declarations are picked up in creation
  /// order, the globals likewise. This is how the edit-script generator
  /// (workloads/EditScript.h) adds functions to a live, possibly
  /// already-merged module mid-session — generated code only ever calls
  /// declarations, and originals/thunks/merged functions are all
  /// definitions, so the declaration scan recovers exactly the library.
  static WorkloadEnvironment attach(Module &M);

  Module &getModule() { return Mod; }
  const std::vector<Function *> &libFunctions() const { return LibFns; }
  const std::vector<GlobalVariable *> &globals() const { return Globals; }

private:
  explicit WorkloadEnvironment(Module &M) : Mod(M) {}
  Module &Mod;
  std::vector<Function *> LibFns;
  std::vector<GlobalVariable *> Globals;
};

/// Generates one well-formed function named \p Name. The signature is
/// randomized (i32-dominated, matching real integer code).
Function *generateRandomFunction(WorkloadEnvironment &Env, RNG &Rng,
                                 const std::string &Name,
                                 const RandomFunctionOptions &Options);

/// Mutation strength for cloneWithDrift.
struct DriftOptions {
  /// Per-instruction mutation probability, percent. 0 = exact clone.
  unsigned MutatePercent = 10;
  /// Per-instruction probability of inserting an extra instruction,
  /// percent (structural drift).
  unsigned InsertPercent = 3;
  /// Per-site probability, percent, of a *semantics-preserving* syntactic
  /// rewrite: commuted operands (binops and symmetric/mirrored compares),
  /// temporary renames, reassociation rotations of integer chains, dead
  /// stores into fresh never-read stack slots, redundant recomputes of
  /// pure expressions, and add/sub-by-constant spelling flips
  /// (x + C <-> x - (2^w - C), exact under wraparound). Unlike
  /// MutatePercent/InsertPercent the clone
  /// stays interpreter-equivalent to its base — this knob generates the
  /// "written differently, means the same" families the Canonicalize
  /// shadow view exists to recover. The default 0 consumes no RNG draws,
  /// so every legacy workload rebuilds byte-identically.
  unsigned SyntacticPercent = 0;
};

/// Clones \p Base as \p Name and perturbs it: constants change, opcodes
/// swap within their class, cmp predicates flip, commutative operands
/// swap, call targets retarget to same-signature library functions, and
/// extra instructions appear. The result is always verifier-clean.
///
/// \p Env may belong to a *different* module than \p Base (the
/// cross-module suites place clone-family members in different
/// "translation units"). The clone then lands in Env's module with its
/// library-call targets and global references remapped positionally to
/// Env's counterparts — which requires both modules' environments to
/// have been built from identical RNG streams, so their library
/// signatures and global shapes line up (buildBenchmarkModuleGroup
/// guarantees this, modelling TUs compiled from the same headers).
Function *cloneWithDrift(Function *Base, const std::string &Name,
                         WorkloadEnvironment &Env, RNG &Rng,
                         const DriftOptions &Options);

/// The mutation half of cloneWithDrift, applied to an existing function
/// *in place* (no clone): constants drift, opcodes swap within their
/// class, predicates flip, calls retarget among Env's same-signature
/// library functions, extra instructions appear. The result is always
/// verifier-clean and the function's signature never changes — which is
/// what makes this the edit model for incremental sessions
/// (workloads/EditScript.h): a "changed" function keeps its identity and
/// merge-compatibility class, only its body drifts.
void driftFunctionBody(Function *F, WorkloadEnvironment &Env, RNG &Rng,
                       const DriftOptions &Options);

} // namespace salssa

#endif // SALSSA_WORKLOADS_RANDOMFUNCTION_H
