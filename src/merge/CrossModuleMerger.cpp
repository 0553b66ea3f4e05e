//===- merge/CrossModuleMerger.cpp - Whole-program merge session ---------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "merge/CrossModuleMerger.h"
#include "codesize/SizeModel.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "ir/SymbolResolution.h"
#include "merge/DecisionCache.h"
#include "merge/MergePipeline.h"
#include "merge/StructuralHash.h"
#include "support/Chrono.h"
#include "support/ThreadPool.h"
#include "transforms/Canonicalize.h"
#include "transforms/Mem2Reg.h"
#include "transforms/Reg2Mem.h"
#include "transforms/Simplify.h"
#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_map>
#include <utility>

using namespace salssa;

Module *salssa::selectHostModule(const std::vector<Module *> &Modules,
                                 HostPolicy Policy, TargetArch Arch) {
  if (Modules.empty())
    return nullptr;
  if (Policy == HostPolicy::First || Modules.size() == 1)
    return Modules.front();

  std::vector<uint64_t> Score(Modules.size(), 0);
  if (Policy == HostPolicy::Biggest) {
    for (size_t I = 0; I < Modules.size(); ++I)
      Score[I] = estimateModuleSize(*Modules[I], Arch);
  } else { // HostPolicy::Hottest
    // Call-site in-degree of each module's definitions, counted over the
    // whole registered set. Sessions resolve the policy AFTER linker-style
    // symbol resolution, so cross-TU calls — retargeted from per-module
    // extern declarations onto their canonical definitions — count toward
    // the definition's module. Callees still left as declarations host no
    // body to be "hot" and are skipped.
    std::unordered_map<const Module *, size_t> Rank;
    for (size_t I = 0; I < Modules.size(); ++I)
      Rank[Modules[I]] = I;
    for (Module *M : Modules)
      for (Function *F : M->functions())
        for (BasicBlock *BB : *F)
          for (Instruction *I : *BB) {
            auto *CB = dyn_cast<CallBase>(I);
            if (!CB || !CB->getCallee() || CB->getCallee()->isDeclaration())
              continue;
            auto It = Rank.find(CB->getCallee()->getParent());
            if (It != Rank.end())
              ++Score[It->second];
          }
  }
  // Max score, ties to the earlier-registered module.
  size_t BestIdx = 0;
  for (size_t I = 1; I < Modules.size(); ++I)
    if (Score[I] > Score[BestIdx])
      BestIdx = I;
  return Modules[BestIdx];
}

CrossModuleMerger::CrossModuleMerger(const MergeDriverOptions &Options)
    : Options(Options) {}

void CrossModuleMerger::addModule(Module &M) {
  assert(!Ran && "modules must be registered before run()");
  assert(std::find(Modules.begin(), Modules.end(), &M) == Modules.end() &&
         "module registered twice");
  assert((Modules.empty() ||
          &M.getContext() == &Modules.front()->getContext()) &&
         "all registered modules must share one Context");
  Modules.push_back(&M);
  if (!Host)
    Host = &M;
}

void CrossModuleMerger::setHostModule(Module &M) {
  assert(!Ran && "host must be chosen before run()");
  assert(std::find(Modules.begin(), Modules.end(), &M) != Modules.end() &&
         "host must be a registered module");
  Host = &M;
  ExplicitHost = true;
}

namespace {

/// Everything one shard owns for its independent pipeline run.
struct ShardState {
  std::unique_ptr<Module> ScratchHost; ///< merged fns materialize here
  std::unordered_set<const Function *> PoolFns;
  MergeDriverStats Stats;
  std::vector<PipelineEntryTrace> Journal;
  /// This shard's serial-commit-stage cache recordings; applied to the
  /// shared DecisionCache (and persisted) after splice. Keys never
  /// collide across shards — a (hash, occurrence) key belongs to one
  /// merge-compatibility class, and a class lives on one shard.
  std::vector<DecisionCacheUpdate> CacheUpdates;
  uint64_t Weight = 0; ///< Σ class CostSum (the balancer's load)
};

/// Deterministic spread seed for equal-weight classes: mixes the class's
/// first-appearance rank with its fingerprint coarse bucket
/// (splitmix64-style finalizer).
uint64_t classSeed(uint32_t FirstSeen, uint32_t CoarseBucket) {
  uint64_t X = (uint64_t(FirstSeen) << 32) | CoarseBucket;
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace

CrossModuleStats CrossModuleMerger::run() {
  assert(!Modules.empty() && "run() with no registered modules");
  assert(!Ran && "a session runs exactly once");
  Ran = true;

  CrossModuleStats Stats;
  Stats.NumModules = static_cast<unsigned>(Modules.size());
  auto T0 = std::chrono::steady_clock::now();
  const bool IsFMSA = Options.Technique == MergeTechnique::FMSA;
  Context &Ctx = Modules.front()->getContext();

  for (Module *M : Modules)
    Stats.SizeBefore += estimateModuleSize(*M, Options.Arch);

  // Link-step symbol resolution first: bind same-named external
  // declarations to one canonical function per symbol, so calls into
  // common libraries align across modules (see ir/SymbolResolution.h —
  // without this, split clone families stop matching at every call
  // site). A no-op when only one module is registered.
  SymbolResolutionStats Resolution = resolveCalleesAcrossModules(Modules);
  Stats.CanonicalSymbols = Resolution.CanonicalSymbols;
  Stats.RetargetedCalls = Resolution.RetargetedCalls;

  // Host policy resolves after symbol resolution so HostPolicy::Hottest
  // counts cross-TU call sites against their canonical definitions'
  // module (see selectHostModule).
  if (!ExplicitHost)
    Host = selectHostModule(Modules, Options.Host, Options.Arch);

  // Snapshot profitability baselines before any preprocessing.
  std::map<Function *, unsigned> BaselineSize;
  for (Module *M : Modules)
    for (Function *F : M->functions())
      if (!F->isDeclaration())
        BaselineSize[F] = estimateFunctionSize(*F, Options.Arch);

  // FMSA preprocessing: demote every definition, in every module.
  if (IsFMSA)
    for (Module *M : Modules)
      for (Function *F : M->functions())
        if (!F->isDeclaration())
          demoteRegistersToMemory(*F, Ctx);

  // Session-level fault resolution, mirroring the pipeline's own: the
  // pre-cluster pass and the cache I/O sit outside any pipeline, so they
  // resolve the SALSSA_FAULTS fallback themselves.
  FaultInjectionConfig SessionFaults = Options.Faults.armed()
                                           ? Options.Faults
                                           : FaultInjectionConfig::fromEnv();
  const FaultInjectionConfig *SessionFaultsPtr =
      SessionFaults.armed() ? &SessionFaults : nullptr;

  // Structural-hash fast path, serially BEFORE the plan: exact-clone
  // groups commit into the real host as one body + direct thunks (one
  // name burn per group, ahead of every splice burn), and the plan below
  // only sees the surviving pool (thunked members are gone, the cluster
  // bodies may merge further).
  std::unordered_set<const Function *> ClusterPool;
  const bool Clustering = Options.HashClustering;
  if (Clustering) {
    PreClusterStats PCS;
    ClusterPool = preClusterIdenticalFunctions(Modules, *Host, Options.Arch,
                                               BaselineSize, SessionFaultsPtr,
                                               PCS);
    Stats.Driver.HashClusterCommits = PCS.ClusterCommits;
    Stats.Driver.FingerprintFaults = PCS.FingerprintFaults;
  }

  // Persistent decision cache, shared by every shard: loaded (and
  // self-invalidated on damage or an options/version mismatch) once,
  // read-only while shards run, appended to from the shards'
  // serial-commit recordings after splice.
  DecisionCache Cache;
  const bool UseCache = !Options.DecisionCachePath.empty();
  uint64_t OptionsFP = 0;
  if (UseCache) {
    OptionsFP = DecisionCache::optionsFingerprint(Options);
    if (Cache.load(Options.DecisionCachePath, OptionsFP, SessionFaultsPtr) ==
        DecisionCache::LoadOutcome::Rejected)
      ++Stats.Driver.CacheLoadRejected;
  }

  // --- Partition ------------------------------------------------------------
  // Fingerprint the pool once (post FMSA demotion), discover the
  // merge-compatibility classes through a planning CandidateIndex, and
  // remember the global size-descending walk — the splice replays it.
  struct PlanEntry {
    Function *F;
    Fingerprint FP; ///< kept whole: shards reuse it via the shard scope
  };
  std::vector<PlanEntry> Plan;
  CandidateIndex Planner;
  for (Module *M : Modules)
    for (Function *F : M->functions()) {
      // With clustering on, the include-set is the authoritative pool
      // predicate (thunked members are still "mergeable" but gone from
      // the session's pool; cluster bodies joined it).
      if (Clustering ? !ClusterPool.count(F) : !F->isMergeable())
        continue;
      Fingerprint FP = fingerprintFor(*F, Options.Canonicalize);
      Planner.insert(static_cast<uint32_t>(Plan.size()), FP, 0);
      Plan.push_back({F, FP});
    }
  std::stable_sort(Plan.begin(), Plan.end(),
                   [](const PlanEntry &A, const PlanEntry &B) {
                     return A.FP.Size > B.FP.Size;
                   });
  // The plan is final now; hand every shard a pointer view of its
  // fingerprints so buildPool does not recompute them.
  std::unordered_map<const Function *, const Fingerprint *> FPByFn;
  FPByFn.reserve(Plan.size());
  for (const PlanEntry &E : Plan)
    FPByFn.emplace(E.F, &E.FP);

  std::vector<CandidateIndex::PartitionSummary> Classes =
      Planner.partitionSummaries();
  const unsigned NumThreads =
      ThreadPool::resolveThreadCount(Options.NumThreads);
  const unsigned Requested =
      Options.ShardCount == 0 ? NumThreads : Options.ShardCount;
  const unsigned NumShards = static_cast<unsigned>(std::min<size_t>(
      std::max<size_t>(1, Classes.size()), std::max(1u, Requested)));

  // Longest-processing-time packing: classes by (weight desc, seed) onto
  // the currently-lightest shard. Both orders are total and
  // deterministic, so the assignment — hence each shard's pool — is too.
  std::stable_sort(Classes.begin(), Classes.end(),
                   [](const CandidateIndex::PartitionSummary &A,
                      const CandidateIndex::PartitionSummary &B) {
                     if (A.CostSum != B.CostSum)
                       return A.CostSum > B.CostSum;
                     return classSeed(A.FirstSeen, A.CoarseBucket) <
                            classSeed(B.FirstSeen, B.CoarseBucket);
                   });
  std::vector<ShardState> Shards(NumShards);
  std::unordered_map<Type *, uint32_t> ShardOf; // class ret type -> shard
  for (const CandidateIndex::PartitionSummary &C : Classes) {
    uint32_t Lightest = 0;
    for (uint32_t S = 1; S < NumShards; ++S)
      if (Shards[S].Weight < Shards[Lightest].Weight)
        Lightest = S;
    ShardOf[C.RetTy] = Lightest;
    Shards[Lightest].Weight += C.CostSum;
  }
  Stats.Driver.ShardCount = NumShards;
  if (!Plan.empty()) {
    uint64_t MaxW = 0, SumW = 0;
    for (const ShardState &S : Shards) {
      MaxW = std::max(MaxW, S.Weight);
      SumW += S.Weight;
    }
    Stats.Driver.ShardImbalance =
        SumW == 0 ? 1.0 : double(MaxW) * NumShards / double(SumW);
  } else {
    Stats.Driver.ShardImbalance = 0;
  }

  std::vector<uint32_t> Walk;
  Walk.reserve(Plan.size());
  for (const PlanEntry &E : Plan) {
    uint32_t S = ShardOf.at(E.FP.RetTy);
    Shards[S].PoolFns.insert(E.F);
    Walk.push_back(S);
  }

  // --- Run the shards -------------------------------------------------------
  // One independent pipeline per shard, materializing into a shard-local
  // scratch host (never marked "staging": shard commits are real
  // commits, and the winners move to the real host at splice time).
  // Shards touch disjoint functions and the shared Context interns under
  // a lock, so running them concurrently is race-free (ir/README.md).
  // Threads left over after one per shard go to the shards' own attempt
  // stages (the pipeline's optimistic inner parallelism is outcome- and
  // journal-identical at every thread count, so this only moves
  // wall-clock): a skewed or single-class pool still saturates the
  // machine instead of degenerating to one serial pipeline.
  MergeDriverOptions ShardOptions = Options;
  ShardOptions.NumThreads = std::max(1u, NumThreads / NumShards);
  for (uint32_t S = 0; S < NumShards; ++S)
    Shards[S].ScratchHost = std::make_unique<Module>(
        Host->getName() + ".shard" + std::to_string(S), Ctx);
  auto runShard = [&](ShardState &Shard) {
    PipelineShardScope Scope;
    Scope.Materialize = Shard.ScratchHost.get();
    Scope.PoolFilter = &Shard.PoolFns;
    Scope.Fingerprints = &FPByFn;
    Scope.Journal = &Shard.Journal;
    if (UseCache) {
      Scope.Cache = &Cache; // read-only while shards run
      Scope.CacheUpdates = &Shard.CacheUpdates;
    }
    MergePipeline Pipeline(Modules, *Host, ShardOptions, BaselineSize,
                           Shard.Stats, Scope);
    Pipeline.run();
  };
  if (NumThreads <= 1 || NumShards <= 1) {
    for (ShardState &Shard : Shards)
      runShard(Shard);
  } else {
    ThreadPool Workers(std::min(NumThreads, NumShards));
    for (ShardState &Shard : Shards)
      Workers.submit([&runShard, &Shard] { runShard(Shard); });
    Workers.wait();
  }

  // --- Splice ---------------------------------------------------------------
  std::vector<SpliceSlice> Slices;
  for (const ShardState &Shard : Shards)
    Slices.push_back({&Shard.Journal, &Shard.Stats});
  spliceSlices(*Host, Slices, std::move(Walk), Options.AllowRemerge,
               Stats.Driver);
#ifndef NDEBUG
  for (const ShardState &Shard : Shards)
    assert(Shard.ScratchHost->functions().empty() &&
           "splice left a merged function behind in a scratch host");
#endif

  // Persist the cache: shard recordings applied in shard order (keys are
  // disjoint across shards) and serialized sorted by key, so the file
  // bytes are identical at every shard and thread count. A failed write
  // (I/O error or injected CacheIO fault) means "no cache for the next
  // run", never a failed session.
  if (UseCache) {
    for (ShardState &Shard : Shards)
      Cache.apply(std::move(Shard.CacheUpdates));
    Cache.save(Options.DecisionCachePath, OptionsFP, SessionFaultsPtr);
  }

  // FMSA post-pass, in every module: the late pipeline re-promotes what
  // demotion left behind in unmerged functions (usually restoring them,
  // hence the tiny residue the paper measures).
  if (IsFMSA)
    for (Module *M : Modules)
      for (Function *F : M->functions()) {
        if (F->isDeclaration())
          continue;
        promoteAllocasToRegisters(*F, Ctx);
        simplifyFunction(*F, Ctx);
      }

  for (Module *M : Modules)
    Stats.SizeAfter += estimateModuleSize(*M, Options.Arch);
  Stats.CrossModuleMerges = Stats.Driver.CrossModuleMerges;
  Stats.IntraModuleMerges =
      Stats.Driver.CommittedMerges - Stats.Driver.CrossModuleMerges;
  Stats.Driver.TotalSeconds = secondsSince(T0);
  return Stats;
}
