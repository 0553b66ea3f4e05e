//===- merge/MergeService.cpp - Long-lived incremental merge sessions ---------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "merge/MergeService.h"
#include "codesize/SizeModel.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "merge/DecisionCache.h"
#include "support/Chrono.h"
#include "support/ThreadPool.h"
#include "transforms/Canonicalize.h"
#include "transforms/Cloning.h"
#include <algorithm>
#include <cassert>
#include <chrono>

using namespace salssa;

MergeService::MergeService(const MergeServiceOptions &Options)
    : Options(Options) {
  assert(Options.Driver.Technique == MergeTechnique::SalSSA &&
         "MergeService v1 supports the SalSSA technique only (FMSA's "
         "whole-pool demote/promote passes are not incremental)");
}

MergeService::~MergeService() = default;

void MergeService::addModule(Module &M) {
  assert(!Initialized && "modules must be registered before initialize()");
  assert(std::find(Modules.begin(), Modules.end(), &M) == Modules.end() &&
         "module registered twice");
  assert((Modules.empty() ||
          &M.getContext() == &Modules.front()->getContext()) &&
         "all registered modules must share one Context");
  Modules.push_back(&M);
  if (!Host)
    Host = &M;
}

void MergeService::setHostModule(Module &M) {
  assert(!Initialized && "host must be chosen before initialize()");
  assert(std::find(Modules.begin(), Modules.end(), &M) != Modules.end() &&
         "host must be a registered module");
  Host = &M;
  ExplicitHost = true;
}

// --- Per-function bookkeeping ------------------------------------------------

void MergeService::archiveFunction(Function *F, TrackedFunction &TF) {
  if (TF.Archived)
    Archive->eraseFunction(TF.Archived);
  // Identity value/callee maps: the clone keeps operand references into
  // the source module (globals, resolved callees), which is exactly what
  // a later restore must reproduce. The archive module is never
  // registered with any pipeline, printed, or interpreted.
  TF.Archived = cloneFunctionInto(F, *Archive, F->getName(), {}, {});
}

void MergeService::registerFunction(Function *F, uint32_t ModuleId) {
  TrackedFunction &TF = Tracked[F];
  TF.ModuleId = ModuleId;
  TF.FP = fingerprintFor(*F, Options.Driver.Canonicalize);
  TF.Hash = structuralHashFor(*F, Options.Driver.Canonicalize);
  TF.Baseline = estimateFunctionSize(*F, Options.Driver.Arch);
  TF.Id = NextId++;
  Planner.insert(TF.Id, TF.FP, ModuleId);
  Baselines[F] = TF.Baseline;
  archiveFunction(F, TF);
}

uint32_t MergeService::moduleIdOf(const Module *M) const {
  auto It = std::find(Modules.begin(), Modules.end(), M);
  assert(It != Modules.end() && "function outside the registered modules");
  return static_cast<uint32_t>(It - Modules.begin());
}

/// In-place counterpart of cloneFunctionInto: rebuilds \p F's body as
/// an exact copy of \p Src's while preserving F's Function identity
/// (journals, the planner and the archive are all keyed by Function*).
void MergeService::restoreBody(Function *F, const Function *Src) {
  assert(Src && !Src->isDeclaration() && "restore without an archived body");
  Context &Ctx = F->getParent()->getContext();
  F->clearBody();
  CloneMaps Maps;
  for (unsigned I = 0; I < Src->getNumArgs(); ++I) {
    Maps.Values[Src->getArg(I)] = F->getArg(I);
    F->getArg(I)->setName(Src->getArg(I)->getName());
  }
  for (const BasicBlock *BB : *Src)
    Maps.Blocks[BB] = F->createBlock(BB->getName());
  for (const BasicBlock *BB : *Src) {
    BasicBlock *NewBB = Maps.Blocks.at(BB);
    for (const Instruction *I : *BB) {
      Instruction *NewI = cloneInstruction(I, Ctx);
      NewI->setName(I->getName());
      NewBB->push_back(NewI);
      Maps.Values[I] = NewI;
    }
  }
  for (BasicBlock *BB : *F)
    for (Instruction *I : *BB)
      remapInstruction(I, Maps);
}

// --- Session lifecycle -------------------------------------------------------

MergeServiceStats MergeService::initialize() {
  std::lock_guard<std::mutex> Guard(SessionMutex);
  assert(!Modules.empty() && "initialize() with no registered modules");
  assert(!Initialized && "a service initializes exactly once");
  Initialized = true;

  Context &Ctx = Modules.front()->getContext();
  Archive = std::make_unique<Module>("merge.service.archive", Ctx);

  // Session prologue, mirroring CrossModuleMerger::run stage for stage:
  // resolution first, host policy second (Hottest counts resolved call
  // sites), then the full-session build (warm-path prologues +
  // registration + merge) shared with every later rebuild.
  LastResolution = resolveCalleesAcrossModules(Modules);
  if (!ExplicitHost)
    Host = selectHostModule(Modules, Options.Driver.Host,
                            Options.Driver.Arch);
  SessionFaults = Options.Driver.Faults.armed()
                      ? Options.Driver.Faults
                      : FaultInjectionConfig::fromEnv();

  MergeServiceStats Out;
  Out.Epoch = Epoch; // 0
  rebuildSession(Out);
  Last = Out;
  return Out;
}

Function *MergeService::DeltaBatch::checkoutForEdit(Function *F) {
  assert(!Applied && "checkout after apply()");
  // Always restore: for a never-merged function this rewrites the same
  // body (clone of the archive clone), for a thunked one it brings the
  // original back. Either way the client edits thunk-free code. A
  // cluster member (consumed by the HashClustering prologue, so not
  // tracked) restores from its own pristine archive clone.
  auto It = S.Tracked.find(F);
  if (It != S.Tracked.end()) {
    S.restoreBody(F, It->second.Archived);
  } else {
    auto MIt = S.ClusterMembers.find(F);
    assert(MIt != S.ClusterMembers.end() &&
           "checkout of an untracked function");
    S.restoreBody(F, MIt->second.Archived);
  }
  CheckedOut.insert(F);
  return F;
}

MergeServiceStats MergeService::DeltaBatch::apply(const MergeDelta &Delta) {
  assert(!Applied && "a batch applies exactly once");
  Applied = true;
  MergeServiceStats Out = S.applyDeltaLocked(Delta, CheckedOut);
  // The batch is consumed: hand the session back so introspection (and
  // the next beginDelta()) need not wait for this object's destructor.
  Lock.unlock();
  return Out;
}

MergeServiceStats MergeService::applyDeltaLocked(
    const MergeDelta &Delta,
    const std::unordered_set<const Function *> &BatchCheckouts) {
  assert(Initialized && "applyDelta before initialize()");
  ++Epoch;
  MergeServiceStats Out;
  Out.Epoch = Epoch;

  std::unordered_set<const Function *> ChangedSet(Delta.Changed.begin(),
                                                  Delta.Changed.end());
  std::unordered_set<const Function *> DeletedSet(Delta.Deleted.begin(),
                                                  Delta.Deleted.end());
#ifndef NDEBUG
  for (const Function *F : BatchCheckouts)
    assert((ChangedSet.count(F) || DeletedSet.count(F)) &&
           "every checked-out function must be declared Changed (or "
           "Deleted) in the applied delta");
  for (Function *F : Delta.Changed)
    assert((Tracked.count(F) || ClusterMembers.count(F)) &&
           "Changed entry is not tracked");
  for (Function *F : Delta.Deleted)
    assert((Tracked.count(F) || ClusterMembers.count(F)) &&
           "Deleted entry is not tracked");
  for (Function *F : Delta.Added) {
    assert(!Tracked.count(F) && !F->isDeclaration() &&
           "Added entry must be a fresh definition");
    assert(std::find(Modules.begin(), Modules.end(), F->getParent()) !=
               Modules.end() &&
           "Added entry must live in a registered module");
  }
#endif

  const bool Armed = SessionFaults.armed();
  try {
    // 1. Dirty set: classes of every touched function, plus the classes
    //    of quarantine-ledger entries whose strikes decay this epoch.
    std::set<Type *> Dirty;
    if (Options.QuarantineDecayEpochs) {
      for (auto It = QuarantinedAt.begin(); It != QuarantinedAt.end();) {
        if (Epoch - It->second >= Options.QuarantineDecayEpochs) {
          Dirty.insert(It->first->getReturnType());
          ++Out.QuarantineReleases;
          It = QuarantinedAt.erase(It);
        } else {
          ++It;
        }
      }
    }
    for (Function *F : Delta.Changed)
      Dirty.insert(F->getReturnType());
    for (Function *F : Delta.Deleted)
      Dirty.insert(F->getReturnType());
    for (Function *F : Delta.Added)
      Dirty.insert(F->getReturnType());
    Out.DirtyClasses = static_cast<unsigned>(Dirty.size());

    if (Options.Driver.HashClustering) {
      // The cluster prologue is whole-pool by nature: the smallest edit
      // can re-form, split or re-lead any group, so every delta rebuilds
      // the full session — restore the members, tear the whole merge
      // down, and re-run the cold clustered prologue over the new pool.
      if (Armed)
        maybeInjectFault(SessionFaults, FaultKind::SymbolResolution,
                         "epoch" + std::to_string(Epoch), "symres");
      restoreClusterMembersExcept(ChangedSet, DeletedSet);
      std::set<Type *> All;
      for (const auto &KV : Classes)
        All.insert(KV.first);
      uncommitClasses(All, ChangedSet, DeletedSet, Out);
      eraseDeleted(Delta.Deleted);
      eraseClusterBodies();
      LastResolution = resolveCalleesAcrossModules(Modules);
      Host->setUniqueNameCounter(PreClusterCounterBase);
      if (Options.ReelectHost && !ExplicitHost) {
        // The pool is live-pristine here, so the election is literally
        // the cold prologue's (post-resolution, pre-cluster).
        Module *Leader = selectHostModule(Modules, Options.Driver.Host,
                                          Options.Driver.Arch);
        if (Leader != Host) {
          Host = Leader;
          ++HostReelectionCount;
          Out.HostReelected = true;
        }
      }
      rebuildSession(Out);
      Out.ReclusteredFull = true;
      Last = Out;
      return Out;
    }

    // 2. Un-commit the dirty classes and drop the deleted functions.
    uncommitClasses(Dirty, ChangedSet, DeletedSet, Out);
    eraseDeleted(Delta.Deleted);

    // 3. Re-run linker-style resolution over the surviving + added
    //    functions. Canonical-per-name bindings are stable across
    //    re-runs (ir/SymbolResolution.h), so this matches what one cold
    //    resolution over the final pool would produce.
    if (Armed)
      maybeInjectFault(SessionFaults, FaultKind::SymbolResolution,
                       "epoch" + std::to_string(Epoch), "symres");
    LastResolution = resolveCalleesAcrossModules(Modules);

    // 4. Retire/re-insert planner entries and refresh the per-function
    //    state for every touched function.
    for (Function *F : Delta.Changed) {
      if (Armed) {
        maybeInjectFault(SessionFaults, FaultKind::Ranking, F->getName(),
                         "rank");
        maybeInjectFault(SessionFaults, FaultKind::Fingerprint,
                         F->getName(), "service");
      }
      TrackedFunction &TF = Tracked.at(F);
      assert(TF.FP.RetTy == F->getReturnType() &&
             "a changed function must keep its signature");
      StructuralHash NewHash =
          structuralHashFor(*F, Options.Driver.Canonicalize);
      if (NewHash == TF.Hash)
        ++Out.NoopChanges;
      Planner.retire(TF.Id);
      TF.FP = fingerprintFor(*F, Options.Driver.Canonicalize);
      TF.Hash = NewHash;
      TF.Baseline = estimateFunctionSize(*F, Options.Driver.Arch);
      TF.Id = NextId++;
      Planner.insert(TF.Id, TF.FP, TF.ModuleId);
      Baselines[F] = TF.Baseline;
      archiveFunction(F, TF);
    }
    for (Function *F : Delta.Added) {
      if (Armed) {
        maybeInjectFault(SessionFaults, FaultKind::Ranking, F->getName(),
                         "rank");
        maybeInjectFault(SessionFaults, FaultKind::Fingerprint,
                         F->getName(), "service");
      }
      auto MIt = std::find(Modules.begin(), Modules.end(), F->getParent());
      registerFunction(F,
                       static_cast<uint32_t>(MIt - Modules.begin()));
    }

    // 4.5. Host re-election: re-score the policy over the pristine
    //      archive (the refreshed bookkeeping above makes it current).
    //      A moved leader rebuilds the session wholesale on the new
    //      host — cold-with-that-host by construction.
    if (Options.ReelectHost && !ExplicitHost &&
        Options.Driver.Host != HostPolicy::First) {
      Module *Leader = electHostFromArchive();
      if (Leader != Host) {
        std::set<Type *> All;
        for (const auto &KV : Classes)
          All.insert(KV.first);
        uncommitClasses(All, ChangedSet, DeletedSet, Out);
        Host->setUniqueNameCounter(PreClusterCounterBase);
        Host = Leader;
        ++HostReelectionCount;
        Out.HostReelected = true;
        rebuildSession(Out);
        Last = Out;
        return Out;
      }
    }

    // 5. Localized re-merge + splice.
    runEpoch(Dirty, Out);
  } catch (const std::exception &) {
    degradeToFullRemerge(Delta, Out);
  }
  Last = Out;
  return Out;
}

// --- Un-commit ---------------------------------------------------------------

void MergeService::uncommitClasses(
    const std::set<Type *> &Dirty,
    const std::unordered_set<const Function *> &SkipRestore,
    const std::unordered_set<const Function *> &Deleted,
    MergeServiceStats &Out) {
  std::vector<Function *> MergedToErase;
  for (Type *T : Dirty) {
    auto CIt = Classes.find(T);
    if (CIt == Classes.end())
      continue;
    ClassState &CS = CIt->second;
    for (const PipelineEntryTrace &Trace : CS.Journal) {
      if (Trace.WinnerRecord < 0)
        continue;
      Function *Inputs[2] = {
          Trace.EntryFn,
          Trace.Partners[static_cast<size_t>(Trace.WinnerRecord)]};
      for (Function *F : Inputs) {
        auto TIt = Tracked.find(F);
        // Remerge inputs are merged functions (not tracked): they are
        // erased below, not restored. Edited/deleted originals keep the
        // bodies the client gave them.
        if (TIt == Tracked.end() || SkipRestore.count(F) ||
            Deleted.count(F))
          continue;
        restoreBody(F, TIt->second.Archived);
      }
      MergedToErase.push_back(Trace.Merged);
      ++Out.UncommittedMerges;
    }
    CS.Journal.clear();
    CS.Stats = MergeDriverStats();
    CS.Members.clear();
  }
  // Deleted functions may still be thunks into merged functions of their
  // (dirty) class; drop their bodies before the merged functions go.
  for (const Function *F : Deleted)
    if (Tracked.count(F))
      const_cast<Function *>(F)->clearBody();
  // Forward commit order: a remerged chain's earlier merged function is
  // a thunk into a later one, so callers are erased before callees.
  for (Function *M : MergedToErase)
    Host->eraseFunction(M);
}

void MergeService::eraseDeleted(const std::vector<Function *> &Deleted) {
  for (Function *F : Deleted) {
    auto TIt = Tracked.find(F);
    if (TIt == Tracked.end()) {
      // Cluster members are not tracked; drop their archive clone and
      // ledger entry directly.
      auto MIt = ClusterMembers.find(F);
      if (MIt == ClusterMembers.end())
        continue; // degrade path re-entry: already erased
      Archive->eraseFunction(MIt->second.Archived);
      ClusterMembers.erase(MIt);
      QuarantinedAt.erase(F);
      F->getParent()->eraseFunction(F);
      continue;
    }
    TrackedFunction &TF = TIt->second;
    Planner.retire(TF.Id);
    if (TF.Archived)
      Archive->eraseFunction(TF.Archived);
    Baselines.erase(F);
    QuarantinedAt.erase(F);
    Tracked.erase(TIt);
    F->getParent()->eraseFunction(F);
  }
}

// --- HashClustering session state --------------------------------------------

void MergeService::restoreClusterMembersExcept(
    const std::unordered_set<const Function *> &Skip,
    const std::unordered_set<const Function *> &Deleted) {
  for (const auto &KV : ClusterMembers) {
    Function *F = KV.first;
    if (Skip.count(F) || Deleted.count(F))
      continue; // client-edited body stays; deletions erase shortly
    restoreBody(F, KV.second.Archived);
  }
}

void MergeService::eraseClusterBodies() {
  // A cluster body may have merged further in the downstream pipeline,
  // in which case it is tracked like any pool function — retire that
  // bookkeeping alongside the body itself.
  for (Function *B : ClusterBodies) {
    auto TIt = Tracked.find(B);
    if (TIt != Tracked.end()) {
      Planner.retire(TIt->second.Id);
      if (TIt->second.Archived)
        Archive->eraseFunction(TIt->second.Archived);
      Baselines.erase(B);
      Tracked.erase(TIt);
    }
    QuarantinedAt.erase(B);
    Host->eraseFunction(B);
  }
  ClusterBodies.clear();
}

// --- Re-merge + splice -------------------------------------------------------

void MergeService::runEpoch(const std::set<Type *> &Dirty,
                            MergeServiceStats &Out) {
  auto T0 = std::chrono::steady_clock::now();

  // Fingerprint view over every tracked function (element pointers into
  // the node-based Tracked map are stable).
  std::unordered_map<const Function *, const Fingerprint *> FPView;
  FPView.reserve(Tracked.size());
  for (const auto &KV : Tracked)
    FPView.emplace(KV.first, &KV.second.FP);

  // Fresh pool filters for the dirty classes: every tracked function of
  // the class except active quarantine-ledger entries. Clean classes
  // keep the members their retained journal was recorded against.
  std::map<Type *, std::unordered_set<const Function *>> NewMembers;
  for (uint32_t MId = 0; MId < Modules.size(); ++MId)
    for (Function *F : Modules[MId]->functions()) {
      auto TIt = Tracked.find(F);
      if (TIt == Tracked.end())
        continue;
      Type *T = F->getReturnType();
      if (Dirty.count(T) && !QuarantinedAt.count(F))
        NewMembers[T].insert(F);
    }

  std::vector<ClassState *> Runs;
  unsigned RunIdx = 0;
  for (Type *T : Dirty) {
    ClassState &CS = Classes[T];
    assert(CS.Journal.empty() && "dirty class must be un-committed first");
    auto NMIt = NewMembers.find(T);
    CS.Members = NMIt == NewMembers.end()
                     ? std::unordered_set<const Function *>()
                     : std::move(NMIt->second);
    if (CS.Members.empty())
      continue; // class emptied out (all deleted/quarantined)
    CS.Scratch = std::make_unique<Module>(
        Host->getName() + ".svc" + std::to_string(Epoch) + "." +
            std::to_string(RunIdx++),
        Host->getContext());
    CS.RunOptions = Options.Driver;
    Runs.push_back(&CS);
  }

  // Schedule the dirty-class pipelines. ShardCount == 1 runs them
  // serially (inner pipelines keep the full thread budget); any other
  // value batches them over the pool, splitting the thread budget like
  // CrossModuleMerger does per shard. Outcomes are identical either
  // way — classes are independent and each pipeline is thread-invariant.
  const unsigned NumThreads =
      ThreadPool::resolveThreadCount(Options.Driver.NumThreads);
  const bool Concurrent = Options.Driver.ShardCount != 1 &&
                          NumThreads > 1 && Runs.size() > 1;
  const unsigned Workers =
      Concurrent
          ? std::min(NumThreads, static_cast<unsigned>(Runs.size()))
          : 1;
  const unsigned InnerThreads =
      Concurrent ? std::max(1u, NumThreads / Workers) : NumThreads;
  auto RunClass = [&](ClassState &CS) {
    PipelineShardScope Scope;
    Scope.Materialize = CS.Scratch.get();
    Scope.PoolFilter = &CS.Members;
    Scope.Fingerprints = &FPView;
    Scope.Journal = &CS.Journal;
    Scope.Quarantined = &CS.NewQuarantine;
    if (EpochCache) {
      // Warm full-session builds only (rebuildSession): read-only cache
      // shared across the class pipelines, recordings drained after.
      CS.CacheUpdates.clear();
      Scope.Cache = EpochCache;
      Scope.CacheUpdates = &CS.CacheUpdates;
    }
    MergePipeline Pipeline(Modules, *Host, CS.RunOptions, Baselines,
                           CS.Stats, Scope);
    Pipeline.run();
  };
  if (!Concurrent) {
    for (ClassState *CS : Runs) {
      CS->RunOptions.NumThreads = InnerThreads;
      RunClass(*CS);
    }
  } else {
    for (ClassState *CS : Runs)
      CS->RunOptions.NumThreads = InnerThreads;
    ThreadPool Pool(Workers);
    for (ClassState *CS : Runs)
      Pool.submit([&RunClass, CS] { RunClass(*CS); });
    Pool.wait();
  }

  // Quarantine intake + this-epoch work accounting (dirty runs only).
  for (ClassState *CS : Runs) {
    for (Function *F : CS->NewQuarantine)
      QuarantinedAt[F] = Epoch;
    CS->NewQuarantine.clear();
    Out.EpochPairingDistanceCalls += CS->Stats.PairingDistanceCalls;
    Out.EpochPairingProbes += CS->Stats.PairingProbes;
    Out.EpochAttempts += CS->Stats.Attempts;
  }

  // --- Splice ---------------------------------------------------------------
  // Replay the cold session's pool walk over *all* classes — dirty ones
  // from the runs above, clean ones from their retained journals — with
  // the host's name counter reset to the pre-merge base, so names,
  // record order and FunctionOrder reconstruct the from-scratch run
  // (CrossModuleMerger's splice, classes as shards).
  std::vector<SpliceSlice> Slices;
  std::map<Type *, uint32_t> SliceOf;
  for (const auto &KV : Classes) {
    SliceOf[KV.first] = static_cast<uint32_t>(Slices.size());
    Slices.push_back({&KV.second.Journal, &KV.second.Stats});
  }
  struct PlanEntry {
    Function *F;
    const Fingerprint *FP;
  };
  std::vector<PlanEntry> Plan;
  for (Module *M : Modules)
    for (Function *F : M->functions()) {
      auto TIt = Tracked.find(F);
      if (TIt == Tracked.end())
        continue;
      auto CIt = Classes.find(F->getReturnType());
      if (CIt == Classes.end() || !CIt->second.Members.count(F))
        continue;
      Plan.push_back(PlanEntry{F, &TIt->second.FP});
    }
  std::stable_sort(Plan.begin(), Plan.end(),
                   [](const PlanEntry &A, const PlanEntry &B) {
                     return A.FP->Size > B.FP->Size;
                   });
  std::vector<uint32_t> Walk;
  Walk.reserve(Plan.size());
  for (const PlanEntry &E : Plan)
    Walk.push_back(SliceOf.at(E.FP->RetTy));

  Host->setUniqueNameCounter(HostCounterBase);
  CrossModuleStats &Session = Out.Session;
  spliceSlices(*Host, Slices, std::move(Walk), Options.Driver.AllowRemerge,
               Session.Driver);
  for (ClassState *CS : Runs) {
    assert(CS->Scratch->functions().empty() &&
           "splice left a merged function behind in a scratch host");
    CS->Scratch.reset();
  }

  // --- Session (cold-equivalent) stats --------------------------------------
  Session.NumModules = static_cast<unsigned>(Modules.size());
  Session.CanonicalSymbols = LastResolution.CanonicalSymbols;
  Session.RetargetedCalls = LastResolution.RetargetedCalls;
  unsigned LiveClasses = 0;
  for (const CandidateIndex::PartitionSummary &C :
       Planner.partitionSummaries())
    if (C.Live)
      ++LiveClasses;
  Out.TotalClasses = LiveClasses;
  Session.Driver.ShardCount = std::max(1u, LiveClasses);
  // Session-level warm-path counters: set by assignment, exactly like
  // the cold sessions set them once per run (never summed from class
  // pipelines). Between full builds they report the session's current
  // prologue state.
  Session.Driver.CacheLoadRejected = SessionCacheLoadRejected;
  Session.Driver.HashClusterCommits = SessionClusterCommits;
  Session.Driver.FingerprintFaults = SessionClusterFaults;
  // SizeBefore is the cold run's exactly: estimateModuleSize sums
  // definitions, and the pool's unmerged definitions are precisely the
  // tracked originals at their archived (baseline) sizes. Under
  // HashClustering the pool swaps the (synthetic) cluster bodies in for
  // the consumed members; undo that swap — the pristine pool is the
  // members at their archived sizes, with no bodies.
  for (const auto &KV : Baselines)
    Session.SizeBefore += KV.second;
  for (Function *B : ClusterBodies)
    Session.SizeBefore -= Baselines.at(B);
  for (const auto &KV : ClusterMembers)
    Session.SizeBefore += KV.second.Baseline;
  for (Module *M : Modules)
    Session.SizeAfter += estimateModuleSize(*M, Options.Driver.Arch);
  Session.CrossModuleMerges = Session.Driver.CrossModuleMerges;
  Session.IntraModuleMerges =
      Session.Driver.CommittedMerges - Session.Driver.CrossModuleMerges;
  Session.Driver.TotalSeconds = secondsSince(T0);
}

// --- Full-session (re)build --------------------------------------------------

void MergeService::rebuildSession(MergeServiceStats &Out) {
  // Teardown of the registration state. Caller contract (see header):
  // every original body is live and pristine in its registered module,
  // resolution has re-run, Host is chosen with its unique-name counter
  // sitting at the pre-burn base.
  Planner = CandidateIndex();
  NextId = 0;
  Tracked.clear();
  Baselines.clear();
  ClusterMembers.clear();
  ClusterBodies.clear();
  {
    std::vector<Function *> Archived;
    for (Function *F : Archive->functions())
      Archived.push_back(F);
    for (Function *F : Archived)
      Archive->eraseFunction(F);
  }

  const FaultInjectionConfig *FaultsPtr =
      SessionFaults.armed() ? &SessionFaults : nullptr;

  // Structural-hash fast path first, exactly like the cold sessions:
  // cluster name burns precede every splice burn.
  PreClusterCounterBase = Host->uniqueNameCounter();
  SessionClusterCommits = 0;
  SessionClusterFaults = 0;
  if (Options.Driver.HashClustering) {
    // Pristine clones must exist before clustering rewrites the member
    // bodies into thunks. Survivors re-archive through registerFunction
    // below, so their pre-clones are dropped again.
    std::map<Function *, unsigned> PreBase;
    std::map<Function *, Function *> PreClones;
    for (Module *M : Modules)
      for (Function *F : M->functions())
        if (!F->isDeclaration()) {
          PreBase[F] = estimateFunctionSize(*F, Options.Driver.Arch);
          if (F->isMergeable())
            PreClones[F] =
                cloneFunctionInto(F, *Archive, F->getName(), {}, {});
        }
    PreClusterStats PCS;
    std::vector<PreClusterGroup> Groups;
    PCS.Groups = &Groups;
    preClusterIdenticalFunctions(Modules, *Host, Options.Driver.Arch,
                                 PreBase, FaultsPtr, PCS);
    SessionClusterCommits = PCS.ClusterCommits;
    SessionClusterFaults = PCS.FingerprintFaults;
    for (const PreClusterGroup &G : Groups) {
      ClusterBodies.push_back(G.Merged);
      for (Function *M : G.Members) {
        auto PIt = PreClones.find(M);
        assert(PIt != PreClones.end() && "cluster member without pre-clone");
        ClusterMembers[M] = ClusterMember{
            PIt->second, moduleIdOf(M->getParent()), PreBase.at(M)};
        PreClones.erase(PIt);
      }
    }
    for (const auto &KV : PreClones)
      Archive->eraseFunction(KV.second);
  }

  // One shared decision cache for every class pipeline of this build:
  // loaded (and self-invalidated) once, read-only while pipelines run,
  // appended to from their serial-commit recordings, persisted after.
  DecisionCache Cache;
  uint64_t CacheFP = 0;
  const bool UseCache = !Options.Driver.DecisionCachePath.empty();
  SessionCacheLoadRejected = 0;
  if (UseCache) {
    CacheFP = DecisionCache::optionsFingerprint(Options.Driver);
    if (Cache.load(Options.Driver.DecisionCachePath, CacheFP, FaultsPtr) ==
        DecisionCache::LoadOutcome::Rejected)
      ++SessionCacheLoadRejected;
    EpochCache = &Cache;
  }

  // Register the pool: every definition that is not a consumed cluster
  // member (committed cluster bodies are pool functions and may merge
  // further — the cold plan's include-set exactly). The quarantine
  // ledger survives a rebuild; strikes decay on their own schedule.
  std::set<Type *> Dirty;
  for (uint32_t MId = 0; MId < Modules.size(); ++MId)
    for (Function *F : Modules[MId]->functions())
      if (!F->isDeclaration() && !ClusterMembers.count(F)) {
        registerFunction(F, MId);
        Dirty.insert(F->getReturnType());
      }
  // Every committed-merge name burn replays from this base on every
  // epoch's splice; the registered modules' own counters never move.
  HostCounterBase = Host->uniqueNameCounter();

  runEpoch(Dirty, Out);
  EpochCache = nullptr;
  Out.DirtyClasses = Out.TotalClasses;

  if (UseCache) {
    // Class recordings applied in class order (keys are disjoint across
    // classes) and serialized sorted by key, so the file bytes are
    // identical at every thread count.
    for (Type *T : Dirty) {
      auto CIt = Classes.find(T);
      if (CIt != Classes.end())
        Cache.apply(std::move(CIt->second.CacheUpdates));
    }
    Cache.save(Options.Driver.DecisionCachePath, CacheFP, FaultsPtr);
  }
}

Module *MergeService::electHostFromArchive() const {
  assert(ClusterBodies.empty() &&
         "archive election is for the incremental path only (clustering "
         "deltas elect over the restored live pool)");
  if (Options.Driver.Host == HostPolicy::First || Modules.size() == 1)
    return Modules.front();
  std::vector<uint64_t> Score(Modules.size(), 0);
  if (Options.Driver.Host == HostPolicy::Biggest) {
    // estimateModuleSize over the pristine pool == the tracked archived
    // baselines grouped by registered module.
    for (const auto &KV : Tracked)
      Score[KV.second.ModuleId] += KV.second.Baseline;
  } else { // HostPolicy::Hottest
    // The archived bodies are the resolved pristine pool: their callee
    // operands still point at the live canonical definitions, so the
    // in-degree lands on the definition's registered module, exactly as
    // selectHostModule counts it on a cold run.
    std::unordered_map<const Module *, size_t> Rank;
    for (size_t I = 0; I < Modules.size(); ++I)
      Rank[Modules[I]] = I;
    for (const auto &KV : Tracked)
      for (BasicBlock *BB : *KV.second.Archived)
        for (Instruction *I : *BB) {
          auto *CB = dyn_cast<CallBase>(I);
          if (!CB || !CB->getCallee() || CB->getCallee()->isDeclaration())
            continue;
          auto It = Rank.find(CB->getCallee()->getParent());
          if (It != Rank.end())
            ++Score[It->second];
        }
  }
  size_t BestIdx = 0;
  for (size_t I = 1; I < Modules.size(); ++I)
    if (Score[I] > Score[BestIdx])
      BestIdx = I;
  return Modules[BestIdx];
}

// --- Degraded path -----------------------------------------------------------

void MergeService::degradeToFullRemerge(const MergeDelta &Delta,
                                        MergeServiceStats &Out) {
  // A service-level fault (ranking / fingerprinting / symbol resolution)
  // interrupted delta planning at an arbitrary point. Recovery re-does
  // the whole epoch's bookkeeping idempotently — with the service-level
  // fault points disarmed, so a deterministic fault cannot re-degrade —
  // and rebuilds the whole session: the cost of a cold run, never a
  // corrupt session. Pipeline-level faults stay armed inside the
  // pipelines; prologue faults (fingerprint, cache I/O) are contained
  // by construction and cannot re-degrade either.
  ++FullRemergeCount;
  Out.DegradedToFullRemerge = true;
  EpochCache = nullptr; // a fault may have unwound mid-build

  // 1. Un-commit everything (classes already un-committed have empty
  //    journals; restore skips client-edited and deleted bodies).
  std::unordered_set<const Function *> ChangedSet(Delta.Changed.begin(),
                                                  Delta.Changed.end());
  std::unordered_set<const Function *> DeletedSet(Delta.Deleted.begin(),
                                                  Delta.Deleted.end());
  restoreClusterMembersExcept(ChangedSet, DeletedSet);
  std::set<Type *> AllClasses;
  for (const auto &KV : Classes)
    AllClasses.insert(KV.first);
  uncommitClasses(AllClasses, ChangedSet, DeletedSet, Out);
  eraseDeleted(Delta.Deleted);
  eraseClusterBodies();

  // 2. Cold re-prologue over the surviving pool (every definition left
  //    in the registered modules is a pristine pool function — thunks
  //    were restored and merged/cluster bodies erased above). No host
  //    re-election on the degrade path: recovery restores service, it
  //    does not re-plan placement.
  LastResolution = resolveCalleesAcrossModules(Modules);
  Host->setUniqueNameCounter(PreClusterCounterBase);
  rebuildSession(Out);
}

// --- Introspection -----------------------------------------------------------

unsigned MergeService::epoch() const {
  std::lock_guard<std::mutex> Guard(SessionMutex);
  return Epoch;
}

unsigned MergeService::fullRemerges() const {
  std::lock_guard<std::mutex> Guard(SessionMutex);
  return FullRemergeCount;
}

unsigned MergeService::hostReelections() const {
  std::lock_guard<std::mutex> Guard(SessionMutex);
  return HostReelectionCount;
}

bool MergeService::isQuarantined(const Function *F) const {
  std::lock_guard<std::mutex> Guard(SessionMutex);
  return QuarantinedAt.count(F) != 0;
}

size_t MergeService::quarantinedCount() const {
  std::lock_guard<std::mutex> Guard(SessionMutex);
  return QuarantinedAt.size();
}

StructuralHash MergeService::structuralHash(const Function *F) const {
  std::lock_guard<std::mutex> Guard(SessionMutex);
  auto It = Tracked.find(F);
  return It == Tracked.end() ? StructuralHash() : It->second.Hash;
}

MergeServiceStats MergeService::lastStats() const {
  std::lock_guard<std::mutex> Guard(SessionMutex);
  return Last;
}
