//===- merge/MergeService.cpp - Long-lived incremental merge sessions ---------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "merge/MergeService.h"
#include "codesize/SizeModel.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "support/Chrono.h"
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
/// (journals, class members and the archive are all keyed by Function*).
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
  // sites), then the full-session build (registration + merge) shared
  // with the degraded path.
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
  // body (clone of the archive clone), for a thunked one — a merge input
  // or a cluster member — it brings the original back. Either way the
  // client edits thunk-free code.
  auto It = S.Tracked.find(F);
  assert(It != S.Tracked.end() && "checkout of an untracked function");
  S.restoreBody(F, It->second.Archived);
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
    [[maybe_unused]] const std::unordered_set<const Function *>
        &BatchCheckouts) {
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
    assert(Tracked.count(F) && "Changed entry is not tracked");
  for (Function *F : Delta.Deleted)
    assert(Tracked.count(F) && "Deleted entry is not tracked");
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

    // 4. Refresh the per-function state for every touched function.
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
      TF.FP = fingerprintFor(*F, Options.Driver.Canonicalize);
      TF.Hash = NewHash;
      TF.Baseline = estimateFunctionSize(*F, Options.Driver.Arch);
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
      registerFunction(F, moduleIdOf(F->getParent()));
    }

    // 5. Host election, re-scored over the pristine archive (the
    //    refreshed bookkeeping above makes it current), exactly as a cold
    //    run over the new pool elects. A moved leader un-commits the
    //    remaining classes and re-runs every class in place on the new
    //    host, from the new host's own name-counter base.
    if (!ExplicitHost && Options.Driver.Host != HostPolicy::First) {
      std::vector<std::pair<const Function *, uint32_t>> Archived;
      Archived.reserve(Tracked.size());
      for (const auto &KV : Tracked)
        Archived.emplace_back(KV.second.Archived, KV.second.ModuleId);
      Module *Leader = selectHostModule(Modules, Archived, Options.Driver.Host,
                                        Options.Driver.Arch);
      if (Leader != Host) {
        std::set<Type *> All = allClasses();
        uncommitClasses(All, {}, {}, Out);
        Host->setUniqueNameCounter(HostCounterBase);
        Host = Leader;
        HostCounterBase = Host->uniqueNameCounter();
        ++HostReelectionCount;
        Out.HostReelected = true;
        Dirty.insert(All.begin(), All.end());
        Out.DirtyClasses = static_cast<unsigned>(Dirty.size());
      }
    }

    // 6. Localized re-merge + splice.
    runEpoch(Dirty, Out, /*FullBuild=*/false);
  } catch (const std::exception &) {
    degradeToFullRemerge(Delta, Out);
  }
  Last = Out;
  return Out;
}

// --- Un-commit ---------------------------------------------------------------

std::set<Type *> MergeService::allClasses() const {
  std::set<Type *> All;
  for (const auto &KV : Classes)
    All.insert(KV.first);
  return All;
}

void MergeService::uncommitClasses(
    const std::set<Type *> &Dirty,
    const std::unordered_set<const Function *> &SkipRestore,
    const std::unordered_set<const Function *> &Deleted,
    MergeServiceStats &Out) {
  // Cluster bodies and remerge inputs are not tracked: they are erased
  // below, not restored. Edited/deleted originals keep the bodies the
  // client gave them.
  auto restore = [&](Function *F) {
    auto TIt = Tracked.find(F);
    if (TIt != Tracked.end() && !SkipRestore.count(F) && !Deleted.count(F))
      restoreBody(F, TIt->second.Archived);
  };
  std::vector<Function *> BodiesToErase, MergedToErase;
  for (Type *T : Dirty) {
    auto CIt = Classes.find(T);
    if (CIt == Classes.end())
      continue;
    ClassSlice &CS = CIt->second;
    for (const ClusterCommit &C : CS.Clusters) {
      for (Function *F : C.Members)
        restore(F);
      BodiesToErase.push_back(C.Merged);
    }
    for (const PipelineEntryTrace &Trace : CS.Journal) {
      if (Trace.WinnerRecord < 0)
        continue;
      restore(Trace.EntryFn);
      restore(Trace.Partners[static_cast<size_t>(Trace.WinnerRecord)]);
      MergedToErase.push_back(Trace.Merged);
      ++Out.UncommittedMerges;
    }
    CS.Clusters.clear();
    CS.Journal.clear();
    CS.Stats = MergeDriverStats();
    CS.Members.clear();
  }
  // Deleted functions may still be thunks into cluster bodies or merged
  // functions of their (dirty) class; drop their bodies before those go.
  for (const Function *F : Deleted)
    if (Tracked.count(F))
      const_cast<Function *>(F)->clearBody();
  // Callers before callees: a cluster body that merged again is a thunk
  // into a later merged function, and a remerged chain's earlier merged
  // function is a thunk into a later one — so bodies first, then merged
  // functions in forward commit order. The quarantine ladder may have
  // struck a body out; its ledger entry goes with it.
  for (Function *B : BodiesToErase) {
    QuarantinedAt.erase(B);
    Host->eraseFunction(B);
  }
  for (Function *M : MergedToErase)
    Host->eraseFunction(M);
}

void MergeService::eraseDeleted(const std::vector<Function *> &Deleted) {
  for (Function *F : Deleted) {
    auto TIt = Tracked.find(F);
    if (TIt == Tracked.end())
      continue; // degrade path re-entry: already erased
    TrackedFunction &TF = TIt->second;
    if (TF.Archived)
      Archive->eraseFunction(TF.Archived);
    Baselines.erase(F);
    QuarantinedAt.erase(F);
    Tracked.erase(TIt);
    F->getParent()->eraseFunction(F);
  }
}

// --- Re-merge + splice -------------------------------------------------------

void MergeService::runEpoch(const std::set<Type *> &Dirty,
                            MergeServiceStats &Out, bool FullBuild) {
  auto T0 = std::chrono::steady_clock::now();

  // Fingerprint view over every tracked function (element pointers into
  // the node-based Tracked map are stable).
  FingerprintView FPView;
  FPView.reserve(Tracked.size());
  for (const auto &KV : Tracked)
    FPView.emplace(KV.first, &KV.second.FP);

  // Fresh members for the dirty classes: every tracked function of the
  // class except active quarantine-ledger entries. Clean classes keep the
  // members their retained journal was recorded against.
  for (Type *T : Dirty) {
    assert(Classes[T].Journal.empty() &&
           "dirty class must be un-committed first");
    Classes[T].Members.clear();
  }
  for (const auto &KV : Tracked) {
    Type *T = KV.first->getReturnType();
    if (Dirty.count(T) && !QuarantinedAt.count(KV.first))
      Classes[T].Members.insert(KV.first);
  }

  // Re-run the dirty classes and replay the cold session's pool walk over
  // *all* classes — dirty ones from this run, clean ones from their
  // retained journals — with the host's name counter reset to the
  // pre-merge base, so names, record order and FunctionOrder reconstruct
  // the from-scratch run. Only a full build runs against the decision
  // cache (the runner loads and saves it); between full builds the
  // session reports the last build's load, exactly like the cold
  // sessions report theirs once per run.
  Host->setUniqueNameCounter(HostCounterBase);
  CrossModuleStats &Session = Out.Session;
  runClassPipelines(Modules, *Host, Options.Driver, Baselines, FPView,
                    FullBuild, Classes, Dirty, Session.Driver);
  if (FullBuild)
    SessionCacheLoadRejected = Session.Driver.CacheLoadRejected;
  else
    Session.Driver.CacheLoadRejected = SessionCacheLoadRejected;

  // Quarantine intake + this-epoch work accounting (dirty classes only).
  for (Type *T : Dirty) {
    ClassSlice &CS = Classes.at(T);
    for (Function *F : CS.Quarantined)
      QuarantinedAt[F] = Epoch;
    Out.EpochPairingDistanceCalls += CS.Stats.PairingDistanceCalls;
    Out.EpochPairingProbes += CS.Stats.PairingProbes;
    Out.EpochAttempts += CS.Stats.Attempts;
  }

  // --- Session (cold-equivalent) stats --------------------------------------
  Session.NumModules = static_cast<unsigned>(Modules.size());
  Session.CanonicalSymbols = LastResolution.CanonicalSymbols;
  Session.RetargetedCalls = LastResolution.RetargetedCalls;
  std::set<Type *> LiveClasses;
  for (const auto &KV : Tracked)
    LiveClasses.insert(KV.first->getReturnType());
  Out.TotalClasses = static_cast<unsigned>(LiveClasses.size());
  // SizeBefore is the cold run's exactly: estimateModuleSize sums
  // definitions, and the pristine pool's definitions are precisely the
  // tracked originals at their archived (baseline) sizes.
  for (const auto &KV : Baselines)
    Session.SizeBefore += KV.second;
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
  Tracked.clear();
  Baselines.clear();
  {
    std::vector<Function *> Archived;
    for (Function *F : Archive->functions())
      Archived.push_back(F);
    for (Function *F : Archived)
      Archive->eraseFunction(F);
  }

  // Register the pool: every definition, the cold session's pool
  // exactly. The quarantine ledger survives a rebuild; strikes decay on
  // their own schedule.
  std::set<Type *> Dirty;
  for (uint32_t MId = 0; MId < Modules.size(); ++MId)
    for (Function *F : Modules[MId]->functions())
      if (!F->isDeclaration()) {
        registerFunction(F, MId);
        Dirty.insert(F->getReturnType());
      }
  // Every committed-merge name burn replays from this base on every
  // epoch's splice; the registered modules' own counters never move.
  HostCounterBase = Host->uniqueNameCounter();

  runEpoch(Dirty, Out, /*FullBuild=*/true);
  Out.DirtyClasses = Out.TotalClasses;
}

// --- Degraded path -----------------------------------------------------------

void MergeService::degradeToFullRemerge(const MergeDelta &Delta,
                                        MergeServiceStats &Out) {
  // A service-level fault (ranking / fingerprinting / symbol resolution)
  // interrupted delta planning at an arbitrary point. Recovery re-does
  // the whole epoch's bookkeeping idempotently — with the service-level
  // fault points disarmed, so a deterministic fault cannot re-degrade —
  // and rebuilds the whole session: the cost of a cold run, never a
  // corrupt session. Pipeline-level faults (the cluster stage's
  // fingerprint points included) stay armed inside the pipelines, and
  // cache I/O faults are contained by construction; neither can
  // re-degrade.
  ++FullRemergeCount;
  Out.DegradedToFullRemerge = true;

  // 1. Un-commit everything (classes already un-committed have empty
  //    journals; restore skips client-edited and deleted bodies).
  std::unordered_set<const Function *> ChangedSet(Delta.Changed.begin(),
                                                  Delta.Changed.end());
  std::unordered_set<const Function *> DeletedSet(Delta.Deleted.begin(),
                                                  Delta.Deleted.end());
  uncommitClasses(allClasses(), ChangedSet, DeletedSet, Out);
  eraseDeleted(Delta.Deleted);

  // 2. Cold re-prologue over the surviving pool (every definition left
  //    in the registered modules is a pristine pool function — thunks
  //    were restored and cluster bodies and merged functions erased
  //    above): resolution, then the cold run's own election over the live
  //    pool, then the full build.
  LastResolution = resolveCalleesAcrossModules(Modules);
  Host->setUniqueNameCounter(HostCounterBase);
  if (!ExplicitHost) {
    Module *Leader =
        selectHostModule(Modules, Options.Driver.Host, Options.Driver.Arch);
    if (Leader != Host) {
      Host = Leader;
      ++HostReelectionCount;
      Out.HostReelected = true;
    }
  }
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
