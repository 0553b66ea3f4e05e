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
#include "support/Chrono.h"
#include "transforms/Canonicalize.h"
#include "transforms/Mem2Reg.h"
#include "transforms/Reg2Mem.h"
#include "transforms/Simplify.h"
#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <set>
#include <unordered_map>

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
  // cache I/O sits outside any pipeline, so it resolves the SALSSA_FAULTS
  // fallback itself.
  FaultInjectionConfig SessionFaults = Options.Faults.armed()
                                           ? Options.Faults
                                           : FaultInjectionConfig::fromEnv();
  const FaultInjectionConfig *SessionFaultsPtr =
      SessionFaults.armed() ? &SessionFaults : nullptr;

  // Persistent decision cache, shared by every class pipeline: loaded
  // (and self-invalidated on damage or an options/version mismatch) once,
  // read-only while the pipelines run, appended to from their
  // serial-commit recordings after.
  DecisionCache Cache;
  const bool UseCache = !Options.DecisionCachePath.empty();
  uint64_t OptionsFP = 0;
  if (UseCache) {
    OptionsFP = DecisionCache::optionsFingerprint(Options);
    if (Cache.load(Options.DecisionCachePath, OptionsFP, SessionFaultsPtr) ==
        DecisionCache::LoadOutcome::Rejected)
      ++Stats.Driver.CacheLoadRejected;
  }

  // Fingerprint the pool once (post FMSA demotion) and sort it into its
  // merge-compatibility classes.
  std::deque<Fingerprint> FPs; // stable addresses for the view
  FingerprintView FPView;
  ClassSlices Classes;
  std::set<Type *> All;
  for (Module *M : Modules)
    for (Function *F : M->functions()) {
      if (!F->isMergeable())
        continue;
      FPs.push_back(fingerprintFor(*F, Options.Canonicalize));
      FPView.emplace(F, &FPs.back());
      Classes[F->getReturnType()].Members.insert(F);
      All.insert(F->getReturnType());
    }

  // Every class, one pipeline each, spliced into the host.
  runClassPipelines(Modules, *Host, Options, BaselineSize, FPView,
                    UseCache ? &Cache : nullptr, Classes, All, Stats.Driver);

  // Persist the cache, serialized sorted by key, so the file bytes are
  // identical at every class schedule and thread count. A failed write
  // (I/O error or injected CacheIO fault) means "no cache for the next
  // run", never a failed session.
  if (UseCache)
    Cache.save(Options.DecisionCachePath, OptionsFP, SessionFaultsPtr);

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
