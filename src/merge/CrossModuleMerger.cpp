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
  std::vector<std::pair<const Function *, uint32_t>> Functions;
  for (uint32_t I = 0; I < Modules.size(); ++I)
    for (const Function *F : Modules[I]->functions())
      Functions.emplace_back(F, I);
  return selectHostModule(Modules, Functions, Policy, Arch);
}

Module *salssa::selectHostModule(
    const std::vector<Module *> &Modules,
    const std::vector<std::pair<const Function *, uint32_t>> &Functions,
    HostPolicy Policy, TargetArch Arch) {
  if (Modules.empty())
    return nullptr;
  if (Policy == HostPolicy::First || Modules.size() == 1)
    return Modules.front();

  std::vector<uint64_t> Score(Modules.size(), 0);
  if (Policy == HostPolicy::Biggest) {
    // estimateModuleSize per module (a declaration's size is 0).
    for (const auto &[F, ModuleIdx] : Functions)
      Score[ModuleIdx] += estimateFunctionSize(*F, Arch);
  } else { // HostPolicy::Hottest
    // Call-site in-degree of each module's definitions, counted over
    // every scored body. Sessions resolve the policy AFTER linker-style
    // symbol resolution, so cross-TU calls — retargeted from per-module
    // extern declarations onto their canonical definitions — count toward
    // the definition's module. Callees still left as declarations host no
    // body to be "hot" and are skipped.
    std::unordered_map<const Module *, size_t> Rank;
    for (size_t I = 0; I < Modules.size(); ++I)
      Rank[Modules[I]] = I;
    for (const auto &FM : Functions)
      for (const BasicBlock *BB : *FM.first)
        for (const Instruction *I : *BB) {
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

  // Every class, one pipeline each, spliced into the host; the runner
  // loads and saves the decision cache around them.
  runClassPipelines(Modules, *Host, Options, BaselineSize, FPView,
                    /*UseCache=*/true, Classes, All, Stats.Driver);

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
