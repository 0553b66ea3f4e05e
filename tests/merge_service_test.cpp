//===- tests/merge_service_test.cpp - Incremental session contract -------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// The tentpole contract of the incremental merge service
// (merge/MergeService.h), pinned differentially with a precomputed edit
// script (workloads/EditScript.h) replayed against three copies of one
// module group:
//
//  1. Equivalence: after every delta, the incremental session's merges,
//     records and module bytes equal a from-scratch CrossModuleMerger
//     run over the SAME pool state — at every selection mode x thread
//     count x shard configuration. Behaviour is additionally checked
//     through the multi-module interpreter after every step (service
//     group vs a never-merged reference copy under identical edits).
//  2. Fault containment: service-level injected faults (ranking, symbol
//     resolution) degrade a delta to a *counted* full re-merge; the
//     session is never corrupt and still lands on the cold-equivalent
//     state.
//  3. Quarantine decay: functions struck out by the quarantine ladder
//     stay out of candidacy until QuarantineDecayEpochs deltas pass,
//     then re-enter.
//  4. Concurrency: delta batches from racing client threads serialize
//     wholesale (snapshot isolation); the final session equals a cold
//     run over the final pool.
//  5. Warm paths: hash clustering and host moves stay cold-equivalent,
//     and only the full builds (initialize() and the degraded path)
//     load and save the decision cache.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "merge/MergeService.h"
#include "support/RNG.h"
#include "workloads/EditScript.h"
#include "workloads/Suites.h"
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <thread>

using namespace salssa;

namespace {

BenchmarkProfile serviceProfile() {
  // Small but structurally rich: clone families across two TUs so
  // cross-module merges happen, three return types so the session has
  // several merge-compatibility classes to dirty independently.
  BenchmarkProfile P;
  P.Name = "incsvc";
  P.NumFunctions = 26;
  P.MinSize = 6;
  P.AvgSize = 36;
  P.MaxSize = 120;
  P.CloneFamilyPercent = 55;
  P.MinFamily = 2;
  P.MaxFamily = 4;
  P.FamilyDriftPercent = 10;
  P.LoopPercent = 50;
  P.RetTypeVariety = 3;
  P.Seed = 9001;
  return P;
}

ModuleGroup buildGroup(Context &Ctx) {
  return buildBenchmarkModuleGroup(serviceProfile(), Ctx, 2);
}

std::vector<Module *> modsOf(const ModuleGroup &Group) {
  std::vector<Module *> Mods;
  for (size_t I = 0; I < Group.size(); ++I)
    Mods.push_back(&Group[I]);
  return Mods;
}

EditScriptOptions scriptOptions(uint64_t Seed) {
  EditScriptOptions EO;
  EO.NumSteps = 4;
  EO.ChangesPerStep = 3;
  EO.AddsPerStep = 1;
  EO.DeletesPerStep = 1;
  EO.Generate.TargetSize = 30;
  EO.Generate.RetTypeVariety = 3;
  EO.Seed = Seed;
  return EO;
}

MergeDriverOptions driverOptions(SelectionStrategy Sel, unsigned NumThreads,
                                 unsigned Shards) {
  MergeDriverOptions DO;
  DO.Technique = MergeTechnique::SalSSA;
  DO.ExplorationThreshold = 3;
  DO.Selection = Sel;
  DO.NumThreads = NumThreads;
  DO.ShardCount = Shards;
  return DO;
}

/// Applies one scripted step to a copy that is never merged: drift and
/// adds via the script, deletes erased immediately (no call sites by
/// construction).
void applyStepPlain(const EditScript &Script, const std::vector<Module *> &Mods,
                    unsigned Step) {
  EditScript::AppliedStep A = Script.applyStep(Mods, Step);
  for (Function *F : A.Deleted)
    F->getParent()->eraseFunction(F);
}

/// Applies one scripted step through a service delta batch: every
/// changed function is checked out first (the delta protocol), deletes
/// go through the delta.
MergeServiceStats applyStepService(MergeService &Svc, const EditScript &Script,
                                   const std::vector<Module *> &Mods,
                                   unsigned Step) {
  MergeService::DeltaBatch Batch = Svc.beginDelta();
  EditScript::AppliedStep A = Script.applyStep(
      Mods, Step, [&](Function *F) { Batch.checkoutForEdit(F); });
  MergeDelta D;
  D.Changed = A.Changed;
  D.Added = A.Added;
  D.Deleted = A.Deleted;
  return Batch.apply(D);
}

/// What "the same session outcome" means: merges, records (names,
/// commit flags), size accounting and the exact module bytes.
struct Outcome {
  unsigned Attempts = 0;
  unsigned CommittedMerges = 0;
  unsigned CrossModuleMerges = 0;
  uint64_t HashClusterCommits = 0;
  uint64_t SizeBefore = 0;
  uint64_t SizeAfter = 0;
  /// Pairing distance calls + probes. Not part of expectSameOutcome
  /// (probe counts are a speculative-work metric, not an outcome); the
  /// matrix test uses it as the cold-run work bound.
  uint64_t PairingWork = 0;
  std::vector<std::tuple<std::string, std::string, bool>> Records;
  std::string Prints;
  bool VerifierOk = false;
};

Outcome outcomeOf(const std::vector<Module *> &Mods,
                  const CrossModuleStats &S) {
  Outcome O;
  O.Attempts = S.Driver.Attempts;
  O.PairingWork = S.Driver.PairingDistanceCalls + S.Driver.PairingProbes;
  O.CommittedMerges = S.Driver.CommittedMerges;
  O.CrossModuleMerges = S.CrossModuleMerges;
  O.HashClusterCommits = S.Driver.HashClusterCommits;
  O.SizeBefore = S.SizeBefore;
  O.SizeAfter = S.SizeAfter;
  for (const MergeRecord &R : S.Driver.Records)
    O.Records.emplace_back(R.Name1, R.Name2, R.Committed);
  O.VerifierOk = true;
  for (Module *M : Mods) {
    O.Prints += printModule(*M);
    O.VerifierOk = O.VerifierOk && verifyModule(*M).ok();
  }
  return O;
}

void expectSameOutcome(const Outcome &Got, const Outcome &Want,
                       const std::string &Tag) {
  EXPECT_TRUE(Got.VerifierOk) << Tag;
  EXPECT_EQ(Got.CommittedMerges, Want.CommittedMerges) << Tag;
  EXPECT_EQ(Got.CrossModuleMerges, Want.CrossModuleMerges) << Tag;
  EXPECT_EQ(Got.HashClusterCommits, Want.HashClusterCommits) << Tag;
  EXPECT_EQ(Got.Attempts, Want.Attempts) << Tag;
  EXPECT_EQ(Got.SizeBefore, Want.SizeBefore) << Tag;
  EXPECT_EQ(Got.SizeAfter, Want.SizeAfter) << Tag;
  ASSERT_EQ(Got.Records.size(), Want.Records.size()) << Tag;
  for (size_t I = 0; I < Got.Records.size(); ++I)
    EXPECT_EQ(Got.Records[I], Want.Records[I]) << Tag << " record " << I;
  EXPECT_EQ(Got.Prints, Want.Prints) << Tag;
}

/// Cold baseline over the final pool: a fresh group copy with edit steps
/// [0, NumSteps) applied up front, merged once from scratch.
Outcome coldOutcome(const EditScript &Script, unsigned NumSteps,
                    MergeDriverOptions DO) {
  Context Ctx;
  ModuleGroup Group = buildGroup(Ctx);
  std::vector<Module *> Mods = modsOf(Group);
  for (unsigned S = 0; S < NumSteps; ++S)
    applyStepPlain(Script, Mods, S);
  DO.ShardCount = 1; // unsharded == sharded is the sharded runner's contract
  CrossModuleMerger Session(DO);
  for (Module *M : Mods)
    Session.addModule(*M);
  CrossModuleStats S = Session.run();
  return outcomeOf(Mods, S);
}

/// Interpreter differential between a never-merged reference group and
/// the (merged, thunked) service group under identical edits: every
/// reference definition must behave identically through its same-named
/// service counterpart. Both sides interpret their whole group (merged
/// bodies reference globals of several modules).
void groupDifferential(const std::vector<Module *> &Ref,
                       const std::vector<Module *> &Svc, uint64_t Seed,
                       const std::string &Tag) {
  ExecOptions Opts;
  Opts.MaxSteps = 150000;
  Opts.ExternalThrowPercent = 10;
  Interpreter RefInterp(Ref, Opts);
  Interpreter SvcInterp(Svc, Opts);
  for (size_t MI = 0; MI < Ref.size(); ++MI)
    for (Function *RefF : Ref[MI]->functions()) {
      if (RefF->isDeclaration())
        continue;
      Function *SvcF = Svc[MI]->getFunction(RefF->getName());
      ASSERT_NE(SvcF, nullptr) << Tag << ": lost " << RefF->getName();
      RNG ArgRng(mix64(Seed) ^ std::hash<std::string>{}(RefF->getName()));
      for (int Vec = 0; Vec < 3; ++Vec) {
        std::vector<RuntimeValue> Args;
        Args.reserve(RefF->getNumArgs());
        for (unsigned A = 0; A < RefF->getNumArgs(); ++A)
          Args.push_back(RuntimeValue::makeInt(
              Vec == 0 ? 0 : ArgRng.nextBelow(1u << 16)));
        RefInterp.resetMemory();
        ExecResult R1 = RefInterp.run(RefF, Args);
        SvcInterp.resetMemory();
        ExecResult R2 = SvcInterp.run(SvcF, Args);
        EXPECT_TRUE(behaviourallyEqual(R1, R2))
            << Tag << ": behaviour of " << RefF->getName()
            << " changed on argument vector " << Vec;
      }
    }
}

//===----------------------------------------------------------------------===//
// 1. The differential edit-script matrix
//===----------------------------------------------------------------------===//

TEST(MergeServiceTest, IncrementalEquivalentToFromScratchEverywhere) {
  // One script, planned once from a pristine copy, replayed against
  // every config's service copy, reference copy and cold copy.
  EditScript Script = [] {
    Context Ctx;
    ModuleGroup Group = buildGroup(Ctx);
    return EditScript(modsOf(Group), scriptOptions(71));
  }();

  // The script must actually exercise locality somewhere: at least one
  // (config, step) pair has to leave a class clean, or the pairing-work
  // bound above never fires.
  bool SawPartialDirty = false;
  for (SelectionStrategy Sel :
       {SelectionStrategy::Distance, SelectionStrategy::Profit,
        SelectionStrategy::Adaptive})
    for (unsigned NT : {1u, 4u})
      for (unsigned Shards : {1u, 4u}) {
        MergeDriverOptions DO = driverOptions(Sel, NT, Shards);
        std::string Cfg = "sel=" + std::to_string(int(Sel)) +
                          " threads=" + std::to_string(NT) +
                          " shards=" + std::to_string(Shards);

        Context SvcCtx, RefCtx;
        // Teardown order: the service's archive holds operand
        // references into the group, so the service (declared after)
        // dies first.
        ModuleGroup SvcGroup = buildGroup(SvcCtx);
        ModuleGroup RefGroup = buildGroup(RefCtx);
        std::vector<Module *> SvcMods = modsOf(SvcGroup);
        std::vector<Module *> RefMods = modsOf(RefGroup);

        MergeServiceOptions SO;
        SO.Driver = DO;
        MergeService Svc(SO);
        for (Module *M : SvcMods)
          Svc.addModule(*M);
        MergeServiceStats Init = Svc.initialize();
        ASSERT_GT(Init.Session.Driver.CommittedMerges, 0u) << Cfg;
        groupDifferential(RefMods, SvcMods, 71, Cfg + " epoch 0");

        for (unsigned S = 0; S < Script.numSteps(); ++S) {
          MergeServiceStats St =
              applyStepService(Svc, Script, SvcMods, S);
          applyStepPlain(Script, RefMods, S);
          std::string Tag = Cfg + " epoch " + std::to_string(S + 1);
          EXPECT_EQ(St.Epoch, S + 1) << Tag;
          EXPECT_FALSE(St.DegradedToFullRemerge) << Tag;
          EXPECT_GT(St.DirtyClasses, 0u) << Tag;
          groupDifferential(RefMods, SvcMods, 71 + S, Tag);

          // Equivalence with a from-scratch run over this step's pool.
          Outcome Inc = outcomeOf(SvcMods, St.Session);
          Outcome Cold = coldOutcome(Script, S + 1, DO);
          expectSameOutcome(Inc, Cold, Tag);

          // Incrementality: a delta re-merges only its dirty classes, so
          // whenever a step leaves at least one class clean the delta
          // attempts strictly fewer pairs than a from-scratch run over
          // the same pool. (A step that dirties every class re-runs the
          // full pool and carries no such bound.) Pairing work is bound
          // the same way but only at serial configs, where ranking
          // counts decompose exactly per class; with worker threads the
          // per-class speculative probe counts are not comparable to the
          // cold run's global ones.
          if (St.DirtyClasses < St.TotalClasses) {
            SawPartialDirty = true;
            EXPECT_LT(St.EpochAttempts, Cold.Attempts) << Tag;
            if (NT == 1) {
              EXPECT_LT(St.EpochPairingDistanceCalls +
                            St.EpochPairingProbes,
                        Cold.PairingWork)
                  << Tag;
            }
          }
        }
        EXPECT_EQ(Svc.fullRemerges(), 0u) << Cfg;
      }
  EXPECT_TRUE(SawPartialDirty)
      << "the edit script never left a class clean — localized re-merge "
         "was not exercised";
}

TEST(MergeServiceTest, EmptyAndNoopDeltasKeepTheSessionStable) {
  Context Ctx;
  ModuleGroup Group = buildGroup(Ctx);
  std::vector<Module *> Mods = modsOf(Group);
  MergeServiceOptions SO;
  SO.Driver = driverOptions(SelectionStrategy::Distance, 1, 1);
  MergeService Svc(SO);
  for (Module *M : Mods)
    Svc.addModule(*M);
  MergeServiceStats Init = Svc.initialize();
  Outcome Baseline = outcomeOf(Mods, Init.Session);
  ASSERT_GT(Baseline.CommittedMerges, 0u);

  // An empty delta dirties nothing and replays the retained journals to
  // the identical session.
  {
    MergeService::DeltaBatch Batch = Svc.beginDelta();
    MergeServiceStats St = Batch.apply(MergeDelta());
    EXPECT_EQ(St.DirtyClasses, 0u);
    EXPECT_EQ(St.EpochAttempts, 0u);
    EXPECT_EQ(St.UncommittedMerges, 0u);
    expectSameOutcome(outcomeOf(Mods, St.Session), Baseline, "empty delta");
  }

  // A checkout + unchanged body is a structural no-op: counted, the
  // class still re-merges (checkout rewrote the thunk), and the session
  // lands back on the same bytes.
  {
    Function *Target = nullptr;
    for (Function *F : Mods[0]->functions())
      if (!F->isDeclaration()) {
        Target = F;
        break;
      }
    ASSERT_NE(Target, nullptr);
    StructuralHash Before = Svc.structuralHash(Target);
    MergeService::DeltaBatch Batch = Svc.beginDelta();
    Batch.checkoutForEdit(Target);
    MergeDelta D;
    D.Changed = {Target};
    MergeServiceStats St = Batch.apply(D);
    EXPECT_EQ(St.NoopChanges, 1u);
    EXPECT_EQ(St.DirtyClasses, 1u);
    EXPECT_EQ(Svc.structuralHash(Target), Before);
    expectSameOutcome(outcomeOf(Mods, St.Session), Baseline, "noop change");
  }
}

//===----------------------------------------------------------------------===//
// 2. Fault containment: degraded deltas are counted, never corrupt
//===----------------------------------------------------------------------===//

TEST(MergeServiceTest, SymbolResolutionFaultDegradesEveryDeltaCounted) {
  EditScript Script = [] {
    Context Ctx;
    ModuleGroup Group = buildGroup(Ctx);
    return EditScript(modsOf(Group), scriptOptions(72));
  }();
  MergeDriverOptions DO = driverOptions(SelectionStrategy::Distance, 2, 0);
  Context Ctx;
  ModuleGroup Group = buildGroup(Ctx);
  std::vector<Module *> Mods = modsOf(Group);
  MergeServiceOptions SO;
  SO.Driver = DO;
  // Rate 1000 = the service's symbol-resolution fault point fires on
  // every delta. Only the service fires this kind, so the pipelines —
  // and the cold baseline — stay unfaulted.
  SO.Driver.Faults = FaultInjectionConfig::parse("seed=7,symres=1000");
  MergeService Svc(SO);
  for (Module *M : Mods)
    Svc.addModule(*M);
  Svc.initialize(); // no delta planning: initialize never degrades

  for (unsigned S = 0; S < Script.numSteps(); ++S) {
    MergeServiceStats St = applyStepService(Svc, Script, Mods, S);
    EXPECT_TRUE(St.DegradedToFullRemerge) << "step " << S;
    EXPECT_EQ(Svc.fullRemerges(), S + 1);
    for (Module *M : Mods)
      EXPECT_TRUE(verifyModule(*M).ok()) << "step " << S;
    // Degraded or not, the session must land on the cold state.
    MergeDriverOptions CleanDO = DO;
    CleanDO.Faults = FaultInjectionConfig();
    expectSameOutcome(outcomeOf(Mods, St.Session),
                      coldOutcome(Script, S + 1, CleanDO),
                      "degraded step " + std::to_string(S));
  }
}

TEST(MergeServiceTest, RankingFaultSoakNeverCorruptsTheSession) {
  EditScript Script = [] {
    Context Ctx;
    ModuleGroup Group = buildGroup(Ctx);
    return EditScript(modsOf(Group), scriptOptions(73));
  }();
  MergeDriverOptions DO = driverOptions(SelectionStrategy::Profit, 4, 4);
  Context Ctx;
  ModuleGroup Group = buildGroup(Ctx);
  std::vector<Module *> Mods = modsOf(Group);
  MergeServiceOptions SO;
  SO.Driver = DO;
  // ~40% per changed function per delta: some deltas degrade, some
  // survive — both paths must keep the session cold-equivalent.
  SO.Driver.Faults = FaultInjectionConfig::parse("seed=11,ranking=400");
  MergeService Svc(SO);
  for (Module *M : Mods)
    Svc.addModule(*M);
  Svc.initialize();

  for (unsigned S = 0; S < Script.numSteps(); ++S) {
    MergeServiceStats St = applyStepService(Svc, Script, Mods, S);
    for (Module *M : Mods)
      EXPECT_TRUE(verifyModule(*M).ok()) << "step " << S;
    MergeDriverOptions CleanDO = DO;
    CleanDO.Faults = FaultInjectionConfig();
    expectSameOutcome(outcomeOf(Mods, St.Session),
                      coldOutcome(Script, S + 1, CleanDO),
                      "soak step " + std::to_string(S));
  }
  // The configured rate makes at least one of the four deltas degrade
  // (each delta rolls three ~40% dice); a fully quiet soak would mean
  // the fault points are not wired.
  EXPECT_GT(Svc.fullRemerges(), 0u);
  EXPECT_LE(Svc.fullRemerges(), Script.numSteps());
}

//===----------------------------------------------------------------------===//
// 3. Quarantine-ladder strike decay
//===----------------------------------------------------------------------===//

TEST(MergeServiceTest, QuarantinedFunctionsReenterAfterDecay) {
  // Alignment always faults and one strike retires a function: the
  // initial session quarantines every function that got an attempt.
  Context Ctx;
  ModuleGroup Group = buildGroup(Ctx);
  std::vector<Module *> Mods = modsOf(Group);
  MergeServiceOptions SO;
  SO.Driver = driverOptions(SelectionStrategy::Distance, 1, 1);
  SO.Driver.Faults = FaultInjectionConfig::parse("seed=3,align=1000");
  SO.Driver.QuarantineThreshold = 1;
  SO.QuarantineDecayEpochs = 2;
  MergeService Svc(SO);
  for (Module *M : Mods)
    Svc.addModule(*M);
  MergeServiceStats Init = Svc.initialize();
  EXPECT_EQ(Init.Session.Driver.CommittedMerges, 0u);
  size_t Struck = Svc.quarantinedCount();
  ASSERT_GT(Struck, 0u);
  Function *Victim = nullptr;
  for (Module *M : Mods)
    for (Function *F : M->functions())
      if (Svc.isQuarantined(F)) {
        Victim = F;
        break;
      }
  ASSERT_NE(Victim, nullptr);

  // Epoch 1: one epoch since the strikes — under the decay horizon, the
  // ledger holds, nothing re-enters, no work happens.
  {
    MergeService::DeltaBatch Batch = Svc.beginDelta();
    MergeServiceStats St = Batch.apply(MergeDelta());
    EXPECT_EQ(St.QuarantineReleases, 0u);
    EXPECT_EQ(St.EpochAttempts, 0u);
    EXPECT_TRUE(Svc.isQuarantined(Victim));
    EXPECT_EQ(Svc.quarantinedCount(), Struck);
  }

  // Epoch 2: the strikes are QuarantineDecayEpochs old — every ledger
  // entry decays, its class re-merges with the function back in the
  // pool (attempts happen again; with alignment still faulted they fail
  // again and re-quarantine at the new epoch).
  {
    MergeService::DeltaBatch Batch = Svc.beginDelta();
    MergeServiceStats St = Batch.apply(MergeDelta());
    EXPECT_EQ(St.QuarantineReleases, static_cast<unsigned>(Struck));
    EXPECT_GT(St.DirtyClasses, 0u);
    EXPECT_GT(St.EpochAttempts, 0u);
  }
  for (Module *M : Mods)
    EXPECT_TRUE(verifyModule(*M).ok());
}

TEST(MergeServiceTest, ZeroDecayMeansStrikesNeverAge) {
  Context Ctx;
  ModuleGroup Group = buildGroup(Ctx);
  std::vector<Module *> Mods = modsOf(Group);
  MergeServiceOptions SO;
  SO.Driver = driverOptions(SelectionStrategy::Distance, 1, 1);
  SO.Driver.Faults = FaultInjectionConfig::parse("seed=3,align=1000");
  SO.Driver.QuarantineThreshold = 1;
  SO.QuarantineDecayEpochs = 0; // batch-session behaviour
  MergeService Svc(SO);
  for (Module *M : Mods)
    Svc.addModule(*M);
  Svc.initialize();
  size_t Struck = Svc.quarantinedCount();
  ASSERT_GT(Struck, 0u);
  for (unsigned E = 0; E < 3; ++E) {
    MergeService::DeltaBatch Batch = Svc.beginDelta();
    MergeServiceStats St = Batch.apply(MergeDelta());
    EXPECT_EQ(St.QuarantineReleases, 0u) << "epoch " << E;
    EXPECT_EQ(St.EpochAttempts, 0u) << "epoch " << E;
    EXPECT_EQ(Svc.quarantinedCount(), Struck) << "epoch " << E;
  }
}

//===----------------------------------------------------------------------===//
// 4. Concurrent client batches: snapshot isolation
//===----------------------------------------------------------------------===//

TEST(MergeServiceTest, ConcurrentDeltaBatchesSerializeToTheColdState) {
  const unsigned IterationsPerThread = 3;
  MergeDriverOptions DO = driverOptions(SelectionStrategy::Distance, 2, 0);

  Context SvcCtx;
  ModuleGroup SvcGroup = buildGroup(SvcCtx);
  std::vector<Module *> SvcMods = modsOf(SvcGroup);
  MergeServiceOptions SO;
  SO.Driver = DO;
  MergeService Svc(SO);
  for (Module *M : SvcMods)
    Svc.addModule(*M);
  Svc.initialize();

  // Thread T edits module T's functions only (disjoint targets), each
  // iteration drifting one pre-chosen function with a pre-assigned
  // seed: any batch serialization order lands on the same final pool.
  auto targetsOf = [](Module *M, unsigned N) {
    std::vector<std::string> Names;
    for (Function *F : M->functions())
      if (!F->isDeclaration() && Names.size() < N)
        Names.push_back(F->getName());
    return Names;
  };
  std::vector<std::vector<std::string>> Targets = {
      targetsOf(SvcMods[0], IterationsPerThread),
      targetsOf(SvcMods[1], IterationsPerThread)};
  ASSERT_EQ(Targets[0].size(), IterationsPerThread);
  ASSERT_EQ(Targets[1].size(), IterationsPerThread);
  auto editSeed = [](unsigned T, unsigned I) {
    return mix64(0xed17 + T * 100 + I);
  };

  auto client = [&](unsigned T) {
    for (unsigned I = 0; I < IterationsPerThread; ++I) {
      MergeService::DeltaBatch Batch = Svc.beginDelta();
      Function *F = SvcMods[T]->getFunction(Targets[T][I]);
      ASSERT_NE(F, nullptr);
      Batch.checkoutForEdit(F);
      WorkloadEnvironment Env = WorkloadEnvironment::attach(*SvcMods[T]);
      RNG Rng(editSeed(T, I));
      driftFunctionBody(F, Env, Rng, DriftOptions());
      MergeDelta D;
      D.Changed = {F};
      Batch.apply(D);
    }
  };
  std::thread T0(client, 0), T1(client, 1);
  T0.join();
  T1.join();
  EXPECT_EQ(Svc.epoch(), 2 * IterationsPerThread);
  EXPECT_EQ(Svc.fullRemerges(), 0u);

  // Cold baseline: fresh copy, same per-function edits applied
  // serially (disjoint targets make the order immaterial), one
  // from-scratch merge.
  Context ColdCtx;
  ModuleGroup ColdGroup = buildGroup(ColdCtx);
  std::vector<Module *> ColdMods = modsOf(ColdGroup);
  for (unsigned T = 0; T < 2; ++T)
    for (unsigned I = 0; I < IterationsPerThread; ++I) {
      Function *F = ColdMods[T]->getFunction(Targets[T][I]);
      ASSERT_NE(F, nullptr);
      WorkloadEnvironment Env = WorkloadEnvironment::attach(*ColdMods[T]);
      RNG Rng(editSeed(T, I));
      driftFunctionBody(F, Env, Rng, DriftOptions());
    }
  MergeDriverOptions ColdDO = DO;
  ColdDO.ShardCount = 1;
  CrossModuleMerger Cold(ColdDO);
  for (Module *M : ColdMods)
    Cold.addModule(*M);
  CrossModuleStats ColdStats = Cold.run();
  expectSameOutcome(outcomeOf(SvcMods, Svc.lastStats().Session),
                    outcomeOf(ColdMods, ColdStats), "racing clients");
}

//===----------------------------------------------------------------------===//
// 5. Warm paths: clustering deltas, decision-cache warm starts, host
//    re-election
//===----------------------------------------------------------------------===//

BenchmarkProfile clusterProfile() {
  // Zero family drift: clone families are byte-identical, so the
  // structural-hash prologue actually commits clusters.
  BenchmarkProfile P = serviceProfile();
  P.Name = "incsvc.cluster";
  P.FamilyDriftPercent = 0;
  return P;
}

/// Cold baseline over an arbitrary profile (coldOutcome fixes the
/// default group), with \p Extra applied after the script steps.
Outcome coldOutcomeFor(const BenchmarkProfile &P, const EditScript &Script,
                       unsigned NumSteps, MergeDriverOptions DO,
                       const EditStepSpec *Extra = nullptr) {
  Context Ctx;
  ModuleGroup Group = buildBenchmarkModuleGroup(P, Ctx, 2);
  std::vector<Module *> Mods = modsOf(Group);
  for (unsigned S = 0; S < NumSteps; ++S)
    applyStepPlain(Script, Mods, S);
  if (Extra)
    applyEditStep(Mods, *Extra);
  DO.ShardCount = 1;
  CrossModuleMerger Session(DO);
  for (Module *M : Mods)
    Session.addModule(*M);
  CrossModuleStats S = Session.run();
  return outcomeOf(Mods, S);
}

/// The cluster bodies of a merged group, by class: the callees of direct
/// thunks (one block, call + ret, the callee's own signature — a merged
/// function's thunks pass an extra function id).
std::map<Type *, std::set<const Function *>>
clusterBodiesOf(const std::vector<Module *> &Mods) {
  std::map<Type *, std::set<const Function *>> Bodies;
  for (Module *M : Mods)
    for (Function *F : M->functions()) {
      if (F->getNumBlocks() != 1 || (*F->blocks().begin())->size() != 2)
        continue;
      auto *Call = dyn_cast<CallInst>(*(*F->blocks().begin())->begin());
      if (Call && Call->getCallee()->getFunctionType() == F->getFunctionType())
        Bodies[F->getReturnType()].insert(Call->getCallee());
    }
  return Bodies;
}

std::string fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

TEST(MergeServiceTest, HashClusteringDeltasStayLocalAndCold) {
  // Exact-clone clustering runs inside each class pipeline, so a
  // clustering delta is an ordinary localized epoch. The contract is the
  // cold clustered run's bytes, records and cluster commits after every
  // step — including checkouts and deletes of consumed cluster members —
  // and locality: a one-function edit re-runs its class alone and leaves
  // every other class's cluster bodies in place. The decision cache is
  // read and written by initialize() only, so no delta rewrites it.
  BenchmarkProfile P = clusterProfile();
  EditScript Script = [&] {
    Context Ctx;
    ModuleGroup Group = buildBenchmarkModuleGroup(P, Ctx, 2);
    return EditScript(modsOf(Group), scriptOptions(81));
  }();
  for (unsigned NT : {1u, 4u}) {
    MergeDriverOptions DO =
        driverOptions(SelectionStrategy::Distance, NT, NT == 1 ? 1u : 4u);
    DO.HashClustering = true;
    std::string Cfg = "clustered threads=" + std::to_string(NT);
    const std::string CachePath = ::testing::TempDir() +
                                  "salssa_svc_cluster" + std::to_string(NT) +
                                  ".bin";
    std::remove(CachePath.c_str());

    Context SvcCtx, RefCtx;
    ModuleGroup SvcGroup = buildBenchmarkModuleGroup(P, SvcCtx, 2);
    ModuleGroup RefGroup = buildBenchmarkModuleGroup(P, RefCtx, 2);
    std::vector<Module *> SvcMods = modsOf(SvcGroup);
    std::vector<Module *> RefMods = modsOf(RefGroup);

    MergeServiceOptions SO;
    SO.Driver = DO;
    SO.Driver.DecisionCachePath = CachePath;
    MergeService Svc(SO);
    for (Module *M : SvcMods)
      Svc.addModule(*M);
    MergeServiceStats Init = Svc.initialize();
    ASSERT_GT(Init.Session.Driver.HashClusterCommits, 0u)
        << Cfg << ": the zero-drift profile must form clusters";
    expectSameOutcome(outcomeOf(SvcMods, Init.Session),
                      coldOutcomeFor(P, Script, 0, DO), Cfg + " epoch 0");
    groupDifferential(RefMods, SvcMods, 81, Cfg + " epoch 0");
    const std::string CacheAfterInit = fileBytes(CachePath);
    ASSERT_FALSE(CacheAfterInit.empty()) << Cfg;

    for (unsigned S = 0; S < Script.numSteps(); ++S) {
      MergeServiceStats St = applyStepService(Svc, Script, SvcMods, S);
      applyStepPlain(Script, RefMods, S);
      std::string Tag = Cfg + " epoch " + std::to_string(S + 1);
      EXPECT_FALSE(St.DegradedToFullRemerge) << Tag;
      EXPECT_EQ(St.Session.Driver.CacheHits, 0u) << Tag;
      groupDifferential(RefMods, SvcMods, 81 + S, Tag);
      expectSameOutcome(outcomeOf(SvcMods, St.Session),
                        coldOutcomeFor(P, Script, S + 1, DO), Tag);
    }

    // One changed function, in a class other than one that keeps
    // cluster bodies.
    std::map<Type *, std::set<const Function *>> Before =
        clusterBodiesOf(SvcMods);
    EditStepSpec One;
    for (unsigned Mi = 0; Mi < SvcMods.size() && One.Changes.empty(); ++Mi)
      for (Function *F : SvcMods[Mi]->functions()) {
        bool Original = !F->isDeclaration() &&
                        RefMods[Mi]->getFunction(F->getName()) != nullptr;
        bool OtherClassClustered = std::any_of(
            Before.begin(), Before.end(), [F](const auto &KV) {
              return KV.first != F->getReturnType();
            });
        if (Original && OtherClassClustered) {
          One.Changes.push_back({EditOp::Change, Mi, F->getName(), 0x0e0e});
          break;
        }
      }
    ASSERT_EQ(One.Changes.size(), 1u) << Cfg;
    std::string Tag = Cfg + " one-function edit";
    MergeService::DeltaBatch Batch = Svc.beginDelta();
    AppliedEditStep A = applyEditStep(
        SvcMods, One, [&](Function *F) { Batch.checkoutForEdit(F); });
    ASSERT_EQ(A.Changed.size(), 1u) << Tag;
    Type *Edited = A.Changed.front()->getReturnType();
    MergeDelta D;
    D.Changed = A.Changed;
    MergeServiceStats St = Batch.apply(D);
    applyEditStep(RefMods, One);
    EXPECT_FALSE(St.DegradedToFullRemerge) << Tag;
    EXPECT_EQ(St.DirtyClasses, 1u) << Tag;
    EXPECT_LT(St.DirtyClasses, St.TotalClasses) << Tag;
    std::map<Type *, std::set<const Function *>> After =
        clusterBodiesOf(SvcMods);
    for (const auto &KV : Before) {
      if (KV.first != Edited) {
        EXPECT_EQ(After[KV.first], KV.second)
            << Tag << ": a clean class's cluster bodies were rebuilt";
      }
    }
    groupDifferential(RefMods, SvcMods, 97, Tag);
    expectSameOutcome(
        outcomeOf(SvcMods, St.Session),
        coldOutcomeFor(P, Script, Script.numSteps(), DO, &One), Tag);

    EXPECT_EQ(Svc.fullRemerges(), 0u) << Cfg;
    EXPECT_EQ(fileBytes(CachePath), CacheAfterInit)
        << Cfg << ": a delta rewrote the decision cache";
    std::remove(CachePath.c_str());
  }
}

TEST(MergeServiceTest, DecisionCacheWarmStartReplaysByteIdentical) {
  // Session A builds cold and persists its decisions; session B over a
  // fresh copy warm-starts from the file. Cache replay skips alignment
  // work, so Attempts/Records differ by design — the contract is the
  // module bytes, the committed merges and the size accounting.
  std::string Path = "salssa_svc_dcache.bin";
  std::remove(Path.c_str());
  MergeDriverOptions DO = driverOptions(SelectionStrategy::Distance, 1, 1);
  DO.DecisionCachePath = Path;
  MergeServiceOptions SO;
  SO.Driver = DO;

  Outcome ColdO;
  {
    Context Ctx;
    ModuleGroup Group = buildGroup(Ctx);
    std::vector<Module *> Mods = modsOf(Group);
    MergeService Svc(SO);
    for (Module *M : Mods)
      Svc.addModule(*M);
    MergeServiceStats Init = Svc.initialize();
    EXPECT_EQ(Init.Session.Driver.CacheHits, 0u);
    EXPECT_EQ(Init.Session.Driver.CacheLoadRejected, 0u);
    ColdO = outcomeOf(Mods, Init.Session);
    ASSERT_GT(ColdO.CommittedMerges, 0u);
  }

  Context Ctx;
  ModuleGroup Group = buildGroup(Ctx);
  std::vector<Module *> Mods = modsOf(Group);
  MergeService Svc(SO);
  for (Module *M : Mods)
    Svc.addModule(*M);
  MergeServiceStats Init = Svc.initialize();
  EXPECT_GT(Init.Session.Driver.CacheHits, 0u) << "warm start missed";
  EXPECT_EQ(Init.Session.Driver.CacheLoadRejected, 0u);
  Outcome WarmO = outcomeOf(Mods, Init.Session);
  EXPECT_TRUE(WarmO.VerifierOk);
  EXPECT_EQ(WarmO.Prints, ColdO.Prints) << "warm replay changed bytes";
  EXPECT_EQ(WarmO.CommittedMerges, ColdO.CommittedMerges);
  EXPECT_EQ(WarmO.CrossModuleMerges, ColdO.CrossModuleMerges);
  EXPECT_EQ(WarmO.SizeBefore, ColdO.SizeBefore);
  EXPECT_EQ(WarmO.SizeAfter, ColdO.SizeAfter);

  // Incremental deltas after a warm start stay on the ordinary
  // (uncached) localized path and keep cold equivalence.
  EditScript Script = [] {
    Context SCtx;
    ModuleGroup SGroup = buildGroup(SCtx);
    return EditScript(modsOf(SGroup), scriptOptions(82));
  }();
  MergeDriverOptions CleanDO = driverOptions(SelectionStrategy::Distance, 1, 1);
  MergeServiceStats St = applyStepService(Svc, Script, Mods, 0);
  EXPECT_FALSE(St.DegradedToFullRemerge);
  Outcome Inc = outcomeOf(Mods, St.Session);
  Outcome Cold = coldOutcome(Script, 1, CleanDO);
  // Retained clean classes keep their cache-backed records, so compare
  // the pool state, not the record stream.
  EXPECT_TRUE(Inc.VerifierOk);
  EXPECT_EQ(Inc.Prints, Cold.Prints) << "post-warm delta changed bytes";
  EXPECT_EQ(Inc.CommittedMerges, Cold.CommittedMerges);
  EXPECT_EQ(Inc.SizeBefore, Cold.SizeBefore);
  EXPECT_EQ(Inc.SizeAfter, Cold.SizeAfter);
  std::remove(Path.c_str());
}

TEST(MergeServiceTest, DecisionCacheLifecycleFollowsTheFullBuilds) {
  // Only the full builds — initialize() and the degraded path — load and
  // save the cache; a localized delta never touches the file but keeps
  // reporting the last full build's load.
  const std::string Path =
      ::testing::TempDir() + "salssa_svc_cache_lifecycle.bin";
  {
    std::ofstream Damaged(Path, std::ios::binary | std::ios::trunc);
    Damaged << "not a decision cache";
  }
  MergeDriverOptions DO = driverOptions(SelectionStrategy::Distance, 1, 1);
  MergeServiceOptions SO;
  SO.Driver = DO;
  SO.Driver.DecisionCachePath = Path;
  EditScript Script = [] {
    Context Ctx;
    ModuleGroup Group = buildGroup(Ctx);
    return EditScript(modsOf(Group), scriptOptions(84));
  }();
  Outcome Cold = coldOutcome(Script, 1, DO);

  std::string Written;
  {
    Context Ctx;
    ModuleGroup Group = buildGroup(Ctx);
    std::vector<Module *> Mods = modsOf(Group);
    MergeService Svc(SO);
    for (Module *M : Mods)
      Svc.addModule(*M);
    MergeServiceStats Init = Svc.initialize();
    EXPECT_EQ(Init.Session.Driver.CacheLoadRejected, 1u);
    EXPECT_EQ(Init.Session.Driver.CacheHits, 0u);
    Written = fileBytes(Path);
    DecisionCache Check;
    EXPECT_EQ(Check.load(Path, DecisionCache::optionsFingerprint(SO.Driver),
                         nullptr),
              DecisionCache::LoadOutcome::Loaded)
        << "initialize() must replace the damaged file";

    MergeServiceStats St = applyStepService(Svc, Script, Mods, 0);
    EXPECT_FALSE(St.DegradedToFullRemerge);
    EXPECT_EQ(St.Session.Driver.CacheLoadRejected, 1u);
    EXPECT_EQ(St.Session.Driver.CacheHits, 0u);
    EXPECT_EQ(fileBytes(Path), Written) << "a localized delta wrote the file";
    expectSameOutcome(outcomeOf(Mods, St.Session), Cold, "localized delta");
  }

  // A restarted service warm-starts from that file, and its degraded
  // delta (the symbol-resolution fault point fires only in the service)
  // rebuilds against the cache as well.
  SO.Driver.Faults = FaultInjectionConfig::parse("seed=7,symres=1000");
  Context Ctx;
  ModuleGroup Group = buildGroup(Ctx);
  std::vector<Module *> Mods = modsOf(Group);
  MergeService Svc(SO);
  for (Module *M : Mods)
    Svc.addModule(*M);
  MergeServiceStats Init = Svc.initialize();
  EXPECT_EQ(Init.Session.Driver.CacheLoadRejected, 0u);
  EXPECT_GT(Init.Session.Driver.CacheHits, 0u);
  MergeServiceStats St = applyStepService(Svc, Script, Mods, 0);
  EXPECT_TRUE(St.DegradedToFullRemerge);
  EXPECT_EQ(St.Session.Driver.CacheLoadRejected, 0u);
  EXPECT_GT(St.Session.Driver.CacheHits, 0u) << "the degraded rebuild missed";
  Outcome Degraded = outcomeOf(Mods, St.Session);
  EXPECT_TRUE(Degraded.VerifierOk);
  EXPECT_EQ(Degraded.Prints, Cold.Prints) << "warm rebuild changed bytes";
  EXPECT_EQ(Degraded.CommittedMerges, Cold.CommittedMerges);
  std::remove(Path.c_str());
}

TEST(MergeServiceTest, BiggestHostReelectionMovesWithTheScoreLeader) {
  // Grow the non-host module until it outweighs the host: on default
  // service options the next delta must re-elect and land on the bytes a
  // cold Biggest run over the same pool produces. A healthy delta re-runs
  // every class in place on the new host — a localized epoch, not a full
  // re-merge. A delta whose planning faults degrades, and the degraded
  // rebuild elects the same way.
  RandomFunctionOptions Grow;
  Grow.TargetSize = 200;
  Grow.RetTypeVariety = 3;
  auto growModule = [&Grow](Module &M, const std::string &Prefix) {
    std::vector<Function *> Added;
    WorkloadEnvironment Env = WorkloadEnvironment::attach(M);
    RNG Rng(0xb166e57);
    for (int I = 0; I < 4; ++I)
      Added.push_back(generateRandomFunction(
          Env, Rng, Prefix + std::to_string(I), Grow));
    return Added;
  };
  for (bool Degrade : {false, true}) {
    const std::string Leg = Degrade ? "degraded" : "localized";
    MergeDriverOptions DO = driverOptions(SelectionStrategy::Distance, 1, 1);
    DO.Host = HostPolicy::Biggest;
    MergeServiceOptions SO;
    SO.Driver = DO;
    // Only the service fires the symbol-resolution fault point, so the
    // pipelines — and the cold baseline — stay unfaulted.
    if (Degrade)
      SO.Driver.Faults = FaultInjectionConfig::parse("seed=7,symres=1000");

    Context Ctx;
    ModuleGroup Group = buildGroup(Ctx);
    std::vector<Module *> Mods = modsOf(Group);
    MergeService Svc(SO);
    for (Module *M : Mods)
      Svc.addModule(*M);
    Svc.initialize();
    const Module *H0 = Svc.hostModule();
    size_t OtherIdx = (Mods[0] == H0) ? 1 : 0;
    Module *Other = Mods[OtherIdx];

    MergeService::DeltaBatch Batch = Svc.beginDelta();
    MergeDelta D;
    D.Added = growModule(*Other, "grow");
    MergeServiceStats St = Batch.apply(D);
    EXPECT_TRUE(St.HostReelected) << Leg;
    EXPECT_EQ(St.DegradedToFullRemerge, Degrade) << Leg;
    EXPECT_EQ(Svc.fullRemerges(), Degrade ? 1u : 0u) << Leg;
    EXPECT_EQ(St.DirtyClasses, St.TotalClasses) << Leg;
    EXPECT_EQ(Svc.hostModule(), Other) << Leg;
    EXPECT_EQ(Svc.hostReelections(), 1u) << Leg;

    // Cold baseline: fresh copy, the same functions grown into the same
    // module, one from-scratch Biggest run.
    Context ColdCtx;
    ModuleGroup ColdGroup = buildGroup(ColdCtx);
    std::vector<Module *> ColdMods = modsOf(ColdGroup);
    growModule(*ColdMods[OtherIdx], "grow");
    CrossModuleMerger Cold(DO);
    for (Module *M : ColdMods)
      Cold.addModule(*M);
    CrossModuleStats ColdStats = Cold.run();
    expectSameOutcome(outcomeOf(Mods, St.Session),
                      outcomeOf(ColdMods, ColdStats), Leg + " re-election");
    if (Degrade)
      continue;

    // A quiet delta keeps the leader: no move, no class re-runs.
    MergeService::DeltaBatch Batch2 = Svc.beginDelta();
    MergeServiceStats St2 = Batch2.apply(MergeDelta());
    EXPECT_FALSE(St2.HostReelected);
    EXPECT_EQ(St2.DirtyClasses, 0u);
    EXPECT_EQ(Svc.hostReelections(), 1u);
    EXPECT_EQ(Svc.hostModule(), Other);
  }
}

TEST(MergeServiceTest, HottestReelectionStaysColdEquivalentOverAScript) {
  // On default service options the Hottest policy re-scores from the
  // pristine archive every delta; whether or not the leader moves, each
  // epoch must equal the cold Hottest run over the same pool, and a move
  // re-runs every class in place.
  EditScript Script = [] {
    Context Ctx;
    ModuleGroup Group = buildGroup(Ctx);
    return EditScript(modsOf(Group), scriptOptions(83));
  }();
  MergeDriverOptions DO = driverOptions(SelectionStrategy::Distance, 1, 1);
  DO.Host = HostPolicy::Hottest;
  MergeServiceOptions SO;
  SO.Driver = DO;

  Context Ctx;
  ModuleGroup Group = buildGroup(Ctx);
  std::vector<Module *> Mods = modsOf(Group);
  MergeService Svc(SO);
  for (Module *M : Mods)
    Svc.addModule(*M);
  Svc.initialize();
  for (unsigned S = 0; S < 2; ++S) {
    MergeServiceStats St = applyStepService(Svc, Script, Mods, S);
    EXPECT_FALSE(St.DegradedToFullRemerge) << "step " << S;
    if (St.HostReelected) {
      EXPECT_EQ(St.DirtyClasses, St.TotalClasses) << "step " << S;
    }
    expectSameOutcome(outcomeOf(Mods, St.Session),
                      coldOutcome(Script, S + 1, DO),
                      "hottest step " + std::to_string(S));
  }
  EXPECT_EQ(Svc.fullRemerges(), 0u);
}

} // namespace
