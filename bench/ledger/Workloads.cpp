//===- bench/ledger/Workloads.cpp - The ledger's workloads --------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Every workload uses distance selection with exploration threshold t = 2
// and at most four threads or connections. Why each one exists:
//
//   batch_multiclass  1024 functions in 4 suites x 2 TUs with 3-5 return
//                     types: sharding does all the parallel work (4
//                     shards), speculation none. Each rep merges cold
//                     (writing the decision cache), then replays warm.
//   batch_oneclass    the same suites with one return type: sharding
//                     collapses to one shard and optimistic speculation is
//                     the only parallelism (the single-class giant pool).
//   edit_session      an in-process MergeService absorbing a closed loop of
//                     one-change/one-add/one-delete edit epochs: the delta
//                     path does all the work; cache and wire are bypassed.
//   daemon_mixed      the same kind of session behind the socket daemon:
//                     two writers in a closed loop plus a stats reader, so
//                     the wire, the codec and the FIFO lease are on the path.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "merge/CrossModuleMerger.h"
#include "merge/MergeService.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "support/RNG.h"
#include "workloads/EditScript.h"
#include "workloads/Suites.h"
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unistd.h>

using namespace salssa;

namespace ledger {

unsigned RunConfig::quota(double UnitsPerSecond, unsigned Min,
                          unsigned SmokeUnits) const {
  if (Smoke)
    return SmokeUnits;
  return std::max(Min, static_cast<unsigned>(std::lround(Seconds *
                                                         UnitsPerSecond)));
}

std::string RunConfig::workPath(const std::string &Leaf) const {
  return (WorkDir.empty() ? std::string(".") : WorkDir) + "/ledger-" +
         std::to_string(::getpid()) + "-" + Leaf;
}

namespace {

constexpr unsigned Threshold = 2;

MergeDriverOptions driverOptions(unsigned Threads, unsigned Shards) {
  MergeDriverOptions DO;
  DO.Technique = MergeTechnique::SalSSA;
  DO.ExplorationThreshold = Threshold;
  DO.Selection = SelectionStrategy::Distance;
  DO.NumThreads = Threads;
  DO.ShardCount = Shards;
  return DO;
}

double ms(double Seconds) { return Seconds * 1e3; }

/// Which set-up repetitions of the incremental workloads count. Those that
/// start within the first two seconds are a discarded warm-up: after idle,
/// a virtual machine runs the first second or so of work up to 2-3x
/// slower. Six repetitions are measured after it.
class SetupReps {
public:
  explicit SetupReps(const RunConfig &C)
      : Wanted(C.Smoke ? 1 : 6), WarmUntil(nowSeconds() + (C.Smoke ? 0 : 2)) {}
  bool more() const { return Counted < Wanted; }
  /// Whether the repetition that started at \p Start counts.
  bool counts(double Start) {
    bool Counts = Start >= WarmUntil;
    Counted += Counts;
    return Counts;
  }

private:
  unsigned Wanted;
  double WarmUntil;
  unsigned Counted = 0;
};

/// Every pool and edit script is fixed; the seed only salts symbol names
/// (merging is name-blind), so each seed costs the same work. Pool-to-pool
/// cost variance at these sizes exceeds any usable regression bound.
std::string seededName(const char *Base, uint64_t Seed) {
  return std::string(Base) + "_s" + std::to_string(Seed);
}

/// Reports the end-to-end metrics every workload shares. \p Op holds the
/// workload's repeated operation; throughput is ops over their summed
/// latency unless \p OpsPerSecond is given.
void reportEndToEnd(RunOutputs &Out, const Samples &Setup, const Samples &Cold,
                    const Samples &Op, double Reduction,
                    double OpsPerSecond = -1) {
  MetricSink &E = Out.EndToEnd;
  E.set("setup_s", Setup.median(), "s", Setup.size());
  E.set("cold_s", Cold.median(), "s", Cold.size());
  E.set("op_p50_ms", ms(Op.median()), "ms", Op.size());
  E.set("op_p90_ms", ms(Op.quantile(0.9)), "ms", Op.size());
  if (OpsPerSecond < 0)
    OpsPerSecond = Op.sum() > 0 ? double(Op.size()) / Op.sum() : 0;
  E.set("ops_per_s", OpsPerSecond, "1/s", Op.size());
  E.set("reduction_pct", Reduction, "%");
  E.set("peak_rss_mb", peakRssMb(), "MB");
}

/// Per-layer counters read off one session's MergeDriverStats. Attempt
/// outcomes come from the serial records, which are identical at every
/// thread and shard count.
void reportDriverLayers(const MergeDriverStats &S, MetricSink &L) {
  uint64_t Cells = 0, RepairSlots = 0;
  double Matched = 0, Items = 0;
  for (const MergeRecord &R : S.Records) {
    if (R.Stats.Outcome != AttemptOutcome::Completed)
      continue;
    Cells += uint64_t(R.Stats.SeqLen1) * uint64_t(R.Stats.SeqLen2);
    Matched += 2.0 * double(R.Stats.MatchedPairs);
    Items += double(R.Stats.SeqLen1 + R.Stats.SeqLen2);
    RepairSlots += R.Stats.RepairSlots;
  }
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  L.set("merge.candidate_index.distance_calls",
        double(S.PairingDistanceCalls), "count");
  L.set("merge.candidate_index.probes", double(S.PairingProbes), "count");
  L.set("align.nw.cells", double(Cells), "count");
  L.set("align.nw.cpu_s", S.AlignmentSeconds, "s");
  L.set("align.nw.match_ratio", Ratio(Matched, Items), "ratio");
  L.set("merge.codegen.cpu_s", S.CodeGenSeconds, "s");
  L.set("merge.codegen.repair_slots", double(RepairSlots), "count");
  L.set("merge.attempt.count", S.Attempts, "count");
  L.set("merge.attempt.committed", S.CommittedMerges, "count");
  L.set("merge.attempt.profitable_ratio",
        Ratio(S.ProfitableMerges, S.Attempts), "ratio");
  L.set("merge.pipeline.speculative_attempts", S.SpeculativeAttempts,
        "count");
  L.set("merge.pipeline.speculative_discarded", S.SpeculativeDiscarded,
        "count");
  L.set("merge.pipeline.useful_speculation_ratio",
        Ratio(double(S.SpeculativeAttempts) - double(S.SpeculativeDiscarded),
              S.SpeculativeAttempts),
        "ratio");
  L.set("merge.pipeline.commit_conflicts", S.CommitConflicts, "count");
  L.set("merge.pipeline.inline_reattempts", S.InlineReattempts, "count");
  L.set("merge.shard.count", S.ShardCount, "count");
  L.set("merge.shard.imbalance", S.ShardImbalance, "ratio");
}

std::vector<std::pair<std::string, std::string>>
recordPairs(const MergeDriverStats &S) {
  std::vector<std::pair<std::string, std::string>> Pairs;
  for (const MergeRecord &R : S.Records)
    Pairs.emplace_back(R.Name1, R.Name2);
  return Pairs;
}

/// A module group with its own Context (the Context must outlive it).
struct PoolCopy {
  Context Ctx;
  ModuleGroup Group;
  std::vector<Module *> Mods;
};

/// A fresh copy of \p P's pool with edit steps [0, Steps) applied and
/// deletions erased: the never-merged reference, or (once merged) the cold
/// baseline an incremental session must equal.
ModuleGroup editedGroup(const BenchmarkProfile &P, const EditScript &Script,
                        unsigned Steps, Context &Ctx) {
  ModuleGroup Group = buildBenchmarkModuleGroup(P, Ctx, 2);
  std::vector<Module *> Mods = modsOf(Group);
  for (unsigned S = 0; S < Steps; ++S)
    for (Function *F : Script.applyStep(Mods, S).Deleted)
      F->getParent()->eraseFunction(F);
  return Group;
}

std::unique_ptr<PoolCopy> editedPool(const BenchmarkProfile &P,
                                     const EditScript &Script,
                                     unsigned Steps) {
  auto Pool = std::make_unique<PoolCopy>();
  Pool->Group = editedGroup(P, Script, Steps, Pool->Ctx);
  Pool->Mods = modsOf(Pool->Group);
  return Pool;
}

/// Merges \p Pool from scratch with \p DO, unsharded.
CrossModuleStats coldMerge(PoolCopy &Pool, MergeDriverOptions DO) {
  Span S("merge.session.cold");
  DO.ShardCount = 1;
  CrossModuleMerger Session(DO);
  for (Module *M : Pool.Mods)
    Session.addModule(*M);
  return Session.run();
}

void reportDifferential(const DifferentialResult &D, RunOutputs &Out) {
  Out.Ops.check(D.Mismatches == 0,
                std::to_string(D.Mismatches) +
                    " interpreter mismatches against the never-merged "
                    "reference");
  Out.Differential.CheckedCalls += D.CheckedCalls;
  Out.Differential.Mismatches += D.Mismatches;
  Out.Layers.set("interp.checked_calls",
                 double(Out.Differential.CheckedCalls), "count");
  Out.Layers.set("interp.mismatches", double(Out.Differential.Mismatches),
                 "count");
}

//===----------------------------------------------------------------------===//
// Batch workloads
//===----------------------------------------------------------------------===//

/// Four suites in the heterogeneous whole-program shape: clone families
/// split over 2 TUs each. \p OneClass draws a single return type, which
/// makes the whole pool one merge-compatibility class.
std::vector<BenchmarkProfile> batchSuites(uint64_t Seed, bool OneClass,
                                          unsigned PerSuite) {
  struct Shape {
    const char *Name;
    unsigned Variety;
    unsigned AvgSize;
  };
  static const Shape Shapes[] = {{"ledger_a", 5, 45},
                                 {"ledger_b", 4, 55},
                                 {"ledger_c", 5, 40},
                                 {"ledger_d", 3, 60}};
  std::vector<BenchmarkProfile> Profiles;
  for (unsigned I = 0; I < 4; ++I) {
    BenchmarkProfile B;
    B.Name = seededName(Shapes[I].Name, Seed);
    B.NumFunctions = PerSuite;
    B.MinSize = 6;
    B.AvgSize = Shapes[I].AvgSize;
    B.MaxSize = 4 * Shapes[I].AvgSize;
    B.CloneFamilyPercent = 55;
    B.MinFamily = 2;
    B.MaxFamily = 6;
    B.FamilyDriftPercent = 10;
    B.LoopPercent = 50;
    B.RetTypeVariety = OneClass ? 1 : Shapes[I].Variety;
    B.Seed = 0x51A + I;
    Profiles.push_back(B);
  }
  return Profiles;
}

void runBatch(const RunConfig &C, bool OneClass, double RepsPerSecond,
              RunOutputs &Out) {
  const std::vector<BenchmarkProfile> Profiles =
      batchSuites(C.Seed, OneClass, C.Smoke ? 24 : 256);
  auto Build = [Profiles](Context &Ctx) {
    Span S("workloads.build");
    return buildSuiteModuleGroup(Profiles, Ctx, 2);
  };
  MergeDriverOptions DO = driverOptions(4, 0);
  DO.DecisionCachePath = C.workPath("cache.bin");
  const unsigned Reps = C.quota(RepsPerSecond, 3, 1);
  const unsigned WarmPerRep = C.Smoke ? 1 : 5;

  Samples Setup, Cold, Warm, CpuUtil;
  CrossModuleStats LastCold, LastWarm;
  uint64_t FirstDigest = 0;
  // Rep 0 is a discarded warm-up cold run: the first parallel run after
  // idle measures up to 2-3x slower on a virtual machine.
  for (unsigned Rep = 0; Rep <= Reps; ++Rep) {
    const bool Measured = Rep > 0;
    Span RepSpan("ledger.rep", Rep + 1);
    std::remove(DO.DecisionCachePath.c_str());

    auto ColdPool = std::make_unique<PoolCopy>();
    double T0 = nowSeconds();
    ColdPool->Group = Build(ColdPool->Ctx);
    if (Measured)
      Setup.add(nowSeconds() - T0);
    ColdPool->Mods = modsOf(ColdPool->Group);

    double Cpu0 = processCpuSeconds();
    T0 = nowSeconds();
    {
      Span S("merge.session.cold");
      CrossModuleMerger Session(DO);
      for (Module *M : ColdPool->Mods)
        Session.addModule(*M);
      LastCold = Session.run();
    }
    double ColdWall = nowSeconds() - T0;
    if (Measured) {
      Cold.add(ColdWall);
      CpuUtil.add((processCpuSeconds() - Cpu0) / (ColdWall * DO.NumThreads));
    }

    std::string ColdPrints;
    {
      Span S("check.print");
      ColdPrints = groupPrints(ColdPool->Mods);
    }
    uint64_t Digest = digestOf(ColdPrints);
    if (Rep == 0)
      FirstDigest = Digest;
    Out.Ops.check(groupVerifies(ColdPool->Mods) &&
                      LastCold.Driver.CommittedMerges > 0 &&
                      Digest == FirstDigest,
                  "cold rep " + std::to_string(Rep) +
                      ": verifier error, no merges, or a digest that "
                      "differs from the first rep");
    if (Rep == 1) {
      PoolCopy Ref;
      Ref.Group = Build(Ref.Ctx);
      reportDifferential(
          interpreterDifferential(modsOf(Ref.Group), ColdPool->Mods, 8), Out);
    }

    for (unsigned W = 0; Measured && W < WarmPerRep; ++W) {
      PoolCopy WarmPool;
      T0 = nowSeconds();
      WarmPool.Group = Build(WarmPool.Ctx);
      Setup.add(nowSeconds() - T0);
      WarmPool.Mods = modsOf(WarmPool.Group);
      T0 = nowSeconds();
      {
        Span S("merge.session.warm");
        CrossModuleMerger Session(DO);
        for (Module *M : WarmPool.Mods)
          Session.addModule(*M);
        LastWarm = Session.run();
      }
      Warm.add(nowSeconds() - T0);
      Span S("check.print");
      Out.Ops.check(LastWarm.Driver.CacheHits > 0 &&
                        groupPrints(WarmPool.Mods) == ColdPrints,
                    "warm replay of rep " + std::to_string(Rep) +
                        " missed the cache or is not byte-identical to "
                        "the cold print");
    }
  }

  // Warm replays are the repeated operation: a rebuild of unchanged code.
  reportEndToEnd(Out, Setup, Cold, Warm, LastCold.reductionPercent());
  if (C.Trace) {
    MetricSink &L = Out.Layers;
    reportDriverLayers(LastCold.Driver, L);
    L.set("workloads.build_s", Setup.median(), "s", Setup.size());
    L.set("merge.pipeline.cpu_util", CpuUtil.median(), "ratio",
          CpuUtil.size());
    L.set("merge.decision_cache.hits", double(LastWarm.Driver.CacheHits),
          "count");
    L.set("merge.decision_cache.skips", double(LastWarm.Driver.CacheSkips),
          "count");

    ReplayInputs In;
    In.Build = [Profiles](Context &Ctx) {
      return buildSuiteModuleGroup(Profiles, Ctx, 2);
    };
    In.Pairs = recordPairs(LastCold.Driver);
    In.CachePath = DO.DecisionCachePath;
    In.Options = DO;
    runLayerReplay(In, Out);
  }
  std::remove(DO.DecisionCachePath.c_str());
}

//===----------------------------------------------------------------------===//
// Incremental sessions
//===----------------------------------------------------------------------===//

/// Per-epoch MergeService bookkeeping shared by edit_session and the
/// daemon's in-process twin.
struct ServiceTally {
  Samples Epoch, Apply, Checkout, EditStep;
  double ApplyCpu = 0, ApplyWall = 0;
  uint64_t Dirty = 0, Classes = 0, Uncommitted = 0;
  uint64_t EpochAttempts = 0, SessionAttempts = 0;
  uint64_t EpochCalls = 0, EpochProbes = 0, SessionPairing = 0;
  MergeServiceStats Last;

  /// Applies script step \p Step through one delta batch, timing the
  /// whole epoch (batch open, checkouts, edit, apply) and its parts.
  void step(MergeService &Svc, const EditScript &Script,
            const std::vector<Module *> &Mods, unsigned Step) {
    double T0 = nowSeconds();
    double CheckoutSecs = 0;
    MergeService::DeltaBatch Batch = [&] {
      Span S("merge.service.begin_delta");
      return Svc.beginDelta();
    }();
    double E0 = nowSeconds();
    AppliedEditStep A;
    {
      Span S("workloads.edit_step");
      A = Script.applyStep(Mods, Step, [&](Function *F) {
        Span CS("merge.service.checkout");
        double C0 = nowSeconds();
        Batch.checkoutForEdit(F);
        double D = nowSeconds() - C0;
        Checkout.add(D);
        CheckoutSecs += D;
      });
    }
    EditStep.add(nowSeconds() - E0 - CheckoutSecs);
    MergeDelta D;
    D.Changed = A.Changed;
    D.Added = A.Added;
    D.Deleted = A.Deleted;
    double Cpu0 = processCpuSeconds();
    double A0 = nowSeconds();
    {
      Span S("merge.service.apply");
      Last = Batch.apply(D);
    }
    double End = nowSeconds();
    Apply.add(End - A0);
    ApplyWall += End - A0;
    ApplyCpu += processCpuSeconds() - Cpu0;
    Epoch.add(End - T0);

    Dirty += Last.DirtyClasses;
    Classes += Last.TotalClasses;
    Uncommitted += Last.UncommittedMerges;
    EpochAttempts += Last.EpochAttempts;
    SessionAttempts += Last.Session.Driver.Attempts;
    EpochCalls += Last.EpochPairingDistanceCalls;
    EpochProbes += Last.EpochPairingProbes;
    SessionPairing += Last.Session.Driver.PairingDistanceCalls +
                      Last.Session.Driver.PairingProbes;
  }

  /// Work counters are what the epochs actually spent; outcome counters
  /// describe the final (cold-equivalent) session.
  void report(MetricSink &L, unsigned FullRemerges, unsigned Threads) const {
    auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
    reportDriverLayers(Last.Session.Driver, L);
    L.set("merge.candidate_index.distance_calls", double(EpochCalls), "count");
    L.set("merge.candidate_index.probes", double(EpochProbes), "count");
    L.set("merge.attempt.count", double(EpochAttempts), "count");
    L.set("merge.pipeline.cpu_util", Ratio(ApplyCpu, ApplyWall * Threads),
          "ratio", Apply.size());
    L.set("workloads.edit_step_ms", ms(EditStep.median()), "ms",
          EditStep.size());
    L.set("merge.service.apply_ms_p50", ms(Apply.median()), "ms",
          Apply.size());
    L.set("merge.service.checkout_us",
          Checkout.empty() ? 0 : 1e6 * Checkout.sum() / Checkout.size(), "us",
          Checkout.size());
    L.set("merge.service.dirty_class_ratio", Ratio(Dirty, Classes), "ratio",
          Epoch.size());
    L.set("merge.service.epoch_attempt_ratio",
          Ratio(EpochAttempts, SessionAttempts), "ratio", Epoch.size());
    L.set("merge.service.epoch_pairing_ratio",
          Ratio(double(EpochCalls + EpochProbes), SessionPairing), "ratio",
          Epoch.size());
    L.set("merge.service.uncommitted_merges", double(Uncommitted), "count");
    L.set("merge.service.full_remerges", FullRemerges, "count");
  }
};

BenchmarkProfile serviceProfile(const std::string &Name, uint64_t Seed,
                                unsigned NumFns, unsigned Variety,
                                unsigned AvgSize) {
  BenchmarkProfile P;
  P.Name = Name;
  P.NumFunctions = NumFns;
  P.MinSize = 6;
  P.AvgSize = AvgSize;
  P.MaxSize = 4 * AvgSize;
  P.CloneFamilyPercent = 55;
  P.MinFamily = 2;
  P.MaxFamily = 5;
  P.FamilyDriftPercent = 10;
  P.LoopPercent = 50;
  P.RetTypeVariety = Variety;
  P.Seed = Seed;
  return P;
}

EditScriptOptions editOptions(uint64_t Seed, unsigned Steps,
                              unsigned Variety, unsigned TargetSize) {
  EditScriptOptions EO;
  EO.NumSteps = Steps;
  EO.ChangesPerStep = 1;
  EO.AddsPerStep = 1;
  EO.DeletesPerStep = 1;
  EO.Generate.TargetSize = TargetSize;
  EO.Generate.RetTypeVariety = Variety;
  EO.Seed = Seed;
  // No structural insertions: driftFunctionBody rewires the *first* user
  // of a value, and a body restored by checkoutForEdit keeps its printed
  // bytes but not its use-list order, so the same step would edit the
  // session copy and the reference copy differently (a generator
  // nondeterminism, seen after ~30-60 epochs; not a merge defect).
  EO.Drift.InsertPercent = 0;
  return EO;
}

/// One edit_session set-up: the service's pool, its planned script and
/// the service itself (declared last: it must die before the modules).
struct EditRig {
  PoolCopy Pool;
  std::unique_ptr<EditScript> Script;
  std::unique_ptr<MergeService> Svc;
};

} // namespace

void runBatchMulticlass(const RunConfig &C, RunOutputs &Out) {
  runBatch(C, /*OneClass=*/false, /*RepsPerSecond=*/0.27, Out);
}

void runBatchOneclass(const RunConfig &C, RunOutputs &Out) {
  runBatch(C, /*OneClass=*/true, /*RepsPerSecond=*/0.17, Out);
}

void runEditSession(const RunConfig &C, RunOutputs &Out) {
  const BenchmarkProfile P = serviceProfile(
      seededName("ledger_edit", C.Seed), 0xED17, C.Smoke ? 48 : 192, 5, 42);
  const unsigned Epochs = C.quota(7.0, 30, 6);
  const unsigned CheckEvery = C.Smoke ? 3 : 30;
  // Script 0x5C1 is avoided: by epoch 30 it adds a function whose merge
  // miscompiles (see "Findings" in README.md).
  const EditScriptOptions EO = editOptions(0x5C3, Epochs, 5, 36);
  MergeServiceOptions SO;
  SO.Driver = driverOptions(4, 0);

  // Set-up (pool, script, initialize) runs several times; the last rig
  // serves the epochs.
  Samples Setup, Cold;
  std::unique_ptr<EditRig> Rig;
  SetupReps Reps(C);
  for (unsigned K = 0; Reps.more(); ++K) {
    Span RepSpan("ledger.setup", K + 1);
    Rig.reset();
    Rig = std::make_unique<EditRig>();
    double T0 = nowSeconds();
    {
      Span S("workloads.build");
      Rig->Pool.Group = buildBenchmarkModuleGroup(P, Rig->Pool.Ctx, 2);
    }
    Rig->Pool.Mods = modsOf(Rig->Pool.Group);
    {
      Span S("workloads.plan_script");
      Rig->Script = std::make_unique<EditScript>(Rig->Pool.Mods, EO);
    }
    Rig->Svc = std::make_unique<MergeService>(SO);
    for (Module *M : Rig->Pool.Mods)
      Rig->Svc->addModule(*M);
    double Built = nowSeconds();
    {
      Span S("merge.service.initialize");
      Rig->Svc->initialize();
    }
    if (Reps.counts(T0)) {
      double End = nowSeconds();
      Setup.add(End - T0);
      Cold.add(End - Built);
    }
  }

  ServiceTally Tally;
  for (unsigned E = 0; E < Epochs; ++E) {
    {
      Span EpochSpan("ledger.epoch", E + 1);
      Tally.step(*Rig->Svc, *Rig->Script, Rig->Pool.Mods, E);
    }
    Out.Ops.check(!Tally.Last.DegradedToFullRemerge,
                  "epoch " + std::to_string(E + 1) +
                      " degraded to a full re-merge");
    if ((E + 1) % CheckEvery != 0 && E + 1 != Epochs)
      continue;
    // Equivalence gate: the session equals a cold merge of the
    // identically edited pool, and behaves like the never-merged pool.
    Span S("check.cold_reference", E + 1);
    std::unique_ptr<PoolCopy> ColdPool = editedPool(P, *Rig->Script, E + 1);
    coldMerge(*ColdPool, SO.Driver);
    Out.Ops.check(groupPrints(ColdPool->Mods) ==
                      groupPrints(Rig->Pool.Mods),
                  "epoch " + std::to_string(E + 1) +
                      " is not byte-identical to a cold merge");
    std::unique_ptr<PoolCopy> Plain = editedPool(P, *Rig->Script, E + 1);
    reportDifferential(
        interpreterDifferential(Plain->Mods, Rig->Pool.Mods, 4), Out);
  }

  reportEndToEnd(Out, Setup, Cold, Tally.Epoch,
                 Tally.Last.Session.reductionPercent());
  if (!C.Trace)
    return;

  Tally.report(Out.Layers, Rig->Svc->fullRemerges(), SO.Driver.NumThreads);
  Out.Layers.set("workloads.build_s", Setup.median(), "s", Setup.size());

  ReplayInputs In;
  const EditScript *Script = Rig->Script.get();
  In.Build = [P, Script, Epochs](Context &Ctx) {
    return editedGroup(P, *Script, Epochs, Ctx);
  };
  In.Pairs = recordPairs(Tally.Last.Session.Driver);
  In.Options = SO.Driver;
  runLayerReplay(In, Out);
}

void runDaemonMixed(const RunConfig &C, RunOutputs &Out) {
  const BenchmarkProfile P = serviceProfile(
      seededName("ledger_daemon", C.Seed), 0xDAE, C.Smoke ? 26 : 96, 3, 36);
  const unsigned Applies = C.quota(7.0, 30, 6);
  const EditScriptOptions EO = editOptions(0x3141, Applies, 3, 30);
  const MergeDriverOptions DO = driverOptions(1, 1);
  RegisterModulesRequest RM;
  RM.Profile = P;
  RM.NumModules = 2;
  RM.Selection = DO.Selection;
  RM.NumThreads = DO.NumThreads;
  RM.ShardCount = DO.ShardCount;
  RM.ExplorationThreshold = DO.ExplorationThreshold;
  auto Ok = [](const DaemonClient::Result &R) {
    return R.TransportOk && R.Status == StatusCode::Ok;
  };
  auto ClientOpts = [&](const std::string &Socket, uint64_t Salt) {
    ClientOptions CO;
    CO.SocketPath = Socket;
    CO.RetrySeed = mix64(C.Seed * 31 + Salt);
    return CO;
  };

  // Set-up (the client's own pool copy and script, a daemon start and
  // RegisterModules) runs several times; RegisterModules, the daemon's
  // cold merge, is also timed alone. The last daemon serves the loop.
  Samples Setup, Cold;
  std::unique_ptr<Daemon> D;
  std::unique_ptr<PoolCopy> Pristine;
  std::unique_ptr<EditScript> Script;
  std::string Socket;
  SetupReps Reps(C);
  for (unsigned K = 0; Reps.more(); ++K) {
    Span RepSpan("ledger.setup", K + 1);
    if (D)
      D->stop();
    D.reset();
    Script.reset();
    double T0 = nowSeconds();
    Pristine = std::make_unique<PoolCopy>();
    {
      Span S("workloads.build");
      Pristine->Group = buildBenchmarkModuleGroup(P, Pristine->Ctx, 2);
    }
    Pristine->Mods = modsOf(Pristine->Group);
    {
      Span S("workloads.plan_script");
      Script = std::make_unique<EditScript>(Pristine->Mods, EO);
    }
    Socket = C.workPath("d" + std::to_string(K) + ".sock");
    DaemonOptions DOpts;
    DOpts.SocketPath = Socket;
    D = std::make_unique<Daemon>(DOpts);
    {
      Span S("service.daemon.start");
      if (!Out.Ops.check(D->start(), "daemon start: " + D->lastError()))
        return;
    }
    double Started = nowSeconds();
    DaemonClient Registrar(ClientOpts(Socket, 100 + K));
    StatsSnapshot Init;
    DaemonClient::Result R;
    {
      Span S("service.rpc.register");
      R = Registrar.registerModules(RM, Init);
    }
    if (Reps.counts(T0)) {
      double End = nowSeconds();
      Setup.add(End - T0);
      Cold.add(End - Started);
    }
    if (!Out.Ops.check(Ok(R), "RegisterModules: " + R.ErrorMessage))
      return;
  }

  // Two writers in a closed loop with zero think time, one stats reader
  // with a 10 ms think time. A writer takes its script step only after
  // BeginDelta granted the lease, so steps apply in lease order.
  struct WriterLog {
    Samples ApplyRpc, LeaseWait, ApplyOnly;
    std::vector<std::pair<unsigned, ApplyDeltaRequest>> Requests;
    std::vector<std::pair<unsigned, ApplyDeltaResponse>> Responses;
    uint64_t Retries = 0;
  };
  WriterLog Logs[2];
  std::atomic<unsigned> Reserved{0}, NextStep{0};
  std::atomic<bool> WritersDone{false};
  Samples StatsRpc;
  std::vector<QueryStatsResponse> StatsSeen;
  uint64_t ReaderRetries = 0;

  auto Writer = [&](unsigned W) {
    WriterLog &Log = Logs[W];
    DaemonClient Client(ClientOpts(Socket, W));
    for (uint64_t N = 1; Reserved.fetch_add(1) < Applies; ++N) {
      Span ReqSpan("ledger.request", (uint64_t(W + 1) << 32) | N);
      double T0 = nowSeconds();
      DaemonClient::Result R;
      {
        Span S("service.rpc.begin_delta");
        R = Client.beginDelta();
      }
      double T1 = nowSeconds();
      if (!Out.Ops.check(Ok(R), "BeginDelta: " + R.ErrorMessage))
        continue;
      const unsigned Step = NextStep.fetch_add(1);
      ApplyDeltaRequest Req;
      Req.Token = mix64(C.Seed * 1000003 + Step);
      Req.Spec = Script->stepSpec(Step);
      ApplyDeltaResponse Resp;
      {
        Span S("service.rpc.apply_delta");
        R = Client.applyDelta(Req.Spec, Req.Token, Resp);
      }
      double T2 = nowSeconds();
      if (!Out.Ops.check(Ok(R), "ApplyDelta step " + std::to_string(Step) +
                                    ": " + R.ErrorMessage))
        continue;
      Log.LeaseWait.add(T1 - T0);
      Log.ApplyOnly.add(T2 - T1);
      Log.ApplyRpc.add(T2 - T0);
      if (C.Trace) {
        Log.Requests.emplace_back(Step, std::move(Req));
        Log.Responses.emplace_back(Step, Resp);
      }
    }
    Log.Retries = Client.retriesUsed();
  };
  auto Reader = [&] {
    DaemonClient Client(ClientOpts(Socket, 7));
    while (!WritersDone.load()) {
      QueryStatsResponse Resp;
      double T0 = nowSeconds();
      DaemonClient::Result R;
      {
        Span S("service.rpc.query_stats");
        R = Client.queryStats(false, Resp);
      }
      StatsRpc.add(nowSeconds() - T0);
      Out.Ops.check(Ok(R), "QueryStats: " + R.ErrorMessage);
      if (C.Trace)
        StatsSeen.push_back(std::move(Resp));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ReaderRetries = Client.retriesUsed();
  };

  const double Cpu0 = processCpuSeconds();
  const double Loop0 = nowSeconds();
  std::thread ReaderThread(Reader);
  std::thread W0(Writer, 0), W1(Writer, 1);
  W0.join();
  W1.join();
  const double LoopWall = nowSeconds() - Loop0;
  const double LoopCpu = processCpuSeconds() - Cpu0;
  WritersDone.store(true);
  ReaderThread.join();

  const unsigned Applied = NextStep.load();
  Samples ApplyRpc, LeaseWait, ApplyOnly;
  for (const WriterLog &Log : Logs) {
    ApplyRpc.append(Log.ApplyRpc);
    LeaseWait.append(Log.LeaseWait);
    ApplyOnly.append(Log.ApplyOnly);
  }

  // Equivalence gate: the daemon's final modules equal a cold merge of the
  // pool edited in lease order, which behaves like the never-merged pool.
  DaemonClient Final(ClientOpts(Socket, 9));
  QueryStatsResponse FinalStats;
  DaemonClient::Result R = Final.queryStats(true, FinalStats);
  Out.Ops.check(Ok(R), "final QueryStats: " + R.ErrorMessage);
  D->stop();
  std::unique_ptr<PoolCopy> ColdPool, Plain;
  {
    Span S("check.cold_reference");
    ColdPool = editedPool(P, *Script, Applied);
    coldMerge(*ColdPool, DO);
    Out.Ops.check(Applied == Applies &&
                      FinalStats.Prints == groupPrints(ColdPool->Mods),
                  "daemon session is not byte-identical to a cold merge of "
                  "the pool edited in lease order");
    Plain = editedPool(P, *Script, Applied);
  }
  reportDifferential(interpreterDifferential(Plain->Mods, ColdPool->Mods, 2),
                     Out);

  const StatsSnapshot &FS = FinalStats.Stats;
  double Reduction =
      FS.SizeBefore ? 100.0 * (1.0 - double(FS.SizeAfter) / FS.SizeBefore)
                    : 0;
  reportEndToEnd(Out, Setup, Cold, ApplyRpc, Reduction,
                 LoopWall > 0 ? ApplyRpc.size() / LoopWall : 0);
  if (!C.Trace)
    return;

  MetricSink &L = Out.Layers;
  L.set("workloads.build_s", Setup.median(), "s", Setup.size());
  L.set("service.lease_wait_ms_p50", ms(LeaseWait.median()), "ms",
        LeaseWait.size());
  L.set("service.lease_wait_ms_p90", ms(LeaseWait.quantile(0.9)), "ms",
        LeaseWait.size());
  L.set("service.stats_rpc_p90_ms", ms(StatsRpc.quantile(0.9)), "ms",
        StatsRpc.size());
  L.set("service.client.retries",
        double(Logs[0].Retries + Logs[1].Retries + ReaderRetries), "count");
  L.set("service.daemon.request_errors",
        double(FinalStats.Daemon.RequestErrors), "count");

  // In-process twin: the same steps in lease order on a MergeService with
  // the daemon's options. It gives the per-epoch service counters, a
  // per-epoch digest check, and the wire's share of an apply.
  std::vector<std::pair<unsigned, ApplyDeltaResponse>> Responses;
  std::vector<std::pair<unsigned, ApplyDeltaRequest>> Requests;
  for (WriterLog &Log : Logs) {
    Responses.insert(Responses.end(), Log.Responses.begin(),
                     Log.Responses.end());
    Requests.insert(Requests.end(), Log.Requests.begin(), Log.Requests.end());
  }
  std::sort(Responses.begin(), Responses.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  std::sort(Requests.begin(), Requests.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  ServiceTally Tally;
  unsigned FullRemerges = 0;
  {
    EditRig Twin;
    Twin.Pool.Group = buildBenchmarkModuleGroup(P, Twin.Pool.Ctx, 2);
    Twin.Pool.Mods = modsOf(Twin.Pool.Group);
    MergeServiceOptions SO;
    SO.Driver = DO;
    Twin.Svc = std::make_unique<MergeService>(SO);
    for (Module *M : Twin.Pool.Mods)
      Twin.Svc->addModule(*M);
    Twin.Svc->initialize();
    for (const auto &[Step, Resp] : Responses) {
      {
        Span S("twin.epoch", Step + 1);
        Tally.step(*Twin.Svc, *Script, Twin.Pool.Mods, Step);
      }
      Out.Ops.check(Resp.Stats.ModuleDigest ==
                        digestOf(groupPrints(Twin.Pool.Mods)),
                    "wire epoch " + std::to_string(Step + 1) +
                        " differs from the in-process twin");
    }
    FullRemerges = Twin.Svc->fullRemerges();
  }
  Tally.report(L, FullRemerges, DO.NumThreads);
  L.set("merge.pipeline.cpu_util", LoopCpu / (LoopWall * DO.NumThreads),
        "ratio");
  L.set("service.wire_overhead_ratio",
        Tally.Epoch.sum() > 0 ? ApplyOnly.sum() / Tally.Epoch.sum() - 1 : 0,
        "ratio", ApplyOnly.size());

  ReplayInputs In;
  const EditScript *ScriptPtr = Script.get();
  In.Build = [P, ScriptPtr, Applied](Context &Ctx) {
    return editedGroup(P, *ScriptPtr, Applied, Ctx);
  };
  In.Pairs = recordPairs(Tally.Last.Session.Driver);
  In.Options = DO;
  for (auto &[Step, Req] : Requests)
    In.Requests.push_back(std::move(Req));
  for (auto &[Step, Resp] : Responses)
    In.Responses.push_back(std::move(Resp));
  In.StatsResponses = std::move(StatsSeen);
  In.StatsResponses.push_back(FinalStats);
  runLayerReplay(In, Out);
}

} // namespace ledger
