//===- merge/MergePipeline.cpp - Staged, shardable merge driver ---------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "merge/MergePipeline.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/Chrono.h"
#include "support/ThreadPool.h"
#include "transforms/Canonicalize.h"
#include <algorithm>
#include <atomic>
#include <unordered_set>

using namespace salssa;

namespace {

/// Moves an attempt out of its task slot, leaving the slot inert so
/// discardRemaining cannot double-free the speculative function.
MergeAttempt takeAttempt(MergeAttempt &Slot) {
  MergeAttempt A = Slot;
  Slot = MergeAttempt();
  return A;
}

} // namespace

MergePipeline::MergePipeline(const std::vector<Module *> &Modules,
                             Module &Host, const MergeDriverOptions &Options,
                             const std::map<Function *, unsigned> &BaselineSize,
                             MergeDriverStats &Stats,
                             const PipelineShardScope &Scope)
    : Modules(Modules), Host(Host), Materialize(*Scope.Materialize),
      PoolFilter(*Scope.PoolFilter), Fingerprints(*Scope.Fingerprints),
      Journal(*Scope.Journal), Options(Options), BaselineSize(BaselineSize),
      Stats(Stats),
      CGOpts(MergeCodeGenOptions::forTechnique(Options.Technique,
                                               Options.EnablePhiCoalescing)) {
  assert(std::find(this->Modules.begin(), this->Modules.end(),
                   &Materialize) == this->Modules.end() &&
         &Materialize.getContext() == &Host.getContext() &&
         "the scratch materialization module must be outside the module "
         "set and share the host's Context");
  auto HostIt = std::find(this->Modules.begin(), this->Modules.end(), &Host);
  assert(HostIt != this->Modules.end() && "host must be a registered module");
  HostId = static_cast<uint32_t>(HostIt - this->Modules.begin());
#ifndef NDEBUG
  for (Module *M : this->Modules)
    assert(&M->getContext() == &Host.getContext() &&
           "cross-module merging requires a shared Context");
#endif
  SeedProfit = ProfitModel::forArch(Options.Arch);
  BaseT = std::max(1u, Options.ExplorationThreshold);
  MaxT = BaseT + AdaptiveRange;
  // Warm decisions in, fresh recordings out (both optional, both only
  // ever touched at the serial commit stage). Must be wired before
  // buildPool so the pool entries get their cache keys.
  Cache = Scope.Cache;
  CacheUpdates = Scope.CacheUpdates;
  QuarantineSink = Scope.Quarantined;
  // Failure containment: programmatic arming wins, otherwise a stock
  // binary can be soaked via the SALSSA_FAULTS environment spec. Both
  // pointers stay null on a healthy run so attemptMerge takes its exact
  // pre-containment path (the zero-fault bit-identity invariant).
  Faults = Options.Faults.armed() ? Options.Faults
                                  : FaultInjectionConfig::fromEnv();
  if (Faults.armed())
    FaultsPtr = &Faults;
  if (Options.Budget.any())
    Budget = &Options.Budget;
  buildPool();
}

MergePipeline::~MergePipeline() = default;

//===----------------------------------------------------------------------===//
// Rank stage
//===----------------------------------------------------------------------===//

void MergePipeline::buildPool() {
  // Build the candidate pool over every registered module. Like the
  // paper, merging proceeds from the largest functions to the smallest;
  // the stable sort breaks size ties by (module registration order,
  // creation order).
  for (size_t Mi = 0; Mi < Modules.size(); ++Mi) {
    for (Function *F : Modules[Mi]->functions()) {
      // The filter is the authoritative pool predicate: the session
      // computed it from mergeable functions before any slice launched,
      // and checking it instead of isMergeable() keeps this slice from
      // reading a foreign function's body state (its block list) while
      // another slice's commit stage is rewriting it into a thunk.
      if (!PoolFilter.count(F))
        continue;
      auto FPIt = Fingerprints.find(F);
      assert(FPIt != Fingerprints.end() &&
             "precomputed fingerprints must cover the filtered pool");
      PoolEntry E;
      E.F = F;
      E.FP = *FPIt->second;
      E.CostSize = BaselineSize.at(F);
      E.ModuleId = static_cast<uint32_t>(Mi);
      Pool.push_back(E);
    }
  }
  std::stable_sort(Pool.begin(), Pool.end(),
                   [](const PoolEntry &A, const PoolEntry &B) {
                     return A.FP.Size > B.FP.Size;
                   });

  // Index every live pool entry by id == pool position. The index is
  // maintained incrementally: committed merges retire their inputs and
  // remerge entries are inserted, so no pool rescan ever happens.
  for (size_t I = 0; I < Pool.size(); ++I)
    Index.insert(static_cast<uint32_t>(I), Pool[I].FP, Pool[I].ModuleId);

  // Cache keys are assigned in serial pool order — the occurrence index
  // is positional, so this must happen after the sort and must be the
  // same walk a warm run performs (it is: the pool build above is
  // deterministic at every thread and shard count).
  if (Cache || CacheUpdates)
    for (size_t I = 0; I < Pool.size(); ++I)
      assignCacheKey(I);
}

void MergePipeline::assignCacheKey(size_t I) {
  Pool[I].Hash = structuralHashFor(*Pool[I].F, Options.Canonicalize);
  Pool[I].HashOcc = HashOccCounter[Pool[I].Hash]++;
  KeyToPool.emplace(DecisionKey{Pool[I].Hash, Pool[I].HashOcc},
                    static_cast<uint32_t>(I));
}

unsigned MergePipeline::effectiveThreshold(Type *RetTy) const {
  if (Options.Selection != SelectionStrategy::Adaptive)
    return BaseT;
  auto It = Classes.find(RetTy);
  return It == Classes.end() ? BaseT : It->second.CurrentT;
}

MergePipeline::ClassSelectionState &MergePipeline::classState(Type *RetTy) {
  auto It = Classes.find(RetTy);
  if (It == Classes.end()) {
    ClassSelectionState CS;
    CS.Profit = SeedProfit;
    CS.CurrentT = BaseT;
    It = Classes.emplace(RetTy, CS).first;
  }
  return It->second;
}

unsigned MergePipeline::maxThreshold() const {
  unsigned T = BaseT;
  for (const auto &KV : Classes)
    T = std::max(T, KV.second.CurrentT);
  return T;
}

void MergePipeline::tallyVote(ClassSelectionState &CS, bool Shrink,
                              bool Widen) {
  ++CS.RoundEntries;
  if (Shrink)
    ++CS.ShrinkVotes;
  else if (Widen)
    ++CS.WidenVotes;
  if (CS.RoundEntries >= AdaptRoundSize) {
    if (CS.WidenVotes > CS.ShrinkVotes && CS.CurrentT < MaxT)
      ++CS.CurrentT;
    else if (CS.ShrinkVotes > CS.WidenVotes && CS.CurrentT > BaseT)
      --CS.CurrentT;
    Stats.AdaptiveThresholdMax =
        std::max(Stats.AdaptiveThresholdMax, CS.CurrentT);
    CS.RoundEntries = CS.WidenVotes = CS.ShrinkVotes = 0;
  }
}

void MergePipeline::profitRerank(std::vector<CandidateIndex::Hit> &Hits,
                                 uint32_t SelfModule, unsigned T) const {
  // (estimated profit desc, same-module-as-entry first, distance asc,
  // id asc). The same-module preference is the candidate-aware
  // tie-breaker that recovers the cross-module greedy gap: at equal
  // estimated profit a partner from the entry's own module leaves
  // partners in *other* modules unconsumed for their own local
  // near-clones, instead of the global greedy order eating them.
  // "Equal" is judged at the model's resolution, not to the byte: the
  // estimate is a calibrated EMA, so scores are compared in
  // ScoreBucketBytes-wide buckets (floor division, exact for negatives
  // too) — a model this coarse earns trust only for *large* profit
  // gaps, while inside a bucket the same-module preference and then the
  // distance ranking (the signal the paper trusts) decide.
  auto scoreOf = [](const CandidateIndex::Hit &H) {
    int64_t S = H.EstProfit;
    return S >= 0 ? S / ScoreBucketBytes
                  : -((-S + ScoreBucketBytes - 1) / ScoreBucketBytes);
  };
  // The incoming slate is distance-sorted, so Hits[0] is the nearest
  // candidate — the one Distance selection would attempt first. It is
  // guaranteed a seat in the final slate: the estimate is a model, the
  // commit stage decides by *actual* attempt profit, and keeping the
  // distance pick attemptable caps how much a misprediction can cost.
  const CandidateIndex::Hit Nearest = Hits.empty() ? CandidateIndex::Hit{}
                                                   : Hits.front();
  // Plain sort, not stable_sort: the comparator totally orders hits
  // (ids are unique), so the result is deterministic either way, and
  // stable_sort's temporary buffer is a malloc per rank() — measurable
  // on clone-heavy pools where the query itself is a few probes.
  std::sort(Hits.begin(), Hits.end(),
            [&scoreOf, SelfModule](const CandidateIndex::Hit &A,
                                   const CandidateIndex::Hit &B) {
              int64_t SA = scoreOf(A), SB = scoreOf(B);
              if (SA != SB)
                return SA > SB;
              bool SameA = A.ModuleId == SelfModule;
              bool SameB = B.ModuleId == SelfModule;
              if (SameA != SameB)
                return SameA;
              if (A.Distance != B.Distance)
                return A.Distance < B.Distance;
              return A.Id < B.Id;
            });
  if (Hits.size() > T) {
    bool NearestKept = false;
    for (unsigned J = 0; J < T; ++J)
      NearestKept |= Hits[J].Id == Nearest.Id;
    Hits.resize(T);
    if (!NearestKept)
      Hits.back() = Nearest;
  }
}

std::vector<CandidateIndex::Hit> MergePipeline::rank(size_t I) {
  // The selection mode decides what the driver does with the distance
  // ranking.
  auto RankT0 = std::chrono::steady_clock::now();
  std::vector<CandidateIndex::Hit> Candidates;
  const unsigned T = effectiveThreshold(Pool[I].FP.RetTy);
  if (Options.Selection == SelectionStrategy::Distance || Pool[I].IsRemerge) {
    // The paper's scheme verbatim. Merged functions re-entering the pool
    // keep it under every mode: they sit outside the model's calibration
    // (their fingerprints carry fid-dispatch overhead).
    Candidates = Index.query(Pool[I].FP, T, static_cast<uint32_t>(I));
  } else {
    // Profit-guided: distance is only a proxy for profit, and the exact
    // top-t by *estimated profit* is not index-computable (overlap does
    // not shrink with the size gap), so widen the distance slate with
    // the bounded extension — continuation candidates within the t-th
    // best distance, recycled from the walk the top-t query pays for
    // anyway — and re-rank the slate by the model.
    ProfitModel &PM = classState(Pool[I].FP.RetTy).Profit;
    Candidates = Index.query(Pool[I].FP, T, static_cast<uint32_t>(I), &PM,
                             SlateExtra);
    profitRerank(Candidates, Pool[I].ModuleId, T);
  }
  Stats.RankingSeconds += secondsSince(RankT0);
  return Candidates;
}

//===----------------------------------------------------------------------===//
// Commit stage
//===----------------------------------------------------------------------===//

void MergePipeline::discardRemaining(AttemptTask &Spec) {
  for (MergeAttempt &A : Spec.Attempts) {
    if (!A.Valid)
      continue;
    discardMerge(A);
    ++Stats.SpeculativeDiscarded;
  }
}

MergeAttempt MergePipeline::guardedAttempt(Function &F1, Function &F2,
                                           unsigned SizeF1, unsigned SizeF2,
                                           Module *Target,
                                           unsigned *Failures,
                                           const AlignmentReplay *Replay) {
  try {
    // Alignments are captured whenever an update sink is attached: any
    // executed attempt — worker-speculative included — may end up the
    // committed winner whose alignment the cache must record.
    return attemptMerge(F1, F2, CGOpts, Options.Arch, SizeF1, SizeF2, Target,
                        Budget, FaultsPtr, Replay,
                        /*CaptureAlignment=*/CacheUpdates != nullptr);
  } catch (const std::exception &) {
    // The attempt guard: one throwing pair (injected, or a real bug in
    // alignment/codegen) becomes a skipped pair, not a dead session.
    // attemptMerge throws before touching the target module or burning a
    // name (the alignment fault point fires first; past it the pipeline
    // is exception-free by construction), so there is nothing to roll
    // back here.
    MergeAttempt A;
    A.F1 = &F1;
    A.F2 = &F2;
    A.Stats.Outcome = AttemptOutcome::Faulted;
    if (Failures)
      ++*Failures;
    return A;
  }
}

bool MergePipeline::quarantineIfStruckOut(size_t I) {
  if (!Options.QuarantineThreshold || Pool[I].Consumed ||
      Pool[I].Failures < Options.QuarantineThreshold)
    return false;
  // The degradation ladder's last rung: this function keeps poisoning
  // attempts — retire it unmerged so the rest of the session stops
  // paying for it. Never reached on a healthy run (attempts there never
  // fail), so the ladder is invisible to the zero-fault contract.
  Pool[I].Consumed = true;
  Index.retire(static_cast<uint32_t>(I));
  ++Stats.QuarantinedFunctions;
  if (QuarantineSink)
    QuarantineSink->push_back(Pool[I].F);
  return true;
}

void MergePipeline::noteAttemptFailure(size_t EntryIdx, uint32_t PartnerId) {
  if (!Options.QuarantineThreshold)
    return;
  ++Pool[EntryIdx].Failures;
  ++Pool[PartnerId].Failures;
  // The partner is judged immediately; the entry finishes its slate
  // first (commitEntry's epilogue judges it) so one bad partner cannot
  // cost the entry its remaining candidates this round.
  quarantineIfStruckOut(PartnerId);
}

void MergePipeline::commitEntry(size_t I, AttemptTask *Spec) {
  if (Pool[I].Consumed) {
    // Consumed by an earlier commit (serial: as the partner of an
    // earlier entry; parallel: likewise, only discovered after the
    // snapshot attempts already ran).
    if (Spec)
      discardRemaining(*Spec);
    Journal.push_back(PipelineEntryTrace());
    return;
  }
  // Quarantine gate: strikes accrued as a partner of earlier entries may
  // already have condemned this one — retire it before paying for its
  // slate. The journal still gets this entry's (empty) slot.
  if (quarantineIfStruckOut(I)) {
    if (Spec)
      discardRemaining(*Spec);
    Journal.push_back(PipelineEntryTrace());
    return;
  }
  // Warm fast path: replay the recorded decision when one exists and
  // still resolves against the live pool; otherwise fall through to the
  // live rank/attempt path (and count the miss).
  if (Cache) {
    if (replayFromCache(I, Spec))
      return;
    ++Stats.CacheMisses;
  }
  PipelineEntryTrace Trace;
  Trace.EntryFn = Pool[I].F;
  Function *F1 = Pool[I].F;
  ClassSelectionState &CS = classState(Pool[I].FP.RetTy);
  // Live-path recording: an entry is cacheable only when its whole slate
  // ran clean (every attempt completed, nothing verifier-rejected) — a
  // replayed entry must never need the failure-containment ladder.
  bool Recordable = CacheUpdates != nullptr;
  CachedDecision Recorded;

  // Pairing phase: rank the other live candidates by fingerprint
  // distance and keep the top-t. In the parallel path this re-ranks
  // against the *current* pool — the optimistic conflict rule: only
  // candidates still in this authoritative list may reuse their
  // speculative attempt (both inputs then provably unchanged since the
  // snapshot), everything else is redone inline.
  std::vector<CandidateIndex::Hit> Candidates = rank(I);
  if (Spec && !std::equal(Candidates.begin(), Candidates.end(),
                          Spec->Hits.begin(), Spec->Hits.end(),
                          [](const CandidateIndex::Hit &A,
                             const CandidateIndex::Hit &B) {
                            return A.Id == B.Id && A.Distance == B.Distance;
                          }))
    ++Stats.CommitConflicts;

  // Try the top-t candidates; keep the most profitable attempt. This
  // replays the serial driver exactly: same attempt order, same record
  // order, and — via the explicit makeUniqueName burn for reused
  // speculative attempts — the same unique-name sequence the serial
  // code generator would have produced.
  MergeAttempt Best;
  size_t BestIdx = 0;
  size_t BestRecord = 0;
  size_t BestSlate = 0; // Best's position in the selection slate
  std::string BestName; // non-empty iff Best is a staged (reused) attempt
  const bool ProfitGuided = Options.Selection != SelectionStrategy::Distance;
  for (size_t Slate = 0; Slate < Candidates.size(); ++Slate) {
    const CandidateIndex::Hit &R = Candidates[Slate];
    Function *F2 = Pool[R.Id].F;
    MergeAttempt A;
    std::string StagedName;
    int SpecSlot = -1;
    if (Spec)
      for (size_t S = 0; S < Spec->Hits.size(); ++S)
        if (Spec->Hits[S].Id == R.Id && Spec->Attempts[S].Valid) {
          SpecSlot = static_cast<int>(S);
          break;
        }
    if (SpecSlot >= 0) {
      A = takeAttempt(Spec->Attempts[static_cast<size_t>(SpecSlot)]);
      // Replay the name id the serial generator would have consumed for
      // this attempt; the winner is adopted under it below.
      StagedName = Materialize.makeUniqueName(F1->getName() + ".m");
    } else {
      // Inline attempts generate directly into the slice's scratch
      // host, burning its name counter once per attempt. Guarded: a faulted pair faults here exactly as it would have on
      // the speculative path (decisions are keyed by names), so the
      // serial record stream is thread-count-invariant even under
      // injected faults.
      A = guardedAttempt(*F1, *F2, Pool[I].CostSize, Pool[R.Id].CostSize,
                         &Materialize, /*Failures=*/nullptr);
      // Driver-thread accumulator (workers own theirs; see
      // MergeDriverStats).
      Stats.AlignmentSeconds += A.Stats.AlignmentSeconds;
      Stats.CodeGenSeconds += A.Stats.CodeGenSeconds;
      if (Spec)
        ++Stats.InlineReattempts;
    }
    ++Stats.Attempts;
    Trace.Partners.push_back(F2);
    Stats.PeakAlignmentBytes =
        std::max(Stats.PeakAlignmentBytes, A.Stats.AlignmentBytes);
    MergeRecord Rec;
    Rec.Name1 = F1->getName();
    Rec.Name2 = F2->getName();
    Rec.Stats = A.Stats;
    size_t RecIdx = Stats.Records.size();
    Stats.Records.push_back(Rec);
    // Authoritative containment accounting, from serial-order record
    // outcomes only — identical at every thread count, like Records.
    // Guard catches and budget rejects both strike the quarantine
    // ladder (so do firewall rejects, below).
    if (A.Stats.Outcome == AttemptOutcome::Faulted) {
      ++Stats.AttemptFailures;
      noteAttemptFailure(I, R.Id);
    } else if (A.Stats.Outcome == AttemptOutcome::BudgetAlignment ||
               A.Stats.Outcome == AttemptOutcome::BudgetBody) {
      ++Stats.BudgetRejects;
      noteAttemptFailure(I, R.Id);
    }
    if (Recordable) {
      if (A.Stats.Outcome != AttemptOutcome::Completed) {
        Recordable = false;
      } else {
        CachedAttempt CA;
        CA.Partner = DecisionKey{Pool[R.Id].Hash, Pool[R.Id].HashOcc};
        CA.Distance = R.Distance;
        CA.ProfitObs = A.profit();
        CA.Profitable = A.Stats.Profitable;
        Recorded.Attempts.push_back(std::move(CA));
      }
    }
    if (!A.Valid)
      continue;
    // Online calibration: every executed attempt reveals its actual
    // profit; fold it into the model. Serial commit order (records are
    // identical at every thread count) keeps the model — and every
    // ranking derived from it — deterministic.
    if (ProfitGuided)
      CS.Profit.observe(ProfitModel::overlap(Pool[I].FP, Pool[R.Id].FP,
                                             R.Distance),
                        R.Distance, A.profit());
    if (A.Stats.Profitable)
      ++Stats.ProfitableMerges;
    if (A.Stats.Profitable && (!Best.Valid || A.profit() > Best.profit())) {
      // The always-on commit firewall: no merged body replaces Best —
      // hence none can ever be committed — without passing ir/Verifier
      // here at the serial commit stage. A reject is rolled back
      // (discarded, never adopted) and the loop falls through to the
      // next candidate, or to no-merge. Only would-be winners are
      // verified, so the healthy-path cost is one verification per
      // improvement, not per attempt.
      VerifierReport Firewall = verifyFunction(*A.Gen.Merged);
      if (!Firewall.ok()) {
        ++Stats.VerifierRejects;
        Stats.Records[RecIdx].Stats.VerifierRejected = true;
        noteAttemptFailure(I, R.Id);
        discardMerge(A);
        Recordable = false;
        continue;
      }
      if (Best.Valid)
        discardMerge(Best);
      Best = A;
      BestIdx = R.Id;
      BestRecord = RecIdx;
      BestSlate = Slate;
      BestName = StagedName;
    } else {
      discardMerge(A);
    }
  }
  if (Spec)
    discardRemaining(*Spec);

  // Adaptive exploration: widen t when profit keeps showing up at the
  // tail of a full slate (exploration is paying), shrink it back toward
  // the base when the top pick wins or the entry comes up dry (it is
  // not). A top-pick win always votes shrink — even when it is also the
  // slate tail (slate of one), otherwise t ratchets up exactly on the
  // pools that need no exploration. Entries with an empty slate carry
  // no selection signal and are not tallied — they are also the entries
  // the parallel snapshot loop never routes through commitEntry, so
  // tallying them would make the adaptive trajectory (hence attempts
  // and records) thread-count-dependent. Votes are tallied over
  // AdaptRoundSize entries so a single outlier cannot thrash t; the
  // range is clamped to [BaseT, MaxT], which is the convergence bound
  // selection_test pins.
  if (Options.Selection == SelectionStrategy::Adaptive &&
      !Candidates.empty()) {
    bool Shrink = !Best.Valid || BestSlate == 0;
    bool Widen = !Shrink && Candidates.size() >= CS.CurrentT &&
                 BestSlate + 1 == Candidates.size();
    if (Recordable) {
      Recorded.VoteTallied = true;
      Recorded.VoteShrink = Shrink;
      Recorded.VoteWiden = Widen;
    }
    tallyVote(CS, Shrink, Widen);
  }

  // Recording epilogue: the slate ran clean — persist the decision
  // (committed, dry, or ranked-empty alike; warm runs save the pairing
  // work either way). The winner additionally carries its alignment so
  // replay can regenerate the identical body with zero aligner work.
  if (Recordable) {
    if (Best.Valid) {
      Recorded.Winner = static_cast<int32_t>(BestSlate);
      CachedAttempt &W = Recorded.Attempts[BestSlate];
      W.SeqLen1 = static_cast<uint32_t>(Best.Stats.SeqLen1);
      W.SeqLen2 = static_cast<uint32_t>(Best.Stats.SeqLen2);
      W.Align = Best.AlignEntries;
    }
    CacheUpdates->push_back(
        {DecisionKey{Pool[I].Hash, Pool[I].HashOcc}, std::move(Recorded)});
  }

  if (!Best.Valid) {
    // Quarantine epilogue: the slate is complete — if this entry's
    // failures (on either side of its pairs, this round or earlier)
    // struck it out and nothing committed, retire it now instead of
    // re-ranking it as everyone else's partner forever.
    quarantineIfStruckOut(I);
    Journal.push_back(std::move(Trace));
    return;
  }

  // A reused speculative attempt lives in its worker's staging module;
  // inline attempts already generated into Materialize.
  if (!BestName.empty())
    adoptMergedFunction(Best, Materialize, BestName);
  commitWinner(I, BestIdx, Best, BestRecord, BestSlate, Trace);
}

void MergePipeline::commitWinner(size_t I, size_t PartnerIdx,
                                 MergeAttempt &Best, size_t BestRecord,
                                 size_t WinnerOffset,
                                 PipelineEntryTrace &Trace) {
  // Thunk both inputs (each in its own module), retire them from the
  // pool, and offer the merged function — which lives in the
  // materialization module — for further merging.
  commitMerge(Best, Host.getContext());
  ++Stats.CommittedMerges;
  if (Pool[I].ModuleId != Pool[PartnerIdx].ModuleId)
    ++Stats.CrossModuleMerges;
  // Mark the exact attempt that won by record index: name matching
  // could flag the wrong record when the same pair is re-attempted
  // across pool iterations.
  Stats.Records[BestRecord].Committed = true;
  Trace.WinnerRecord = static_cast<int32_t>(WinnerOffset);
  Trace.Merged = Best.Gen.Merged;
  Pool[I].Consumed = true;
  Pool[PartnerIdx].Consumed = true;
  Index.retire(static_cast<uint32_t>(I));
  Index.retire(static_cast<uint32_t>(PartnerIdx));
  if (Options.AllowRemerge) {
    PoolEntry E;
    E.F = Best.Gen.Merged;
    E.FP = fingerprintFor(*E.F, Options.Canonicalize);
    E.CostSize = estimateFunctionSize(*E.F, Options.Arch);
    E.ModuleId = HostId;
    E.IsRemerge = true;
    Pool.push_back(E);
    Index.insert(static_cast<uint32_t>(Pool.size() - 1), Pool.back().FP,
                 HostId);
    if (Cache || CacheUpdates)
      assignCacheKey(Pool.size() - 1);
  }
  Journal.push_back(std::move(Trace));
}

bool MergePipeline::replayFromCache(size_t I, AttemptTask *Spec) {
  const CachedDecision *D = Cache->lookup({Pool[I].Hash, Pool[I].HashOcc});
  if (!D)
    return false;
  // Resolve every recorded partner against the live pool up front: the
  // replay is all-or-nothing, so a half-resolved decision (changed code,
  // or an earlier miss that perturbed the pool) costs nothing and the
  // entry re-runs — and re-records — live.
  std::vector<uint32_t> Partner(D->Attempts.size());
  for (size_t A = 0; A < D->Attempts.size(); ++A) {
    auto It = KeyToPool.find(D->Attempts[A].Partner);
    if (It == KeyToPool.end() || It->second == I || Pool[It->second].Consumed)
      return false;
    Partner[A] = It->second;
  }
  if (D->Winner >= 0 && static_cast<size_t>(D->Winner) >= D->Attempts.size())
    return false; // defensive: load() range-checks, but stay safe
  if (Spec)
    discardRemaining(*Spec);

  PipelineEntryTrace Trace;
  Trace.EntryFn = Pool[I].F;
  Function *F1 = Pool[I].F;
  ClassSelectionState &CS = classState(Pool[I].FP.RetTy);
  const bool ProfitGuided = Options.Selection != SelectionStrategy::Distance;

  MergeAttempt Best;
  uint32_t BestIdx = 0;
  size_t BestRecord = 0;
  size_t BestOffset = 0;
  for (size_t A = 0; A < D->Attempts.size(); ++A) {
    const CachedAttempt &CA = D->Attempts[A];
    Function *F2 = Pool[Partner[A]].F;
    Trace.Partners.push_back(F2);
    MergeRecord Rec;
    Rec.Name1 = F1->getName();
    Rec.Name2 = F2->getName();
    if (D->Winner != static_cast<int32_t>(A)) {
      // Skipped non-winner: no pipeline runs, but the unique name its
      // cold-run code generation burned is burned anyway — the counter
      // must stay in lockstep for byte-identical modules downstream.
      Materialize.makeUniqueName(F1->getName() + ".m");
      Rec.Stats.Outcome = AttemptOutcome::CacheSkipped;
      Rec.Stats.SizeF1 = Pool[I].CostSize;
      Rec.Stats.SizeF2 = Pool[Partner[A]].CostSize;
      Rec.Stats.Profitable = CA.Profitable;
      if (CA.Profitable)
        ++Stats.ProfitableMerges;
      Stats.Records.push_back(Rec);
      ++Stats.CacheSkips;
      // Replay the calibration the cold run's executed attempt fed the
      // model, so live-ranked (miss) entries downstream see the same
      // estimates.
      if (ProfitGuided)
        CS.Profit.observe(ProfitModel::overlap(Pool[I].FP,
                                               Pool[Partner[A]].FP,
                                               CA.Distance),
                          CA.Distance, static_cast<int>(CA.ProfitObs));
      continue;
    }
    // The winner: run the real pipeline with the recorded alignment —
    // the cache is a shortcut, not an authority, so the replay payload
    // is validated inside attemptMerge (silent fallback to the live
    // aligner) and the commit firewall below stays on.
    AlignmentReplay AR;
    AR.SeqLen1 = CA.SeqLen1;
    AR.SeqLen2 = CA.SeqLen2;
    AR.Entries = &CA.Align;
    MergeAttempt W = guardedAttempt(*F1, *F2, Pool[I].CostSize,
                                    Pool[Partner[A]].CostSize, &Materialize,
                                    /*Failures=*/nullptr, &AR);
    Stats.AlignmentSeconds += W.Stats.AlignmentSeconds;
    Stats.CodeGenSeconds += W.Stats.CodeGenSeconds;
    ++Stats.Attempts;
    Stats.PeakAlignmentBytes =
        std::max(Stats.PeakAlignmentBytes, W.Stats.AlignmentBytes);
    Rec.Stats = W.Stats;
    size_t RecIdx = Stats.Records.size();
    Stats.Records.push_back(Rec);
    if (ProfitGuided && W.Valid)
      CS.Profit.observe(ProfitModel::overlap(Pool[I].FP, Pool[Partner[A]].FP,
                                             CA.Distance),
                        CA.Distance, W.profit());
    if (W.Stats.Profitable)
      ++Stats.ProfitableMerges;
    if (W.Valid && W.Stats.Profitable) {
      VerifierReport Firewall = verifyFunction(*W.Gen.Merged);
      if (!Firewall.ok()) {
        ++Stats.VerifierRejects;
        Stats.Records[RecIdx].Stats.VerifierRejected = true;
        discardMerge(W);
      } else {
        Best = W;
        BestIdx = Partner[A];
        BestRecord = RecIdx;
        BestOffset = A;
      }
    } else if (W.Valid) {
      discardMerge(W);
    }
  }

  // Replay the recorded adaptive vote so the per-class threshold
  // trajectory matches the cold run for every entry that still ranks
  // live.
  if (Options.Selection == SelectionStrategy::Adaptive && D->VoteTallied)
    tallyVote(CS, D->VoteShrink, D->VoteWiden);

  ++Stats.CacheHits;

  if (!Best.Valid) {
    Journal.push_back(std::move(Trace));
    return true;
  }
  // Inline replay attempts generate directly into Materialize, so no
  // adoption step is needed.
  commitWinner(I, BestIdx, Best, BestRecord, BestOffset, Trace);
  return true;
}

//===----------------------------------------------------------------------===//
// Orchestration
//===----------------------------------------------------------------------===//

void MergePipeline::runSerial() {
  // The legacy driver loop: every stage inline, in pool order.
  // Iterating by index: committed merges append the merged function to
  // the pool so it can merge again.
  for (size_t I = 0; I < Pool.size(); ++I)
    commitEntry(I, nullptr);
}

void MergePipeline::runParallel(unsigned NumThreads) {
  ThreadPool Workers(NumThreads);
  std::vector<WorkerState> State(Workers.numThreads());
  for (size_t W = 0; W < State.size(); ++W) {
    State[W].Staging = std::make_unique<Module>(
        Host.getName() + ".staging" + std::to_string(W), Host.getContext());
    State[W].Staging->setStaging(true);
  }

  const size_t DefaultWindow = Options.CommitWindow
                                   ? Options.CommitWindow
                                   : std::max<size_t>(32, 8 * Workers.numThreads());
  // SelectionStrategy::Adaptive sizes the window from the observed
  // per-round staleness (conflicts + predicted conflicts): high
  // staleness means snapshots rot before commit — shrink; low staleness
  // means barriers dominate — grow. The window NEVER changes outcomes
  // (pipeline_test pins that), only speculation waste, so adapting it is
  // outcome-neutral by construction. An explicit CommitWindow pins it.
  const bool AdaptWindow = Options.Selection == SelectionStrategy::Adaptive &&
                           Options.CommitWindow == 0;
  const size_t MinWindow = std::max<size_t>(8, Workers.numThreads());
  const size_t MaxWindow = DefaultWindow * 4;
  size_t Window = DefaultWindow;
  const bool ProfitGuided = Options.Selection != SelectionStrategy::Distance;

  size_t Cursor = 0;
  while (Cursor < Pool.size()) {
    size_t End = std::min(Pool.size(), Cursor + Window);
    const unsigned ConflictsBefore =
        Stats.CommitConflicts + Stats.SpeculationsSkipped;

    // Rank stage: snapshot the top-t list of every live entry in the
    // window against the current pool. The profit-guided modes predict
    // commit conflicts while snapshotting: once an earlier entry in the
    // window has claimed a candidate as its top pick (the pair an
    // earlier serial commit will most likely consume), any later entry
    // whose own top pick is already claimed skips speculation — its
    // attempt would very likely be thrown away at commit — and runs
    // inline at the commit stage instead, exactly like the serial path.
    std::vector<AttemptTask> Tasks;
    std::unordered_set<uint32_t> Claimed;
    // Partners an earlier cache replay in this window is recorded to
    // consume. They have no cached decision of their own (the cold run
    // consumed them before their turn, so they never reached
    // commitEntry), which means the lookup below cannot recognise them;
    // without this set a warm run would rank and speculate them at full
    // cost only to discard everything at commit.
    std::unordered_set<uint32_t> ReplayConsumes;
    for (size_t I = Cursor; I < End; ++I) {
      if (Pool[I].Consumed)
        continue;
      // Entries with a cached decision never rank or speculate: an
      // empty, non-speculative task routes them through commitEntry
      // (which replays them — or, if the recorded partners no longer
      // resolve by commit time, re-runs them inline exactly like the
      // serial path). The recorded winner marks its partner as
      // replay-consumed, and additionally feeds the profit-guided
      // conflict predictor for the rest of the window.
      if (Cache) {
        const CachedDecision *D =
            Cache->lookup({Pool[I].Hash, Pool[I].HashOcc});
        if (D) {
          AttemptTask T;
          T.PoolIdx = static_cast<uint32_t>(I);
          T.Speculate = false;
          if (D->Winner >= 0) {
            auto It = KeyToPool.find(
                D->Attempts[static_cast<size_t>(D->Winner)].Partner);
            if (It != KeyToPool.end()) {
              ReplayConsumes.insert(It->second);
              if (ProfitGuided) {
                Claimed.insert(T.PoolIdx);
                Claimed.insert(It->second);
              }
            }
          }
          Tasks.push_back(std::move(T));
          continue;
        }
        if (ReplayConsumes.count(static_cast<uint32_t>(I))) {
          // Recorded as a winning partner of an earlier replay in this
          // window: it will be consumed before its own turn comes up, so
          // snapshot ranking would be pure waste. The empty inline task
          // keeps the serial fallback intact — if the predicting replay
          // failed after all, commitEntry runs this entry live (and
          // counts the miss) exactly like the serial path.
          AttemptTask T;
          T.PoolIdx = static_cast<uint32_t>(I);
          T.Speculate = false;
          Tasks.push_back(std::move(T));
          continue;
        }
      }
      AttemptTask T;
      T.PoolIdx = static_cast<uint32_t>(I);
      T.Hits = rank(I);
      if (T.Hits.empty())
        continue;
      if (ProfitGuided) {
        T.Speculate = !Claimed.count(T.PoolIdx) && !Claimed.count(T.Hits[0].Id);
        Claimed.insert(T.PoolIdx);
        Claimed.insert(T.Hits[0].Id);
        if (!T.Speculate)
          ++Stats.SpeculationsSkipped;
      }
      Tasks.push_back(std::move(T));
    }

    // Attempt stage: run every snapshot attempt on the worker pool.
    // Workers only read the pool and the input functions (no commit ran
    // since the snapshot) and build speculative functions in their own
    // staging module; the shared Context interns under a lock.
    if (!Tasks.empty()) {
      std::atomic<size_t> NextTask{0};
      for (size_t W = 0; W < State.size(); ++W) {
        WorkerState &WS = State[W];
        Workers.submit([this, &Tasks, &NextTask, &WS] {
          for (;;) {
            size_t T = NextTask.fetch_add(1, std::memory_order_relaxed);
            if (T >= Tasks.size())
              return;
            AttemptTask &Task = Tasks[T];
            if (!Task.Speculate)
              continue; // predicted conflict: commit will run it inline
            const PoolEntry &E1 = Pool[Task.PoolIdx];
            // Per-task guard: a failure *outside* the per-attempt guard
            // (the TaskFailure fault point models infrastructure dying
            // between attempts) drops the task's partial results and
            // demotes it to the inline path — the commit stage re-runs
            // the entry exactly like the serial driver, so task
            // failures can only ever waste work, never change outcomes.
            try {
              if (FaultsPtr)
                maybeInjectFault(*FaultsPtr, FaultKind::TaskFailure,
                                 E1.F->getName());
              Task.Attempts.reserve(Task.Hits.size());
              for (const CandidateIndex::Hit &R : Task.Hits) {
                const PoolEntry &E2 = Pool[R.Id];
                MergeAttempt A =
                    guardedAttempt(*E1.F, *E2.F, E1.CostSize, E2.CostSize,
                                   WS.Staging.get(), &WS.FailuresRun);
                ++WS.AttemptsRun;
                WS.AlignmentSeconds += A.Stats.AlignmentSeconds;
                WS.CodeGenSeconds += A.Stats.CodeGenSeconds;
                Task.Attempts.push_back(std::move(A));
              }
            } catch (const std::exception &) {
              for (MergeAttempt &A : Task.Attempts)
                if (A.Valid)
                  discardMerge(A);
              Task.Attempts.clear();
              Task.Speculate = false;
              ++WS.TaskFailuresRun;
            }
          }
        });
      }
      Workers.wait();
    }

    // Commit stage: serial, in pool order, with optimistic
    // re-validation (see commitEntry). Entries that skipped speculation
    // commit exactly like the serial path (no conflict bookkeeping —
    // their staleness was predicted, not observed). Entries the snapshot
    // loop never turned into tasks (already consumed, or silent: no live
    // same-class candidate existed — and none can appear later, see the
    // snapshot loop) still get their empty journal slot so the journal
    // stays 1:1 with serial pool order at every thread count.
    size_t TaskCursor = 0;
    for (size_t I = Cursor; I < End; ++I) {
      if (TaskCursor < Tasks.size() && Tasks[TaskCursor].PoolIdx == I) {
        AttemptTask &T = Tasks[TaskCursor++];
        commitEntry(T.PoolIdx, T.Speculate ? &T : nullptr);
      } else {
        PipelineEntryTrace Trace;
        Trace.EntryFn = Pool[I].Consumed ? nullptr : Pool[I].F;
        Journal.push_back(std::move(Trace));
      }
    }

    Cursor = End;

    if (AdaptWindow && !Tasks.empty()) {
      const unsigned RoundStale =
          Stats.CommitConflicts + Stats.SpeculationsSkipped - ConflictsBefore;
      const double StaleRate = double(RoundStale) / double(Tasks.size());
      if (StaleRate > 0.5)
        Window = std::max(MinWindow, Window / 2);
      else if (StaleRate < 0.125)
        Window = std::min(MaxWindow, Window * 2);
    }
  }

  // Join the per-worker accumulators in worker order. PeakAlignmentBytes
  // is deliberately NOT joined: commitEntry already replays the serial
  // per-attempt max, and folding in discarded speculative attempts would
  // make the Fig 22 metric thread-count-dependent.
  for (const WorkerState &WS : State) {
    Stats.SpeculativeAttempts += WS.AttemptsRun;
    Stats.SpeculativeFailures += WS.FailuresRun;
    Stats.TaskFailures += WS.TaskFailuresRun;
    Stats.AlignmentSeconds += WS.AlignmentSeconds;
    Stats.CodeGenSeconds += WS.CodeGenSeconds;
  }
}

void MergePipeline::run() {
  Stats.AdaptiveThresholdMax = std::max(Stats.AdaptiveThresholdMax, BaseT);
  unsigned NumThreads = ThreadPool::resolveThreadCount(Options.NumThreads);
  if (NumThreads <= 1 || Pool.size() < 2)
    runSerial(); // tiny pools fall back to the serial path
  else
    runParallel(NumThreads);
  Stats.AdaptiveThresholdFinal = maxThreshold();
  Stats.PairingDistanceCalls = Index.stats().DistanceCalls;
  Stats.PairingProbes = Index.stats().SeedProbes + Index.stats().ExpansionSteps;
}

//===----------------------------------------------------------------------===//
// Splice
//===----------------------------------------------------------------------===//

void salssa::spliceSlices(Module &Host, const std::vector<SpliceSlice> &Slices,
                          std::vector<uint32_t> Walk, bool AllowRemerge,
                          MergeDriverStats &Into) {
  // Take every committed merged function out of its current parent (a
  // scratch host, or Host itself for a class whose journal a MergeService
  // retained from an earlier epoch): re-adoption in replay order then
  // rebuilds Host's function order, and no stale name can deflect a burn.
  std::map<Function *, std::unique_ptr<Function>> Taken;
  for (const SpliceSlice &S : Slices)
    for (const PipelineEntryTrace &Trace : *S.Journal)
      if (Trace.WinnerRecord >= 0)
        Taken[Trace.Merged] =
            Trace.Merged->getParent()->takeFunction(Trace.Merged);

  struct Cursor {
    size_t J = 0; ///< next journal entry
    size_t R = 0; ///< next record
  };
  std::vector<Cursor> Cursors(Slices.size());
  for (size_t Q = 0; Q < Walk.size(); ++Q) {
    const SpliceSlice &S = Slices[Walk[Q]];
    Cursor &Cur = Cursors[Walk[Q]];
    assert(Cur.J < S.Journal->size() &&
           "slice journal exhausted before the replayed walk");
    const PipelineEntryTrace &Trace = (*S.Journal)[Cur.J++];
    for (size_t R = 0; R < Trace.Partners.size(); ++R) {
      MergeRecord Rec = S.Stats->Records[Cur.R + R];
      Rec.Name1 = Trace.EntryFn->getName();
      Rec.Name2 = Trace.Partners[R]->getName();
      // An attempt burns a unique name iff its code generation ran
      // (Completed and BudgetBody outcomes); faulted or
      // alignment-budget-rejected attempts burned nothing, and replaying
      // a burn for them would skew every later merged name off the
      // whole-pool run's sequence.
      std::string Burned;
      if (attemptBurnedName(Rec.Stats.Outcome))
        Burned = Host.makeUniqueName(Rec.Name1 + ".m");
      if (static_cast<int32_t>(R) == Trace.WinnerRecord)
        Host.adoptFunction(std::move(Taken.at(Trace.Merged)), Burned);
      Into.Records.push_back(std::move(Rec));
    }
    Cur.R += Trace.Partners.size();
    if (Trace.WinnerRecord >= 0 && AllowRemerge)
      Walk.push_back(Walk[Q]); // the remerge entry joins its own slice
  }

  // Fold the slice stats (records were merged above, in replay order).
  // Timing fields are sums of per-slice accounting — CPU-second semantics
  // across slices, exactly like the per-worker accumulators inside one
  // pipeline. The containment and cache counters are serial-commit-stage
  // counts, so their sums are deterministic. Session-level counters
  // (HashClusterCommits, FingerprintFaults, CacheLoadRejected) belong to
  // the caller.
  for (size_t I = 0; I < Slices.size(); ++I) {
    const MergeDriverStats &S = *Slices[I].Stats;
    assert(Cursors[I].J == Slices[I].Journal->size() &&
           Cursors[I].R == S.Records.size() &&
           "splice must consume every slice journal entry and record");
    Into.Attempts += S.Attempts;
    Into.ProfitableMerges += S.ProfitableMerges;
    Into.CommittedMerges += S.CommittedMerges;
    Into.CrossModuleMerges += S.CrossModuleMerges;
    Into.AlignmentSeconds += S.AlignmentSeconds;
    Into.CodeGenSeconds += S.CodeGenSeconds;
    Into.RankingSeconds += S.RankingSeconds;
    Into.SpeculativeAttempts += S.SpeculativeAttempts;
    Into.SpeculativeDiscarded += S.SpeculativeDiscarded;
    Into.InlineReattempts += S.InlineReattempts;
    Into.CommitConflicts += S.CommitConflicts;
    Into.SpeculationsSkipped += S.SpeculationsSkipped;
    Into.AttemptFailures += S.AttemptFailures;
    Into.BudgetRejects += S.BudgetRejects;
    Into.VerifierRejects += S.VerifierRejects;
    Into.QuarantinedFunctions += S.QuarantinedFunctions;
    Into.SpeculativeFailures += S.SpeculativeFailures;
    Into.TaskFailures += S.TaskFailures;
    Into.PairingDistanceCalls += S.PairingDistanceCalls;
    Into.PairingProbes += S.PairingProbes;
    Into.CacheHits += S.CacheHits;
    Into.CacheMisses += S.CacheMisses;
    Into.CacheSkips += S.CacheSkips;
    Into.PeakAlignmentBytes =
        std::max(Into.PeakAlignmentBytes, S.PeakAlignmentBytes);
    Into.AdaptiveThresholdMax =
        std::max(Into.AdaptiveThresholdMax, S.AdaptiveThresholdMax);
    Into.AdaptiveThresholdFinal =
        std::max(Into.AdaptiveThresholdFinal, S.AdaptiveThresholdFinal);
  }
}
