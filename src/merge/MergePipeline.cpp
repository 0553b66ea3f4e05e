//===- merge/MergePipeline.cpp - Staged per-class merge driver ----------------===//
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
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

using namespace salssa;

namespace {

/// Moves an attempt out of its task slot, leaving the slot inert so the
/// task's release does not count it as discarded.
MergeAttempt takeAttempt(MergeAttempt &Slot) {
  MergeAttempt A = std::move(Slot);
  Slot = MergeAttempt();
  return A;
}

/// Forgets an attempt that will not commit. A function built inline is
/// erased from the scratch module here; one a worker built stays in its
/// task's staging module, which that worker destroys whole.
void dropAttempt(MergeAttempt &A) {
  if (A.Valid && !A.Gen.Merged->getParent()->isStaging())
    discardMerge(A);
  A = MergeAttempt();
}

/// The alignment a cached winner offers back to attemptMerge.
AlignmentReplay replayOf(const CachedAttempt &CA) {
  AlignmentReplay AR;
  AR.SeqLen1 = CA.SeqLen1;
  AR.SeqLen2 = CA.SeqLen2;
  AR.Entries = &CA.Align;
  return AR;
}

} // namespace

MergePipeline::MergePipeline(const std::vector<Module *> &Modules,
                             Module &Host, const MergeDriverOptions &Options,
                             const std::map<Function *, unsigned> &BaselineSize,
                             const FingerprintView &Fingerprints,
                             ClassSlice &Class, Module &Scratch,
                             const DecisionCache *Cache,
                             std::vector<DecisionCacheUpdate> *CacheUpdates)
    : Modules(Modules), Host(Host), Materialize(Scratch),
      Fingerprints(Fingerprints), Class(Class), Journal(Class.Journal),
      Stats(Class.Stats), Options(Options), BaselineSize(BaselineSize),
      CGOpts(MergeCodeGenOptions::forTechnique(Options.Technique,
                                               Options.EnablePhiCoalescing)),
      Cache(Cache), CacheUpdates(CacheUpdates) {
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
  Profit = ProfitModel::forArch(Options.Arch);
  BaseT = std::max(1u, Options.ExplorationThreshold);
  CurrentT = BaseT;
  MaxT = BaseT + AdaptiveRange;
  // Failure containment (Options.Faults already carries the class
  // runner's SALSSA_FAULTS fallback). Both pointers stay null on a
  // healthy run so attemptMerge takes its exact pre-containment path (the
  // zero-fault bit-identity invariant).
  if (Options.Faults.armed())
    FaultsPtr = &Options.Faults;
  if (Options.Budget.any())
    Budget = &Options.Budget;
  buildPool();
}

MergePipeline::~MergePipeline() = default;

//===----------------------------------------------------------------------===//
// Rank stage
//===----------------------------------------------------------------------===//

void MergePipeline::buildPool() {
  // The class's members in (module registration, creation) order. The
  // members are the authoritative pool predicate: the session computed
  // them before any class launched, and checking them instead of
  // isMergeable() keeps this pipeline from reading a foreign function's
  // body state (its block list) while another class's commit stage is
  // rewriting it into a thunk.
  std::vector<Function *> Members;
  std::vector<uint32_t> MemberModule;
  for (size_t Mi = 0; Mi < Modules.size(); ++Mi)
    for (Function *F : Modules[Mi]->functions())
      if (Class.Members.count(F)) {
        Members.push_back(F);
        MemberModule.push_back(static_cast<uint32_t>(Mi));
      }

  // Exact-clone clustering, the class's first stage: each confirmed,
  // profitable hash group commits as one body in the scratch module plus
  // direct thunks, and its members leave the pool.
  std::unordered_set<const Function *> Consumed;
  if (Options.HashClustering)
    for (PreClusterGroup &G :
         preClusterIdenticalFunctions(Members, Materialize, Options.Arch,
                                      FaultsPtr, Stats.FingerprintFaults)) {
      Consumed.insert(G.Members.begin(), G.Members.end());
      Class.Clusters.push_back({std::move(G)});
    }
  Stats.HashClusterCommits = Class.Clusters.size();

  // Like the paper, merging proceeds from the largest functions to the
  // smallest; the stable sort breaks size ties by (module registration
  // order, creation order). Each cluster body is a host function placed
  // after the host's members, where cloning it into the host itself
  // would have put it, and joins the pool whatever AllowRemerge says.
  for (size_t K = 0; K < Members.size(); ++K) {
    if (Consumed.count(Members[K]))
      continue;
    PoolEntry E;
    E.F = Members[K];
    E.FP = *Fingerprints.at(E.F);
    E.CostSize = BaselineSize.at(E.F);
    E.ModuleId = MemberModule[K];
    assert((Pool.empty() || E.FP.RetTy == Pool.front().FP.RetTy) &&
           "a pipeline runs exactly one merge-compatibility class");
    Pool.push_back(E);
  }
  std::vector<PoolEntry> Bodies;
  for (ClusterCommit &C : Class.Clusters) {
    PoolEntry E;
    E.F = C.Merged;
    E.FP = fingerprintFor(*E.F, Options.Canonicalize);
    E.CostSize = estimateFunctionSize(*E.F, Options.Arch);
    E.ModuleId = HostId;
    C.Size = E.FP.Size;
    Bodies.push_back(E);
  }
  Pool.insert(std::find_if(Pool.begin(), Pool.end(),
                           [this](const PoolEntry &E) {
                             return E.ModuleId > HostId;
                           }),
              Bodies.begin(), Bodies.end());
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
  // deterministic at every thread count and class schedule).
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

unsigned MergePipeline::effectiveThreshold() const {
  return Options.Selection == SelectionStrategy::Adaptive ? CurrentT : BaseT;
}

void MergePipeline::tallyVote(bool Shrink, bool Widen) {
  ++RoundEntries;
  if (Shrink)
    ++ShrinkVotes;
  else if (Widen)
    ++WidenVotes;
  if (RoundEntries >= AdaptRoundSize) {
    if (WidenVotes > ShrinkVotes && CurrentT < MaxT)
      ++CurrentT;
    else if (ShrinkVotes > WidenVotes && CurrentT > BaseT)
      --CurrentT;
    Stats.AdaptiveThresholdMax = std::max(Stats.AdaptiveThresholdMax, CurrentT);
    RoundEntries = WidenVotes = ShrinkVotes = 0;
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
  const unsigned T = effectiveThreshold();
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
    Candidates = Index.query(Pool[I].FP, T, static_cast<uint32_t>(I), &Profit,
                             SlateExtra);
    profitRerank(Candidates, Pool[I].ModuleId, T);
  }
  Stats.RankingSeconds += secondsSince(RankT0);
  return Candidates;
}

//===----------------------------------------------------------------------===//
// Commit stage
//===----------------------------------------------------------------------===//

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
  Class.Quarantined.push_back(Pool[I].F);
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

void MergePipeline::commitEntry(size_t I, Speculation *Spec) {
  // Consumed by an earlier commit (as the partner of an earlier entry), or
  // — the quarantine gate — condemned by strikes accrued as a partner of
  // earlier entries: retire it before paying for its slate. The journal
  // still gets this entry's (empty) slot.
  if (Pool[I].Consumed || quarantineIfStruckOut(I)) {
    Journal.push_back(PipelineEntryTrace());
    return;
  }
  PipelineEntryTrace Trace;
  Trace.EntryFn = Pool[I].F;
  Function *F1 = Pool[I].F;

  // The slate. A cache hit is the entry's recorded slate, resolved
  // against the live pool; every other entry ranks, and counts a miss
  // when a cache is attached. A worker-built winner of a missed replay is
  // dropped first: the live path must never reuse an attempt built from
  // a cached alignment, so it runs the entry as if nothing speculated.
  std::vector<CandidateIndex::Hit> Candidates;
  const CachedDecision *Hit = Cache ? cachedSlate(I, Candidates) : nullptr;
  if (Hit) {
    ++Stats.CacheHits;
  } else {
    if (Cache) {
      if (Spec)
        Spec->Done.erase(std::remove_if(Spec->Done.begin(), Spec->Done.end(),
                                        [](const AttemptTask *T) {
                                          return T->Replay != nullptr;
                                        }),
                         Spec->Done.end());
      ++Stats.CacheMisses;
    }
    // Pairing phase: rank the other live candidates by fingerprint
    // distance and keep the top-t. In the parallel path this re-ranks
    // against the *current* pool — the optimistic conflict rule: only
    // candidates still in this authoritative list may reuse their
    // speculative attempt (both inputs then provably unchanged since the
    // look-ahead ranking), everything else is redone inline.
    Candidates = rank(I);
    if (Spec && Spec->Slate &&
        !std::equal(Candidates.begin(), Candidates.end(), Spec->Slate->begin(),
                    Spec->Slate->end(),
                    [](const CandidateIndex::Hit &A,
                       const CandidateIndex::Hit &B) {
                      return A.Id == B.Id && A.Distance == B.Distance;
                    }))
      ++Stats.CommitConflicts;
  }
  // Recording: a ranked entry is cacheable only when its whole slate ran
  // clean (every attempt completed, nothing verifier-rejected). A
  // replayed entry keeps the recording it replayed.
  bool Recordable = CacheUpdates != nullptr && !Hit;
  CachedDecision Recorded;

  // Try the slate in order; keep the most profitable attempt. This
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
    Trace.Partners.push_back(F2);
    MergeRecord Rec;
    Rec.Name1 = F1->getName();
    Rec.Name2 = F2->getName();
    if (Hit && Hit->Winner != static_cast<int32_t>(Slate)) {
      // A recorded non-winner runs no attempt, but the unique name its
      // recorded code generation burned is burned anyway — the counter
      // must stay in lockstep for byte-identical modules downstream — and
      // its observed profit calibrates the model, so live-ranked entries
      // downstream see the same estimates.
      const CachedAttempt &CA = Hit->Attempts[Slate];
      Materialize.makeUniqueName(F1->getName() + ".m");
      Rec.Stats.Outcome = AttemptOutcome::CacheSkipped;
      Rec.Stats.SizeF1 = Pool[I].CostSize;
      Rec.Stats.SizeF2 = Pool[R.Id].CostSize;
      Rec.Stats.Profitable = CA.Profitable;
      Stats.Records.push_back(Rec);
      ++Stats.CacheSkips;
      if (CA.Profitable)
        ++Stats.ProfitableMerges;
      if (ProfitGuided)
        Profit.observe(
            ProfitModel::overlap(Pool[I].FP, Pool[R.Id].FP, R.Distance),
            R.Distance, static_cast<int>(CA.ProfitObs));
      continue;
    }
    // A replayed winner runs the real pipeline with its recorded
    // alignment: the cache is a shortcut, not an authority, so the
    // payload is validated inside attemptMerge (silent fallback to the
    // live aligner) and everything below — containment, calibration,
    // firewall — treats it like a live attempt.
    AlignmentReplay AR;
    if (Hit)
      AR = replayOf(Hit->Attempts[Slate]);
    std::string StagedName;
    MergeAttempt A = attemptAt(I, R.Id, Spec, StagedName, Hit ? &AR : nullptr);
    ++Stats.Attempts;
    Stats.PeakAlignmentBytes =
        std::max(Stats.PeakAlignmentBytes, A.Stats.AlignmentBytes);
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
      Profit.observe(
          ProfitModel::overlap(Pool[I].FP, Pool[R.Id].FP, R.Distance),
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
        dropAttempt(A);
        Recordable = false;
        continue;
      }
      dropAttempt(Best);
      Best = std::move(A);
      BestIdx = R.Id;
      BestRecord = RecIdx;
      BestSlate = Slate;
      BestName = StagedName;
    } else {
      dropAttempt(A);
    }
  }

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
  if (Hit) {
    // A replayed entry casts the vote it recorded, so the threshold
    // trajectory — hence every live-ranked entry — matches the recording
    // run.
    if (Options.Selection == SelectionStrategy::Adaptive && Hit->VoteTallied)
      tallyVote(Hit->VoteShrink, Hit->VoteWiden);
  } else if (Options.Selection == SelectionStrategy::Adaptive &&
             !Candidates.empty()) {
    bool Shrink = !Best.Valid || BestSlate == 0;
    bool Widen = !Shrink && Candidates.size() >= CurrentT &&
                 BestSlate + 1 == Candidates.size();
    if (Recordable) {
      Recorded.VoteTallied = true;
      Recorded.VoteShrink = Shrink;
      Recorded.VoteWiden = Widen;
    }
    tallyVote(Shrink, Widen);
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

  commitWinner(I, BestIdx, Best, BestName, BestRecord, BestSlate, Trace);
}

MergeAttempt MergePipeline::attemptAt(size_t I, uint32_t PartnerIdx,
                                      Speculation *Spec,
                                      std::string &StagedName,
                                      const AlignmentReplay *Replay) {
  Function *F1 = Pool[I].F;
  if (Spec)
    for (AttemptTask *T : Spec->Done)
      if (T->PartnerIdx == PartnerIdx && T->Attempt.Valid) {
        // Replay the name id the serial generator would have consumed for
        // this attempt; a winner is adopted under it (commitWinner).
        StagedName = Materialize.makeUniqueName(F1->getName() + ".m");
        return takeAttempt(T->Attempt);
      }
  // Inline attempts generate directly into the class's scratch module,
  // burning its name counter once per attempt. Guarded: a faulted pair
  // faults here exactly as it would have on the speculative path
  // (decisions are keyed by names), so the serial record stream is
  // thread-count-invariant even under injected faults.
  MergeAttempt A =
      guardedAttempt(*F1, *Pool[PartnerIdx].F, Pool[I].CostSize,
                     Pool[PartnerIdx].CostSize, &Materialize,
                     /*Failures=*/nullptr, Replay);
  // Commit-thread accumulator (tasks keep theirs; see MergeDriverStats).
  Stats.AlignmentSeconds += A.Stats.AlignmentSeconds;
  Stats.CodeGenSeconds += A.Stats.CodeGenSeconds;
  if (Spec && !Spec->Done.empty())
    ++Stats.InlineReattempts;
  return A;
}

void MergePipeline::commitWinner(size_t I, size_t PartnerIdx,
                                 MergeAttempt &Best,
                                 const std::string &StagedName,
                                 size_t BestRecord, size_t WinnerOffset,
                                 PipelineEntryTrace &Trace) {
  // A reused speculative attempt lives in its task's staging module;
  // inline attempts already generated into Materialize.
  if (!StagedName.empty())
    adoptMergedFunction(Best, Materialize, StagedName);
  // Retire both inputs from the pool and offer the merged function —
  // which lives in the materialization module — for further merging.
  // Their thunks are built by run(), once no task can read them.
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
  Best.AlignEntries = {}; // recorded already; the thunks need none of it
  Thunks.push_back(std::move(Best));
}

const CachedDecision *
MergePipeline::cachedSlate(size_t I,
                           std::vector<CandidateIndex::Hit> &Slate) const {
  const CachedDecision *D = Cache->lookup({Pool[I].Hash, Pool[I].HashOcc});
  if (!D ||
      (D->Winner >= 0 && static_cast<size_t>(D->Winner) >= D->Attempts.size()))
    return nullptr; // defensive: load() range-checks, but stay safe
  // All-or-nothing: a half-resolved decision (changed code, or an earlier
  // miss that perturbed the pool) costs nothing, and the entry re-runs —
  // and re-records — live.
  for (const CachedAttempt &CA : D->Attempts) {
    auto It = KeyToPool.find(CA.Partner);
    if (It == KeyToPool.end() || It->second == I || Pool[It->second].Consumed)
      return nullptr;
    Slate.push_back(
        {CA.Distance, It->second, Pool[It->second].ModuleId, /*EstProfit=*/0});
  }
  return D;
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

/// What the commit thread shares with the attempt workers. Every task
/// lives until the stream drains, since a worker may still be finishing
/// one whose entry was consumed. Task states, the queue and the staging
/// modules handed back are guarded by Mutex; everything else is the commit
/// thread's.
struct MergePipeline::Stream {
  /// The look-ahead state of one pool entry.
  struct Ahead {
    /// The entry's latest ranking ahead of its turn, when Ranked.
    std::vector<CandidateIndex::Hit> Slate;
    bool Ranked = false;
    std::vector<AttemptTask *> Tasks;
  };

  Stream(unsigned NumThreads, std::string StagingName)
      : StagingName(std::move(StagingName)), Workers(NumThreads) {}

  /// Hands \p T's staging module back to the worker that built it, to
  /// destroy before its next task, noting whether the commit stage left
  /// its attempt unused. Caller holds Mutex.
  void handBack(AttemptTask &T) {
    T.Discarded = T.Attempt.Valid;
    T.Attempt = MergeAttempt();
    if (T.Staging)
      Dead[T.Builder].push_back(std::move(T.Staging));
  }

  const std::string StagingName;
  std::vector<Ahead> Entries; ///< by pool index
  size_t Next = 0;            ///< the next entry to look ahead at
  std::vector<std::unique_ptr<AttemptTask>> Tasks; ///< in creation order
  /// Partners that the replays looked at so far are recorded to consume,
  /// by cache key: a remerge partner may not exist yet when its replay is
  /// looked at. They have no cached decision of their own (the cold run
  /// consumed them before their turn), so without this set a warm run
  /// would rank and speculate them at full cost only to discard
  /// everything at commit.
  std::set<DecisionKey> ReplayConsumes;

  std::mutex Mutex;
  std::condition_variable Finished; ///< a task left State::Running
  /// Queued tasks, most urgent first: by entry, then creation order.
  std::map<std::pair<uint32_t, uint32_t>, AttemptTask *> Queue;
  /// Staging modules handed back, by the worker that built them. Memory
  /// freed on the thread that allocated it goes back to that thread's
  /// allocator caches; freed on another worker, the bench_pipeline_scaling
  /// pool took about a third more wall time at 4 threads.
  std::map<std::thread::id, std::vector<std::unique_ptr<Module>>> Dead;
  ThreadPool Workers; ///< last: joined before the state above dies
};

void MergePipeline::runParallel(unsigned NumThreads) {
  Stream S(NumThreads, Materialize.getName() + ".staging");
  const size_t Lookahead =
      size_t(LookaheadPerThread) * S.Workers.numThreads();
  // One in-order stream, no barrier: before entry C's turn every live
  // entry in [C, C + Lookahead] has been ranked and its task queued, and
  // after C commits, the fixed point re-ranks what the commit staled.
  // Every ranking happens here, on the commit thread, at points the
  // commit cursor alone fixes, so the pairing work repeats exactly.
  for (size_t C = 0; C < Pool.size(); ++C) {
    S.Entries.resize(Pool.size());
    for (; S.Next < Pool.size() && S.Next <= C + Lookahead; ++S.Next)
      lookAhead(S, S.Next);
    Speculation Spec = claim(S, C);
    commitEntry(C, &Spec);
    release(S, C);
    refresh(S, C);
  }
  S.Workers.wait(); // tasks abandoned to their workers

  // PeakAlignmentBytes is deliberately not folded: commitEntry already
  // replays the serial per-attempt max, and folding in discarded
  // speculative attempts would make the Fig 22 metric
  // thread-count-dependent.
  for (const std::unique_ptr<AttemptTask> &T : S.Tasks) {
    Stats.SpeculativeAttempts += T->Ran;
    Stats.SpeculativeFailures += T->GuardFired;
    Stats.TaskFailures += T->Failed;
    Stats.SpeculativeDiscarded += T->Discarded;
    Stats.AlignmentSeconds += T->AlignmentSeconds;
    Stats.CodeGenSeconds += T->CodeGenSeconds;
  }
}

void MergePipeline::lookAhead(Stream &S, size_t E) {
  if (Pool[E].Consumed)
    return;
  Stream::Ahead &A = S.Entries[E];
  // Entries with a cached decision never rank. When the recorded
  // winner's partner is live right now, the task carries that one pair
  // and the recorded attempt, and a worker builds the winner from its
  // alignment; otherwise the entry waits for its turn. Either way
  // commitEntry replays it — or, if the recorded partners no longer
  // resolve by then, drops the worker's attempt and runs the entry inline
  // exactly like the serial path. The recorded winner marks its partner
  // as replay-consumed.
  if (Cache) {
    const DecisionKey Key{Pool[E].Hash, Pool[E].HashOcc};
    if (const CachedDecision *D = Cache->lookup(Key)) {
      if (D->Winner >= 0) {
        const CachedAttempt &W = D->Attempts[static_cast<size_t>(D->Winner)];
        auto It = KeyToPool.find(W.Partner);
        if (It != KeyToPool.end() && It->second != E &&
            !Pool[It->second].Consumed && !S.ReplayConsumes.count(Key) &&
            !S.ReplayConsumes.count(W.Partner)) {
          const uint32_t P = It->second;
          schedule(S, E, {{W.Distance, P, Pool[P].ModuleId, 0}}, &W);
        }
        S.ReplayConsumes.insert(W.Partner);
      }
      return;
    }
    // Recorded as the winning partner of an earlier replay: it will be
    // consumed before its own turn, so ranking it would be pure waste. If
    // the predicting replay fails after all, commitEntry runs this entry
    // live (and counts the miss) exactly like the serial path.
    if (S.ReplayConsumes.count(Key))
      return;
  }
  A.Slate = rank(E);
  A.Ranked = true;
  schedule(S, E, A.Slate, nullptr);
}

void MergePipeline::schedule(Stream &S, size_t E,
                             const std::vector<CandidateIndex::Hit> &Slate,
                             const CachedAttempt *Replay) {
  using State = AttemptTask::State;
  Stream::Ahead &A = S.Entries[E];
  auto InSlate = [&Slate](uint32_t Id) {
    return std::any_of(
        Slate.begin(), Slate.end(),
        [Id](const CandidateIndex::Hit &H) { return H.Id == Id; });
  };
  unsigned Jobs = 0;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    for (AttemptTask *T : A.Tasks)
      if (T->St == State::Queued && !InSlate(T->PartnerIdx)) {
        S.Queue.erase({T->PoolIdx, T->Seq});
        T->St = State::Cancelled;
      }
    for (const CandidateIndex::Hit &H : Slate) {
      // A queued, running or finished attempt of this pair is current
      // until a commit retires one of its inputs.
      if (std::any_of(A.Tasks.begin(), A.Tasks.end(), [&H](AttemptTask *T) {
            return T->PartnerIdx == H.Id &&
                   (T->St == State::Queued || T->St == State::Running ||
                    (T->St == State::Done && !T->Failed));
          }))
        continue;
      auto T = std::make_unique<AttemptTask>();
      T->PoolIdx = static_cast<uint32_t>(E);
      T->PartnerIdx = H.Id;
      T->Seq = static_cast<uint32_t>(S.Tasks.size());
      T->F1 = Pool[E].F;
      T->F2 = Pool[H.Id].F;
      T->CostSize1 = Pool[E].CostSize;
      T->CostSize2 = Pool[H.Id].CostSize;
      T->Replay = Replay;
      S.Queue.emplace(std::make_pair(T->PoolIdx, T->Seq), T.get());
      A.Tasks.push_back(T.get());
      S.Tasks.push_back(std::move(T));
      ++Jobs;
    }
  }
  // One job per task: a job runs whichever queued task is most urgent
  // when it starts, so no task is left without a job to run it.
  for (; Jobs; --Jobs)
    S.Workers.submit([this, &S] { runNextTask(S); });
}

void MergePipeline::runNextTask(Stream &S) {
  AttemptTask *T = nullptr;
  std::vector<std::unique_ptr<Module>> Dead;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Dead.swap(S.Dead[std::this_thread::get_id()]);
    if (!S.Queue.empty()) {
      T = S.Queue.begin()->second;
      S.Queue.erase(S.Queue.begin());
      T->St = AttemptTask::State::Running;
    }
  }
  // The staging modules this worker built for entries the commit thread
  // is through with die here, off the commit thread, before it builds
  // anything new.
  Dead.clear();
  if (!T)
    return; // its task was cancelled or taken by another job

  // The task only reads its inputs' bodies — no input body changes before
  // the stream drains (thunks come after it) — and builds into its own
  // staging module; the shared Context interns under a lock.
  T->Builder = std::this_thread::get_id();
  T->Staging = std::make_unique<Module>(S.StagingName, Host.getContext());
  T->Staging->setStaging(true);
  AlignmentReplay AR;
  if (T->Replay)
    AR = replayOf(*T->Replay);
  // Per-task guard: a failure *outside* the attempt guard (the
  // TaskFailure fault point models infrastructure dying before the
  // attempt) drops the task — the commit stage then runs the pair inline
  // exactly like the serial driver, so task failures can only ever waste
  // work, never change outcomes. Whatever is thrown, the task finishes:
  // the commit thread may be waiting for it.
  try {
    if (FaultsPtr)
      maybeInjectFault(*FaultsPtr, FaultKind::TaskFailure, T->F1->getName());
    unsigned GuardCatches = 0;
    T->Attempt = guardedAttempt(*T->F1, *T->F2, T->CostSize1, T->CostSize2,
                                T->Staging.get(), &GuardCatches,
                                T->Replay ? &AR : nullptr);
    T->Ran = true;
    T->GuardFired = GuardCatches != 0;
    T->AlignmentSeconds = T->Attempt.Stats.AlignmentSeconds;
    T->CodeGenSeconds = T->Attempt.Stats.CodeGenSeconds;
  } catch (...) {
    T->Attempt = MergeAttempt();
    T->Failed = true;
  }
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    if (T->St == AttemptTask::State::Abandoned)
      S.handBack(*T);
    else
      T->St = AttemptTask::State::Done;
  }
  S.Finished.notify_all();
}

MergePipeline::Speculation MergePipeline::claim(Stream &S, size_t E) {
  Stream::Ahead &A = S.Entries[E];
  Speculation Spec;
  if (A.Ranked)
    Spec.Slate = &A.Slate;
  if (A.Tasks.empty())
    return Spec;
  std::unique_lock<std::mutex> Lock(S.Mutex);
  // A task no worker has started is cheaper to run here: commitEntry
  // attempts its candidates inline against the current slate.
  for (AttemptTask *T : A.Tasks)
    if (T->St == AttemptTask::State::Queued) {
      S.Queue.erase({T->PoolIdx, T->Seq});
      T->St = AttemptTask::State::Cancelled;
    }
  S.Finished.wait(Lock, [&A] {
    return std::none_of(A.Tasks.begin(), A.Tasks.end(), [](AttemptTask *T) {
      return T->St == AttemptTask::State::Running;
    });
  });
  for (AttemptTask *T : A.Tasks)
    if (T->St == AttemptTask::State::Done && !T->Failed)
      Spec.Done.push_back(T);
  return Spec;
}

void MergePipeline::release(Stream &S, size_t E) {
  Stream::Ahead &A = S.Entries[E];
  if (!A.Tasks.empty()) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    for (AttemptTask *T : A.Tasks)
      switch (T->St) {
      case AttemptTask::State::Queued:
        S.Queue.erase({T->PoolIdx, T->Seq});
        T->St = AttemptTask::State::Cancelled;
        break;
      case AttemptTask::State::Running:
        T->St = AttemptTask::State::Abandoned; // its worker hands it back
        break;
      case AttemptTask::State::Done:
        S.handBack(*T);
        break;
      default:
        break;
      }
  }
  A = Stream::Ahead();
}

void MergePipeline::refresh(Stream &S, size_t C) {
  // The commit of C retired its inputs (and perhaps quarantined a
  // partner). Every look-ahead slate listed live candidates only when it
  // was ranked, so a consumed candidate in one marks exactly the slates
  // this commit staled.
  auto Staled = [this](const std::vector<CandidateIndex::Hit> &Slate) {
    return std::any_of(
        Slate.begin(), Slate.end(),
        [this](const CandidateIndex::Hit &H) { return Pool[H.Id].Consumed; });
  };
  for (size_t E = C + 1; E < S.Next; ++E) {
    Stream::Ahead &A = S.Entries[E];
    if (Pool[E].Consumed) {
      release(S, E);
    } else if (A.Ranked && Staled(A.Slate)) {
      A.Slate = rank(E);
      schedule(S, E, A.Slate, nullptr);
    }
  }
}

void MergePipeline::run() {
  Stats.AdaptiveThresholdMax = std::max(Stats.AdaptiveThresholdMax, BaseT);
  unsigned NumThreads = ThreadPool::resolveThreadCount(Options.NumThreads);
  if (NumThreads <= 1 || Pool.size() < 2)
    runSerial(); // tiny pools fall back to the serial path
  else
    runParallel(NumThreads);
  // Thunk both inputs of every commit (each in its own module), in commit
  // order. Nothing reads a consumed input's body, so building them last
  // yields the bytes of thunking at commit time.
  for (MergeAttempt &A : Thunks)
    commitMerge(A, Host.getContext());
  Thunks.clear();
  Stats.AdaptiveThresholdFinal = CurrentT;
  Stats.PairingDistanceCalls = Index.stats().DistanceCalls;
  Stats.PairingProbes = Index.stats().SeedProbes + Index.stats().ExpansionSteps;
}

//===----------------------------------------------------------------------===//
// Class-pipeline runner
//===----------------------------------------------------------------------===//

namespace {

/// The splice of runClassPipelines: \p Bodies holds every class's cluster
/// commits in the order a whole-pool cluster pass commits them, \p Walk
/// the slice index of every pool entry in global pool order; remerge
/// entries are appended to it as the replay commits, exactly like a
/// pipeline's own pool walk. Each step consumes its class's next journal
/// entry; a class's journal does not depend on what else ran, so the
/// interleaved streams reconstruct the whole-pool record order.
void splice(Module &Host, const std::vector<ClassSlice *> &Slices,
            const std::vector<const ClusterCommit *> &Bodies,
            std::vector<uint32_t> Walk, bool AllowRemerge,
            MergeDriverStats &Into) {
  // Take every cluster body and committed merged function out of its
  // current parent (a scratch module, or Host itself for a class whose
  // results a MergeService kept from an earlier epoch): re-adoption in
  // replay order then rebuilds Host's function order, and no stale name
  // can deflect a burn.
  std::map<Function *, std::unique_ptr<Function>> Taken;
  auto take = [&Taken](Function *F) {
    Taken[F] = F->getParent()->takeFunction(F);
  };
  for (const ClusterCommit *C : Bodies)
    take(C->Merged);
  for (const ClassSlice *S : Slices)
    for (const PipelineEntryTrace &Trace : S->Journal)
      if (Trace.WinnerRecord >= 0)
        take(Trace.Merged);

  // Cluster bodies first: one name each, ahead of every record's burn.
  for (const ClusterCommit *C : Bodies)
    Host.adoptFunction(
        std::move(Taken.at(C->Merged)),
        Host.makeUniqueName(C->Members.front()->getName() + ".m"));

  struct Cursor {
    size_t J = 0; ///< next journal entry
    size_t R = 0; ///< next record
  };
  std::vector<Cursor> Cursors(Slices.size());
  for (size_t Q = 0; Q < Walk.size(); ++Q) {
    const ClassSlice &S = *Slices[Walk[Q]];
    Cursor &Cur = Cursors[Walk[Q]];
    assert(Cur.J < S.Journal.size() &&
           "class journal exhausted before the replayed walk");
    const PipelineEntryTrace &Trace = S.Journal[Cur.J++];
    for (size_t R = 0; R < Trace.Partners.size(); ++R) {
      MergeRecord Rec = S.Stats.Records[Cur.R + R];
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
      Walk.push_back(Walk[Q]); // the remerge entry joins its own class
  }

  // Fold the class stats (records were merged above, in replay order).
  // Timing fields are sums of per-class accounting — CPU-second semantics
  // across classes, exactly like the per-worker accumulators inside one
  // pipeline. The containment and cache counters are serial-commit-stage
  // counts, so their sums are deterministic; so are the cluster stages'.
  // CacheLoadRejected is the runner's own: one load per call.
  for (size_t I = 0; I < Slices.size(); ++I) {
    const MergeDriverStats &S = Slices[I]->Stats;
    assert(Cursors[I].J == Slices[I]->Journal.size() &&
           Cursors[I].R == S.Records.size() &&
           "splice must consume every class journal entry and record");
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
    Into.HashClusterCommits += S.HashClusterCommits;
    Into.FingerprintFaults += S.FingerprintFaults;
    Into.PeakAlignmentBytes =
        std::max(Into.PeakAlignmentBytes, S.PeakAlignmentBytes);
    Into.AdaptiveThresholdMax =
        std::max(Into.AdaptiveThresholdMax, S.AdaptiveThresholdMax);
    Into.AdaptiveThresholdFinal =
        std::max(Into.AdaptiveThresholdFinal, S.AdaptiveThresholdFinal);
  }
}

} // namespace

void salssa::runClassPipelines(
    const std::vector<Module *> &Modules, Module &Host,
    const MergeDriverOptions &Options,
    const std::map<Function *, unsigned> &BaselineSize,
    const FingerprintView &Fingerprints, bool UseCache, ClassSlices &Classes,
    const std::set<Type *> &Run, MergeDriverStats &Into) {
  std::vector<ClassSlice *> Slices;
  std::map<Type *, uint32_t> SliceOf;
  for (auto &KV : Classes) {
    SliceOf.emplace(KV.first, static_cast<uint32_t>(Slices.size()));
    Slices.push_back(&KV.second);
  }

  // The classes to run, heaviest first under the alignment-cost proxy
  // (Σ size² of the members: attempts are quadratic in function size),
  // ties to the class whose first member comes first in (module
  // registration, creation) order. This order is only the schedule; no
  // outcome depends on it.
  std::vector<uint64_t> Weight(Slices.size(), 0);
  std::vector<size_t> FirstMember(Slices.size(), SIZE_MAX);
  size_t Pos = 0;
  for (Module *M : Modules)
    for (Function *F : M->functions()) {
      auto It = SliceOf.find(F->getReturnType());
      if (It == SliceOf.end() || !Slices[It->second]->Members.count(F))
        continue;
      const uint64_t Size = Fingerprints.at(F)->Size;
      Weight[It->second] += Size * Size;
      FirstMember[It->second] = std::min(FirstMember[It->second], Pos++);
    }
  std::vector<uint32_t> Runs;
  for (Type *T : Run) {
    auto It = SliceOf.find(T);
    if (It == SliceOf.end())
      continue;
    ClassSlice &CS = *Slices[It->second];
    CS.Clusters.clear();
    CS.Journal.clear();
    CS.Stats = MergeDriverStats();
    CS.Quarantined.clear();
    if (!CS.Members.empty())
      Runs.push_back(It->second);
  }
  std::sort(Runs.begin(), Runs.end(), [&](uint32_t A, uint32_t B) {
    if (Weight[A] != Weight[B])
      return Weight[A] > Weight[B];
    return FirstMember[A] < FirstMember[B];
  });

  // Fault injection, resolved once for the pipelines and the cache I/O:
  // programmatic arming wins, otherwise a stock binary can be soaked via
  // the SALSSA_FAULTS environment spec.
  MergeDriverOptions RunOptions = Options;
  if (!RunOptions.Faults.armed())
    RunOptions.Faults = FaultInjectionConfig::fromEnv();
  const FaultInjectionConfig *Faults =
      RunOptions.Faults.armed() ? &RunOptions.Faults : nullptr;

  // The session's decision cache: loaded once (self-invalidating on
  // damage or an options/version mismatch), read-only while the
  // pipelines run.
  UseCache = UseCache && !Options.DecisionCachePath.empty();
  DecisionCache Cache;
  uint64_t CacheFP = 0;
  if (UseCache) {
    CacheFP = DecisionCache::optionsFingerprint(Options);
    Into.CacheLoadRejected =
        Cache.load(Options.DecisionCachePath, CacheFP, Faults) ==
        DecisionCache::LoadOutcome::Rejected;
  }

  // Run. Classes touch disjoint functions and the shared Context interns
  // under a lock, so concurrent pipelines are race-free (ir/README.md),
  // commits included. Threads left over after one per worker go to the
  // pipelines' own attempt stages, whose optimistic parallelism is
  // outcome-identical at every thread count: a single giant class still
  // gets every thread.
  const unsigned NumThreads =
      ThreadPool::resolveThreadCount(Options.NumThreads);
  const unsigned Requested =
      Options.ShardCount == 0 ? NumThreads : Options.ShardCount;
  const unsigned Workers = static_cast<unsigned>(
      std::max<size_t>(1, std::min<size_t>(Requested, Runs.size())));
  RunOptions.NumThreads = std::max(1u, NumThreads / Workers);
  std::vector<std::unique_ptr<Module>> Scratch(Runs.size());
  std::vector<std::vector<DecisionCacheUpdate>> Updates(Runs.size());
  for (size_t R = 0; R < Runs.size(); ++R)
    Scratch[R] = std::make_unique<Module>(
        Host.getName() + ".class" + std::to_string(R), Host.getContext());
  auto runOne = [&](size_t R) {
    MergePipeline Pipeline(Modules, Host, RunOptions, BaselineSize,
                           Fingerprints, *Slices[Runs[R]], *Scratch[R],
                           UseCache ? &Cache : nullptr,
                           UseCache ? &Updates[R] : nullptr);
    Pipeline.run();
  };
  if (Workers <= 1 || NumThreads <= 1) {
    for (size_t R = 0; R < Runs.size(); ++R)
      runOne(R);
  } else {
    ThreadPool Pool(std::min(NumThreads, Workers));
    for (size_t R = 0; R < Runs.size(); ++R)
      Pool.submit([&runOne, R] { runOne(R); });
    Pool.wait();
  }
  // Recordings are keyed by (hash, occurrence), and a key belongs to one
  // class, so they never collide; the cache serializes sorted by key, so
  // the file bytes are identical at every class schedule and thread
  // count. A failed write (I/O error or injected CacheIO fault) means "no
  // cache for the next run", never a failed session.
  if (UseCache) {
    for (std::vector<DecisionCacheUpdate> &U : Updates)
      Cache.apply(std::move(U));
    Cache.save(Options.DecisionCachePath, CacheFP, Faults);
  }

  // The session's pool in global serial order, known only now that the
  // cluster stages ran: every unconsumed member in (module registration,
  // creation) order with every class's cluster bodies after the host's
  // members, stably sorted by size descending — the order one pipeline
  // over the whole pool walks. The bodies go in the order a whole-pool
  // cluster pass commits them: by the position of their hash group's
  // first-seen function, then peel order.
  std::unordered_set<const Function *> Consumed;
  std::unordered_map<const Function *, size_t> FirstSeenPos;
  std::vector<const ClusterCommit *> Bodies;
  for (const ClassSlice *S : Slices)
    for (const ClusterCommit &C : S->Clusters) {
      Consumed.insert(C.Members.begin(), C.Members.end());
      FirstSeenPos.emplace(C.FirstSeen, 0);
      Bodies.push_back(&C);
    }
  struct WalkEntry {
    uint32_t Size;
    uint32_t Slice;
  };
  std::vector<WalkEntry> Order;
  size_t BodiesAt = 0;
  Pos = 0;
  for (Module *M : Modules) {
    for (Function *F : M->functions()) {
      auto It = SliceOf.find(F->getReturnType());
      if (It == SliceOf.end() || !Slices[It->second]->Members.count(F))
        continue;
      auto FS = FirstSeenPos.find(F);
      if (FS != FirstSeenPos.end())
        FS->second = Pos;
      ++Pos;
      if (!Consumed.count(F))
        Order.push_back({Fingerprints.at(F)->Size, It->second});
    }
    if (M == &Host)
      BodiesAt = Order.size();
  }
  std::stable_sort(Bodies.begin(), Bodies.end(),
                   [&FirstSeenPos](const ClusterCommit *A,
                                   const ClusterCommit *B) {
                     return FirstSeenPos.at(A->FirstSeen) <
                            FirstSeenPos.at(B->FirstSeen);
                   });
  std::vector<WalkEntry> BodyWalk;
  for (const ClusterCommit *C : Bodies)
    BodyWalk.push_back({C->Size, SliceOf.at(C->Merged->getReturnType())});
  Order.insert(Order.begin() + BodiesAt, BodyWalk.begin(), BodyWalk.end());
  std::stable_sort(Order.begin(), Order.end(),
                   [](const WalkEntry &A, const WalkEntry &B) {
                     return A.Size > B.Size;
                   });
  std::vector<uint32_t> Walk;
  Walk.reserve(Order.size());
  for (const WalkEntry &E : Order)
    Walk.push_back(E.Slice);
  splice(Host, Slices, Bodies, std::move(Walk), Options.AllowRemerge, Into);
#ifndef NDEBUG
  for (const std::unique_ptr<Module> &M : Scratch)
    assert(M->functions().empty() &&
           "splice left a merged function behind in a scratch module");
#endif

  // The session's class structure, the same whichever classes this call
  // re-ran: how many live classes it has, and how far the heaviest keeps
  // a cold run over min(ShardCount, classes) workers from an even split
  // of the work (1.0 = it does not; 0 for an empty pool). No schedule
  // beats that bound, so it is the number to watch when wall-clock stops
  // tracking the worker count.
  unsigned Live = 0;
  uint64_t MaxW = 0, SumW = 0;
  for (size_t S = 0; S < Slices.size(); ++S)
    if (!Slices[S]->Members.empty()) {
      ++Live;
      MaxW = std::max(MaxW, Weight[S]);
      SumW += Weight[S];
    }
  const unsigned LiveWorkers = std::max(1u, std::min(Requested, Live));
  Into.ShardCount = Live;
  Into.ShardImbalance =
      Live == 0   ? 0
      : SumW == 0 ? 1.0
                  : std::max(1.0, double(MaxW) * LiveWorkers / double(SumW));
  const unsigned BaseT = std::max(1u, Options.ExplorationThreshold);
  Into.AdaptiveThresholdMax = std::max(Into.AdaptiveThresholdMax, BaseT);
  Into.AdaptiveThresholdFinal = std::max(Into.AdaptiveThresholdFinal, BaseT);
}
