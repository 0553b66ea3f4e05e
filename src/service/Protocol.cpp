//===- service/Protocol.cpp - salssad wire protocol ---------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include <cassert>
#include <cstring>

using namespace salssa;

const char *salssa::requestKindName(RequestKind K) {
  switch (K) {
  case RequestKind::RegisterModules:
    return "RegisterModules";
  case RequestKind::BeginDelta:
    return "BeginDelta";
  case RequestKind::CheckoutForEdit:
    return "CheckoutForEdit";
  case RequestKind::ApplyDelta:
    return "ApplyDelta";
  case RequestKind::QueryStats:
    return "QueryStats";
  case RequestKind::Shutdown:
    return "Shutdown";
  }
  return "Unknown";
}

const char *salssa::statusCodeName(StatusCode S) {
  switch (S) {
  case StatusCode::Ok:
    return "Ok";
  case StatusCode::BadFrame:
    return "BadFrame";
  case StatusCode::VersionMismatch:
    return "VersionMismatch";
  case StatusCode::UnknownRequest:
    return "UnknownRequest";
  case StatusCode::NotRegistered:
    return "NotRegistered";
  case StatusCode::AlreadyRegistered:
    return "AlreadyRegistered";
  case StatusCode::UnknownFunction:
    return "UnknownFunction";
  case StatusCode::NoBatch:
    return "NoBatch";
  case StatusCode::DeadlineExpired:
    return "DeadlineExpired";
  case StatusCode::ShuttingDown:
    return "ShuttingDown";
  case StatusCode::InternalError:
    return "InternalError";
  }
  return "Unknown";
}

// --- Framing -----------------------------------------------------------------

std::vector<uint8_t> salssa::encodeFrame(const std::vector<uint8_t> &Payload) {
  assert(Payload.size() <= MaxFramePayloadBytes && "frame payload too large");
  ByteWriter W;
  W.u32(ProtocolMagic);
  W.u32(ProtocolVersion);
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.u64(fnv1a64(Payload.data(), Payload.size()));
  std::vector<uint8_t> Out = W.buffer();
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

void FrameAssembler::feed(const uint8_t *Data, size_t N) {
  if (Err != FrameError::None)
    return;
  Buf.insert(Buf.end(), Data, Data + N);
}

bool FrameAssembler::next(std::vector<uint8_t> &Payload) {
  if (Err != FrameError::None)
    return false;
  // Compact once the consumed prefix dominates (keeps feed() amortized
  // O(1) without re-shifting on every extracted frame).
  if (Pos > 0 && Pos * 2 >= Buf.size()) {
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<ptrdiff_t>(Pos));
    Pos = 0;
  }
  if (Buf.size() - Pos < FrameHeaderBytes)
    return false;
  ByteReader R(Buf.data() + Pos, FrameHeaderBytes);
  uint32_t Magic = R.u32();
  uint32_t Version = R.u32();
  uint32_t Length = R.u32();
  uint64_t Checksum = R.u64();
  if (Magic != ProtocolMagic) {
    Err = FrameError::BadMagic;
    return false;
  }
  if (Version != ProtocolVersion) {
    Err = FrameError::BadVersion;
    return false;
  }
  if (Length > MaxFramePayloadBytes) {
    Err = FrameError::Oversized;
    return false;
  }
  if (Buf.size() - Pos - FrameHeaderBytes < Length)
    return false; // need more bytes
  const uint8_t *Body = Buf.data() + Pos + FrameHeaderBytes;
  if (fnv1a64(Body, Length) != Checksum) {
    Err = FrameError::BadChecksum;
    return false;
  }
  Payload.assign(Body, Body + Length);
  Pos += FrameHeaderBytes + Length;
  return true;
}

// --- Payload headers ---------------------------------------------------------

void salssa::encodeRequestHeader(ByteWriter &W, const WireRequestHeader &H) {
  W.u8(static_cast<uint8_t>(H.Kind));
  W.u64(H.RequestId);
  W.u32(H.DeadlineMillis);
}

bool salssa::decodeRequestHeader(ByteReader &R, WireRequestHeader &H) {
  H.Kind = static_cast<RequestKind>(R.u8());
  H.RequestId = R.u64();
  H.DeadlineMillis = R.u32();
  return R.ok();
}

void salssa::encodeResponseHeader(ByteWriter &W, const WireResponseHeader &H) {
  W.u8(static_cast<uint8_t>(H.Kind));
  W.u64(H.RequestId);
  W.u8(static_cast<uint8_t>(H.Status));
}

bool salssa::decodeResponseHeader(ByteReader &R, WireResponseHeader &H) {
  H.Kind = static_cast<RequestKind>(R.u8());
  H.RequestId = R.u64();
  H.Status = static_cast<StatusCode>(R.u8());
  return R.ok();
}

void salssa::encodeString(ByteWriter &W, const std::string &S) {
  W.u32(static_cast<uint32_t>(S.size()));
  for (char C : S)
    W.u8(static_cast<uint8_t>(C));
}

bool salssa::decodeString(ByteReader &R, std::string &S) {
  uint32_t N = R.u32();
  if (!R.ok() || R.remaining() < N)
    return false;
  S.clear();
  S.reserve(N);
  for (uint32_t I = 0; I < N; ++I)
    S.push_back(static_cast<char>(R.u8()));
  return R.ok();
}

// --- Request bodies ----------------------------------------------------------

namespace {

/// Request booleans travel as exactly 0 or 1; any other byte is malformed,
/// so an accepted request body re-encodes to the bytes it came from.
bool decodeBool(ByteReader &R, bool &B) {
  uint8_t V = R.u8();
  B = V == 1;
  return V <= 1;
}

void encodeProfile(ByteWriter &W, const BenchmarkProfile &P) {
  encodeString(W, P.Name);
  W.u32(P.NumFunctions);
  W.u32(P.MinSize);
  W.u32(P.AvgSize);
  W.u32(P.MaxSize);
  W.u32(P.CloneFamilyPercent);
  W.u32(P.MinFamily);
  W.u32(P.MaxFamily);
  W.u32(P.FamilyDriftPercent);
  W.u32(P.SyntacticDriftPercent);
  W.u32(P.LoopPercent);
  W.u32(P.InvokePercent);
  W.u32(P.GiantPairSize);
  W.u32(P.RetTypeVariety);
  W.u64(P.Seed);
}

bool decodeProfile(ByteReader &R, BenchmarkProfile &P) {
  if (!decodeString(R, P.Name))
    return false;
  P.NumFunctions = R.u32();
  P.MinSize = R.u32();
  P.AvgSize = R.u32();
  P.MaxSize = R.u32();
  P.CloneFamilyPercent = R.u32();
  P.MinFamily = R.u32();
  P.MaxFamily = R.u32();
  P.FamilyDriftPercent = R.u32();
  P.SyntacticDriftPercent = R.u32();
  P.LoopPercent = R.u32();
  P.InvokePercent = R.u32();
  P.GiantPairSize = R.u32();
  P.RetTypeVariety = R.u32();
  P.Seed = R.u64();
  return R.ok();
}

void encodeEditOps(ByteWriter &W, const std::vector<EditOp> &Ops) {
  W.u32(static_cast<uint32_t>(Ops.size()));
  for (const EditOp &O : Ops) {
    W.u8(static_cast<uint8_t>(O.K));
    W.u32(O.ModuleIdx);
    encodeString(W, O.Name);
    W.u64(O.OpSeed);
  }
}

bool decodeEditOps(ByteReader &R, std::vector<EditOp> &Ops) {
  uint32_t N = R.u32();
  if (!R.ok())
    return false;
  Ops.clear();
  for (uint32_t I = 0; I < N; ++I) {
    EditOp O;
    O.K = static_cast<EditOp::Kind>(R.u8());
    O.ModuleIdx = R.u32();
    if (!decodeString(R, O.Name))
      return false;
    O.OpSeed = R.u64();
    Ops.push_back(std::move(O));
  }
  return R.ok();
}

void encodeSpec(ByteWriter &W, const EditStepSpec &S) {
  encodeEditOps(W, S.Deletes);
  encodeEditOps(W, S.Changes);
  encodeEditOps(W, S.Adds);
  W.u32(S.Drift.MutatePercent);
  W.u32(S.Drift.InsertPercent);
  W.u32(S.Drift.SyntacticPercent);
  W.u32(S.Generate.TargetSize);
  W.u32(S.Generate.ControlFlowPercent);
  W.u32(S.Generate.LoopPercent);
  W.u32(S.Generate.JoinPhiPercent);
  W.u32(S.Generate.InvokePercent);
  W.u32(S.Generate.MaxDepth);
  W.u32(S.Generate.RetTypeVariety);
}

bool decodeSpec(ByteReader &R, EditStepSpec &S) {
  if (!decodeEditOps(R, S.Deletes) || !decodeEditOps(R, S.Changes) ||
      !decodeEditOps(R, S.Adds))
    return false;
  S.Drift.MutatePercent = R.u32();
  S.Drift.InsertPercent = R.u32();
  S.Drift.SyntacticPercent = R.u32();
  S.Generate.TargetSize = R.u32();
  S.Generate.ControlFlowPercent = R.u32();
  S.Generate.LoopPercent = R.u32();
  S.Generate.JoinPhiPercent = R.u32();
  S.Generate.InvokePercent = R.u32();
  S.Generate.MaxDepth = R.u32();
  S.Generate.RetTypeVariety = R.u32();
  return R.ok();
}

} // namespace

void RegisterModulesRequest::encode(ByteWriter &W) const {
  encodeProfile(W, Profile);
  W.u32(NumModules);
  W.u8(static_cast<uint8_t>(Selection));
  W.u32(NumThreads);
  W.u32(ShardCount);
  W.u32(ExplorationThreshold);
  W.u8(static_cast<uint8_t>(Host));
  W.u8(HashClustering ? 1 : 0);
  W.u8(Canonicalize ? 1 : 0);
  encodeString(W, DecisionCachePath);
  W.u32(QuarantineDecayEpochs);
}

bool RegisterModulesRequest::decode(ByteReader &R) {
  if (!decodeProfile(R, Profile))
    return false;
  NumModules = R.u32();
  Selection = static_cast<SelectionStrategy>(R.u8());
  NumThreads = R.u32();
  ShardCount = R.u32();
  ExplorationThreshold = R.u32();
  Host = static_cast<HostPolicy>(R.u8());
  if (!decodeBool(R, HashClustering) || !decodeBool(R, Canonicalize) ||
      !decodeString(R, DecisionCachePath))
    return false;
  QuarantineDecayEpochs = R.u32();
  return R.ok();
}

void CheckoutRequest::encode(ByteWriter &W) const {
  W.u32(ModuleIdx);
  encodeString(W, Name);
}

bool CheckoutRequest::decode(ByteReader &R) {
  ModuleIdx = R.u32();
  return decodeString(R, Name) && R.ok();
}

void ApplyDeltaRequest::encode(ByteWriter &W) const {
  W.u64(Token);
  encodeSpec(W, Spec);
}

bool ApplyDeltaRequest::decode(ByteReader &R) {
  Token = R.u64();
  return decodeSpec(R, Spec) && R.ok();
}

// --- Request validation ------------------------------------------------------

namespace {

std::string checkPercent(const char *Field, uint32_t V) {
  return V > 100 ? std::string(Field) + " above 100" : std::string();
}

} // namespace

std::string salssa::validateRequest(const RegisterModulesRequest &RM) {
  const BenchmarkProfile &P = RM.Profile;
  if (RM.NumModules == 0 || RM.NumModules > MaxRegisteredModules)
    return "module count out of range";
  if (P.NumFunctions == 0 || P.NumFunctions > MaxPoolFunctions)
    return "function count out of range";
  if (P.MinSize > P.AvgSize || P.AvgSize > P.MaxSize ||
      P.MaxSize > MaxGeneratedFunctionSize)
    return "function sizes not ordered MinSize <= AvgSize <= MaxSize <= " +
           std::to_string(MaxGeneratedFunctionSize);
  // The generator draws a family size below MaxFamily - MinFamily + 1,
  // which must neither wrap nor go negative.
  if (P.MinFamily > P.MaxFamily || P.MaxFamily > MaxPoolFunctions)
    return "family sizes not ordered MinFamily <= MaxFamily <= " +
           std::to_string(MaxPoolFunctions);
  if (P.GiantPairSize > MaxGeneratedFunctionSize)
    return "GiantPairSize above " + std::to_string(MaxGeneratedFunctionSize);
  for (std::string Err :
       {checkPercent("CloneFamilyPercent", P.CloneFamilyPercent),
        checkPercent("FamilyDriftPercent", P.FamilyDriftPercent),
        checkPercent("SyntacticDriftPercent", P.SyntacticDriftPercent),
        checkPercent("LoopPercent", P.LoopPercent),
        checkPercent("InvokePercent", P.InvokePercent)})
    if (!Err.empty())
      return Err;
  if (RM.NumThreads > MaxWorkerThreads)
    return "thread count out of range";
  if (RM.ShardCount > MaxWorkerThreads)
    return "shard count out of range";
  if (RM.ExplorationThreshold == 0 ||
      RM.ExplorationThreshold > MaxExplorationThreshold)
    return "exploration threshold out of range";
  if (RM.Selection != SelectionStrategy::Distance &&
      RM.Selection != SelectionStrategy::Profit &&
      RM.Selection != SelectionStrategy::Adaptive)
    return "unknown selection strategy";
  if (RM.Host != HostPolicy::First && RM.Host != HostPolicy::Biggest &&
      RM.Host != HostPolicy::Hottest)
    return "unknown host policy";
  // The cache file is read and rewritten through temp + rename, so a
  // client-chosen path would be a client-chosen filesystem write.
  if (!RM.DecisionCachePath.empty())
    return "DecisionCachePath must be empty: the daemon names its own cache";
  return {};
}

std::string salssa::validateRequest(const ApplyDeltaRequest &AR,
                                    size_t NumModules) {
  if (AR.Spec.Deletes.size() + AR.Spec.Changes.size() + AR.Spec.Adds.size() >
      MaxPoolFunctions)
    return "more than " + std::to_string(MaxPoolFunctions) + " edit ops";
  for (const std::vector<EditOp> *Ops :
       {&AR.Spec.Deletes, &AR.Spec.Changes, &AR.Spec.Adds})
    for (const EditOp &O : *Ops) {
      if (O.K != EditOp::Change && O.K != EditOp::Add &&
          O.K != EditOp::Delete)
        return "unknown edit op kind";
      if (O.ModuleIdx >= NumModules)
        return "edit op module index out of range";
    }
  const DriftOptions &D = AR.Spec.Drift;
  const RandomFunctionOptions &G = AR.Spec.Generate;
  if (G.TargetSize > MaxGeneratedFunctionSize)
    return "TargetSize above " + std::to_string(MaxGeneratedFunctionSize);
  for (std::string Err :
       {checkPercent("MutatePercent", D.MutatePercent),
        checkPercent("InsertPercent", D.InsertPercent),
        checkPercent("SyntacticPercent", D.SyntacticPercent),
        checkPercent("ControlFlowPercent", G.ControlFlowPercent),
        checkPercent("LoopPercent", G.LoopPercent),
        checkPercent("JoinPhiPercent", G.JoinPhiPercent),
        checkPercent("InvokePercent", G.InvokePercent)})
    if (!Err.empty())
      return Err;
  return {};
}

void QueryStatsRequest::encode(ByteWriter &W) const {
  W.u8(IncludePrints ? 1 : 0);
}

bool QueryStatsRequest::decode(ByteReader &R) {
  return decodeBool(R, IncludePrints) && R.ok();
}

// --- Response bodies ---------------------------------------------------------

void StatsSnapshot::encode(ByteWriter &W) const {
  W.u32(Epoch);
  W.u32(FullRemerges);
  W.u32(HostReelections);
  W.u64(QuarantinedCount);
  W.u64(Attempts);
  W.u64(CommittedMerges);
  W.u64(CrossModuleMerges);
  W.u64(SizeBefore);
  W.u64(SizeAfter);
  W.u64(CacheHits);
  W.u64(HashClusterCommits);
  W.u8(DegradedToFullRemerge ? 1 : 0);
  W.u8(HostReelected ? 1 : 0);
  W.u64(ModuleDigest);
}

bool StatsSnapshot::decode(ByteReader &R) {
  Epoch = R.u32();
  FullRemerges = R.u32();
  HostReelections = R.u32();
  QuarantinedCount = R.u64();
  Attempts = R.u64();
  CommittedMerges = R.u64();
  CrossModuleMerges = R.u64();
  SizeBefore = R.u64();
  SizeAfter = R.u64();
  CacheHits = R.u64();
  HashClusterCommits = R.u64();
  DegradedToFullRemerge = R.u8() != 0;
  HostReelected = R.u8() != 0;
  ModuleDigest = R.u64();
  return R.ok();
}

void DaemonCounters::encode(ByteWriter &W) const {
  W.u64(Connections);
  W.u64(RequestsServed);
  W.u64(DeltasApplied);
  W.u64(TokenReplays);
  W.u64(HealedBatches);
  W.u64(DeadlineExpirations);
  W.u64(ProtocolFaultsInjected);
  W.u64(RequestErrors);
}

bool DaemonCounters::decode(ByteReader &R) {
  Connections = R.u64();
  RequestsServed = R.u64();
  DeltasApplied = R.u64();
  TokenReplays = R.u64();
  HealedBatches = R.u64();
  DeadlineExpirations = R.u64();
  ProtocolFaultsInjected = R.u64();
  RequestErrors = R.u64();
  return R.ok();
}

void ApplyDeltaResponse::encode(ByteWriter &W) const {
  Stats.encode(W);
  W.u8(Replayed ? 1 : 0);
}

bool ApplyDeltaResponse::decode(ByteReader &R) {
  if (!Stats.decode(R))
    return false;
  Replayed = R.u8() != 0;
  return R.ok();
}

void QueryStatsResponse::encode(ByteWriter &W) const {
  Stats.encode(W);
  Daemon.encode(W);
  encodeString(W, Prints);
}

bool QueryStatsResponse::decode(ByteReader &R) {
  return Stats.decode(R) && Daemon.decode(R) && decodeString(R, Prints) &&
         R.ok();
}

// --- Whole-payload helpers ---------------------------------------------------

std::vector<uint8_t> salssa::buildErrorPayload(const WireRequestHeader &Req,
                                               StatusCode Status,
                                               const std::string &Message,
                                               uint32_t DaemonVersion) {
  ByteWriter W;
  encodeResponseHeader(W, {Req.Kind, Req.RequestId, Status});
  if (Status == StatusCode::VersionMismatch)
    W.u32(DaemonVersion);
  encodeString(W, Message);
  return W.buffer();
}

bool salssa::decodeErrorBody(ByteReader &R, StatusCode Status,
                             uint32_t &Version, std::string &Message) {
  Version = Status == StatusCode::VersionMismatch ? R.u32() : ProtocolVersion;
  return decodeString(R, Message) && R.ok();
}

// --- Idempotency token cache -------------------------------------------------

const std::vector<uint8_t> *ApplyTokenCache::lookup(uint64_t Token) const {
  auto It = ByToken.find(Token);
  return It == ByToken.end() ? nullptr : &It->second;
}

void ApplyTokenCache::remember(uint64_t Token, std::vector<uint8_t> Payload) {
  if (ByToken.count(Token))
    return; // first response wins
  while (Order.size() >= Max) {
    ByToken.erase(Order.front());
    Order.pop_front();
  }
  ByToken.emplace(Token, std::move(Payload));
  Order.push_back(Token);
}
