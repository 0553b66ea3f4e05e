//===- service/Protocol.cpp - salssad wire protocol ---------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include <cassert>

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

namespace {

/// The 20-byte frame header (FrameHeaderBytes), frozen across versions.
struct FrameHeader {
  uint32_t Magic = 0;
  uint32_t Version = 0;
  uint32_t Length = 0;
  uint64_t Checksum = 0;
};

template <typename IO> void fields(IO &F, FrameHeader &H) {
  F(H.Magic, H.Version, H.Length, H.Checksum);
}

} // namespace

std::vector<uint8_t> salssa::encodeFrame(const std::vector<uint8_t> &Payload) {
  assert(Payload.size() <= MaxFramePayloadBytes && "frame payload too large");
  std::vector<uint8_t> Out = toBytes(FrameHeader{
      ProtocolMagic, ProtocolVersion, static_cast<uint32_t>(Payload.size()),
      fnv1a64(Payload.data(), Payload.size())});
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
  FrameHeader H;
  ByteReader R(Buf.data() + Pos, FrameHeaderBytes);
  R(H); // cannot fail: the header bytes are all there
  if (H.Magic != ProtocolMagic) {
    Err = FrameError::BadMagic;
    return false;
  }
  if (H.Version != ProtocolVersion) {
    Err = FrameError::BadVersion;
    return false;
  }
  if (H.Length > MaxFramePayloadBytes) {
    Err = FrameError::Oversized;
    return false;
  }
  if (Buf.size() - Pos - FrameHeaderBytes < H.Length)
    return false; // need more bytes
  const uint8_t *Body = Buf.data() + Pos + FrameHeaderBytes;
  if (fnv1a64(Body, H.Length) != H.Checksum) {
    Err = FrameError::BadChecksum;
    return false;
  }
  Payload.assign(Body, Body + H.Length);
  Pos += FrameHeaderBytes + H.Length;
  return true;
}

// --- Payload headers and bodies ---------------------------------------------
//
// Thin wrappers over the field lists in Protocol.h. A header is followed by
// a body; a body must end its payload.

void salssa::encodeRequestHeader(ByteWriter &W, const WireRequestHeader &H) {
  W(H);
}

bool salssa::decodeRequestHeader(ByteReader &R, WireRequestHeader &H) {
  return R(H);
}

void salssa::encodeResponseHeader(ByteWriter &W, const WireResponseHeader &H) {
  W(H);
}

bool salssa::decodeResponseHeader(ByteReader &R, WireResponseHeader &H) {
  return R(H);
}

bool salssa::decodeString(ByteReader &R, std::string &S) { return R(S); }

void RegisterModulesRequest::encode(ByteWriter &W) const { W(*this); }
bool RegisterModulesRequest::decode(ByteReader &R) { return R.whole(*this); }
void CheckoutRequest::encode(ByteWriter &W) const { W(*this); }
bool CheckoutRequest::decode(ByteReader &R) { return R.whole(*this); }
void ApplyDeltaRequest::encode(ByteWriter &W) const { W(*this); }
bool ApplyDeltaRequest::decode(ByteReader &R) { return R.whole(*this); }
void QueryStatsRequest::encode(ByteWriter &W) const { W(*this); }
bool QueryStatsRequest::decode(ByteReader &R) { return R.whole(*this); }
void StatsSnapshot::encode(ByteWriter &W) const { W(*this); }
bool StatsSnapshot::decode(ByteReader &R) { return R.whole(*this); }
void DaemonCounters::encode(ByteWriter &W) const { W(*this); }
bool DaemonCounters::decode(ByteReader &R) { return R.whole(*this); }
void ApplyDeltaResponse::encode(ByteWriter &W) const { W(*this); }
bool ApplyDeltaResponse::decode(ByteReader &R) { return R.whole(*this); }
void QueryStatsResponse::encode(ByteWriter &W) const { W(*this); }
bool QueryStatsResponse::decode(ByteReader &R) { return R.whole(*this); }

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

// --- Whole-payload helpers ---------------------------------------------------

std::vector<uint8_t> salssa::buildErrorPayload(const WireRequestHeader &Req,
                                               StatusCode Status,
                                               const std::string &Message,
                                               uint32_t DaemonVersion) {
  ByteWriter W;
  W(WireResponseHeader{Req.Kind, Req.RequestId, Status});
  if (Status == StatusCode::VersionMismatch)
    W(DaemonVersion);
  W(Message);
  return W.buffer();
}

bool salssa::decodeErrorBody(ByteReader &R, StatusCode Status,
                             uint32_t &Version, std::string &Message) {
  Version = ProtocolVersion;
  if (Status == StatusCode::VersionMismatch && !R(Version))
    return false;
  return R.whole(Message);
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
