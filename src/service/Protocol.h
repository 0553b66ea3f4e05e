//===- service/Protocol.h - salssad wire protocol -----------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned binary wire protocol between the merge daemon
/// (service/Daemon.h, `salssad`) and its clients (service/Client.h,
/// `salssa-client`). docs/PROTOCOL.md is the normative prose spec and is
/// kept in lockstep with this header by a CI grep over its enumerators,
/// constants and field lists — when you add or rename a request kind,
/// status code or field here, update the doc in the same commit.
///
/// ## Framing
///
/// Every message travels in one length-prefixed frame over a
/// SOCK_STREAM Unix-domain socket: a 20-byte frame header (magic
/// ProtocolMagic, version ProtocolVersion, payload length <=
/// MaxFramePayloadBytes, fnv1a64 checksum of the payload), then the
/// payload. The header layout is frozen across protocol versions; only
/// payload contents are versioned. A reader that sees a wrong magic,
/// an unknown version, an oversized length or a checksum mismatch
/// reports a sticky FrameError and the connection is torn down — a
/// damaged frame is a per-request error, never a desynchronized stream
/// (support/Serialization's bounds-checked reader gives the same
/// guarantee inside the payload).
///
/// ## Payloads
///
/// A request payload is a WireRequestHeader then the kind's body; a
/// response payload is a WireResponseHeader then the Ok body or an error
/// body. Every layout is one field list in "Wire layouts" at the end of
/// this file (support/Serialization.h walks it both ways). Decoding is
/// strict and the same for every message: booleans are 0 or 1, a body
/// must be consumed exactly, and no string length or vector count may
/// exceed what the bytes left can hold.
///
/// `requestId` is chosen by the client and echoed verbatim; responses
/// are matched by it. `deadlineMillis` bounds the request's total
/// server-side wait+work time (0 = no deadline): a request that cannot
/// be admitted to the session writer lease before the deadline fails
/// with StatusCode::DeadlineExpired without side effects.
///
/// ## Module transport
///
/// There is no IR parser in this codebase, so modules never cross the
/// wire. RegisterModules carries the deterministic generator spec
/// (workloads/Suites.h BenchmarkProfile + module count) and edits
/// travel as EditStepSpec (workloads/EditScript.h): name-addressed,
/// seed-carrying ops both ends can replay to byte-identical IR. This is
/// the same differential-harness idiom the in-process tests use.
///
/// ## Idempotent retry
///
/// ApplyDelta carries a client-chosen `token`. The daemon remembers the
/// response it sent for each token (service/Daemon.h ApplyTokenCache);
/// a retried token returns the remembered response with Replayed=1 and
/// never double-applies the delta. Everything else (BeginDelta,
/// CheckoutForEdit, QueryStats, Shutdown, RegisterModules-with-
/// identical-spec) is naturally idempotent, so the client may retry any
/// timed-out request on a fresh connection.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_SERVICE_PROTOCOL_H
#define SALSSA_SERVICE_PROTOCOL_H

#include "merge/MergeDriver.h"
#include "support/Serialization.h"
#include "workloads/EditScript.h"
#include "workloads/Suites.h"
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace salssa {

// --- Frame constants ---------------------------------------------------------

/// "SLSD" as a little-endian u32.
constexpr uint32_t ProtocolMagic = 0x44534C53u;
constexpr uint32_t ProtocolVersion = 2;
/// Frames above this payload size are rejected before buffering
/// (FrameError::Oversized) — a garbage length prefix must not make the
/// reader allocate unbounded memory.
constexpr uint32_t MaxFramePayloadBytes = 16u << 20;
constexpr size_t FrameHeaderBytes = 20; // magic+version+length+checksum

// --- Request kinds and status codes ------------------------------------------

/// One enumerator per request the daemon serves. Values are wire
/// contract: never renumber, only append.
enum class RequestKind : uint8_t {
  RegisterModules = 1, ///< build the module group, initialize the session
  BeginDelta = 2,      ///< acquire the exclusive writer lease (FIFO)
  CheckoutForEdit = 3, ///< restore one function's pristine body
  ApplyDelta = 4,      ///< apply an edit step; idempotent via token
  QueryStats = 5,      ///< stats snapshot; never blocks on the session
  Shutdown = 6,        ///< drain and stop the daemon
};

/// Response status. Ok responses carry a kind-specific body; error
/// responses carry a human-readable message string.
enum class StatusCode : uint8_t {
  Ok = 0,
  BadFrame = 1,        ///< malformed payload inside a well-framed message
  VersionMismatch = 2, ///< body carries the daemon's version as u32
  UnknownRequest = 3,  ///< kind the daemon does not implement
  NotRegistered = 4,   ///< session requests before RegisterModules
  AlreadyRegistered = 5, ///< RegisterModules with a different spec
  UnknownFunction = 6, ///< checkout/edit target not in the session
  NoBatch = 7,         ///< CheckoutForEdit/ApplyDelta without BeginDelta
  DeadlineExpired = 8, ///< deadlineMillis elapsed before admission
  ShuttingDown = 9,    ///< daemon is draining; no new work
  InternalError = 10,  ///< unexpected server-side failure
};

const char *requestKindName(RequestKind K);
const char *statusCodeName(StatusCode S);

// --- Framing -----------------------------------------------------------------

/// Wraps \p Payload in one wire frame (header + checksum + bytes).
std::vector<uint8_t> encodeFrame(const std::vector<uint8_t> &Payload);

enum class FrameError : uint8_t {
  None = 0,
  BadMagic,
  BadVersion,
  Oversized,
  BadChecksum,
};

/// Incremental frame reassembly over an arbitrary byte stream. Feed
/// whatever recv() returned; next() yields complete payloads in order.
/// Any framing violation latches error() (sticky) and next() returns
/// false forever — the connection owner must tear down.
class FrameAssembler {
public:
  void feed(const uint8_t *Data, size_t N);
  /// Moves the next complete payload into \p Payload. Returns false
  /// when more bytes are needed or error() is set.
  bool next(std::vector<uint8_t> &Payload);
  FrameError error() const { return Err; }

private:
  std::vector<uint8_t> Buf;
  size_t Pos = 0; ///< consumed prefix of Buf
  FrameError Err = FrameError::None;
};

// --- Payload headers ---------------------------------------------------------

struct WireRequestHeader {
  RequestKind Kind = RequestKind::QueryStats;
  uint64_t RequestId = 0;
  uint32_t DeadlineMillis = 0; ///< 0 = no deadline
};

struct WireResponseHeader {
  RequestKind Kind = RequestKind::QueryStats;
  uint64_t RequestId = 0;
  StatusCode Status = StatusCode::Ok;
};

/// The body of BeginDelta and Shutdown requests and of the Ok answers to
/// BeginDelta, CheckoutForEdit and Shutdown.
struct EmptyBody {};

void encodeRequestHeader(ByteWriter &W, const WireRequestHeader &H);
bool decodeRequestHeader(ByteReader &R, WireRequestHeader &H);
void encodeResponseHeader(ByteWriter &W, const WireResponseHeader &H);
bool decodeResponseHeader(ByteReader &R, WireResponseHeader &H);

/// A `u32 length | bytes` string; the length must fit the bytes left.
bool decodeString(ByteReader &R, std::string &S);

// --- Request bodies ----------------------------------------------------------

/// RegisterModules: the deterministic session spec. The daemon builds
/// `NumModules` modules from `Profile` (workloads/Suites.h), applies
/// its own startup defaults for warm-path knobs the request leaves
/// unset (false HashClustering, zero QuarantineDecayEpochs)
/// and its own decision cache, and runs MergeService::initialize().
/// Registering twice with the byte-identical body is idempotent; a
/// different body fails with AlreadyRegistered.
struct RegisterModulesRequest {
  BenchmarkProfile Profile;
  uint32_t NumModules = 2;
  SelectionStrategy Selection = SelectionStrategy::Distance;
  uint32_t NumThreads = 1;
  uint32_t ShardCount = 1;
  uint32_t ExplorationThreshold = 1;
  HostPolicy Host = HostPolicy::First;
  bool HashClustering = false;
  bool Canonicalize = false;
  /// Must be empty (validateRequest): the daemon reads and rewrites its
  /// decision cache only at the path its operator configured, and
  /// refuses a request that names another.
  std::string DecisionCachePath;
  uint32_t QuarantineDecayEpochs = 0;

  void encode(ByteWriter &W) const;
  bool decode(ByteReader &R);
};

/// CheckoutForEdit: one pristine-body restore inside the held batch.
struct CheckoutRequest {
  uint32_t ModuleIdx = 0;
  std::string Name;

  void encode(ByteWriter &W) const;
  bool decode(ByteReader &R);
};

/// ApplyDelta: one edit step plus the idempotency token. Functions the
/// client checked out explicitly (CheckoutForEdit) must appear among
/// Spec.Changes; functions only named in Spec are checked out
/// server-side before their edit replays.
struct ApplyDeltaRequest {
  uint64_t Token = 0;
  EditStepSpec Spec;

  void encode(ByteWriter &W) const;
  bool decode(ByteReader &R);
};

// --- Request validation ------------------------------------------------------

/// Bounds the daemon enforces on decoded request bodies (the decoder only
/// checks that the bytes are there and well-formed). Each value sizes real
/// work or memory server-side, so a client must not be able to pick it
/// freely.
constexpr uint32_t MaxRegisteredModules = 64;
constexpr uint32_t MaxPoolFunctions = 65536;
constexpr uint32_t MaxGeneratedFunctionSize = 4096; ///< instructions
constexpr uint32_t MaxWorkerThreads = 256; ///< NumThreads and ShardCount
constexpr uint32_t MaxExplorationThreshold = 64;

/// Why \p RM is out of bounds, or an empty string when it is acceptable:
/// 1..MaxRegisteredModules modules, 1..MaxPoolFunctions functions,
/// MinSize <= AvgSize <= MaxSize <= MaxGeneratedFunctionSize, MinFamily <=
/// MaxFamily <= MaxPoolFunctions, GiantPairSize <=
/// MaxGeneratedFunctionSize, every percentage <= 100, NumThreads and
/// ShardCount <= MaxWorkerThreads, ExplorationThreshold in
/// 1..MaxExplorationThreshold, known Selection and Host values, and an
/// empty DecisionCachePath (the daemon writes only where its operator
/// said: `salssad --decision-cache`). The daemon answers a non-empty
/// reason with StatusCode::BadFrame.
std::string validateRequest(const RegisterModulesRequest &RM);

/// Why \p AR is out of bounds for a session of \p NumModules modules, or
/// an empty string: at most MaxPoolFunctions ops in total, every op has a
/// known kind and a ModuleIdx below \p NumModules, every percentage is
/// <= 100, and Generate.TargetSize is <= MaxGeneratedFunctionSize.
std::string validateRequest(const ApplyDeltaRequest &AR, size_t NumModules);

struct QueryStatsRequest {
  /// When set, the response carries the concatenated printModule() text
  /// of every registered module — the differential harness's
  /// byte-identity witness. Digest-only otherwise.
  bool IncludePrints = false;

  void encode(ByteWriter &W) const;
  bool decode(ByteReader &R);
};

// --- Response bodies ---------------------------------------------------------

/// The session snapshot every mutating request returns and QueryStats
/// serves from cache (the daemon refreshes it after each mutation, so
/// QueryStats never waits on a running merge).
struct StatsSnapshot {
  uint32_t Epoch = 0;
  uint32_t FullRemerges = 0;
  uint32_t HostReelections = 0;
  uint64_t QuarantinedCount = 0;
  uint64_t Attempts = 0;
  uint64_t CommittedMerges = 0;
  uint64_t CrossModuleMerges = 0;
  uint64_t SizeBefore = 0;
  uint64_t SizeAfter = 0;
  uint64_t CacheHits = 0;
  uint64_t HashClusterCommits = 0;
  bool DegradedToFullRemerge = false;
  bool HostReelected = false;
  /// fnv1a64 over the concatenated printModule() text of every
  /// registered module, in registration order.
  uint64_t ModuleDigest = 0;

  void encode(ByteWriter &W) const;
  bool decode(ByteReader &R);
};

/// Daemon-level counters, served by QueryStats.
struct DaemonCounters {
  uint64_t Connections = 0;
  uint64_t RequestsServed = 0;
  uint64_t DeltasApplied = 0;
  uint64_t TokenReplays = 0;       ///< retried ApplyDelta served from cache
  uint64_t HealedBatches = 0;      ///< abandoned batches auto-closed
  uint64_t DeadlineExpirations = 0;
  uint64_t ProtocolFaultsInjected = 0;
  uint64_t RequestErrors = 0;      ///< non-Ok responses sent

  void encode(ByteWriter &W) const;
  bool decode(ByteReader &R);
};

struct ApplyDeltaResponse {
  StatsSnapshot Stats;
  bool Replayed = false; ///< served from the token cache, not re-applied

  void encode(ByteWriter &W) const;
  bool decode(ByteReader &R);
};

struct QueryStatsResponse {
  StatsSnapshot Stats;
  DaemonCounters Daemon;
  std::string Prints; ///< empty unless IncludePrints was set

  void encode(ByteWriter &W) const;
  bool decode(ByteReader &R);
};

// --- Whole-payload helpers ---------------------------------------------------

/// Error-response body: message string (VersionMismatch additionally
/// prefixes the daemon's version as u32 — see decodeErrorBody).
std::vector<uint8_t> buildErrorPayload(const WireRequestHeader &Req,
                                       StatusCode Status,
                                       const std::string &Message,
                                       uint32_t DaemonVersion = ProtocolVersion);

/// Splits an error body back into (version, message); the body must be
/// consumed exactly. For statuses other than VersionMismatch the version
/// slot is ProtocolVersion.
bool decodeErrorBody(ByteReader &R, StatusCode Status, uint32_t &Version,
                     std::string &Message);

// --- Idempotency token cache -------------------------------------------------

/// Bounded FIFO map of ApplyDelta token -> the exact response payload
/// that was (or should have been) delivered. A retried token replays
/// the payload byte-for-byte; the bound evicts oldest-first so a
/// long-lived daemon cannot grow without limit. Tokens are
/// client-chosen; reusing a token for a *different* delta is a client
/// contract violation (the cached response is returned regardless).
class ApplyTokenCache {
public:
  explicit ApplyTokenCache(size_t MaxEntries = 256) : Max(MaxEntries) {}

  /// Remembered payload for \p Token, or nullptr.
  const std::vector<uint8_t> *lookup(uint64_t Token) const;
  /// Records \p Payload for \p Token, evicting the oldest entry past
  /// the bound. Re-recording an existing token is a no-op (the first
  /// response wins — that is the one the client may have seen).
  void remember(uint64_t Token, std::vector<uint8_t> Payload);
  size_t size() const { return ByToken.size(); }

private:
  size_t Max;
  std::map<uint64_t, std::vector<uint8_t>> ByToken;
  std::deque<uint64_t> Order;
};

// --- Wire layouts ------------------------------------------------------------
//
// The one field list of every header and body, in wire order: ByteWriter
// encodes it and ByteReader decodes it (support/Serialization.h). Adding a
// field is one entry here plus its line in docs/PROTOCOL.md, which
// ci/check_protocol_docs.py enforces. The `unsigned` fields of the
// workload specs travel as u32.

static_assert(sizeof(unsigned) == 4, "u32 wire fields are declared unsigned");

template <typename IO> void fields(IO &F, WireRequestHeader &H) {
  F(H.Kind, H.RequestId, H.DeadlineMillis);
}

template <typename IO> void fields(IO &F, WireResponseHeader &H) {
  F(H.Kind, H.RequestId, H.Status);
}

template <typename IO> void fields(IO &, EmptyBody &) {}

template <typename IO> void fields(IO &F, BenchmarkProfile &P) {
  F(P.Name, P.NumFunctions, P.MinSize, P.AvgSize, P.MaxSize,
    P.CloneFamilyPercent, P.MinFamily, P.MaxFamily, P.FamilyDriftPercent,
    P.SyntacticDriftPercent, P.LoopPercent, P.InvokePercent, P.GiantPairSize,
    P.RetTypeVariety, P.Seed);
}

template <typename IO> void fields(IO &F, RegisterModulesRequest &M) {
  F(M.Profile, M.NumModules, M.Selection, M.NumThreads, M.ShardCount,
    M.ExplorationThreshold, M.Host, M.HashClustering, M.Canonicalize,
    M.DecisionCachePath, M.QuarantineDecayEpochs);
}

template <typename IO> void fields(IO &F, CheckoutRequest &C) {
  F(C.ModuleIdx, C.Name);
}

template <typename IO> void fields(IO &F, EditOp &O) {
  F(O.K, O.ModuleIdx, O.Name, O.OpSeed);
}

template <typename IO> void fields(IO &F, EditStepSpec &S) {
  F(S.Deletes, S.Changes, S.Adds, S.Drift.MutatePercent,
    S.Drift.InsertPercent, S.Drift.SyntacticPercent, S.Generate.TargetSize,
    S.Generate.ControlFlowPercent, S.Generate.LoopPercent,
    S.Generate.JoinPhiPercent, S.Generate.InvokePercent, S.Generate.MaxDepth,
    S.Generate.RetTypeVariety);
}

template <typename IO> void fields(IO &F, ApplyDeltaRequest &A) {
  F(A.Token, A.Spec);
}

template <typename IO> void fields(IO &F, QueryStatsRequest &Q) {
  F(Q.IncludePrints);
}

template <typename IO> void fields(IO &F, StatsSnapshot &S) {
  F(S.Epoch, S.FullRemerges, S.HostReelections, S.QuarantinedCount,
    S.Attempts, S.CommittedMerges, S.CrossModuleMerges, S.SizeBefore,
    S.SizeAfter, S.CacheHits, S.HashClusterCommits, S.DegradedToFullRemerge,
    S.HostReelected, S.ModuleDigest);
}

template <typename IO> void fields(IO &F, DaemonCounters &C) {
  F(C.Connections, C.RequestsServed, C.DeltasApplied, C.TokenReplays,
    C.HealedBatches, C.DeadlineExpirations, C.ProtocolFaultsInjected,
    C.RequestErrors);
}

template <typename IO> void fields(IO &F, ApplyDeltaResponse &A) {
  F(A.Stats, A.Replayed);
}

template <typename IO> void fields(IO &F, QueryStatsResponse &Q) {
  F(Q.Stats, Q.Daemon, Q.Prints);
}

} // namespace salssa

#endif // SALSSA_SERVICE_PROTOCOL_H
