//===- tests/protocol_test.cpp - Wire protocol unit coverage ------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pure Protocol-layer coverage (service/Protocol.h) — no daemon, no
// sockets:
//   - frame round-trips through FrameAssembler, including byte-at-a-time
//     and multi-frame feeds;
//   - malformed frames (bad magic, wrong version, oversized length,
//     corrupt checksum, truncation) are rejected with the right sticky
//     FrameError and never yield a payload;
//   - every request/response struct round-trips byte-exactly, rejects
//     truncated bodies cleanly, and decodes only to its exact bytes (no
//     trailing byte, no boolean other than 0/1);
//   - the version-mismatch handshake carries the daemon version;
//   - golden bytes: one fixed value of each header, request, response
//     and error payload encodes to pinned bytes and decodes back;
//   - ApplyTokenCache is idempotent (first response wins) and bounded
//     (FIFO eviction).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "gtest/gtest.h"

using namespace salssa;

namespace {

std::vector<uint8_t> somePayload(size_t N, uint8_t Salt = 7) {
  std::vector<uint8_t> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = static_cast<uint8_t>((I * 131 + Salt) & 0xFF);
  return P;
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

TEST(Framing, RoundTripsWholeAndByteAtATime) {
  std::vector<uint8_t> Payload = somePayload(300);
  std::vector<uint8_t> Frame = encodeFrame(Payload);
  EXPECT_EQ(Frame.size(), FrameHeaderBytes + Payload.size());

  FrameAssembler Whole;
  Whole.feed(Frame.data(), Frame.size());
  std::vector<uint8_t> Out;
  ASSERT_TRUE(Whole.next(Out));
  EXPECT_EQ(Out, Payload);
  EXPECT_FALSE(Whole.next(Out)) << "no second frame";
  EXPECT_EQ(Whole.error(), FrameError::None);

  FrameAssembler Dribble;
  for (uint8_t B : Frame) {
    EXPECT_FALSE(Dribble.error() != FrameError::None);
    Dribble.feed(&B, 1);
  }
  ASSERT_TRUE(Dribble.next(Out));
  EXPECT_EQ(Out, Payload);
}

TEST(Framing, ReassemblesSeveralFramesFromOneFeed) {
  std::vector<uint8_t> Stream;
  std::vector<std::vector<uint8_t>> Payloads;
  for (int I = 0; I < 5; ++I) {
    Payloads.push_back(somePayload(40 + 17 * I, static_cast<uint8_t>(I)));
    std::vector<uint8_t> F = encodeFrame(Payloads.back());
    Stream.insert(Stream.end(), F.begin(), F.end());
  }
  FrameAssembler Asm;
  Asm.feed(Stream.data(), Stream.size());
  std::vector<uint8_t> Out;
  for (int I = 0; I < 5; ++I) {
    ASSERT_TRUE(Asm.next(Out)) << "frame " << I;
    EXPECT_EQ(Out, Payloads[I]) << "frame " << I;
  }
  EXPECT_FALSE(Asm.next(Out));
  EXPECT_EQ(Asm.error(), FrameError::None);
}

TEST(Framing, EmptyPayloadFrameIsLegal) {
  std::vector<uint8_t> Frame = encodeFrame({});
  FrameAssembler Asm;
  Asm.feed(Frame.data(), Frame.size());
  std::vector<uint8_t> Out{1, 2, 3};
  ASSERT_TRUE(Asm.next(Out));
  EXPECT_TRUE(Out.empty());
}

TEST(Framing, BadMagicIsStickyRejection) {
  std::vector<uint8_t> Frame = encodeFrame(somePayload(16));
  Frame[0] ^= 0xFF;
  FrameAssembler Asm;
  Asm.feed(Frame.data(), Frame.size());
  std::vector<uint8_t> Out;
  EXPECT_FALSE(Asm.next(Out));
  EXPECT_EQ(Asm.error(), FrameError::BadMagic);
  // Sticky: even a following pristine frame is refused.
  std::vector<uint8_t> Good = encodeFrame(somePayload(8));
  Asm.feed(Good.data(), Good.size());
  EXPECT_FALSE(Asm.next(Out));
  EXPECT_EQ(Asm.error(), FrameError::BadMagic);
}

TEST(Framing, WrongVersionIsRejected) {
  std::vector<uint8_t> Frame = encodeFrame(somePayload(16));
  Frame[4] = static_cast<uint8_t>(ProtocolVersion + 1); // little-endian lsb
  FrameAssembler Asm;
  Asm.feed(Frame.data(), Frame.size());
  std::vector<uint8_t> Out;
  EXPECT_FALSE(Asm.next(Out));
  EXPECT_EQ(Asm.error(), FrameError::BadVersion);
}

TEST(Framing, OversizedLengthIsRejectedBeforeBuffering) {
  // Hand-build a header claiming a payload far above the bound; the
  // assembler must reject on the header alone, without waiting for (or
  // allocating) the claimed bytes.
  ByteWriter W;
  W.u32(ProtocolMagic);
  W.u32(ProtocolVersion);
  W.u32(MaxFramePayloadBytes + 1);
  W.u64(0);
  std::vector<uint8_t> Header = W.buffer();
  FrameAssembler Asm;
  Asm.feed(Header.data(), Header.size());
  std::vector<uint8_t> Out;
  EXPECT_FALSE(Asm.next(Out));
  EXPECT_EQ(Asm.error(), FrameError::Oversized);
}

TEST(Framing, CorruptChecksumIsRejected) {
  std::vector<uint8_t> Frame = encodeFrame(somePayload(64));
  Frame[12] ^= 0x01; // first checksum byte
  FrameAssembler Asm;
  Asm.feed(Frame.data(), Frame.size());
  std::vector<uint8_t> Out;
  EXPECT_FALSE(Asm.next(Out));
  EXPECT_EQ(Asm.error(), FrameError::BadChecksum);
}

TEST(Framing, CorruptPayloadByteIsRejected) {
  std::vector<uint8_t> Frame = encodeFrame(somePayload(64));
  Frame[FrameHeaderBytes + 10] ^= 0x80;
  FrameAssembler Asm;
  Asm.feed(Frame.data(), Frame.size());
  std::vector<uint8_t> Out;
  EXPECT_FALSE(Asm.next(Out));
  EXPECT_EQ(Asm.error(), FrameError::BadChecksum);
}

TEST(Framing, TruncatedFrameJustWaitsForMoreBytes) {
  std::vector<uint8_t> Frame = encodeFrame(somePayload(128));
  FrameAssembler Asm;
  Asm.feed(Frame.data(), Frame.size() - 1);
  std::vector<uint8_t> Out;
  EXPECT_FALSE(Asm.next(Out)) << "incomplete frame must not yield";
  EXPECT_EQ(Asm.error(), FrameError::None) << "truncation is not an error yet";
  uint8_t Last = Frame.back();
  Asm.feed(&Last, 1);
  EXPECT_TRUE(Asm.next(Out));
}

//===----------------------------------------------------------------------===//
// Struct round-trips
//===----------------------------------------------------------------------===//

RegisterModulesRequest sampleRegister() {
  RegisterModulesRequest RM;
  RM.Profile.Name = "proto.rt";
  RM.Profile.NumFunctions = 31;
  RM.Profile.AvgSize = 42;
  RM.Profile.RetTypeVariety = 3;
  RM.Profile.Seed = 0xfeedULL << 17;
  RM.NumModules = 3;
  RM.Selection = SelectionStrategy::Profit;
  RM.NumThreads = 4;
  RM.ShardCount = 2;
  RM.ExplorationThreshold = 5;
  RM.Host = HostPolicy::Hottest;
  RM.HashClustering = true;
  RM.Canonicalize = true;
  RM.DecisionCachePath = "/tmp/dc.bin";
  RM.QuarantineDecayEpochs = 7;
  return RM;
}

TEST(Payloads, RegisterModulesRoundTrips) {
  RegisterModulesRequest RM = sampleRegister();
  ByteWriter W;
  RM.encode(W);
  RegisterModulesRequest Back;
  ByteReader R(W.buffer().data(), W.buffer().size());
  ASSERT_TRUE(Back.decode(R));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(Back.Profile.Name, RM.Profile.Name);
  EXPECT_EQ(Back.Profile.NumFunctions, RM.Profile.NumFunctions);
  EXPECT_EQ(Back.Profile.Seed, RM.Profile.Seed);
  EXPECT_EQ(Back.NumModules, RM.NumModules);
  EXPECT_EQ(Back.Selection, RM.Selection);
  EXPECT_EQ(Back.NumThreads, RM.NumThreads);
  EXPECT_EQ(Back.ShardCount, RM.ShardCount);
  EXPECT_EQ(Back.ExplorationThreshold, RM.ExplorationThreshold);
  EXPECT_EQ(Back.Host, RM.Host);
  EXPECT_EQ(Back.HashClustering, RM.HashClustering);
  EXPECT_EQ(Back.Canonicalize, RM.Canonicalize);
  EXPECT_EQ(Back.DecisionCachePath, RM.DecisionCachePath);
  EXPECT_EQ(Back.QuarantineDecayEpochs, RM.QuarantineDecayEpochs);
}

TEST(Payloads, RegisterModulesEncodingIsDeterministic) {
  // The daemon's idempotent-registration check compares raw body bytes,
  // so identical requests must encode identically.
  ByteWriter A, B;
  sampleRegister().encode(A);
  sampleRegister().encode(B);
  EXPECT_EQ(A.buffer(), B.buffer());
}

TEST(Payloads, ApplyDeltaRoundTripsTheFullSpec) {
  ApplyDeltaRequest AR;
  AR.Token = 0xdeadbeefcafeULL;
  AR.Spec.Deletes.push_back({EditOp::Delete, 1, "gone", 11});
  AR.Spec.Changes.push_back({EditOp::Change, 0, "mutate_me", 22});
  AR.Spec.Changes.push_back({EditOp::Change, 1, "and_me", 33});
  AR.Spec.Adds.push_back({EditOp::Add, 0, "fresh", 44});
  AR.Spec.Drift.MutatePercent = 15;
  AR.Spec.Drift.InsertPercent = 5;
  AR.Spec.Generate.TargetSize = 30;
  AR.Spec.Generate.RetTypeVariety = 3;
  ByteWriter W;
  AR.encode(W);
  ApplyDeltaRequest Back;
  ByteReader R(W.buffer().data(), W.buffer().size());
  ASSERT_TRUE(Back.decode(R));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(Back.Token, AR.Token);
  ASSERT_EQ(Back.Spec.Deletes.size(), 1u);
  ASSERT_EQ(Back.Spec.Changes.size(), 2u);
  ASSERT_EQ(Back.Spec.Adds.size(), 1u);
  EXPECT_EQ(Back.Spec.Deletes[0].K, EditOp::Delete);
  EXPECT_EQ(Back.Spec.Deletes[0].Name, "gone");
  EXPECT_EQ(Back.Spec.Changes[1].ModuleIdx, 1u);
  EXPECT_EQ(Back.Spec.Changes[1].OpSeed, 33u);
  EXPECT_EQ(Back.Spec.Adds[0].Name, "fresh");
  EXPECT_EQ(Back.Spec.Drift.MutatePercent, 15u);
  EXPECT_EQ(Back.Spec.Generate.TargetSize, 30u);
}

TEST(Payloads, TruncatedBodiesAreRejectedCleanly) {
  ApplyDeltaRequest AR;
  AR.Token = 99;
  AR.Spec.Changes.push_back({EditOp::Change, 0, "victim", 5});
  ByteWriter W;
  AR.encode(W);
  // Every strict prefix must fail decode() — never crash, never spin.
  for (size_t Cut = 0; Cut < W.buffer().size(); ++Cut) {
    ApplyDeltaRequest Back;
    ByteReader R(W.buffer().data(), Cut);
    EXPECT_FALSE(Back.decode(R)) << "prefix " << Cut << " decoded";
  }
}

TEST(Payloads, StringWithClaimedLengthPastBufferIsRejected) {
  // A string header claiming more bytes than remain must fail instead
  // of over-reading (the reader is bounds-checked; decodeString must
  // not loop on zero-fill).
  ByteWriter W;
  W.u32(1000); // claimed length
  W.u8('x');   // only one actual byte
  ByteReader R(W.buffer().data(), W.buffer().size());
  std::string S;
  EXPECT_FALSE(decodeString(R, S));
}

TEST(Payloads, StatsAndCountersRoundTrip) {
  StatsSnapshot S;
  S.Epoch = 4;
  S.FullRemerges = 1;
  S.HostReelections = 2;
  S.QuarantinedCount = 3;
  S.Attempts = 123;
  S.CommittedMerges = 45;
  S.CrossModuleMerges = 6;
  S.SizeBefore = 7000;
  S.SizeAfter = 5600;
  S.CacheHits = 8;
  S.HashClusterCommits = 9;
  S.DegradedToFullRemerge = true;
  S.ModuleDigest = 0x123456789abcdef0ULL;
  DaemonCounters C;
  C.Connections = 11;
  C.RequestsServed = 222;
  C.DeltasApplied = 33;
  C.TokenReplays = 4;
  C.HealedBatches = 5;
  C.DeadlineExpirations = 6;
  C.ProtocolFaultsInjected = 77;
  C.RequestErrors = 8;

  QueryStatsResponse Resp;
  Resp.Stats = S;
  Resp.Daemon = C;
  Resp.Prints = "define i32 @f()\n";
  ByteWriter W;
  Resp.encode(W);
  QueryStatsResponse Back;
  ByteReader R(W.buffer().data(), W.buffer().size());
  ASSERT_TRUE(Back.decode(R));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(Back.Stats.Epoch, S.Epoch);
  EXPECT_EQ(Back.Stats.Attempts, S.Attempts);
  EXPECT_EQ(Back.Stats.ModuleDigest, S.ModuleDigest);
  EXPECT_EQ(Back.Stats.DegradedToFullRemerge, S.DegradedToFullRemerge);
  EXPECT_FALSE(Back.Stats.HostReelected);
  EXPECT_EQ(Back.Daemon.ProtocolFaultsInjected, C.ProtocolFaultsInjected);
  EXPECT_EQ(Back.Daemon.HealedBatches, C.HealedBatches);
  EXPECT_EQ(Back.Prints, Resp.Prints);
}

TEST(Payloads, RequestHeaderRoundTrips) {
  ByteWriter W;
  encodeRequestHeader(W, {RequestKind::ApplyDelta, 0x1122334455667788ULL,
                          2500});
  WireRequestHeader H;
  ByteReader R(W.buffer().data(), W.buffer().size());
  ASSERT_TRUE(decodeRequestHeader(R, H));
  EXPECT_EQ(H.Kind, RequestKind::ApplyDelta);
  EXPECT_EQ(H.RequestId, 0x1122334455667788ULL);
  EXPECT_EQ(H.DeadlineMillis, 2500u);
}

//===----------------------------------------------------------------------===//
// Version-mismatch handshake & error bodies
//===----------------------------------------------------------------------===//

TEST(Errors, VersionMismatchBodyCarriesTheDaemonVersion) {
  WireRequestHeader Req{RequestKind::RegisterModules, 42, 0};
  std::vector<uint8_t> Payload = buildErrorPayload(
      Req, StatusCode::VersionMismatch, "speak version 3", 3);
  ByteReader R(Payload.data(), Payload.size());
  WireResponseHeader Hdr;
  ASSERT_TRUE(decodeResponseHeader(R, Hdr));
  EXPECT_EQ(Hdr.Kind, RequestKind::RegisterModules);
  EXPECT_EQ(Hdr.RequestId, 42u);
  EXPECT_EQ(Hdr.Status, StatusCode::VersionMismatch);
  uint32_t Version = 0;
  std::string Message;
  ASSERT_TRUE(decodeErrorBody(R, Hdr.Status, Version, Message));
  EXPECT_EQ(Version, 3u);
  EXPECT_EQ(Message, "speak version 3");
}

TEST(Errors, PlainErrorBodyIsJustTheMessage) {
  WireRequestHeader Req{RequestKind::ApplyDelta, 7, 0};
  std::vector<uint8_t> Payload =
      buildErrorPayload(Req, StatusCode::NoBatch, "BeginDelta first");
  ByteReader R(Payload.data(), Payload.size());
  WireResponseHeader Hdr;
  ASSERT_TRUE(decodeResponseHeader(R, Hdr));
  EXPECT_EQ(Hdr.Status, StatusCode::NoBatch);
  uint32_t Version = 0;
  std::string Message;
  ASSERT_TRUE(decodeErrorBody(R, Hdr.Status, Version, Message));
  EXPECT_EQ(Version, ProtocolVersion);
  EXPECT_EQ(Message, "BeginDelta first");
}

TEST(Errors, EveryEnumeratorHasAName) {
  for (int K = 1; K <= 6; ++K)
    EXPECT_STRNE(requestKindName(static_cast<RequestKind>(K)), "Unknown");
  for (int S = 0; S <= 10; ++S)
    EXPECT_STRNE(statusCodeName(static_cast<StatusCode>(S)), "Unknown");
}

//===----------------------------------------------------------------------===//
// Golden bytes
//===----------------------------------------------------------------------===//
//
// Round trips cannot see a change that moves the same field in the encoder
// and the decoder alike, yet such a change breaks every old peer. These
// tests pin the bytes of one fixed value per wire layout; every field holds
// a distinct value, so swapping any two fields changes the bytes. The hex
// literals were captured from the protocol-version-2 codec and must only
// change together with ProtocolVersion.

std::vector<uint8_t> hexBytes(const char *Hex) {
  std::vector<uint8_t> Out;
  auto nibble = [](char C) {
    return C <= '9' ? C - '0' : C - 'a' + 10;
  };
  for (const char *P = Hex; *P && P[1]; P += 2)
    Out.push_back(static_cast<uint8_t>(nibble(P[0]) << 4 | nibble(P[1])));
  return Out;
}

std::string hexOf(const std::vector<uint8_t> &Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  for (uint8_t B : Bytes) {
    Out += Digits[B >> 4];
    Out += Digits[B & 15];
  }
  return Out;
}

template <typename T> std::vector<uint8_t> bodyBytes(const T &V) {
  ByteWriter W;
  V.encode(W);
  return W.buffer();
}

/// \p V must encode to \p Hex, and \p Hex must decode (consumed exactly)
/// to a value that encodes to \p Hex again.
template <typename T> void expectGoldenBody(const T &V, const char *Hex) {
  const std::vector<uint8_t> Want = hexBytes(Hex);
  EXPECT_EQ(hexOf(bodyBytes(V)), hexOf(Want));
  T Back;
  ByteReader R(Want.data(), Want.size());
  ASSERT_TRUE(Back.decode(R));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(hexOf(bodyBytes(Back)), hexOf(Want));
}

RegisterModulesRequest goldenRegister() {
  RegisterModulesRequest RM;
  RM.Profile.Name = "gold";
  RM.Profile.NumFunctions = 101;
  RM.Profile.MinSize = 102;
  RM.Profile.AvgSize = 103;
  RM.Profile.MaxSize = 104;
  RM.Profile.CloneFamilyPercent = 105;
  RM.Profile.MinFamily = 106;
  RM.Profile.MaxFamily = 107;
  RM.Profile.FamilyDriftPercent = 108;
  RM.Profile.SyntacticDriftPercent = 109;
  RM.Profile.LoopPercent = 110;
  RM.Profile.InvokePercent = 111;
  RM.Profile.GiantPairSize = 112;
  RM.Profile.RetTypeVariety = 113;
  RM.Profile.Seed = 0x0102030405060708ULL;
  RM.NumModules = 201;
  RM.Selection = SelectionStrategy::Adaptive;
  RM.NumThreads = 202;
  RM.ShardCount = 203;
  RM.ExplorationThreshold = 204;
  RM.Host = HostPolicy::Biggest;
  RM.HashClustering = true;
  RM.Canonicalize = false;
  RM.DecisionCachePath = "dc";
  RM.QuarantineDecayEpochs = 205;
  return RM;
}

ApplyDeltaRequest goldenApply() {
  ApplyDeltaRequest AR;
  AR.Token = 0x1112131415161718ULL;
  AR.Spec.Deletes.push_back({EditOp::Delete, 1, "d", 0x21});
  AR.Spec.Changes.push_back({EditOp::Change, 2, "c1", 0x22});
  AR.Spec.Changes.push_back({EditOp::Change, 3, "c2", 0x23});
  AR.Spec.Adds.push_back({EditOp::Add, 4, "a", 0x24});
  AR.Spec.Drift.MutatePercent = 31;
  AR.Spec.Drift.InsertPercent = 32;
  AR.Spec.Drift.SyntacticPercent = 33;
  AR.Spec.Generate.TargetSize = 41;
  AR.Spec.Generate.ControlFlowPercent = 42;
  AR.Spec.Generate.LoopPercent = 43;
  AR.Spec.Generate.JoinPhiPercent = 44;
  AR.Spec.Generate.InvokePercent = 45;
  AR.Spec.Generate.MaxDepth = 46;
  AR.Spec.Generate.RetTypeVariety = 47;
  return AR;
}

StatsSnapshot goldenStats() {
  StatsSnapshot S;
  S.Epoch = 51;
  S.FullRemerges = 52;
  S.HostReelections = 53;
  S.QuarantinedCount = 54;
  S.Attempts = 55;
  S.CommittedMerges = 56;
  S.CrossModuleMerges = 57;
  S.SizeBefore = 58;
  S.SizeAfter = 59;
  S.CacheHits = 60;
  S.HashClusterCommits = 61;
  S.DegradedToFullRemerge = true;
  S.HostReelected = false;
  S.ModuleDigest = 0x6162636465666768ULL;
  return S;
}

DaemonCounters goldenCounters() {
  DaemonCounters C;
  C.Connections = 71;
  C.RequestsServed = 72;
  C.DeltasApplied = 73;
  C.TokenReplays = 74;
  C.HealedBatches = 75;
  C.DeadlineExpirations = 76;
  C.ProtocolFaultsInjected = 77;
  C.RequestErrors = 78;
  return C;
}

TEST(GoldenBytes, PayloadHeaders) {
  ByteWriter Req;
  encodeRequestHeader(Req, {RequestKind::ApplyDelta, 0x0102030405060708ULL,
                            0x0a0b0c0d});
  const char *ReqHex = "04"                // kind
                       "0807060504030201"  // requestId
                       "0d0c0b0a";         // deadlineMillis
  EXPECT_EQ(hexOf(Req.buffer()), ReqHex);
  std::vector<uint8_t> ReqBytes = hexBytes(ReqHex);
  ByteReader RR(ReqBytes.data(), ReqBytes.size());
  WireRequestHeader H;
  ASSERT_TRUE(decodeRequestHeader(RR, H));
  EXPECT_TRUE(RR.atEnd());
  EXPECT_EQ(H.Kind, RequestKind::ApplyDelta);
  EXPECT_EQ(H.RequestId, 0x0102030405060708ULL);
  EXPECT_EQ(H.DeadlineMillis, 0x0a0b0c0du);

  ByteWriter Resp;
  encodeResponseHeader(Resp, {RequestKind::QueryStats, 0x1112131415161718ULL,
                              StatusCode::NoBatch});
  const char *RespHex = "05"                // kind
                        "1817161514131211"  // requestId
                        "07";               // status
  EXPECT_EQ(hexOf(Resp.buffer()), RespHex);
  std::vector<uint8_t> RespBytes = hexBytes(RespHex);
  ByteReader RS(RespBytes.data(), RespBytes.size());
  WireResponseHeader RH;
  ASSERT_TRUE(decodeResponseHeader(RS, RH));
  EXPECT_TRUE(RS.atEnd());
  EXPECT_EQ(RH.Kind, RequestKind::QueryStats);
  EXPECT_EQ(RH.RequestId, 0x1112131415161718ULL);
  EXPECT_EQ(RH.Status, StatusCode::NoBatch);
}

TEST(GoldenBytes, RequestBodies) {
  expectGoldenBody(goldenRegister(),
                   "04000000676f6c64"                 // profile name
                   "6500000066000000670000006800000069000000"
                   "6a0000006b0000006c0000006d0000006e000000"
                   "6f0000007000000071000000"         // 13 profile u32s
                   "0807060504030201"                 // profile seed
                   "c9000000"                         // numModules
                   "02"                               // selection
                   "ca000000cb000000cc000000"         // threads .. threshold
                   "01"                               // host
                   "0100"                             // hashing, canonicalize
                   "020000006463"                     // decisionCachePath
                   "cd000000");                       // quarantineDecayEpochs
  CheckoutRequest CR;
  CR.ModuleIdx = 0x01020304;
  CR.Name = "fn";
  expectGoldenBody(CR, "04030201"       // moduleIdx
                       "02000000666e"); // name
  expectGoldenBody(goldenApply(),
                   "1817161514131211"                             // token
                   "01000000"                                     // deletes
                   "020100000001000000642100000000000000"
                   "02000000"                                     // changes
                   "00020000000200000063312200000000000000"
                   "00030000000200000063322300000000000000"
                   "01000000"                                     // adds
                   "010400000001000000612400000000000000"
                   "1f0000002000000021000000"                     // drift
                   "290000002a0000002b0000002c0000002d000000"     // generate
                   "2e0000002f000000");
  QueryStatsRequest QR;
  QR.IncludePrints = true;
  expectGoldenBody(QR, "01");
}

TEST(GoldenBytes, ResponseBodies) {
  expectGoldenBody(goldenStats(),
                   "330000003400000035000000"                 // epoch .. hostReelections
      "36000000000000003700000000000000"        // quarantined, attempts
      "38000000000000003900000000000000"        // committed, crossModule
      "3a000000000000003b00000000000000"        // sizeBefore, sizeAfter
      "3c000000000000003d00000000000000"        // cacheHits, clusterCommits
      "0100"                                    // degraded, hostReelected
      "6867666564636261");
  expectGoldenBody(goldenCounters(),
                   "470000000000000048000000000000004900000000000000"
      "4a000000000000004b000000000000004c00000000000000"
      "4d000000000000004e00000000000000");
  ApplyDeltaResponse AR;
  AR.Stats = goldenStats();
  AR.Replayed = true;
  expectGoldenBody(AR, "330000003400000035000000"                 // epoch .. hostReelections
      "36000000000000003700000000000000"        // quarantined, attempts
      "38000000000000003900000000000000"        // committed, crossModule
      "3a000000000000003b00000000000000"        // sizeBefore, sizeAfter
      "3c000000000000003d00000000000000"        // cacheHits, clusterCommits
      "0100"                                    // degraded, hostReelected
      "6867666564636261"
                       "01"); // replayed
  QueryStatsResponse QR;
  QR.Stats = goldenStats();
  QR.Daemon = goldenCounters();
  QR.Prints = "p!";
  expectGoldenBody(QR, "330000003400000035000000"                 // epoch .. hostReelections
      "36000000000000003700000000000000"        // quarantined, attempts
      "38000000000000003900000000000000"        // committed, crossModule
      "3a000000000000003b00000000000000"        // sizeBefore, sizeAfter
      "3c000000000000003d00000000000000"        // cacheHits, clusterCommits
      "0100"                                    // degraded, hostReelected
      "6867666564636261"
                       "470000000000000048000000000000004900000000000000"
      "4a000000000000004b000000000000004c00000000000000"
      "4d000000000000004e00000000000000"
                       "020000007021"); // prints
}

TEST(GoldenBytes, ErrorPayloads) {
  struct Case {
    StatusCode Status;
    const char *Hex;
  };
  for (const Case &C : {Case{StatusCode::VersionMismatch,
                             "0321000000000000000234333231020000006e6f"},
                        Case{StatusCode::UnknownFunction,
                             "03210000000000000006020000006e6f"}}) {
    SCOPED_TRACE(statusCodeName(C.Status));
    std::vector<uint8_t> Payload =
        buildErrorPayload({RequestKind::CheckoutForEdit, 0x21, 0}, C.Status,
                          "no", 0x31323334);
    EXPECT_EQ(hexOf(Payload), C.Hex);
    std::vector<uint8_t> Want = hexBytes(C.Hex);
    ByteReader R(Want.data(), Want.size());
    WireResponseHeader Hdr;
    ASSERT_TRUE(decodeResponseHeader(R, Hdr));
    EXPECT_EQ(Hdr.Status, C.Status);
    EXPECT_EQ(Hdr.RequestId, 0x21u);
    uint32_t Version = 0;
    std::string Message;
    ASSERT_TRUE(decodeErrorBody(R, Hdr.Status, Version, Message));
    EXPECT_TRUE(R.atEnd());
    EXPECT_EQ(Version, C.Status == StatusCode::VersionMismatch
                           ? 0x31323334u
                           : ProtocolVersion);
    EXPECT_EQ(Message, "no");
  }
}

TEST(Payloads, EveryBodyDecodesOnlyToItsExactBytes) {
  // One decoding rule for requests and responses alike: a body decodes
  // only when it re-encodes to exactly its bytes. Setting any byte to 2
  // (a boolean of 2 among them) or appending one must never be accepted
  // and normalized.
  auto check = [](const auto &Value) {
    using T = std::decay_t<decltype(Value)>;
    const std::vector<uint8_t> Good = bodyBytes(Value);
    for (size_t At = 0; At <= Good.size(); ++At) {
      std::vector<uint8_t> Bad = Good;
      if (At == Good.size())
        Bad.push_back(0);
      else
        Bad[At] = 2;
      T Back;
      ByteReader R(Bad.data(), Bad.size());
      if (Back.decode(R))
        EXPECT_EQ(hexOf(bodyBytes(Back)), hexOf(Bad)) << "byte " << At;
    }
  };
  check(goldenRegister());
  check(CheckoutRequest{7, "fn"});
  check(goldenApply());
  check(QueryStatsRequest{true});
  check(goldenStats());
  check(goldenCounters());
  check(ApplyDeltaResponse{goldenStats(), true});
  check(QueryStatsResponse{goldenStats(), goldenCounters(), "p!"});
}

//===----------------------------------------------------------------------===//
// Retry-token idempotency
//===----------------------------------------------------------------------===//

TEST(TokenCache, FirstResponseWinsAndReplays) {
  ApplyTokenCache Cache(8);
  EXPECT_EQ(Cache.lookup(1), nullptr);
  Cache.remember(1, {0xAA, 0xBB});
  ASSERT_NE(Cache.lookup(1), nullptr);
  EXPECT_EQ(*Cache.lookup(1), (std::vector<uint8_t>{0xAA, 0xBB}));
  // A second remember for the same token must not overwrite: the first
  // response is the one the client may already have acted on.
  Cache.remember(1, {0xCC});
  EXPECT_EQ(*Cache.lookup(1), (std::vector<uint8_t>{0xAA, 0xBB}));
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(TokenCache, EvictsOldestFirstAtTheBound) {
  ApplyTokenCache Cache(3);
  Cache.remember(1, {1});
  Cache.remember(2, {2});
  Cache.remember(3, {3});
  EXPECT_EQ(Cache.size(), 3u);
  Cache.remember(4, {4});
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_EQ(Cache.lookup(1), nullptr) << "oldest evicted";
  ASSERT_NE(Cache.lookup(2), nullptr);
  ASSERT_NE(Cache.lookup(4), nullptr);
  EXPECT_EQ(*Cache.lookup(4), std::vector<uint8_t>{4});
}

} // namespace
