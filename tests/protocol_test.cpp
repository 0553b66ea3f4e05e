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
//   - every request/response struct round-trips byte-exactly and
//     rejects truncated bodies cleanly;
//   - the version-mismatch handshake carries the daemon version;
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
