//===- tests/protocol_fuzz_test.cpp - Seeded wire-codec fuzzing ---------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Deterministic mutation fuzzing of the daemon's request path, with no
// sockets: valid frames of every request kind are damaged by seeded bit
// flips, truncations, and length or field overwrites, then fed through
// the same steps the daemon runs — FrameAssembler, header decode, body
// decode, validateRequest. Every input must either be rejected cleanly
// (a sticky FrameError, a failed decode, an unknown kind or a validation
// reason) or decode to a value that re-encodes to exactly the bytes the
// decoder consumed. Nothing may crash, hang or read out of bounds; the
// asan preset runs this binary under ASan+UBSan.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "support/RNG.h"
#include "gtest/gtest.h"

using namespace salssa;

namespace {

/// Registered-module count the ApplyDelta validation is checked against.
constexpr size_t SessionModules = 2;

std::vector<uint8_t> requestPayload(RequestKind Kind,
                                    const std::vector<uint8_t> &Body) {
  ByteWriter W;
  encodeRequestHeader(W, {Kind, 0x5EED, 250});
  for (uint8_t B : Body)
    W.u8(B);
  return W.buffer();
}

/// One valid payload per request kind.
std::vector<std::vector<uint8_t>> validPayloads() {
  std::vector<std::vector<uint8_t>> Out;

  RegisterModulesRequest RM;
  RM.Profile.Name = "fuzz";
  RM.Profile.NumFunctions = 48;
  RM.Profile.MinSize = 6;
  RM.Profile.AvgSize = 36;
  RM.Profile.MaxSize = 120;
  RM.Profile.RetTypeVariety = 3;
  RM.NumModules = 2;
  RM.Selection = SelectionStrategy::Profit;
  RM.NumThreads = 4;
  RM.ShardCount = 2;
  RM.ExplorationThreshold = 3;
  RM.Host = HostPolicy::Biggest;
  RM.HashClustering = true;
  // DecisionCachePath stays empty: a named path fails validation, and the
  // seed must pass it so mutations of every other field reach the bounds.
  RM.QuarantineDecayEpochs = 2;
  ByteWriter RW;
  RM.encode(RW);
  Out.push_back(requestPayload(RequestKind::RegisterModules, RW.buffer()));

  Out.push_back(requestPayload(RequestKind::BeginDelta, {}));

  CheckoutRequest CR;
  CR.ModuleIdx = 1;
  CR.Name = "fuzz_fn7";
  ByteWriter CW;
  CR.encode(CW);
  Out.push_back(requestPayload(RequestKind::CheckoutForEdit, CW.buffer()));

  ApplyDeltaRequest AR;
  AR.Token = 0xA11CE;
  AR.Spec.Deletes.push_back({EditOp::Delete, 0, "fuzz_fn3", 11});
  AR.Spec.Changes.push_back({EditOp::Change, 1, "fuzz_fn7", 12});
  AR.Spec.Adds.push_back({EditOp::Add, 0, "fuzz_add0", 13});
  ByteWriter AW;
  AR.encode(AW);
  Out.push_back(requestPayload(RequestKind::ApplyDelta, AW.buffer()));

  QueryStatsRequest QR;
  QR.IncludePrints = true;
  ByteWriter QW;
  QR.encode(QW);
  Out.push_back(requestPayload(RequestKind::QueryStats, QW.buffer()));

  Out.push_back(requestPayload(RequestKind::Shutdown, {}));
  return Out;
}

enum class Verdict { Rejected, Accepted };

/// Decodes, validates and re-encodes one payload the way the daemon
/// reads it. Accepted payloads must re-encode to their consumed prefix.
template <typename Body, typename Validate>
Verdict checkBody(const std::vector<uint8_t> &Payload, ByteReader &R,
                  const WireRequestHeader &H, Validate &&V) {
  Body B;
  if (!B.decode(R) || !V(B))
    return Verdict::Rejected;
  ByteWriter W;
  encodeRequestHeader(W, H);
  B.encode(W);
  const size_t Consumed = Payload.size() - R.remaining();
  EXPECT_EQ(W.size(), Consumed);
  EXPECT_TRUE(std::equal(W.buffer().begin(), W.buffer().end(),
                         Payload.begin()))
      << "accepted body does not re-encode to its bytes";
  return Verdict::Accepted;
}

Verdict checkPayload(const std::vector<uint8_t> &Payload) {
  ByteReader R(Payload.data(), Payload.size());
  WireRequestHeader H;
  if (!decodeRequestHeader(R, H))
    return Verdict::Rejected;
  auto Always = [](const auto &) { return true; };
  switch (H.Kind) {
  case RequestKind::RegisterModules:
    return checkBody<RegisterModulesRequest>(
        Payload, R, H, [](const RegisterModulesRequest &RM) {
          return validateRequest(RM).empty();
        });
  case RequestKind::CheckoutForEdit:
    return checkBody<CheckoutRequest>(Payload, R, H, Always);
  case RequestKind::ApplyDelta:
    return checkBody<ApplyDeltaRequest>(
        Payload, R, H, [](const ApplyDeltaRequest &AR) {
          return validateRequest(AR, SessionModules).empty();
        });
  case RequestKind::QueryStats:
    return checkBody<QueryStatsRequest>(Payload, R, H, Always);
  case RequestKind::BeginDelta:
  case RequestKind::Shutdown: {
    // Empty bodies: the header is the whole value.
    ByteWriter W;
    encodeRequestHeader(W, H);
    EXPECT_TRUE(std::equal(W.buffer().begin(), W.buffer().end(),
                           Payload.begin()));
    return Verdict::Accepted;
  }
  }
  return Verdict::Rejected; // unknown kind: UnknownRequest
}

/// Feeds \p Stream through a FrameAssembler and checks every payload it
/// yields. Returns how many payloads were accepted.
unsigned checkStream(const std::vector<uint8_t> &Stream) {
  FrameAssembler Asm;
  Asm.feed(Stream.data(), Stream.size());
  std::vector<uint8_t> Payload;
  unsigned Accepted = 0;
  while (Asm.next(Payload))
    Accepted += checkPayload(Payload) == Verdict::Accepted;
  return Accepted;
}

void overwriteU32(std::vector<uint8_t> &Bytes, size_t At, uint32_t V) {
  for (size_t I = 0; I < 4 && At + I < Bytes.size(); ++I)
    Bytes[At + I] = static_cast<uint8_t>(V >> (8 * I));
}

/// Interesting u32 values for field overwrites: boundaries of every
/// validated range plus raw noise.
uint32_t fieldValue(RNG &Rng) {
  static const uint32_t Edges[] = {0,    1,     2,     3,      64,
                                   65,   100,   101,   256,    257,
                                   4096, 4097,  65536, 65537,  0x7FFFFFFF,
                                   0xFFFFFFFF};
  if (Rng.chancePercent(70))
    return Edges[Rng.nextBelow(sizeof(Edges) / sizeof(Edges[0]))];
  return static_cast<uint32_t>(Rng.next());
}

/// One seeded mutation of \p Payload. Payload-level mutations are
/// re-framed (valid checksum), so they reach the decoder; frame-level
/// ones damage the header or checksum and must stop at the assembler.
std::vector<uint8_t> mutate(const std::vector<uint8_t> &Payload, RNG &Rng) {
  std::vector<uint8_t> P = Payload;
  switch (Rng.nextBelow(6)) {
  case 0: { // payload bit flips
    for (uint64_t N = 1 + Rng.nextBelow(4); N > 0; --N) {
      size_t At = Rng.nextBelow(P.size());
      P[At] ^= static_cast<uint8_t>(1u << Rng.nextBelow(8));
    }
    return encodeFrame(P);
  }
  case 1: // payload truncation
    P.resize(Rng.nextBelow(P.size()));
    return encodeFrame(P);
  case 2: // payload field overwrite (counts, sizes, enums, lengths)
    overwriteU32(P, Rng.nextBelow(P.size()), fieldValue(Rng));
    return encodeFrame(P);
  case 3: { // frame bit flips (header, checksum or body)
    std::vector<uint8_t> F = encodeFrame(P);
    size_t At = Rng.nextBelow(F.size());
    F[At] ^= static_cast<uint8_t>(1u << Rng.nextBelow(8));
    return F;
  }
  case 4: { // frame truncation
    std::vector<uint8_t> F = encodeFrame(P);
    F.resize(Rng.nextBelow(F.size()));
    return F;
  }
  default: { // frame length overwrite
    std::vector<uint8_t> F = encodeFrame(P);
    overwriteU32(F, 8, fieldValue(Rng));
    return F;
  }
  }
}

TEST(ProtocolFuzz, ValidFramesOfEveryKindAreAccepted) {
  for (const std::vector<uint8_t> &P : validPayloads())
    EXPECT_EQ(checkStream(encodeFrame(P)), 1u);
}

TEST(ProtocolFuzz, MutatedFramesAreRejectedOrRoundTrip) {
  // 6 kinds x 600 mutations; a few survive as valid requests (flips in
  // names, seeds or ids), most are rejected at one of the four steps.
  unsigned Accepted = 0, Total = 0;
  for (const std::vector<uint8_t> &P : validPayloads()) {
    RNG Rng(mix64(0xF022 + P.size()));
    for (int I = 0; I < 600; ++I) {
      Accepted += checkStream(mutate(P, Rng));
      ++Total;
    }
  }
  EXPECT_GT(Accepted, 0u) << "no mutation ever reached a full decode";
  EXPECT_LT(Accepted, Total) << "no mutation was ever rejected";
}

TEST(ProtocolFuzz, DamagedFrameInsideAStreamIsSafe) {
  // A damaged frame in the middle of a stream: whatever the assembler
  // yields before the damage is checked, nothing after it is yielded.
  std::vector<std::vector<uint8_t>> Payloads = validPayloads();
  RNG Rng(0x57AC);
  for (int I = 0; I < 200; ++I) {
    std::vector<uint8_t> Stream;
    for (int J = 0; J < 3; ++J) {
      const std::vector<uint8_t> &P =
          Payloads[Rng.nextBelow(Payloads.size())];
      std::vector<uint8_t> F = J == 1 ? mutate(P, Rng) : encodeFrame(P);
      Stream.insert(Stream.end(), F.begin(), F.end());
    }
    EXPECT_LE(checkStream(Stream), 3u);
  }
}

} // namespace
