//===- merge/DecisionCache.cpp - Persistent cross-run decision cache ----------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "merge/DecisionCache.h"
#include "merge/MergeDriver.h"
#include "support/FaultInjection.h"
#include "support/Serialization.h"

namespace salssa {

namespace {

constexpr uint32_t CacheMagic = 0x434c4153; // "SALC" little-endian

uint64_t mixOption(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

void writeKey(ByteWriter &W, const DecisionKey &K) {
  W.u64(K.Hash.Hi);
  W.u64(K.Hash.Lo);
  W.u32(K.Occ);
}

DecisionKey readKey(ByteReader &R) {
  DecisionKey K;
  K.Hash.Hi = R.u64();
  K.Hash.Lo = R.u64();
  K.Occ = R.u32();
  return K;
}

} // namespace

uint64_t DecisionCache::optionsFingerprint(const MergeDriverOptions &O) {
  uint64_t H = DecisionCache::FormatVersion;
  H = mixOption(H, static_cast<uint64_t>(O.Technique));
  H = mixOption(H, O.EnablePhiCoalescing ? 1 : 0);
  H = mixOption(H, static_cast<uint64_t>(O.Arch));
  // The slot of the retired ranking-strategy option, pinned to the value
  // its CandidateIndex setting had: existing cache files stay valid.
  H = mixOption(H, 1);
  H = mixOption(H, static_cast<uint64_t>(O.Selection));
  H = mixOption(H, O.ExplorationThreshold);
  H = mixOption(H, O.AllowRemerge ? 1 : 0);
  H = mixOption(H, static_cast<uint64_t>(O.Host));
  H = mixOption(H, O.HashClustering ? 1 : 0);
  // Canonicalize changes the structural-hash key space itself (canonical
  // shadow hashes vs raw-body hashes): a cache recorded under one value
  // of the flag must read as a counted cold run under the other, never
  // replay against mismatched keys.
  H = mixOption(H, O.Canonicalize ? 1 : 0);
  H = mixOption(H, O.QuarantineThreshold);
  H = mixOption(H, O.Budget.MaxAlignmentCells);
  H = mixOption(H, O.Budget.MaxAttemptSteps);
  H = mixOption(H, O.Budget.MaxMergedBodySize);
  return H;
}

DecisionCache::LoadOutcome
DecisionCache::load(const std::string &Path, uint64_t OptionsFP,
                    const FaultInjectionConfig *Faults) {
  Entries.clear();
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes))
    return LoadOutcome::Missing;

  try {
    if (Faults)
      maybeInjectFault(*Faults, FaultKind::CacheIO, Path, "load");
  } catch (const std::exception &) {
    return LoadOutcome::Rejected;
  }

  // Header: magic | version | options fingerprint | payload size |
  // payload checksum. Every field gates the load.
  ByteReader Header(Bytes.data(), Bytes.size());
  uint32_t Magic = Header.u32();
  uint32_t Version = Header.u32();
  uint64_t FP = Header.u64();
  uint64_t PayloadSize = Header.u64();
  uint64_t Checksum = Header.u64();
  if (!Header.ok() || Magic != CacheMagic || Version != FormatVersion ||
      FP != OptionsFP || PayloadSize != Header.remaining())
    return LoadOutcome::Rejected;
  const uint8_t *Payload = Bytes.data() + (Bytes.size() - PayloadSize);
  if (fnv1a64(Payload, PayloadSize) != Checksum)
    return LoadOutcome::Rejected;

  ByteReader R(Payload, PayloadSize);
  uint64_t Count = R.u64();
  for (uint64_t I = 0; I < Count && R.ok(); ++I) {
    DecisionKey Key = readKey(R);
    CachedDecision D;
    D.Winner = R.i32();
    uint8_t Flags = R.u8();
    D.VoteTallied = (Flags & 1) != 0;
    D.VoteShrink = (Flags & 2) != 0;
    D.VoteWiden = (Flags & 4) != 0;
    uint32_t NumAttempts = R.u32();
    // An attempt costs at least 30 bytes on disk; a count that cannot
    // fit the remaining payload is corruption, caught before any
    // allocation is sized by attacker-controlled data.
    if (NumAttempts > R.remaining() / 30) {
      Entries.clear();
      return LoadOutcome::Rejected;
    }
    D.Attempts.resize(NumAttempts);
    for (CachedAttempt &A : D.Attempts) {
      A.Partner = readKey(R);
      A.Distance = R.u64();
      A.ProfitObs = R.i64();
      A.Profitable = R.u8() != 0;
      A.SeqLen1 = R.u32();
      A.SeqLen2 = R.u32();
      uint32_t AlignLen = R.u32();
      if (AlignLen > R.remaining() / 8) {
        Entries.clear();
        return LoadOutcome::Rejected;
      }
      A.Align.resize(AlignLen);
      for (auto &E : A.Align) {
        E.first = R.i32();
        E.second = R.i32();
      }
    }
    if (D.Winner < -1 ||
        D.Winner >= static_cast<int32_t>(D.Attempts.size())) {
      Entries.clear();
      return LoadOutcome::Rejected;
    }
    Entries.emplace(Key, std::move(D));
  }
  if (!R.ok() || !R.atEnd() || Entries.size() != Count) {
    Entries.clear();
    return LoadOutcome::Rejected;
  }
  return LoadOutcome::Loaded;
}

bool DecisionCache::save(const std::string &Path, uint64_t OptionsFP,
                         const FaultInjectionConfig *Faults) const {
  try {
    if (Faults)
      maybeInjectFault(*Faults, FaultKind::CacheIO, Path, "save");
  } catch (const std::exception &) {
    return false;
  }

  ByteWriter Payload;
  Payload.u64(Entries.size());
  for (const auto &[Key, D] : Entries) {
    writeKey(Payload, Key);
    Payload.i32(D.Winner);
    Payload.u8(static_cast<uint8_t>((D.VoteTallied ? 1 : 0) |
                                    (D.VoteShrink ? 2 : 0) |
                                    (D.VoteWiden ? 4 : 0)));
    Payload.u32(static_cast<uint32_t>(D.Attempts.size()));
    for (const CachedAttempt &A : D.Attempts) {
      writeKey(Payload, A.Partner);
      Payload.u64(A.Distance);
      Payload.i64(A.ProfitObs);
      Payload.u8(A.Profitable ? 1 : 0);
      Payload.u32(A.SeqLen1);
      Payload.u32(A.SeqLen2);
      Payload.u32(static_cast<uint32_t>(A.Align.size()));
      for (const auto &E : A.Align) {
        Payload.i32(E.first);
        Payload.i32(E.second);
      }
    }
  }

  ByteWriter File;
  File.u32(CacheMagic);
  File.u32(FormatVersion);
  File.u64(OptionsFP);
  File.u64(Payload.size());
  File.u64(fnv1a64(Payload.buffer().data(), Payload.size()));
  std::vector<uint8_t> Bytes = File.buffer();
  Bytes.insert(Bytes.end(), Payload.buffer().begin(), Payload.buffer().end());
  return writeFileBytes(Path, Bytes);
}

void DecisionCache::apply(std::vector<DecisionCacheUpdate> &&Updates) {
  for (DecisionCacheUpdate &U : Updates)
    Entries[U.Key] = std::move(U.Decision);
  Updates.clear();
}

} // namespace salssa
