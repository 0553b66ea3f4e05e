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

/// The fixed file header. Every field gates a load.
struct FileHeader {
  uint32_t Magic = 0;
  uint32_t Version = 0;
  uint64_t OptionsFP = 0;
  uint64_t PayloadSize = 0;
  uint64_t Checksum = 0; ///< fnv1a64 of the payload
};

template <typename IO> void fields(IO &F, FileHeader &H) {
  F(H.Magic, H.Version, H.OptionsFP, H.PayloadSize, H.Checksum);
}

uint64_t mixOption(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

} // namespace

// --- Record layouts --------------------------------------------------------
//
// The payload is a u64 entry count, then every entry in key order as its
// map pair: the DecisionKey, then the CachedDecision. Each record's fields
// are listed once; save() and load() both walk them
// (support/Serialization.h).

template <typename IO> void fields(IO &F, DecisionKey &K) {
  F(K.Hash.Hi, K.Hash.Lo, K.Occ);
}

template <typename IO> void fields(IO &F, CachedAttempt &A) {
  F(A.Partner, A.Distance, A.ProfitObs, A.Profitable, A.SeqLen1, A.SeqLen2,
    A.Align);
}

template <typename IO> void fields(IO &F, CachedDecision &D) {
  F(D.Winner, bitFlags(D.VoteTallied, D.VoteShrink, D.VoteWiden),
    D.Attempts);
}

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

  ByteReader R(Bytes.data(), Bytes.size());
  FileHeader H;
  if (!R(H) || H.Magic != CacheMagic || H.Version != FormatVersion ||
      H.OptionsFP != OptionsFP || H.PayloadSize != R.remaining() ||
      fnv1a64(Bytes.data() + (Bytes.size() - H.PayloadSize), H.PayloadSize) !=
          H.Checksum)
    return LoadOutcome::Rejected;

  // A winner must index one of its entry's attempts (or be -1), and a key
  // may appear once.
  uint64_t Count = 0;
  bool Ok = R(Count);
  for (uint64_t I = 0; Ok && I < Count; ++I) {
    std::pair<DecisionKey, CachedDecision> E;
    Ok = R(E) && E.second.Winner >= -1 &&
         E.second.Winner < static_cast<int32_t>(E.second.Attempts.size()) &&
         Entries.emplace(std::move(E)).second;
  }
  if (!Ok || !R.atEnd()) {
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
  Payload(static_cast<uint64_t>(Entries.size()));
  for (const auto &Entry : Entries)
    Payload(Entry);
  std::vector<uint8_t> Bytes = toBytes(FileHeader{
      CacheMagic, FormatVersion, OptionsFP, Payload.size(),
      fnv1a64(Payload.buffer().data(), Payload.size())});
  Bytes.insert(Bytes.end(), Payload.buffer().begin(), Payload.buffer().end());
  return writeFileBytes(Path, Bytes);
}

void DecisionCache::apply(std::vector<DecisionCacheUpdate> &&Updates) {
  for (DecisionCacheUpdate &U : Updates)
    Entries[U.Key] = std::move(U.Decision);
  Updates.clear();
}

} // namespace salssa
