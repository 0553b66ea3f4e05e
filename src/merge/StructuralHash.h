//===- merge/StructuralHash.h - Canonical function-body hashing ---------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact structural hashing of function bodies, and the pre-clustering
/// fast path built on it (per *Optimistic Global Function Merger*):
/// hash-identical functions merge with zero alignment work — one body,
/// k direct thunks — before pairwise ranking ever runs.
///
/// The hash is *canonical*: two functions that differ only in value,
/// block or function names, or that live in different modules of the
/// same Context, hash equal whenever their instruction streams are
/// structurally identical. Every position-dependent reference
/// (instruction results, blocks, arguments) is encoded by a dense
/// traversal index, never by name or address; types are encoded by
/// structure (kind + width, recursing through function types), never by
/// interned pointer — which also makes the hash stable *across
/// processes*, the property the cross-run DecisionCache keys on.
///
/// Hash equality is a 128-bit filter, not a proof: clustering confirms
/// every group member against its leader with structurallyEqual, a
/// lockstep walk that is strict where the hash is lenient (globals and
/// callees must be pointer-identical, so a member referencing a
/// same-named but distinct global falls back to the ordinary pairwise
/// pipeline, which handles mismatched operands by construction).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_MERGE_STRUCTURALHASH_H
#define SALSSA_MERGE_STRUCTURALHASH_H

#include "codesize/SizeModel.h"
#include <cstdint>
#include <vector>

namespace salssa {

class Function;
class Module;
struct FaultInjectionConfig;

/// 128-bit canonical hash of a function body (see file comment). Value
/// semantics; totally ordered so it can key std::map and be serialized.
struct StructuralHash {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const StructuralHash &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
  bool operator!=(const StructuralHash &O) const { return !(*this == O); }
  bool operator<(const StructuralHash &O) const {
    return Hi != O.Hi ? Hi < O.Hi : Lo < O.Lo;
  }
};

/// Computes the canonical structural hash of \p F (a definition).
StructuralHash computeStructuralHash(const Function &F);

/// Exact structural equality: same signature type, same block/instruction
/// stream, operands equivalent under the canonical index maps. Types,
/// constants, globals and callees compare by pointer (both functions must
/// share one Context; interning makes pointer equality value equality for
/// types and Context-owned constants).
bool structurallyEqual(const Function &F1, const Function &F2);

/// One committed cluster: the verbatim body plus the members whose bodies
/// became direct thunks onto it.
struct PreClusterGroup {
  Function *Merged = nullptr;      ///< the committed body (lives in Target)
  std::vector<Function *> Members; ///< now direct thunks, leader first
  /// The first function hashed into this group's hash bucket. Sub-groups
  /// peeled from one bucket share it, and it need not be one of Members
  /// (a bucket's first function that matched no other stays in the
  /// pool). Sessions order the committed bodies of all their classes by
  /// its position.
  Function *FirstSeen = nullptr;
};

/// The exact-clone fast path: hashes \p Members (in the given order),
/// groups hash-identical ones in first-seen order, confirms each group
/// with structurallyEqual, and commits every confirmed, profitable group
/// as one body in \p Target — a verbatim clone of the group leader named
/// `<leader>.m.N`, firewalled through ir/Verifier — with each member's
/// body replaced by a direct thunk (no fid dispatch: all members are
/// identical, so the body needs no disambiguation). Profitability gate:
/// (k-1)·size(leader) must exceed k·thunkBytes under \p Arch's size
/// model. Returns the committed groups in commit order; every member of
/// one is consumed, everything else is untouched.
///
/// \p Faults, when non-null and armed, arms FaultKind::Fingerprint per
/// function (keyed by name): a fired point skips that function's
/// clustering — it stays untouched — and counts in \p FingerprintFaults.
/// A fully faulted pass commits nothing, never a wrong merge.
///
/// Serial and deterministic: group order is first-seen order, and
/// Target's unique-name counter advances exactly once per group that
/// passed the profit gate. Sessions run it as the first stage of each
/// class pipeline (merge/MergePipeline.h), over the class's members.
std::vector<PreClusterGroup>
preClusterIdenticalFunctions(const std::vector<Function *> &Members,
                             Module &Target, TargetArch Arch,
                             const FaultInjectionConfig *Faults,
                             uint64_t &FingerprintFaults);

} // namespace salssa

#endif // SALSSA_MERGE_STRUCTURALHASH_H
