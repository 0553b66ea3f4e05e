//===- merge/SSARepair.h - Dominance repair + phi-node coalescing -------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Restores the SSA dominance property of freshly generated merged code
/// (§4.3 of the paper) and implements phi-node coalescing (§4.4).
///
/// Mechanism: every definition that fails to dominate one of its uses is
/// demoted to a stack slot (store after the definition, loads at the
/// uses), then the slots are promoted back with the standard SSA
/// construction algorithm (Mem2Reg). Reads on paths that bypass the
/// definition see the slot's undef initial value — precisely the paper's
/// "pseudo-definition at the entry block initialized with an undefined
/// value".
///
/// Phi-node coalescing assigns one shared slot to a pair of *disjoint*
/// definitions (one exclusive to each input function, same type), chosen
/// to maximize the overlap of their user-block sets UB(d1) ∩ UB(d2). After
/// promotion the pair collapses into a single phi web, and selects whose
/// two arms were the pair's values fold away (Fig 14/15). A phi one input
/// owns in a block both inputs share runs on the other input's paths too;
/// it shares a slot only where its store there cannot overwrite the
/// partner's live value (see canShare in SSARepair.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_MERGE_SSAREPAIR_H
#define SALSSA_MERGE_SSAREPAIR_H

#include <unordered_map>

namespace salssa {

class Context;
class Function;
class Instruction;

/// Which input function a merged-function instruction originates from.
/// Shared covers merged pairs and generator-synthesized code.
enum class MergeOrigin : unsigned char { Shared, FromF1, FromF2 };

/// Statistics from one repair run.
struct SSARepairStats {
  unsigned ViolatingDefs = 0;
  unsigned SlotsCreated = 0;
  unsigned CoalescedPairs = 0;
  unsigned PhisInserted = 0;
};

/// Repairs all dominance violations in \p Merged. \p Origin classifies
/// instructions by provenance (instructions absent from the map are
/// treated as Shared). When \p EnableCoalescing is set, disjoint
/// definition pairs share slots per the paper's heuristic.
SSARepairStats
repairSSA(Function &Merged, Context &Ctx,
          const std::unordered_map<Instruction *, MergeOrigin> &Origin,
          bool EnableCoalescing);

} // namespace salssa

#endif // SALSSA_MERGE_SSAREPAIR_H
