//===- merge/StructuralHash.cpp - Canonical function-body hashing -------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "merge/StructuralHash.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRBuilder.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/FaultInjection.h"
#include "transforms/Cloning.h"
#include <cassert>
#include <cstring>
#include <map>
#include <unordered_map>

namespace salssa {

namespace {

//===----------------------------------------------------------------------===//
// Hash stream
//===----------------------------------------------------------------------===//

uint64_t mix64(uint64_t X) {
  // splitmix64 finalizer.
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Two independent 64-bit accumulators fed the same word stream. The
/// word stream itself is the canonical encoding; the accumulators only
/// have to avalanche it. 128 bits keep the pool-wide collision
/// probability negligible, and structurallyEqual confirms every
/// clustering decision anyway.
class HashStream {
public:
  void add(uint64_t W) {
    Lo = mix64(Lo ^ W);
    Hi = (Hi ^ mix64(W + 0x632be59bd9b4e019ULL)) * 0x100000001b3ULL;
  }

  void addString(std::string_view S) {
    add(S.size());
    uint64_t H = 0xcbf29ce484222325ULL; // FNV-1a over the bytes
    for (char C : S)
      H = (H ^ static_cast<uint8_t>(C)) * 0x100000001b3ULL;
    add(H);
  }

  StructuralHash finish() const { return {Hi, Lo}; }

private:
  uint64_t Hi = 0x6a09e667f3bcc908ULL;
  uint64_t Lo = 0xbb67ae8584caa73bULL;
};

// Tags keep the encoding prefix-free across operand classes: a word can
// never be read as both "argument index" and "instruction id".
enum : uint64_t {
  TagType = 0x11,
  TagBlock = 0x22,
  TagInst = 0x33,
  TagOpArgument = 0x41,
  TagOpInstruction = 0x42,
  TagOpConstantInt = 0x43,
  TagOpConstantFP = 0x44,
  TagOpUndef = 0x45,
  TagOpNull = 0x46,
  TagOpGlobal = 0x47,
};

/// Structural type encoding: kind + width, recursing through function
/// types. Never the interned Type* — the hash must be identical across
/// Contexts and across runs.
void addType(HashStream &H, const Type *T) {
  H.add(TagType);
  H.add(static_cast<uint64_t>(T->getKind()));
  switch (T->getKind()) {
  case Type::Kind::Integer:
    H.add(T->getIntegerBitWidth());
    break;
  case Type::Kind::FunctionTy: {
    addType(H, T->getReturnType());
    const std::vector<Type *> &Params = T->getParamTypes();
    H.add(Params.size());
    for (const Type *P : Params)
      addType(H, P);
    break;
  }
  default:
    break;
  }
}

/// Dense canonical indices: blocks in list order, instructions in
/// traversal order (phis included — linearization skips them, hashing
/// must not). Assigned in a pre-pass so phi/branch forward references
/// resolve.
struct CanonicalIds {
  std::unordered_map<const Value *, uint64_t> Inst;
  std::unordered_map<const BasicBlock *, uint64_t> Block;

  explicit CanonicalIds(const Function &F) {
    uint64_t BlockId = 0, InstId = 0;
    for (const BasicBlock *BB : F.blocks()) {
      Block.emplace(BB, BlockId++);
      for (const Instruction *I : *BB)
        Inst.emplace(I, InstId++);
    }
  }
};

void addValue(HashStream &H, const Value *V, const CanonicalIds &Ids) {
  switch (V->getValueKind()) {
  case ValueKind::Argument:
    H.add(TagOpArgument);
    H.add(cast<Argument>(V)->getArgIndex());
    break;
  case ValueKind::GlobalVariable: {
    const auto *GV = cast<GlobalVariable>(V);
    H.add(TagOpGlobal);
    H.addString(GV->getName());
    addType(H, GV->getValueType());
    H.add(GV->getNumElements());
    break;
  }
  case ValueKind::ConstantInt:
    H.add(TagOpConstantInt);
    addType(H, V->getType());
    H.add(cast<ConstantInt>(V)->getZExtValue());
    break;
  case ValueKind::ConstantFP: {
    H.add(TagOpConstantFP);
    addType(H, V->getType());
    double D = cast<ConstantFP>(V)->getValue();
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(D), "double is not 64-bit");
    std::memcpy(&Bits, &D, sizeof(Bits));
    H.add(Bits);
    break;
  }
  case ValueKind::UndefValue:
    H.add(TagOpUndef);
    addType(H, V->getType());
    break;
  case ValueKind::ConstantPointerNull:
    H.add(TagOpNull);
    break;
  default:
    assert(isa<Instruction>(V) && "unexpected operand kind");
    H.add(TagOpInstruction);
    H.add(Ids.Inst.at(V));
    break;
  }
}

void addInstruction(HashStream &H, const Instruction *I,
                    const CanonicalIds &Ids) {
  H.add(TagInst);
  H.add(static_cast<uint64_t>(I->getOpcode()));
  addType(H, I->getType());
  H.add(I->getNumOperands());
  for (const Value *Op : I->operands())
    addValue(H, Op, Ids);
  H.add(I->getNumSuccessors());
  for (const BasicBlock *S : I->successors())
    H.add(Ids.Block.at(S));

  // Opcode payloads held outside the operand list.
  switch (I->getOpcode()) {
  case ValueKind::ICmp:
  case ValueKind::FCmp:
    H.add(static_cast<uint64_t>(cast<CmpInst>(I)->getPredicate()));
    break;
  case ValueKind::Alloca: {
    const auto *AI = cast<AllocaInst>(I);
    addType(H, AI->getAllocatedType());
    H.add(AI->getNumElements());
    break;
  }
  case ValueKind::Gep:
    addType(H, cast<GepInst>(I)->getElementType());
    break;
  case ValueKind::Call:
  case ValueKind::Invoke: {
    // Callees are direct Function members, not operands. Encode the
    // callee's name + signature type: content-addressing by called
    // symbol, stable across modules and runs.
    const Function *Callee = cast<CallBase>(I)->getCallee();
    H.addString(Callee->getName());
    addType(H, Callee->getFunctionType());
    break;
  }
  case ValueKind::Phi: {
    const auto *Phi = cast<PhiInst>(I);
    for (unsigned K = 0; K < Phi->getNumIncoming(); ++K)
      H.add(Ids.Block.at(Phi->getIncomingBlock(K)));
    break;
  }
  case ValueKind::Switch: {
    const auto *SW = cast<SwitchInst>(I);
    H.add(SW->getNumCases());
    for (unsigned K = 0; K < SW->getNumCases(); ++K)
      addValue(H, SW->getCaseValue(K), Ids);
    break;
  }
  case ValueKind::LandingPad:
    H.add(cast<LandingPadInst>(I)->isCleanup() ? 1 : 0);
    break;
  default:
    break;
  }
}

//===----------------------------------------------------------------------===//
// Lockstep structural equality
//===----------------------------------------------------------------------===//

bool valuesEquivalent(const Value *V1, const Value *V2,
                      const CanonicalIds &Ids1, const CanonicalIds &Ids2) {
  if (V1->getValueKind() != V2->getValueKind())
    return false;
  switch (V1->getValueKind()) {
  case ValueKind::Argument:
    return cast<Argument>(V1)->getArgIndex() ==
           cast<Argument>(V2)->getArgIndex();
  // Context-interned constants and module-owned globals: pointer
  // equality is value equality (globals deliberately strict — a
  // same-named global in another module is a different object).
  case ValueKind::GlobalVariable:
  case ValueKind::ConstantInt:
  case ValueKind::ConstantFP:
  case ValueKind::UndefValue:
  case ValueKind::ConstantPointerNull:
    return V1 == V2;
  default:
    return Ids1.Inst.at(V1) == Ids2.Inst.at(V2);
  }
}

bool instructionsEquivalent(const Instruction *I1, const Instruction *I2,
                            const CanonicalIds &Ids1,
                            const CanonicalIds &Ids2) {
  if (I1->getOpcode() != I2->getOpcode() || I1->getType() != I2->getType() ||
      I1->getNumOperands() != I2->getNumOperands() ||
      I1->getNumSuccessors() != I2->getNumSuccessors())
    return false;
  for (unsigned K = 0; K < I1->getNumOperands(); ++K)
    if (!valuesEquivalent(I1->getOperand(K), I2->getOperand(K), Ids1, Ids2))
      return false;
  for (unsigned K = 0; K < I1->getNumSuccessors(); ++K)
    if (Ids1.Block.at(I1->getSuccessor(K)) !=
        Ids2.Block.at(I2->getSuccessor(K)))
      return false;

  switch (I1->getOpcode()) {
  case ValueKind::ICmp:
  case ValueKind::FCmp:
    return cast<CmpInst>(I1)->getPredicate() ==
           cast<CmpInst>(I2)->getPredicate();
  case ValueKind::Alloca: {
    const auto *A1 = cast<AllocaInst>(I1), *A2 = cast<AllocaInst>(I2);
    return A1->getAllocatedType() == A2->getAllocatedType() &&
           A1->getNumElements() == A2->getNumElements();
  }
  case ValueKind::Gep:
    return cast<GepInst>(I1)->getElementType() ==
           cast<GepInst>(I2)->getElementType();
  case ValueKind::Call:
  case ValueKind::Invoke:
    // Strict: the exact same callee object, so thunking a member
    // through the leader's body never redirects a call.
    return cast<CallBase>(I1)->getCallee() == cast<CallBase>(I2)->getCallee();
  case ValueKind::Phi: {
    const auto *P1 = cast<PhiInst>(I1), *P2 = cast<PhiInst>(I2);
    for (unsigned K = 0; K < P1->getNumIncoming(); ++K)
      if (Ids1.Block.at(P1->getIncomingBlock(K)) !=
          Ids2.Block.at(P2->getIncomingBlock(K)))
        return false;
    return true;
  }
  case ValueKind::Switch: {
    const auto *S1 = cast<SwitchInst>(I1), *S2 = cast<SwitchInst>(I2);
    if (S1->getNumCases() != S2->getNumCases())
      return false;
    for (unsigned K = 0; K < S1->getNumCases(); ++K)
      if (S1->getCaseValue(K) != S2->getCaseValue(K))
        return false;
    return true;
  }
  case ValueKind::LandingPad:
    return cast<LandingPadInst>(I1)->isCleanup() ==
           cast<LandingPadInst>(I2)->isCleanup();
  default:
    return true;
  }
}

/// Replaces \p F's body with a direct tail-call thunk into \p MergedF
/// (same signature; arguments forwarded 1:1).
void buildDirectThunk(Function *F, Function *MergedF, Context &Ctx) {
  F->clearBody();
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(Ctx, Entry);
  std::vector<Value *> Args;
  Args.reserve(F->getNumArgs());
  for (unsigned I = 0; I < F->getNumArgs(); ++I)
    Args.push_back(F->getArg(I));
  CallInst *Call = B.createCall(MergedF, Args);
  if (F->getReturnType()->isVoid())
    B.createRetVoid();
  else
    B.createRet(Call);
}

} // namespace

StructuralHash computeStructuralHash(const Function &F) {
  assert(!F.isDeclaration() && "hashing a declaration");
  HashStream H;
  addType(H, F.getFunctionType());
  CanonicalIds Ids(F);
  H.add(F.getNumBlocks());
  for (const BasicBlock *BB : F.blocks()) {
    H.add(TagBlock);
    H.add(BB->size());
    for (const Instruction *I : *BB)
      addInstruction(H, I, Ids);
  }
  return H.finish();
}

bool structurallyEqual(const Function &F1, const Function &F2) {
  if (&F1 == &F2)
    return true;
  if (F1.getFunctionType() != F2.getFunctionType() ||
      F1.getNumBlocks() != F2.getNumBlocks())
    return false;
  CanonicalIds Ids1(F1), Ids2(F2);
  auto B1 = F1.blocks().begin(), B2 = F2.blocks().begin();
  for (; B1 != F1.blocks().end(); ++B1, ++B2) {
    if ((*B1)->size() != (*B2)->size())
      return false;
    auto I1 = (*B1)->begin(), I2 = (*B2)->begin();
    for (; I1 != (*B1)->end(); ++I1, ++I2)
      if (!instructionsEquivalent(*I1, *I2, Ids1, Ids2))
        return false;
  }
  return true;
}

std::vector<PreClusterGroup>
preClusterIdenticalFunctions(const std::vector<Function *> &Members,
                             Module &Target, TargetArch Arch,
                             const FaultInjectionConfig *Faults,
                             uint64_t &FingerprintFaults) {
  // Hash every member in the given order; group by hash in first-seen
  // order.
  std::vector<std::vector<Function *>> Groups;
  std::map<StructuralHash, size_t> GroupIdx;
  for (Function *F : Members) {
    try {
      if (Faults)
        maybeInjectFault(*Faults, FaultKind::Fingerprint, F->getName());
      auto It = GroupIdx.emplace(computeStructuralHash(*F), Groups.size());
      if (It.second)
        Groups.emplace_back();
      Groups[It.first->second].push_back(F);
    } catch (const std::exception &) {
      // A faulted fingerprint only costs this function its fast path: it
      // stays in the pool for the ordinary pipeline.
      ++FingerprintFaults;
    }
  }

  std::vector<PreClusterGroup> Committed;
  Context &Ctx = Target.getContext();
  bool X86 = Arch == TargetArch::X86Like;
  for (const std::vector<Function *> &Group : Groups) {
    // The hash filter is confirmed exactly: greedily peel
    // structurally-equal sub-groups (hash-equal members referencing
    // distinct globals/callees end up in separate sub-groups; a
    // sub-group of one just stays in the pool).
    std::vector<Function *> Rest = Group;
    while (Rest.size() >= 2) {
      Function *Leader = Rest.front();
      std::vector<Function *> Peeled{Leader}, Next;
      for (size_t I = 1; I < Rest.size(); ++I) {
        if (structurallyEqual(*Leader, *Rest[I]))
          Peeled.push_back(Rest[I]);
        else
          Next.push_back(Rest[I]);
      }
      Rest = std::move(Next);
      if (Peeled.size() < 2)
        continue;

      // Profitability: k bodies collapse to one plus k direct thunks
      // (same per-thunk arithmetic as FunctionMerger's commit cost).
      unsigned BodySize = estimateFunctionSize(*Leader, Arch);
      unsigned PerThunk = (X86 ? 12u : 8u) + (X86 ? 5u : 4u) +
                          (X86 ? 1u : 2u) + 2 * Leader->getNumArgs();
      uint64_t K = Peeled.size();
      if ((K - 1) * uint64_t(BodySize) <= K * uint64_t(PerThunk))
        continue;

      std::string Name = Target.makeUniqueName(Leader->getName() + ".m");
      Function *MergedF = cloneFunctionInto(Leader, Target, Name, {}, {});
      // Same commit firewall as the pipeline: a clone that fails to
      // verify is erased and the whole group falls back to pairwise.
      if (!verifyFunction(*MergedF).ok()) {
        Target.eraseFunction(MergedF);
        continue;
      }
      for (Function *F : Peeled)
        buildDirectThunk(F, MergedF, Ctx);
      Committed.push_back({MergedF, std::move(Peeled), Group.front()});
    }
  }
  return Committed;
}

} // namespace salssa
