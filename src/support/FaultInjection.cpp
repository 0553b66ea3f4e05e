//===- support/FaultInjection.cpp - Deterministic fault points ----------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include <cstdlib>

using namespace salssa;

namespace {

/// splitmix64 finalizer: the same mixer classSeed uses in
/// CrossModuleMerger — full-avalanche, so nearby seeds/keys decide
/// independently.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// FNV-1a over the key bytes, folded through the mixer. Name strings are
/// the identity of a pool entry across thread/shard counts (pointers and
/// pool indices are not), which is why the fault keys are strings.
///
/// One wrinkle: merged-function names carry a module-unique numeric
/// counter after each ".m" hop ("f.m.22", "f.m.22.m.7"), and the counter
/// value depends on name-allocation history — a shard's scratch module
/// burns different counters than the final host even when the merge sets
/// are identical (the splice renames to the canonical sequence only
/// afterwards). Fault decisions must survive that renaming or a faulted
/// session diverges across shard counts, so keys are hashed
/// with the counters dropped: "f.m.22.m.7" hashes as "f.m.m". Lineage
/// names stay unique among concurrently-live functions (a function is
/// retired when its merge commits, so at most one ".m" descendant per
/// origin is ever live), making this a faithful stable identity.
uint64_t hashKey(uint64_t H, std::string_view Key) {
  auto step = [&H](char C) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  };
  for (size_t I = 0; I < Key.size(); ++I) {
    step(Key[I]);
    // Just hashed a complete ".m" segment? Skip a ".<digits>" counter.
    if (Key[I] == 'm' && I >= 1 && Key[I - 1] == '.' && I + 1 < Key.size() &&
        Key[I + 1] == '.') {
      size_t K = I + 2;
      while (K < Key.size() && Key[K] >= '0' && Key[K] <= '9')
        ++K;
      if (K > I + 2 && (K == Key.size() || Key[K] == '.'))
        I = K - 1; // counter dropped; resume at the following char
    }
  }
  // Separator: ("ab", "c") must not collide with ("a", "bc").
  H ^= 0xffULL;
  H *= 0x100000001b3ULL;
  return H;
}

const char *kindName(FaultKind K) {
  switch (K) {
  case FaultKind::AlignmentThrow:
    return "injected fault: alignment throw";
  case FaultKind::CodeGenCorruption:
    return "injected fault: codegen corruption";
  case FaultKind::TaskFailure:
    return "injected fault: task failure";
  case FaultKind::BudgetBlowout:
    return "injected fault: budget blowout";
  case FaultKind::Fingerprint:
    return "injected fault: structural fingerprint";
  case FaultKind::CacheIO:
    return "injected fault: decision-cache I/O";
  case FaultKind::Ranking:
    return "injected fault: candidate ranking";
  case FaultKind::SymbolResolution:
    return "injected fault: symbol resolution";
  case FaultKind::Protocol:
    return "injected fault: protocol frame damage";
  }
  return "injected fault";
}

/// Parses one decimal field; returns \p Fallback on garbage (the spec
/// grammar is forgiving by design, see the header).
uint64_t parseNumber(const std::string &S, uint64_t Fallback) {
  if (S.empty())
    return Fallback;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return Fallback;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  return V;
}

} // namespace

FaultInjectionConfig FaultInjectionConfig::parse(const std::string &Spec) {
  FaultInjectionConfig C;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Field = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    size_t Eq = Field.find('=');
    if (Eq == std::string::npos)
      continue;
    std::string Key = Field.substr(0, Eq);
    std::string Val = Field.substr(Eq + 1);
    if (Key == "seed")
      C.Seed = parseNumber(Val, C.Seed);
    else if (Key == "align")
      C.setRate(FaultKind::AlignmentThrow,
                static_cast<uint32_t>(parseNumber(Val, 0)));
    else if (Key == "codegen")
      C.setRate(FaultKind::CodeGenCorruption,
                static_cast<uint32_t>(parseNumber(Val, 0)));
    else if (Key == "task")
      C.setRate(FaultKind::TaskFailure,
                static_cast<uint32_t>(parseNumber(Val, 0)));
    else if (Key == "budget")
      C.setRate(FaultKind::BudgetBlowout,
                static_cast<uint32_t>(parseNumber(Val, 0)));
    else if (Key == "fingerprint")
      C.setRate(FaultKind::Fingerprint,
                static_cast<uint32_t>(parseNumber(Val, 0)));
    else if (Key == "cacheio")
      C.setRate(FaultKind::CacheIO,
                static_cast<uint32_t>(parseNumber(Val, 0)));
    else if (Key == "ranking")
      C.setRate(FaultKind::Ranking,
                static_cast<uint32_t>(parseNumber(Val, 0)));
    else if (Key == "symres")
      C.setRate(FaultKind::SymbolResolution,
                static_cast<uint32_t>(parseNumber(Val, 0)));
    else if (Key == "protocol")
      C.setRate(FaultKind::Protocol,
                static_cast<uint32_t>(parseNumber(Val, 0)));
    // Unknown keys: ignored.
  }
  return C;
}

FaultInjectionConfig FaultInjectionConfig::fromEnv() {
  const char *Spec = std::getenv("SALSSA_FAULTS");
  if (!Spec || !*Spec)
    return FaultInjectionConfig();
  return parse(Spec);
}

InjectedFault::InjectedFault(FaultKind K)
    : std::runtime_error(kindName(K)), Kind(K) {}

bool salssa::faultFires(const FaultInjectionConfig &C, FaultKind K,
                        std::string_view Key1, std::string_view Key2) {
  uint32_t Rate = C.rate(K);
  if (Rate == 0)
    return false;
  if (Rate >= 1000)
    return true;
  uint64_t H = mix64(C.Seed ^ (0xf417ULL + static_cast<uint64_t>(K)));
  H = hashKey(H, Key1);
  H = hashKey(H, Key2);
  return mix64(H) % 1000 < Rate;
}

void salssa::maybeInjectFault(const FaultInjectionConfig &C, FaultKind K,
                              std::string_view Key1, std::string_view Key2) {
  if (faultFires(C, K, Key1, Key2))
    throw InjectedFault(K);
}
