//===- bench/ledger/Ledger.cpp - Performance ledger harness -------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "support/RNG.h"
#include "support/Serialization.h"
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <sys/resource.h>
#include <thread>

using namespace salssa;

namespace ledger {

double nowSeconds() {
  static const auto Origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) {
    return double(T.tv_sec) + double(T.tv_usec) * 1e-6;
  };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB on Linux
}

double Samples::sum() const {
  double S = 0;
  for (double V : Values)
    S += V;
  return S;
}

double Samples::quantile(double Q) const {
  if (Values.empty())
    return 0;
  std::vector<double> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  double Pos = Q * double(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - double(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

void Samples::append(const Samples &O) {
  Values.insert(Values.end(), O.Values.begin(), O.Values.end());
}

void MetricSink::set(const std::string &Name, double Value,
                     const std::string &Unit, uint64_t Samples) {
  for (auto &[N, M] : Items)
    if (N == Name) {
      M = Metric{Value, Unit, Samples};
      return;
    }
  Items.emplace_back(Name, Metric{Value, Unit, Samples});
}

void MetricSink::print(const char *Title) const {
  std::printf("--- %s ---\n", Title);
  for (const auto &[N, M] : Items)
    std::printf("%-44s %16.6f %-6s (n=%llu)\n", N.c_str(), M.Value,
                M.Unit.c_str(), (unsigned long long)M.Samples);
}

std::string MetricSink::json() const {
  std::string Out = "{";
  bool First = true;
  for (const auto &[N, M] : Items) {
    char Buf[96];
    // %.17g keeps every digit of the measurement.
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    Out += (First ? "\"" : ", \"") + N + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit +
           "\", \"samples\": " + std::to_string(M.Samples) + "}";
    First = false;
  }
  return Out + "}";
}

void OpCounter::fail(const std::string &Why) {
  ++Attempted;
  ++Failed;
  std::fprintf(stderr, "bench_ledger: FAILED op: %s\n", Why.c_str());
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
struct OpenSpan {
  uint64_t Id;
  uint64_t Group;
};
thread_local std::vector<OpenSpan> SpanStack;

uint64_t threadTag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}
} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

uint64_t Tracer::begin(uint64_t Group, uint64_t &ParentOut,
                       uint64_t &GroupOut) {
  uint64_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
  ParentOut = SpanStack.empty() ? 0 : SpanStack.back().Id;
  GroupOut = Group ? Group : (SpanStack.empty() ? 0 : SpanStack.back().Group);
  SpanStack.push_back({Id, GroupOut});
  return Id;
}

void Tracer::end(uint64_t Id, const char *Name, double Start, uint64_t Parent,
                 uint64_t Group) {
  double End = nowSeconds();
  if (!SpanStack.empty() && SpanStack.back().Id == Id)
    SpanStack.pop_back();
  std::lock_guard<std::mutex> L(Mutex);
  Records.push_back({Name, Start, End, Id, Parent, Group, threadTag()});
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::lock_guard<std::mutex> L(Mutex);
  std::map<uint64_t, double> ChildTime;
  for (const Record &R : Records)
    if (R.Parent)
      ChildTime[R.Parent] += R.End - R.Start;
  std::map<std::string, double> Self;
  for (const Record &R : Records) {
    auto It = ChildTime.find(R.Id);
    double Children = It == ChildTime.end() ? 0 : It->second;
    Self[R.Name] += std::max(0.0, (R.End - R.Start) - Children);
  }
  return Self;
}

std::map<std::string, uint64_t> Tracer::counts() const {
  std::lock_guard<std::mutex> L(Mutex);
  std::map<std::string, uint64_t> C;
  for (const Record &R : Records)
    ++C[R.Name];
  return C;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> L(Mutex);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"ledger\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %llu, "
                 "\"args\": {\"span\": %llu, \"parent\": %llu, "
                 "\"group\": %llu}}\n",
                 I ? "," : "", R.Name, R.Start * 1e6, (R.End - R.Start) * 1e6,
                 (unsigned long long)R.Thread, (unsigned long long)R.Id,
                 (unsigned long long)R.Parent, (unsigned long long)R.Group);
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

Span::Span(const char *Name, uint64_t Group) : Name(Name) {
  Tracer &T = Tracer::get();
  if (!T.enabled())
    return;
  Id = T.begin(Group, Parent, this->Group);
  Start = nowSeconds();
}

Span::~Span() {
  if (Id)
    Tracer::get().end(Id, Name, Start, Parent, Group);
}

//===----------------------------------------------------------------------===//
// Correctness helpers
//===----------------------------------------------------------------------===//

std::vector<Module *> modsOf(const ModuleGroup &Group) {
  std::vector<Module *> Mods;
  for (size_t I = 0; I < Group.size(); ++I)
    Mods.push_back(&Group[I]);
  return Mods;
}

std::string groupPrints(const std::vector<Module *> &Mods) {
  std::string Prints;
  for (Module *M : Mods)
    Prints += printModule(*M);
  return Prints;
}

uint64_t digestOf(const std::string &Prints) {
  return fnv1a64(reinterpret_cast<const uint8_t *>(Prints.data()),
                 Prints.size());
}

bool groupVerifies(const std::vector<Module *> &Mods) {
  for (Module *M : Mods)
    if (!verifyModule(*M).ok())
      return false;
  return true;
}

DifferentialResult interpreterDifferential(const std::vector<Module *> &Ref,
                                           const std::vector<Module *> &Merged,
                                           unsigned Stride) {
  DifferentialResult Out;
  ExecOptions Opts;
  Opts.MaxSteps = 150000;
  Opts.ExternalThrowPercent = 10;
  Interpreter RefInterp(Ref, Opts);
  Interpreter MergedInterp(Merged, Opts);
  for (size_t MI = 0; MI < Ref.size(); ++MI) {
    uint64_t Position = 0;
    for (Function *RefF : Ref[MI]->functions()) {
      ++Position;
      if (RefF->isDeclaration() || Position % Stride != 0)
        continue;
      Span S("interp.run");
      Function *MergedF = Merged[MI]->getFunction(RefF->getName());
      if (!MergedF) {
        ++Out.CheckedCalls;
        ++Out.Mismatches;
        continue;
      }
      // Arguments depend on the function's position only, never on names.
      RNG ArgRng(mix64((uint64_t(MI) << 32) | Position));
      for (int Vec = 0; Vec < 3; ++Vec) {
        std::vector<RuntimeValue> Args;
        for (unsigned A = 0; A < RefF->getNumArgs(); ++A)
          Args.push_back(RuntimeValue::makeInt(
              Vec == 0 ? 0 : ArgRng.nextBelow(1u << 16)));
        RefInterp.resetMemory();
        ExecResult R1 = RefInterp.run(RefF, Args);
        MergedInterp.resetMemory();
        ExecResult R2 = MergedInterp.run(MergedF, Args);
        ++Out.CheckedCalls;
        if (!behaviourallyEqual(R1, R2)) {
          ++Out.Mismatches;
          std::fprintf(stderr, "bench_ledger: %s behaves differently "
                               "after merging (argument vector %d)\n",
                       RefF->getName().c_str(), Vec);
        }
      }
    }
  }
  return Out;
}

} // namespace ledger
