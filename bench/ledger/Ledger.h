//===- bench/ledger/Ledger.h - Performance ledger harness ---------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery of bench_ledger: sample statistics, the named metric
/// sink every workload reports into, the span tracer behind --trace, and
/// the correctness helpers (module prints, digests, the interpreter
/// differential). The ledger only calls public entry points of the
/// library, so every layer is timed from the outside.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_BENCH_LEDGER_LEDGER_H
#define SALSSA_BENCH_LEDGER_LEDGER_H

#include "ir/Module.h"
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ledger {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double nowSeconds();

/// Process CPU time (user + system, every thread) in seconds.
double processCpuSeconds();

/// Peak resident set size of the process, in MB (ru_maxrss).
double peakRssMb();

/// A bag of timing samples with the order statistics the ledger reports.
class Samples {
public:
  void add(double V) { Values.push_back(V); }
  size_t size() const { return Values.size(); }
  bool empty() const { return Values.empty(); }
  double sum() const;
  double median() const { return quantile(0.5); }
  /// Linear-interpolated quantile, \p Q in [0, 1]; 0 when empty.
  double quantile(double Q) const;
  /// Appends every sample of \p O.
  void append(const Samples &O);

private:
  std::vector<double> Values;
};

/// One reported number.
struct Metric {
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 1; ///< how many measurements the value summarizes
};

/// Named metrics of one run, in insertion order of first report. Names use
/// only [A-Za-z0-9_.-].
class MetricSink {
public:
  void set(const std::string &Name, double Value, const std::string &Unit,
           uint64_t Samples = 1);
  const std::vector<std::pair<std::string, Metric>> &all() const {
    return Items;
  }
  /// Prints one "name value unit (n=samples)" line per metric to stdout.
  void print(const char *Title) const;
  /// `{"name": {"value": v, "unit": "u", "samples": n}, ...}`.
  std::string json() const;

private:
  std::vector<std::pair<std::string, Metric>> Items;
};

/// Counts attempted and failed operations; any failure also prints a
/// one-line reason to stderr.
class OpCounter {
public:
  void fail(const std::string &Why);
  /// Counts one op, failed when \p Ok is false; returns \p Ok.
  bool check(bool Ok, const std::string &Why) {
    if (Ok)
      ++Attempted;
    else
      fail(Why);
    return Ok;
  }
  uint64_t attempted() const { return Attempted.load(); }
  uint64_t failed() const { return Failed.load(); }

private:
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Disabled (the default) it records nothing and
/// a Span costs one relaxed load. Enabled by --trace; spans are written
/// at exit as Chrome trace-event JSON.
class Tracer {
public:
  struct Record {
    const char *Name = nullptr;
    double Start = 0;
    double End = 0;
    uint64_t Id = 0;
    uint64_t Parent = 0; ///< 0 = root
    uint64_t Group = 0;  ///< shared id of one rep, epoch or request
    uint64_t Thread = 0;
  };

  static Tracer &get();
  void enable() { Enabled.store(true, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Opens a span on this thread; returns its id and fills its parent
  /// and (inherited when \p Group is 0) group.
  uint64_t begin(uint64_t Group, uint64_t &ParentOut, uint64_t &GroupOut);
  void end(uint64_t Id, const char *Name, double Start, uint64_t Parent,
           uint64_t Group);

  /// Span self time (duration minus the time its direct children cover),
  /// summed per span name, in seconds.
  std::map<std::string, double> selfSeconds() const;
  /// Number of recorded spans per name.
  std::map<std::string, uint64_t> counts() const;
  bool writeChromeTrace(const std::string &Path) const;

private:
  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex Mutex;
  std::vector<Record> Records;
};

/// RAII span around one call into a layer. \p Group 0 inherits the
/// enclosing span's group id on this thread.
class Span {
public:
  explicit Span(const char *Name, uint64_t Group = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Group = 0;
  double Start = 0;
};

//===----------------------------------------------------------------------===//
// Correctness helpers
//===----------------------------------------------------------------------===//

std::vector<salssa::Module *> modsOf(const salssa::ModuleGroup &Group);
std::string groupPrints(const std::vector<salssa::Module *> &Mods);
uint64_t digestOf(const std::string &Prints);
bool groupVerifies(const std::vector<salssa::Module *> &Mods);

/// Interpreter differential: every \p Stride-th function (by position, so
/// the sample never depends on names) of the never-merged \p Ref group
/// that is a definition runs on three argument vectors against its
/// same-named counterpart in the merged \p Merged group. Counts checked
/// calls and behavioural mismatches, naming each mismatch on stderr.
struct DifferentialResult {
  uint64_t CheckedCalls = 0;
  uint64_t Mismatches = 0;
};
DifferentialResult
interpreterDifferential(const std::vector<salssa::Module *> &Ref,
                        const std::vector<salssa::Module *> &Merged,
                        unsigned Stride);

} // namespace ledger

#endif // SALSSA_BENCH_LEDGER_LEDGER_H
