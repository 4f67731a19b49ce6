//===- Common.h - Shared plumbing of the perfbench workloads --------------===//
//
// Part of the CoverMe reproduction (Fu & Su, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: seed
/// derivation, process and host measurements, the output-check ledger,
/// the in-memory span recorder of the traced run, probe-input sampling
/// through wrapping Program entries, and the metric report.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "core/CoverMe.h"
#include "runtime/Program.h"
#include "support/Random.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The command line of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20.0; ///< Measurement window; passes repeat to fill it.
  bool Trace = false;
  std::string WorkDir; ///< Scratch directory for spans and the journal.
};

/// Independent sub-seed \p Index of stream \p Stream (splitmix64), so every
/// campaign seed, subject draw and request mix follows from the workload
/// seed alone.
uint64_t deriveSeed(uint64_t Seed, uint64_t Stream, uint64_t Index);

/// Order-sensitive FNV-1a accumulator for workload digests.
struct Digest {
  uint64_t H = 1469598103934665603ull;
  void mix(uint64_t V);
};

double processCpuSeconds();
double threadCpuSeconds();
double peakRssMb();
/// Host steal time of all CPUs so far, from /proc/stat (0 if unreadable).
double hostStealSeconds();

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in (0, 100].
double percentile(std::vector<double> V, double P);
double geometricMean(const std::vector<double> &V);

/// Counts attempted and failed operations; failures keep their message.
class Checks {
public:
  void expect(bool Ok, const std::string &What);
  uint64_t attempted() const { return Attempted.load(); }
  uint64_t failed() const { return Failed.load(); }
  std::vector<std::string> messages() const;

private:
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  mutable std::mutex Mutex;
  std::vector<std::string> Messages;
};

/// Spans of the traced run: name, start, end, parent span and the
/// campaign or job they belong to. Kept in memory, written when the run
/// ends. A disabled tracer records nothing.
class Tracer {
public:
  explicit Tracer(bool Enabled);

  /// RAII span; closes when destroyed.
  class Span {
  public:
    Span(Tracer &T, const char *Name, uint64_t Owner, uint64_t Parent);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    uint64_t id() const { return Id; }

  private:
    Tracer &T;
    const char *Name;
    uint64_t Owner;
    uint64_t Parent;
    uint64_t Id;
    double Start;
  };

  /// Self time per layer (the span name's prefix before the first '.'):
  /// each span's duration minus the part of it its child spans cover.
  std::map<std::string, double> selfSecondsByLayer() const;

  /// Writes every span as JSON lines; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  struct Record {
    const char *Name;
    uint64_t Id, Parent, Owner;
    double Start, End;
  };
  double now() const;

  bool Enabled;
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex Mutex;
  std::vector<Record> Records;
  const std::chrono::steady_clock::time_point Origin;
};

/// Keeps a uniform sample of the probe inputs offered to it: every
/// Every-th probe of a thread is a candidate, and a reservoir of Cap
/// inputs holds an unbiased sample of the candidates. A candidate probed
/// with pen on also keeps the saturation state pen saw, so FOO_R can be
/// re-timed against the state each input was really evaluated in.
class ProbeSampler {
public:
  ProbeSampler(unsigned Arity, uint64_t Seed);
  void offer(const double *X);
  /// Sampled inputs, row-major, Arity doubles each.
  const std::vector<double> &inputs() const { return Inputs; }
  size_t count() const { return Inputs.size() / Arity; }
  unsigned arity() const { return Arity; }
  /// Index into states() of sample \p I's saturation state, or -1.
  int stateOf(size_t I) const { return StateOf[I]; }
  /// Distinct saturation states: arm flags, 2 per site.
  const std::vector<std::vector<uint8_t>> &states() const { return States; }

private:
  int captureState();

  unsigned Arity;
  std::mutex Mutex;
  uint64_t Seen = 0;
  coverme::Rng Pick;
  std::vector<double> Inputs;
  std::vector<int> StateOf;
  std::vector<std::vector<uint8_t>> States;
};

/// A copy of \p P whose bind() and Body offer every probe to \p S before
/// running P's own entry. \p P and \p S must outlive the copy.
coverme::Program sampledProgram(const coverme::Program &P, ProbeSampler &S);

/// Nanoseconds per plain body call of \p P over \p S's inputs, with no
/// execution context installed (the hooks only compare).
double bodyNs(const coverme::Program &P, const ProbeSampler &S);

/// Nanoseconds per RepresentingFunction::BoundRun::eval over \p S's inputs,
/// each against the saturation state it was sampled in.
double fooRNs(const coverme::Program &P, const ProbeSampler &S);

/// Re-executes \p Inputs through \p Exec with a fresh CoverageMap and
/// compares its counters with \p Expected.
bool suiteCoverageMatches(unsigned NumSites,
                          const std::vector<std::vector<double>> &Inputs,
                          const std::function<double(const double *)> &Exec,
                          const coverme::CoverageMap &Expected);

/// Campaign-level counts shared by every workload's core.* metrics.
struct CampaignTally {
  uint64_t Campaigns = 0, Rounds = 0, Evals = 0, Accepted = 0,
           InfeasibleMarks = 0;
  void add(const coverme::CampaignResult &R);
};

/// The metrics, digest and context of one run.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  uint64_t Digest = 0;
  std::string ContextJson; ///< Host and thread context, not metrics.
  std::string ExtraJson;   ///< Workload cells for the expected-file check.
  unsigned Passes = 0;

  void add(const std::string &Name, double Value, const std::string &Unit);
  void addTally(const CampaignTally &T);
};

/// Timed set-up repetitions per run, after one untimed warm-up.
constexpr unsigned SetupRepeats = 31;

/// Adds the end-to-end metrics every workload reports: the median set-up,
/// the median pass wall and CPU time, the peak resident memory at the end
/// of the first pass, and the mean CoverMe branch coverage.
void addEndToEnd(Report &Rep, const std::vector<double> &Setups,
                 const std::vector<double> &Walls,
                 const std::vector<double> &Cpus, double PeakRssMb,
                 double CoveragePct);

/// Adds the traced run's tracing overhead (traced pass \p Walls[1] minus
/// untraced pass \p Walls[0]) and self.<layer>_s for each of the library's
/// layers on a workload path (lang, fdlibm, runtime, optim, core, fuzz,
/// service) from \p T's spans.
void addTraceMetrics(Report &Rep, const Tracer &T,
                     const std::vector<double> &Walls);

/// Runs \p Pass (argument: the pass index; result: the pass's timed wall
/// seconds) and returns each pass's timed wall seconds. Untraced, passes
/// repeat while another still fits in O.Seconds, always at least once; a
/// traced run makes exactly two, pass 0 untraced and pass 1 traced.
std::vector<double> runPasses(const RunOptions &O,
                              const std::function<double(unsigned)> &Pass);

Report runTable2Native(const RunOptions &O, Checks &C);
Report runSourceJit(const RunOptions &O, Checks &C);
Report runServiceChurn(const RunOptions &O, Checks &C);

std::string hex64(uint64_t V);
/// "[a, b, ...]" with every digit of each value.
std::string jsonList(const std::vector<double> &V);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
