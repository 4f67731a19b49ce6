//===- Common.cpp - Shared plumbing of the perfbench workloads ------------===//

#include "Common.h"

#include "runtime/ExecutionContext.h"
#include "runtime/RepresentingFunction.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <time.h>
#include <unistd.h>

using namespace coverme;
using namespace perfbench;

uint64_t perfbench::deriveSeed(uint64_t Seed, uint64_t Stream, uint64_t Index) {
  uint64_t Z = Seed ^ (Stream * 0xd1b54a32d192ed03ull) ^
               (Index * 0x9e3779b97f4a7c15ull);
  for (int Round = 0; Round < 2; ++Round) {
    Z += 0x9e3779b97f4a7c15ull;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    Z ^= Z >> 31;
  }
  return Z;
}

void Digest::mix(uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= (V >> (8 * I)) & 0xff;
    H *= 1099511628211ull;
  }
}

std::string perfbench::hex64(uint64_t V) {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

std::string perfbench::jsonList(const std::vector<double> &V) {
  std::string Out = "[";
  char Buf[32];
  for (size_t I = 0; I < V.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s%.17g", I ? ", " : "", V[I]);
    Out += Buf;
  }
  return Out + "]";
}

//===----------------------------------------------------------------------===//
// Process and host measurements
//===----------------------------------------------------------------------===//

static double clockSeconds(clockid_t Clock) {
  timespec Ts{};
  clock_gettime(Clock, &Ts);
  return static_cast<double>(Ts.tv_sec) + 1e-9 * static_cast<double>(Ts.tv_nsec);
}

double perfbench::processCpuSeconds() {
  return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double perfbench::threadCpuSeconds() {
  return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double perfbench::peakRssMb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so the
  // latter would report the launching process's peak when that is larger.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0.0;
}

double perfbench::hostStealSeconds() {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  uint64_t Fields[8] = {};
  if (!(Stat >> Cpu) || Cpu != "cpu")
    return 0.0;
  for (uint64_t &F : Fields)
    if (!(Stat >> F))
      return 0.0;
  long Ticks = sysconf(_SC_CLK_TCK);
  return Ticks > 0 ? static_cast<double>(Fields[7]) / static_cast<double>(Ticks)
                   : 0.0;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * static_cast<double>(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double perfbench::geometricMean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-9));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

void Checks::expect(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::lock_guard<std::mutex> Lock(Mutex);
  Messages.push_back(What);
}

std::vector<std::string> Checks::messages() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Messages;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Tracer(bool Enabled)
    : Enabled(Enabled), Origin(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

Tracer::Span::Span(Tracer &T, const char *Name, uint64_t Owner,
                   uint64_t Parent)
    : T(T), Name(Name), Owner(Owner), Parent(Parent),
      Id(T.Enabled ? T.NextId.fetch_add(1) : 0),
      Start(T.Enabled ? T.now() : 0.0) {}

Tracer::Span::~Span() {
  if (!T.Enabled)
    return;
  double End = T.now();
  std::lock_guard<std::mutex> Lock(T.Mutex);
  T.Records.push_back({Name, Id, Parent, Owner, Start, End});
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<uint64_t, std::vector<std::pair<double, double>>> Children;
  for (const Record &R : Records)
    if (R.Parent)
      Children[R.Parent].push_back({R.Start, R.End});
  std::map<std::string, double> Self;
  for (const Record &R : Records) {
    // Children may run on several threads at once: subtract the measure of
    // the union of their intervals, clipped to the parent.
    double Covered = 0.0;
    auto It = Children.find(R.Id);
    if (It != Children.end()) {
      std::vector<std::pair<double, double>> Spans = It->second;
      std::sort(Spans.begin(), Spans.end());
      double CurStart = 0.0, CurEnd = -1.0;
      for (auto [S, E] : Spans) {
        S = std::max(S, R.Start);
        E = std::min(E, R.End);
        if (E <= S)
          continue;
        if (S > CurEnd) {
          if (CurEnd > CurStart)
            Covered += CurEnd - CurStart;
          CurStart = S;
          CurEnd = E;
        } else {
          CurEnd = std::max(CurEnd, E);
        }
      }
      if (CurEnd > CurStart)
        Covered += CurEnd - CurStart;
    }
    std::string Name = R.Name;
    Self[Name.substr(0, Name.find('.'))] += (R.End - R.Start) - Covered;
  }
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const Record &R : Records)
    std::fprintf(F,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"owner\": %llu, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 R.Name, static_cast<unsigned long long>(R.Id),
                 static_cast<unsigned long long>(R.Parent),
                 static_cast<unsigned long long>(R.Owner), R.Start, R.End);
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Probe sampling
//===----------------------------------------------------------------------===//

namespace {

/// Every Kth probe of a thread is a sampling candidate. Odd so it does not
/// alias with the minimizers' fixed-size probe patterns.
constexpr uint64_t SampleEvery = 61;
/// Reservoir size per sampler.
constexpr uint64_t SampleCap = 2048;

thread_local uint64_t ProbeCounter = 0;

/// The bound body a thread is running through a sampled Program. A thread
/// binds one Program at a time (one minimization run), so one slot each.
struct BoundSlot {
  Program::BoundBody Inner;
  ProbeSampler *Sampler = nullptr;
};
thread_local BoundSlot Slot;

double sampledInvoke(void *State, uint64_t, const double *X) {
  auto *S = static_cast<BoundSlot *>(State);
  S->Sampler->offer(X);
  return S->Inner.call(X);
}

void sampledBatch(void *State, uint64_t, const double *Xs, size_t Count,
                  size_t N, double *Out) {
  auto *S = static_cast<BoundSlot *>(State);
  for (size_t I = 0; I < Count; ++I)
    S->Sampler->offer(Xs + I * N);
  S->Inner.InvokeBatch(S->Inner.State, S->Inner.Imm, Xs, Count, N, Out);
}

volatile double Sink = 0.0; ///< Keeps timed calls from being elided.

/// Best of three trials, each at least 2 ms of back-to-back calls.
template <typename CallFn> double nsPerCall(size_t N, CallFn Call) {
  if (N == 0)
    return 0.0;
  double Best = std::numeric_limits<double>::infinity();
  for (int Trial = 0; Trial < 3; ++Trial) {
    uint64_t Calls = 0;
    double Acc = 0.0;
    WallTimer T;
    do {
      for (size_t I = 0; I < N; ++I)
        Acc += Call(I);
      Calls += N;
    } while (T.seconds() < 0.002);
    Best = std::min(Best, T.seconds() * 1e9 / static_cast<double>(Calls));
    Sink = Acc;
  }
  return Best;
}

} // namespace

ProbeSampler::ProbeSampler(unsigned Arity, uint64_t Seed)
    : Arity(Arity), Pick(Seed) {}

void ProbeSampler::offer(const double *X) {
  if (++ProbeCounter % SampleEvery)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Seen;
  if (StateOf.size() < SampleCap) {
    Inputs.insert(Inputs.end(), X, X + Arity);
    StateOf.push_back(captureState());
    return;
  }
  uint64_t J = Pick.below(Seen);
  if (J < SampleCap) {
    std::copy(X, X + Arity, Inputs.begin() + static_cast<ptrdiff_t>(J * Arity));
    StateOf[J] = captureState();
  }
}

int ProbeSampler::captureState() {
  ExecutionContext *Ctx = ExecutionContext::current();
  if (!Ctx || !Ctx->PenEnabled)
    return -1;
  SaturationTable::Snapshot Snap = Ctx->saturation().snapshot();
  if (States.empty() || States.back() != Snap.Arms)
    States.push_back(std::move(Snap.Arms));
  return static_cast<int>(States.size()) - 1;
}

Program perfbench::sampledProgram(const Program &P, ProbeSampler &S) {
  Program W = P;
  W.RawBody = nullptr;
  W.Binder = [&P, &S]() {
    Slot.Inner = P.bind();
    Slot.Sampler = &S;
    Program::BoundBody B;
    B.Invoke = sampledInvoke;
    if (Slot.Inner.InvokeBatch)
      B.InvokeBatch = sampledBatch;
    B.State = &Slot;
    return B;
  };
  W.Body = [&P, &S](const double *X) {
    S.offer(X);
    return P.Body(X);
  };
  return W;
}

double perfbench::bodyNs(const Program &P, const ProbeSampler &S) {
  Program::BoundBody B = P.bind();
  const double *X = S.inputs().data();
  unsigned A = S.arity();
  return nsPerCall(S.count(), [&](size_t I) { return B.call(X + I * A); });
}

double perfbench::fooRNs(const Program &P, const ProbeSampler &S) {
  const size_t N = S.count();
  if (N == 0)
    return 0.0;
  std::map<int, std::vector<size_t>> ByState;
  for (size_t I = 0; I < N; ++I)
    ByState[S.stateOf(I)].push_back(I);
  const double *X = S.inputs().data();
  const unsigned A = S.arity();
  const size_t Reps = std::max<size_t>(1, 16384 / N);
  double Best = std::numeric_limits<double>::infinity();
  for (int Trial = 0; Trial < 3; ++Trial) {
    double Seconds = 0.0, Acc = 0.0;
    for (const auto &[State, Members] : ByState) {
      ExecutionContext Ctx(P.NumSites);
      Ctx.TraceEnabled = false; // as on the campaign engine's probe path
      if (State >= 0) {
        const std::vector<uint8_t> &Arms = S.states()[State];
        for (uint32_t Arm = 0; Arm < Arms.size(); ++Arm)
          if (Arms[Arm])
            Ctx.saturate({Arm / 2, Arm % 2 != 0});
      }
      RepresentingFunction FR(P, Ctx);
      RepresentingFunction::BoundRun Run(FR);
      WallTimer T;
      for (size_t R = 0; R < Reps; ++R)
        for (size_t I : Members)
          Acc += Run.eval(X + I * A, A);
      Seconds += T.seconds();
    }
    Sink = Acc;
    Best = std::min(Best, Seconds * 1e9 / static_cast<double>(Reps * N));
  }
  return Best;
}

bool perfbench::suiteCoverageMatches(
    unsigned NumSites, const std::vector<std::vector<double>> &Inputs,
    const std::function<double(const double *)> &Exec,
    const CoverageMap &Expected) {
  CoverageMap Fresh(NumSites);
  ExecutionContext Ctx(NumSites);
  Ctx.PenEnabled = false;
  Ctx.TraceEnabled = false;
  Ctx.Coverage = &Fresh;
  {
    ExecutionContext::Scope Installed(Ctx);
    for (const std::vector<double> &X : Inputs) {
      Ctx.beginRun();
      Exec(X.data());
    }
  }
  CoverageMap::Counters Got = Fresh.counters(), Want = Expected.counters();
  return Got.TrueHits == Want.TrueHits && Got.FalseHits == Want.FalseHits &&
         Got.TotalHits == Want.TotalHits;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void CampaignTally::add(const CampaignResult &R) {
  ++Campaigns;
  Rounds += R.StartsUsed;
  Evals += R.Evaluations;
  Accepted += R.Inputs.size();
  InfeasibleMarks += R.InfeasibleMarked.size();
}

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  Metrics.push_back({Name, {Value, Unit}});
}

void Report::addTally(const CampaignTally &T) {
  double Rounds = static_cast<double>(std::max<uint64_t>(T.Rounds, 1));
  add("core.campaigns", static_cast<double>(T.Campaigns), "count");
  add("core.rounds", static_cast<double>(T.Rounds), "count");
  add("core.evals", static_cast<double>(T.Evals), "count");
  add("core.accept_ratio", static_cast<double>(T.Accepted) / Rounds, "ratio");
  add("core.infeasible_marks", static_cast<double>(T.InfeasibleMarks),
      "count");
  add("optim.evals_per_round", static_cast<double>(T.Evals) / Rounds,
      "count");
}

void perfbench::addEndToEnd(Report &Rep, const std::vector<double> &Setups,
                            const std::vector<double> &Walls,
                            const std::vector<double> &Cpus, double PeakRssMb,
                            double CoveragePct) {
  Rep.add("setup_s", median(Setups), "s");
  Rep.add("wall_s", median(Walls), "s");
  Rep.add("cpu_s", median(Cpus), "s");
  Rep.add("peak_rss_mb", PeakRssMb, "MB");
  Rep.add("coverme_coverage_pct", CoveragePct, "%");
}

void perfbench::addTraceMetrics(Report &Rep, const Tracer &T,
                                const std::vector<double> &Walls) {
  Rep.add("trace.overhead_s", Walls[1] - Walls[0], "s");
  Rep.add("trace.overhead_pct", 100.0 * (Walls[1] - Walls[0]) / Walls[0], "%");
  std::map<std::string, double> Self = T.selfSecondsByLayer();
  for (const char *Layer :
       {"lang", "fdlibm", "runtime", "optim", "core", "fuzz", "service"})
    Rep.add(std::string("self.") + Layer + "_s", Self[Layer], "s");
}

std::vector<double>
perfbench::runPasses(const RunOptions &O,
                     const std::function<double(unsigned)> &Pass) {
  std::vector<double> Walls;
  if (O.Trace) {
    Walls.push_back(Pass(0));
    Walls.push_back(Pass(1));
    return Walls;
  }
  WallTimer Total;
  for (unsigned I = 0;; ++I) {
    Walls.push_back(Pass(I));
    if (Total.seconds() + median(Walls) > O.Seconds)
      return Walls;
  }
}
