//===- Table2Native.cpp - Table 2's protocol over the native Fdlibm ports -===//
//
// Part of the CoverMe reproduction (Fu & Su, PLDI 2017).
//
// The sweep a reproducer runs: per port, CoverMe under the paper protocol
// (n_start=500, n_iter=5, Basinhopping + Powell), then Rand and AFL with
// 10x CoverMe's evaluations, rows sharded over a 4-thread CampaignRunner
// with one engine thread each. The four rows where AFL's budget runs
// longest (sqrt, pow, floor, ceil: 14-20 s each) are left out so a pass
// takes about 22 s instead of 40 s; the remaining 36 keep AFL's share of
// the sweep's CPU, and fmod keeps CoverMe's. The subset is fixed, not
// drawn from the seed, so that seeds move only campaign seeds and the
// amount of work stays comparable between seeds.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/CampaignRunner.h"
#include "core/Checkpoint.h"
#include "fdlibm/Fdlibm.h"
#include "fuzz/AflFuzzer.h"
#include "fuzz/RandomTester.h"
#include "support/Timer.h"

#include <algorithm>
#include <memory>
#include <sstream>

using namespace coverme;
using namespace perfbench;

namespace {

constexpr unsigned RunnerThreads = 4;

const char *const ExcludedRows[] = {"ieee754_sqrt", "ieee754_pow", "floor",
                                    "ceil"};

/// The longest remaining rows start first, so no long row starts last and
/// sets the pass's wall time alone.
const char *const LongestFirst[] = {
    "ieee754_fmod",      "nextafter", "ieee754_atan2",
    "expm1",             "ieee754_rem_pio2",
    "ieee754_remainder", "log1p",     "ieee754_hypot", "rint"};

struct Subject {
  const Program *Prog = nullptr;
  size_t RegistryIndex = 0;
};

std::vector<Subject> subjects() {
  const std::vector<Program> &All = fdlibm::registry().programs();
  auto Listed = [](const char *const *Begin, const char *const *End,
                   const std::string &Name) {
    return std::any_of(Begin, End,
                       [&](const char *N) { return Name == N; });
  };
  std::vector<Subject> Out;
  for (const char *Name : LongestFirst)
    for (size_t I = 0; I < All.size(); ++I)
      if (All[I].Name == Name)
        Out.push_back({&All[I], I});
  for (size_t I = 0; I < All.size(); ++I) {
    const std::string &Name = All[I].Name;
    if (!Listed(std::begin(ExcludedRows), std::end(ExcludedRows), Name) &&
        !Listed(std::begin(LongestFirst), std::end(LongestFirst), Name))
      Out.push_back({&All[I], I});
  }
  return Out;
}

struct Row {
  CampaignResult CoverMe;
  TesterResult Rand;
  TesterResult Afl;
  uint64_t Budget = 0;
  double Seconds = 0.0; ///< Row wall time: CoverMe, Rand and AFL.
  double CoverMeCpu = 0.0, RandCpu = 0.0, AflCpu = 0.0;
  uint64_t Digest = 0;
};

/// The probe samplers of one row in the traced pass.
struct RowSamplers {
  std::unique_ptr<ProbeSampler> CoverMe, Rand, Afl;
};

uint64_t rowDigest(const Row &R) {
  Digest D;
  D.mix(resultDigest(R.CoverMe));
  for (const TesterResult *T : {&R.Rand, &R.Afl}) {
    CoverageMap::Counters C = T->Coverage.counters();
    for (size_t I = 0; I < C.TrueHits.size(); ++I) {
      D.mix(C.TrueHits[I]);
      D.mix(C.FalseHits[I]);
    }
    D.mix(T->Executions);
    D.mix(T->CorpusSize);
  }
  return D.H;
}

Row runRow(const Program &P, uint64_t Seed, Tracer &T, uint64_t Owner,
           uint64_t Parent, RowSamplers *Samplers) {
  Row R;
  WallTimer RowTimer;
  Program CmProg, RandProg, AflProg;
  if (Samplers) {
    CmProg = sampledProgram(P, *Samplers->CoverMe);
    RandProg = sampledProgram(P, *Samplers->Rand);
    AflProg = sampledProgram(P, *Samplers->Afl);
  }
  {
    Tracer::Span S(T, "core.CoverMe.run", Owner, Parent);
    CoverMeOptions Opts; // paper protocol: n_start 500, n_iter 5, Powell
    Opts.Seed = Seed;
    Opts.Threads = 1;
    double Cpu = threadCpuSeconds();
    R.CoverMe = CoverMe(Samplers ? CmProg : P, Opts).run();
    R.CoverMeCpu = threadCpuSeconds() - Cpu;
  }
  // Rand and AFL get 10x CoverMe's evaluations, floored like the paper
  // benches so trivial rows still exercise the baselines.
  R.Budget = std::max<uint64_t>(10 * R.CoverMe.Evaluations, 10000);
  {
    Tracer::Span S(T, "fuzz.RandomTester.run", Owner, Parent);
    RandomTesterOptions Opts;
    Opts.Seed = Seed;
    double Cpu = threadCpuSeconds();
    R.Rand = RandomTester(Samplers ? RandProg : P, Opts).run(R.Budget);
    R.RandCpu = threadCpuSeconds() - Cpu;
  }
  {
    Tracer::Span S(T, "fuzz.AflFuzzer.run", Owner, Parent);
    AflOptions Opts;
    Opts.Seed = Seed;
    double Cpu = threadCpuSeconds();
    R.Afl = AflFuzzer(Samplers ? AflProg : P, Opts).run(R.Budget);
    R.AflCpu = threadCpuSeconds() - Cpu;
  }
  R.Seconds = RowTimer.seconds();
  R.Digest = rowDigest(R);
  return R;
}

void checkRow(const Program &P, const Row &R, Checks &C) {
  const std::string Tag = "table2 " + P.Name + ": ";
  C.expect(R.CoverMe.Stop != StopReason::None, Tag + "CoverMe campaign ran");
  C.expect(suiteCoverageMatches(P.NumSites, R.CoverMe.Inputs, P.Body,
                                R.CoverMe.Coverage),
           Tag + "suite re-executed on the port reproduces CoverMe's coverage");
  C.expect(R.Rand.Executions == R.Budget, Tag + "Rand used its budget");
  C.expect(R.Afl.Executions == R.Budget, Tag + "AFL used its budget");
}

} // namespace

Report perfbench::runTable2Native(const RunOptions &O, Checks &C) {
  Report Rep;
  const std::vector<Subject> Subjects = subjects();
  const size_t N = Subjects.size();

  // Set-up: starting the row runner's pool, the only work before the
  // first row. An untimed warm-up, then repetitions for a stable median.
  std::vector<double> Setups;
  std::unique_ptr<CampaignRunner> Runner;
  for (unsigned I = 0; I <= SetupRepeats; ++I) {
    Runner.reset();
    WallTimer T;
    Runner = std::make_unique<CampaignRunner>(
        CampaignRunnerOptions{RunnerThreads, {}});
    if (I)
      Setups.push_back(T.seconds());
  }

  Tracer Trace(O.Trace);
  std::vector<std::vector<Row>> Passes;
  std::vector<double> PassCpu;
  Tracer Untraced(false);
  std::vector<RowSamplers> Samplers;
  double PeakRss = 0.0;
  const double Steal0 = hostStealSeconds();

  auto Pass = [&](unsigned PassIndex) {
    const bool Traced = O.Trace && PassIndex == 1;
    if (Traced) {
      Samplers.resize(N);
      for (size_t I = 0; I < N; ++I) {
        unsigned Arity = Subjects[I].Prog->Arity;
        Samplers[I].CoverMe = std::make_unique<ProbeSampler>(
            Arity, deriveSeed(O.Seed, 9, 3 * I));
        Samplers[I].Rand = std::make_unique<ProbeSampler>(
            Arity, deriveSeed(O.Seed, 9, 3 * I + 1));
        Samplers[I].Afl = std::make_unique<ProbeSampler>(
            Arity, deriveSeed(O.Seed, 9, 3 * I + 2));
      }
    }
    Tracer &T = Traced ? Trace : Untraced;
    double Cpu = processCpuSeconds();
    WallTimer Wall;
    std::vector<Row> Rows;
    {
      Tracer::Span Sweep(T, "core.CampaignRunner.map", 0, 0);
      uint64_t SweepId = Sweep.id();
      Rows = Runner->map<Row>(N, [&](size_t I) {
        const Subject &S = Subjects[I];
        return runRow(*S.Prog, deriveSeed(O.Seed, 1, S.RegistryIndex), T,
                      I + 1, SweepId, Traced ? &Samplers[I] : nullptr);
      });
    }
    double Seconds = Wall.seconds();
    PassCpu.push_back(processCpuSeconds() - Cpu);
    if (Passes.empty())
      PeakRss = peakRssMb();
    for (size_t I = 0; I < N; ++I) {
      if (Passes.empty())
        checkRow(*Subjects[I].Prog, Rows[I], C);
      else
        C.expect(Rows[I].Digest == Passes.front()[I].Digest,
                 "table2 " + Subjects[I].Prog->Name +
                     ": row repeats bit-identically in pass " +
                     std::to_string(PassIndex + 1));
    }
    Passes.push_back(std::move(Rows));
    return Seconds;
  };

  const std::vector<double> Walls = runPasses(O, Pass);
  const double Steal = hostStealSeconds() - Steal0;
  Rep.Passes = static_cast<unsigned>(Walls.size());

  const std::vector<Row> &First = Passes.front();
  Digest WorkloadDigest;
  std::ostringstream Cells;
  Cells << "{\"rows\": [";
  for (size_t I = 0; I < N; ++I) {
    const Row &R = First[I];
    WorkloadDigest.mix(R.Digest);
    Cells << (I ? ", " : "") << "{\"function\": \"" << Subjects[I].Prog->Name
          << "\", \"rand_pct\": " << 100.0 * R.Rand.BranchCoverage
          << ", \"afl_pct\": " << 100.0 * R.Afl.BranchCoverage
          << ", \"digest\": \"" << hex64(R.Digest) << "\"}";
  }
  Cells << "]}";
  Rep.Digest = WorkloadDigest.H;
  Rep.ExtraJson = Cells.str();
  std::ostringstream Ctx;
  Ctx << "{\"nproc\": " << ThreadPool::hardwareThreads()
      << ", \"runner_threads\": " << RunnerThreads
      << ", \"engine_threads\": 1, \"rows\": " << N
      << ", \"pass_walls_s\": " << jsonList(Walls) << ", \"steal_s\": " << Steal << "}";
  Rep.ContextJson = Ctx.str();

  std::vector<double> CampaignSeconds;
  double Coverage = 0.0;
  for (const Row &R : First) {
    CampaignSeconds.push_back(R.CoverMe.Seconds);
    Coverage += R.CoverMe.BranchCoverage;
  }
  if (!O.Trace) {
    addEndToEnd(Rep, Setups, Walls, PassCpu, PeakRss,
                100.0 * Coverage / static_cast<double>(N));
    return Rep;
  }

  // Per-layer metrics: counts and CPU shares from the untraced pass,
  // sampled body and FOO_R costs from the traced one.
  const std::vector<Row> &Traced = Passes[1];
  CampaignTally Tally;
  double CmCpu = 0, RandCpu = 0, AflCpu = 0, CmSeconds = 0, RandSeconds = 0,
         AflSeconds = 0, RowSum = 0, RandCov = 0, AflCov = 0;
  uint64_t RandExecs = 0, AflExecs = 0, Corpus = 0;
  for (const Row &R : First) {
    Tally.add(R.CoverMe);
    CmCpu += R.CoverMeCpu;
    RandCpu += R.RandCpu;
    AflCpu += R.AflCpu;
    CmSeconds += R.CoverMe.Seconds;
    RandSeconds += R.Rand.Seconds;
    AflSeconds += R.Afl.Seconds;
    RowSum += R.Seconds;
    RandExecs += R.Rand.Executions;
    AflExecs += R.Afl.Executions;
    Corpus += R.Afl.CorpusSize;
    RandCov += R.Rand.BranchCoverage;
    AflCov += R.Afl.BranchCoverage;
  }
  // Execution-weighted per-call costs over every row's samples.
  double BodyAll = 0, BodyCm = 0, BodyAfl = 0, FooR = 0;
  for (size_t I = 0; I < N; ++I) {
    const Program &P = *Subjects[I].Prog;
    const Row &R = Traced[I];
    double Cm = bodyNs(P, *Samplers[I].CoverMe);
    double Rd = bodyNs(P, *Samplers[I].Rand);
    double Af = bodyNs(P, *Samplers[I].Afl);
    double Evals = static_cast<double>(R.CoverMe.Evaluations);
    BodyCm += Cm * Evals;
    BodyAfl += Af * static_cast<double>(R.Afl.Executions);
    BodyAll += Cm * Evals + Rd * static_cast<double>(R.Rand.Executions) +
               Af * static_cast<double>(R.Afl.Executions);
    FooR += fooRNs(P, *Samplers[I].CoverMe) * Evals;
  }
  const double Evals = static_cast<double>(std::max<uint64_t>(Tally.Evals, 1));
  const double AllExecs = Evals + static_cast<double>(RandExecs + AflExecs);
  const double CpuSum = CmCpu + RandCpu + AflCpu;
  const double AflNs = AflSeconds * 1e9 / static_cast<double>(AflExecs);
  Rep.add("fdlibm.body_ns", BodyAll / AllExecs, "ns");
  Rep.add("runtime.foo_r_ns", FooR / Evals, "ns");
  Rep.add("runtime.pen_ns", (FooR - BodyCm) / Evals, "ns");
  Rep.add("optim.overhead_ns", CmSeconds * 1e9 / Evals - FooR / Evals, "ns");
  Rep.addTally(Tally);
  Rep.add("core.campaign_s_gmean", geometricMean(CampaignSeconds), "s");
  Rep.add("core.campaign_s_p90", percentile(CampaignSeconds, 90), "s");
  Rep.add("core.spec_waste_cpu_pct", 0.0, "%");
  Rep.add("core.parallel_speedup", 1.0, "ratio");
  Rep.add("core.runner_imbalance", Walls[0] * RunnerThreads / RowSum, "ratio");
  Rep.add("core.coverme_cpu_pct", 100.0 * CmCpu / CpuSum, "%");
  Rep.add("fuzz.rand_execs", static_cast<double>(RandExecs), "count");
  Rep.add("fuzz.afl_execs", static_cast<double>(AflExecs), "count");
  Rep.add("fuzz.rand_ns_per_exec",
          RandSeconds * 1e9 / static_cast<double>(RandExecs), "ns");
  Rep.add("fuzz.afl_ns_per_exec", AflNs, "ns");
  Rep.add("fuzz.afl_harness_ns",
          AflNs - BodyAfl / static_cast<double>(AflExecs), "ns");
  Rep.add("fuzz.afl_corpus", static_cast<double>(Corpus), "count");
  Rep.add("fuzz.afl_cpu_pct", 100.0 * AflCpu / CpuSum, "%");
  Rep.add("fuzz.rand_cpu_pct", 100.0 * RandCpu / CpuSum, "%");
  Rep.add("fuzz.rand_coverage_pct", 100.0 * RandCov / static_cast<double>(N),
          "%");
  Rep.add("fuzz.afl_coverage_pct", 100.0 * AflCov / static_cast<double>(N),
          "%");
  addTraceMetrics(Rep, Trace, Walls);
  if (!Trace.write(O.WorkDir + "/spans-table2_native.jsonl"))
    C.expect(false, "table2: spans written");
  return Rep;
}
