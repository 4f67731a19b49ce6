//===- SourceJit.cpp - The embedded Fdlibm sources on the JIT tier --------===//
//
// Part of the CoverMe reproduction (Fu & Su, PLDI 2017).
//
// The paper's own deployment (Fig. 4: source in, tests out): the 14
// embedded sources go through the frontend once onto the JIT tier, then
// CoverMe alone runs the paper protocol on each of them under 8 campaign
// seeds derived from the workload seed, one campaign at a time.
//
// The timed passes run each campaign on one engine thread. On a 4-vCPU
// VM the 2-thread engine hands every round commit across threads, and the
// wake-ups of halted vCPUs made the same 2-thread pass take 7.0-10.4 s
// against 5.7-6.3 s on one thread, with equal CPU time. The traced run
// still runs every campaign on 2 threads as well, to measure speculation
// and to hold the two digests equal.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/Checkpoint.h"
#include "lang/Jit.h"
#include "lang/Sema.h"
#include "lang/SourceSuite.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <sstream>

using namespace coverme;
using namespace coverme::lang;
using namespace perfbench;

namespace {

constexpr unsigned EngineThreads = 1;
/// Engine threads of the traced run's speculation pass.
constexpr unsigned SpeculatingThreads = 2;
constexpr unsigned SeedsPerSubject = 16;

/// What a pass keeps of its campaigns once each has been checked.
struct PassRecord {
  std::vector<double> Seconds; ///< Per campaign, from CampaignResult.
  std::vector<uint64_t> Evals;
  std::vector<uint64_t> Digests;
  double Coverage = 0.0; ///< Sum of branch coverage fractions.
  double Wall = 0.0, Cpu = 0.0; ///< Summed over the campaigns' own runs.
};

SourceProgramOptions jitOptions(const SourceBenchmark &B) {
  SourceProgramOptions Opts;
  Opts.TotalLines = B.PaperLines;
  Opts.Tier = ExecutionTier::Jit;
  return Opts;
}

std::vector<SourceProgram> compileSuite() {
  std::vector<SourceProgram> Out;
  for (const SourceBenchmark &B : sourceSuite()) {
    Out.push_back(compileSourceProgram(B.Source, B.Name, jitOptions(B)));
    Out.back().Prog.File = B.File;
  }
  return Out;
}

/// Frontend phases timed one call at a time, for the traced run.
struct FrontendTimes {
  double ParseMs = 0, SemaMs = 0, CodegenMs = 0, JitMs = 0;
  uint64_t Insns = 0, CodeBytes = 0, Functions = 0, Jitted = 0;
};

FrontendTimes timeFrontend(Tracer &T, Checks &C) {
  FrontendTimes F;
  uint64_t Owner = 0;
  for (const SourceBenchmark &B : sourceSuite()) {
    ++Owner;
    WallTimer Timer;
    ParseResult Parsed = [&] {
      Tracer::Span S(T, "lang.parseTranslationUnit", Owner, 0);
      return parseTranslationUnit(B.Source);
    }();
    F.ParseMs += 1e3 * Timer.seconds();
    std::vector<Diagnostic> Diags = Parsed.Diags;
    Timer.restart();
    bool Clean = Diags.empty() && [&] {
      Tracer::Span S(T, "lang.analyze", Owner, 0);
      return analyze(*Parsed.TU, Diags);
    }();
    F.SemaMs += 1e3 * Timer.seconds();
    C.expect(Clean, "source_jit " + B.Name + ": parses and analyzes cleanly");
    if (!Clean)
      continue;
    Timer.restart();
    bc::CompileResult Code = [&] {
      Tracer::Span S(T, "lang.compileUnit", Owner, 0);
      return bc::compileUnit(*Parsed.TU, jitOptions(B).Interp);
    }();
    F.CodegenMs += 1e3 * Timer.seconds();
    C.expect(Code.success(), "source_jit " + B.Name + ": compiles");
    if (!Code.success())
      continue;
    Timer.restart();
    std::shared_ptr<const bc::JitUnit> Jit = [&] {
      Tracer::Span S(T, "lang.JitUnit::build", Owner, 0);
      return bc::JitUnit::build(Code.Unit);
    }();
    F.JitMs += 1e3 * Timer.seconds();
    F.Insns += Code.Unit->Code.size();
    F.Functions += Code.Unit->Functions.size();
    if (Jit) {
      F.CodeBytes += Jit->codeBytes();
      F.Jitted += Jit->jittedCount();
    }
  }
  return F;
}

} // namespace

Report perfbench::runSourceJit(const RunOptions &O, Checks &C) {
  Report Rep;
  const std::vector<SourceBenchmark> &Suite = sourceSuite();
  const size_t NSubjects = Suite.size();

  // Set-up: the 14 compiles onto the JIT tier. An untimed warm-up, then
  // repetitions for a stable median; the campaigns run the last set.
  std::vector<double> Setups;
  std::vector<SourceProgram> Programs;
  for (unsigned I = 0; I <= SetupRepeats; ++I) {
    Programs.clear();
    WallTimer T;
    Programs = compileSuite();
    if (I)
      Setups.push_back(T.seconds());
  }
  for (size_t I = 0; I < NSubjects; ++I)
    C.expect(Programs[I].success(),
             "source_jit " + Suite[I].Name + ": frontend accepts the source");
  if (C.failed())
    return Rep;

  Tracer Trace(O.Trace);
  std::vector<std::unique_ptr<ProbeSampler>> Samplers;
  std::vector<Program> Sampled;
  std::vector<PassRecord> Passes;
  CampaignTally Tally;
  double PeakRss = 0.0;
  const size_t NCampaigns = NSubjects * SeedsPerSubject;
  const double Steal0 = hostStealSeconds();
  std::vector<Program> Plain;
  for (const SourceProgram &SP : Programs)
    Plain.push_back(SP.Prog);

  // One pass: every (seed, subject) campaign in turn. Only the campaigns
  // are on the clock; each result is checked and dropped between them, so
  // neither the checks nor the benchmark's own bookkeeping count.
  Tracer Untraced(false);
  auto RunCampaigns = [&](const std::vector<Program> &Progs, unsigned Threads,
                          unsigned PassIndex, Tracer &T) {
    PassRecord Rec;
    for (size_t K = 0; K < NCampaigns; ++K) {
      const SourceProgram &SP = Programs[K % NSubjects];
      CoverMeOptions Opts;
      Opts.Seed = deriveSeed(O.Seed, 2, K);
      Opts.Threads = Threads;
      double Cpu = processCpuSeconds();
      WallTimer Wall;
      CampaignResult R = [&] {
        Tracer::Span S(T, "core.CoverMe.run", K + 1, 0);
        return CoverMe(Progs[K % NSubjects], Opts).run();
      }();
      Rec.Wall += Wall.seconds();
      Rec.Cpu += processCpuSeconds() - Cpu;
      Rec.Seconds.push_back(R.Seconds);
      Rec.Evals.push_back(R.Evaluations);
      Rec.Digests.push_back(resultDigest(R));
      Rec.Coverage += R.BranchCoverage;
      const std::string Tag = "source_jit " + SP.Prog.Name + " campaign " +
                              std::to_string(K) + ": ";
      if (!Passes.empty()) {
        C.expect(Rec.Digests[K] == Passes.front().Digests[K],
                 Tag + (Threads != EngineThreads
                            ? std::string("2 engine threads give the "
                                          "1-thread digest")
                            : "repeats bit-identically in pass " +
                                  std::to_string(PassIndex + 1)));
        continue;
      }
      Tally.add(R);
      // Independent executor: the tree-walker, not the JIT the campaign
      // ran on. Single-threaded here, so sharing SP.Interp is safe.
      C.expect(R.Stop != StopReason::None, Tag + "ran");
      C.expect(suiteCoverageMatches(
                   SP.Prog.NumSites, R.Inputs,
                   [&SP](const double *X) {
                     return SP.Interp->callEntry(*SP.Entry, X);
                   },
                   R.Coverage),
               Tag + "suite re-executed on the tree-walker reproduces the "
                     "campaign's coverage");
    }
    return Rec;
  };

  auto Pass = [&](unsigned PassIndex) {
    const bool Traced = O.Trace && PassIndex == 1;
    if (Traced) {
      for (size_t I = 0; I < NSubjects; ++I)
        Samplers.push_back(std::make_unique<ProbeSampler>(
            Plain[I].Arity, deriveSeed(O.Seed, 9, I)));
      for (size_t I = 0; I < NSubjects; ++I)
        Sampled.push_back(sampledProgram(Plain[I], *Samplers[I]));
    }
    Passes.push_back(RunCampaigns(Traced ? Sampled : Plain, EngineThreads,
                                  PassIndex, Traced ? Trace : Untraced));
    if (Passes.size() == 1)
      PeakRss = peakRssMb();
    return Passes.back().Wall;
  };

  const std::vector<double> Walls = runPasses(O, Pass);
  const double Steal = hostStealSeconds() - Steal0;
  Rep.Passes = static_cast<unsigned>(Walls.size());

  const PassRecord &First = Passes.front();
  Digest WorkloadDigest;
  for (uint64_t D : First.Digests)
    WorkloadDigest.mix(D);
  Rep.Digest = WorkloadDigest.H;
  std::ostringstream Ctx;
  Ctx << "{\"nproc\": " << ThreadPool::hardwareThreads()
      << ", \"engine_threads\": " << EngineThreads
      << ", \"campaigns\": " << NCampaigns << ", \"pass_walls_s\": " << jsonList(Walls)
      << ", \"jit\": " << (bc::JitUnit::available() ? "true" : "false")
      << ", \"steal_s\": " << Steal << "}";
  Rep.ContextJson = Ctx.str();

  if (!O.Trace) {
    std::vector<double> PassCpu;
    for (const PassRecord &P : Passes)
      PassCpu.push_back(P.Cpu);
    addEndToEnd(Rep, Setups, Walls, PassCpu, PeakRss,
                100.0 * First.Coverage / static_cast<double>(NCampaigns));
    return Rep;
  }

  // Traced run: the speculating pass, the frontend phases, and the
  // sampled body and FOO_R costs.
  const PassRecord Speculating =
      RunCampaigns(Plain, SpeculatingThreads, 2, Untraced);

  std::vector<FrontendTimes> Frontends;
  for (int I = 0; I < 5; ++I)
    Frontends.push_back(timeFrontend(Trace, C));
  auto MedianOf = [&](double FrontendTimes::*Field) {
    std::vector<double> V;
    for (const FrontendTimes &F : Frontends)
      V.push_back(F.*Field);
    return median(V);
  };

  double BodyWeighted = 0, FooRWeighted = 0, PassSeconds = 0;
  for (size_t I = 0; I < NSubjects; ++I) {
    const Program &P = Plain[I];
    double Evals = 0, Seconds = 0;
    for (size_t K = I; K < NCampaigns; K += NSubjects) {
      Evals += static_cast<double>(First.Evals[K]);
      Seconds += First.Seconds[K];
    }
    double Body = bodyNs(P, *Samplers[I]);
    double FooR = fooRNs(P, *Samplers[I]);
    double PerEval = Evals > 0 ? Seconds * 1e9 / Evals : 0.0;
    Rep.add("subject." + P.Name + ".body_ns", Body, "ns");
    Rep.add("subject." + P.Name + ".pen_ns", FooR - Body, "ns");
    Rep.add("subject." + P.Name + ".engine_ns", PerEval - FooR, "ns");
    BodyWeighted += Body * Evals;
    FooRWeighted += FooR * Evals;
    PassSeconds += Seconds;
  }
  const double Evals = static_cast<double>(std::max<uint64_t>(Tally.Evals, 1));
  const FrontendTimes &Counts = Frontends.back();
  Rep.add("lang.parse_ms", MedianOf(&FrontendTimes::ParseMs), "ms");
  Rep.add("lang.sema_ms", MedianOf(&FrontendTimes::SemaMs), "ms");
  Rep.add("lang.codegen_ms", MedianOf(&FrontendTimes::CodegenMs), "ms");
  Rep.add("lang.jit_ms", MedianOf(&FrontendTimes::JitMs), "ms");
  Rep.add("lang.bytecode_insns", static_cast<double>(Counts.Insns), "count");
  Rep.add("lang.jit_code_bytes", static_cast<double>(Counts.CodeBytes),
          "bytes");
  Rep.add("lang.jit_fn_pct",
          100.0 * static_cast<double>(Counts.Jitted) /
              static_cast<double>(std::max<uint64_t>(Counts.Functions, 1)),
          "%");
  Rep.add("lang.body_ns", BodyWeighted / Evals, "ns");
  Rep.add("runtime.foo_r_ns", FooRWeighted / Evals, "ns");
  Rep.add("runtime.pen_ns", (FooRWeighted - BodyWeighted) / Evals, "ns");
  Rep.add("optim.overhead_ns", (PassSeconds * 1e9 - FooRWeighted) / Evals,
          "ns");
  Rep.addTally(Tally);
  Rep.add("core.campaign_s_gmean", geometricMean(First.Seconds), "s");
  Rep.add("core.campaign_s_p90", percentile(First.Seconds, 90), "s");
  Rep.add("core.spec_waste_cpu_pct",
          100.0 * (Speculating.Cpu - First.Cpu) / Speculating.Cpu, "%");
  Rep.add("core.parallel_speedup", First.Wall / Speculating.Wall, "ratio");
  Rep.add("core.coverme_cpu_pct", 100.0, "%");
  addTraceMetrics(Rep, Trace, Walls);
  if (!Trace.write(O.WorkDir + "/spans-source_jit.jsonl"))
    C.expect(false, "source_jit: spans written");
  return Rep;
}
