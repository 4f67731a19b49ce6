//===- main.cpp - The perfbench binary ------------------------------------===//
//
// Part of the CoverMe reproduction (Fu & Su, PLDI 2017).
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR
//
// Runs one workload and prints its digest, its context and, as the last
// line, one JSON object with the output-check counts and the metrics:
// the end-to-end ones untraced, the per-layer ones with --trace 1.
// perfbench/run.py builds this binary and wraps that line into the
// benchmark's result. Exits 1 when an output check failed, 2 on usage.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "lang/SourceSuite.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

using namespace perfbench;

namespace {

const char *const EndToEnd[] = {"setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                "coverme_coverage_pct"};

/// Every per-layer metric with its unit; a workload that does not reach a
/// layer reports it as 0. The subject.* split is appended per source.
const std::pair<const char *, const char *> PerLayer[] = {
    {"trace.overhead_s", "s"},
    {"trace.overhead_pct", "%"},
    {"lang.parse_ms", "ms"},
    {"lang.sema_ms", "ms"},
    {"lang.codegen_ms", "ms"},
    {"lang.jit_ms", "ms"},
    {"lang.bytecode_insns", "count"},
    {"lang.jit_code_bytes", "bytes"},
    {"lang.jit_fn_pct", "%"},
    {"lang.body_ns", "ns"},
    {"fdlibm.body_ns", "ns"},
    {"runtime.foo_r_ns", "ns"},
    {"runtime.pen_ns", "ns"},
    {"optim.evals_per_round", "count"},
    {"optim.overhead_ns", "ns"},
    {"core.campaigns", "count"},
    {"core.rounds", "count"},
    {"core.evals", "count"},
    {"core.accept_ratio", "ratio"},
    {"core.infeasible_marks", "count"},
    {"core.spec_waste_cpu_pct", "%"},
    {"core.parallel_speedup", "ratio"},
    {"core.runner_imbalance", "ratio"},
    {"core.coverme_cpu_pct", "%"},
    {"core.campaign_s_gmean", "s"},
    {"core.campaign_s_p90", "s"},
    {"fuzz.rand_execs", "count"},
    {"fuzz.afl_execs", "count"},
    {"fuzz.rand_ns_per_exec", "ns"},
    {"fuzz.afl_ns_per_exec", "ns"},
    {"fuzz.afl_harness_ns", "ns"},
    {"fuzz.afl_corpus", "count"},
    {"fuzz.afl_cpu_pct", "%"},
    {"fuzz.rand_cpu_pct", "%"},
    {"fuzz.rand_coverage_pct", "%"},
    {"fuzz.afl_coverage_pct", "%"},
    {"service.jobs", "count"},
    {"service.job_s_p50", "s"},
    {"service.job_s_p90", "s"},
    {"service.cache_hit_pct", "%"},
    {"service.compile_ms_p50", "ms"},
    {"service.queue_wait_s_p50", "s"},
    {"service.queue_wait_s_p90", "s"},
    {"service.checkpoint_ms_p50", "ms"},
    {"service.resume_ms_p50", "ms"},
    {"service.journal_saves", "count"},
    {"service.store_errors", "count"},
    {"service.snapshot_bytes", "bytes"},
    {"self.lang_s", "s"},
    {"self.fdlibm_s", "s"},
    {"self.runtime_s", "s"},
    {"self.optim_s", "s"},
    {"self.core_s", "s"},
    {"self.fuzz_s", "s"},
    {"self.service_s", "s"},
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload table2_native|source_jit|service_churn "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               Argv0);
  return 2;
}

/// The metrics the mode must print, in order, with units.
std::vector<std::pair<std::string, std::string>> expectedMetrics(bool Trace) {
  std::vector<std::pair<std::string, std::string>> Out;
  if (!Trace) {
    for (const char *Name : EndToEnd)
      Out.push_back({Name, ""});
    return Out;
  }
  for (const auto &[Name, Unit] : PerLayer)
    Out.push_back({Name, Unit});
  for (const coverme::lang::SourceBenchmark &B : coverme::lang::sourceSuite())
    for (const char *Part : {"body_ns", "pen_ns", "engine_ns"})
      Out.push_back({"subject." + B.Name + "." + Part, "ns"});
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I], *Value = Argv[I + 1];
    char *End = nullptr;
    if (!std::strcmp(Flag, "--workload")) {
      O.Workload = Value;
    } else if (!std::strcmp(Flag, "--seed")) {
      O.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = End != Value && !*End;
    } else if (!std::strcmp(Flag, "--seconds")) {
      O.Seconds = std::strtod(Value, &End);
      HaveSeconds = End != Value && !*End && O.Seconds > 0;
    } else if (!std::strcmp(Flag, "--trace")) {
      HaveTrace = !std::strcmp(Value, "0") || !std::strcmp(Value, "1");
      O.Trace = !std::strcmp(Value, "1");
    } else if (!std::strcmp(Flag, "--work-dir")) {
      O.WorkDir = Value;
    } else {
      return usage(Argv[0]);
    }
  }
  if (Argc % 2 != 1 || !HaveSeed || !HaveSeconds || !HaveTrace ||
      O.WorkDir.empty())
    return usage(Argv[0]);

  Checks C;
  Report Rep;
  if (O.Workload == "table2_native")
    Rep = runTable2Native(O, C);
  else if (O.Workload == "source_jit")
    Rep = runSourceJit(O, C);
  else if (O.Workload == "service_churn")
    Rep = runServiceChurn(O, C);
  else
    return usage(Argv[0]);

  // The printed metric set must be exactly the mode's list: a workload
  // that misses or misnames one is a bug, not a result.
  std::map<std::string, std::pair<double, std::string>> Got;
  for (const auto &[Name, ValueUnit] : Rep.Metrics) {
    C.expect(Got.insert({Name, ValueUnit}).second,
             "metric " + Name + " reported once");
    C.expect(std::isfinite(ValueUnit.first), "metric " + Name + " is finite");
  }
  std::vector<std::pair<std::string, std::string>> Want =
      expectedMetrics(O.Trace);
  std::set<std::string> Known;
  for (const auto &[Name, Unit] : Want) {
    Known.insert(Name);
    auto It = Got.find(Name);
    if (It == Got.end()) {
      if (!O.Trace)
        C.expect(false, "metric " + Name + " reported");
      Got[Name] = {0.0, Unit};
    } else if (!Unit.empty()) {
      C.expect(It->second.second == Unit, "metric " + Name + " in " + Unit);
    }
  }
  for (const auto &Entry : Got)
    C.expect(Known.count(Entry.first) != 0,
             "metric " + Entry.first + " is a declared metric");

  std::printf("workload %s seed %llu: %u pass(es)\n", O.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), Rep.Passes);
  std::printf("digest %s\n", hex64(Rep.Digest).c_str());
  std::printf("context %s\n", Rep.ContextJson.c_str());
  for (const std::string &M : C.messages())
    std::fprintf(stderr, "CHECK FAILED: %s\n", M.c_str());
  std::printf("{\"workload\": \"%s\", \"digest\": \"%s\", \"attempted\": %llu, "
              "\"failed\": %llu, \"cells\": %s, \"metrics\": {",
              O.Workload.c_str(), hex64(Rep.Digest).c_str(),
              static_cast<unsigned long long>(C.attempted()),
              static_cast<unsigned long long>(C.failed()),
              Rep.ExtraJson.empty() ? "null" : Rep.ExtraJson.c_str());
  bool FirstMetric = true;
  for (const auto &[Name, Unit] : Want) {
    const auto &[Value, GotUnit] = Got[Name];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                FirstMetric ? "" : ", ", Name.c_str(),
                std::isfinite(Value) ? Value : 0.0, GotUnit.c_str());
    FirstMetric = false;
  }
  std::printf("}}\n");
  return C.failed() ? 1 : 0;
}
