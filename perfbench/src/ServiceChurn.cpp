//===- ServiceChurn.cpp - Many short concurrent jobs through one Session --===//
//
// Part of the CoverMe reproduction (Fu & Su, PLDI 2017).
//
// The only workload that reaches the service layer (queue, compiled-unit
// cache, journal, checkpoint and resume), the VM tier, and batched VM
// probes from CMA-ES generations. One Session with 4 workers and 1 engine
// thread per job serves a closed loop of 8 clients; each client submits
// a job and waits for that job before submitting its next. Subjects come
// from the embedded sources; tier is VM or JIT half the time each;
// Basinhopping 3 jobs in 4, CMA-ES 1 in 4; a third of submissions are
// fresh source variants that miss the cache; a tenth are migrated mid-run
// through checkpoint() and submitResume() to a second session that
// journals them.
//
// The journal lives in the run's own work directory on the checkout's
// disk, because the benchmark writes nowhere else, so its fsyncs are part
// of what it measures. Journaling every job cost a fifth of the pass time
// on a calm host and doubled it on a busy one, so only the migrated jobs
// are journaled, with a snapshot every 128 committed rounds.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/Checkpoint.h"
#include "lang/SourceSuite.h"
#include "service/CheckpointStore.h"
#include "service/Session.h"
#include "support/Timer.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

using namespace coverme;
using namespace coverme::lang;
using namespace perfbench;

namespace {

constexpr unsigned Workers = 4;
/// Workers of the journaled session that migrated jobs continue on.
constexpr unsigned JournaledWorkers = 1;
constexpr unsigned EngineThreads = 1;
constexpr unsigned Clients = 8;
/// Backend and tier per job, 8 to a subject: Basinhopping 6 in 8, CMA-ES
/// 2 in 8, each half on the VM and half on the JIT tier. A pass holds
/// every (subject, mix) pair a fixed number of times, so the seed moves
/// campaign seeds, order, variants and migrations, but not the mix.
constexpr std::pair<GlobalBackendKind, ExecutionTier> Mix[] = {
    {GlobalBackendKind::Basinhopping, ExecutionTier::Bytecode},
    {GlobalBackendKind::Basinhopping, ExecutionTier::Bytecode},
    {GlobalBackendKind::Basinhopping, ExecutionTier::Bytecode},
    {GlobalBackendKind::Basinhopping, ExecutionTier::Jit},
    {GlobalBackendKind::Basinhopping, ExecutionTier::Jit},
    {GlobalBackendKind::Basinhopping, ExecutionTier::Jit},
    {GlobalBackendKind::CmaEs, ExecutionTier::Bytecode},
    {GlobalBackendKind::CmaEs, ExecutionTier::Jit}};
constexpr size_t MixRepeats = 10;
/// Left out of the mix: sqrt's campaigns run about 1 s each on the VM
/// tier, made half of a pass's CPU, and moved it by 12% between seeds.
/// Long campaigns are source_jit's part; these jobs are short.
const char *const LongSubject = "sqrt";
constexpr unsigned CheckpointEvery = 128;
constexpr unsigned MigrateAfterRounds = 8;

struct Plan {
  size_t Subject = 0;
  ExecutionTier Tier = ExecutionTier::Bytecode;
  GlobalBackendKind Backend = GlobalBackendKind::Basinhopping;
  bool Fresh = false;
  bool Migrate = false;
  uint64_t CampaignSeed = 0;
};

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

/// Per block of \p Block jobs, exactly one (at a seeded position) gets the
/// flag.
std::vector<bool> onePer(Rng &R, size_t N, size_t Block) {
  std::vector<bool> Out;
  while (Out.size() < N) {
    std::vector<char> B(Block, 0);
    B[0] = 1;
    shuffle(B, R);
    Out.insert(Out.end(), B.begin(), B.end());
  }
  Out.resize(N);
  return Out;
}

std::vector<Plan> planJobs(uint64_t Seed) {
  const std::vector<SourceBenchmark> &Suite = sourceSuite();
  Rng R(deriveSeed(Seed, 3, 0));
  std::vector<Plan> Jobs;
  for (size_t Rep = 0; Rep < MixRepeats; ++Rep)
    for (size_t Subject = 0; Subject < Suite.size(); ++Subject)
      for (const auto &[Backend, Tier] : Mix) {
        if (Suite[Subject].Name == LongSubject)
          continue;
        Plan P;
        P.Subject = Subject;
        P.Backend = Backend;
        P.Tier = Tier;
        Jobs.push_back(P);
      }
  // Longest kinds first, seeded order within a kind, so that no long job
  // starts last and runs alone while the other workers idle.
  shuffle(Jobs, R);
  auto Rank = [](const Plan &P) {
    return (P.Backend == GlobalBackendKind::CmaEs ? 0 : 2) +
           (P.Tier == ExecutionTier::Bytecode ? 0 : 1);
  };
  std::stable_sort(Jobs.begin(), Jobs.end(), [&](const Plan &A, const Plan &B) {
    return Rank(A) < Rank(B);
  });
  // A third of submissions are fresh variants, a tenth are migrated.
  std::vector<bool> Fresh = onePer(R, Jobs.size(), 3);
  std::vector<bool> Migrate = onePer(R, Jobs.size(), 10);
  for (size_t K = 0; K < Jobs.size(); ++K) {
    Jobs[K].Fresh = Fresh[K];
    Jobs[K].Migrate = Migrate[K];
    Jobs[K].CampaignSeed = deriveSeed(Seed, 4, K);
  }
  return Jobs;
}

JobRequest makeRequest(const Plan &P, size_t Index) {
  const SourceBenchmark &B = sourceSuite()[P.Subject];
  JobRequest Req;
  Req.Source = B.Source;
  // A fresh variant differs only in a comment: same program, new cache key.
  if (P.Fresh)
    Req.Source += "\n/* variant " + std::to_string(Index) + " */\n";
  Req.Entry = B.Name;
  Req.Compile.TotalLines = B.PaperLines;
  Req.Compile.Tier = P.Tier;
  Req.Campaign.Seed = P.CampaignSeed;
  Req.Campaign.Threads = EngineThreads;
  Req.Campaign.Backend = P.Backend;
  if (P.Migrate)
    Req.Campaign.SuspendAfterRounds = MigrateAfterRounds;
  return Req;
}

struct JobRecord {
  CampaignResult Result;
  uint64_t Digest = 0;
  bool Done = false;
  bool Migrated = false;
  bool CacheHit = false;
  double CompileSeconds = 0.0;
  double CampaignSeconds = 0.0;
  double LatencySeconds = 0.0;
  double CheckpointMs = 0.0, ResumeMs = 0.0;
  size_t SnapshotBytes = 0;
  unsigned CheckpointsSaved = 0;
  std::string Error;
};

/// Waits for job \p Id by polling its status every 5 ms. Session::wait
/// shares one condition variable among all waiters and the engine notifies
/// it on every committed round, so every blocked client would wake on every
/// round of every job; on a 4-vCPU VM those wake-ups, not the campaigns,
/// set the pass time (6.0-13.0 s for the same 100 jobs). Jobs queue behind
/// the workers, so the poll delay leaves the workers busy and adds at most
/// 5 ms to a job's latency.
void awaitJob(Session &S, uint64_t Id) {
  for (;;) {
    JobStatus St;
    if (!S.status(Id, St) || St.State == JobState::Suspended ||
        St.State == JobState::Done || St.State == JobState::Failed ||
        St.State == JobState::Cancelled)
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// One client's closed loop over its share of the jobs: submit to \p S,
/// wait for that same job, and only then submit the next. Migrated jobs
/// continue on \p Journaled.
void clientLoop(Session &S, Session &Journaled, const std::vector<Plan> &Jobs,
                unsigned Client, std::vector<JobRecord> &Records, Tracer &T) {
  for (size_t K = Client; K < Jobs.size(); K += Clients) {
    JobRecord &J = Records[K];
    JobRequest Req = makeRequest(Jobs[K], K);
    WallTimer Latency;
    uint64_t Id = 0;
    {
      Tracer::Span Sp(T, "service.Session::submit", K + 1, 0);
      Id = S.submit(Req);
    }
    {
      Tracer::Span Sp(T, "service.Session::wait", K + 1, 0);
      awaitJob(S, Id);
    }
    JobStatus St;
    S.status(Id, St);
    J.CacheHit = St.CacheHit;
    J.CompileSeconds = St.CompileSeconds;
    Session *Owner = &S;
    if (St.State == JobState::Suspended) {
      // Migration: serialize at the suspension point, retire the original,
      // continue from the bytes as a new job of the journaled session.
      std::vector<uint8_t> Bytes;
      std::string Err;
      CampaignResult Prefix;
      S.result(Id, Prefix);
      J.CampaignSeconds += Prefix.Seconds;
      WallTimer Ck;
      bool Ok = false;
      {
        Tracer::Span Sp(T, "service.Session::checkpoint", K + 1, 0);
        Ok = S.checkpoint(Id, Bytes, Err);
      }
      J.CheckpointMs = 1e3 * Ck.seconds();
      S.cancel(Id);
      if (!Ok) {
        J.Error = "checkpoint: " + Err;
        continue;
      }
      J.SnapshotBytes = Bytes.size();
      WallTimer Rs;
      {
        Tracer::Span Sp(T, "service.Session::submitResume", K + 1, 0);
        Id = Journaled.submitResume(Req, Bytes, Err);
      }
      J.ResumeMs = 1e3 * Rs.seconds();
      if (!Id) {
        J.Error = "submitResume: " + Err;
        continue;
      }
      {
        Tracer::Span Sp(T, "service.Session::wait", K + 1, 0);
        awaitJob(Journaled, Id);
      }
      Journaled.status(Id, St);
      J.CheckpointsSaved = St.CheckpointsSaved;
      if (!St.StoreError.empty())
        J.Error = "journal: " + St.StoreError;
      J.Migrated = true;
      Owner = &Journaled;
    }
    J.LatencySeconds = Latency.seconds();
    J.Done = St.State == JobState::Done && Owner->result(Id, J.Result);
    if (!J.Done && J.Error.empty())
      J.Error = std::string("job ended ") + jobStateName(St.State) + ": " +
                St.Error;
    J.CampaignSeconds += J.Result.Seconds;
    J.Digest = resultDigest(J.Result);
  }
}

struct PassOutcome {
  std::vector<JobRecord> Records;
  CompiledUnitCache::Stats Cache;
  size_t JournalLeft = 0;
  bool JournalOk = false;
};

} // namespace

Report perfbench::runServiceChurn(const RunOptions &O, Checks &C) {
  Report Rep;
  const std::vector<SourceBenchmark> &Suite = sourceSuite();
  const std::vector<Plan> Jobs = planJobs(O.Seed);

  // Set-up: opening the journal and starting both sessions, as every pass
  // does. An untimed warm-up, then repetitions for a stable median.
  std::vector<double> Setups;
  unsigned JournalSerial = 0;
  auto OpenJournalDir = [&] {
    return O.WorkDir + "/journal-" + std::to_string(JournalSerial++);
  };
  for (unsigned I = 0; I <= SetupRepeats; ++I) {
    std::string Dir = OpenJournalDir();
    WallTimer T;
    {
      CheckpointStore Store(Dir);
      Session S({Workers, nullptr, 0});
      Session Journaled({JournaledWorkers, &Store, CheckpointEvery});
      if (I)
        Setups.push_back(T.seconds());
    }
    std::filesystem::remove_all(Dir);
  }

  Tracer Trace(O.Trace), Untraced(false);
  std::vector<PassOutcome> Passes;
  std::vector<double> PassCpu;
  double PeakRss = 0.0;
  const double Steal0 = hostStealSeconds();

  auto Pass = [&](unsigned PassIndex) {
    const bool Traced = O.Trace && PassIndex == 1;
    Tracer &T = Traced ? Trace : Untraced;
    PassOutcome Out;
    Out.Records.resize(Jobs.size());
    std::string Dir = OpenJournalDir();
    double Seconds = 0.0;
    {
      CheckpointStore Store(Dir);
      Session S({Workers, nullptr, 0});
      Session Journaled({JournaledWorkers, &Store, CheckpointEvery});
      Out.JournalOk = Store.ok();
      double Cpu = processCpuSeconds();
      WallTimer Wall;
      std::vector<std::thread> Threads;
      for (unsigned Client = 0; Client < Clients; ++Client)
        Threads.emplace_back(clientLoop, std::ref(S), std::ref(Journaled),
                             std::cref(Jobs), Client, std::ref(Out.Records),
                             std::ref(T));
      for (std::thread &Th : Threads)
        Th.join();
      Seconds = Wall.seconds();
      PassCpu.push_back(processCpuSeconds() - Cpu);
      Out.Cache = S.cacheStats();
      Out.JournalLeft = Store.loadAll().size();
    }
    std::filesystem::remove_all(Dir);
    if (Passes.empty())
      PeakRss = peakRssMb();

    for (size_t K = 0; K < Jobs.size(); ++K) {
      JobRecord &J = Out.Records[K];
      const std::string Tag = "service_churn job " + std::to_string(K) + ": ";
      C.expect(J.Done && J.Error.empty(), Tag + "completed (" + J.Error + ")");
      if (Passes.empty())
        continue;
      C.expect(J.Digest == Passes.front().Records[K].Digest,
               Tag + "repeats bit-identically in pass " +
                   std::to_string(PassIndex + 1));
      J.Result = CampaignResult(); // only the first pass's results are kept
    }
    C.expect(Out.JournalOk && Out.JournalLeft == 0,
             "service_churn: journal opened and every entry retired");
    Passes.push_back(std::move(Out));
    return Seconds;
  };

  const std::vector<double> Walls = runPasses(O, Pass);
  const double Steal = hostStealSeconds() - Steal0;
  Rep.Passes = static_cast<unsigned>(Walls.size());

  // Output checks on the first pass, off the clock: every suite re-runs on
  // the tree-walker, and every migrated job re-runs uninterrupted.
  const std::vector<JobRecord> &First = Passes.front().Records;
  std::vector<SourceProgram> Walkers;
  for (const SourceBenchmark &B : Suite) {
    SourceProgramOptions Opts;
    Opts.TotalLines = B.PaperLines;
    Opts.Tier = ExecutionTier::TreeWalker;
    Walkers.push_back(compileSourceProgram(B.Source, B.Name, Opts));
  }
  unsigned Migrated = 0;
  for (size_t K = 0; K < Jobs.size(); ++K) {
    const JobRecord &J = First[K];
    if (!J.Done)
      continue;
    const std::string Tag = "service_churn job " + std::to_string(K) + ": ";
    const SourceProgram &W = Walkers[Jobs[K].Subject];
    C.expect(W.success() &&
                 suiteCoverageMatches(
                     W.Prog.NumSites, J.Result.Inputs,
                     [&W](const double *X) {
                       return W.Interp->callEntry(*W.Entry, X);
                     },
                     J.Result.Coverage),
             Tag + "suite re-executed on the tree-walker reproduces the "
                   "job's coverage");
    if (!J.Migrated)
      continue;
    ++Migrated;
    JobRequest Req = makeRequest(Jobs[K], K);
    Req.Campaign.SuspendAfterRounds = 0;
    SourceProgram Direct =
        compileSourceProgram(Req.Source, Req.Entry, Req.Compile);
    C.expect(Direct.success() &&
                 resultDigest(CoverMe(Direct.Prog, Req.Campaign).run()) ==
                     J.Digest,
             Tag + "migrated job matches its uninterrupted re-run");
  }

  Digest WorkloadDigest;
  for (const JobRecord &J : First)
    WorkloadDigest.mix(J.Digest);
  Rep.Digest = WorkloadDigest.H;
  std::ostringstream Ctx;
  Ctx << "{\"nproc\": " << ThreadPool::hardwareThreads()
      << ", \"workers\": " << Workers << ", \"engine_threads\": "
      << EngineThreads << ", \"clients\": " << Clients
      << ", \"jobs\": " << Jobs.size() << ", \"migrated\": " << Migrated
      << ", \"pass_walls_s\": " << jsonList(Walls) << ", \"steal_s\": " << Steal << "}";
  Rep.ContextJson = Ctx.str();

  if (!O.Trace) {
    double Coverage = 0.0;
    for (const JobRecord &J : First)
      Coverage += J.Result.BranchCoverage;
    addEndToEnd(Rep, Setups, Walls, PassCpu, PeakRss,
                100.0 * Coverage / static_cast<double>(First.size()));
    return Rep;
  }

  CampaignTally Tally;
  std::vector<double> CampaignSeconds, Latencies, CompileMs, QueueWait,
      CheckpointMs, ResumeMs, SnapshotBytes;
  double JournalSaves = 0, StoreErrors = 0;
  for (const JobRecord &J : First) {
    Tally.add(J.Result);
    CampaignSeconds.push_back(J.CampaignSeconds);
    Latencies.push_back(J.LatencySeconds);
    if (!J.CacheHit)
      CompileMs.push_back(1e3 * J.CompileSeconds);
    QueueWait.push_back(J.LatencySeconds - J.CampaignSeconds -
                        J.CompileSeconds);
    if (J.Migrated) {
      CheckpointMs.push_back(J.CheckpointMs);
      ResumeMs.push_back(J.ResumeMs);
      SnapshotBytes.push_back(static_cast<double>(J.SnapshotBytes));
    }
    JournalSaves += J.CheckpointsSaved;
    StoreErrors += J.Error.rfind("journal", 0) == 0 ? 1 : 0;
  }
  const CompiledUnitCache::Stats &Cache = Passes.front().Cache;
  Rep.addTally(Tally);
  Rep.add("core.campaign_s_gmean", geometricMean(CampaignSeconds), "s");
  Rep.add("core.campaign_s_p90", percentile(CampaignSeconds, 90), "s");
  Rep.add("service.jobs", static_cast<double>(First.size()), "count");
  Rep.add("service.job_s_p50", median(Latencies), "s");
  Rep.add("service.job_s_p90", percentile(Latencies, 90), "s");
  Rep.add("service.cache_hit_pct",
          100.0 * static_cast<double>(Cache.Hits) /
              static_cast<double>(std::max<uint64_t>(Cache.Hits + Cache.Misses, 1)),
          "%");
  Rep.add("service.compile_ms_p50", median(CompileMs), "ms");
  Rep.add("service.queue_wait_s_p50", median(QueueWait), "s");
  Rep.add("service.queue_wait_s_p90", percentile(QueueWait, 90), "s");
  Rep.add("service.checkpoint_ms_p50", median(CheckpointMs), "ms");
  Rep.add("service.resume_ms_p50", median(ResumeMs), "ms");
  Rep.add("service.journal_saves", JournalSaves, "count");
  Rep.add("service.store_errors", StoreErrors, "count");
  Rep.add("service.snapshot_bytes", median(SnapshotBytes), "bytes");
  Rep.add("core.coverme_cpu_pct", 100.0, "%");
  addTraceMetrics(Rep, Trace, Walls);
  if (!Trace.write(O.WorkDir + "/spans-service_churn.jsonl"))
    C.expect(false, "service_churn: spans written");
  return Rep;
}
