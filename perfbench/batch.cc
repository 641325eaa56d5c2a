// batch_paper: the paper's Table 3 quick matrix as a closed batch on one
// engine -- every (function, method, N, repetition) cell submitted at once,
// requests built the way exp::Runner builds them. Each pass uses a fresh
// engine, so metamodel fits, relabel streams and index builds run cold and
// every cache tier is written, not read. Passes repeat until the window is
// spent; throughput is reported per pass. The pass's per-job metric table
// must be identical across passes and between the untraced and the traced
// phase. After the passes, an unloaded closed-loop probe over a socket
// measures the four serving classes' latencies (see serve.cc).
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "core/method.h"
#include "engine/discovery_engine.h"
#include "functions/datagen.h"
#include "functions/registry.h"
#include "perfbench.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

namespace engine = reds::engine;
namespace fun = reds::fun;

struct FunctionContext {
  std::unique_ptr<fun::TestFunction> function;
  fun::DesignKind design = fun::DesignKind::kLatinHypercube;
  std::shared_ptr<const reds::Dataset> test;
  std::shared_ptr<const std::vector<bool>> relevant;
};

struct Matrix {
  std::vector<std::string> functions;
  std::vector<std::string> methods;
  std::vector<int> sizes;
  int reps = 1;
  int test_size = 0;
  int threads = 0;
  uint64_t seed = 0;
  reds::RunOptions options;
};

struct Pass {
  double wall_s = 0.0;
  int64_t jobs = 0;
  int64_t failed = 0;
  double pr_auc = 0.0;  // mean over jobs
  std::string table;    // every job's metrics, full precision
  double relabel_rows = 0.0;
  double peel_steps = 0.0;
  double busy_ratio = 0.0;
  double queue_depth_max = 0.0;
  reds::obs::RegistrySnapshot metrics;
};

Matrix MatrixFromArgs(const Args& args) {
  Matrix m;
  m.functions = args.List("functions");
  m.methods = args.List("methods");
  for (const std::string& n : args.List("sizes")) m.sizes.push_back(std::stoi(n));
  m.reps = static_cast<int>(args.Int("reps"));
  m.test_size = static_cast<int>(args.Int("test_size"));
  m.threads = static_cast<int>(args.Int("threads"));
  m.seed = static_cast<uint64_t>(args.Int("seed"));
  m.options.l_prim = static_cast<int>(args.Int("l_prim"));
  m.options.l_bi = static_cast<int>(args.Int("l_bi"));
  m.options.bumping_q = static_cast<int>(args.Int("bumping_q"));
  m.options.tune_metamodel = false;
  m.options.budget = reds::ml::TuningBudget::kQuick;
  return m;
}

// Instantiates the functions and their shared test sets (the Runner's
// set-up). Spans go to `spans` when non-null.
std::vector<FunctionContext> SetUp(const Matrix& m, SpanLog* spans) {
  std::vector<FunctionContext> contexts;
  for (const std::string& name : m.functions) {
    auto fn = fun::MakeFunction(name);
    if (!fn.ok()) throw std::invalid_argument("unknown function " + name);
    FunctionContext ctx;
    ctx.function = std::move(*fn);
    ctx.design = fun::DefaultDesignFor(*ctx.function);
    ctx.relevant =
        std::make_shared<const std::vector<bool>>(ctx.function->relevant());
    contexts.push_back(std::move(ctx));
  }
  reds::ThreadPool pool(m.threads);
  for (size_t fi = 0; fi < contexts.size(); ++fi) {
    pool.Submit([&m, &contexts, fi, spans] {
      FunctionContext& ctx = contexts[fi];
      const Clock::time_point start = Clock::now();
      ctx.test = std::make_shared<const reds::Dataset>(fun::MakeScenarioDataset(
          *ctx.function, m.test_size, ctx.design,
          reds::DeriveSeed(m.seed, 0x7e57ULL ^ (fi + 1))));
      if (spans != nullptr) spans->Add("datagen", start, Clock::now());
    });
  }
  pool.Wait();
  return contexts;
}

std::string Key(const std::string& f, const std::string& method, int n) {
  return f + "|" + method + "|" + std::to_string(n);
}

Pass RunPass(const Matrix& m, const std::vector<FunctionContext>& contexts,
             const std::string& trace_dir, SpanLog* spans) {
  const bool traced = !trace_dir.empty();
  engine::EngineConfig config;
  config.threads = m.threads;
  config.seed = m.seed;
  config.stream_block_rows = m.options.stream_block_rows;
  config.enable_persistent_cache = false;  // timed runs never read a disk tier
  config.trace_dir = trace_dir;
  engine::DiscoveryEngine eng(config);
  for (const auto& f : m.functions) {
    for (const auto& method : m.methods) {
      for (int n : m.sizes) eng.results().Reserve(Key(f, method, n), m.reps);
    }
  }

  Pass pass;
  PoolSampler sampler(&eng.metrics(), m.threads);
  const Clock::time_point start = Clock::now();
  // Method outermost, as in exp::Runner: consecutive jobs target different
  // datasets.
  std::vector<engine::JobHandle> jobs;
  for (size_t mi = 0; mi < m.methods.size(); ++mi) {
    for (size_t fi = 0; fi < contexts.size(); ++fi) {
      const FunctionContext& ctx = contexts[fi];
      for (int n : m.sizes) {
        for (int rep = 0; rep < m.reps; ++rep) {
          const uint64_t data_seed = reds::DeriveSeed(
              m.seed, (fi + 1) * 1000003ULL + static_cast<uint64_t>(n) * 131ULL +
                          static_cast<uint64_t>(rep));
          engine::DiscoveryRequest request;
          request.make_train = [&ctx, n, data_seed, spans] {
            const Clock::time_point t = Clock::now();
            reds::Dataset d = fun::MakeScenarioDataset(*ctx.function, n,
                                                       ctx.design, data_seed);
            if (spans != nullptr) spans->Add("datagen", t, Clock::now());
            return d;
          };
          request.method = m.methods[mi];
          request.options = m.options;
          request.options.sampler = fun::SamplerFor(ctx.design);
          request.options.seed = reds::DeriveSeed(data_seed, 0x6d ^ (mi + 1));
          request.test = ctx.test;
          request.relevant = ctx.relevant;
          request.cell = Key(m.functions[fi], m.methods[mi], n);
          request.rep = rep;
          // The traced phase keeps trajectories to count peel steps.
          request.keep_output = traced;
          jobs.push_back(eng.Submit(std::move(request)));
        }
      }
    }
  }
  eng.WaitAll();
  pass.wall_s = MsBetween(start, Clock::now()) / 1000.0;
  sampler.Stop();
  pass.busy_ratio = sampler.busy_ratio();
  pass.queue_depth_max = sampler.max_depth();

  double pr_sum = 0.0;
  for (const engine::JobHandle& job : jobs) {
    ++pass.jobs;
    if (job->state() != engine::JobState::kDone) {
      ++pass.failed;
      pass.table += job->request().cell + " failed\n";
      continue;
    }
    const engine::MetricSet& r = job->metrics();
    char line[256];
    std::snprintf(line, sizeof(line), "%.17g %.17g %.17g %.17g %.17g %.17g\n",
                  r.pr_auc, r.precision, r.recall, r.wracc, r.restricted,
                  r.irrel);
    pass.table += job->request().cell + " " + line;
    pr_sum += r.pr_auc;
    if (!traced) continue;
    const auto spec = reds::MethodSpec::Parse(job->request().method);
    const bool bi = spec->family == reds::MethodSpec::Family::kBi;
    const int relabels = job->trace()->CountEvents("relabel.stream") +
                         job->trace()->CountEvents("relabel.materialize");
    pass.relabel_rows += relabels * (bi ? m.options.l_bi : m.options.l_prim);
    if (spec->family == reds::MethodSpec::Family::kPrim &&
        !job->output().trajectory.empty()) {
      pass.peel_steps += static_cast<double>(job->output().trajectory.size() - 1);
    }
  }
  pass.pr_auc = pass.jobs > 0 ? pr_sum / static_cast<double>(pass.jobs) : 0.0;
  pass.metrics = eng.metrics().TakeSnapshot();
  eng.Shutdown();
  return pass;
}

// Per-pass ledger of the traced passes: extensive figures (counts, busy
// time) are averaged per pass, quantiles come from all passes together.
void FillLedger(const std::vector<Pass>& passes, const SpanLog& spans,
                Ledger* ledger, Checks* checks) {
  reds::obs::RegistrySnapshot merged;
  double relabel_rows = 0.0;
  double peel_steps = 0.0;
  double busy = 0.0;
  double depth = 0.0;
  for (const Pass& p : passes) {
    merged.Merge(p.metrics);
    relabel_rows += p.relabel_rows;
    peel_steps += p.peel_steps;
    busy += p.busy_ratio;
    depth = std::max(depth, p.queue_depth_max);
  }
  const reds::obs::RegistrySnapshot none;
  Ledger l;
  AddStageLedger(none, merged, &l);
  AddCacheLedger(none, merged, &l);
  AddQuantiles(none, merged, "engine.pool.task_wait_ns", "engine.pool_wait_ms", &l);
  AddQuantiles(none, merged, "engine.job.warm_latency_ns", "engine.job_warm_ms", &l);
  AddQuantiles(none, merged, "engine.job.cold_latency_ns", "engine.job_cold_ms", &l);
  l["engine.jobs_coalesced"] =
      static_cast<double>(CounterDelta(none, merged, "engine.jobs.coalesced"));
  l["engine.jobs_failed"] =
      static_cast<double>(CounterDelta(none, merged, "engine.jobs.failed"));
  l["core.relabel_rows"] = relabel_rows;
  l["core.peel_steps"] = peel_steps;
  spans.Summarize("datagen", "functions.datagen_ms", &l);
  const double n = static_cast<double>(passes.size());
  for (auto& [name, value] : l) {
    const bool extensive =
        name.ends_with(".count") || name.ends_with(".busy_ms") ||
        name.ends_with("_lookups") || name == "ml.fits" ||
        name == "core.relabel_rows" || name == "core.peel_steps" ||
        name == "engine.jobs_coalesced" || name == "engine.jobs_failed";
    if (extensive) value /= n;
  }
  l["engine.pool_busy_ratio"] = busy / n;
  l["engine.queue_depth_max"] = depth;
  for (const auto& [name, value] : l) (*ledger)[name] = value;

  // Layer isolation: the batch never touches the net layer or ingestion.
  const uint64_t net_work =
      CounterDelta(none, merged, "net.submits_admitted") +
      CounterDelta(none, merged, "net.results_delivered");
  checks->Add("batch.no_net_work", net_work == 0,
              std::to_string(net_work) + " net submits/results");
  checks->Add("batch.no_ingest", l["engine.ingest_ms.count"] == 0.0,
              std::to_string(l["engine.ingest_ms.count"]) + " ingest spans per pass");
}

}  // namespace

void RunBatch(const Args& args, Report* report) {
  const Matrix m = MatrixFromArgs(args);
  const double seconds = args.Num("seconds");
  const int setup_reps = static_cast<int>(args.Int("setup_reps"));
  const bool trace = args.Int("trace") != 0;
  const std::string trace_dir = args.Str("out_dir") + "/traces-batch";
  ServeSession probe(args, ServeSession::Mode::kProbe);

  std::vector<std::string> tables;
  for (const bool traced : {false, true}) {
    if (traced && !trace) break;
    const std::string name = traced ? "traced" : "untraced";
    Phase& phase = report->phases[name];
    SpanLog spans;
    SpanLog* span_log = traced ? &spans : nullptr;
    std::vector<FunctionContext> contexts;
    for (int k = 0; k < setup_reps; ++k) {
      const Clock::time_point start = Clock::now();
      contexts = SetUp(m, nullptr);
      phase.setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    }
    std::vector<Pass> passes;
    const Clock::time_point window = Clock::now();
    do {
      passes.push_back(RunPass(m, contexts, traced ? trace_dir : "", span_log));
      std::filesystem::remove_all(trace_dir);
    } while (MsBetween(window, Clock::now()) < seconds * 1000.0);

    bool identical = true;
    for (const Pass& p : passes) {
      phase.attempted += p.jobs;
      phase.failed += p.failed;
      phase.jobs_per_s.push_back(static_cast<double>(p.jobs) / p.wall_s);
      identical = identical && p.table == passes.front().table;
    }
    phase.pr_auc = passes.front().pr_auc;
    tables.push_back(passes.front().table);
    report->checks.Add("batch." + name + ".passes_identical", identical,
                       std::to_string(passes.size()) + " passes");
    report->checks.Add("batch." + name + ".pr_auc_in_range",
                       std::isfinite(phase.pr_auc) && phase.pr_auc > 0.0 &&
                           phase.pr_auc <= 100.0,
                       std::to_string(phase.pr_auc));
    if (traced) FillLedger(passes, spans, &phase.ledger, &report->checks);

    probe.Run(name, traced, &phase, &report->checks);
    phase.peak_rss_mb = PeakRssMb();
  }
  if (tables.size() == 2) {
    report->checks.Add("batch.tables_identical_traced_untraced",
                       tables[0] == tables[1], "per-job metric tables");
  }
  probe.Verify(&report->checks);
  report->env["simd_level"] = probe.simd_level();
}

}  // namespace perfbench
