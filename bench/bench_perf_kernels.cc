// Perf-regression harness for the columnar and quantized hot paths: times
// each fast kernel against its golden reference (or, for approximate
// kernels, its exact counterpart) on the paper-scale shapes (PRIM peeling
// over L relabeled points, GBT/RF metamodel fits, BI beam search) and
// emits machine-readable JSON, extending the BENCH_*.json
// trajectory. Exact kernels must reproduce their reference bit-for-bit;
// approximate kernels (histogram trees beyond the bin budget) must stay
// within a small training-quality delta.
//
//   bench_perf_kernels            # paper scale: n=10k, L=100k, d=10
//   bench_perf_kernels --quick    # CI smoke: tiny sizes, seconds not minutes
//   bench_perf_kernels --out BENCH_pr3.json
//   bench_perf_kernels --quick --check-against bench/quick_reference.json
//                                 # fail when timings regress > 3x
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/best_interval.h"
#include "core/bumping.h"
#include "core/dataset_source.h"
#include "core/method.h"
#include "core/prim.h"
#include "core/quality.h"
#include "core/quantile_sketch_reference.h"
#include "engine/discovery_engine.h"
#include "functions/dsgc.h"
#include "ml/gbt.h"
#include "ml/histogram.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/svm.h"
#include "ml/tuning.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/coordinator.h"
#include "shard/source_spec.h"
#include "shard/worker.h"
#include "util/rng.h"
#include "util/simd.h"

namespace reds {
namespace {

struct PerfFlags {
  bool quick = false;
  int n_train = 10000;   // metamodel training size (paper Fig. 9 scale)
  int l_points = 100000; // relabeled dataset size L
  int dims = 10;
  int reps = 3;          // timing repetitions; best is reported
  int threads = 4;       // for the *_parallel kernels
  uint64_t seed = 42;
  std::string out;           // JSON path; empty: stdout only
  std::string metrics_out;   // MetricsRegistry JSON path; empty: none
  std::string check_against; // reference JSON; empty: no regression gate
  double check_tolerance = 3.0;
  std::string only;          // substring filter on kernel names; empty: all
};

PerfFlags ParseFlags(int argc, char** argv) {
  PerfFlags flags;
  auto next_value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[*i]);
      std::exit(2);
    }
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      flags.quick = true;
    } else if (arg == "--full") {
      flags.quick = false;
    } else if (arg == "--n") {
      flags.n_train = std::atoi(next_value(&i));
    } else if (arg == "--l") {
      flags.l_points = std::atoi(next_value(&i));
    } else if (arg == "--d") {
      flags.dims = std::atoi(next_value(&i));
    } else if (arg == "--reps") {
      flags.reps = std::atoi(next_value(&i));
    } else if (arg == "--threads") {
      flags.threads = std::atoi(next_value(&i));
    } else if (arg == "--seed") {
      flags.seed = static_cast<uint64_t>(std::atoll(next_value(&i)));
    } else if (arg == "--out") {
      flags.out = next_value(&i);
    } else if (arg == "--metrics-out") {
      flags.metrics_out = next_value(&i);
    } else if (arg == "--check-against") {
      flags.check_against = next_value(&i);
    } else if (arg == "--check-tolerance") {
      flags.check_tolerance = std::atof(next_value(&i));
    } else if (arg == "--only") {
      flags.only = next_value(&i);
    } else if (arg == "--help") {
      std::printf(
          "usage: bench_perf_kernels [--quick|--full] [--n N] [--l L] "
          "[--d D] [--reps R] [--threads T] [--seed S] [--out file.json] "
          "[--metrics-out metrics.json] [--check-against ref.json] "
          "[--check-tolerance X] [--only name_substring]\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (see --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  if (flags.quick) {
    flags.n_train = 600;
    flags.l_points = 3000;
    flags.dims = 6;
    flags.reps = 1;
  }
  return flags;
}

Dataset RandomData(int n, int dim, uint64_t seed, int distinct_values = 0) {
  Rng rng(seed);
  Dataset d(dim);
  d.Reserve(n);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) {
      v = distinct_values > 0
              ? static_cast<double>(rng.UniformInt(
                    static_cast<uint64_t>(distinct_values))) /
                    distinct_values
              : rng.Uniform();
    }
    const double p = (x[0] < 0.45 && x[1] > 0.3) ? 0.8 : 0.15;
    d.AddRow(x, rng.Bernoulli(p) ? 1.0 : 0.0);
  }
  return d;
}

struct KernelResult {
  std::string name;
  std::string detail;
  double reference_seconds = 0.0;
  double optimized_seconds = 0.0;
  bool identical = true;      // optimized output matched the reference
  bool approximate = false;   // histogram kernels: identity not required
  double quality_delta = 0.0; // |train quality gap| for approximate kernels
  /// Per-kernel bound on quality_delta: log-loss gap for the histogram
  /// kernels, relative slowdown for metrics_overhead (the <1% budget).
  double quality_tolerance = 0.05;

  double Speedup() const {
    return optimized_seconds > 0.0 ? reference_seconds / optimized_seconds
                                   : 0.0;
  }
  bool Ok() const {
    return approximate ? quality_delta <= quality_tolerance : identical;
  }
};

// Best-of-reps wall time of fn().
double TimeBest(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    best = std::min(best, s);
  }
  return best;
}

bool SamePrimResult(const PrimResult& a, const PrimResult& b) {
  if (a.boxes.size() != b.boxes.size()) return false;
  if (a.best_val_index != b.best_val_index) return false;
  for (size_t i = 0; i < a.boxes.size(); ++i) {
    if (!(a.boxes[i] == b.boxes[i])) return false;
  }
  return true;
}

double TrainLogLoss(const ml::Metamodel& model, const Dataset& d) {
  std::vector<double> prob, y;
  prob.reserve(static_cast<size_t>(d.num_rows()));
  y.reserve(static_cast<size_t>(d.num_rows()));
  for (int i = 0; i < d.num_rows(); ++i) {
    prob.push_back(model.PredictProb(d.row(i)));
    y.push_back(d.y(i) > 0.5 ? 1.0 : 0.0);
  }
  return ml::LogLoss(prob, y);
}

// --- PRIM: scalar reference vs RunPrim, index builds included. ----------
KernelResult BenchPrimPeel(const PerfFlags& flags, bool paste) {
  KernelResult result;
  result.name = paste ? "prim_paste" : "prim_peel";
  const Dataset d = RandomData(flags.l_points, flags.dims, flags.seed);
  PrimConfig config;
  config.alpha = 0.05;
  config.paste = paste;
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " alpha=0.05" +
                  (paste ? " +pasting" : "");

  PrimResult ref, opt;
  result.reference_seconds =
      TimeBest(flags.reps, [&] { ref = RunPrimReference(d, d, config); });
  result.optimized_seconds =
      TimeBest(flags.reps, [&] { opt = RunPrim(d, d, config); });
  result.identical = SamePrimResult(ref, opt);
  return result;
}

// --- PRIM: scalar reference vs RunPrim's block-parallel candidate pass --
// on prebuilt indexes, so the timing isolates the peel loop itself.
KernelResult BenchPrimParallel(const PerfFlags& flags) {
  KernelResult result;
  result.name = "prim_peel_parallel";
  const Dataset d = RandomData(flags.l_points, flags.dims, flags.seed);
  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);
  PrimConfig config;
  config.alpha = 0.05;
  config.threads = flags.threads;
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) +
                  " alpha=0.05 threads=" + std::to_string(flags.threads);

  PrimResult ref, opt;
  result.reference_seconds =
      TimeBest(flags.reps, [&] { ref = RunPrimReference(d, d, config); });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt = RunPrim(d, d, config, index.get(), binned.get());
  });
  result.identical = SamePrimResult(ref, opt);
  return result;
}

// --- PRIM with bumping, the PBc tune: 5 folds x the m grid x Q = 20 -----
// bootstrap replicates on N=400, as PlanMethod runs it. The reference is
// the golden replicate loop (a sorted private index per replicate, a full
// validation pass per box); the fast path indexes each fold once, derives
// every replicate's index from it and scores nested boxes incrementally.
// Every box, validation point and fold score must match bit for bit.
KernelResult BenchBumpingTune(const PerfFlags& flags) {
  KernelResult result;
  result.name = "bumping_tune";
  const int n = 400;
  const int folds = 5;
  const Dataset d = RandomData(n, flags.dims, flags.seed + 17);
  const std::vector<int> fold = ml::FoldAssignment(n, folds, flags.seed + 18);
  const std::vector<int> grid = MGrid(flags.dims);
  BumpingConfig base;
  base.q = 20;
  result.detail = "N=" + std::to_string(n) + " d=" +
                  std::to_string(flags.dims) + " folds=5 grid=" +
                  std::to_string(grid.size()) + " Q=20";

  // One fold-outer, grid-inner pass; `fast` selects the path. Returns
  // every result in loop order plus the per-m score totals.
  auto tune = [&](bool fast, std::vector<BumpingResult>* runs,
                  std::vector<double>* totals) {
    runs->clear();
    totals->assign(grid.size(), 0.0);
    for (int f = 0; f < folds; ++f) {
      std::vector<int> train_rows, test_rows;
      for (int i = 0; i < n; ++i) {
        (fold[static_cast<size_t>(i)] == f ? test_rows : train_rows)
            .push_back(i);
      }
      const Dataset train = d.SubsetRows(train_rows);
      const Dataset holdout = d.SubsetRows(test_rows);
      const auto index = fast ? ColumnIndex::Build(train) : nullptr;
      for (size_t g = 0; g < grid.size(); ++g) {
        BumpingConfig config = base;
        config.m = grid[g];
        const uint64_t seed = DeriveSeed(flags.seed + 19, 7000 + f);
        runs->push_back(
            fast ? RunPrimBumping(train, train, config, seed, index.get())
                 : RunPrimBumpingReference(train, train, config, seed));
        (*totals)[g] += PrAucOnData(runs->back().boxes, holdout);
      }
    }
  };
  std::vector<BumpingResult> ref_runs, opt_runs;
  std::vector<double> ref_totals, opt_totals;
  result.reference_seconds = TimeBest(
      flags.reps, [&] { tune(false, &ref_runs, &ref_totals); });
  result.optimized_seconds =
      TimeBest(flags.reps, [&] { tune(true, &opt_runs, &opt_totals); });
  result.identical = ref_totals == opt_totals &&
                     ref_runs.size() == opt_runs.size();
  for (size_t i = 0; i < ref_runs.size() && result.identical; ++i) {
    const BumpingResult& a = ref_runs[i];
    const BumpingResult& b = opt_runs[i];
    result.identical = a.boxes == b.boxes &&
                       a.val_curve.size() == b.val_curve.size();
    for (size_t k = 0; k < a.val_curve.size() && result.identical; ++k) {
      result.identical = a.val_curve[k].recall == b.val_curve[k].recall &&
                         a.val_curve[k].precision == b.val_curve[k].precision;
    }
  }
  return result;
}

// --- GBT: scalar reference vs presorted (PR 2 pair). ---------------------
KernelResult BenchGbtFit(const PerfFlags& flags, int threads) {
  KernelResult result;
  result.name = threads > 1 ? "gbt_fit_parallel" : "gbt_fit";
  const Dataset d = RandomData(flags.n_train, flags.dims, flags.seed + 1);
  const Dataset probe = RandomData(256, flags.dims, flags.seed + 2);
  ml::GbtConfig config;
  config.num_rounds = flags.quick ? 20 : 100;
  config.max_depth = 4;
  result.detail = "n=" + std::to_string(flags.n_train) +
                  " d=" + std::to_string(flags.dims) +
                  " rounds=" + std::to_string(config.num_rounds) +
                  (threads > 1 ? " threads=" + std::to_string(threads) : "");

  ml::GbtConfig ref_config = config;
  ref_config.backend = ml::SplitBackend::kExact;
  ml::GbtConfig opt_config = config;
  opt_config.threads = threads;

  ml::GradientBoostedTrees ref(ref_config), opt(opt_config);
  result.reference_seconds =
      TimeBest(flags.reps, [&] { ref.Fit(d, flags.seed + 3); });
  result.optimized_seconds =
      TimeBest(flags.reps, [&] { opt.Fit(d, flags.seed + 3); });
  for (int i = 0; i < probe.num_rows() && result.identical; ++i) {
    result.identical =
        ref.PredictMargin(probe.row(i)) == opt.PredictMargin(probe.row(i));
  }
  return result;
}

// --- GBT: presorted vs histogram (PR 3 pair, approximate). Both fits -----
// get the prebuilt shared indexes, isolating the split-search cost.
KernelResult BenchGbtHist(const PerfFlags& flags, int threads) {
  KernelResult result;
  result.name = threads > 1 ? "gbt_fit_hist_parallel" : "gbt_fit_hist";
  result.approximate = true;
  const Dataset d = RandomData(flags.n_train, flags.dims, flags.seed + 1);
  ml::GbtConfig config;
  config.num_rounds = flags.quick ? 20 : 100;
  config.max_depth = 4;
  config.threads = threads;
  result.detail = "n=" + std::to_string(flags.n_train) +
                  " d=" + std::to_string(flags.dims) +
                  " rounds=" + std::to_string(config.num_rounds) +
                  (threads > 1 ? " threads=" + std::to_string(threads) : "");

  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);
  ml::GbtConfig hist_config = config;
  hist_config.backend = ml::SplitBackend::kHistogram;

  ml::GradientBoostedTrees ref(config), opt(hist_config);
  result.reference_seconds = TimeBest(
      flags.reps, [&] { ref.Fit(d, flags.seed + 3, index.get()); });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt.Fit(d, flags.seed + 3, index.get(), binned.get());
  });
  result.quality_delta = std::fabs(TrainLogLoss(ref, d) - TrainLogLoss(opt, d));
  result.identical = result.quality_delta == 0.0;
  return result;
}

// --- RF: scalar reference vs presorted (PR 2 pair). ----------------------
KernelResult BenchRfFit(const PerfFlags& flags) {
  KernelResult result;
  result.name = "rf_fit";
  const Dataset d = RandomData(flags.n_train, flags.dims, flags.seed + 4);
  const Dataset probe = RandomData(256, flags.dims, flags.seed + 5);
  ml::RandomForestConfig config;
  config.num_trees = flags.quick ? 10 : 50;
  result.detail = "n=" + std::to_string(flags.n_train) +
                  " d=" + std::to_string(flags.dims) +
                  " trees=" + std::to_string(config.num_trees);

  ml::RandomForestConfig ref_config = config;
  ref_config.backend = ml::SplitBackend::kExact;
  ml::RandomForest ref(ref_config), opt(config);
  result.reference_seconds =
      TimeBest(flags.reps, [&] { ref.Fit(d, flags.seed + 6); });
  result.optimized_seconds =
      TimeBest(flags.reps, [&] { opt.Fit(d, flags.seed + 6); });
  for (int i = 0; i < probe.num_rows() && result.identical; ++i) {
    result.identical =
        ref.PredictProb(probe.row(i)) == opt.PredictProb(probe.row(i));
  }
  return result;
}

// --- RF: presorted vs histogram (PR 3 pair, approximate). ----------------
KernelResult BenchRfHist(const PerfFlags& flags) {
  KernelResult result;
  result.name = "rf_fit_hist";
  result.approximate = true;
  const Dataset d = RandomData(flags.n_train, flags.dims, flags.seed + 4);
  ml::RandomForestConfig config;
  config.num_trees = flags.quick ? 10 : 50;
  result.detail = "n=" + std::to_string(flags.n_train) +
                  " d=" + std::to_string(flags.dims) +
                  " trees=" + std::to_string(config.num_trees);

  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);
  ml::RandomForestConfig hist_config = config;
  hist_config.backend = ml::SplitBackend::kHistogram;
  ml::RandomForest ref(config), opt(hist_config);
  result.reference_seconds = TimeBest(
      flags.reps, [&] { ref.Fit(d, flags.seed + 6, index.get()); });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt.Fit(d, flags.seed + 6, index.get(), binned.get());
  });
  result.quality_delta = std::fabs(TrainLogLoss(ref, d) - TrainLogLoss(opt, d));
  result.identical = result.quality_delta == 0.0;
  return result;
}

// --- Histogram accumulation: scalar reference vs the dispatched packed ---
// pair kernel (AVX2 fused 128-bit bin updates when available). The pack
// runs outside the timed region, as in GBT: it is paid once per boosting
// round and amortized over depth x features accumulations. Repeated
// passes over one node-sized id set amortize timer granularity; bins must
// match bit for bit. n is floored at 100k even in quick mode -- at the
// old quick size (3000 rows) the whole working set sat in L1 and the
// measurement was timer jitter, not kernel speed.
KernelResult BenchHistAccumulate(const PerfFlags& flags) {
  KernelResult result;
  result.name = "hist_accumulate";
  const int n = std::max(flags.l_points, 100000);
  Rng rng(flags.seed + 8);
  std::vector<uint8_t> codes(static_cast<size_t>(n));
  std::vector<double> g(static_cast<size_t>(n)), h(static_cast<size_t>(n));
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    codes[static_cast<size_t>(i)] = static_cast<uint8_t>(rng.UniformInt(256));
    g[static_cast<size_t>(i)] = rng.Normal();
    h[static_cast<size_t>(i)] = rng.Uniform();
    ids[static_cast<size_t>(i)] = i;
  }
  rng.Shuffle(&ids);  // gather pattern, as in a partitioned tree node
  const int passes = flags.quick ? 20 : 200;
  result.detail = "n=" + std::to_string(n) + " bins=256 passes=" +
                  std::to_string(passes) + " simd=" +
                  util::SimdLevelName(util::ActiveSimdLevel());

  util::PackedDoubleBuffer pairs;
  ml::PackGradientPairs(g.data(), h.data(), n, &pairs);

  std::vector<ml::HistBin> ref_bins(256), opt_bins(256);
  result.reference_seconds = TimeBest(flags.reps, [&] {
    for (int p = 0; p < passes; ++p) {
      std::fill(ref_bins.begin(), ref_bins.end(), ml::HistBin());
      ml::AccumulateHistogramReference(codes.data(), ids.data(), n, g.data(),
                                       h.data(), ref_bins.data());
    }
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    for (int p = 0; p < passes; ++p) {
      std::fill(opt_bins.begin(), opt_bins.end(), ml::HistBin());
      ml::AccumulateHistogramPairs(codes.data(), ids.data(), n, pairs.data(),
                                   opt_bins.data());
    }
  });
  for (int b = 0; b < 256 && result.identical; ++b) {
    result.identical = ref_bins[static_cast<size_t>(b)].g ==
                           opt_bins[static_cast<size_t>(b)].g &&
                       ref_bins[static_cast<size_t>(b)].h ==
                           opt_bins[static_cast<size_t>(b)].h &&
                       ref_bins[static_cast<size_t>(b)].count ==
                           opt_bins[static_cast<size_t>(b)].count;
  }
  return result;
}

// --- Quantized-gradient histogram: int16 packed pairs, int64 bin sums ---
// (4 bytes per row instead of 16: 4x the gradient density per cache
// line). Integer sums are associative, so every dispatch path must be
// exactly equal to the reference -- not just bit-close.
KernelResult BenchHistAccumulateQ16(const PerfFlags& flags) {
  KernelResult result;
  result.name = "hist_accumulate_q16";
  const int n = std::max(flags.l_points, 100000);
  Rng rng(flags.seed + 8);
  std::vector<uint8_t> codes(static_cast<size_t>(n));
  std::vector<double> g(static_cast<size_t>(n)), h(static_cast<size_t>(n));
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    codes[static_cast<size_t>(i)] = static_cast<uint8_t>(rng.UniformInt(256));
    g[static_cast<size_t>(i)] = rng.Normal();
    h[static_cast<size_t>(i)] = rng.Uniform();
    ids[static_cast<size_t>(i)] = i;
  }
  rng.Shuffle(&ids);
  const int passes = flags.quick ? 20 : 200;
  result.detail = "n=" + std::to_string(n) + " bins=256 passes=" +
                  std::to_string(passes) + " simd=" +
                  util::SimdLevelName(util::ActiveSimdLevel());

  std::vector<int16_t> gh16(2 * static_cast<size_t>(n));
  ml::QuantizeGradientPairs(g.data(), h.data(), n, gh16.data());

  std::vector<ml::HistBinQ16> ref_bins(256), opt_bins(256);
  result.reference_seconds = TimeBest(flags.reps, [&] {
    for (int p = 0; p < passes; ++p) {
      std::fill(ref_bins.begin(), ref_bins.end(), ml::HistBinQ16());
      ml::AccumulateHistogramQ16Reference(codes.data(), ids.data(), n,
                                          gh16.data(), ref_bins.data());
    }
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    for (int p = 0; p < passes; ++p) {
      std::fill(opt_bins.begin(), opt_bins.end(), ml::HistBinQ16());
      ml::AccumulateHistogramQ16(codes.data(), ids.data(), n, gh16.data(),
                                 opt_bins.data());
    }
  });
  for (int b = 0; b < 256 && result.identical; ++b) {
    result.identical = ref_bins[static_cast<size_t>(b)].g ==
                           opt_bins[static_cast<size_t>(b)].g &&
                       ref_bins[static_cast<size_t>(b)].h ==
                           opt_bins[static_cast<size_t>(b)].h &&
                       ref_bins[static_cast<size_t>(b)].count ==
                           opt_bins[static_cast<size_t>(b)].count;
  }
  return result;
}

// --- Streaming build path: the two-pass sketch-binned build against the --
// golden streamed build (core/quantile_sketch_reference.h: the reference
// sketch pass -- std::sort per insert buffer, a merge list then a separate
// compress, one AddWeighted per spilled pair -- then one QueryRank per
// bound, StreamedCodeOf per value and a stable sort). Both must produce
// the identical index: kind, codes, bin bounds, begin ranks and
// permutation of every column.
KernelResult BenchStreamedBuild(const PerfFlags& flags, int threads) {
  KernelResult result;
  result.name = threads > 1 ? "binned_build_streamed_parallel"
                            : "binned_build_streamed";
  const auto data = std::make_shared<Dataset>(
      RandomData(flags.l_points, flags.dims, flags.seed + 9));
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " sketch regime" +
                  (threads > 1 ? " threads=" + std::to_string(threads) : "");

  StreamedBuildOptions options;
  options.threads = threads;
  Result<StreamedBinsReference> reference =
      Status::RuntimeError("not run");
  result.reference_seconds = TimeBest(flags.reps, [&] {
    MatrixSource source(data);
    reference = BuildStreamedReference(&source, options);
  });
  Result<StreamedDataset> streamed = Status::RuntimeError("not run");
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    MatrixSource source(data);
    streamed = BinnedIndex::BuildStreamed(&source, options);
  });
  if (!reference.ok() || !streamed.ok()) {
    result.identical = false;
    return result;
  }
  const BinnedIndex& index = *streamed->index;
  result.identical = index.kind() == reference->kind;
  for (int j = 0; j < flags.dims && result.identical; ++j) {
    const ColumnBinLayout& layout = reference->layouts[static_cast<size_t>(j)];
    result.identical =
        index.num_bins(j) == layout.live &&
        index.codes(j) == reference->codes[static_cast<size_t>(j)] &&
        index.sorted_rows(j) == reference->sorted[static_cast<size_t>(j)];
    for (int b = 0; b <= layout.live && result.identical; ++b) {
      result.identical =
          index.bin_begin_rank(j, b) == layout.begins[static_cast<size_t>(b)] &&
          (b == layout.live ||
           (index.bin_first(j, b) == layout.first[static_cast<size_t>(b)] &&
            index.bin_last(j, b) == layout.last[static_cast<size_t>(b)]));
    }
  }
  return result;
}

// --- Streamed PRIM: the scalar reference on the materialized matrix vs ---
// RunPrimStreamed on codes alone. Discrete-valued data keeps the streamed
// bins single values, so the boxes must be bit-identical; the streamed
// index is prebuilt, isolating the peel loop.
KernelResult BenchPrimStreamed(const PerfFlags& flags) {
  KernelResult result;
  result.name = "prim_peel_streamed";
  const auto data = std::make_shared<Dataset>(
      RandomData(flags.l_points, flags.dims, flags.seed, /*distinct=*/128));
  MatrixSource source(data);
  auto streamed = BinnedIndex::BuildStreamed(&source);
  PrimConfig config;
  config.alpha = 0.05;
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) +
                  " alpha=0.05 128-distinct";
  if (!streamed.ok()) {
    result.identical = false;
    return result;
  }

  PrimResult ref, opt;
  result.reference_seconds = TimeBest(
      flags.reps, [&] { ref = RunPrimReference(*data, *data, config); });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt = RunPrimStreamed(*streamed->index, streamed->y, config);
  });
  result.identical = SamePrimResult(ref, opt);
  return result;
}

// --- Warm peel: RunPrimStreamed as a warm request runs it -- on a cached
// relabeling with its prebuilt bin totals, validated on a separate sample
// -- against the golden reference that rebuilds every candidate's bin
// histogram from a full row scan. The shape is the serving one (L=20k,
// M=10, continuous columns, so sketch bins) in every mode. Boxes, both
// curves and the selected index must match bit for bit, also for the run
// that counts its own totals.
KernelResult BenchWarmPeel(const PerfFlags& flags) {
  KernelResult result;
  result.name = "warm_peel";
  const int l = 20000;
  const int dims = 10;
  const auto data =
      std::make_shared<Dataset>(RandomData(l, dims, flags.seed + 23));
  const Dataset val = RandomData(2000, dims, flags.seed + 24);
  MatrixSource source(data);
  const Result<StreamedDataset> streamed = BinnedIndex::BuildStreamed(&source);
  PrimConfig config;
  config.alpha = 0.05;
  result.detail = "L=20000 d=10 alpha=0.05 sketch val=2000";
  if (!streamed.ok() ||
      streamed->index->kind() != BinnedIndex::BuildKind::kSketch) {
    result.identical = false;
    return result;
  }
  const BinnedIndex& index = *streamed->index;
  const auto totals = StreamedBinTotals::Build(index, streamed->y.data());

  PrimResult ref, opt;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    ref = RunPrimStreamedReference(index, streamed->y, config, &val);
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt = RunPrimStreamed(index, streamed->y, config, &val, totals.get());
  });
  const PrimResult uncached =
      RunPrimStreamed(index, streamed->y, config, &val);
  const auto same = [](const PrimResult& a, const PrimResult& b) {
    if (!SamePrimResult(a, b) || a.val_curve.size() != b.val_curve.size() ||
        a.train_curve.size() != b.train_curve.size()) {
      return false;
    }
    for (size_t i = 0; i < a.val_curve.size(); ++i) {
      if (a.val_curve[i].precision != b.val_curve[i].precision ||
          a.val_curve[i].recall != b.val_curve[i].recall ||
          a.train_curve[i].precision != b.train_curve[i].precision ||
          a.train_curve[i].recall != b.train_curve[i].recall) {
        return false;
      }
    }
    return true;
  };
  result.identical = same(ref, opt) && same(ref, uncached);
  return result;
}

// Grid-valued sampler: every sampled column has `distinct` values, keeping
// the REDS streamed-vs-materialized pair in the exact-pack regime where
// the results must match bit for bit.
sampling::PointSampler GridSampler(int distinct) {
  return [distinct](Rng* rng, int dim, double* out) {
    for (int j = 0; j < dim; ++j) {
      out[j] = static_cast<double>(rng->UniformInt(
                   static_cast<uint64_t>(distinct))) /
               distinct;
    }
  };
}

// --- REDS relabeling: materialize L labeled points + exact quantization ---
// vs the streamed pipeline (generator source -> two-pass sketch build).
// The metamodel is prefit and shared through the provider hook, so the
// timing isolates sampling + labeling + indexing -- the part the streamed
// plan restructures. Codes must match bit for bit (128-distinct grid).
KernelResult BenchRedsRelabelStreamed(const PerfFlags& flags) {
  KernelResult result;
  result.name = "reds_relabel_streamed";
  const Dataset train = RandomData(flags.n_train / 4, flags.dims,
                                   flags.seed + 10, /*distinct=*/64);
  const auto prefit = std::shared_ptr<const ml::Metamodel>(
      ml::FitDefault(ml::MetamodelKind::kGbt, train, flags.seed + 11));
  RedsConfig config;
  config.tune_metamodel = false;
  config.num_new_points = flags.l_points;
  config.sampler = GridSampler(128);
  config.metamodel_provider = [prefit](const Dataset&, ml::MetamodelKind,
                                       bool, ml::TuningBudget,
                                       ml::SplitBackend, ml::GrowthPolicy,
                                       int, uint64_t) {
    return prefit;
  };
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " 128-distinct";

  std::shared_ptr<const BinnedIndex> exact;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    const RedsRelabeling r = RedsRelabel(train, config, flags.seed + 12);
    exact = BinnedIndex::Build(r.new_data);
  });
  Result<StreamedDataset> streamed = Status::RuntimeError("not run");
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    RedsStreamedRelabeling r =
        RedsRelabelStreamed(train, config, flags.seed + 12);
    streamed = BinnedIndex::BuildStreamed(r.new_data.get());
  });
  result.identical = streamed.ok();
  for (int j = 0; j < flags.dims && result.identical; ++j) {
    result.identical = exact->codes(j) == streamed->index->codes(j);
  }
  return result;
}

// --- REDS labeling, one metamodel family: the per-row MetamodelLabel ----
// loop (the golden reference) vs MetamodelLabelBlock, which labels the
// whole point set through Metamodel::PredictBlock. Untuned default model
// on N=400, probability labels (every bit of the prediction is compared);
// the labels must match bit for bit.
KernelResult BenchRelabelLabel(const PerfFlags& flags, ml::MetamodelKind kind) {
  KernelResult result;
  result.name = "relabel_label_" + ml::MetamodelSuffix(kind);
  const int n = std::min(400, flags.n_train);
  const Dataset train = RandomData(n, flags.dims, flags.seed + 13);
  const std::unique_ptr<ml::Metamodel> model =
      ml::FitDefault(kind, train, flags.seed + 14);
  const Dataset points =
      RandomData(flags.l_points, flags.dims, flags.seed + 15);
  const int rows = points.num_rows();
  result.detail = "N=" + std::to_string(n) + " L=" + std::to_string(rows) +
                  " d=" + std::to_string(flags.dims) + " untuned";

  std::vector<double> ref(static_cast<size_t>(rows));
  std::vector<double> opt(static_cast<size_t>(rows));
  result.reference_seconds = TimeBest(flags.reps, [&] {
    for (int i = 0; i < rows; ++i) {
      ref[static_cast<size_t>(i)] =
          MetamodelLabel(*model, points.row(i), /*probability_labels=*/true);
    }
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    MetamodelLabelBlock(*model, points.row(0), rows,
                        /*probability_labels=*/true, opt.data());
  });
  result.identical =
      std::memcmp(ref.data(), opt.data(), ref.size() * sizeof(double)) == 0;
  return result;
}

// --- Streamed quantizer, sketch regime: bin bounds by one QueryRank per --
// rank plus a binary-search StreamedCodeOf per value (the golden
// references) vs StreamedBinUpperBounds' one-sweep QueryRanks plus the
// StreamedCoder bucket table. The sketches are built once, untimed;
// bounds and codes must be identical.
KernelResult BenchStreamedQuantize(const PerfFlags& flags) {
  KernelResult result;
  result.name = "streamed_quantize";
  const Dataset data = RandomData(flags.l_points, flags.dims, flags.seed + 16);
  const int n = data.num_rows();
  const int m = data.num_cols();
  const int cap = BinnedIndex::kMaxBins;
  std::vector<ColumnSketch> sketches(static_cast<size_t>(m),
                                     ColumnSketch(1.0 / 2048.0));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      sketches[static_cast<size_t>(j)].AddValue(data.x(i, j), cap);
    }
  }
  result.detail = "L=" + std::to_string(n) + " d=" + std::to_string(m) +
                  " bins=" + std::to_string(cap) + " sketch regime";

  using Quantized = std::pair<std::vector<std::vector<double>>,
                              std::vector<std::vector<uint8_t>>>;
  Quantized ref, opt;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    ref.first.assign(static_cast<size_t>(m), {});
    ref.second.assign(static_cast<size_t>(m), {});
    for (int j = 0; j < m; ++j) {
      std::vector<double>& ub = ref.first[static_cast<size_t>(j)];
      for (int b = 1; b < cap; ++b) {
        const double v = sketches[static_cast<size_t>(j)].sketch.QueryRank(
            static_cast<int64_t>(b) * n / cap);
        if (ub.empty() || v > ub.back()) ub.push_back(v);
      }
      ub.push_back(std::numeric_limits<double>::infinity());
      std::vector<uint8_t>& codes = ref.second[static_cast<size_t>(j)];
      codes.reserve(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        codes.push_back(StreamedCodeOf(ub, data.x(i, j)));
      }
    }
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt.first.assign(static_cast<size_t>(m), {});
    opt.second.assign(static_cast<size_t>(m), {});
    for (int j = 0; j < m; ++j) {
      std::vector<double>& ub = opt.first[static_cast<size_t>(j)];
      ub = StreamedBinUpperBounds(&sketches[static_cast<size_t>(j)], n, cap);
      const StreamedCoder coder(ub);
      std::vector<uint8_t>& codes = opt.second[static_cast<size_t>(j)];
      codes.reserve(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) codes.push_back(coder.Code(data.x(i, j)));
    }
  });
  result.identical = ref == opt;
  return result;
}

// --- End-to-end REDS discovery ("RPx"): the materialized data plan vs ----
// the streamed one inside RunMethod itself (metamodel fit + relabel +
// index + peel). On grid-sampled points both plans must discover the
// identical box sequence.
KernelResult BenchMethodRedsStreamed(const PerfFlags& flags) {
  KernelResult result;
  result.name = "method_reds_streamed_e2e";
  const Dataset train = RandomData(flags.n_train / 4, flags.dims,
                                   flags.seed + 13, /*distinct=*/64);
  RunOptions options;
  options.l_prim = flags.l_points;
  options.tune_metamodel = false;
  options.sampler = GridSampler(128);
  options.seed = flags.seed + 14;
  result.detail = "RPx N=" + std::to_string(flags.n_train / 4) +
                  " L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " 128-distinct";
  const auto spec = MethodSpec::Parse("RPx");

  MethodOutput ref, opt;
  RunOptions materialized = options;
  materialized.data_plan = MethodDataPlan::kMaterialized;
  result.reference_seconds = TimeBest(
      flags.reps, [&] { ref = RunMethod(*spec, train, materialized); });
  RunOptions streamed = options;
  streamed.data_plan = MethodDataPlan::kStreamed;
  result.optimized_seconds = TimeBest(
      flags.reps, [&] { opt = RunMethod(*spec, train, streamed); });
  result.identical = ref.trajectory.size() == opt.trajectory.size() &&
                     ref.last_box == opt.last_box;
  for (size_t i = 0; i < ref.trajectory.size() && result.identical; ++i) {
    result.identical = ref.trajectory[i] == opt.trajectory[i];
  }
  return result;
}

// --- Observability overhead: the streamed PRIM peel loop undecorated vs --
// the identical loop under a bound Trace + MetricsRegistry (every span it
// opens is recorded and fed into stage histograms -- the engine's traced
// configuration). The delta is what instrumentation costs; the budget is
// 1% of kernel time, with sub-2ms deltas written off as timer jitter.
// Results must stay bit-identical: observation must never perturb the
// computation.
KernelResult BenchMetricsOverhead(const PerfFlags& flags) {
  KernelResult result;
  result.name = "metrics_overhead";
  result.approximate = true;
  result.quality_tolerance = 0.01;
  const auto data = std::make_shared<Dataset>(
      RandomData(flags.l_points, flags.dims, flags.seed, /*distinct=*/128));
  MatrixSource source(data);
  auto streamed = BinnedIndex::BuildStreamed(&source);
  PrimConfig config;
  config.alpha = 0.05;
  const int passes = flags.quick ? 4 : 6;
  result.detail = "L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " passes=" +
                  std::to_string(passes) + " traced-vs-untraced";
  if (!streamed.ok()) {
    result.identical = false;
    result.quality_delta = 1.0;
    return result;
  }

  PrimResult ref, opt;
  result.reference_seconds = TimeBest(flags.reps, [&] {
    for (int p = 0; p < passes; ++p) {
      ref = RunPrimStreamed(*streamed->index, streamed->y, config);
    }
  });
  obs::MetricsRegistry registry;
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    obs::Trace trace("bench-metrics-overhead", &registry);
    obs::TraceBinding binding(&trace);
    for (int p = 0; p < passes; ++p) {
      opt = RunPrimStreamed(*streamed->index, streamed->y, config);
    }
  });
  result.identical = SamePrimResult(ref, opt);
  const double delta = result.optimized_seconds - result.reference_seconds;
  result.quality_delta = delta <= 0.002 || result.reference_seconds <= 0.0
                             ? 0.0
                             : delta / result.reference_seconds;
  return result;
}

// --- Substrate timings with no faster variant: the RBF SVM fit (the RPs --
// metamodel) and the DSGC stability evaluation (one Jacobian eigen solve
// per point). Each side runs the same call, so the speedup reads ~1; the
// pair requires bitwise-identical output (determinism), and the quick
// gate guards the time itself.
KernelResult BenchSvmFit(const PerfFlags& flags) {
  KernelResult result;
  result.name = "svm_fit";
  const int n = flags.quick ? 256 : 512;
  const Dataset d = RandomData(n, flags.dims, flags.seed + 25);
  result.detail = "n=" + std::to_string(n) + " d=" +
                  std::to_string(flags.dims) + " rbf timing-only";

  auto fit = [&] {
    ml::SvmRbf svm;
    svm.Fit(d, flags.seed + 26);
    util::ByteWriter out;
    svm.SerializeTo(&out);
    return out.data();
  };
  std::string ref, opt;
  result.reference_seconds = TimeBest(flags.reps, [&] { ref = fit(); });
  result.optimized_seconds = TimeBest(flags.reps, [&] { opt = fit(); });
  result.identical = ref == opt;
  return result;
}

KernelResult BenchDsgcEvaluate(const PerfFlags& flags) {
  KernelResult result;
  result.name = "dsgc_evaluate";
  const int points = flags.quick ? 500 : 5000;
  Rng rng(flags.seed + 27);
  std::vector<double> x(static_cast<size_t>(points) * 12);
  for (double& v : x) v = rng.Uniform();
  result.detail = std::to_string(points) + " points timing-only";

  auto evaluate = [&] {
    std::vector<double> out(static_cast<size_t>(points));
    for (int i = 0; i < points; ++i) {
      out[static_cast<size_t>(i)] = fun::DsgcSpectralAbscissa(
          fun::DsgcParamsFromUnitCube(x.data() + static_cast<size_t>(i) * 12));
    }
    return out;
  };
  std::vector<double> ref, opt;
  result.reference_seconds = TimeBest(flags.reps, [&] { ref = evaluate(); });
  result.optimized_seconds = TimeBest(flags.reps, [&] { opt = evaluate(); });
  result.identical =
      std::memcmp(ref.data(), opt.data(), ref.size() * sizeof(double)) == 0;
  return result;
}

KernelResult BenchBi(const PerfFlags& flags) {
  KernelResult result;
  result.name = "bi_search";
  // BI runs on the smaller L (paper: l_bi = 10k).
  const int n = std::max(200, flags.l_points / 10);
  const Dataset d = RandomData(n, flags.dims, flags.seed + 7);
  BiConfig config;
  result.detail = "L=" + std::to_string(n) + " d=" +
                  std::to_string(flags.dims) + " beam=1";

  BiResult ref, opt;
  result.reference_seconds =
      TimeBest(flags.reps, [&] { ref = RunBiReference(d, config); });
  result.optimized_seconds =
      TimeBest(flags.reps, [&] { opt = RunBi(d, config); });
  result.identical = ref.box == opt.box;
  return result;
}

// --- GBT growth policies: depth-wise depth-8 trees (up to 255 leaves per --
// round) vs leaf-wise growth capped at 64 best-gain leaves. Best-first
// expansion spends its leaf budget where the gain is, so the capped tree
// matches the deeper one on held-out loss while expanding ~4x fewer
// nodes -- the quality delta is measured on a held-out probe, not the
// training set, precisely because the extra depth-wise leaves buy mostly
// memorization.
KernelResult BenchGbtLeafwise(const PerfFlags& flags) {
  KernelResult result;
  result.name = "gbt_leafwise";
  result.approximate = true;
  result.quality_tolerance = 0.1;
  const int n = flags.quick ? flags.l_points : 100000;
  const Dataset d = RandomData(n, flags.dims, flags.seed + 18);
  const Dataset probe = RandomData(4096, flags.dims, flags.seed + 19);
  ml::GbtConfig depth_wise;
  depth_wise.num_rounds = flags.quick ? 20 : 50;
  depth_wise.max_depth = 8;
  depth_wise.backend = ml::SplitBackend::kHistogram;
  ml::GbtConfig leaf_wise = depth_wise;
  leaf_wise.growth = ml::GrowthPolicy::kLeafWise;
  leaf_wise.max_leaves = 64;
  result.detail = "n=" + std::to_string(n) +
                  " d=" + std::to_string(flags.dims) +
                  " rounds=" + std::to_string(depth_wise.num_rounds) +
                  " depth8-vs-64leaf";

  const auto index = ColumnIndex::Build(d);
  const auto binned = BinnedIndex::Build(*index);
  ml::GradientBoostedTrees ref(depth_wise), opt(leaf_wise);
  result.reference_seconds = TimeBest(flags.reps, [&] {
    ref.Fit(d, flags.seed + 20, index.get(), binned.get());
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    opt.Fit(d, flags.seed + 20, index.get(), binned.get());
  });
  result.quality_delta =
      std::fabs(TrainLogLoss(ref, probe) - TrainLogLoss(opt, probe));
  result.identical = result.quality_delta == 0.0;
  return result;
}

// --- Engine serving path: a burst of identical REDS requests against a ----
// cold engine with single-flight coalescing off (every duplicate re-walks
// the cache tiers and re-runs its own discovery) vs on (one leader does
// the work once; duplicates only re-evaluate their own metrics against the
// shared output). Every handle in both runs must report the same final
// box.
KernelResult BenchEngineCoalescedBatch(const PerfFlags& flags) {
  KernelResult result;
  result.name = "engine_coalesced_batch";
  const int burst = 8;
  const auto train = std::make_shared<const Dataset>(
      RandomData(flags.n_train / 4, flags.dims, flags.seed + 21));
  RunOptions options;
  options.l_prim = flags.l_points;
  options.tune_metamodel = false;
  options.seed = flags.seed + 22;
  result.detail = "RPx x" + std::to_string(burst) +
                  " L=" + std::to_string(flags.l_points) +
                  " threads=" + std::to_string(flags.threads);

  const auto run_burst = [&](bool coalesce, Box* last_box) {
    engine::EngineConfig config;
    config.threads = flags.threads;
    config.enable_persistent_cache = false;
    config.coalesce_requests = coalesce;
    engine::DiscoveryEngine engine(config);
    std::vector<engine::JobHandle> jobs;
    for (int i = 0; i < burst; ++i) {
      engine::DiscoveryRequest request;
      request.train = train;
      request.method = "RPx";
      request.options = options;
      jobs.push_back(engine.Submit(std::move(request)));
    }
    engine.WaitAll();
    bool same = true;
    for (const engine::JobHandle& job : jobs) {
      same = same && job->state() == engine::JobState::kDone &&
             job->output().last_box == jobs.front()->output().last_box;
    }
    *last_box = jobs.front()->output().last_box;
    return same;
  };

  Box ref_box, opt_box;
  bool agree = true;
  result.reference_seconds = TimeBest(
      flags.reps, [&] { agree = run_burst(false, &ref_box) && agree; });
  result.optimized_seconds = TimeBest(
      flags.reps, [&] { agree = run_burst(true, &opt_box) && agree; });
  result.identical = agree && ref_box == opt_box;
  return result;
}

// --- Serving over the wire: the socket tax on a warm request. The same ---
// warm eager RPx request submitted straight into the engine (reference)
// vs through DiscoveryServer's epoll loop over a unix socket (optimized
// column = full wire roundtrip: encode, decode pool, admission, epoll
// write-back). Speedup < 1 IS the measurement -- it bounds the serving
// overhead -- and the wire answer must match the in-process box exactly.
KernelResult BenchNetWarmRoundtrip(const PerfFlags& flags) {
  KernelResult result;
  result.name = "net_warm_roundtrip";
  result.detail = "RPx warm L=" + std::to_string(flags.l_points) +
                  " d=" + std::to_string(flags.dims) + " unix-socket";

  engine::EngineConfig engine_config;
  engine_config.threads = flags.threads;
  engine_config.enable_persistent_cache = false;
  engine::DiscoveryEngine engine(engine_config);
  net::ServerConfig server_config;
  server_config.address =
      "unix:/tmp/reds_bench_warm_" + std::to_string(::getpid()) + ".sock";
  // Result cache off: this kernel bounds the socket tax on a real warm
  // *engine* run, so the repeats must reach the engine, not replay.
  server_config.result_cache_entries = 0;
  net::DiscoveryServer server(&engine, server_config);
  if (!server.Start().ok()) {
    result.identical = false;
    return result;
  }
  net::NetClient client;
  if (!client.Connect(server.address()).ok() ||
      !client.Hello("bench_perf_kernels").ok()) {
    result.identical = false;
    return result;
  }

  uint64_t next_id = 1;
  net::SubmitRequest wire =
      net::MakeSubmit(0, "RPx", net::DataMode::kEager, flags.n_train,
                      flags.dims, flags.seed + 23, 0.05, flags.l_points);
  const auto wire_once = [&]() -> Box {
    net::SubmitRequest request = wire;
    request.request_id = next_id++;
    auto outcome = client.Submit(request);
    auto reply = client.WaitResult(request.request_id);
    if (!outcome.ok() || !reply.ok() || reply->done.failed) return Box();
    return reply->done.last_box;
  };

  // The exact dataset the server materializes from the spec, for the
  // in-process run.
  auto source = shard::MakeSource(wire.source, 1, 0);
  const auto train = std::make_shared<const Dataset>(
      std::move(ReadAll(source->get(), wire.source.block_rows).value()));
  const auto direct_once = [&]() -> Box {
    engine::DiscoveryRequest request;
    request.train = train;
    request.method = wire.method;
    request.options.default_alpha = wire.alpha;
    request.options.min_points = wire.min_points;
    request.options.l_prim = wire.l_prim;
    request.options.seed = wire.options_seed;
    request.options.tune_metamodel = false;
    engine::JobHandle job = engine.Submit(std::move(request));
    job->Wait();
    return job->state() == engine::JobState::kDone ? job->output().last_box
                                                   : Box();
  };

  Box warm_box = wire_once();  // cold pass: warm every cache, untimed
  Box direct_box = warm_box, wire_box = warm_box;
  result.reference_seconds =
      TimeBest(flags.reps, [&] { direct_box = direct_once(); });
  result.optimized_seconds =
      TimeBest(flags.reps, [&] { wire_box = wire_once(); });
  result.identical = wire_box.dim() > 0 && wire_box == direct_box &&
                     wire_box == warm_box;
  return result;
}

// --- Serving over the wire: concurrency past one connection. The same ----
// warm request set issued one-at-a-time on a single connection
// (reference) vs pipelined from several client threads at once
// (optimized). Identical completed specs replay from the result cache and
// identical in-flight specs coalesce, so concurrent clients scale
// throughput instead of re-running discoveries; every reply must carry
// the serial run's box.
KernelResult BenchNetSaturationThroughput(const PerfFlags& flags) {
  KernelResult result;
  result.name = "net_saturation_throughput";
  const int total = flags.quick ? 24 : 64;
  const int clients = std::min(8, std::max(2, flags.threads));
  const int pool = 4;  // distinct specs cycled through the request stream
  result.detail = "RPx x" + std::to_string(total) + " pool=" +
                  std::to_string(pool) + " conns=" + std::to_string(clients);

  engine::EngineConfig engine_config;
  engine_config.threads = flags.threads;
  engine_config.enable_persistent_cache = false;
  engine::DiscoveryEngine engine(engine_config);
  net::ServerConfig server_config;
  server_config.address =
      "unix:/tmp/reds_bench_sat_" + std::to_string(::getpid()) + ".sock";
  net::DiscoveryServer server(&engine, server_config);
  if (!server.Start().ok()) {
    result.identical = false;
    return result;
  }

  const auto spec_for = [&](int slot) {
    return net::MakeSubmit(0, "RPx", net::DataMode::kEager,
                           flags.n_train / 2, flags.dims,
                           flags.seed + 31 + static_cast<uint64_t>(slot),
                           0.05, flags.l_points);
  };

  // Warm pass, untimed: one run per distinct spec fills every cache and
  // records the reference box each later reply must reproduce.
  std::vector<Box> expected;
  {
    net::NetClient client;
    if (!client.Connect(server.address()).ok() ||
        !client.Hello("warmup").ok()) {
      result.identical = false;
      return result;
    }
    for (int slot = 0; slot < pool; ++slot) {
      net::SubmitRequest request = spec_for(slot);
      request.request_id = static_cast<uint64_t>(slot) + 1;
      if (!client.Submit(request).ok()) {
        result.identical = false;
        return result;
      }
      auto reply = client.WaitResult(request.request_id);
      if (!reply.ok() || reply->done.failed) {
        result.identical = false;
        return result;
      }
      expected.push_back(reply->done.last_box);
    }
  }

  std::atomic<bool> agree{true};
  const auto run_span = [&](net::NetClient* client, uint64_t id_base,
                            int begin, int end) {
    // Pipelined: submit the whole span, then collect -- in-flight depth is
    // the span length, which is what saturates the loop.
    for (int i = begin; i < end; ++i) {
      net::SubmitRequest request = spec_for(i % pool);
      request.request_id = id_base + static_cast<uint64_t>(i);
      auto outcome = client->Submit(request);
      if (!outcome.ok() ||
          outcome->kind != net::SubmitOutcome::Kind::kAdmitted) {
        agree = false;
        return;
      }
    }
    for (int i = begin; i < end; ++i) {
      auto reply = client->WaitResult(id_base + static_cast<uint64_t>(i));
      if (!reply.ok() || reply->done.failed ||
          !(reply->done.last_box == expected[i % pool])) {
        agree = false;
        return;
      }
    }
  };

  result.reference_seconds = TimeBest(flags.reps, [&] {
    net::NetClient client;
    if (!client.Connect(server.address()).ok() ||
        !client.Hello("serial").ok()) {
      agree = false;
      return;
    }
    for (int i = 0; i < total; ++i) {  // strictly one in flight
      run_span(&client, 1000, i, i + 1);
    }
  });
  result.optimized_seconds = TimeBest(flags.reps, [&] {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        net::NetClient client;
        if (!client.Connect(server.address()).ok() ||
            !client.Hello("conn" + std::to_string(c)).ok()) {
          agree = false;
          return;
        }
        const int per = (total + clients - 1) / clients;
        run_span(&client, 100000ull * static_cast<uint64_t>(c + 1),
                 c * per, std::min(total, (c + 1) * per));
      });
    }
    for (auto& t : threads) t.join();
  });
  result.identical = agree.load();
  return result;
}

void WriteJson(const PerfFlags& flags, const std::vector<KernelResult>& results,
               std::FILE* stream) {
  std::fprintf(stream, "{\n");
  std::fprintf(stream, "  \"bench\": \"bench_perf_kernels\",\n");
  std::fprintf(stream, "  \"mode\": \"%s\",\n", flags.quick ? "quick" : "full");
  std::fprintf(stream,
               "  \"config\": {\"n_train\": %d, \"l_points\": %d, \"dims\": "
               "%d, \"reps\": %d, \"threads\": %d, \"seed\": %llu, "
               "\"simd\": \"%s\"},\n",
               flags.n_train, flags.l_points, flags.dims, flags.reps,
               flags.threads, static_cast<unsigned long long>(flags.seed),
               util::SimdLevelName(util::ActiveSimdLevel()));
  std::fprintf(stream, "  \"kernels\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(stream,
                 "    {\"name\": \"%s\", \"detail\": \"%s\", "
                 "\"reference_seconds\": %.6f, \"optimized_seconds\": %.6f, "
                 "\"speedup\": %.3f, \"identical\": %s, \"approximate\": %s, "
                 "\"quality_delta\": %.6f, \"quality_tolerance\": %.3f, "
                 "\"ok\": %s}%s\n",
                 r.name.c_str(), r.detail.c_str(), r.reference_seconds,
                 r.optimized_seconds, r.Speedup(),
                 r.identical ? "true" : "false",
                 r.approximate ? "true" : "false", r.quality_delta,
                 r.quality_tolerance, r.Ok() ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(stream, "  ]\n}\n");
}

// Minimal extraction of {name -> optimized_seconds} from a JSON file this
// harness wrote earlier (one kernel object per line).
bool LoadReferenceTimings(const std::string& path,
                          std::vector<std::pair<std::string, double>>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const size_t name_key = line.find("\"name\": \"");
    if (name_key == std::string::npos) continue;
    const size_t name_begin = name_key + std::strlen("\"name\": \"");
    const size_t name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    const size_t opt_key = line.find("\"optimized_seconds\": ");
    if (opt_key == std::string::npos) continue;
    const double seconds =
        std::atof(line.c_str() + opt_key +
                  std::strlen("\"optimized_seconds\": "));
    out->emplace_back(line.substr(name_begin, name_end - name_begin), seconds);
  }
  return !out->empty();
}

// Regression gate: every kernel in the committed reference must be present
// and not slower than tolerance x its reference timing (plus a small
// absolute slack -- smoke timings are milliseconds and jittery).
bool CheckAgainstReference(const PerfFlags& flags,
                           const std::vector<KernelResult>& results) {
  std::vector<std::pair<std::string, double>> reference;
  if (!LoadReferenceTimings(flags.check_against, &reference)) {
    std::fprintf(stderr, "cannot read reference timings from %s\n",
                 flags.check_against.c_str());
    return false;
  }
  constexpr double kAbsoluteSlack = 0.05;  // seconds
  bool ok = true;
  for (const auto& [name, ref_seconds] : reference) {
    const KernelResult* current = nullptr;
    for (const KernelResult& r : results) {
      if (r.name == name) {
        current = &r;
        break;
      }
    }
    if (current == nullptr) {
      std::fprintf(stderr, "CHECK FAIL: kernel %s missing from this run\n",
                   name.c_str());
      ok = false;
      continue;
    }
    const double limit = ref_seconds * flags.check_tolerance + kAbsoluteSlack;
    if (current->optimized_seconds > limit) {
      std::fprintf(stderr,
                   "CHECK FAIL: %s took %.3fs, reference %.3fs "
                   "(limit %.3fs at %.1fx)\n",
                   name.c_str(), current->optimized_seconds, ref_seconds,
                   limit, flags.check_tolerance);
      ok = false;
    } else {
      std::printf("check ok: %-26s %.3fs <= %.3fs\n", name.c_str(),
                  current->optimized_seconds, limit);
    }
  }
  return ok;
}

// CPU time of the calling thread; excludes time blocked on I/O or
// preempted by other threads.
double ThreadCpuSeconds() {
  timespec ts;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- Sharded discovery: the full single-process streamed pipeline ------
// (generate + quantize + peel) vs a W-worker fleet over the same synthetic
// stream. Workers run in-process over socketpairs, but each generates,
// sketches and codes only its 1/W block stride -- the mechanism the
// multi-process topology scales by -- while the coordinator folds their
// summaries and drives one round trip per applied peel. Exact-pack data
// (distinct values under the bin cap), so the fleet's boxes must match the
// single-process run bit for bit.
//
// Timing is the thread-CPU critical path, not wall clock: the fleet side
// reports max(worker CPU) + coordinator CPU. In the real topology the
// workers are independent processes on their own cores, so the critical
// path IS the wall time of an unloaded >=W-core host -- while wall clock
// measured here would only report how many cores this particular machine
// (often a 1-2 core CI container) happens to have. CPU clocks exclude
// blocked time, so the coordinator's waits on worker replies don't
// double-count the work it is waiting for.
KernelResult BenchShardScaling(const PerfFlags& flags) {
  KernelResult result;
  result.name = "shard_scaling";
  const int workers = std::max(2, flags.threads);
  shard::SourceSpec spec;
  spec.kind = shard::SourceSpec::Kind::kSynthetic;
  spec.block_rows = 8192;
  spec.rows = flags.quick ? 200000 : 10000000;  // the L=10M target shape
  spec.dims = flags.dims;
  spec.distinct = 48;
  spec.seed = flags.seed;
  result.detail = "L=" + std::to_string(spec.rows) +
                  " d=" + std::to_string(spec.dims) +
                  " workers=" + std::to_string(workers) + " critical-path";
  StreamedBuildOptions build_options;
  build_options.block_rows = spec.block_rows;
  PrimConfig config;
  config.alpha = 0.05;
  config.min_points = 20;

  PrimResult ref, opt;
  result.reference_seconds = 1e300;
  for (int rep = 0; rep < flags.reps; ++rep) {
    const double cpu0 = ThreadCpuSeconds();
    shard::SyntheticBlockSource source(spec, 1, 0);
    const Result<StreamedDataset> data =
        BinnedIndex::BuildStreamed(&source, build_options);
    if (!data.ok()) {
      std::fprintf(stderr, "shard_scaling reference: %s\n",
                   data.status().ToString().c_str());
      std::exit(1);
    }
    ref = RunPrimStreamed(*data->index, data->y, config);
    result.reference_seconds =
        std::min(result.reference_seconds, ThreadCpuSeconds() - cpu0);
  }

  result.optimized_seconds = 1e300;
  for (int rep = 0; rep < flags.reps; ++rep) {
    std::vector<int> coordinator_fds, worker_fds;
    for (int w = 0; w < workers; ++w) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        std::perror("socketpair");
        std::exit(1);
      }
      coordinator_fds.push_back(sv[0]);
      worker_fds.push_back(sv[1]);
    }
    std::vector<std::thread> threads;
    std::vector<Status> statuses(static_cast<size_t>(workers));
    std::vector<double> worker_cpu(static_cast<size_t>(workers), 0.0);
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        shard::SyntheticBlockSource source(spec, workers, w);
        statuses[static_cast<size_t>(w)] =
            shard::RunShardWorker(worker_fds[static_cast<size_t>(w)],
                                  &source);
        worker_cpu[static_cast<size_t>(w)] = ThreadCpuSeconds();
      });
    }
    const double coordinator_cpu0 = ThreadCpuSeconds();
    shard::ShardCoordinator coordinator(coordinator_fds, build_options);
    Status s = coordinator.BuildGlobalBins();
    if (s.ok()) {
      Result<PrimResult> r = coordinator.RunPrim(config);
      if (r.ok()) {
        opt = *std::move(r);
      } else {
        s = r.status();
      }
    }
    coordinator.Shutdown();
    const double coordinator_cpu = ThreadCpuSeconds() - coordinator_cpu0;
    for (std::thread& t : threads) t.join();
    for (int fd : coordinator_fds) ::close(fd);
    for (int fd : worker_fds) ::close(fd);
    for (const Status& ws : statuses) {
      if (!ws.ok()) s = ws;
    }
    if (!s.ok()) {
      std::fprintf(stderr, "shard_scaling fleet: %s\n",
                   s.ToString().c_str());
      result.identical = false;
    }
    const double slowest_worker =
        *std::max_element(worker_cpu.begin(), worker_cpu.end());
    result.optimized_seconds = std::min(result.optimized_seconds,
                                        slowest_worker + coordinator_cpu);
  }
  result.identical = result.identical && SamePrimResult(ref, opt);
  return result;
}

}  // namespace
}  // namespace reds

int main(int argc, char** argv) {
  using namespace reds;
  const PerfFlags flags = ParseFlags(argc, argv);

  std::vector<KernelResult> results;
  std::printf("== bench_perf_kernels (%s mode) ==\n",
              flags.quick ? "quick" : "full");
  auto run = [&](KernelResult r) {
    std::printf("%-26s %-36s ref %8.3fs  opt %8.3fs  speedup %6.2fx  %s\n",
                r.name.c_str(), r.detail.c_str(), r.reference_seconds,
                r.optimized_seconds, r.Speedup(),
                r.approximate
                    ? (r.Ok() ? "quality ok" : "QUALITY MISMATCH")
                    : (r.identical ? "identical" : "MISMATCH"));
    std::fflush(stdout);
    results.push_back(std::move(r));
  };

  // Each kernel is wrapped in a thunk so --only can skip the (expensive)
  // setup of filtered-out kernels entirely, not just their report lines.
  auto maybe = [&](const char* name, auto make) {
    if (!flags.only.empty() &&
        std::string(name).find(flags.only) == std::string::npos) {
      return;
    }
    run(make());
  };
  maybe("prim_peel", [&] { return BenchPrimPeel(flags, /*paste=*/false); });
  maybe("prim_paste", [&] { return BenchPrimPeel(flags, /*paste=*/true); });
  maybe("prim_peel_parallel", [&] { return BenchPrimParallel(flags); });
  maybe("bumping_tune", [&] { return BenchBumpingTune(flags); });
  maybe("gbt_fit", [&] { return BenchGbtFit(flags, /*threads=*/1); });
  maybe("gbt_fit_parallel", [&] { return BenchGbtFit(flags, flags.threads); });
  maybe("gbt_fit_hist", [&] { return BenchGbtHist(flags, /*threads=*/1); });
  maybe("gbt_fit_hist_parallel",
        [&] { return BenchGbtHist(flags, flags.threads); });
  maybe("rf_fit", [&] { return BenchRfFit(flags); });
  maybe("rf_fit_hist", [&] { return BenchRfHist(flags); });
  maybe("bi_search", [&] { return BenchBi(flags); });
  maybe("svm_fit", [&] { return BenchSvmFit(flags); });
  maybe("dsgc_evaluate", [&] { return BenchDsgcEvaluate(flags); });
  maybe("hist_accumulate", [&] { return BenchHistAccumulate(flags); });
  maybe("hist_accumulate_q16", [&] { return BenchHistAccumulateQ16(flags); });
  maybe("binned_build_streamed",
        [&] { return BenchStreamedBuild(flags, /*threads=*/1); });
  maybe("binned_build_streamed_parallel",
        [&] { return BenchStreamedBuild(flags, flags.threads); });
  maybe("prim_peel_streamed", [&] { return BenchPrimStreamed(flags); });
  maybe("warm_peel", [&] { return BenchWarmPeel(flags); });
  maybe("reds_relabel_streamed",
        [&] { return BenchRedsRelabelStreamed(flags); });
  maybe("relabel_label_f", [&] {
    return BenchRelabelLabel(flags, ml::MetamodelKind::kRandomForest);
  });
  maybe("relabel_label_x",
        [&] { return BenchRelabelLabel(flags, ml::MetamodelKind::kGbt); });
  maybe("relabel_label_s",
        [&] { return BenchRelabelLabel(flags, ml::MetamodelKind::kSvm); });
  maybe("streamed_quantize", [&] { return BenchStreamedQuantize(flags); });
  maybe("method_reds_streamed_e2e",
        [&] { return BenchMethodRedsStreamed(flags); });
  maybe("metrics_overhead", [&] { return BenchMetricsOverhead(flags); });
  maybe("gbt_leafwise", [&] { return BenchGbtLeafwise(flags); });
  maybe("engine_coalesced_batch",
        [&] { return BenchEngineCoalescedBatch(flags); });
  maybe("shard_scaling", [&] { return BenchShardScaling(flags); });
  maybe("net_warm_roundtrip", [&] { return BenchNetWarmRoundtrip(flags); });
  maybe("net_saturation_throughput",
        [&] { return BenchNetSaturationThroughput(flags); });

  bool all_ok = true;
  for (const auto& r : results) all_ok = all_ok && r.Ok();

  if (!flags.metrics_out.empty()) {
    // The run as a MetricsRegistry dump: per-kernel latency histograms plus
    // pass/fail counters, in the same JSON shape DiscoveryEngine::
    // DumpMetrics emits -- one parser serves both.
    obs::MetricsRegistry registry;
    for (const auto& r : results) {
      registry.histogram("bench." + r.name + ".reference_ns")
          ->Observe(static_cast<uint64_t>(r.reference_seconds * 1e9));
      registry.histogram("bench." + r.name + ".optimized_ns")
          ->Observe(static_cast<uint64_t>(r.optimized_seconds * 1e9));
      registry.counter("bench.kernels.total")->Add(1);
      if (r.Ok()) registry.counter("bench.kernels.ok")->Add(1);
    }
    std::FILE* f = std::fopen(flags.metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", flags.metrics_out.c_str());
      return 1;
    }
    const std::string json = registry.ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", flags.metrics_out.c_str());
  }

  if (!flags.out.empty()) {
    std::FILE* f = std::fopen(flags.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", flags.out.c_str());
      return 1;
    }
    WriteJson(flags, results, f);
    std::fclose(f);
    std::printf("wrote %s\n", flags.out.c_str());
  } else {
    WriteJson(flags, results, stdout);
  }
  if (!all_ok) {
    std::fprintf(stderr, "ERROR: a kernel diverged from its reference\n");
    return 1;
  }
  if (!flags.check_against.empty() &&
      !CheckAgainstReference(flags, results)) {
    std::fprintf(stderr, "ERROR: smoke timings regressed past tolerance\n");
    return 1;
  }
  return 0;
}
