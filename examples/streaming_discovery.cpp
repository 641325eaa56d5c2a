// Streaming scenario discovery: CSV in, boxes out, O(block) double memory.
//
//   ./build/examples/streaming_discovery [data.csv]
//       [--block N] [--alpha A] [--cache-dir DIR] [--expect-warm]
//       [--trace-dir DIR] [--metrics-out FILE]
//       [--reds-smoke L] [--tuning-smoke N]
//       [--data-plan streamed|materialized]
//       [--function NAME] [--n N0]
//
// The CSV must have a header, numeric cells, and the *last* column as the
// outcome. Without a path the tool writes a demo CSV from the lake model.
//
// The data is ingested through the streaming data plane: two chunked
// passes (mergeable quantile sketches, then uint8 bin codes) build a
// BinnedIndex without ever materializing the double matrix, and PRIM peels
// on the quantized codes alone. With --cache-dir the engine's persistent
// tier is exercised on the same data through *source-based* requests
// (DiscoveryRequest::make_train_source): a REDS request trains (cold) or
// reloads (warm) its metamodel there, a plain PRIM request runs fully
// streamed against the cached quantization, and --expect-warm makes the
// process fail unless the index tier and the REDS side (a metamodel or a
// whole relabeled stream) served hits -- the CI warm-vs-cold smoke runs
// this binary twice with one temp directory.
//
// --reds-smoke L runs an end-to-end REDS discovery ("RPx") with L
// metamodel-labeled points on a generated dataset and prints the peak RSS:
// under --data-plan streamed the relabeled points never materialize
// (O(block) doubles + L x M uint8 codes resident), so the run fits a hard
// memory cap (ulimit) that the materialized plan cannot -- the CI
// memory-ceiling smoke asserts exactly that.
//
// --tuning-smoke N grid-tunes a GBT metamodel on an N-row generated
// dataset and prints the peak RSS. Every grid cell is evaluated through
// row views over one shared full-data index (O(one fold) extra residency);
// the tuning-residency CI smoke runs it under an address-space cap and
// bounds the printed peak RSS.
//
// --trace-dir makes every engine job write a Chrome trace-event JSON of
// its pipeline stages there (open in chrome://tracing or Perfetto);
// --metrics-out dumps the engine's full metrics registry (cache tiers,
// pool, job latency quantiles) as JSON after the jobs finish. Both only
// apply to the --cache-dir engine section.
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/dataset_source.h"
#include "core/method.h"
#include "core/prim.h"
#include "engine/discovery_engine.h"
#include "functions/datagen.h"
#include "functions/registry.h"
#include "functions/thirdparty.h"
#include "ml/tuning.h"
#include "util/table.h"

namespace {

reds::Status WriteDemoCsv(const std::string& path) {
  const reds::Dataset lake = reds::fun::MakeLakeDataset();
  reds::CsvWriter csv({"b", "q", "inflow_mean", "inflow_stdev", "delta",
                       "vulnerable"});
  for (int i = 0; i < lake.num_rows(); ++i) {
    csv.AddRow({lake.x(i, 0), lake.x(i, 1), lake.x(i, 2), lake.x(i, 3),
                lake.x(i, 4), lake.y(i)});
  }
  return csv.WriteFile(path);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// End-to-end REDS under a chosen data plan, for the memory-ceiling smoke.
int RunRedsSmoke(const std::string& function_name, int n, int l,
                 reds::MethodDataPlan plan) {
  using namespace reds;
  auto function = fun::MakeFunction(function_name);
  if (!function.ok()) {
    std::fprintf(stderr, "%s\n", function.status().ToString().c_str());
    return 1;
  }
  const Dataset train = fun::MakeScenarioDataset(
      **function, n, fun::DesignKind::kLatinHypercube, /*seed=*/1);
  RunOptions options;
  options.l_prim = l;
  options.tune_metamodel = false;
  options.data_plan = plan;
  options.seed = 7;
  const MethodOutput out =
      RunMethod(*MethodSpec::Parse("RPx"), train, options);
  std::printf(
      "reds-smoke: %s, N=%d, L=%d, plan=%s\n"
      "  trajectory %zu boxes, last box restricts %d of %d inputs\n"
      "  runtime %.2fs, peak RSS %.1f MB\n",
      function_name.c_str(), n, l,
      plan == MethodDataPlan::kStreamed ? "streamed" : "materialized",
      out.trajectory.size(), out.last_box.NumRestricted(),
      (*function)->dim(), out.runtime_seconds, PeakRssMb());
  return 0;
}

// Grid-tuned metamodel fit, for the tuning-residency smoke.
int RunTuningSmoke(const std::string& function_name, int n) {
  using namespace reds;
  auto function = fun::MakeFunction(function_name);
  if (!function.ok()) {
    std::fprintf(stderr, "%s\n", function.status().ToString().c_str());
    return 1;
  }
  const Dataset train = fun::MakeScenarioDataset(
      **function, n, fun::DesignKind::kLatinHypercube, /*seed=*/1);
  ml::TuningConfig config;
  config.folds = 3;
  config.backend = ml::SplitBackend::kHistogram;
  const auto model =
      ml::TuneAndFit(ml::MetamodelKind::kGbt, train, /*seed=*/7, config);
  if (model == nullptr) {
    std::fprintf(stderr, "tuning produced no model\n");
    return 1;
  }
  std::printf(
      "tuning-smoke: %s, n=%d x %d inputs, folds=%d\n"
      "  peak RSS %.1f MB\n",
      function_name.c_str(), n, train.num_cols(), config.folds, PeakRssMb());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reds;

  std::string path;
  std::string cache_dir;
  std::string trace_dir;
  std::string metrics_out;
  std::string smoke_function = "morris";
  int smoke_n = 300;
  int reds_smoke_l = 0;
  int tuning_smoke_n = 0;
  MethodDataPlan data_plan = MethodDataPlan::kStreamed;
  bool expect_warm = false;
  StreamedBuildOptions build_options;
  build_options.threads = 2;
  PrimConfig prim_config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--block") {
      build_options.block_rows = std::atoi(next());
    } else if (arg == "--alpha") {
      prim_config.alpha = std::atof(next());
    } else if (arg == "--cache-dir") {
      cache_dir = next();
    } else if (arg == "--trace-dir") {
      trace_dir = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--expect-warm") {
      expect_warm = true;
    } else if (arg == "--reds-smoke") {
      reds_smoke_l = std::atoi(next());
    } else if (arg == "--tuning-smoke") {
      tuning_smoke_n = std::atoi(next());
    } else if (arg == "--data-plan") {
      const std::string plan = next();
      if (plan == "streamed") {
        data_plan = MethodDataPlan::kStreamed;
      } else if (plan == "materialized") {
        data_plan = MethodDataPlan::kMaterialized;
      } else {
        std::fprintf(stderr, "--data-plan must be streamed or materialized\n");
        return 2;
      }
    } else if (arg == "--function") {
      smoke_function = next();
    } else if (arg == "--n") {
      smoke_n = std::atoi(next());
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      path = arg;
    }
  }

  if (reds_smoke_l > 0) {
    return RunRedsSmoke(smoke_function, smoke_n, reds_smoke_l, data_plan);
  }
  if (tuning_smoke_n > 0) {
    return RunTuningSmoke(smoke_function, tuning_smoke_n);
  }

  if (path.empty()) {
    path = "/tmp/reds_demo_lake.csv";
    const Status s = WriteDemoCsv(path);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write demo data: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("no input given; wrote demo lake data to %s\n", path.c_str());
  }

  // --- Streamed ingestion: CSV -> sketches -> uint8 codes. ---------------
  auto source = CsvFileSource::Open(path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto streamed = BinnedIndex::BuildStreamed(source->get(), build_options);
  if (!streamed.ok()) {
    std::fprintf(stderr, "%s\n", streamed.status().ToString().c_str());
    return 1;
  }
  const BinnedIndex& index = *streamed->index;
  double positive = 0.0;
  for (double v : streamed->y) positive += v;
  std::printf(
      "streamed %d rows x %d inputs in blocks of %d (%.1f%% positive)\n",
      index.num_rows(), index.num_cols(), build_options.block_rows,
      100.0 * positive / index.num_rows());
  std::printf("  binning: %s; fingerprint %016llx\n",
              index.kind() == BinnedIndex::BuildKind::kExactPack
                  ? "exact (every column fits the bin budget)"
                  : "sketch quantiles (bounded rank error)",
              static_cast<unsigned long long>(streamed->fingerprint));

  // --- PRIM on the quantized plane alone. --------------------------------
  const PrimResult result =
      RunPrimStreamed(index, streamed->y, prim_config);
  const std::vector<std::string>& names = (*source)->column_names();
  std::printf("\ndiscovered scenario (%zu nested boxes):\n  IF %s THEN %s = 1\n",
              result.boxes.size(),
              result.BestBox().ToString(names).c_str(),
              (*source)->target_name().c_str());
  const auto& best = result.val_curve[static_cast<size_t>(result.best_val_index)];
  std::printf("  training precision %.3f, recall %.3f\n", best.precision,
              best.recall);

  // --- Persistent cache tier (optional), driven by source requests. ------
  // Both jobs hand the engine a DatasetSource factory instead of a
  // materialized Dataset: "RPx" exercises the metamodel tier (the engine
  // fingerprints the stream, then trains cold / reloads warm), "P" runs
  // fully streamed against the streamed-index tier (BuildStreamed cold,
  // LoadStreamedIndex warm).
  if (!cache_dir.empty()) {
    engine::EngineConfig config;
    config.cache_dir = cache_dir;
    config.trace_dir = trace_dir;
    engine::DiscoveryEngine engine(config);
    for (const char* method : {"RPx", "P"}) {
      engine::DiscoveryRequest request;
      request.make_train_source = [path]() -> std::unique_ptr<DatasetSource> {
        auto csv = CsvFileSource::Open(path);
        if (!csv.ok()) {
          std::fprintf(stderr, "cannot open training stream: %s\n",
                       csv.status().ToString().c_str());
          return nullptr;
        }
        return std::unique_ptr<DatasetSource>(std::move(*csv));
      };
      request.method = method;
      request.options.l_prim = 20000;
      request.options.tune_metamodel = false;
      const engine::JobHandle job = engine.Submit(request);
      job->Wait();
      if (job->state() == engine::JobState::kFailed) {
        std::fprintf(stderr, "job %s failed: %s\n", method,
                     job->error().c_str());
        return 1;
      }
    }
    const engine::PersistentCacheStats stats = engine.persistent_cache_stats();
    engine.Shutdown();
    if (!trace_dir.empty()) {
      std::printf("\nwrote per-job traces to %s\n", engine.trace_dir().c_str());
    }
    if (!metrics_out.empty()) {
      const std::string dump = engine.DumpMetrics();
      std::FILE* f = std::fopen(metrics_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
        return 1;
      }
      std::fwrite(dump.data(), 1, dump.size(), f);
      std::fclose(f);
      std::printf("wrote engine metrics to %s\n", metrics_out.c_str());
    }
    std::printf(
        "\npersistent cache (%s):\n  index  hits %d  misses %d  writes %d\n"
        "  model  hits %d  misses %d  writes %d\n"
        "  relabel  hits %d  misses %d  writes %d\n  rejected %d  evicted %d\n",
        cache_dir.c_str(), stats.index_hits, stats.index_misses,
        stats.index_writes, stats.model_hits, stats.model_misses,
        stats.model_writes, stats.relabel_hits, stats.relabel_misses,
        stats.relabel_writes, stats.rejected, stats.evictions);
    // A warm REDS job is served either its metamodel or, on the streamed
    // plan, its whole relabeled stream (which then never loads the model):
    // both count as the REDS side coming from disk.
    const int reds_hits = stats.model_hits + stats.relabel_hits;
    if (expect_warm && (reds_hits < 1 || stats.index_hits < 1)) {
      std::fprintf(stderr,
                   "ERROR: --expect-warm but the cache served no hits "
                   "(model %d, relabel %d, index %d)\n",
                   stats.model_hits, stats.relabel_hits, stats.index_hits);
      return 1;
    }
  }
  return 0;
}
