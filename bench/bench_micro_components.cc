// Micro-benchmarks (google-benchmark) for the complexity claims of paper
// Section 7: PRIM peeling ~ O(M N (log N + 1/alpha)), BestIntervalWRAcc
// linear in N after sorting, metamodel training costs, and the substrate
// pieces (eigen solver, LHS, DSGC evaluation, REDS relabeling).
#include <benchmark/benchmark.h>

#include "core/best_interval.h"
#include "core/prim.h"
#include "core/reds.h"
#include "engine/discovery_engine.h"
#include "functions/dsgc.h"
#include "functions/registry.h"
#include "la/matrix.h"
#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "ml/svm.h"
#include "sampling/design.h"
#include "util/rng.h"

namespace reds {
namespace {

Dataset RandomData(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.Uniform();
    d.AddRow(x, rng.Bernoulli(x[0] < 0.4 ? 0.8 : 0.2) ? 1.0 : 0.0);
  }
  return d;
}

void BM_PrimPeel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Dataset d = RandomData(n, 10, 1);
  PrimConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPrim(d, d, config).boxes.size());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_PrimPeel)->Range(256, 16384)->Complexity(benchmark::oNLogN);

void BM_BestIntervalOneDim(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Dataset d = RandomData(n, 4, 2);
  const Box box = Box::Unbounded(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestIntervalForDimension(d, box, 0).dim());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BestIntervalOneDim)->Range(256, 32768)->Complexity(benchmark::oNLogN);

void BM_BiFull(benchmark::State& state) {
  const Dataset d = RandomData(static_cast<int>(state.range(0)), 8, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunBi(d, {}).wracc);
  }
}
BENCHMARK(BM_BiFull)->Range(256, 4096);

void BM_RandomForestFit(benchmark::State& state) {
  const Dataset d = RandomData(static_cast<int>(state.range(0)), 10, 4);
  ml::RandomForestConfig config;
  config.num_trees = 50;
  for (auto _ : state) {
    ml::RandomForest rf(config);
    rf.Fit(d, 5);
    benchmark::DoNotOptimize(rf.num_trees());
  }
}
BENCHMARK(BM_RandomForestFit)->Range(128, 1024);

void BM_GbtFit(benchmark::State& state) {
  const Dataset d = RandomData(static_cast<int>(state.range(0)), 10, 6);
  ml::GbtConfig config;
  config.num_rounds = 50;
  for (auto _ : state) {
    ml::GradientBoostedTrees gbt(config);
    gbt.Fit(d, 7);
    benchmark::DoNotOptimize(gbt.num_trees());
  }
}
BENCHMARK(BM_GbtFit)->Range(128, 1024);

void BM_SvmFit(benchmark::State& state) {
  const Dataset d = RandomData(static_cast<int>(state.range(0)), 10, 8);
  for (auto _ : state) {
    ml::SvmRbf svm;
    svm.Fit(d, 9);
    benchmark::DoNotOptimize(svm.num_support_vectors());
  }
}
BENCHMARK(BM_SvmFit)->Range(128, 512);

void BM_Eigenvalues15x15(benchmark::State& state) {
  Rng rng(10);
  la::Matrix a(15, 15);
  for (int r = 0; r < 15; ++r)
    for (int c = 0; c < 15; ++c) a(r, c) = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::Eigenvalues(a)->size());
  }
}
BENCHMARK(BM_Eigenvalues15x15);

void BM_DsgcEvaluate(benchmark::State& state) {
  Rng rng(11);
  double x[12];
  for (auto _ : state) {
    for (auto& v : x) v = rng.Uniform();
    benchmark::DoNotOptimize(
        fun::DsgcSpectralAbscissa(fun::DsgcParamsFromUnitCube(x)));
  }
}
BENCHMARK(BM_DsgcEvaluate);

void BM_LatinHypercube(benchmark::State& state) {
  Rng rng(12);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampling::LatinHypercube(n, 20, &rng).size());
  }
}
BENCHMARK(BM_LatinHypercube)->Range(256, 16384);

void BM_RedsRelabel(benchmark::State& state) {
  const Dataset d = RandomData(400, 10, 13);
  RedsConfig config;
  config.metamodel = ml::MetamodelKind::kGbt;
  config.tune_metamodel = false;
  config.num_new_points = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RedsRelabel(d, config, 14).new_data.num_rows());
  }
}
BENCHMARK(BM_RedsRelabel)->Range(1024, 32768);

// Discovery-engine batch of three REDS variants sharing one GBT metamodel
// ("RPx", "RPxp", "RBIx" on the same data). With the cache on, the
// metamodel is fit once and reused; with it off, every request fits its
// own. The ratio of these two benchmarks is the cache's amortization win.
void RunEngineThreeVariantBatch(benchmark::State& state,
                                bool cache_metamodels) {
  const auto d = std::make_shared<const Dataset>(RandomData(400, 10, 15));
  RunOptions options;
  options.l_prim = 4000;
  options.l_bi = 2000;
  options.tune_metamodel = false;
  for (auto _ : state) {
    engine::EngineConfig config;
    config.threads = 1;  // serialize so the fit cost is not hidden by cores
    config.cache_metamodels = cache_metamodels;
    // Measure real fits: a developer's REDS_CACHE_DIR must not turn the
    // uncached arm into warm disk loads.
    config.enable_persistent_cache = false;
    engine::DiscoveryEngine eng(config);
    for (const char* method : {"RPx", "RPxp", "RBIx"}) {
      engine::DiscoveryRequest request;
      request.train = d;
      request.method = method;
      request.options = options;
      eng.Submit(std::move(request));
    }
    eng.WaitAll();
    benchmark::DoNotOptimize(eng.metamodel_cache().misses());
  }
}

void BM_EngineBatch3VariantsUncached(benchmark::State& state) {
  RunEngineThreeVariantBatch(state, false);
}
BENCHMARK(BM_EngineBatch3VariantsUncached)->Unit(benchmark::kMillisecond);

void BM_EngineBatch3VariantsCached(benchmark::State& state) {
  RunEngineThreeVariantBatch(state, true);
}
BENCHMARK(BM_EngineBatch3VariantsCached)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace reds

BENCHMARK_MAIN();
