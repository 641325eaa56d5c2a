// Discovery-engine service demo: a mixed batch of concurrent discovery
// requests, the way a multi-tenant deployment would drive the library.
//
//   * Two datasets ("ellipse" and "hart3" simulations) are analyzed at once.
//   * Five method variants run against each, including three REDS variants
//     that share metamodels through the engine's cross-request cache.
//   * The main thread polls job states while workers run, then prints the
//     per-job results, the aggregated result store, and the cache's
//     amortization statistics.
//
// Build & run:  ./build/examples/engine_service
#include <chrono>
#include <cstdio>
#include <thread>

#include "engine/discovery_engine.h"
#include "functions/datagen.h"
#include "functions/registry.h"
#include "util/table.h"

int main() {
  using namespace reds;

  // "Simulate" two models up front; in a service these arrive per request.
  struct Workload {
    const char* name;
    std::shared_ptr<const Dataset> train;
    std::shared_ptr<const Dataset> test;
  };
  std::vector<Workload> workloads;
  for (const char* name : {"ellipse", "hart3"}) {
    auto function = fun::MakeFunction(name).value();
    const auto design = fun::DefaultDesignFor(*function);
    workloads.push_back(
        {name,
         std::make_shared<const Dataset>(
             fun::MakeScenarioDataset(*function, 300, design, /*seed=*/1)),
         std::make_shared<const Dataset>(
             fun::MakeScenarioDataset(*function, 10000, design, /*seed=*/2))});
  }

  engine::EngineConfig config;
  config.seed = 7;
  engine::DiscoveryEngine engine(config);
  std::printf("discovery engine up: %d worker threads\n\n", engine.threads());

  // Submit the whole mixed batch at once; handles return immediately.
  RunOptions options;
  options.l_prim = 20000;
  options.l_bi = 5000;
  options.tune_metamodel = false;  // keep the demo fast
  std::vector<engine::JobHandle> jobs;
  for (const auto& w : workloads) {
    for (const char* method : {"P", "RPx", "RPxp", "RPf", "BI"}) {
      engine::DiscoveryRequest request;
      request.train = w.train;
      request.test = w.test;
      request.method = method;
      request.options = options;
      request.cell = std::string(w.name) + "|" + method;
      jobs.push_back(engine.Submit(std::move(request)));
    }
  }
  std::printf("submitted %zu jobs; polling...\n", jobs.size());

  // A service would poll (or Wait()) per client; here we watch the batch.
  for (;;) {
    int done = 0;
    for (const auto& job : jobs) done += job->Finished() ? 1 : 0;
    std::printf("  %d/%zu finished\n", done, jobs.size());
    if (done == static_cast<int>(jobs.size())) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  engine.WaitAll();

  std::printf("\nper-job results:\n");
  TablePrinter table("jobs");
  table.SetHeader({"cell", "state", "pr_auc", "precision", "recall",
                   "restricted", "runtime_s"});
  for (const auto& job : jobs) {
    if (job->state() != engine::JobState::kDone) {
      table.AddRow({job->request().cell, "FAILED: " + job->error()});
      continue;
    }
    const engine::MetricSet& m = job->metrics();
    table.AddRow({job->request().cell, "done", FormatDouble(m.pr_auc, 2),
                  FormatDouble(m.precision, 2), FormatDouble(m.recall, 2),
                  FormatDouble(m.restricted, 0),
                  FormatDouble(m.runtime_seconds, 3)});
  }
  table.Print();

  std::printf("\naggregated result store:\n");
  engine.results().SummaryTable("result store").Print();

  const engine::CacheTierStats cache = engine.metamodel_cache().stats();
  std::printf(
      "\nmetamodel cache: %llu fits, %llu hits (%llu REDS jobs -> "
      "%zu trained metamodels)\n",
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses + cache.hits), cache.size);
  std::printf(
      "without the cache every REDS job would have trained its own "
      "metamodel.\n");
  return 0;
}
