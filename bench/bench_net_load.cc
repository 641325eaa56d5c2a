// Saturation load harness for the discovery service (PR 10): hundreds of
// simulated clients drive DiscoveryServer over real sockets with the mixed
// request shapes a deployment sees -- warm streamed-REDS at paper scale,
// warm eager repeats, cold one-off discoveries, and identical coalescible
// bursts -- then push offered load past the admission cap to verify the
// server sheds instead of collapsing. Client-side latencies are
// cross-checked against the server's own histograms via a metrics-scrape
// frame, and everything lands in BENCH_pr10.json-style output.
//
//   bench_net_load                         # in-process server, paper scale
//   bench_net_load --quick                 # CI smoke: seconds, small sizes
//   bench_net_load --address unix:/tmp/reds.sock   # external server
//   bench_net_load --out BENCH_pr10.json --scrape-out scrape.prom
//
// Checks (process exit code 1 if any fails):
//   warm_p50_under_10ms  warm streamed-REDS p50 <= 10 ms over the wire,
//                        measured by a dedicated single-client probe after
//                        warmup -- a latency target is an unloaded-service
//                        property, so it is not gated on the mixed phase,
//                        where a small box drowns in closed-loop queueing
//                        (the mixed-phase percentiles are still reported)
//   saturation_flat      4x offered load keeps >= 50% of 1x throughput
//   shed_seen            past-saturation load produced kShed frames
//   server_client_agree  scrape counters match client books; server p50
//                        (decode to result enqueue) <= client p50 + wire
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/discovery_engine.h"
#include "net/client.h"
#include "net/server.h"

namespace reds {
namespace {

struct LoadFlags {
  bool quick = false;
  std::string address;       // empty: spawn the server in-process
  int clients = 200;         // mixed-phase simulated clients
  int requests = 10;         // mixed-phase requests per client
  int sat_clients = 8;       // saturation 1x client count (4x = four times)
  int sat_requests = 10;     // saturation requests per client
  int threads = 0;           // engine threads (in-process server)
  int queue_depth = 2;       // saturation admission cap (in-process server)
  int think_ms = 100;        // per-client pause between mixed requests
  uint64_t seed = 42;
  // Paper scale (Fig. 9): streamed REDS over L=100k relabeled points.
  int64_t streamed_rows = 10000;
  int l_prim = 100000;
  int dims = 10;
  std::string out;
  std::string scrape_out;    // Prometheus text scrape path
};

LoadFlags ParseFlags(int argc, char** argv) {
  LoadFlags flags;
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
    } else if (arg == "--address") {
      flags.address = next_value(&i);
    } else if (arg == "--clients") {
      flags.clients = std::atoi(next_value(&i));
    } else if (arg == "--requests") {
      flags.requests = std::atoi(next_value(&i));
    } else if (arg == "--sat-clients") {
      flags.sat_clients = std::atoi(next_value(&i));
    } else if (arg == "--sat-requests") {
      flags.sat_requests = std::atoi(next_value(&i));
    } else if (arg == "--threads") {
      flags.threads = std::atoi(next_value(&i));
    } else if (arg == "--queue-depth") {
      flags.queue_depth = std::atoi(next_value(&i));
    } else if (arg == "--think-ms") {
      flags.think_ms = std::atoi(next_value(&i));
    } else if (arg == "--seed") {
      flags.seed = static_cast<uint64_t>(std::atoll(next_value(&i)));
    } else if (arg == "--out") {
      flags.out = next_value(&i);
    } else if (arg == "--scrape-out") {
      flags.scrape_out = next_value(&i);
    } else if (arg == "--help") {
      std::printf(
          "usage: bench_net_load [--quick] [--address unix:PATH|tcp:h:p] "
          "[--clients N] [--requests N] [--sat-clients N] [--sat-requests N] "
          "[--threads N] [--queue-depth N] [--think-ms MS] [--seed S] "
          "[--out file.json] [--scrape-out scrape.prom]\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (see --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  if (flags.quick) {
    flags.clients = 12;
    flags.requests = 5;
    flags.sat_clients = 4;
    flags.sat_requests = 6;
    flags.think_ms = 10;
    flags.streamed_rows = 3000;
    flags.l_prim = 3000;
    flags.dims = 6;
  }
  return flags;
}

// The four request shapes in the mixed phase. Warm pools cycle 4 specs
// each, so after warmup every repeat rides hot caches; cold uses a
// globally unique seed per request; coalesce derives its seed from the
// round counter, so concurrent clients in the same round submit identical
// requests and exercise single-flight over the wire.
enum class Category { kWarmStreamed, kWarmEager, kCold, kCoalesce };

const char* CategoryName(Category c) {
  switch (c) {
    case Category::kWarmStreamed: return "warm_streamed";
    case Category::kWarmEager: return "warm_eager";
    case Category::kCold: return "cold";
    case Category::kCoalesce: return "coalesce";
  }
  return "?";
}

constexpr int kPool = 4;  // distinct specs per warm pool

struct SpecMaker {
  const LoadFlags* flags;

  net::SubmitRequest WarmStreamed(int slot) const {
    net::SubmitRequest r = net::MakeSubmit(
        0, "RPx", net::DataMode::kStreamedSource, flags->streamed_rows,
        flags->dims, flags->seed + 100 + static_cast<uint64_t>(slot), 0.05,
        flags->l_prim);
    return r;
  }
  net::SubmitRequest WarmEager(int slot) const {
    return net::MakeSubmit(0, "RPx", net::DataMode::kEager,
                           flags->quick ? 600 : 2000, flags->dims,
                           flags->seed + 200 + static_cast<uint64_t>(slot),
                           0.05, flags->quick ? 3000 : 20000);
  }
  net::SubmitRequest Cold(uint64_t unique) const {
    return net::MakeSubmit(0, "P", net::DataMode::kEager, 500, flags->dims,
                           flags->seed + 1000000 + unique, 0.05, 1500);
  }
  net::SubmitRequest Coalesce(int round) const {
    return net::MakeSubmit(0, "RPx", net::DataMode::kEager,
                           flags->quick ? 600 : 2000, flags->dims,
                           flags->seed + 3000 + static_cast<uint64_t>(round),
                           0.05, flags->quick ? 3000 : 20000);
  }
};

struct Percentiles {
  size_t count = 0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, mean = 0.0;
};

Percentiles Summarize(std::vector<double> ms) {
  Percentiles p;
  p.count = ms.size();
  if (ms.empty()) return p;
  std::sort(ms.begin(), ms.end());
  const auto at = [&](double q) {
    return ms[std::min(ms.size() - 1,
                       static_cast<size_t>(q * static_cast<double>(ms.size())))];
  };
  p.p50 = at(0.50);
  p.p90 = at(0.90);
  p.p99 = at(0.99);
  double sum = 0.0;
  for (double v : ms) sum += v;
  p.mean = sum / static_cast<double>(ms.size());
  return p;
}

double MsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Minimal extraction of `"key": <number>` after the first occurrence of
// `section` in a metrics JSON dump.
double JsonNumberAfter(const std::string& body, const std::string& section,
                       const std::string& key) {
  const size_t at = body.find(section);
  if (at == std::string::npos) return -1.0;
  const size_t k = body.find("\"" + key + "\": ", at);
  if (k == std::string::npos) return -1.0;
  return std::atof(body.c_str() + k + key.size() + 4);
}

struct MixedResult {
  std::map<std::string, std::vector<double>> latencies_ms;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  double seconds = 0.0;
};

MixedResult RunMixedPhase(const LoadFlags& flags, const std::string& address) {
  const SpecMaker specs{&flags};
  MixedResult total;
  std::mutex merge_mutex;
  std::atomic<uint64_t> cold_counter{0};
  const auto phase_start = std::chrono::steady_clock::now();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(flags.clients));
  for (int c = 0; c < flags.clients; ++c) {
    threads.emplace_back([&, c] {
      MixedResult local;
      net::NetClient client;
      if (!client.Connect(address).ok() ||
          !client.Hello("load" + std::to_string(c)).ok()) {
        std::lock_guard<std::mutex> lock(merge_mutex);
        total.failed += static_cast<uint64_t>(flags.requests);
        return;
      }
      for (int r = 0; r < flags.requests; ++r) {
        // 40% warm streamed (the headline ask), 20% each of the rest.
        const Category category =
            (r % 5 == 0 || r % 5 == 3)   ? Category::kWarmStreamed
            : (r % 5 == 1)               ? Category::kWarmEager
            : (r % 5 == 2)               ? Category::kCold
                                         : Category::kCoalesce;
        net::SubmitRequest request =
            category == Category::kWarmStreamed
                ? specs.WarmStreamed((c + r) % kPool)
            : category == Category::kWarmEager
                ? specs.WarmEager((c + r) % kPool)
            : category == Category::kCold ? specs.Cold(cold_counter++)
                                          : specs.Coalesce(r);
        request.request_id =
            static_cast<uint64_t>(c) * 1000000ull + static_cast<uint64_t>(r);
        const auto start = std::chrono::steady_clock::now();
        auto outcome = client.Submit(request);
        if (!outcome.ok()) {
          local.failed++;
          break;  // connection gone
        }
        if (outcome->kind == net::SubmitOutcome::Kind::kShed) {
          local.shed++;
          continue;  // unlimited caps in this phase; treat as lost sample
        }
        if (outcome->kind != net::SubmitOutcome::Kind::kAdmitted) {
          local.failed++;
          continue;
        }
        auto reply = client.WaitResult(request.request_id);
        if (!reply.ok() || reply->done.failed) {
          local.failed++;
          continue;
        }
        local.admitted++;
        local.latencies_ms[CategoryName(category)].push_back(MsSince(start));
        if (flags.think_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(flags.think_ms));
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      total.admitted += local.admitted;
      total.shed += local.shed;
      total.failed += local.failed;
      for (auto& [name, values] : local.latencies_ms) {
        auto& sink = total.latencies_ms[name];
        sink.insert(sink.end(), values.begin(), values.end());
      }
    });
  }
  for (auto& t : threads) t.join();
  total.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    phase_start)
          .count();
  return total;
}

struct SaturationRun {
  int clients = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  double seconds = 0.0;

  double Throughput() const {
    return seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
  }
};

// Closed-loop cold submits (unique seeds: never coalescible, every one
// needs a pool slot) against a low admission cap; sheds are retried after
// the server's hint. Offered load scales with the client count.
SaturationRun RunSaturation(const LoadFlags& flags, const std::string& address,
                            int clients, uint64_t seed_base) {
  const SpecMaker specs{&flags};
  SaturationRun run;
  run.clients = clients;
  std::mutex merge_mutex;
  std::atomic<uint64_t> unique{seed_base};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      SaturationRun local;
      net::NetClient client;
      // A failed connect or a lost connection fails the request in hand
      // and every one not yet sent; the books merge either way.
      bool connected = client.Connect(address).ok() &&
                       client.Hello("sat" + std::to_string(c)).ok();
      for (int r = 0; r < flags.sat_requests; ++r) {
        net::SubmitRequest request = specs.Cold(unique++);
        request.request_id = 7000000ull + static_cast<uint64_t>(c) * 10000ull +
                             static_cast<uint64_t>(r);
        bool done = false;
        for (int attempt = 0; attempt < 50 && connected && !done; ++attempt) {
          auto outcome = client.Submit(request);
          if (!outcome.ok()) {
            connected = false;
            break;
          }
          if (outcome->kind == net::SubmitOutcome::Kind::kShed) {
            local.shed++;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min<uint32_t>(outcome->retry_after_ms, 10)));
            continue;
          }
          if (outcome->kind != net::SubmitOutcome::Kind::kAdmitted) break;
          auto reply = client.WaitResult(request.request_id);
          if (!reply.ok() || reply->done.failed) break;
          local.completed++;
          done = true;
        }
        if (!done) local.failed++;  // rejected, failed, retries spent or lost
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      run.completed += local.completed;
      run.shed += local.shed;
      run.failed += local.failed;
    });
  }
  for (auto& t : threads) t.join();
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return run;
}

void AppendPercentiles(std::string* out, const char* name,
                       const Percentiles& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"count\": %zu, \"p50_ms\": %.3f, "
                "\"p90_ms\": %.3f, \"p99_ms\": %.3f, \"mean_ms\": %.3f}",
                name, p.count, p.p50, p.p90, p.p99, p.mean);
  *out += buf;
}

}  // namespace

int Main(int argc, char** argv) {
  const LoadFlags flags = ParseFlags(argc, argv);

  // In-process deployment unless --address points at an external server.
  // The saturation phase needs a low admission cap; in-process it gets its
  // own engine+server pair so the mixed phase stays uncapped, while an
  // external server is taken as configured (the CI smoke starts it with a
  // low --queue-depth on purpose).
  std::unique_ptr<engine::DiscoveryEngine> engine;
  std::unique_ptr<net::DiscoveryServer> server;
  std::unique_ptr<engine::DiscoveryEngine> sat_engine;
  std::unique_ptr<net::DiscoveryServer> sat_server;
  std::string address = flags.address;
  std::string sat_address = flags.address;
  if (address.empty()) {
    engine::EngineConfig config;
    config.threads = flags.threads;
    config.enable_persistent_cache = false;
    engine = std::make_unique<engine::DiscoveryEngine>(config);
    net::ServerConfig server_config;
    server_config.address = "unix:/tmp/reds_net_load_" +
                            std::to_string(::getpid()) + ".sock";
    server = std::make_unique<net::DiscoveryServer>(engine.get(),
                                                    server_config);
    Status s = server->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "server start: %s\n", s.ToString().c_str());
      return 1;
    }
    address = server->address();

    sat_engine = std::make_unique<engine::DiscoveryEngine>(config);
    net::ServerConfig sat_config;
    sat_config.address = "unix:/tmp/reds_net_load_sat_" +
                         std::to_string(::getpid()) + ".sock";
    sat_config.max_queue_depth = flags.queue_depth;
    sat_config.retry_after_ms = 5;
    sat_server = std::make_unique<net::DiscoveryServer>(sat_engine.get(),
                                                        sat_config);
    s = sat_server->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "saturation server start: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    sat_address = sat_server->address();
  }

  std::printf("== bench_net_load (%s mode) against %s ==\n",
              flags.quick ? "quick" : "full", address.c_str());

  // Warmup: materialize both warm pools once so the measured phase sees
  // hot caches, the way a long-running deployment would.
  {
    const SpecMaker specs{&flags};
    net::NetClient client;
    if (!client.Connect(address).ok() || !client.Hello("warmup").ok()) {
      std::fprintf(stderr, "warmup connect failed\n");
      return 1;
    }
    const auto start = std::chrono::steady_clock::now();
    uint64_t id = 1;
    for (int slot = 0; slot < kPool; ++slot) {
      for (net::SubmitRequest request :
           {specs.WarmStreamed(slot), specs.WarmEager(slot)}) {
        request.request_id = id++;
        if (!client.Submit(request).ok() ||
            !client.WaitResult(request.request_id).ok()) {
          std::fprintf(stderr, "warmup request failed\n");
          return 1;
        }
      }
    }
    std::printf("warmup: %d specs in %.2fs\n", 2 * kPool,
                MsSince(start) / 1000.0);
  }

  // Warm probe: the latency target itself. One client, warm streamed-REDS
  // specs only, nothing else in flight -- the p50 is the service's warm
  // answer time over the wire (after the warmup above, identical repeats
  // replay from the server's result cache, so this measures the net
  // stack, not a PRIM recompute).
  Percentiles probe;
  {
    const SpecMaker specs{&flags};
    net::NetClient client;
    if (!client.Connect(address).ok() || !client.Hello("probe").ok()) {
      std::fprintf(stderr, "probe connect failed\n");
      return 1;
    }
    std::vector<double> ms;
    const int probe_requests = 3 * kPool;
    for (int r = 0; r < probe_requests; ++r) {
      net::SubmitRequest request = specs.WarmStreamed(r % kPool);
      request.request_id = 500000ull + static_cast<uint64_t>(r);
      const auto start = std::chrono::steady_clock::now();
      if (!client.Submit(request).ok() ||
          !client.WaitResult(request.request_id).ok()) {
        std::fprintf(stderr, "probe request failed\n");
        return 1;
      }
      ms.push_back(MsSince(start));
    }
    probe = Summarize(std::move(ms));
    std::printf("warm probe: n=%zu p50 %.3fms p90 %.3fms p99 %.3fms\n",
                probe.count, probe.p50, probe.p90, probe.p99);
  }

  // Phase 1: the mixed workload.
  std::printf("mixed phase: %d clients x %d requests...\n", flags.clients,
              flags.requests);
  const MixedResult mixed = RunMixedPhase(flags, address);
  std::map<std::string, Percentiles> stats;
  for (const auto& [name, values] : mixed.latencies_ms) {
    stats[name] = Summarize(values);
  }
  std::vector<double> all_ms;
  for (const auto& [name, values] : mixed.latencies_ms) {
    all_ms.insert(all_ms.end(), values.begin(), values.end());
  }
  const Percentiles overall = Summarize(all_ms);
  for (const auto& [name, p] : stats) {
    std::printf("  %-14s n=%-5zu p50 %7.2fms  p90 %7.2fms  p99 %7.2fms\n",
                name.c_str(), p.count, p.p50, p.p90, p.p99);
  }
  std::printf("  throughput %.1f req/s (%.2fs wall, %llu done, %llu failed)\n",
              static_cast<double>(mixed.admitted) / mixed.seconds,
              mixed.seconds,
              static_cast<unsigned long long>(mixed.admitted),
              static_cast<unsigned long long>(mixed.failed));

  // Cross-check against the server's own books via a scrape frame.
  uint64_t server_admitted = 0, server_exempt = 0;
  double server_p50_ms = -1.0, server_p99_ms = -1.0;
  {
    net::NetClient client;
    if (client.Connect(address).ok() && client.Hello("scraper").ok()) {
      auto json = client.Scrape(net::ScrapeFormat::kJson);
      if (json.ok()) {
        server_admitted = static_cast<uint64_t>(
            JsonNumberAfter(*json, "\"counters\"", "net.submits_admitted"));
        server_exempt = static_cast<uint64_t>(JsonNumberAfter(
            *json, "\"counters\"", "net.submits_coalesced_exempt"));
        server_p50_ms =
            JsonNumberAfter(*json, "\"net.request_latency_ns\"", "p50") / 1e6;
        server_p99_ms =
            JsonNumberAfter(*json, "\"net.request_latency_ns\"", "p99") / 1e6;
      }
      if (!flags.scrape_out.empty()) {
        auto prom = client.Scrape(net::ScrapeFormat::kPrometheus);
        if (prom.ok()) {
          std::ofstream f(flags.scrape_out);
          f << *prom;
          std::printf("wrote %s\n", flags.scrape_out.c_str());
        }
      }
    }
  }
  std::printf(
      "  server books: admitted %llu (client saw %llu), coalesce-exempt "
      "%llu, p50 %.2fms p99 %.2fms\n",
      static_cast<unsigned long long>(server_admitted),
      static_cast<unsigned long long>(mixed.admitted + 2 * kPool +
                                      probe.count),
      static_cast<unsigned long long>(server_exempt), server_p50_ms,
      server_p99_ms);

  // Phase 2: past saturation. Offered load 1x vs 4x against the capped
  // server; shed-not-crash means 4x holds throughput instead of dying.
  std::printf("saturation phase (queue depth %d): 1x=%d clients...\n",
              flags.queue_depth, flags.sat_clients);
  const SaturationRun one_x =
      RunSaturation(flags, sat_address, flags.sat_clients, 10000000ull);
  std::printf("  1x: %.1f req/s, %llu shed, %llu failed\n",
              one_x.Throughput(), static_cast<unsigned long long>(one_x.shed),
              static_cast<unsigned long long>(one_x.failed));
  const SaturationRun four_x =
      RunSaturation(flags, sat_address, flags.sat_clients * 4, 20000000ull);
  std::printf("  4x: %.1f req/s, %llu shed, %llu failed\n",
              four_x.Throughput(), static_cast<unsigned long long>(four_x.shed),
              static_cast<unsigned long long>(four_x.failed));

  // Checks.
  const bool warm_ok = probe.count > 0 && probe.p50 <= 10.0;
  const bool sat_flat =
      four_x.Throughput() >= 0.5 * one_x.Throughput() && four_x.completed > 0;
  const bool shed_seen = one_x.shed + four_x.shed > 0;
  // Client books exclude the scraper's 0 admits but count the warmup's
  // 2*kPool and the probe's requests; the server counts every admit on
  // that socket. The server-side p50 (decode to result enqueue) must sit
  // at or below what clients saw end-to-end -- with slack for the
  // distribution mismatch (the server histogram also holds the warmup and
  // probe samples the mixed-phase client books do not).
  const uint64_t client_admitted =
      mixed.admitted + 2 * kPool + static_cast<uint64_t>(probe.count);
  const bool counts_agree = server_admitted == client_admitted;
  const bool latency_agrees =
      server_p50_ms >= 0.0 && server_p50_ms <= overall.p50 * 1.5 + 5.0;
  const bool server_client_agree = counts_agree && latency_agrees;
  const bool all_ok =
      warm_ok && sat_flat && shed_seen && server_client_agree &&
      mixed.failed == 0;
  std::printf(
      "checks: warm_p50_under_10ms=%d saturation_flat=%d shed_seen=%d "
      "server_client_agree=%d failed=%llu => %s\n",
      warm_ok, sat_flat, shed_seen, server_client_agree,
      static_cast<unsigned long long>(mixed.failed),
      all_ok ? "OK" : "FAIL");

  // JSON out.
  std::string json = "{\n  \"bench\": \"bench_net_load\",\n";
  json += std::string("  \"mode\": \"") + (flags.quick ? "quick" : "full") +
          "\",\n";
  {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"config\": {\"clients\": %d, \"requests\": %d, "
                  "\"sat_clients\": %d, \"sat_requests\": %d, "
                  "\"queue_depth\": %d, \"think_ms\": %d, "
                  "\"streamed_rows\": %lld, \"l_prim\": %d, \"dims\": %d, "
                  "\"seed\": %llu},\n",
                  flags.clients, flags.requests, flags.sat_clients,
                  flags.sat_requests, flags.queue_depth, flags.think_ms,
                  static_cast<long long>(flags.streamed_rows), flags.l_prim,
                  flags.dims, static_cast<unsigned long long>(flags.seed));
    json += buf;
  }
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"warm_probe\": {\"count\": %zu, \"p50_ms\": %.3f, "
                  "\"p90_ms\": %.3f, \"p99_ms\": %.3f, \"mean_ms\": %.3f},\n",
                  probe.count, probe.p50, probe.p90, probe.p99, probe.mean);
    json += buf;
  }
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"mixed\": {\n    \"admitted\": %llu, \"shed\": %llu, "
                  "\"failed\": %llu, \"seconds\": %.3f, "
                  "\"throughput_rps\": %.2f,\n    \"categories\": {\n",
                  static_cast<unsigned long long>(mixed.admitted),
                  static_cast<unsigned long long>(mixed.shed),
                  static_cast<unsigned long long>(mixed.failed),
                  mixed.seconds,
                  static_cast<double>(mixed.admitted) / mixed.seconds);
    json += buf;
  }
  {
    bool first = true;
    for (const auto& [name, p] : stats) {
      if (!first) json += ",\n";
      first = false;
      AppendPercentiles(&json, name.c_str(), p);
    }
    json += "\n    }\n  },\n";
  }
  {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "  \"server\": {\"admitted\": %llu, "
                  "\"coalesced_exempt\": %llu, \"request_p50_ms\": %.3f, "
                  "\"request_p99_ms\": %.3f},\n",
                  static_cast<unsigned long long>(server_admitted),
                  static_cast<unsigned long long>(server_exempt),
                  server_p50_ms, server_p99_ms);
    json += buf;
  }
  {
    const auto run_json = [](const char* label, const SaturationRun& r) {
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "    {\"offered\": \"%s\", \"clients\": %d, "
                    "\"completed\": %llu, \"shed\": %llu, \"failed\": %llu, "
                    "\"seconds\": %.3f, \"throughput_rps\": %.2f}",
                    label, r.clients,
                    static_cast<unsigned long long>(r.completed),
                    static_cast<unsigned long long>(r.shed),
                    static_cast<unsigned long long>(r.failed), r.seconds,
                    r.Throughput());
      return std::string(buf);
    };
    json += "  \"saturation\": [\n" + run_json("1x", one_x) + ",\n" +
            run_json("4x", four_x) + "\n  ],\n";
  }
  {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "  \"checks\": {\"warm_p50_under_10ms\": %s, "
                  "\"saturation_flat\": %s, \"shed_seen\": %s, "
                  "\"server_client_agree\": %s, \"all_ok\": %s}\n}\n",
                  warm_ok ? "true" : "false", sat_flat ? "true" : "false",
                  shed_seen ? "true" : "false",
                  server_client_agree ? "true" : "false",
                  all_ok ? "true" : "false");
    json += buf;
  }
  if (!flags.out.empty()) {
    std::ofstream f(flags.out);
    f << json;
    std::printf("wrote %s\n", flags.out.c_str());
  } else {
    std::fputs(json.c_str(), stdout);
  }
  return all_ok ? 0 : 1;
}

}  // namespace reds

int main(int argc, char** argv) { return reds::Main(argc, argv); }
