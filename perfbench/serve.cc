// Serving workloads: an in-process DiscoveryServer on a unix socket, driven
// over a few connections by an open-loop generator (serve_mixed) or a
// closed-loop probe (the unloaded latencies of batch_paper). Four request
// classes:
//   replay  exact repeat of the latest completed warm spec (result cache);
//   warm    RPx over the resident eager dataset with a never-sent alpha
//           (metamodel and relabel-stream caches);
//   stream  P over the resident streamed source with a new alpha (a full
//           ingest pass per request; bursts of identical copies);
//   cold    RPx over a dataset never seen before (bursts of identical
//           copies, which coalesce).
// Every reply is checked against an answer computed for its spec on a
// separate engine after the timed window.
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/dataset_source.h"
#include "engine/discovery_engine.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "perfbench.h"
#include "shard/source_spec.h"
#include "shard/wire.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace engine = reds::engine;
namespace net = reds::net;
namespace shard = reds::shard;

enum Cls { kReplay = 0, kWarm, kStream, kCold, kNumCls };
const char* const kClsName[kNumCls] = {"replay", "warm", "stream", "cold"};

// Request ids are unique per server instance: 1 and 2 prime the resident
// datasets during set-up, scheduled requests start here.
constexpr uint64_t kFirstId = 1000;

struct Spec {
  Cls cls = kWarm;
  net::SubmitRequest submit;  // request_id is stamped at send time
};

// One scheduled request and what came back for it. The generator writes
// the send fields, one reader thread writes the reply fields; analysis runs
// after both have been joined.
struct Send {
  Cls cls = kWarm;
  int spec = -1;  // replays pick theirs at send time
  int conn = 0;
  double due_ms = 0.0;
  double send_ms = -1.0;
  double ack_ms = -1.0;  // ack or shed received
  double done_ms = -1.0;
  bool warmup = false;  // due before the measured window: checked, not timed
  bool acked = false;  // a SubmitAck arrived: admitted
  bool shed = false;
  bool error = false;  // write failed, in-band error, or failed job
  uint8_t ack_flags = 0;
  reds::Box box;
  uint32_t traj_len = 0;
  int32_t restricted = 0;
  double server_ms = 0.0;
};

struct RunRecord {
  std::string name;
  Phase* phase = nullptr;
  std::vector<Send> sends;
};

struct Reference {
  bool ok = false;
  reds::Box box;
  uint32_t traj_len = 0;
  int32_t restricted = 0;
  double pr_auc = 0.0;
};

bool SameBox(const reds::Box& a, const reds::Box& b) {
  if (a.dim() != b.dim()) return false;
  for (int j = 0; j < a.dim(); ++j) {
    if (a.lo(j) != b.lo(j) || a.hi(j) != b.hi(j)) return false;
  }
  return true;
}

std::string Encode(const net::SubmitRequest& request) {
  reds::util::ByteWriter w;
  request.SerializeTo(&w);
  return w.data();
}

// Parses one counter out of a Prometheus scrape page (names sanitized:
// '.' becomes '_').
double ScrapeCounter(const std::string& page, const std::string& name) {
  std::string metric = name;
  std::replace(metric.begin(), metric.end(), '.', '_');
  size_t pos = 0;
  while ((pos = page.find(metric + " ", pos)) != std::string::npos) {
    if (pos == 0 || page[pos - 1] == '\n') {
      return std::stod(page.substr(pos + metric.size() + 1));
    }
    pos += metric.size();
  }
  return 0.0;
}

// A server with its engine and connected, greeted clients. Members are
// destroyed clients first, then the server, then the engine it borrows.
struct Instance {
  std::unique_ptr<engine::DiscoveryEngine> engine;
  std::unique_ptr<net::DiscoveryServer> server;
  std::vector<std::unique_ptr<net::NetClient>> clients;

  ~Instance() {
    clients.clear();
    if (server) server->Stop();
    if (engine) engine->Shutdown();
  }
};

// Best effort: the generator and the reply readers run ahead of the server
// under test (lowest real-time priority, else a lower nice value), so send
// times and reply stamps stay punctual when the engine keeps every core
// busy. Both only ever block on a clock or a socket. Without the privilege,
// the thread keeps its priority.
void RaiseThreadPriority() {
  sched_param param{};
  param.sched_priority = 1;
  if (::pthread_setschedparam(::pthread_self(), SCHED_FIFO, &param) != 0) {
    ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), -10);
  }
}

}  // namespace

struct ServeSession::Impl {
  const Args& args;
  Mode mode;
  std::string mode_name;
  uint64_t seed;
  double seconds;
  double warmup_s = 0.0;  // open loop only: traffic before the measured window
  int threads;
  int connections;
  double limit_ms[kNumCls];
  std::vector<Spec> specs;  // [0] warm prime, [1] stream prime
  std::vector<Send> schedule;
  std::vector<RunRecord> runs;
  double simd_level = 0.0;

  Impl(const Args& a, Mode m) : args(a), mode(m) {
    mode_name = m == Mode::kProbe ? "probe" : "mixed";
    seed = static_cast<uint64_t>(args.Int("seed"));
    seconds = args.Num("seconds");
    threads = static_cast<int>(args.Int("serve_threads"));
    connections = static_cast<int>(args.Int("connections"));
    if (m != Mode::kProbe) warmup_s = args.Num("warmup_s");
    // Unloaded means no request ever waits for a pool thread.
    if (m == Mode::kProbe) connections = std::min(connections, threads);
    for (int c = 0; c < kNumCls; ++c) {
      limit_ms[c] = args.Num(std::string("limit_ms.") + kClsName[c]);
    }
    BuildSchedule();
  }

  net::SubmitRequest MakeSubmit(const std::string& method, net::DataMode data,
                                int64_t rows, uint64_t data_seed, double alpha,
                                int l_prim) const {
    net::SubmitRequest r;
    r.method = method;
    r.data_mode = data;
    r.source.kind = shard::SourceSpec::Kind::kSynthetic;
    r.source.rows = rows;
    r.source.dims = static_cast<int>(args.Int("dims"));
    r.source.distinct = static_cast<int>(args.Int("distinct"));
    r.source.seed = data_seed;
    r.alpha = alpha;
    r.l_prim = l_prim;
    r.options_seed = reds::DeriveSeed(seed, 7);
    return r;
  }

  int AddSpec(Cls cls, net::SubmitRequest submit) {
    specs.push_back({cls, std::move(submit)});
    return static_cast<int>(specs.size()) - 1;
  }

  // n alphas, one from each of n equal slices of [0.05, 0.2], in seeded
  // order: every run sees the same spread of peel depths, so service times
  // differ little from seed to seed.
  static std::vector<double> StratifiedAlphas(reds::Rng* rng, int64_t n) {
    std::vector<double> alphas(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      alphas[static_cast<size_t>(i)] =
          0.05 + 0.15 * (static_cast<double>(i) + rng->Uniform()) /
                     static_cast<double>(n);
    }
    for (size_t i = alphas.size(); i > 1; --i) {
      std::swap(alphas[i - 1], alphas[rng->UniformInt(i)]);
    }
    return alphas;
  }

  // Draws every spec and arrival from the seed. Open-loop arrivals are a
  // Poisson process conditioned on its count per second: each second gets
  // its even share of a class's arrivals at uniformly random instants, so
  // every run sends exactly the configured numbers without long-range
  // clumping.
  void BuildSchedule() {
    reds::Rng rng(reds::DeriveSeed(seed, 0x5c4ed));
    const uint64_t warm_data = reds::DeriveSeed(seed, 1);
    const uint64_t stream_data = reds::DeriveSeed(seed, 2);
    const int64_t warm_rows = args.Int("warm_rows");
    const int64_t stream_rows = args.Int("stream_rows");
    const int warm_l = static_cast<int>(args.Int("warm_l"));
    const int cold_l = static_cast<int>(args.Int("cold_l"));
    const std::string p = mode_name + ".";
    const double span_s = seconds + warmup_s;
    const auto count = [&](const std::string& rate) {
      return static_cast<int64_t>(std::llround(args.Num(p + rate) * span_s));
    };
    int64_t specs_of[kNumCls] = {0, 0, 0, 0};
    for (int c = kWarm; c < kNumCls; ++c) {
      const std::string cls = kClsName[c];
      specs_of[c] = mode == Mode::kProbe
                        ? args.Int("probe." + cls)
                        : count(c == kWarm ? "warm_per_s" : cls + "_bursts_per_s");
    }
    std::vector<double> alphas[kNumCls];
    for (int c = kWarm; c < kNumCls; ++c) {
      alphas[c] = StratifiedAlphas(&rng, specs_of[c]);
    }
    const auto alpha = [&alphas](Cls cls) {
      const double a = alphas[cls].back();
      alphas[cls].pop_back();
      return a;
    };
    AddSpec(kWarm, MakeSubmit("RPx", net::DataMode::kEager, warm_rows,
                              warm_data, 0.05, warm_l));
    AddSpec(kStream, MakeSubmit("P", net::DataMode::kStreamedSource,
                                stream_rows, stream_data, 0.05, warm_l));
    const auto new_spec = [&](Cls cls, int64_t index) {
      switch (cls) {
        case kWarm:
          return AddSpec(kWarm, MakeSubmit("RPx", net::DataMode::kEager,
                                           warm_rows, warm_data,
                                           alpha(kWarm), warm_l));
        case kStream:
          return AddSpec(kStream,
                         MakeSubmit("P", net::DataMode::kStreamedSource,
                                    stream_rows, stream_data, alpha(kStream),
                                    warm_l));
        default:
          return AddSpec(
              kCold, MakeSubmit("RPx", net::DataMode::kEager,
                                args.Int("cold_rows"),
                                reds::DeriveSeed(seed, 0xC01D0000ULL + index),
                                alpha(kCold), cold_l));
      }
    };

    if (mode == Mode::kProbe) {
      // Closed loop: a seeded shuffle of fixed per-class counts, dealt
      // round-robin to the connections.
      std::vector<Cls> order;
      for (int c = 0; c < kNumCls; ++c) {
        const int64_t n = args.Int(std::string("probe.") + kClsName[c]);
        for (int64_t i = 0; i < n; ++i) order.push_back(static_cast<Cls>(c));
      }
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.UniformInt(i)]);
      }
      for (size_t i = 0; i < order.size(); ++i) {
        Send s;
        s.cls = order[i];
        if (s.cls != kReplay) s.spec = new_spec(s.cls, static_cast<int64_t>(i));
        s.conn = static_cast<int>(i % static_cast<size_t>(connections));
        schedule.push_back(s);
      }
      return;
    }

    struct Stream {
      Cls cls;
      int64_t arrivals;
      int copies;
    };
    const Stream streams[] = {
        {kReplay, count("replay_per_s"), 1},
        {kWarm, specs_of[kWarm], 1},
        {kStream, specs_of[kStream],
         static_cast<int>(args.Int(p + "stream_copies"))},
        {kCold, specs_of[kCold], static_cast<int>(args.Int(p + "cold_copies"))},
    };
    int64_t burst = 0;
    for (const Stream& st : streams) {
      // Stratified by second: each second of the window gets its even share
      // of the class's arrivals, placed uniformly at random within it.
      std::vector<double> times;
      const int64_t strata = std::max<int64_t>(1, std::llround(span_s));
      const double stratum_ms = span_s * 1000.0 / static_cast<double>(strata);
      for (int64_t b = 0; b < strata; ++b) {
        const int64_t k = (b + 1) * st.arrivals / strata - b * st.arrivals / strata;
        for (int64_t i = 0; i < k; ++i) {
          times.push_back((static_cast<double>(b) + rng.Uniform()) * stratum_ms);
        }
      }
      std::sort(times.begin(), times.end());
      for (double t : times) {
        const int spec = st.cls == kReplay ? -1 : new_spec(st.cls, burst++);
        for (int k = 0; k < st.copies; ++k) {
          Send s;
          s.cls = st.cls;
          s.spec = spec;
          s.due_ms = t;
          s.warmup = t < warmup_s * 1000.0;
          schedule.push_back(s);
        }
      }
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Send& a, const Send& b) { return a.due_ms < b.due_ms; });
    // Round-robin spreads each burst's copies over different connections.
    for (size_t i = 0; i < schedule.size(); ++i) {
      schedule[i].conn = static_cast<int>(i % static_cast<size_t>(connections));
    }
  }

  std::string OutDir() const { return args.Str("out_dir"); }
  std::string TraceDir() const { return OutDir() + "/traces-" + mode_name; }

  std::unique_ptr<Instance> StartInstance(bool traced, int index) {
    auto inst = std::make_unique<Instance>();
    engine::EngineConfig ec;
    ec.threads = threads;
    ec.enable_persistent_cache = false;  // timed runs never read a disk tier
    if (traced) ec.trace_dir = TraceDir();
    inst->engine = std::make_unique<engine::DiscoveryEngine>(ec);
    net::ServerConfig sc;
    const std::string path =
        OutDir() + "/" + mode_name + std::to_string(index) + ".sock";
    std::filesystem::remove(path);
    sc.address = "unix:" + path;
    inst->server = std::make_unique<net::DiscoveryServer>(inst->engine.get(), sc);
    reds::Status started = inst->server->Start();
    if (!started.ok()) throw std::runtime_error(started.ToString());
    for (int c = 0; c < connections; ++c) {
      auto client = std::make_unique<net::NetClient>();
      reds::Status s = client->Connect(inst->server->address());
      if (!s.ok()) throw std::runtime_error(s.ToString());
      if (!client->Hello("perfbench").ok()) {
        throw std::runtime_error("hello failed");
      }
      inst->clients.push_back(std::move(client));
    }
    // Make the warm dataset and the streamed source resident: one fit and
    // relabel stream, one streamed index build.
    for (uint64_t prime = 0; prime < 2; ++prime) {
      net::SubmitRequest r = specs[prime].submit;
      r.request_id = prime + 1;
      auto outcome = inst->clients[0]->Submit(r);
      if (!outcome.ok() ||
          outcome->kind != net::SubmitOutcome::Kind::kAdmitted) {
        throw std::runtime_error("priming submit refused");
      }
      auto done = inst->clients[0]->WaitResult(r.request_id);
      if (!done.ok() || done->done.failed) {
        throw std::runtime_error("priming request failed");
      }
    }
    simd_level = static_cast<double>(
        inst->engine->metrics().GaugeValue("engine.build.simd"));
    return inst;
  }

  // Closed loop: each connection sends its next request when the previous
  // one has been answered. Due time is the send time.
  void DriveClosed(Instance* inst, std::vector<Send>* sends) {
    std::atomic<int> last_warm{0};
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> workers;
    for (int c = 0; c < connections; ++c) {
      workers.emplace_back([&, c] {
        net::NetClient& client = *inst->clients[static_cast<size_t>(c)];
        for (size_t i = 0; i < sends->size(); ++i) {
          Send& s = (*sends)[i];
          if (s.conn != c) continue;
          if (s.cls == kReplay) s.spec = last_warm.load();
          net::SubmitRequest r = specs[static_cast<size_t>(s.spec)].submit;
          r.request_id = kFirstId + i;
          s.send_ms = s.due_ms = MsBetween(t0, Clock::now());
          auto outcome = client.Submit(r);
          s.ack_ms = MsBetween(t0, Clock::now());
          if (!outcome.ok()) return;  // connection gone: the rest stay unanswered
          if (outcome->kind == net::SubmitOutcome::Kind::kShed) {
            s.shed = true;
            continue;
          }
          if (outcome->kind != net::SubmitOutcome::Kind::kAdmitted) {
            s.error = true;
            continue;
          }
          s.acked = true;
          s.ack_flags = outcome->flags;
          auto done = client.WaitResult(r.request_id);
          if (!done.ok()) return;
          s.done_ms = MsBetween(t0, Clock::now());
          RecordDone(done->done, &s);
          if (s.cls == kWarm && !s.error) last_warm.store(s.spec);
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  static void RecordDone(const net::ResultDone& done, Send* s) {
    s->error = s->error || done.failed;
    s->box = done.last_box;
    s->traj_len = done.trajectory_len;
    s->restricted = done.restricted;
    s->server_ms = static_cast<double>(done.server_latency_ns) / 1e6;
  }

  // Open loop: one generator sends every request at its due time whatever
  // the server is doing; one reader per connection collects the replies.
  void DriveOpen(Instance* inst, std::vector<Send>* sends) {
    const size_t n = sends->size();
    std::vector<std::atomic<int64_t>> sent(static_cast<size_t>(connections));
    std::vector<std::atomic<int64_t>> resolved(static_cast<size_t>(connections));
    std::atomic<bool> gen_done{false};
    std::atomic<int> last_warm{0};
    const double drain_ms = args.Num("drain_s") * 1000.0;
    std::atomic<double> deadline_ms{0.0};
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
    const auto now_ms = [&t0] { return MsBetween(t0, Clock::now()); };

    std::vector<std::thread> readers;
    for (int c = 0; c < connections; ++c) {
      readers.emplace_back([&, c] {
        RaiseThreadPriority();
        const int fd = inst->clients[static_cast<size_t>(c)]->fd();
        for (;;) {
          if (gen_done.load()) {
            if (resolved[static_cast<size_t>(c)].load() >=
                sent[static_cast<size_t>(c)].load()) {
              return;
            }
            if (now_ms() > deadline_ms.load()) return;
          }
          pollfd pfd{fd, POLLIN, 0};
          if (::poll(&pfd, 1, 20) <= 0) continue;
          auto frame = shard::ReadFrame(fd);
          // A dropped connection leaves its outstanding requests
          // unanswered; analysis counts every one of them as failed.
          if (!frame.ok()) return;
          const double t = now_ms();
          const auto slot = [&](uint64_t id) -> Send* {
            if (id < kFirstId || id - kFirstId >= n) return nullptr;
            return &(*sends)[id - kFirstId];
          };
          switch (frame->type) {
            case shard::MsgType::kSubmitAck: {
              auto ack = net::SubmitAck::Parse(frame->payload);
              if (!ack.ok()) return;
              if (Send* s = slot(ack->request_id)) {
                s->ack_ms = t;
                s->acked = true;
                s->ack_flags = ack->flags;
              }
              break;
            }
            case shard::MsgType::kShed: {
              auto shed = net::ShedReply::Parse(frame->payload);
              if (!shed.ok()) return;
              if (Send* s = slot(shed->request_id)) {
                s->ack_ms = t;
                s->shed = true;
                resolved[static_cast<size_t>(c)].fetch_add(1);
              }
              break;
            }
            case shard::MsgType::kResultDone: {
              auto done = net::ResultDone::Parse(frame->payload);
              if (!done.ok()) return;
              if (Send* s = slot(done->request_id)) {
                s->done_ms = t;
                RecordDone(*done, s);
                if (s->cls == kWarm && !s->error) last_warm.store(s->spec);
                resolved[static_cast<size_t>(c)].fetch_add(1);
              }
              break;
            }
            case shard::MsgType::kError: {
              auto err = net::ErrorReply::Parse(frame->payload);
              if (!err.ok()) return;
              if (Send* s = slot(err->request_id)) {
                s->error = true;
                s->done_ms = t;
                resolved[static_cast<size_t>(c)].fetch_add(1);
              }
              break;
            }
            default:
              break;
          }
        }
      });
    }

    RaiseThreadPriority();
    for (size_t i = 0; i < n; ++i) {
      Send& s = (*sends)[i];
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(s.due_ms)));
      if (s.cls == kReplay) s.spec = last_warm.load();
      net::SubmitRequest r = specs[static_cast<size_t>(s.spec)].submit;
      r.request_id = kFirstId + i;
      const std::string payload = Encode(r);
      const int fd = inst->clients[static_cast<size_t>(s.conn)]->fd();
      sent[static_cast<size_t>(s.conn)].fetch_add(1);
      s.send_ms = now_ms();
      if (!shard::WriteFrame(fd, shard::MsgType::kSubmit, payload).ok()) {
        s.error = true;
        resolved[static_cast<size_t>(s.conn)].fetch_add(1);
      }
    }
    deadline_ms.store(now_ms() + drain_ms);
    gen_done.store(true);
    for (auto& r : readers) r.join();
  }

  double ScrapeAdmitted(Instance* inst) {
    auto page = inst->clients[0]->Scrape(net::ScrapeFormat::kPrometheus);
    if (!page.ok()) throw std::runtime_error("metrics scrape failed");
    return ScrapeCounter(*page, "net.submits_admitted");
  }

  void Run(const std::string& phase_name, bool traced, Phase* phase,
           Checks* checks) {
    const int setups =
        mode == Mode::kProbe ? 1 : static_cast<int>(args.Int("setup_reps"));
    std::unique_ptr<Instance> inst;
    for (int k = 0; k < setups; ++k) {
      inst.reset();
      const Clock::time_point start = Clock::now();
      inst = StartInstance(traced, k);
      if (mode != Mode::kProbe) {
        phase->setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
      }
    }
    RunRecord record;
    record.name = phase_name;
    record.phase = phase;
    record.sends = schedule;

    const double admitted_before = ScrapeAdmitted(inst.get());
    const reds::obs::RegistrySnapshot before =
        inst->engine->metrics().TakeSnapshot();
    PoolSampler sampler(&inst->engine->metrics(), threads);
    if (mode == Mode::kProbe) {
      DriveClosed(inst.get(), &record.sends);
    } else {
      DriveOpen(inst.get(), &record.sends);
    }
    sampler.Stop();
    const reds::obs::RegistrySnapshot after =
        inst->engine->metrics().TakeSnapshot();
    const double admitted_after = ScrapeAdmitted(inst.get());
    if (mode != Mode::kProbe) phase->peak_rss_mb = PeakRssMb();
    inst.reset();
    std::filesystem::remove_all(TraceDir());

    FillLedger(before, after, sampler, record.sends, phase);
    AddIsolationChecks(phase_name, before, after, admitted_after - admitted_before,
                       record.sends, checks);
    runs.push_back(std::move(record));
  }

  void FillLedger(const reds::obs::RegistrySnapshot& before,
                  const reds::obs::RegistrySnapshot& after,
                  const PoolSampler& sampler, const std::vector<Send>& sends,
                  Phase* phase) {
    if (mode == Mode::kProbe) return;  // batch_paper's ledger is the matrix's
    Ledger& l = phase->ledger;
    const auto delta = [&](const std::string& name) {
      return static_cast<double>(CounterDelta(before, after, name));
    };
    const double admitted = delta("net.submits_admitted");
    l["net.admitted"] = admitted;
    l["net.result_cache_hit_ratio"] =
        admitted > 0 ? delta("net.result_cache_hits") / admitted : 0.0;
    l["net.coalesced_exempt"] = delta("net.submits_coalesced_exempt");
    l["net.protocol_errors"] = delta("net.protocol_errors");
    AddQuantiles(before, after, "net.decode.task_wait_ns", "net.decode_wait_ms",
                 &l);
    AddQuantiles(before, after, "engine.pool.task_wait_ns",
                 "engine.pool_wait_ms", &l);
    AddQuantiles(before, after, "engine.job.warm_latency_ns",
                 "engine.job_warm_ms", &l);
    AddQuantiles(before, after, "engine.job.cold_latency_ns",
                 "engine.job_cold_ms", &l);
    l["engine.jobs_coalesced"] = delta("engine.jobs.coalesced");
    l["engine.jobs_failed"] = delta("engine.jobs.failed");
    l["engine.pool_busy_ratio"] = sampler.busy_ratio();
    l["engine.queue_depth_max"] = sampler.max_depth();
    AddCacheLedger(before, after, &l);
    AddStageLedger(before, after, &l);
    // Only cold specs relabel here (warm ones hit the relabel stream, which
    // the isolation check asserts), each over cold_l points.
    l["core.relabel_rows"] =
        delta("cache.relabel.misses") * static_cast<double>(args.Int("cold_l"));
    double steps = 0.0;
    int64_t repeats = 0;
    int64_t inflight_dups = 0;
    std::map<int, std::vector<const Send*>> by_spec;
    for (const Send& s : sends) {
      // Discoveries the server ran itself: no replay, no coalescing.
      if (s.done_ms >= 0 && !s.error && s.ack_flags == 0 && s.traj_len > 0) {
        steps += s.traj_len - 1;
      }
    }
    std::vector<const Send*> order;
    for (const Send& s : sends) {
      if (s.send_ms >= 0) order.push_back(&s);
    }
    std::sort(order.begin(), order.end(),
              [](const Send* a, const Send* b) { return a->send_ms < b->send_ms; });
    for (const Send* s : order) {
      std::vector<const Send*>& earlier = by_spec[s->spec];
      if (!earlier.empty()) ++repeats;
      for (const Send* e : earlier) {
        if (e->done_ms < 0 || e->done_ms > s->send_ms) {
          ++inflight_dups;
          break;
        }
      }
      earlier.push_back(s);
    }
    l["core.peel_steps"] = steps;
    // Over all traffic the ledger window saw, warm-up included.
    double shed = 0.0;
    for (const Send& s : sends) shed += s.shed ? 1.0 : 0.0;
    l["net.sent"] = static_cast<double>(sends.size());
    l["net.shed"] = shed;
    l["net.shed_ratio"] = sends.empty() ? 0.0 : shed / static_cast<double>(sends.size());
    const double n = static_cast<double>(std::max<size_t>(order.size(), 1));
    l["serve.exact_repeat_ratio"] = static_cast<double>(repeats) / n;
    l["serve.inflight_dup_ratio"] = static_cast<double>(inflight_dups) / n;
  }

  void AddIsolationChecks(const std::string& phase_name,
                          const reds::obs::RegistrySnapshot& before,
                          const reds::obs::RegistrySnapshot& after,
                          double scraped_admitted, const std::vector<Send>& sends,
                          Checks* checks) {
    const std::string p = mode_name + "." + phase_name + ".";
    std::set<int> cold_admitted;
    int64_t acked = 0;
    int64_t replays = 0;
    int64_t replays_cached = 0;
    for (const Send& s : sends) {
      if (!s.acked) continue;
      ++acked;
      if (s.cls == kCold) cold_admitted.insert(s.spec);
      if (s.cls == kReplay) {
        ++replays;
        if (s.ack_flags & net::kAdmitResultCached) ++replays_cached;
      }
    }
    const auto delta = [&](const std::string& name) {
      return static_cast<int64_t>(CounterDelta(before, after, name));
    };
    const int64_t cold = static_cast<int64_t>(cold_admitted.size());
    checks->Add(p + "fits_equal_distinct_cold_specs",
                delta("cache.metamodel.fits") == cold,
                std::to_string(delta("cache.metamodel.fits")) + " fits, " +
                    std::to_string(cold) + " distinct cold specs admitted");
    checks->Add(p + "warm_hits_relabel_tier",
                delta("cache.relabel.misses") == cold,
                std::to_string(delta("cache.relabel.misses")) +
                    " relabel misses, " + std::to_string(cold) + " cold specs");
    checks->Add(p + "stream_hits_index_tier",
                delta("cache.index.streamed.misses") == 0,
                std::to_string(delta("cache.index.streamed.misses")) +
                    " streamed index misses");
    checks->Add(p + "replays_hit_result_cache", replays_cached == replays,
                std::to_string(replays_cached) + " of " +
                    std::to_string(replays) + " replays cached");
    checks->Add(p + "scrape_matches_client_books",
                static_cast<int64_t>(scraped_admitted) == acked,
                "scrape admitted " + std::to_string(scraped_admitted) +
                    ", client acks " + std::to_string(acked));
  }

  std::map<int, Reference> refs;

  void ComputeReferences(Checks* checks) {
    std::set<int> needed;
    for (const RunRecord& run : runs) {
      for (const Send& s : run.sends) {
        if (s.spec >= 0 && s.send_ms >= 0) needed.insert(s.spec);
      }
    }
    engine::EngineConfig ec;
    ec.threads = threads;
    ec.enable_persistent_cache = false;
    engine::DiscoveryEngine ref_engine(ec);
    const int dims = static_cast<int>(args.Int("dims"));
    shard::SourceSpec test_spec;
    test_spec.rows = args.Int("test_rows");
    test_spec.dims = dims;
    test_spec.distinct = static_cast<int>(args.Int("distinct"));
    // One fixed test sample for every seed: cold specs' PR AUC then varies
    // only with their datasets, not with the test draw.
    test_spec.seed = 0x7e57;
    const auto read_all = [](const shard::SourceSpec& spec) {
      auto source = shard::MakeSource(spec, 1, 0);
      if (!source.ok()) throw std::runtime_error(source.status().ToString());
      auto data = reds::ReadAll(source->get(), spec.block_rows);
      if (!data.ok()) throw std::runtime_error(data.status().ToString());
      return std::make_shared<const reds::Dataset>(std::move(*data));
    };
    const auto test = read_all(test_spec);
    std::map<uint64_t, std::shared_ptr<const reds::Dataset>> eager;
    std::vector<std::pair<int, engine::JobHandle>> jobs;
    for (int id : needed) {
      const net::SubmitRequest& msg = specs[static_cast<size_t>(id)].submit;
      // The same request the server builds from a submit.
      engine::DiscoveryRequest req;
      req.method = msg.method;
      req.options.default_alpha = msg.alpha;
      req.options.min_points = msg.min_points;
      req.options.l_prim = msg.l_prim;
      req.options.seed = msg.options_seed;
      req.options.tune_metamodel = msg.tune_metamodel;
      if (msg.data_mode == net::DataMode::kEager) {
        auto& data = eager[msg.source.seed];
        if (!data) data = read_all(msg.source);
        req.train = data;
      } else {
        const shard::SourceSpec spec = msg.source;
        req.make_train_source = [spec] {
          return std::move(shard::MakeSource(spec, 1, 0).value());
        };
      }
      // Quality is scored on cold specs only: one fresh dataset each.
      if (specs[static_cast<size_t>(id)].cls == kCold) req.test = test;
      jobs.emplace_back(id, ref_engine.Submit(std::move(req)));
    }
    ref_engine.WaitAll();
    int64_t failed = 0;
    for (const auto& [id, job] : jobs) {
      Reference ref;
      ref.ok = job->state() == engine::JobState::kDone;
      if (ref.ok) {
        ref.box = job->output().last_box;
        ref.traj_len = static_cast<uint32_t>(job->output().trajectory.size());
        ref.restricted = job->output().last_box.NumRestricted();
        ref.pr_auc = job->metrics().pr_auc;
      } else {
        ++failed;
      }
      refs[id] = ref;
    }
    ref_engine.Shutdown();
    checks->Add(mode_name + ".references_computed", failed == 0,
                std::to_string(jobs.size()) + " references, " +
                    std::to_string(failed) + " failed");
  }

  void Verify(Checks* checks) {
    ComputeReferences(checks);
    for (RunRecord& run : runs) Analyze(run, checks);
  }

  static bool Matches(const Reference& ref, const Send& s) {
    return ref.ok && SameBox(ref.box, s.box) && ref.traj_len == s.traj_len &&
           ref.restricted == s.restricted;
  }

  void Analyze(RunRecord& run, Checks* checks) {
    Phase* phase = run.phase;
    int64_t wrong = 0;
    int64_t replay_mismatch = 0;
    int64_t ok_total = 0;
    double pr_sum = 0.0;
    int64_t pr_count = 0;
    double last_done_ms = 0.0;
    std::map<int, const Send*> first_answer;  // per spec, first non-replay
    for (const Send& s : run.sends) {
      if (s.cls != kReplay && s.done_ms >= 0 && !s.error &&
          !first_answer.count(s.spec)) {
        first_answer[s.spec] = &s;
      }
    }
    // The probe contributes latencies only: batch_paper's ledger is the
    // matrix's, which does no net work.
    const bool ledger = mode != Mode::kProbe;
    std::map<std::string, std::map<std::string, double>> classes;
    std::vector<double>& wire = phase->samples_ms["wire"];
    std::vector<double>& server = phase->samples_ms["server"];
    std::vector<double>& admit = phase->samples_ms["admit"];
    std::vector<double>& lag = phase->samples_ms["gen_lag"];
    for (int c = 0; c < kNumCls; ++c) {
      phase->latency_ms[kClsName[c]];  // every class present, even if empty
      for (const char* k : {"sent", "completed", "shed", "failed"}) {
        classes[kClsName[c]][k] = 0.0;
      }
    }
    const double warmup_ms = warmup_s * 1000.0;
    for (const Send& s : run.sends) {
      if (s.warmup) {
        // Warm-up traffic lets lazy state settle before timing; its replies
        // are still checked.
        if (s.shed) continue;
        ++phase->attempted;
        const bool answered = s.done_ms >= 0 && !s.error;
        if (answered && !Matches(refs.at(s.spec), s)) ++wrong;
        if (!answered || !Matches(refs.at(s.spec), s)) ++phase->failed;
        continue;
      }
      auto& counts = classes[kClsName[s.cls]];
      ++phase->goodput_sent;
      counts["sent"] += 1;
      if (ledger && s.send_ms >= 0) lag.push_back(s.send_ms - s.due_ms);
      if (ledger && s.ack_ms >= 0 && s.send_ms >= 0) {
        admit.push_back(s.ack_ms - s.send_ms);
      }
      if (s.shed) {
        counts["shed"] += 1;
        continue;
      }
      ++phase->attempted;
      const bool answered = s.send_ms >= 0 && s.done_ms >= 0 && !s.error;
      bool ok = answered;
      if (answered) {
        ok = Matches(refs.at(s.spec), s);
        if (!ok) ++wrong;
        if (s.cls == kReplay) {
          const auto it = first_answer.find(s.spec);
          if (it != first_answer.end() && !SameBox(it->second->box, s.box)) {
            ++replay_mismatch;
          }
        }
      }
      if (!ok) {
        ++phase->failed;
        counts["failed"] += 1;
        continue;
      }
      counts["completed"] += 1;
      ++ok_total;
      const double latency = s.done_ms - s.due_ms;
      phase->latency_ms[kClsName[s.cls]].emplace_back(s.due_ms - warmup_ms,
                                                      latency);
      if (latency <= limit_ms[s.cls]) ++phase->goodput_good;
      if (s.cls == kCold) {
        pr_sum += refs.at(s.spec).pr_auc;
        ++pr_count;
      }
      if (ledger) {
        wire.push_back(s.done_ms - s.send_ms - s.server_ms);
        server.push_back(s.server_ms);
      }
      last_done_ms = std::max(last_done_ms, s.done_ms);
    }
    if (ledger) {
      phase->classes = classes;
      phase->pr_auc = pr_count > 0 ? pr_sum / static_cast<double>(pr_count) : 0.0;
      phase->jobs_per_s.push_back(
          last_done_ms > warmup_ms
              ? static_cast<double>(ok_total) / ((last_done_ms - warmup_ms) / 1000.0)
              : 0.0);
    }
    const std::string p = mode_name + "." + run.name + ".";
    checks->Add(p + "replies_match_reference", wrong == 0,
                std::to_string(wrong) + " wrong of " + std::to_string(ok_total + wrong) +
                    " answered");
    checks->Add(p + "replays_match_original", replay_mismatch == 0,
                std::to_string(replay_mismatch) + " replays differ");
  }
};

ServeSession::ServeSession(const Args& args, Mode mode)
    : impl_(std::make_unique<Impl>(args, mode)) {}

ServeSession::~ServeSession() = default;

void ServeSession::Run(const std::string& phase_name, bool traced, Phase* phase,
                       Checks* checks) {
  impl_->Run(phase_name, traced, phase, checks);
}

void ServeSession::Verify(Checks* checks) { impl_->Verify(checks); }

double ServeSession::simd_level() const { return impl_->simd_level; }

void RunServe(const Args& args, Report* report) {
  ServeSession session(args, ServeSession::Mode::kMixed);
  session.Run("untraced", false, &report->phases["untraced"], &report->checks);
  if (args.Int("trace") != 0) {
    session.Run("traced", true, &report->phases["traced"], &report->checks);
  }
  session.Verify(&report->checks);
  report->env["simd_level"] = session.simd_level();
}

}  // namespace perfbench
