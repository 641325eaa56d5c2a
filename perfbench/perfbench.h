// Shared plumbing of the benchmark driver: command-line constants, a small
// JSON writer for the raw report, registry deltas for the per-layer ledger,
// and the benchmark's own spans around calls into the library.
//
// The driver measures; run.py turns the raw report into the metrics named in
// BENCHMARK.json (percentiles, medians, ratios) and decides pass or fail.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// `--name value` pairs. Every workload constant arrives this way from
/// run.py, which reads them from workloads.json; nothing is calibrated at
/// run time.
class Args {
 public:
  Args(int argc, char** argv);
  const std::string& Str(const std::string& name) const;
  int64_t Int(const std::string& name) const;
  double Num(const std::string& name) const;
  std::vector<std::string> List(const std::string& name) const;  // comma list

 private:
  std::map<std::string, std::string> values_;
};

/// Builds one JSON object. Doubles keep all their digits; non-finite values
/// become null so run.py's checks see them.
class JsonObject {
 public:
  void Num(const std::string& key, double value);
  void Str(const std::string& key, const std::string& value);
  void Bool(const std::string& key, bool value);
  void Nums(const std::string& key, const std::vector<double>& values);
  void Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonNumber(double value);
std::string JsonString(const std::string& value);

/// Named output checks; each feeds run.py's `correct` and failed counts.
class Checks {
 public:
  void Add(const std::string& name, bool ok, const std::string& detail);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> entries_;
};

/// Flat per-layer ledger: metric name -> value, serialized as one object.
using Ledger = std::map<std::string, double>;
std::string LedgerJson(const Ledger& ledger);

/// Counter / histogram differences between two registry snapshots, so a
/// ledger covers exactly the measured window.
uint64_t CounterDelta(const reds::obs::RegistrySnapshot& before,
                      const reds::obs::RegistrySnapshot& after,
                      const std::string& name);
reds::obs::HistogramSnapshot HistogramDelta(
    const reds::obs::RegistrySnapshot& before,
    const reds::obs::RegistrySnapshot& after, const std::string& name);

/// Adds `<prefix>.count`, `<prefix>.busy_ms` and `<prefix>.p50` for the
/// summed delta of the given nanosecond histograms (stage.* span series).
void AddSpanSeries(const reds::obs::RegistrySnapshot& before,
                   const reds::obs::RegistrySnapshot& after,
                   const std::vector<std::string>& histograms,
                   const std::string& prefix, Ledger* ledger);

/// Adds `<prefix>.p50` and `<prefix>.p99` (ms) of one histogram's delta.
void AddQuantiles(const reds::obs::RegistrySnapshot& before,
                  const reds::obs::RegistrySnapshot& after,
                  const std::string& histogram, const std::string& prefix,
                  Ledger* ledger);

/// Engine cache tiers: `engine.<tier>_hit_ratio` with its base
/// `engine.<tier>_lookups`, for the metamodel, column, binned, streamed and
/// relabel-stream tiers.
void AddCacheLedger(const reds::obs::RegistrySnapshot& before,
                    const reds::obs::RegistrySnapshot& after, Ledger* ledger);

/// The engine's stage.* span histograms folded into the layer names
/// (engine.ingest_ms, core.*_ms, ml.fit_ms) plus ml.fits. The stage series
/// exist only when the engine runs with a trace_dir.
void AddStageLedger(const reds::obs::RegistrySnapshot& before,
                    const reds::obs::RegistrySnapshot& after, Ledger* ledger);

/// Samples an engine pool's gauges every 2 ms while a window runs: the busy
/// share of the pool and the deepest queue seen.
class PoolSampler {
 public:
  PoolSampler(reds::obs::MetricsRegistry* metrics, int threads);
  ~PoolSampler() { Stop(); }
  PoolSampler(const PoolSampler&) = delete;
  PoolSampler& operator=(const PoolSampler&) = delete;

  void Stop();
  double busy_ratio() const;
  double max_depth() const { return static_cast<double>(max_depth_); }

 private:
  void Loop();

  reds::obs::Gauge* active_;
  reds::obs::Gauge* depth_;
  int threads_;
  std::atomic<bool> stop_{false};
  double busy_sum_ = 0.0;
  int64_t max_depth_ = 0;
  int64_t samples_ = 0;
  std::thread thread_;  // last: starts after every field it reads
};

/// Spans the benchmark records around its own calls into the library. Kept
/// in memory; summarized into the ledger when the run ends.
class SpanLog {
 public:
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end);
  /// `<prefix>.count`, `<prefix>.busy_ms`, `<prefix>.p50` for spans named
  /// `name`; zeros when none were recorded.
  void Summarize(const std::string& name, const std::string& prefix,
                 Ledger* ledger) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> durations_ms_;
};

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// One measured phase (untraced or traced) in the raw report.
struct Phase {
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;  // failed or wrong replies; sheds excluded
  std::vector<double> jobs_per_s;
  double pr_auc = 0.0;
  int64_t goodput_sent = 0;
  int64_t goodput_good = 0;
  // Per class: (due time, latency) of every completed request, in ms.
  std::map<std::string, std::vector<std::pair<double, double>>> latency_ms;
  std::map<std::string, std::vector<double>> samples_ms;  // per-layer series
  std::map<std::string, std::map<std::string, double>> classes;
  Ledger ledger;

  std::string ToJson() const;
};

/// What a workload hands back to main: its phases, checks and environment.
struct Report {
  std::map<std::string, Phase> phases;  // "untraced", optionally "traced"
  Checks checks;
  Ledger env;
};

/// One serving session: the request specs drawn from the seed, the runs made
/// against fresh in-process servers, and the reference answers every reply
/// is checked against.
///   kProbe:    closed loop, one request in flight per connection -- the
///              unloaded per-class latencies batch_paper reports;
///   kMixed:    open loop at a moderate fixed rate (serve_mixed).
class ServeSession {
 public:
  enum class Mode { kProbe, kMixed };

  ServeSession(const Args& args, Mode mode);
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Sets up a fresh engine and server (timed into phase->setup_s, several
  /// times, except in probe mode), drives the load and keeps the replies.
  /// Fills the phase's ledger and adds the layer-isolation checks.
  void Run(const std::string& phase_name, bool traced, Phase* phase,
           Checks* checks);

  /// Computes every sent spec's answer on a separate engine, then fills
  /// each run's phase with correctness, latency, goodput and quality.
  void Verify(Checks* checks);

  /// engine.build.simd of the last server engine.
  double simd_level() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

void RunBatch(const Args& args, Report* report);
void RunServe(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
