// Benchmark driver entry point and shared plumbing (see perfbench.h).
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --out REPORT.json --out_dir DIR [--<constant> V ...]
//
// Writes the raw report to REPORT.json; run.py derives the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "perfbench.h"

namespace perfbench {

Args::Args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --name value, got " + key);
    }
    values_[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) throw std::invalid_argument("dangling argument");
}

const std::string& Args::Str(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::invalid_argument("missing --" + name);
  return it->second;
}

int64_t Args::Int(const std::string& name) const {
  return std::stoll(Str(name));
}

double Args::Num(const std::string& name) const { return std::stod(Str(name)); }

std::vector<std::string> Args::List(const std::string& name) const {
  std::vector<std::string> out;
  std::string item;
  for (char c : Str(name) + ",") {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += JsonString(key) + ":";
}

void JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
}

void JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
}

void JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
}

void JsonObject::Nums(const std::string& key, const std::vector<double>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ",";
    body_ += JsonNumber(values[i]);
  }
  body_ += "]";
}

void JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
}

void Checks::Add(const std::string& name, bool ok, const std::string& detail) {
  entries_.push_back({name, ok, detail});
}

std::string Checks::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < entries_.size(); ++i) {
    JsonObject o;
    o.Str("name", entries_[i].name);
    o.Bool("ok", entries_[i].ok);
    o.Str("detail", entries_[i].detail);
    if (i > 0) out += ",";
    out += o.str();
  }
  return out + "]";
}

std::string LedgerJson(const Ledger& ledger) {
  JsonObject o;
  for (const auto& [name, value] : ledger) o.Num(name, value);
  return o.str();
}

uint64_t CounterDelta(const reds::obs::RegistrySnapshot& before,
                      const reds::obs::RegistrySnapshot& after,
                      const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

reds::obs::HistogramSnapshot HistogramDelta(
    const reds::obs::RegistrySnapshot& before,
    const reds::obs::RegistrySnapshot& after, const std::string& name) {
  reds::obs::HistogramSnapshot delta;
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return delta;
  delta = a->second;
  const auto b = before.histograms.find(name);
  if (b != before.histograms.end()) {
    delta.count -= b->second.count;
    delta.sum -= b->second.sum;
    for (size_t i = 0; i < b->second.buckets.size() && i < delta.buckets.size();
         ++i) {
      delta.buckets[i] -= b->second.buckets[i];
    }
  }
  // The recorded extremes belong to the whole history, not the window.
  delta.min = 0;
  delta.max = UINT64_MAX;
  return delta;
}

void AddSpanSeries(const reds::obs::RegistrySnapshot& before,
                   const reds::obs::RegistrySnapshot& after,
                   const std::vector<std::string>& histograms,
                   const std::string& prefix, Ledger* ledger) {
  reds::obs::HistogramSnapshot sum;
  for (const std::string& name : histograms) {
    sum.Merge(HistogramDelta(before, after, name));
  }
  sum.min = 0;
  sum.max = UINT64_MAX;
  (*ledger)[prefix + ".count"] = static_cast<double>(sum.count);
  (*ledger)[prefix + ".busy_ms"] = static_cast<double>(sum.sum) / 1e6;
  (*ledger)[prefix + ".p50"] = sum.count > 0 ? sum.Quantile(0.5) / 1e6 : 0.0;
}

void AddQuantiles(const reds::obs::RegistrySnapshot& before,
                  const reds::obs::RegistrySnapshot& after,
                  const std::string& histogram, const std::string& prefix,
                  Ledger* ledger) {
  const reds::obs::HistogramSnapshot d = HistogramDelta(before, after, histogram);
  (*ledger)[prefix + ".p50"] = d.count > 0 ? d.Quantile(0.5) / 1e6 : 0.0;
  (*ledger)[prefix + ".p99"] = d.count > 0 ? d.Quantile(0.99) / 1e6 : 0.0;
}

void AddCacheLedger(const reds::obs::RegistrySnapshot& before,
                    const reds::obs::RegistrySnapshot& after, Ledger* ledger) {
  struct Tier {
    const char* name;
    const char* hits;
    const char* misses;
  };
  const Tier tiers[] = {
      {"metamodel", "cache.metamodel.hits", "cache.metamodel.fits"},
      {"column_index", "cache.index.column.hits", "cache.index.column.misses"},
      {"binned_index", "cache.index.binned.hits", "cache.index.binned.misses"},
      {"streamed_index", "cache.index.streamed.hits",
       "cache.index.streamed.misses"},
      {"relabel", "cache.relabel.hits", "cache.relabel.misses"},
  };
  for (const Tier& t : tiers) {
    const double hits = static_cast<double>(CounterDelta(before, after, t.hits));
    const double lookups =
        hits + static_cast<double>(CounterDelta(before, after, t.misses));
    const std::string prefix = std::string("engine.") + t.name;
    (*ledger)[prefix + "_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    (*ledger)[prefix + "_lookups"] = lookups;
  }
}

void AddStageLedger(const reds::obs::RegistrySnapshot& before,
                    const reds::obs::RegistrySnapshot& after, Ledger* ledger) {
  const struct {
    std::vector<std::string> stages;
    const char* prefix;
  } series[] = {
      {{"stage.ingest.source"}, "engine.ingest_ms"},
      {{"stage.relabel.stream", "stage.relabel.materialize"}, "core.relabel_ms"},
      {{"stage.index.build"}, "core.index_ms"},
      {{"stage.prim.peel", "stage.prim.paste"}, "core.peel_ms"},
      {{"stage.plan.tune"}, "core.tune_ms"},
      {{"stage.discover.bumping"}, "core.bumping_ms"},
      {{"stage.discover.bi"}, "core.bi_ms"},
      {{"stage.validate"}, "core.validate_ms"},
      {{"stage.metamodel.fit"}, "ml.fit_ms"},
  };
  for (const auto& s : series) {
    AddSpanSeries(before, after, s.stages, s.prefix, ledger);
  }
  (*ledger)["ml.fits"] =
      static_cast<double>(CounterDelta(before, after, "cache.metamodel.fits"));
}

PoolSampler::PoolSampler(reds::obs::MetricsRegistry* metrics, int threads)
    : active_(metrics->gauge("engine.pool.active_workers")),
      depth_(metrics->gauge("engine.pool.queue_depth")),
      threads_(threads),
      thread_([this] { Loop(); }) {}

void PoolSampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

double PoolSampler::busy_ratio() const {
  return samples_ > 0 ? busy_sum_ / (static_cast<double>(samples_) * threads_)
                      : 0.0;
}

void PoolSampler::Loop() {
  while (!stop_.load()) {
    busy_sum_ += static_cast<double>(active_->Value());
    max_depth_ = std::max(max_depth_, depth_->Value());
    ++samples_;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void SpanLog::Add(const std::string& name, Clock::time_point start,
                  Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  durations_ms_[name].push_back(MsBetween(start, end));
}

void SpanLog::Summarize(const std::string& name, const std::string& prefix,
                        Ledger* ledger) const {
  std::vector<double> d;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = durations_ms_.find(name);
    if (it != durations_ms_.end()) d = it->second;
  }
  std::sort(d.begin(), d.end());
  double busy = 0.0;
  for (double v : d) busy += v;
  (*ledger)[prefix + ".count"] = static_cast<double>(d.size());
  (*ledger)[prefix + ".busy_ms"] = busy;
  (*ledger)[prefix + ".p50"] = d.empty() ? 0.0 : d[(d.size() - 1) / 2];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Phase::ToJson() const {
  JsonObject o;
  o.Nums("setup_s", setup_s);
  o.Num("peak_rss_mb", peak_rss_mb);
  o.Num("attempted", static_cast<double>(attempted));
  o.Num("failed", static_cast<double>(failed));
  o.Nums("jobs_per_s", jobs_per_s);
  o.Num("pr_auc", pr_auc);
  o.Num("goodput_sent", static_cast<double>(goodput_sent));
  o.Num("goodput_good", static_cast<double>(goodput_good));
  JsonObject lat;
  for (const auto& [cls, pairs] : latency_ms) {
    std::string list = "[";
    for (size_t i = 0; i < pairs.size(); ++i) {
      list += (i > 0 ? ",[" : "[") + JsonNumber(pairs[i].first) + "," +
              JsonNumber(pairs[i].second) + "]";
    }
    lat.Raw(cls, list + "]");
  }
  o.Raw("latency_ms", lat.str());
  JsonObject samples;
  for (const auto& [name, values] : samples_ms) samples.Nums(name, values);
  o.Raw("samples_ms", samples.str());
  JsonObject cls_obj;
  for (const auto& [cls, counts] : classes) cls_obj.Raw(cls, LedgerJson(counts));
  o.Raw("classes", cls_obj.str());
  o.Raw("ledger", LedgerJson(ledger));
  return o.str();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A server that hangs up mid-write must surface as an error, not a signal.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const Args args(argc, argv);
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
      std::fprintf(stderr, "perfbench: refusing to time a %s build\n",
                   PERFBENCH_BUILD_TYPE);
      return 2;
    }
    // A developer's cache or trace directory would turn cold work warm and
    // change what is timed; run.py clears these, and the driver refuses them.
    for (const char* var : {"REDS_CACHE_DIR", "REDS_TRACE_DIR", "REDS_FULL"}) {
      if (std::getenv(var) != nullptr) {
        std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
        return 2;
      }
    }
    Report report;
    report.env["nproc"] = std::thread::hardware_concurrency();
    const std::string& workload = args.Str("workload");
    if (workload == "batch_paper") {
      RunBatch(args, &report);
    } else if (workload == "serve_mixed") {
      RunServe(args, &report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", workload.c_str());
      return 2;
    }
    JsonObject out;
    out.Str("workload", workload);
    out.Str("build_type", PERFBENCH_BUILD_TYPE);
    out.Raw("env", LedgerJson(report.env));
    out.Raw("checks", report.checks.ToJson());
    JsonObject phases;
    for (const auto& [name, phase] : report.phases) {
      phases.Raw(name, phase.ToJson());
    }
    out.Raw("phases", phases.str());
    std::ofstream file(args.Str("out"));
    file << out.str() << "\n";
    if (!file.good()) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.Str("out").c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
