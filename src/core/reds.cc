#include "core/reds.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/trace.h"
#include "util/rng.h"

namespace reds {

namespace {

std::shared_ptr<const ml::Metamodel> FitMetamodel(const Dataset& d,
                                                  const RedsConfig& config,
                                                  uint64_t seed) {
  if (config.metamodel_provider) {
    // The provider (engine cache) traces its own hit/load/fit breakdown.
    return config.metamodel_provider(d, config.metamodel,
                                     config.tune_metamodel, config.budget,
                                     seed);
  }
  obs::Span span("metamodel.fit");
  return ml::FitMetamodel(config.metamodel, d, seed, config.tune_metamodel,
                          config.budget);
}

Dataset LabelPoints(const ml::Metamodel& model, std::vector<double> x,
                    int num_cols, bool probability_labels) {
  assert(x.size() % static_cast<size_t>(num_cols) == 0);
  std::vector<double> y(x.size() / static_cast<size_t>(num_cols));
  MetamodelLabelBlock(model, x.data(), static_cast<int>(y.size()),
                      probability_labels, y.data());
  return Dataset(num_cols, std::move(x), std::move(y));
}

// D_new as a stream: one sequential sampler RNG draws the points in row
// order and the metamodel labels each block in place, with one
// MetamodelLabelBlock call. Replaying the RNG from the same derived seed on
// Reset() makes both build passes (and any block size) see the identical
// row sequence -- and, because the seed derivation and the per-row sampler
// calls are exactly RedsRelabel's and block labels equal per-row labels,
// the stream is bit-identical to the materialized new_data.
//
// Labeling is the expensive half of a pass (a metamodel prediction per row
// vs. a handful of RNG draws), so the labels of pass 1 are cached in an
// O(L) vector (cache_stream_labels, default on): every later pass replays
// the RNG for x and serves y from the cache -- the historical
// labels-twice cost of the two-pass streamed build collapses to one
// labeling pass. With preset labels (an engine relabel-stream cache hit)
// even the first pass never consults a metamodel. The L x M point matrix
// is never cached on any path. A "relabel.label_pass" trace instant marks
// each pass that performs fresh metamodel labeling.
class RedsRelabelSource : public DatasetSource {
 public:
  RedsRelabelSource(std::shared_ptr<const ml::Metamodel> metamodel,
                    sampling::PointSampler sampler, int num_cols,
                    int64_t num_rows, uint64_t sampler_seed,
                    bool probability_labels, bool cache_labels,
                    std::shared_ptr<const std::vector<double>> preset_labels,
                    std::function<void(
                        std::shared_ptr<const std::vector<double>>)>
                        labels_sink)
      : metamodel_(std::move(metamodel)),
        sampler_(std::move(sampler)),
        num_cols_(num_cols),
        num_rows_(num_rows),
        sampler_seed_(sampler_seed),
        probability_labels_(probability_labels),
        labels_sink_(std::move(labels_sink)),
        rng_(sampler_seed) {
    if (preset_labels != nullptr &&
        preset_labels->size() == static_cast<size_t>(num_rows)) {
      preset_ = std::move(preset_labels);
      labeled_ = num_rows_;
    } else if (cache_labels) {
      building_ = std::make_shared<std::vector<double>>();
      building_->reserve(static_cast<size_t>(num_rows));
    }
    assert(preset_ != nullptr || metamodel_ != nullptr);
  }

  int num_cols() const override { return num_cols_; }
  int64_t num_rows_hint() const override { return num_rows_; }

  Status Reset() override {
    rng_ = Rng(sampler_seed_);
    cursor_ = 0;
    labeled_this_pass_ = false;
    return Status::OK();
  }

  Result<RowBlock> NextBlock(int max_rows) override {
    if (max_rows <= 0) {
      return Status::InvalidArgument("NextBlock needs max_rows >= 1");
    }
    RowBlock block;
    const int take =
        static_cast<int>(std::min<int64_t>(max_rows, num_rows_ - cursor_));
    if (take <= 0) return block;
    x_buf_.resize(static_cast<size_t>(take) * num_cols_);
    y_buf_.resize(static_cast<size_t>(take));
    // Sample the whole block first: labeling draws no random numbers, so
    // the RNG sequence (and every row) is unchanged.
    for (int r = 0; r < take; ++r) {
      sampler_(&rng_, num_cols_,
               x_buf_.data() + static_cast<size_t>(r) * num_cols_);
    }
    // Rows below labeled_ have known labels; the rest get one block call.
    const int known_rows =
        static_cast<int>(std::clamp<int64_t>(labeled_ - cursor_, 0, take));
    const std::vector<double>* known =
        preset_ != nullptr ? preset_.get() : building_.get();
    for (int r = 0; r < known_rows; ++r) {
      y_buf_[static_cast<size_t>(r)] =
          (*known)[static_cast<size_t>(cursor_ + r)];
    }
    if (known_rows < take) {
      if (!labeled_this_pass_) {
        labeled_this_pass_ = true;
        obs::TraceInstant("relabel.label_pass");
      }
      const double* unlabeled =
          x_buf_.data() + static_cast<size_t>(known_rows) * num_cols_;
      MetamodelLabelBlock(*metamodel_, unlabeled, take - known_rows,
                          probability_labels_, y_buf_.data() + known_rows);
      if (building_ != nullptr) {
        building_->insert(building_->end(), y_buf_.begin() + known_rows,
                          y_buf_.begin() + take);
        labeled_ = cursor_ + take;
      }
    }
    cursor_ += take;
    if (building_ != nullptr && labeled_ == num_rows_ && labels_sink_) {
      labels_sink_(building_);
      labels_sink_ = nullptr;  // fire once
    }
    block.x = la::ConstMatrixView(x_buf_.data(), take, num_cols_);
    block.y = y_buf_.data();
    return block;
  }

 private:
  std::shared_ptr<const ml::Metamodel> metamodel_;
  sampling::PointSampler sampler_;
  int num_cols_;
  int64_t num_rows_;
  uint64_t sampler_seed_;
  bool probability_labels_;
  std::shared_ptr<const std::vector<double>> preset_;   // cache-hit labels
  std::shared_ptr<std::vector<double>> building_;       // pass-1 label cache
  int64_t labeled_ = 0;  // rows [0, labeled_) have known labels
  std::function<void(std::shared_ptr<const std::vector<double>>)> labels_sink_;
  Rng rng_;
  int64_t cursor_ = 0;
  bool labeled_this_pass_ = false;
  std::vector<double> x_buf_;
  std::vector<double> y_buf_;
};

}  // namespace

double MetamodelLabel(const ml::Metamodel& model, const double* x,
                      bool probability_labels) {
  const double p = model.PredictProb(x);
  return probability_labels ? p : (p > 0.5 ? 1.0 : 0.0);
}

void MetamodelLabelBlock(const ml::Metamodel& model, const double* x,
                         int rows, bool probability_labels, double* y) {
  model.PredictBlock(x, rows, y);
  if (probability_labels) return;
  for (int r = 0; r < rows; ++r) y[r] = y[r] > 0.5 ? 1.0 : 0.0;
}

RedsRelabeling RedsRelabel(const Dataset& d, const RedsConfig& config,
                           uint64_t seed) {
  assert(d.num_rows() > 0 && config.num_new_points > 0);
  RedsRelabeling out;
  out.metamodel = FitMetamodel(d, config, DeriveSeed(seed, 1));

  const int m = d.num_cols();
  sampling::PointSampler sampler =
      config.sampler ? config.sampler : sampling::MakeUniformSampler();
  Rng rng(DeriveSeed(seed, 2));
  std::vector<double> x(static_cast<size_t>(config.num_new_points) *
                        static_cast<size_t>(m));
  for (int i = 0; i < config.num_new_points; ++i) {
    sampler(&rng, m, x.data() + static_cast<size_t>(i) * m);
  }
  out.new_data = LabelPoints(*out.metamodel, std::move(x), m,
                             config.probability_labels);
  return out;
}

RedsRelabeling RedsRelabelPoints(const Dataset& d,
                                 const std::vector<double>& unlabeled_x,
                                 const RedsConfig& config, uint64_t seed) {
  assert(d.num_rows() > 0);
  RedsRelabeling out;
  out.metamodel = FitMetamodel(d, config, DeriveSeed(seed, 1));
  out.new_data = LabelPoints(*out.metamodel, unlabeled_x, d.num_cols(),
                             config.probability_labels);
  return out;
}

RedsStreamedRelabeling RedsRelabelStreamed(const Dataset& d,
                                           const RedsConfig& config,
                                           uint64_t seed) {
  assert(d.num_rows() > 0 && config.num_new_points > 0);
  RedsStreamedRelabeling out;
  // Shared seed derivation with RedsRelabel: sub-stream 1 trains the
  // metamodel, sub-stream 2 drives the sampler, so the two paths produce
  // the identical metamodel and the identical point sequence. With preset
  // labels (an engine relabel-stream cache hit covering every row) the
  // metamodel is never consulted, so the fit is skipped outright and
  // out.metamodel stays null.
  const bool labels_preset =
      config.preset_stream_labels != nullptr &&
      config.preset_stream_labels->size() ==
          static_cast<size_t>(config.num_new_points);
  if (!labels_preset) {
    out.metamodel = FitMetamodel(d, config, DeriveSeed(seed, 1));
  }
  sampling::PointSampler sampler =
      config.sampler ? config.sampler : sampling::MakeUniformSampler();
  out.new_data = std::make_unique<RedsRelabelSource>(
      out.metamodel, std::move(sampler), d.num_cols(), config.num_new_points,
      DeriveSeed(seed, 2), config.probability_labels,
      config.cache_stream_labels,
      labels_preset ? config.preset_stream_labels : nullptr,
      config.stream_labels_sink);
  return out;
}

}  // namespace reds
