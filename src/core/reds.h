// REDS (paper Algorithm 4): train a metamodel on the N simulated examples,
// draw L fresh points from the same input distribution, label them with the
// metamodel (hard labels via bnd, or probabilities for the "p" variants),
// and hand the relabeled dataset to any scenario-discovery algorithm.
#ifndef REDS_CORE_REDS_H_
#define REDS_CORE_REDS_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "core/dataset.h"
#include "core/dataset_source.h"
#include "ml/model.h"
#include "ml/tuning.h"
#include "sampling/design.h"

namespace reds {

/// Supplies the trained metamodel for a REDS run. The discovery engine
/// installs one backed by its cross-request cache; when empty, REDS fits
/// inline with TuneAndFit/FitDefault. The arguments are the trained model's
/// whole identity: how the provider fits (split-search kernel, indexes) is
/// its own choice and must not change the fitted model.
using MetamodelProvider = std::function<std::shared_ptr<const ml::Metamodel>(
    const Dataset& train, ml::MetamodelKind kind, bool tune,
    ml::TuningBudget budget, uint64_t seed)>;

struct RedsConfig {
  ml::MetamodelKind metamodel = ml::MetamodelKind::kGbt;
  bool tune_metamodel = true;         // caret-style CV grid (paper 8.4.3)
  ml::TuningBudget budget = ml::TuningBudget::kQuick;
  bool probability_labels = false;    // "p": y_new = f_am(x) in [0,1]
  int num_new_points = 100000;        // L
  sampling::PointSampler sampler;     // defaults to i.i.d. uniform
  MetamodelProvider metamodel_provider;  // optional engine cache hook
  /// Streamed path only: cache the O(L) label vector produced by the
  /// stream's first pass so every later pass (BuildStreamed's coding pass)
  /// replays the sampler RNG for x but never re-runs the metamodel -- the
  /// two labeling passes fuse into one. Never caches the L x M point
  /// matrix. Off restores the pure replay behavior (each pass labels).
  bool cache_stream_labels = true;
  /// Streamed path only: labels of this exact stream computed by an
  /// earlier run (engine relabel-stream cache). When set, the stream
  /// serves these labels directly -- zero labeling passes -- and
  /// RedsRelabelStreamed skips the metamodel fit entirely (its result
  /// carries a null metamodel).
  std::shared_ptr<const std::vector<double>> preset_stream_labels;
  /// Streamed path only: invoked once, with the complete label vector,
  /// when a cold stream finishes labeling all num_new_points rows (the
  /// engine stores it under the relabel-stream cache key). Requires
  /// cache_stream_labels.
  std::function<void(std::shared_ptr<const std::vector<double>>)>
      stream_labels_sink;
};

/// The relabeled dataset plus the trained metamodel (kept for inspection /
/// semi-supervised reuse; shared so a cache can hand out one model to many
/// concurrent requests).
struct RedsRelabeling {
  Dataset new_data;
  std::shared_ptr<const ml::Metamodel> metamodel;
};

/// Steps 1-3 of Algorithm 4: fit the metamodel on d and produce D_new with
/// L freshly sampled, metamodel-labeled points.
RedsRelabeling RedsRelabel(const Dataset& d, const RedsConfig& config,
                           uint64_t seed);

/// Semi-supervised variant (paper Section 6.1/9.4): instead of sampling new
/// points, label the given unlabeled inputs (row-major, num_cols columns)
/// with the metamodel trained on d.
RedsRelabeling RedsRelabelPoints(const Dataset& d,
                                 const std::vector<double>& unlabeled_x,
                                 const RedsConfig& config, uint64_t seed);

/// The one place REDS label semantics live: probability labels ("p"
/// variants) return f_am(x) in [0,1]; hard labels threshold at 0.5. This
/// per-row form is the golden reference of MetamodelLabelBlock.
double MetamodelLabel(const ml::Metamodel& model, const double* x,
                      bool probability_labels);

/// MetamodelLabel over `rows` row-major points of `x` into y[0, rows) with
/// one Metamodel::PredictBlock call; y[i] equals MetamodelLabel(row i) bit
/// for bit. Every relabeling path -- materialized, point-wise, and
/// streamed -- labels through this helper, so the paths cannot drift apart.
void MetamodelLabelBlock(const ml::Metamodel& model, const double* x,
                         int rows, bool probability_labels, double* y);

/// Streamed REDS relabeling: the metamodel is obtained exactly as in
/// RedsRelabel (provider hook or inline fit, same seed derivation), but
/// D_new is returned as a DatasetSource that samples fresh points and
/// labels them with the metamodel block by block. The row stream is
/// bit-identical to RedsRelabel's materialized new_data -- one sequential
/// sampler RNG seeded from the shared derivation, replayed on Reset() --
/// so streamed and in-memory REDS quantize to identical bins in the
/// exact-pack regime while only O(block) relabeled doubles ever exist.
/// `metamodel` is null when preset_stream_labels covered the whole stream:
/// the labels were served from cache, so no model was fit or consulted.
struct RedsStreamedRelabeling {
  std::unique_ptr<DatasetSource> new_data;  // owns sampler state + labeling
  std::shared_ptr<const ml::Metamodel> metamodel;
};

RedsStreamedRelabeling RedsRelabelStreamed(const Dataset& d,
                                           const RedsConfig& config,
                                           uint64_t seed);

}  // namespace reds

#endif  // REDS_CORE_REDS_H_
