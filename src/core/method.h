// Method specs: the paper's naming convention (Section 8.2) parsed into
// runnable pipelines. "P"/"PB"/"BI" pick the subgroup-discovery family, a
// "c" suffix turns on hyperparameter cross-validation, a leading "R" wraps
// the method in REDS with metamodel "f"/"x"/"s" and optional probability
// labels "p". Examples: "Pc", "PBc", "BI5", "RPx", "RPcxp", "RBIcxp".
#ifndef REDS_CORE_METHOD_H_
#define REDS_CORE_METHOD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/best_interval.h"
#include "core/bumping.h"
#include "core/prim.h"
#include "core/reds.h"
#include "ml/tuning.h"
#include "sampling/design.h"
#include "util/status.h"

namespace reds {

/// Parsed method name.
struct MethodSpec {
  enum class Family { kPrim, kPrimBumping, kBi };

  Family family = Family::kPrim;
  bool tuned = false;  // "c": cross-validated hyperparameters
  int beam_size = 1;   // "BI5" -> 5
  bool reds = false;   // "R" prefix
  ml::MetamodelKind metamodel = ml::MetamodelKind::kGbt;
  bool probability_labels = false;  // trailing "p"

  /// Parses names like "P", "Pc", "PB", "PBc", "BI", "BI5", "BIc", "RPf",
  /// "RPx", "RPs", "RPxp", "RPcxp", "RBIcfp", "RBIcxp".
  static Result<MethodSpec> Parse(const std::string& name);

  /// Renders back to the paper's naming convention.
  std::string ToName() const;

  bool IsPrimFamily() const { return family != Family::kBi; }
};

/// How the method layer ingests the data its SD algorithm scans.
///   kMaterialized: REDS relabeling produces a dense L x M double Dataset
///                  (the pre-PR 5 behavior), indexed and peeled in memory.
///   kStreamed:     REDS + PRIM flows RedsRelabelStreamed ->
///                  BinnedIndex::BuildStreamed -> RunPrimStreamed: the L
///                  relabeled points exist only as O(block) doubles in
///                  flight plus L x M uint8 codes, never as a double
///                  matrix. Bit-identical boxes to kMaterialized in the
///                  exact-pack regime (every sampled column <= 256 distinct
///                  values); within the sketch's rank-error bound
///                  otherwise. Methods without a streamed kernel (BI,
///                  bumping, and every non-REDS family) always materialize
///                  regardless of this knob.
enum class MethodDataPlan { kMaterialized, kStreamed };

/// Knobs shared by all methods in one experiment (paper Table 2 defaults).
struct RunOptions {
  double default_alpha = 0.05;  // peeling fraction when not tuned
  int min_points = 20;          // mp
  int bumping_q = 50;           // Q
  int l_prim = 100000;          // L when SD is PRIM-based
  int l_bi = 10000;             // L when SD is BI
  int cv_folds = 5;
  bool tune_metamodel = true;
  ml::TuningBudget budget = ml::TuningBudget::kQuick;
  sampling::PointSampler sampler;  // REDS new-point distribution (default uniform)
  uint64_t seed = 0;
  /// Optional engine hook: REDS methods obtain their metamodel from this
  /// provider (e.g. the DiscoveryEngine's cross-request cache) instead of
  /// fitting inline.
  MetamodelProvider metamodel_provider;
  /// Optional engine hook: the dataset the SD algorithm scans is indexed
  /// through this provider (e.g. the DiscoveryEngine's fingerprint-keyed
  /// ColumnIndex cache) so a batch over the same data indexes it once.
  /// When empty, kernels build private indexes.
  ColumnIndexProvider column_index_provider;
  /// Optional engine hook for the quantized layer: PRIM's binned peeling
  /// obtains the dataset's BinnedIndex here (same fingerprint key as the
  /// ColumnIndex cache) so a batch quantizes once. When empty, kernels
  /// quantize privately.
  BinnedIndexProvider binned_index_provider;
  /// Data plan of the relabeled dataset; see MethodDataPlan. The default
  /// streams REDS + PRIM.
  MethodDataPlan data_plan = MethodDataPlan::kStreamed;
  /// Rows per block on the streamed plan (both the relabeling generator
  /// and BuildStreamed pull this granularity). Peak relabeled-double
  /// residency is O(stream_block_rows x M).
  int stream_block_rows = 8192;
  /// Identity of a custom `sampler` for the relabel-stream cache key. A
  /// custom sampler is an opaque function, so the streamed relabel cache
  /// is disabled for it unless this names it; the default uniform sampler
  /// needs no id. Two different samplers must never share an id.
  std::string sampler_id;
  /// Optional engine hook: get-or-build of a finished streamed REDS
  /// relabeling (quantized index + labels) by cache key. Returns the cached
  /// relabeling -- the job then replays neither the sampler nor the
  /// metamodel nor the quantization: zero labeling passes, zero code
  /// rebuilds -- or runs `build` and caches its result. `expect_rows` /
  /// `expect_cols` guard entries the hook reloads from disk.
  std::function<std::shared_ptr<const StreamedDataset>(
      uint64_t key, int expect_rows, int expect_cols,
      const std::function<std::shared_ptr<const StreamedDataset>()>& build)>
      streamed_relabel_cache;
};

/// What a method run produces: a trajectory of boxes to assess (nested
/// sequence for PRIM, Pareto set for bumping, a single box for BI) and the
/// "last"/selected box the per-box metrics use.
struct MethodOutput {
  std::vector<Box> trajectory;
  Box last_box;
  double chosen_alpha = 0.0;  // PRIM family
  int chosen_m = 0;           // bumping / BI
  double runtime_seconds = 0.0;
};

/// A method run, resolved: hyperparameters tuned on the original data and
/// the data plan decided. PlanMethod performs the tune step (always on D,
/// never on the relabeled D_new -- paper Section 8.4.3); ExecuteMethodPlan
/// performs relabel -> index -> discover. RunMethod is the composition;
/// the split lets callers (and tests) run the expensive tuning once and
/// execute the same plan under different data plans.
struct MethodPlan {
  MethodSpec spec;
  double alpha = 0.05;  // PRIM family peeling fraction (tuned or default)
  int m = 0;            // bumping / BI restriction budget (tuned or M)
  /// True when execution streams the relabeled data (REDS + plain PRIM
  /// under MethodDataPlan::kStreamed); everything else materializes.
  bool streamed_relabel = false;
};

/// Tune step: resolves hyperparameters (CV on D for the "c" variants) and
/// the data plan.
MethodPlan PlanMethod(const MethodSpec& spec, const Dataset& train,
                      const RunOptions& options);

/// Relabel -> index -> discover for a resolved plan. On the streamed plan
/// the relabeled points flow RedsRelabelStreamed -> BuildStreamed ->
/// RunPrimStreamed (validated on `train`, exactly like the materialized
/// path's RunPrim(D_new, D)) and the dense relabeled matrix never exists.
MethodOutput ExecuteMethodPlan(const MethodPlan& plan, const Dataset& train,
                               const RunOptions& options);

/// Runs the method on `train` (D_val = D as in the paper's experiments):
/// PlanMethod + ExecuteMethodPlan + wall-time accounting.
MethodOutput RunMethod(const MethodSpec& spec, const Dataset& train,
                       const RunOptions& options);

/// Runs a method directly on streamed, already-quantized training data --
/// the fully streamed entry point for sources too large to materialize
/// (the engine uses it for DatasetSource requests). Supported specs: the
/// untuned plain PRIM family ("P"); everything else needs raw doubles
/// (tuning folds, metamodel training, BI/bumping scans) and must go
/// through RunMethod on a materialized dataset. Throws
/// std::invalid_argument for unsupported specs. `data.index` must carry
/// its own permutation (BuildStreamed output); `data.totals`, when set,
/// spares the peel counting its bins.
MethodOutput RunMethodOnStream(const MethodSpec& spec,
                               const StreamedDataset& data,
                               const RunOptions& options);

/// Cross-validates the peeling fraction for plain PRIM over the paper's grid
/// {0.03, 0.05, 0.07, 0.1, 0.13, 0.16, 0.2}, maximizing held-out PR AUC.
double CrossValidateAlpha(const Dataset& d, const RunOptions& options,
                          uint64_t seed);

/// The paper's m grid {M - k * ceil(M/6) : k >= 0, value > 0}.
std::vector<int> MGrid(int num_inputs);

}  // namespace reds

#endif  // REDS_CORE_METHOD_H_
