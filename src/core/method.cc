#include "core/method.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/quality.h"
#include "obs/trace.h"
#include "util/fingerprint.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace reds {

namespace {

const double kAlphaGrid[] = {0.03, 0.05, 0.07, 0.1, 0.13, 0.16, 0.2};
constexpr size_t kNumAlphas = sizeof(kAlphaGrid) / sizeof(kAlphaGrid[0]);

// Row-id views of one valid (non-degenerate, positives on both sides)
// train/holdout fold. The CV loops run fold-outer over these, so exactly
// one fold's materialized matrices and indexes are resident at a time;
// the fold geometry is identical to the historical all-folds-up-front
// split (same FoldAssignment, same skip rules).
struct FoldRows {
  std::vector<int> train_rows;
  std::vector<int> test_rows;
};

std::vector<FoldRows> MakeFoldRows(const Dataset& d, int folds,
                                   uint64_t seed) {
  const std::vector<int> fold = ml::FoldAssignment(d.num_rows(), folds, seed);
  std::vector<FoldRows> out;
  for (int f = 0; f < folds; ++f) {
    FoldRows rows;
    for (int i = 0; i < d.num_rows(); ++i) {
      (fold[static_cast<size_t>(i)] == f ? rows.test_rows : rows.train_rows)
          .push_back(i);
    }
    if (rows.train_rows.empty() || rows.test_rows.empty()) continue;
    // Same validity rule as Dataset::TotalPositive() > 0 on the subsets,
    // computed off the row ids so nothing is copied for skipped folds.
    const auto positive = [&d](const std::vector<int>& ids) {
      double total = 0.0;
      for (int r : ids) total += d.y(r);
      return total > 0.0;
    };
    if (!positive(rows.train_rows) || !positive(rows.test_rows)) continue;
    out.push_back(std::move(rows));
  }
  return out;
}

}  // namespace

Result<MethodSpec> MethodSpec::Parse(const std::string& name) {
  MethodSpec spec;
  size_t pos = 0;
  auto fail = [&name]() {
    return Status::InvalidArgument("unrecognized method name: " + name);
  };
  if (pos < name.size() && name[pos] == 'R') {
    spec.reds = true;
    ++pos;
  }
  if (name.compare(pos, 2, "PB") == 0) {
    spec.family = Family::kPrimBumping;
    pos += 2;
  } else if (name.compare(pos, 2, "BI") == 0) {
    spec.family = Family::kBi;
    pos += 2;
    if (pos < name.size() && name[pos] >= '1' && name[pos] <= '9') {
      spec.beam_size = name[pos] - '0';
      ++pos;
    }
  } else if (pos < name.size() && name[pos] == 'P') {
    spec.family = Family::kPrim;
    ++pos;
  } else {
    return fail();
  }
  if (pos < name.size() && name[pos] == 'c') {
    spec.tuned = true;
    ++pos;
  }
  if (spec.reds) {
    if (pos >= name.size()) return fail();
    switch (name[pos]) {
      case 'f':
        spec.metamodel = ml::MetamodelKind::kRandomForest;
        break;
      case 'x':
        spec.metamodel = ml::MetamodelKind::kGbt;
        break;
      case 's':
        spec.metamodel = ml::MetamodelKind::kSvm;
        break;
      default:
        return fail();
    }
    ++pos;
    if (pos < name.size() && name[pos] == 'p') {
      spec.probability_labels = true;
      ++pos;
    }
  }
  if (pos != name.size()) return fail();
  return spec;
}

std::string MethodSpec::ToName() const {
  std::string out;
  if (reds) out += 'R';
  switch (family) {
    case Family::kPrim:
      out += 'P';
      break;
    case Family::kPrimBumping:
      out += "PB";
      break;
    case Family::kBi:
      out += "BI";
      if (beam_size != 1) out += std::to_string(beam_size);
      break;
  }
  if (tuned) out += 'c';
  if (reds) {
    out += ml::MetamodelSuffix(metamodel);
    if (probability_labels) out += 'p';
  }
  return out;
}

std::vector<int> MGrid(int num_inputs) {
  const int step = (num_inputs + 5) / 6;  // ceil(M/6)
  std::vector<int> grid;
  for (int m = num_inputs; m > 0; m -= step) grid.push_back(m);
  return grid;
}

double CrossValidateAlpha(const Dataset& d, const RunOptions& options,
                          uint64_t seed) {
  double best_alpha = options.default_alpha;
  const auto folds = MakeFoldRows(d, options.cv_folds, seed);
  if (folds.empty()) return best_alpha;
  // Fold-outer, candidate-inner: one fold at a time is materialized,
  // indexed, and quantized once for the whole alpha grid, then freed --
  // peak CV residency is a single fold instead of all k. Per-candidate
  // totals still accumulate in fold order, so every score (and the winning
  // alpha) is bit-identical to the historical candidate-outer loop.
  std::vector<double> totals(kNumAlphas, 0.0);
  for (const FoldRows& rows : folds) {
    const Dataset train = d.SubsetRows(rows.train_rows);
    const Dataset holdout = d.SubsetRows(rows.test_rows);
    const auto index = ColumnIndex::Build(train);
    const auto binned = BinnedIndex::Build(*index);
    for (size_t a = 0; a < kNumAlphas; ++a) {
      PrimConfig config;
      config.alpha = kAlphaGrid[a];
      config.min_points = options.min_points;
      const PrimResult r =
          RunPrim(train, train, config, index.get(), binned.get());
      totals[a] += PrAucOnData(r.ReturnedBoxes(), holdout);
    }
  }
  double best_score = -1.0;
  for (size_t a = 0; a < kNumAlphas; ++a) {
    const double score = totals[a] / static_cast<double>(folds.size());
    if (score > best_score) {
      best_score = score;
      best_alpha = kAlphaGrid[a];
    }
  }
  return best_alpha;
}

namespace {

// REDS configuration of one run, shared by the materialized and streamed
// relabeling paths (identical seeds in, identical metamodels and point
// streams out).
RedsConfig RedsConfigFor(const MethodSpec& spec, const RunOptions& options) {
  RedsConfig config;
  config.metamodel = spec.metamodel;
  config.tune_metamodel = options.tune_metamodel;
  config.budget = options.budget;
  config.probability_labels = spec.probability_labels;
  config.num_new_points = spec.family == MethodSpec::Family::kBi
                              ? options.l_bi
                              : options.l_prim;
  config.split_backend = options.split_backend;
  config.tree_growth = options.tree_growth;
  config.tree_max_leaves = options.tree_max_leaves;
  config.sampler = options.sampler;
  config.metamodel_provider = options.metamodel_provider;
  return config;
}

// Cache key of a streamed REDS relabeling: everything that shapes the
// finished (index, labels) product. Training bytes (full scope: x AND y,
// both feed the metamodel), the metamodel recipe, label semantics, stream
// length and seed, the sampler identity, and block_rows -- block size moves
// sketch-binned boundaries, so differently-blocked builds are distinct
// products. Callers must gate on a keyable sampler (default uniform, or a
// custom one with a sampler_id) before trusting this.
uint64_t StreamedRelabelKey(const Dataset& train, const MethodSpec& spec,
                            const RunOptions& options, int num_new_points) {
  util::ByteWriter w;
  util::DatasetHasher hasher(util::DatasetHasher::Scope::kFull,
                             train.num_cols());
  hasher.AddRows(train.row(0), train.y_data(), train.num_rows());
  w.U64(hasher.Finalize());
  w.U8(static_cast<uint8_t>(spec.metamodel));
  w.U8(spec.probability_labels ? 1 : 0);
  w.U8(options.tune_metamodel ? 1 : 0);
  w.U8(static_cast<uint8_t>(options.budget));
  w.U8(static_cast<uint8_t>(options.split_backend));
  w.U8(static_cast<uint8_t>(options.tree_growth));
  w.I32(options.tree_max_leaves);
  w.I32(num_new_points);
  w.I32(options.stream_block_rows);
  w.U64(options.seed);
  w.U64(options.sampler_id.size());
  for (char c : options.sampler_id) w.U8(static_cast<uint8_t>(c));
  return util::Fnv64(w.data().data(), w.size());
}

}  // namespace

MethodPlan PlanMethod(const MethodSpec& spec, const Dataset& train,
                      const RunOptions& options) {
  MethodPlan plan;
  plan.spec = spec;
  const int dims = train.num_cols();

  // Hyperparameters of the SD algorithm are always optimized on the original
  // data D, not on REDS's relabeled D_new (paper Section 8.4.3).
  plan.alpha = options.default_alpha;
  plan.m = dims;
  if (spec.tuned) {
    obs::Span span("plan.tune");
    if (spec.IsPrimFamily()) {
      plan.alpha =
          CrossValidateAlpha(train, options, DeriveSeed(options.seed, 11));
    }
    if (spec.family == MethodSpec::Family::kBi) {
      // Fold-outer, candidate-inner (same shape as CrossValidateAlpha):
      // each fold is materialized and indexed once for the whole m grid,
      // and only one fold is ever resident. Per-candidate WRAcc totals
      // accumulate in fold order, matching the historical loop bit for
      // bit.
      const auto folds =
          MakeFoldRows(train, options.cv_folds, DeriveSeed(options.seed, 13));
      const std::vector<int> grid = MGrid(dims);
      std::vector<double> totals(grid.size(), 0.0);
      for (const FoldRows& rows : folds) {
        const Dataset fold_train = train.SubsetRows(rows.train_rows);
        const Dataset fold_holdout = train.SubsetRows(rows.test_rows);
        const auto index = ColumnIndex::Build(fold_train);
        for (size_t g = 0; g < grid.size(); ++g) {
          BiConfig config;
          config.beam_size = spec.beam_size;
          config.max_restricted = grid[g];
          const BiResult r = RunBi(fold_train, config, index.get());
          totals[static_cast<size_t>(g)] += BoxWRAcc(fold_holdout, r.box);
        }
      }
      double best_score = -1e300;
      for (size_t g = 0; g < grid.size(); ++g) {
        const double score =
            folds.empty() ? 0.0
                          : totals[g] / static_cast<double>(folds.size());
        if (score > best_score) {
          best_score = score;
          plan.m = grid[g];
        }
      }
    }
    if (spec.family == MethodSpec::Family::kPrimBumping) {
      BumpingConfig base;
      base.q = options.bumping_q;
      base.prim.alpha = plan.alpha;
      base.prim.min_points = options.min_points;
      // The historical loop re-derived identical folds for every m (same
      // seed); fold-outer keeps the fold geometry and the per-fold bumping
      // seeds (7000 + f) while materializing and indexing each fold once
      // for the whole grid (every replicate's index derives from it).
      const uint64_t cv_seed = DeriveSeed(options.seed, 17);
      const auto folds = MakeFoldRows(train, options.cv_folds, cv_seed);
      const std::vector<int> grid = MGrid(dims);
      std::vector<double> totals(grid.size(), 0.0);
      for (size_t f = 0; f < folds.size(); ++f) {
        const Dataset fold_train = train.SubsetRows(folds[f].train_rows);
        const Dataset fold_holdout = train.SubsetRows(folds[f].test_rows);
        const auto index = ColumnIndex::Build(fold_train);
        for (size_t g = 0; g < grid.size(); ++g) {
          BumpingConfig config = base;
          config.m = grid[g];
          const BumpingResult r =
              RunPrimBumping(fold_train, fold_train, config,
                             DeriveSeed(cv_seed, 7000 + f), index.get());
          totals[g] += PrAucOnData(r.boxes, fold_holdout);
        }
      }
      double best_score = -1e300;
      for (size_t g = 0; g < grid.size(); ++g) {
        const double score =
            folds.empty() ? 0.0
                          : totals[g] / static_cast<double>(folds.size());
        if (score > best_score) {
          best_score = score;
          plan.m = grid[g];
        }
      }
    }
  }

  // Data plan: only REDS + plain PRIM has a streamed discovery kernel
  // (RunPrimStreamed); BI's beam refinement and bumping's per-replicate
  // subsets need raw doubles and keep the materializing fallback.
  plan.streamed_relabel = options.data_plan == MethodDataPlan::kStreamed &&
                          spec.reds &&
                          spec.family == MethodSpec::Family::kPrim;
  return plan;
}

MethodOutput ExecuteMethodPlan(const MethodPlan& plan, const Dataset& train,
                               const RunOptions& options) {
  const MethodSpec& spec = plan.spec;
  MethodOutput out;
  out.chosen_alpha = plan.alpha;
  out.chosen_m = plan.m;

  // Streamed REDS + PRIM: the L relabeled points flow sampler ->
  // metamodel labeling -> sketch binning -> binned peeling as a chunked
  // stream. Only O(stream_block_rows x M) relabeled doubles are ever
  // resident (plus the L x M uint8 codes of the quantization); the dense
  // relabeled Dataset of the materialized path below never exists. The
  // original simulated sample stays on as validation data either way, so
  // box selection is grounded in real labels.
  if (plan.streamed_relabel) {
    const RedsConfig rconfig = RedsConfigFor(spec, options);
    bool built = false;
    const auto build = [&] {
      built = true;
      // One relabel.stream span covers sampling, metamodel labeling, and
      // the sketch/code passes: the relabeled points only exist inside this
      // chunked pipeline. Deliberately NOT index.build -- this is per-job
      // REDS work that runs warm or cold, while index.build marks
      // engine-side training-index construction that a warm engine skips
      // entirely.
      obs::Span span("relabel.stream");
      RedsStreamedRelabeling relabeling =
          RedsRelabelStreamed(train, rconfig, DeriveSeed(options.seed, 23));
      StreamedBuildOptions build_options;
      build_options.block_rows = options.stream_block_rows;
      Result<StreamedDataset> streamed = BinnedIndex::BuildStreamed(
          relabeling.new_data.get(), build_options);
      if (!streamed.ok()) {
        throw std::runtime_error("streamed REDS relabeling failed: " +
                                 streamed.status().ToString());
      }
      // Every warm request on this relabeling peels it again: count its
      // bin totals once, here, rather than once per peel.
      auto data =
          std::make_shared<StreamedDataset>(std::move(streamed).value());
      data->totals = StreamedBinTotals::Build(*data->index, data->y.data());
      return std::shared_ptr<const StreamedDataset>(std::move(data));
    };
    // The finished product of the stream -- quantized index + O(L) labels
    // -- is cacheable through the engine's relabel-stream hook. A custom
    // sampler is an opaque function, so caching needs a sampler_id naming
    // it; the default uniform sampler is always keyable.
    const bool keyable = !options.sampler || !options.sampler_id.empty();
    std::shared_ptr<const StreamedDataset> data;
    if (keyable && options.streamed_relabel_cache) {
      data = options.streamed_relabel_cache(
          StreamedRelabelKey(train, spec, options, rconfig.num_new_points),
          rconfig.num_new_points, train.num_cols(), build);
      // Warm path: zero labeling passes, zero code rebuilds. The marker
      // lets tests assert the job did neither.
      if (!built) obs::TraceInstant("relabel.cached");
    } else {
      data = build();
    }
    PrimConfig config;
    config.alpha = plan.alpha;
    config.min_points = options.min_points;
    const PrimResult r = RunPrimStreamed(*data->index, data->y, config, &train,
                                         data->totals.get());
    out.trajectory = r.ReturnedBoxes();
    out.last_box = r.BestBox();
    return out;
  }

  // REDS: replace the data the SD algorithm sees. The original simulated
  // examples stay on as validation data, so box selection (and bumping's
  // Pareto filter) is grounded in real labels rather than metamodel
  // artifacts.
  const Dataset* sd_data = &train;
  const Dataset* sd_val = &train;
  Dataset relabeled;
  if (spec.reds) {
    obs::Span span("relabel.materialize");
    RedsRelabeling relabeling = RedsRelabel(train, RedsConfigFor(spec, options),
                                            DeriveSeed(options.seed, 23));
    relabeled = std::move(relabeling.new_data);
    sd_data = &relabeled;
  }

  // Index the SD dataset once; PRIM and BI scan it column-wise for every
  // peel/refinement. Only the original dataset goes through the provider
  // (it is shared across a batch's method variants); REDS-relabeled data is
  // request-local, so the kernels build a private index for it instead of
  // churning the engine cache. Bumping indexes its per-replicate feature
  // subsets internally.
  std::shared_ptr<const ColumnIndex> sd_index;
  std::shared_ptr<const BinnedIndex> sd_binned;
  if (options.column_index_provider && !spec.reds &&
      spec.family != MethodSpec::Family::kPrimBumping) {
    sd_index = options.column_index_provider(*sd_data);
    if (options.binned_index_provider &&
        spec.family == MethodSpec::Family::kPrim) {
      sd_binned = options.binned_index_provider(*sd_data);
    }
  }

  switch (spec.family) {
    case MethodSpec::Family::kPrim: {
      PrimConfig config;
      config.alpha = plan.alpha;
      config.min_points = options.min_points;
      const PrimResult r =
          RunPrim(*sd_data, *sd_val, config, sd_index.get(), sd_binned.get());
      out.trajectory = r.ReturnedBoxes();
      out.last_box = r.BestBox();
      break;
    }
    case MethodSpec::Family::kPrimBumping: {
      obs::Span span("discover.bumping");
      BumpingConfig config;
      config.q = options.bumping_q;
      config.m = plan.m;
      config.prim.alpha = plan.alpha;
      config.prim.min_points = options.min_points;
      const BumpingResult r = RunPrimBumping(*sd_data, *sd_val, config,
                                             DeriveSeed(options.seed, 29));
      out.trajectory = r.boxes;
      out.last_box = r.BestBox();
      break;
    }
    case MethodSpec::Family::kBi: {
      obs::Span span("discover.bi");
      BiConfig config;
      config.beam_size = spec.beam_size;
      config.max_restricted = plan.m;
      const BiResult r = RunBi(*sd_data, config, sd_index.get());
      out.trajectory = {r.box};
      out.last_box = r.box;
      break;
    }
  }
  return out;
}

MethodOutput RunMethod(const MethodSpec& spec, const Dataset& train,
                       const RunOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const MethodPlan plan = PlanMethod(spec, train, options);
  MethodOutput out = ExecuteMethodPlan(plan, train, options);
  out.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

MethodOutput RunMethodOnStream(const MethodSpec& spec,
                               const StreamedDataset& data,
                               const RunOptions& options) {
  if (spec.reds || spec.tuned || spec.family != MethodSpec::Family::kPrim) {
    throw std::invalid_argument(
        "RunMethodOnStream supports only untuned plain PRIM (\"" +
        spec.ToName() +
        "\" needs raw doubles; materialize the source and use RunMethod)");
  }
  const auto start = std::chrono::steady_clock::now();
  MethodOutput out;
  out.chosen_alpha = options.default_alpha;
  out.chosen_m = data.index->num_cols();
  PrimConfig config;
  config.alpha = options.default_alpha;
  config.min_points = options.min_points;
  const PrimResult r = RunPrimStreamed(*data.index, data.y, config,
                                       /*val=*/nullptr, data.totals.get());
  out.trajectory = r.ReturnedBoxes();
  out.last_box = r.BestBox();
  out.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

}  // namespace reds
