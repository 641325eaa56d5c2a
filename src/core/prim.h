// PRIM: the Patient Rule Induction Method (Friedman & Fisher 1999), peeling
// phase as in the paper's Algorithm 1 plus an optional pasting phase. Each
// run yields a sequence of nested boxes (the peeling trajectory); the
// returned prefix ends at the box with the highest validation precision.
#ifndef REDS_CORE_PRIM_H_
#define REDS_CORE_PRIM_H_

#include <vector>

#include "core/binned_index.h"
#include "core/box.h"
#include "core/column_index.h"
#include "core/dataset.h"
#include "core/quality.h"

namespace reds {

/// Peel-candidate kernel.
///   kSorted: rank selection on per-column sorted in-box views, compacted
///            through a bitmask on every peel (the PR 2 kernel).
///   kBinned: per-dimension in-box bin histograms over a BinnedIndex locate
///            each peel bin in O(bins); an exact scan inside that bin
///            refines the boundary, and applying a peel touches only the
///            removed rows (O(removed x M)) instead of compacting every
///            view (O(N x M)). Produces bit-identical box sequences.
enum class PrimPeelBackend { kSorted, kBinned };

struct PrimConfig {
  double alpha = 0.05;   // peeling fraction removed per step
  int min_points = 20;   // mp: peel while train and val boxes hold >= mp points
  bool paste = false;    // run the pasting phase on the selected box
  double paste_alpha = 0.01;  // expansion fraction per pasting step
  PrimPeelBackend backend = PrimPeelBackend::kBinned;
  /// Evaluate the 2M per-dimension peel candidates on a thread pool when
  /// > 1 and the in-box workload is large enough (kPrimParallelMinWork);
  /// candidate selection stays in dimension order, so the result is
  /// identical to the serial evaluation.
  int threads = 1;
};

/// In-box points x dimensions below which parallel candidate evaluation is
/// skipped even when PrimConfig::threads > 1 (dispatch would dominate).
inline constexpr double kPrimParallelMinWork = 32768.0;

/// Output of one PRIM run: the nested box sequence with train/validation
/// precision and recall per box.
struct PrimResult {
  std::vector<Box> boxes;  // boxes[0] is unbounded; nested thereafter
  std::vector<PrPoint> train_curve;
  std::vector<PrPoint> val_curve;
  int best_val_index = 0;  // box with max validation precision

  /// The paper's "returned sequence": boxes[0 .. best_val_index].
  std::vector<Box> ReturnedBoxes() const;
  /// The paper's "last box" (maximum validation precision).
  const Box& BestBox() const { return boxes[static_cast<size_t>(best_val_index)]; }
};

/// Runs PRIM peeling with `train` guiding the cuts and `val` both limiting
/// the depth (min_points) and selecting the final box. Targets may be
/// fractional (REDS probability labels). The paper's experiments use
/// val == train.
///
/// The peel candidates are found through the backend selected in `config`
/// (sorted in-box views or binned histograms + exact in-bin refinement;
/// identical results either way). Pass prebuilt indexes of `train` to
/// amortize them across runs; when null, private ones are built
/// (`train_binned` is only consulted by the kBinned backend).
PrimResult RunPrim(const Dataset& train, const Dataset& val,
                   const PrimConfig& config,
                   const ColumnIndex* train_index = nullptr,
                   const BinnedIndex* train_binned = nullptr);

/// The original scalar implementation (full rescan per peel candidate).
/// Kept as the golden reference for equivalence tests and as the baseline
/// the perf harness measures speedups against. Same results as RunPrim.
PrimResult RunPrimReference(const Dataset& train, const Dataset& val,
                            const PrimConfig& config);

/// PRIM peeling entirely on the quantized plane: candidates, counts and
/// removed-mass sums come from BinnedIndex codes, per-bin aggregates and
/// the index's own code-ordered permutation -- no raw matrix and no
/// ColumnIndex, so it runs on streamed datasets whose doubles were never
/// materialized (BinnedIndex::BuildStreamed). Box bounds snap to bin
/// boundaries (bin_first for lower bounds, bin_last for upper bounds):
/// bit-identical to RunPrim whenever every feature has at most max_bins
/// distinct values (each bin is one value), within the sketch's rank-error
/// bound otherwise. `y` holds one label per row.
///
/// `val` selects the box exactly as RunPrim's validation data does: it
/// limits the peeling depth (min_points) and picks the returned box by
/// validation precision. Null means D_val = D (the paper's default, and
/// the only option when nothing but the stream exists); the streamed REDS
/// driver passes the original simulated sample here, so box selection is
/// grounded in real labels just like the materialized path's
/// RunPrim(D_new, D). It runs the same peeling loop as RunPrim (including
/// block-parallel candidate evaluation under PrimConfig::threads); only
/// the pasting phase, which needs raw training values, is unsupported.
/// Requires binned.has_sorted_rows().
///
/// Pass the prebuilt StreamedBinTotals of (binned, y) to skip counting the
/// L x M codes; when null, private ones are built. Either way the result
/// is the same: each peel costs O(removed rows x M) plus O(bins) per
/// candidate.
PrimResult RunPrimStreamed(const BinnedIndex& binned,
                           const std::vector<double>& y,
                           const PrimConfig& config,
                           const Dataset* val = nullptr,
                           const StreamedBinTotals* totals = nullptr);

/// Golden reference of RunPrimStreamed: every candidate rebuilds the
/// in-box bin histogram of its column by a full row scan, then applies the
/// same bin-level cut and tie rules, summing labels in (bin, row id)
/// order. Serial. Used only by tests and the kernel bench.
PrimResult RunPrimStreamedReference(const BinnedIndex& binned,
                                    const std::vector<double>& y,
                                    const PrimConfig& config,
                                    const Dataset* val = nullptr);

}  // namespace reds

#endif  // REDS_CORE_PRIM_H_
