// Streaming quantile summary (Greenwald & Khanna 2001) for the sketch-based
// binning of the streaming data plane. The sketch keeps a small set of
// tuples (value, g, delta) such that any rank query is answered within
// eps * n of the true rank, in O((1/eps) * log(eps * n)) space, over one
// pass of the data. Sketches are mergeable: Merge() combines two summaries
// built over disjoint streams into a summary of the concatenation that
// still satisfies the eps bound relative to the combined count -- the gap
// invariant max(g_i + delta_i) <= floor(2 * eps * n) is preserved because a
// merged tuple's uncertainty grows by at most the other summary's largest
// gap, and the two gap budgets 2*eps*n_a + 2*eps*n_b sum to the combined
// budget 2*eps*n. The ThreadPool therefore sketches row blocks in parallel
// and folds the per-block sketches in deterministic block order.
//
// Everything is deterministic: same input sequence (and merge order), same
// summary -- a requirement for reproducible bin boundaries and cache keys.
// The buffer sort, the fused fold + compress, the merge walk and weighted
// runs are fast forms of core/quantile_sketch_reference.h and leave the
// identical summary bytes (tests/quantile_sketch_test.cc).
#ifndef REDS_CORE_QUANTILE_SKETCH_H_
#define REDS_CORE_QUANTILE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace reds {

class QuantileSketch {
 public:
  /// `eps` is the guaranteed rank-error bound as a fraction of the stream
  /// length: QueryRank(r) returns a value whose true rank interval lies
  /// within eps * count() of r.
  explicit QuantileSketch(double eps = 1.0 / 2048.0);

  void Add(double v) {
    buffer_.push_back(v);
    if (buffer_.size() >= buffer_cap_) FoldBuffer<true>();
  }

  /// Adds `w` copies of `v` in O(summary) instead of O(w): the copies land
  /// as one exact tuple (g = w, delta = 0), the summary state an
  /// uncompressed sketch reaches after w consecutive equal inserts. Lets a
  /// caller that tracked exact (value, count) pairs spill them into the
  /// sketch only when its distinct budget overflows, skipping per-value
  /// sketch work on low-cardinality streams entirely.
  void AddWeighted(double v, int64_t w);

  /// AddWeighted(values[i], weights[i]) for i = 0..k-1, in that order, with
  /// the identical resulting summary. When the values ascend, the tuples
  /// are in order and neither holds a NaN, the pairs are merged into the
  /// tuple list in one pass, and the greedy compress runs only after a pair
  /// that leaves some adjacent tuples mergeable under the current gap
  /// budget -- after any other pair it provably changes nothing. Any other
  /// input takes the pair-at-a-time path.
  void AddWeightedRun(const double* values, const int64_t* weights, size_t k);

  /// Folds `other` (a summary of a disjoint stream) into this sketch.
  /// Both must share the same eps.
  void Merge(const QuantileSketch& other);

  /// Observations summarized so far.
  int64_t count() const { return n_ + static_cast<int64_t>(buffer_.size()); }

  /// A value whose rank is within eps * count() of `rank` (0-based,
  /// clamped to [0, count()-1]). The stream minimum and maximum are exact.
  double QueryRank(int64_t rank) const;

  /// QueryRank of every rank in `ranks` (ascending) in one sweep of the
  /// summary: out[i] == QueryRank(ranks[i]), which stays the golden
  /// reference.
  std::vector<double> QueryRanks(const std::vector<int64_t>& ranks) const;

  /// QueryRank at q * (count() - 1), q in [0, 1].
  double QueryQuantile(double q) const;

  double eps() const { return eps_; }

  /// Tuples currently retained (after flushing the insert buffer);
  /// sub-linear in count() -- the whole point.
  size_t SummarySize() const;

  /// Wire form for the shard transport: eps, n and the flushed tuple list.
  /// Deserialize(Serialize(s)) reproduces the summary state exactly, so a
  /// coordinator merging shipped worker sketches gets the same result as
  /// merging the in-process originals in the same order.
  void SerializeTo(util::ByteWriter* out) const;
  static Result<QuantileSketch> DeserializeFrom(util::ByteReader* in);

 private:
  struct Tuple {
    double v = 0.0;
    int64_t g = 0;      // rmin(i) = sum of g_j for j <= i
    int64_t delta = 0;  // rmax(i) = rmin(i) + delta
    // True while every observation counted in g is a copy of v itself --
    // holds for fresh inserts (g = 1) and weighted inserts, and survives
    // Merge (g keeps counting the same observations). Compress clears it
    // when it folds a differently-valued neighbor's mass into g. Pure
    // tuples let QueryRank answer ranks inside the mass exactly, which is
    // what keeps heavy weighted tuples (g beyond the gap budget) within
    // the eps bound.
    bool pure = true;
  };

  int64_t GapBudget(int64_t n) const;
  // Sort the insert buffer and fold it into tuples_ in one forward pass;
  // with kCompress the same pass also runs Compress over the folded
  // sequence (the Add path).
  template <bool kCompress>
  void FoldBuffer() const;
  void Flush() const { FoldBuffer<false>(); }
  void Compress() const; // merge adjacent tuples within the gap budget

  double eps_;
  mutable int64_t n_ = 0;               // observations inside tuples_
  mutable std::vector<Tuple> tuples_;   // sorted by v
  mutable std::vector<double> buffer_;  // unsorted recent inserts
  size_t buffer_cap_;
};

}  // namespace reds

#endif  // REDS_CORE_QUANTILE_SKETCH_H_
