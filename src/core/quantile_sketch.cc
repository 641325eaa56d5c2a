#include "core/quantile_sketch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

namespace reds {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;
constexpr uint64_t kExponentMask = 0x7ff0000000000000ULL;

// Branch-free selection: all-ones when `c`, else zero. The fold and merge
// passes decide between two inputs at every step on effectively random
// data, where a mispredicted branch costs more than computing both sides.
inline int64_t MaskIf(bool c) { return -static_cast<int64_t>(c); }
inline int64_t Select(int64_t mask, int64_t a, int64_t b) {
  return (a & mask) | (b & ~mask);
}
inline double Select(int64_t mask, double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  const uint64_t u = (ua & static_cast<uint64_t>(mask)) |
                     (ub & ~static_cast<uint64_t>(mask));
  double out;
  std::memcpy(&out, &u, sizeof(out));
  return out;
}

// Below this many values std::sort beats building a bucket histogram.
constexpr size_t kBucketSortMinValues = 64;

// Per-thread scratch of the sketch pass. A build holds a sketch per column
// and per in-flight block, so nothing sized to the insert buffer may live
// inside the sketch itself.
struct SketchScratch {
  std::vector<double> sorted;
  std::vector<uint32_t> bucket_start;
  std::vector<int64_t> suffix_cost;  // AddWeightedRun
};

SketchScratch& Scratch() {
  thread_local SketchScratch scratch;
  return scratch;
}

// Sorts `values` ascending. One counting pass distributes the values into
// about one bucket per value by their linear position between the minimum
// and the maximum -- (v - lo) * scale, truncated, is non-decreasing in v,
// so the buckets are in value order -- and an insertion pass finishes
// every bucket. Should the values crowd into few buckets, the insertion
// pass gives up after a fixed number of moves and std::sort finishes.
// The bucket path runs only when no value is NaN or -0.0 (and the range is
// finite). Then two values that compare equal are bitwise identical, so
// every correct sort -- std::sort included -- yields the same sequence.
// Any other buffer is handed to std::sort itself, so the result never
// depends on how a sort orders -0.0 and +0.0.
void SortValues(std::vector<double>* values) {
  const size_t n = values->size();
  if (n < kBucketSortMinValues) {
    std::sort(values->begin(), values->end());
    return;
  }
  double* v = values->data();
  uint64_t unsafe = 0;
  double lo = v[0], hi = v[0];
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &v[i], sizeof(bits));
    unsafe |= static_cast<uint64_t>(bits == kSignBit) |
              static_cast<uint64_t>((bits & ~kSignBit) > kExponentMask);
    lo = std::min(lo, v[i]);
    hi = std::max(hi, v[i]);
  }
  const size_t buckets = n;
  const double scale = static_cast<double>(buckets) / (hi - lo);
  if (unsafe != 0 || !(hi > lo) || !std::isfinite(hi - lo) ||
      !std::isfinite(scale)) {
    // NaN, -0.0, an infinite or overflowing range, or one so narrow that
    // the scale overflows.
    std::sort(values->begin(), values->end());
    return;
  }
  SketchScratch& scratch = Scratch();
  auto bucket = [&](double x) {
    return std::min(static_cast<size_t>((x - lo) * scale), buckets - 1);
  };
  std::vector<uint32_t>& start = scratch.bucket_start;
  start.assign(buckets + 1, 0);
  for (size_t i = 0; i < n; ++i) ++start[bucket(v[i]) + 1];
  for (size_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
  scratch.sorted.resize(n);
  double* a = scratch.sorted.data();
  for (size_t i = 0; i < n; ++i) a[start[bucket(v[i])]++] = v[i];
  // Values are now ordered across buckets; within a bucket, insertion.
  size_t budget = 8 * n;
  for (size_t i = 1; i < n; ++i) {
    const double x = a[i];
    size_t j = i;
    while (j > 0 && a[j - 1] > x) {
      a[j] = a[j - 1];
      --j;
    }
    a[j] = x;
    const size_t moved = i - j;
    if (moved > budget) {
      std::sort(a, a + n);
      break;
    }
    budget -= moved;
  }
  std::copy(a, a + n, v);
}

// Writes the tuples pushed to it to `out` unchanged.
template <typename Tuple>
class PlainWriter {
 public:
  PlainWriter(Tuple* out, int64_t /*budget*/) : out_(out) {}
  void Push(const Tuple& t) { out_[written_++] = t; }
  size_t Finish() const { return written_; }

 private:
  Tuple* out_;
  size_t written_ = 0;
};

// QuantileSketch::Compress over the sequence of pushed tuples, one tuple
// at a time: the first tuple is kept, each later one is either absorbed by
// its right neighbor within `budget` or written out. Fewer than three
// pushed tuples come out unchanged, as Compress leaves them. The steady
// state has no data-dependent branch: the pending tuple is stored at the
// write cursor either way, and the cursor only advances when it stays.
template <typename Tuple>
class CompressingWriter {
 public:
  CompressingWriter(Tuple* out, int64_t budget) : out_(out), budget_(budget) {}

  void Push(Tuple next) {
    if (seen_ >= 2) [[likely]] {
      const int64_t absorb =
          MaskIf(pending_.g + next.g + next.delta <= budget_);
      out_[written_] = pending_;
      written_ += static_cast<size_t>(1 + absorb);
      next.g += pending_.g & absorb;
      next.pure = next.pure & ((absorb == 0) |
                               (pending_.pure & (pending_.v == next.v)));
      pending_ = next;
    } else if (seen_ == 1) {
      pending_ = next;
    } else {
      out_[written_++] = next;
    }
    ++seen_;
  }

  size_t Finish() {
    if (seen_ >= 2) out_[written_++] = pending_;
    return written_;
  }

 private:
  Tuple* out_;
  int64_t budget_;
  Tuple pending_;
  size_t seen_ = 0;
  size_t written_ = 0;
};

// Per-thread output buffer of the fold and merge passes, at least `size`
// tuples long; the result is copied back into the sketch's own list.
template <typename Tuple>
Tuple* TupleScratch(size_t size) {
  thread_local std::vector<Tuple> scratch;
  if (scratch.size() < size) scratch.resize(size);
  return scratch.data();
}

}  // namespace

QuantileSketch::QuantileSketch(double eps) : eps_(eps) {
  assert(eps > 0.0 && eps < 0.5);
  buffer_cap_ = std::max<size_t>(16, static_cast<size_t>(1.0 / (2.0 * eps)));
  buffer_.reserve(buffer_cap_);
}

int64_t QuantileSketch::GapBudget(int64_t n) const {
  return std::max<int64_t>(1, static_cast<int64_t>(2.0 * eps_ *
                                                   static_cast<double>(n)));
}

void QuantileSketch::AddWeighted(double v, int64_t w) {
  if (w <= 0) return;
  Flush();
  const auto it = std::lower_bound(
      tuples_.begin(), tuples_.end(), v,
      [](const Tuple& t, double x) { return t.v < x; });
  if (it != tuples_.end() && it->v == v) {
    // w more copies of an already-summarized value: every rank at or past
    // this tuple shifts by exactly w, so growing its g keeps the summary
    // valid with no new uncertainty.
    it->g += w;
  } else {
    Tuple t;
    t.v = v;
    t.g = w;
    // A brand-new value inherits the classic GK insertion uncertainty from
    // its successor -- unless the successor is pure (its mass is all copies
    // of a larger value, so none of it can precede v) in which case only
    // the predecessor's own uncertainty remains. At either extreme it is
    // exact.
    if (it == tuples_.end() || it == tuples_.begin()) {
      t.delta = 0;
    } else if (it->pure) {
      t.delta = std::prev(it)->delta;
    } else {
      t.delta = it->g + it->delta - 1;
    }
    tuples_.insert(it, t);
  }
  n_ += w;
  Compress();
}

void QuantileSketch::AddWeightedRun(const double* values,
                                    const int64_t* weights, size_t k) {
  size_t p = 0;
  while (p < k && weights[p] <= 0) ++p;  // AddWeighted no-ops: no flush
  if (p == k) return;
  Flush();
  bool bulk = true;
  double prev = -std::numeric_limits<double>::infinity();
  for (size_t q = p; q < k && bulk; ++q) {
    if (weights[q] <= 0) continue;
    bulk = !std::isnan(values[q]) && !(values[q] < prev);
    prev = values[q];
  }
  // A NaN that has been compressed away can still leave the tuple values
  // out of order, so the summary itself must be sorted for AddWeighted's
  // binary search to act like a forward cursor.
  for (size_t q = 0; q < tuples_.size() && bulk; ++q) {
    bulk = !std::isnan(tuples_[q].v) &&
           (q == 0 || !(tuples_[q].v < tuples_[q - 1].v));
  }
  if (!bulk) {
    for (; p < k; ++p) AddWeighted(values[p], weights[p]);
    return;
  }
  // With no NaN and ascending values, AddWeighted's lower_bound is a
  // forward cursor: the list is the written prefix base[0, w) followed by
  // the untouched old tuples old[c, s). Compress merges something iff some
  // adjacent pair (i-1, i), i >= 2, has g(i-1) + g(i) + delta(i) within the
  // budget; that cost is tracked as the minimum of the settled prefix
  // pairs, the pairs at the seam, and suffix minima over the old tuples.
  // Once it is in budget the list is laid out, compressed, and the rest
  // of the run starts over on the result.
  std::vector<int64_t>& suffix = Scratch().suffix_cost;
  constexpr int64_t kNoPair = std::numeric_limits<int64_t>::max();
  while (p < k) {
    const size_t s = tuples_.size();
    const Tuple* old = tuples_.data();
    Tuple* base = TupleScratch<Tuple>(s + (k - p));  // <= 1 new tuple a pair
    suffix.assign(s + 1, kNoPair);
    for (size_t q = s; q-- > 1;) {
      suffix[q] = std::min(suffix[q + 1],
                           old[q - 1].g + old[q].g + old[q].delta);
    }
    size_t c = 0, w = 0;
    int64_t settled = kNoPair;  // pairs (i-1, i) with 2 <= i <= w - 2
    auto emit = [&](const Tuple& t) {
      if (w >= 3) {
        settled = std::min(settled,
                           base[w - 2].g + base[w - 1].g + base[w - 1].delta);
      }
      base[w++] = t;
    };
    bool compress = false;
    while (p < k && !compress) {
      const double v = values[p];
      const int64_t weight = weights[p++];
      if (weight <= 0) continue;
      if (w > 0 && !(base[w - 1].v < v)) {
        base[w - 1].g += weight;  // equal to the tuple the last pair hit
      } else {
        while (c < s && old[c].v < v) emit(old[c++]);
        if (c < s && old[c].v == v) {
          Tuple t = old[c++];
          t.g += weight;
          emit(t);
        } else {
          Tuple t;
          t.v = v;
          t.g = weight;
          if (c < s && w > 0) {
            t.delta = old[c].pure ? base[w - 1].delta
                                  : old[c].g + old[c].delta - 1;
          }
          emit(t);
        }
      }
      n_ += weight;
      int64_t cost = settled;
      if (w >= 3) {
        cost = std::min(cost,
                        base[w - 2].g + base[w - 1].g + base[w - 1].delta);
      }
      if (c < s) {
        if (w >= 2) {
          cost = std::min(cost, base[w - 1].g + old[c].g + old[c].delta);
        }
        cost = std::min(cost, suffix[c + 1]);
      }
      compress = cost <= GapBudget(n_);
    }
    std::copy(old + c, old + s, base + w);
    tuples_.assign(base, base + w + (s - c));
    if (compress) Compress();
  }
}

// Folds the sorted insert buffer into the tuple list. Equivalent to
// inserting the buffered values one at a time in ascending order: each
// lands as (v, g=1, delta) where delta is its successor's g + delta - 1
// (the classic GK insertion bound), or 0 when it is the running minimum or
// maximum -- so the extremes stay exact. The old tuples are moved to the
// back of the vector and the folded list is written from the front, so no
// merge list is allocated; with kCompress each folded tuple goes straight
// through the greedy compress (budget from the new count), so Add pays
// for one pass instead of two.
template <bool kCompress>
void QuantileSketch::FoldBuffer() const {
  if (buffer_.empty()) return;
  SortValues(&buffer_);
  const size_t s = tuples_.size();
  const size_t b = buffer_.size();
  const Tuple* old = tuples_.data();
  const double* buf = buffer_.data();
  n_ += static_cast<int64_t>(b);
  using Writer = std::conditional_t<kCompress, CompressingWriter<Tuple>,
                                    PlainWriter<Tuple>>;
  Writer out(TupleScratch<Tuple>(s + b), GapBudget(n_));
  size_t i = 0, j = 0;
  // Delta of the previous tuple of the folded (pre-compress) sequence, for
  // the pure-successor rule.
  int64_t prev_delta = 0;
  while (i < s && j < b) {
    // Existing tuples win ties so an equal-valued insert sees them as its
    // successor (conservative and deterministic). Both candidates are
    // formed and one is selected, so the merge does not branch on data.
    const Tuple& o = old[i];
    const double x = buf[j];
    const int64_t take_old = MaskIf(o.v <= x);
    // An insert's successor is o. When o is pure, its mass is all copies
    // of its own (strictly larger) value, so none of it precedes x: only
    // the predecessor's uncertainty carries over. Essential next to heavy
    // weighted tuples, whose g would otherwise poison every nearby insert.
    // The running minimum (first tuple) is exact.
    const int64_t fresh_delta =
        Select(MaskIf(o.pure), prev_delta, o.g + o.delta - 1) &
        ~MaskIf(i + j == 0);
    Tuple t;
    t.v = Select(take_old, o.v, x);
    t.g = Select(take_old, o.g, int64_t{1});
    t.delta = Select(take_old, o.delta, fresh_delta);
    t.pure = o.pure | (take_old == 0);
    prev_delta = t.delta;
    i += static_cast<size_t>(take_old & 1);
    j += static_cast<size_t>(~take_old & 1);
    out.Push(t);
  }
  for (; i < s; ++i) out.Push(old[i]);
  for (; j < b; ++j) {
    Tuple t;  // running maximum: everything seen so far is <= v
    t.v = buf[j];
    t.g = 1;
    out.Push(t);
  }
  const Tuple* folded = TupleScratch<Tuple>(0);
  tuples_.assign(folded, folded + out.Finish());
  buffer_.clear();
}

// One forward pass that greedily merges a tuple into its right neighbor
// whenever the combined gap stays within the budget. The first and last
// tuples always survive, keeping the stream minimum and maximum exact.
// Compacts in place: the write cursor never passes the read cursor.
void QuantileSketch::Compress() const {
  if (tuples_.size() < 3) return;
  const int64_t budget = GapBudget(n_);
  size_t kept = 1;  // tuples_[0] stays put
  Tuple pending = tuples_[1];
  for (size_t i = 2; i < tuples_.size(); ++i) {
    Tuple next = tuples_[i];
    if (pending.g + next.g + next.delta <= budget) {
      // Absorb: next keeps its value and delta. Its mass now includes
      // pending's observations, so purity only survives when both tuples
      // carried copies of the same value.
      next.pure = next.pure && pending.pure && pending.v == next.v;
      next.g += pending.g;
      pending = next;
    } else {
      tuples_[kept++] = pending;
      pending = next;
    }
  }
  tuples_[kept++] = pending;
  tuples_.resize(kept);
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  assert(eps_ == other.eps_ && "merged sketches must share eps");
  other.Flush();
  Flush();
  if (other.tuples_.empty()) return;
  if (tuples_.empty()) {
    tuples_ = other.tuples_;
    n_ = other.n_;
    return;
  }
  // Merge-walk by value. A tuple keeps its g; its delta grows by the gap of
  // its successor in the *other* summary (the other stream may interleave
  // that many values before it), which preserves the combined gap budget:
  // g + delta' <= 2*eps*n_a + 2*eps*n_b = 2*eps*n. The walk is compressed
  // as it goes, like the Add path's fold.
  const size_t sa = tuples_.size();
  const size_t sb = other.tuples_.size();
  const Tuple* a = tuples_.data();
  const Tuple* b = other.tuples_.data();
  n_ += other.n_;
  CompressingWriter<Tuple> out(TupleScratch<Tuple>(sa + sb), GapBudget(n_));
  size_t i = 0, j = 0;
  // Deltas of the last tuple taken from each side (0 before the first):
  // when the peer successor is pure its mass cannot interleave below t.v,
  // so the uncertainty in how many peer values precede t.v is the peer
  // predecessor's delta. Selected branch-free, like the fold.
  int64_t a_prev_delta = 0, b_prev_delta = 0;
  while (i < sa && j < sb) {
    const Tuple& x = a[i];
    const Tuple& y = b[j];
    const int64_t take_a = MaskIf(x.v <= y.v);
    const int64_t peer_g = Select(take_a, y.g, x.g);
    const int64_t peer_delta = Select(take_a, y.delta, x.delta);
    const bool peer_pure = (y.pure & (take_a != 0)) | (x.pure & (take_a == 0));
    const int64_t peer_prev = Select(take_a, b_prev_delta, a_prev_delta);
    Tuple t;
    t.v = Select(take_a, x.v, y.v);
    t.g = Select(take_a, x.g, y.g);
    t.pure = (x.pure & (take_a != 0)) | (y.pure & (take_a == 0));
    t.delta = Select(take_a, x.delta, y.delta) +
              Select(MaskIf(peer_pure), peer_prev, peer_g + peer_delta - 1);
    a_prev_delta = Select(take_a, x.delta, a_prev_delta);
    b_prev_delta = Select(take_a, b_prev_delta, y.delta);
    i += static_cast<size_t>(take_a & 1);
    j += static_cast<size_t>(~take_a & 1);
    out.Push(t);
  }
  for (; i < sa; ++i) out.Push(a[i]);
  for (; j < sb; ++j) out.Push(b[j]);
  const Tuple* merged = TupleScratch<Tuple>(0);
  tuples_.assign(merged, merged + out.Finish());
}

double QuantileSketch::QueryRank(int64_t rank) const {
  Flush();
  if (tuples_.empty()) return 0.0;
  const int64_t r1 =
      std::clamp<int64_t>(rank, 0, n_ - 1) + 1;  // 1-based target
  // The first and last tuples are the exact stream extremes (delta 0,
  // never compressed away); answer extreme ranks from them directly.
  if (r1 <= 1) return tuples_.front().v;
  if (r1 >= n_) return tuples_.back().v;
  const double allowed = eps_ * static_cast<double>(n_);
  int64_t rmin = 0;
  double prev = tuples_[0].v;
  for (const Tuple& t : tuples_) {
    rmin += t.g;
    const int64_t rmax = rmin + t.delta;
    // A pure tuple's g observations are all copies of t.v occupying g
    // consecutive ranks whose last lands in [rmin, rmax]; ranks in
    // (rmin - g + delta, rmin] are therefore covered no matter where the
    // run actually sits, and answering them with t.v is error-free. This
    // matters for weighted inserts, whose g can exceed the gap budget --
    // the generic bound below does not hold for them.
    if (t.pure && r1 > rmin - t.g + t.delta && r1 <= rmin) return t.v;
    if (static_cast<double>(rmax) > static_cast<double>(r1) + allowed) {
      return prev;
    }
    prev = t.v;
  }
  return tuples_.back().v;
}

std::vector<double> QuantileSketch::QueryRanks(
    const std::vector<int64_t>& ranks) const {
  Flush();
  std::vector<double> out(ranks.size(), 0.0);
  if (tuples_.empty()) return out;
  const double allowed = eps_ * static_cast<double>(n_);
  const size_t size = tuples_.size();
  // QueryRank returns at the first tuple where either of its two tests
  // fires, and both move forward monotonically with the rank:
  //  * the generic bound (rmax > r1 + allowed) holds for fewer tuples as
  //    r1 grows, so its first tuple `b` never moves back;
  //  * the pure test can only fire at the tuple `k` whose rank range
  //    (rmin - g, rmin] holds r1, the first with rmin >= r1.
  // One sweep of both cursors therefore answers every ascending rank.
  size_t b = 0, k = 0;
  int64_t b_rmin = tuples_[0].g, k_rmin = tuples_[0].g;
  for (size_t i = 0; i < ranks.size(); ++i) {
    assert((i == 0 || ranks[i] >= ranks[i - 1]) && "ranks must ascend");
    const int64_t r1 = std::clamp<int64_t>(ranks[i], 0, n_ - 1) + 1;
    if (r1 <= 1) {
      out[i] = tuples_.front().v;
      continue;
    }
    if (r1 >= n_) {
      out[i] = tuples_.back().v;
      continue;
    }
    while (b < size && !(static_cast<double>(b_rmin + tuples_[b].delta) >
                         static_cast<double>(r1) + allowed)) {
      if (++b < size) b_rmin += tuples_[b].g;
    }
    while (k < size && k_rmin < r1) {
      if (++k < size) k_rmin += tuples_[k].g;
    }
    if (k <= b && k < size) {
      const Tuple& t = tuples_[k];
      if (t.pure && r1 > k_rmin - t.g + t.delta) {
        out[i] = t.v;
        continue;
      }
    }
    out[i] = b >= size ? tuples_.back().v : tuples_[b == 0 ? 0 : b - 1].v;
  }
  return out;
}

double QuantileSketch::QueryQuantile(double q) const {
  const int64_t n = count();
  if (n == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  return QueryRank(
      static_cast<int64_t>(std::llround(clamped * static_cast<double>(n - 1))));
}

size_t QuantileSketch::SummarySize() const {
  Flush();
  return tuples_.size();
}

void QuantileSketch::SerializeTo(util::ByteWriter* out) const {
  Flush();
  out->F64(eps_);
  out->U64(static_cast<uint64_t>(n_));
  out->U64(static_cast<uint64_t>(tuples_.size()));
  for (const Tuple& t : tuples_) {
    out->F64(t.v);
    out->U64(static_cast<uint64_t>(t.g));
    out->U64(static_cast<uint64_t>(t.delta));
    out->U8(t.pure ? 1 : 0);
  }
}

Result<QuantileSketch> QuantileSketch::DeserializeFrom(util::ByteReader* in) {
  const double eps = in->F64();
  const int64_t n = static_cast<int64_t>(in->U64());
  const uint64_t num_tuples = in->U64();
  if (!in->ok() || !(eps > 0.0) || eps >= 1.0 || n < 0) {
    return Status::InvalidArgument("quantile sketch: corrupt header");
  }
  if (num_tuples > in->remaining() / 25) {  // 8 + 8 + 8 + 1 bytes per tuple
    return Status::InvalidArgument("quantile sketch: truncated tuple list");
  }
  QuantileSketch sketch(eps);
  sketch.n_ = n;
  sketch.tuples_.resize(static_cast<size_t>(num_tuples));
  int64_t total_g = 0;
  double prev_v = 0.0;
  for (size_t i = 0; i < sketch.tuples_.size(); ++i) {
    Tuple& t = sketch.tuples_[i];
    t.v = in->F64();
    t.g = static_cast<int64_t>(in->U64());
    t.delta = static_cast<int64_t>(in->U64());
    t.pure = in->U8() != 0;
    if (t.g < 0 || t.delta < 0 || (i > 0 && t.v < prev_v)) {
      return Status::InvalidArgument("quantile sketch: invalid tuple");
    }
    prev_v = t.v;
    total_g += t.g;
  }
  if (!in->ok() || total_g != n) {
    return Status::InvalidArgument("quantile sketch: tuple mass mismatch");
  }
  return sketch;
}

// Add (inline in the header) reaches the fold from every translation unit.
template void QuantileSketch::FoldBuffer<true>() const;

}  // namespace reds
