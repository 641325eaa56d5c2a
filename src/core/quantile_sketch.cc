#include "core/quantile_sketch.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace reds {

QuantileSketch::QuantileSketch(double eps) : eps_(eps) {
  assert(eps > 0.0 && eps < 0.5);
  buffer_cap_ = std::max<size_t>(16, static_cast<size_t>(1.0 / (2.0 * eps)));
  buffer_.reserve(buffer_cap_);
}

int64_t QuantileSketch::GapBudget(int64_t n) const {
  return std::max<int64_t>(1, static_cast<int64_t>(2.0 * eps_ *
                                                   static_cast<double>(n)));
}

void QuantileSketch::Add(double v) {
  buffer_.push_back(v);
  if (buffer_.size() >= buffer_cap_) {
    Flush();
    Compress();
  }
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

// Folds the sorted insert buffer into the tuple list. Equivalent to
// inserting the buffered values one at a time in ascending order: each
// lands as (v, g=1, delta) where delta is its successor's g + delta - 1
// (the classic GK insertion bound), or 0 when it is the running minimum or
// maximum -- so the extremes stay exact.
void QuantileSketch::Flush() const {
  if (buffer_.empty()) return;
  std::sort(buffer_.begin(), buffer_.end());
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + buffer_.size());
  size_t i = 0, j = 0;
  while (i < tuples_.size() || j < buffer_.size()) {
    // Existing tuples win ties so an equal-valued insert sees them as its
    // successor (conservative and deterministic).
    if (i < tuples_.size() &&
        (j >= buffer_.size() || tuples_[i].v <= buffer_[j])) {
      merged.push_back(tuples_[i]);
      ++i;
    } else {
      Tuple t;
      t.v = buffer_[j];
      t.g = 1;
      if (i >= tuples_.size()) {
        t.delta = 0;  // running maximum (everything seen so far is <= v)
      } else if (tuples_[i].pure) {
        // The successor's mass is all copies of its own (strictly larger)
        // value, so none of it precedes v: only the predecessor's
        // uncertainty carries over. Essential next to heavy weighted
        // tuples, whose g would otherwise poison every nearby insert.
        t.delta = merged.empty() ? 0 : merged.back().delta;
      } else {
        t.delta = tuples_[i].g + tuples_[i].delta - 1;
      }
      if (merged.empty()) t.delta = 0;  // running minimum
      merged.push_back(t);
      ++j;
    }
  }
  n_ += static_cast<int64_t>(buffer_.size());
  buffer_.clear();
  tuples_ = std::move(merged);
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
  // g + delta' <= 2*eps*n_a + 2*eps*n_b = 2*eps*n.
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + other.tuples_.size());
  const std::vector<Tuple>& a = tuples_;
  const std::vector<Tuple>& b = other.tuples_;
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_a =
        i < a.size() && (j >= b.size() || a[i].v <= b[j].v);
    const std::vector<Tuple>& self = take_a ? a : b;
    const std::vector<Tuple>& peer = take_a ? b : a;
    size_t& k = take_a ? i : j;
    const size_t peer_k = take_a ? j : i;
    Tuple t = self[k];
    if (peer_k < peer.size()) {
      if (peer[peer_k].pure) {
        // The peer successor's mass is all copies of its own (>= t.v)
        // value, so it cannot interleave below t.v; the uncertainty in how
        // many peer values precede t.v is the peer predecessor's delta.
        t.delta += peer_k > 0 ? peer[peer_k - 1].delta : 0;
      } else {
        t.delta += peer[peer_k].g + peer[peer_k].delta - 1;
      }
    }
    merged.push_back(t);
    ++k;
  }
  tuples_ = std::move(merged);
  n_ += other.n_;
  Compress();
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

}  // namespace reds
