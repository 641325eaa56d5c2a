#include "core/quantile_sketch_reference.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace reds {

QuantileSketchReference::QuantileSketchReference(double eps) : eps_(eps) {
  assert(eps > 0.0 && eps < 0.5);
  buffer_cap_ = std::max<size_t>(16, static_cast<size_t>(1.0 / (2.0 * eps)));
  buffer_.reserve(buffer_cap_);
}

int64_t QuantileSketchReference::GapBudget(int64_t n) const {
  return std::max<int64_t>(1, static_cast<int64_t>(2.0 * eps_ *
                                                   static_cast<double>(n)));
}

void QuantileSketchReference::Add(double v) {
  buffer_.push_back(v);
  if (buffer_.size() >= buffer_cap_) {
    Flush();
    Compress();
  }
}

void QuantileSketchReference::AddWeighted(double v, int64_t w) {
  if (w <= 0) return;
  Flush();
  const auto it = std::lower_bound(
      tuples_.begin(), tuples_.end(), v,
      [](const Tuple& t, double x) { return t.v < x; });
  if (it != tuples_.end() && it->v == v) {
    it->g += w;
  } else {
    Tuple t;
    t.v = v;
    t.g = w;
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

void QuantileSketchReference::Flush() const {
  if (buffer_.empty()) return;
  std::sort(buffer_.begin(), buffer_.end());
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + buffer_.size());
  size_t i = 0, j = 0;
  while (i < tuples_.size() || j < buffer_.size()) {
    if (i < tuples_.size() &&
        (j >= buffer_.size() || tuples_[i].v <= buffer_[j])) {
      merged.push_back(tuples_[i]);
      ++i;
    } else {
      Tuple t;
      t.v = buffer_[j];
      t.g = 1;
      if (i >= tuples_.size()) {
        t.delta = 0;
      } else if (tuples_[i].pure) {
        t.delta = merged.empty() ? 0 : merged.back().delta;
      } else {
        t.delta = tuples_[i].g + tuples_[i].delta - 1;
      }
      if (merged.empty()) t.delta = 0;
      merged.push_back(t);
      ++j;
    }
  }
  n_ += static_cast<int64_t>(buffer_.size());
  buffer_.clear();
  tuples_ = std::move(merged);
}

void QuantileSketchReference::Compress() const {
  if (tuples_.size() < 3) return;
  const int64_t budget = GapBudget(n_);
  size_t kept = 1;
  Tuple pending = tuples_[1];
  for (size_t i = 2; i < tuples_.size(); ++i) {
    Tuple next = tuples_[i];
    if (pending.g + next.g + next.delta <= budget) {
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

void QuantileSketchReference::Merge(const QuantileSketchReference& other) {
  assert(eps_ == other.eps_ && "merged sketches must share eps");
  other.Flush();
  Flush();
  if (other.tuples_.empty()) return;
  if (tuples_.empty()) {
    tuples_ = other.tuples_;
    n_ = other.n_;
    return;
  }
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

void QuantileSketchReference::SerializeTo(util::ByteWriter* out) const {
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

Result<QuantileSketchReference> QuantileSketchReference::DeserializeFrom(
    util::ByteReader* in) {
  const double eps = in->F64();
  const int64_t n = static_cast<int64_t>(in->U64());
  const uint64_t num_tuples = in->U64();
  if (!in->ok() || !(eps > 0.0) || eps >= 1.0 || n < 0) {
    return Status::InvalidArgument("quantile sketch: corrupt header");
  }
  if (num_tuples > in->remaining() / 25) {
    return Status::InvalidArgument("quantile sketch: truncated tuple list");
  }
  QuantileSketchReference sketch(eps);
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

void ColumnSketchReference::SpillToSketch() {
  for (size_t i = 0; i < distinct.size(); ++i) {
    sketch.AddWeighted(distinct[i], count[i]);
  }
  distinct.clear();
  distinct.shrink_to_fit();
  count.clear();
  count.shrink_to_fit();
  overflow = true;
}

void ColumnSketchReference::AddValue(double v, int cap) {
  if (overflow) {
    sketch.Add(v);
    return;
  }
  const auto it = std::lower_bound(distinct.begin(), distinct.end(), v);
  if (it != distinct.end() && *it == v) {
    ++count[static_cast<size_t>(it - distinct.begin())];
    return;
  }
  if (static_cast<int>(distinct.size()) >= cap) {
    SpillToSketch();
    sketch.Add(v);
    return;
  }
  count.insert(count.begin() + (it - distinct.begin()), 1);
  distinct.insert(it, v);
}

void ColumnSketchReference::MergeFrom(const ColumnSketchReference& other,
                                      int cap) {
  if (!overflow && !other.overflow) {
    std::vector<double> mv;
    std::vector<int64_t> mc;
    mv.reserve(distinct.size() + other.distinct.size());
    mc.reserve(mv.capacity());
    size_t i = 0, j = 0;
    while (i < distinct.size() || j < other.distinct.size()) {
      if (j >= other.distinct.size() ||
          (i < distinct.size() && distinct[i] < other.distinct[j])) {
        mv.push_back(distinct[i]);
        mc.push_back(count[i]);
        ++i;
      } else if (i >= distinct.size() ||
                 other.distinct[j] < distinct[i]) {
        mv.push_back(other.distinct[j]);
        mc.push_back(other.count[j]);
        ++j;
      } else {
        mv.push_back(distinct[i]);
        mc.push_back(count[i] + other.count[j]);
        ++i;
        ++j;
      }
    }
    distinct = std::move(mv);
    count = std::move(mc);
    if (static_cast<int>(distinct.size()) > cap) SpillToSketch();
    return;
  }
  if (!overflow) SpillToSketch();
  if (other.overflow) {
    sketch.Merge(other.sketch);
  } else {
    for (size_t k = 0; k < other.distinct.size(); ++k) {
      sketch.AddWeighted(other.distinct[k], other.count[k]);
    }
  }
}

void ColumnSketchReference::SerializeTo(util::ByteWriter* out) const {
  out->U8(overflow ? 1 : 0);
  if (overflow) {
    sketch.SerializeTo(out);
    return;
  }
  out->F64(sketch.eps());
  out->U64(static_cast<uint64_t>(distinct.size()));
  for (double v : distinct) out->F64(v);
  for (int64_t c : count) out->U64(static_cast<uint64_t>(c));
}

namespace {

// The per-column summaries of BuildStreamed's pass 1, computed through the
// reference and read back as ColumnSketch from the reference's bytes.
Result<std::vector<ColumnSketch>> SketchPassReference(
    DatasetSource* source, const StreamedBuildOptions& options) {
  const int m = source->num_cols();
  const int cap = options.max_bins;
  std::vector<ColumnSketchReference> acc(
      static_cast<size_t>(m), ColumnSketchReference(options.sketch_eps));
  Status reset = source->Reset();
  if (!reset.ok()) return reset;
  for (;;) {
    Result<RowBlock> block = source->NextBlock(options.block_rows);
    if (!block.ok()) return block.status();
    if (block->empty()) break;
    const double* x = block->x.data();
    const int rows = block->num_rows();
    for (int j = 0; j < m; ++j) {
      ColumnSketchReference local(options.sketch_eps);
      for (int r = 0; r < rows; ++r) {
        local.AddValue(x[static_cast<size_t>(r) * m + j], cap);
      }
      acc[static_cast<size_t>(j)].MergeFrom(local, cap);
    }
  }
  std::vector<ColumnSketch> out;
  out.reserve(acc.size());
  for (const ColumnSketchReference& col : acc) {
    util::ByteWriter bytes;
    col.SerializeTo(&bytes);
    util::ByteReader in(bytes.data());
    Result<ColumnSketch> read = ColumnSketch::DeserializeFrom(&in);
    if (!read.ok()) return read.status();
    out.push_back(*std::move(read));
  }
  return out;
}

}  // namespace

Result<StreamedBinsReference> BuildStreamedReference(
    DatasetSource* source, const StreamedBuildOptions& options) {
  Result<std::vector<ColumnSketch>> summaries =
      SketchPassReference(source, options);
  if (!summaries.ok()) return summaries.status();
  const int m = source->num_cols();
  const int cap = options.max_bins;
  const ColumnSketch& first = summaries->front();
  const int64_t n64 =
      first.overflow ? first.sketch.count()
                     : std::accumulate(first.count.begin(), first.count.end(),
                                       int64_t{0});
  const int n = static_cast<int>(n64);

  // Bounds: the distinct values below the cap, else one QueryRank per
  // equal-share rank plus the +inf catch-all (StreamedBinUpperBounds).
  StreamedBinsReference out;
  std::vector<std::vector<double>> upper(static_cast<size_t>(m));
  std::vector<BinCodingStats> stats(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    const ColumnSketch& cs = (*summaries)[static_cast<size_t>(j)];
    std::vector<double>& ub = upper[static_cast<size_t>(j)];
    if (!cs.overflow) {
      ub = cs.distinct;
    } else {
      out.kind = BinnedIndex::BuildKind::kSketch;
      for (int b = 1; b < cap; ++b) {
        const double v =
            cs.sketch.QueryRank(static_cast<int64_t>(b) * n64 / cap);
        if (ub.empty() || v > ub.back()) ub.push_back(v);
      }
      ub.push_back(std::numeric_limits<double>::infinity());
    }
    stats[static_cast<size_t>(j)].Reset(ub.size());
  }
  Status reset = source->Reset();
  if (!reset.ok()) return reset;
  out.codes.assign(static_cast<size_t>(m), {});
  for (;;) {
    Result<RowBlock> block = source->NextBlock(options.block_rows);
    if (!block.ok()) return block.status();
    if (block->empty()) break;
    const double* x = block->x.data();
    for (int r = 0; r < block->num_rows(); ++r) {
      for (int j = 0; j < m; ++j) {
        const double v = x[static_cast<size_t>(r) * m + j];
        const uint8_t b = StreamedCodeOf(upper[static_cast<size_t>(j)], v);
        out.codes[static_cast<size_t>(j)].push_back(b);
        stats[static_cast<size_t>(j)].Observe(b, v);
      }
    }
  }
  for (int j = 0; j < m; ++j) {
    ColumnBinLayout layout = AssembleColumnBins(stats[static_cast<size_t>(j)]);
    std::vector<int> begins = {0};
    for (int count : stats[static_cast<size_t>(j)].count) {
      if (count > 0) begins.push_back(begins.back() + count);
    }
    std::vector<uint8_t>& codes = out.codes[static_cast<size_t>(j)];
    for (uint8_t& c : codes) c = layout.remap[c];
    std::vector<int> sorted(static_cast<size_t>(n));
    std::iota(sorted.begin(), sorted.end(), 0);
    std::stable_sort(sorted.begin(), sorted.end(), [&](int a, int b) {
      return codes[static_cast<size_t>(a)] < codes[static_cast<size_t>(b)];
    });
    out.layouts.push_back(std::move(layout));
    out.begins.push_back(std::move(begins));
    out.sorted.push_back(std::move(sorted));
  }
  return out;
}

}  // namespace reds
