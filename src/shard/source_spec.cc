#include "shard/source_spec.h"

#include <algorithm>
#include <cassert>

#include "util/rng.h"

namespace reds::shard {

void SourceSpec::SerializeTo(util::ByteWriter* out) const {
  out->U8(static_cast<uint8_t>(kind));
  out->I32(block_rows);
  out->U64(static_cast<uint64_t>(rows));
  out->I32(dims);
  out->I32(distinct);
  out->U64(seed);
  out->Str(path);
}

Result<SourceSpec> SourceSpec::DeserializeFrom(util::ByteReader* in) {
  SourceSpec spec;
  const uint8_t kind = in->U8();
  if (kind > 1) return Status::InvalidArgument("SourceSpec: bad kind");
  spec.kind = static_cast<Kind>(kind);
  spec.block_rows = in->I32();
  spec.rows = static_cast<int64_t>(in->U64());
  spec.dims = in->I32();
  spec.distinct = in->I32();
  spec.seed = in->U64();
  spec.path = in->Str();
  if (!in->ok()) return Status::InvalidArgument("SourceSpec: truncated");
  if (spec.block_rows <= 0) {
    return Status::InvalidArgument("SourceSpec: block_rows must be positive");
  }
  if (spec.kind == Kind::kSynthetic &&
      (spec.rows <= 0 || spec.dims <= 0 || spec.distinct < 2 ||
       spec.distinct > 256)) {
    return Status::InvalidArgument("SourceSpec: bad synthetic geometry");
  }
  return spec;
}

uint64_t SourceSpec::Identity() const {
  util::ByteWriter bytes;
  bytes.Str("reds.shard.SourceSpec");
  SerializeTo(&bytes);
  return util::Fnv64(bytes.data().data(), bytes.size());
}

SyntheticBlockSource::SyntheticBlockSource(const SourceSpec& spec,
                                           int num_shards, int shard_index)
    : spec_(spec),
      num_shards_(num_shards),
      shard_index_(shard_index),
      next_block_(shard_index) {
  assert(spec.kind == SourceSpec::Kind::kSynthetic);
  assert(num_shards >= 1 && shard_index >= 0 && shard_index < num_shards);
}

int64_t SyntheticBlockSource::NumBlocks() const {
  return (spec_.rows + spec_.block_rows - 1) / spec_.block_rows;
}

int64_t SyntheticBlockSource::num_rows_hint() const {
  int64_t rows = 0;
  for (int64_t b = shard_index_; b < NumBlocks(); b += num_shards_) {
    rows += std::min<int64_t>(spec_.block_rows,
                              spec_.rows - b * spec_.block_rows);
  }
  return rows;
}

std::optional<uint64_t> SyntheticBlockSource::identity() const {
  util::ByteWriter stride;
  stride.I32(num_shards_);
  stride.I32(shard_index_);
  return util::Fnv64(stride.data().data(), stride.size(), spec_.Identity());
}

Status SyntheticBlockSource::Reset() {
  next_block_ = shard_index_;
  return Status::OK();
}

Result<RowBlock> SyntheticBlockSource::NextBlock(int max_rows) {
  if (max_rows != spec_.block_rows) {
    return Status::InvalidArgument(
        "SyntheticBlockSource: caller block size " + std::to_string(max_rows) +
        " != spec block_rows " + std::to_string(spec_.block_rows) +
        " (shard block numbering would drift)");
  }
  if (next_block_ >= NumBlocks()) return RowBlock{};
  const int64_t b = next_block_;
  next_block_ += num_shards_;

  const int rows = static_cast<int>(
      std::min<int64_t>(spec_.block_rows, spec_.rows - b * spec_.block_rows));
  const int m = spec_.dims;
  x_buf_.resize(static_cast<size_t>(rows) * static_cast<size_t>(m));
  y_buf_.resize(static_cast<size_t>(rows));

  // The whole block is a pure function of (seed, block index): every shard
  // that owns block b generates exactly the bytes a single-process run
  // sees for it.
  Rng rng(DeriveSeed(spec_.seed, static_cast<uint64_t>(b)));
  const double step = 1.0 / static_cast<double>(spec_.distinct - 1);
  for (int r = 0; r < rows; ++r) {
    double* row = x_buf_.data() + static_cast<size_t>(r) * m;
    for (int j = 0; j < m; ++j) {
      row[j] = step * static_cast<double>(rng.UniformInt(
                          static_cast<uint64_t>(spec_.distinct)));
    }
    // REDS-style planted box: high positive rate inside, low outside.
    const bool in_box = row[0] < 0.45 && (m < 2 || row[1] > 0.3);
    y_buf_[static_cast<size_t>(r)] =
        rng.Bernoulli(in_box ? 0.8 : 0.15) ? 1.0 : 0.0;
  }

  RowBlock block;
  block.x = la::ConstMatrixView(x_buf_.data(), rows, m);
  block.y = y_buf_.data();
  return block;
}

BlockStrideSource::BlockStrideSource(std::unique_ptr<DatasetSource> inner,
                                     int block_rows, int num_shards,
                                     int shard_index)
    : inner_(std::move(inner)),
      block_rows_(block_rows),
      num_shards_(num_shards),
      shard_index_(shard_index) {
  assert(num_shards >= 1 && shard_index >= 0 && shard_index < num_shards);
}

Status BlockStrideSource::Reset() {
  next_block_ = 0;
  return inner_->Reset();
}

Result<RowBlock> BlockStrideSource::NextBlock(int max_rows) {
  if (max_rows != block_rows_) {
    return Status::InvalidArgument(
        "BlockStrideSource: caller block size " + std::to_string(max_rows) +
        " != configured block_rows " + std::to_string(block_rows_));
  }
  while (true) {
    Result<RowBlock> block = inner_->NextBlock(block_rows_);
    if (!block.ok()) return block;
    if (block->empty()) return RowBlock{};
    const bool mine = next_block_ % num_shards_ == shard_index_;
    ++next_block_;
    if (!mine) continue;
    // The inner block aliases the inner source's buffers, which the next
    // pull overwrites -- but we return before pulling again, and RowBlock
    // contracts validity only until the next NextBlock call.
    return block;
  }
}

Result<std::unique_ptr<DatasetSource>> MakeSource(const SourceSpec& spec,
                                                  int num_shards,
                                                  int shard_index) {
  if (num_shards < 1 || shard_index < 0 || shard_index >= num_shards) {
    return Status::InvalidArgument("MakeSource: bad shard coordinates");
  }
  switch (spec.kind) {
    case SourceSpec::Kind::kSynthetic:
      return std::unique_ptr<DatasetSource>(
          std::make_unique<SyntheticBlockSource>(spec, num_shards,
                                                 shard_index));
    case SourceSpec::Kind::kCsv: {
      Result<std::unique_ptr<CsvFileSource>> csv =
          CsvFileSource::Open(spec.path);
      if (!csv.ok()) return csv.status();
      if (num_shards == 1) {
        return std::unique_ptr<DatasetSource>(std::move(*csv));
      }
      return std::unique_ptr<DatasetSource>(std::make_unique<BlockStrideSource>(
          std::move(*csv), spec.block_rows, num_shards, shard_index));
    }
  }
  return Status::InvalidArgument("MakeSource: unknown source kind");
}

}  // namespace reds::shard
