// Shard-aware dataset sources. A SourceSpec is a small serializable
// description of where a shard's data comes from -- a deterministic
// synthetic generator or a CSV file -- that a coordinator can hand to a
// worker in another process. MakeSource(spec, num_shards, shard_index)
// instantiates the worker's partition: blocks of `block_rows` rows are
// numbered from 0 in source order and worker w owns blocks with
// block_index % num_shards == w, so the union over workers is exactly the
// single-process block sequence and no two workers touch the same row.
//
// SyntheticBlockSource is the scaling workhorse: each block is generated
// from its own rng seeded DeriveSeed(seed, block_index), so a worker
// generates only the 1/W share of L it owns -- generation cost shards
// along with sketching and coding, which is what makes the 4-worker
// speedup near-linear instead of bounded by a serial generate phase.
// Columns take `distinct` evenly spaced grid values in [0, 1] (so the
// streamed build stays in the exact-pack regime and sharded discovery is
// bit-identical to single-process) and labels are {0,1} Bernoulli draws
// whose rate depends on a planted box, REDS-style.
#ifndef REDS_SHARD_SOURCE_SPEC_H_
#define REDS_SHARD_SOURCE_SPEC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset_source.h"
#include "util/serialize.h"
#include "util/status.h"

namespace reds::shard {

/// Serializable description of a shardable dataset source.
struct SourceSpec {
  enum class Kind : uint8_t { kSynthetic = 0, kCsv = 1 };

  Kind kind = Kind::kSynthetic;
  int block_rows = 8192;  // must match the streamed build's block size

  // kSynthetic fields.
  int64_t rows = 0;
  int dims = 0;
  int distinct = 48;   // grid values per column (<= 256 keeps exact-pack)
  uint64_t seed = 0;

  // kCsv fields.
  std::string path;

  void SerializeTo(util::ByteWriter* out) const;
  static Result<SourceSpec> DeserializeFrom(util::ByteReader* in);

  /// 64-bit hash of a domain tag and the full serialization: equal specs
  /// agree, a change to any field changes it.
  uint64_t Identity() const;
};

/// Deterministic block generator: block b of `block_rows` rows is produced
/// by Rng(DeriveSeed(seed, b)) regardless of which shard asks, and the
/// source yields only blocks owned by `shard_index` (stride partitioning).
/// num_shards = 1, shard_index = 0 is the full single-process stream.
class SyntheticBlockSource : public DatasetSource {
 public:
  SyntheticBlockSource(const SourceSpec& spec, int num_shards,
                       int shard_index);

  int num_cols() const override { return spec_.dims; }
  int64_t num_rows_hint() const override;
  Status Reset() override;
  Result<RowBlock> NextBlock(int max_rows) override;
  /// The spec's Identity() folded with the stride: the rows are a pure
  /// function of exactly the spec, num_shards and shard_index.
  std::optional<uint64_t> identity() const override;

 private:
  int64_t NumBlocks() const;

  SourceSpec spec_;
  int num_shards_;
  int shard_index_;
  int64_t next_block_;  // next block index owned by this shard
  std::vector<double> x_buf_;
  std::vector<double> y_buf_;
};

/// Stride-partitions any DatasetSource: pulls fixed `block_rows` blocks
/// from the wrapped source and yields only those owned by `shard_index`.
/// Unlike SyntheticBlockSource the skipped blocks are still read (the
/// inner source is sequential), so this is correctness sharding for
/// generic sources, not generation sharding.
class BlockStrideSource : public DatasetSource {
 public:
  BlockStrideSource(std::unique_ptr<DatasetSource> inner, int block_rows,
                    int num_shards, int shard_index);

  int num_cols() const override { return inner_->num_cols(); }
  int64_t num_rows_hint() const override { return -1; }
  Status Reset() override;
  Result<RowBlock> NextBlock(int max_rows) override;

 private:
  std::unique_ptr<DatasetSource> inner_;
  int block_rows_;
  int num_shards_;
  int shard_index_;
  int64_t next_block_ = 0;  // next inner block index to pull
  std::vector<double> x_buf_;
  std::vector<double> y_buf_;
};

/// Instantiates the spec's shard `shard_index` of `num_shards`.
Result<std::unique_ptr<DatasetSource>> MakeSource(const SourceSpec& spec,
                                                  int num_shards,
                                                  int shard_index);

}  // namespace reds::shard

#endif  // REDS_SHARD_SOURCE_SPEC_H_
