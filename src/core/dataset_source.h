// DatasetSource: pull-based chunked ingestion, the entry point of the
// streaming data plane. Instead of materializing a full N x M matrix and
// then indexing it, consumers (the streaming BinnedIndex build, the
// incremental fingerprint hashers, the CSV demo) pull fixed-size row blocks
// from a source -- an in-memory Dataset, a CSV file parsed line by line, or
// a generator labeling points on the fly -- so only O(block) raw doubles
// are ever in flight and the N x M double matrix is never materialized
// (the quantized consumers retain N x M uint8 codes and N label doubles
// instead). Sources must be deterministic across Reset():
// the streaming build is two-pass (sketch pass, then coding pass) and both
// passes must see the identical row sequence.
#ifndef REDS_CORE_DATASET_SOURCE_H_
#define REDS_CORE_DATASET_SOURCE_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "la/matrix.h"
#include "util/status.h"

namespace reds {

/// One batch of rows pulled from a DatasetSource: a matrix-free view of the
/// inputs plus the parallel target slice. Valid until the next
/// NextBlock/Reset call on the source that produced it.
struct RowBlock {
  la::ConstMatrixView x;       // num_rows() x num_cols inputs
  const double* y = nullptr;   // num_rows() targets

  int num_rows() const { return x.rows(); }
  bool empty() const { return x.rows() == 0; }
};

/// Abstract chunked access to a labeled dataset.
class DatasetSource {
 public:
  virtual ~DatasetSource() = default;

  virtual int num_cols() const = 0;

  /// Total rows when known upfront (in-memory and generator sources); -1
  /// when only the end of the stream reveals it (files).
  virtual int64_t num_rows_hint() const { return -1; }

  /// Rewinds to the first row. Every pass must yield the identical
  /// sequence of rows.
  virtual Status Reset() = 0;

  /// Produces the next block of at most `max_rows` rows (the source owns
  /// the backing buffers). An empty block signals the end of the stream.
  virtual Result<RowBlock> NextBlock(int max_rows) = 0;

  /// A 64-bit name for the exact row sequence this source yields, known
  /// without reading it; none (the default) when only the rows themselves
  /// can tell. A source may claim one only when its rows are a pure
  /// function of the fields it hashes -- a generator's full description,
  /// never a file path, whose bytes can change under it. Equal identities
  /// must mean bitwise-equal streams: the engine serves a warm streamed
  /// request from its ingest tier on the identity alone, without a pass.
  virtual std::optional<uint64_t> identity() const { return std::nullopt; }
};

/// Drains a source into a materialized Dataset (the exact in-memory path;
/// also the equivalence oracle the streamed path is tested against).
Result<Dataset> ReadAll(DatasetSource* source, int block_rows = 4096);

/// Chunked view of an in-memory Dataset. Blocks alias the dataset's own
/// row-major storage, so no copies are made.
class MatrixSource : public DatasetSource {
 public:
  explicit MatrixSource(std::shared_ptr<const Dataset> data);

  int num_cols() const override { return data_->num_cols(); }
  int64_t num_rows_hint() const override { return data_->num_rows(); }
  Status Reset() override;
  Result<RowBlock> NextBlock(int max_rows) override;

 private:
  std::shared_ptr<const Dataset> data_;
  int cursor_ = 0;
};

/// Streams a numeric CSV file (util's ReadCsvFile grammar via the shared
/// line helpers: header line, comma-separated numeric cells, no quoting;
/// the *last* column is the target -- but stricter on values: non-finite
/// cells are rejected, since NaN would poison the downstream binning) one
/// block at a time. Only one block of doubles is resident; Reset() reopens
/// the file.
class CsvFileSource : public DatasetSource {
 public:
  /// Opens the file and parses the header. Fails on missing files, empty
  /// files, or a header with fewer than two columns.
  static Result<std::unique_ptr<CsvFileSource>> Open(const std::string& path);

  int num_cols() const override { return num_cols_; }
  Status Reset() override;
  Result<RowBlock> NextBlock(int max_rows) override;

  /// Input column names (the header minus the target column).
  const std::vector<std::string>& column_names() const { return names_; }
  const std::string& target_name() const { return target_name_; }
  const std::string& path() const { return path_; }

 private:
  CsvFileSource() = default;

  std::string path_;
  int num_cols_ = 0;  // input columns (header size - 1)
  std::vector<std::string> names_;
  std::string target_name_;
  std::ifstream file_;
  int line_no_ = 0;
  std::vector<double> x_buf_;
  std::vector<double> y_buf_;
};

/// Re-labels a wrapped source on the fly: each block's targets are replaced
/// by label_fn(x_row). This is REDS's relabeling step as a stream
/// transform -- wrap a generator source and pass the trained metamodel's
/// PredictLabel/PredictProb, and the L >> N relabeled points flow into the
/// streaming build without ever being materialized.
class LabelingSource : public DatasetSource {
 public:
  using LabelFn = std::function<double(const double* x)>;

  LabelingSource(DatasetSource* inner, LabelFn label_fn)
      : inner_(inner), label_fn_(std::move(label_fn)) {}

  int num_cols() const override { return inner_->num_cols(); }
  int64_t num_rows_hint() const override { return inner_->num_rows_hint(); }
  Status Reset() override { return inner_->Reset(); }
  Result<RowBlock> NextBlock(int max_rows) override;

 private:
  DatasetSource* inner_;  // not owned
  LabelFn label_fn_;
  std::vector<double> y_buf_;
};

}  // namespace reds

#endif  // REDS_CORE_DATASET_SOURCE_H_
