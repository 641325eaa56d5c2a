// Sharded discovery: wire framing, the worker's refusal of malformed,
// out-of-order and retired requests, the deterministic shard source, and
// the coordinator/worker fleet's bit-identity contract against the
// single-process streamed kernels -- global bins, PRIM box sequences and
// fleet metrics folding. Workers run as in-process threads over
// socketpairs (the engine transport); the multi-process UNIX-socket path
// is exercised by the CI smoke on examples/shard_worker.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/binned_index.h"
#include "core/dataset_source.h"
#include "core/prim.h"
#include "obs/metrics.h"
#include "shard/coordinator.h"
#include "shard/source_spec.h"
#include "shard/wire.h"
#include "shard/worker.h"
#include "util/rng.h"

namespace reds::shard {
namespace {

SourceSpec TestSpec() {
  SourceSpec spec;
  spec.kind = SourceSpec::Kind::kSynthetic;
  spec.block_rows = 512;
  spec.rows = 20000;
  spec.dims = 3;
  spec.distinct = 16;  // well under the bin cap: exact-pack regime
  spec.seed = 11;
  return spec;
}

// An in-process worker fleet over socketpairs: one thread per worker, each
// serving its stride of the spec's stream. The coordinator side runs in
// the test body against coordinator_fds().
class Fleet {
 public:
  Fleet(const SourceSpec& spec, int workers) : statuses_(workers) {
    for (int w = 0; w < workers; ++w) {
      int sv[2];
      EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
      coordinator_fds_.push_back(sv[0]);
      worker_fds_.push_back(sv[1]);
    }
    for (int w = 0; w < workers; ++w) {
      threads_.emplace_back([this, spec, workers, w] {
        Result<std::unique_ptr<DatasetSource>> source =
            MakeSource(spec, workers, w);
        statuses_[static_cast<size_t>(w)] =
            source.ok()
                ? RunShardWorker(worker_fds_[static_cast<size_t>(w)],
                                 source->get())
                : source.status();
      });
    }
  }

  ~Fleet() {
    for (std::thread& t : threads_) t.join();
    for (int fd : coordinator_fds_) ::close(fd);
    for (int fd : worker_fds_) ::close(fd);
    for (const Status& s : statuses_) EXPECT_TRUE(s.ok()) << s.ToString();
  }

  const std::vector<int>& coordinator_fds() const { return coordinator_fds_; }

 private:
  std::vector<int> coordinator_fds_;
  std::vector<int> worker_fds_;
  std::vector<std::thread> threads_;
  std::vector<Status> statuses_;
};

StreamedBuildOptions BuildOptions(const SourceSpec& spec) {
  StreamedBuildOptions options;
  options.block_rows = spec.block_rows;
  return options;
}

// The single-process reference: BuildStreamed over the whole stream.
StreamedDataset SingleProcessBuild(const SourceSpec& spec,
                                   const StreamedBuildOptions& options) {
  Result<std::unique_ptr<DatasetSource>> source = MakeSource(spec, 1, 0);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  Result<StreamedDataset> data =
      BinnedIndex::BuildStreamed(source->get(), options);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return *std::move(data);
}

// The fleet's global bins equal the single-process index's, bin by bin.
void ExpectBinsMatch(const GlobalBins& bins, const BinnedIndex& reference) {
  EXPECT_EQ(bins.num_rows, reference.num_rows());
  EXPECT_EQ(bins.num_cols, reference.num_cols());
  EXPECT_EQ(bins.kind, reference.kind());
  ASSERT_EQ(bins.columns.size(), static_cast<size_t>(bins.num_cols));
  for (int j = 0; j < bins.num_cols; ++j) {
    const ColumnBinLayout& column = bins.columns[static_cast<size_t>(j)];
    ASSERT_EQ(column.live, reference.num_bins(j)) << "col " << j;
    for (int b = 0; b < column.live; ++b) {
      EXPECT_EQ(column.first[static_cast<size_t>(b)],
                reference.bin_first(j, b));
      EXPECT_EQ(column.last[static_cast<size_t>(b)],
                reference.bin_last(j, b));
    }
  }
}

// Box sequences and both curves agree exactly.
void ExpectPrimMatch(const PrimResult& got, const PrimResult& expected) {
  ASSERT_EQ(got.boxes.size(), expected.boxes.size());
  for (size_t i = 0; i < expected.boxes.size(); ++i) {
    for (int j = 0; j < expected.boxes[i].dim(); ++j) {
      EXPECT_EQ(got.boxes[i].lo(j), expected.boxes[i].lo(j));
      EXPECT_EQ(got.boxes[i].hi(j), expected.boxes[i].hi(j));
    }
  }
  ASSERT_EQ(got.train_curve.size(), expected.train_curve.size());
  for (size_t i = 0; i < expected.train_curve.size(); ++i) {
    EXPECT_EQ(got.train_curve[i].recall, expected.train_curve[i].recall);
    EXPECT_EQ(got.train_curve[i].precision,
              expected.train_curve[i].precision);
    EXPECT_EQ(got.val_curve[i].recall, expected.val_curve[i].recall);
    EXPECT_EQ(got.val_curve[i].precision, expected.val_curve[i].precision);
  }
  EXPECT_EQ(got.best_val_index, expected.best_val_index);
}

TEST(ShardWireTest, FrameRoundTrip) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string payload = "hello shard";
  ASSERT_TRUE(WriteFrame(sv[0], MsgType::kBins, payload).ok());
  Result<Frame> frame = ReadFrame(sv[1]);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, MsgType::kBins);
  EXPECT_EQ(frame->payload, payload);

  // Empty payloads round-trip too.
  ASSERT_TRUE(WriteFrame(sv[1], MsgType::kLayoutAck, std::string()).ok());
  frame = ExpectFrame(sv[0], MsgType::kLayoutAck);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->payload.empty());

  // Type mismatch is an IoError, not a crash.
  ASSERT_TRUE(WriteFrame(sv[0], MsgType::kPeel, "x").ok());
  EXPECT_FALSE(ExpectFrame(sv[1], MsgType::kShutdown).ok());

  // A declared length above the cap is refused before any allocation.
  ASSERT_TRUE(WriteFrame(sv[0], MsgType::kPeel, "abc").ok());
  EXPECT_FALSE(ReadFrame(sv[1], /*max_payload=*/2).ok());

  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ShardWireTest, EofIsIoError) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[0]);
  EXPECT_FALSE(ReadFrame(sv[1]).ok());
  ::close(sv[1]);
}

// One worker thread over a socketpair, driven frame by frame from the test
// body through fd(). Finish() half-closes the test's end, so a worker still
// waiting for a request reads EOF and leaves, and returns its exit status.
class ScriptedWorker {
 public:
  ScriptedWorker() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv_), 0);
    thread_ = std::thread([this] {
      SyntheticBlockSource source(TestSpec(), 1, 0);
      served_ = RunShardWorker(sv_[1], &source);
    });
  }

  ~ScriptedWorker() {
    if (thread_.joinable()) (void)Finish();
    ::close(sv_[0]);
    ::close(sv_[1]);
  }

  ScriptedWorker(const ScriptedWorker&) = delete;
  ScriptedWorker& operator=(const ScriptedWorker&) = delete;

  int fd() const { return sv_[0]; }

  Status Finish() {
    ::shutdown(sv_[0], SHUT_WR);
    thread_.join();
    return served_;
  }

  // Sends one request and returns the status of the awaited reply: OK, or
  // the status a kWorkerError frame carries.
  Status Request(MsgType type, const std::string& payload, MsgType reply) {
    Status s = WriteFrame(fd(), type, payload);
    if (s.ok()) s = ExpectFrame(fd(), reply).status();
    return s;
  }

  Status Sketch() {
    const SourceSpec spec = TestSpec();
    util::ByteWriter sketch;
    sketch.I32(spec.block_rows);
    sketch.I32(BinnedIndex::kMaxBins);
    sketch.F64(1.0 / 2048.0);
    return Request(MsgType::kSketchRequest, sketch.data(),
                   MsgType::kSketchReply);
  }

  // kBins with the same `bounds` for every column.
  Status Bins(const std::vector<double>& bounds) {
    util::ByteWriter bins;
    bins.I32(TestSpec().dims);
    for (int j = 0; j < TestSpec().dims; ++j) bins.VecF64(bounds);
    return Request(MsgType::kBins, bins.data(), MsgType::kCodingReply);
  }

  // kLayout with the same (live, remap) for every column, and bin_first /
  // bin_last vectors of `first_edges` / `last_edges` entries (-1: live, the
  // well-formed length).
  Status Layout(int live, const std::vector<uint8_t>& remap,
                int first_edges = -1, int last_edges = -1) {
    const auto edge_vector = [live](int size) {
      std::vector<double> v(static_cast<size_t>(size < 0 ? live : size));
      for (size_t b = 0; b < v.size(); ++b) v[b] = static_cast<double>(b);
      return v;
    };
    util::ByteWriter layout;
    for (int j = 0; j < TestSpec().dims; ++j) {
      layout.I32(live);
      layout.VecU8(remap);
      layout.VecF64(edge_vector(first_edges));
      layout.VecF64(edge_vector(last_edges));
    }
    return Request(MsgType::kLayout, layout.data(), MsgType::kLayoutAck);
  }

  Status Peel() {
    util::ByteWriter peel;
    peel.I32(0);
    peel.U8(1);
    peel.I32(1);
    return Request(MsgType::kPeel, peel.data(), MsgType::kPeelReply);
  }

 private:
  int sv_[2] = {-1, -1};
  Status served_ = Status::OK();
  std::thread thread_;
};

// Four raw bins per column (codes 0..3), each holding some of the scripted
// worker's rows (grid values in [0, 1]); kFiveBounds adds a fifth raw bin
// that no row codes into.
const std::vector<double> kFourBounds = {0.25, 0.5, 0.75, 1.0};
const std::vector<double> kFiveBounds = {0.25, 0.5, 0.75, 1.0, 2.0};

TEST(ShardWireTest, WorkerRejectsMoreBinBoundsThanCodesHold) {
  // Codes are uint8: a kBins payload with more than 256 bounds per column
  // is refused before any row is coded.
  ScriptedWorker worker;
  ASSERT_TRUE(worker.Sketch().ok());
  std::vector<double> bounds(BinnedIndex::kMaxBins + 1);
  for (size_t b = 0; b < bounds.size(); ++b) bounds[b] = static_cast<double>(b);
  EXPECT_EQ(worker.Bins(bounds).code(), Status::Code::kInvalidArgument);
  const Status served = worker.Finish();
  EXPECT_EQ(served.code(), Status::Code::kInvalidArgument)
      << served.ToString();
}

TEST(ShardWireTest, WorkerRejectsMalformedLayoutAndOutOfOrderRequests) {
  struct LayoutCase {
    const char* what;
    std::vector<double> bounds;
    int live;
    std::vector<uint8_t> remap;
    int first_edges = -1;  // bin_first entries; -1: live
    int last_edges = -1;   // bin_last entries; -1: live
  };
  // Well-formed sequences are served, and peels run after init. A globally
  // empty raw bin after the last live one maps to `live` itself, as
  // AssembleColumnBins lays it out.
  const std::vector<LayoutCase> good = {
      {"every raw bin live", kFourBounds, 4, {0, 1, 2, 3}},
      {"empty trailing raw bin", kFiveBounds, 4, {0, 1, 2, 3, 4}},
  };
  for (const LayoutCase& ok : good) {
    SCOPED_TRACE(ok.what);
    ScriptedWorker worker;
    ASSERT_TRUE(worker.Sketch().ok());
    ASSERT_TRUE(worker.Bins(ok.bounds).ok());
    ASSERT_TRUE(
        worker.Layout(ok.live, ok.remap, ok.first_edges, ok.last_edges).ok());
    ASSERT_TRUE(worker
                    .Request(MsgType::kPeelInit, std::string(),
                             MsgType::kPeelInitReply)
                    .ok());
    ASSERT_TRUE(worker.Peel().ok());
    EXPECT_EQ(worker.Finish().code(), Status::Code::kIoError);  // EOF
  }

  // Layouts that would index past the remap table, the live bins or the
  // bin edges.
  const std::vector<LayoutCase> bad_layouts = {
      {"remap shorter than the raw bins", kFourBounds, 2, {0, 1}},
      {"remap longer than the raw bins", kFourBounds, 4, {0, 1, 2, 3, 3}},
      {"remap value past the live bins", kFourBounds, 3, {0, 1, 2, 5}},
      {"empty raw bin remapped past live", kFiveBounds, 4, {0, 1, 2, 3, 5}},
      {"coded raw bin remapped to live", kFourBounds, 3, {0, 1, 3, 2}},
      {"more live bins than raw bins", kFourBounds, 6, {0, 1, 2, 3}},
      {"bin_first shorter than live", kFourBounds, 4, {0, 1, 2, 3}, 3, 4},
      {"bin_first longer than live", kFourBounds, 4, {0, 1, 2, 3}, 5, 4},
      {"bin_last shorter than live", kFourBounds, 4, {0, 1, 2, 3}, 4, 3},
      {"bin_last longer than live", kFourBounds, 4, {0, 1, 2, 3}, 4, 5},
  };
  for (const LayoutCase& bad : bad_layouts) {
    SCOPED_TRACE(bad.what);
    ScriptedWorker worker;
    ASSERT_TRUE(worker.Sketch().ok());
    ASSERT_TRUE(worker.Bins(bad.bounds).ok());
    const Status reply =
        worker.Layout(bad.live, bad.remap, bad.first_edges, bad.last_edges);
    EXPECT_EQ(reply.code(), Status::Code::kInvalidArgument)
        << reply.ToString();
    const Status served = worker.Finish();
    EXPECT_EQ(served.code(), Status::Code::kInvalidArgument)
        << served.ToString();
  }

  // Requests that need state an earlier round has not built.
  struct OutOfOrder {
    const char* what;
    std::function<Status(ScriptedWorker*)> run;
  };
  const std::vector<OutOfOrder> orders = {
      {"kBins before kSketchRequest",
       [](ScriptedWorker* w) { return w->Bins(kFourBounds); }},
      {"kLayout before kBins",
       [](ScriptedWorker* w) {
         EXPECT_TRUE(w->Sketch().ok());
         return w->Layout(4, {0, 1, 2, 3});
       }},
      {"kLayout twice",
       [](ScriptedWorker* w) {
         EXPECT_TRUE(w->Sketch().ok());
         EXPECT_TRUE(w->Bins(kFourBounds).ok());
         EXPECT_TRUE(w->Layout(4, {0, 1, 2, 3}).ok());
         return w->Layout(4, {0, 1, 2, 3});
       }},
      {"kPeelInit before kLayout",
       [](ScriptedWorker* w) {
         EXPECT_TRUE(w->Sketch().ok());
         EXPECT_TRUE(w->Bins(kFourBounds).ok());
         return w->Request(MsgType::kPeelInit, std::string(),
                           MsgType::kPeelInitReply);
       }},
      {"kPeel before kPeelInit",
       [](ScriptedWorker* w) {
         EXPECT_TRUE(w->Sketch().ok());
         EXPECT_TRUE(w->Bins(kFourBounds).ok());
         EXPECT_TRUE(w->Layout(4, {0, 1, 2, 3}).ok());
         return w->Peel();
       }},
      {"kPeel after a new kBins",
       [](ScriptedWorker* w) {
         EXPECT_TRUE(w->Sketch().ok());
         EXPECT_TRUE(w->Bins(kFourBounds).ok());
         EXPECT_TRUE(w->Layout(4, {0, 1, 2, 3}).ok());
         EXPECT_TRUE(w->Request(MsgType::kPeelInit, std::string(),
                                MsgType::kPeelInitReply)
                         .ok());
         EXPECT_TRUE(w->Bins(kFourBounds).ok());
         return w->Peel();
       }},
  };
  for (const OutOfOrder& order : orders) {
    SCOPED_TRACE(order.what);
    ScriptedWorker worker;
    const Status reply = order.run(&worker);
    EXPECT_EQ(reply.code(), Status::Code::kFailedPrecondition)
        << reply.ToString();
    const Status served = worker.Finish();
    EXPECT_EQ(served.code(), Status::Code::kFailedPrecondition)
        << served.ToString();
  }
}

TEST(ShardWireTest, WorkerRefusesRetiredMessageTypes) {
  // Bytes 11-19 carried the retired tree-fit and tuning rounds; a worker
  // fails on each with a typed status the coordinator end receives.
  for (int type = 11; type <= 19; ++type) {
    SCOPED_TRACE(type);
    ScriptedWorker worker;
    const std::string expected =
        "shard worker: unexpected message type " + std::to_string(type);
    const Status reply = worker.Request(static_cast<MsgType>(type),
                                        std::string(), MsgType::kMetricsReply);
    EXPECT_EQ(reply.code(), Status::Code::kInvalidArgument)
        << reply.ToString();
    EXPECT_EQ(reply.message(), expected);
    const Status served = worker.Finish();
    EXPECT_EQ(served.code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(served.message(), expected);
  }
}

TEST(ShardFleetTest, CoordinatorRejectsShortReplyVectors) {
  // A scripted fake worker answers the rounds truthfully for four rows of
  // one column, except for one flaw: a per-bin vector one entry short --
  // the coding stats' vmin or vmax (binning fails) or the peel-init cells
  // (PRIM fails) -- or a kPeel answered with the unchanged init cells, as
  // if the peel removed no row (PRIM fails on the first peel). Each way the
  // coordinator returns InvalidArgument instead of reading past the vector
  // or peeling on drifted cells.
  enum class Flaw { kShortVmin, kShortVmax, kShortCells, kStalePeel };
  for (const Flaw flaw : {Flaw::kShortVmin, Flaw::kShortVmax,
                          Flaw::kShortCells, Flaw::kStalePeel}) {
    SCOPED_TRACE(flaw == Flaw::kShortVmin    ? "short vmin"
                 : flaw == Flaw::kShortVmax  ? "short vmax"
                 : flaw == Flaw::kShortCells ? "short cells"
                                             : "stale peel reply");
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const std::vector<double> values = {0.0, 1.0, 2.0, 3.0};
    const std::vector<double> labels = {0.0, 1.0, 1.0, 0.0};
    std::thread fake([&] {
      for (;;) {
        Result<Frame> frame = ReadFrame(sv[1]);
        if (!frame.ok() || frame->type == MsgType::kShutdown) return;
        util::ByteWriter out;
        MsgType reply = MsgType::kLayoutAck;
        if (frame->type == MsgType::kSketchRequest) {
          ColumnSketch cs(1.0 / 2048.0);
          for (double v : values) cs.AddValue(v, BinnedIndex::kMaxBins);
          out.U64(values.size());
          out.I32(1);
          cs.SerializeTo(&out);
          reply = MsgType::kSketchReply;
        } else if (frame->type == MsgType::kBins) {
          util::ByteReader in(frame->payload);
          (void)in.I32();
          const std::vector<double> upper = in.VecF64();
          BinCodingStats stats;
          stats.Reset(upper.size());
          for (double v : values) stats.Observe(StreamedCodeOf(upper, v), v);
          if (flaw == Flaw::kShortVmin) stats.vmin.pop_back();
          if (flaw == Flaw::kShortVmax) stats.vmax.pop_back();
          out.U64(values.size());
          out.VecI32(stats.count);
          out.VecF64(stats.vmin);
          out.VecF64(stats.vmax);
          reply = MsgType::kCodingReply;
        } else if (frame->type == MsgType::kPeelInit ||
                   frame->type == MsgType::kPeel) {
          // One row per bin, packed as StreamedBinTotals cells.
          std::vector<int64_t> cells;
          for (double y : labels) {
            cells.push_back(1 + (static_cast<int64_t>(y)
                                 << StreamedBinTotals::kPosShift));
          }
          if (flaw == Flaw::kShortCells) cells.pop_back();
          if (frame->type == MsgType::kPeelInit) {
            out.U8(1);  // integral labels
            reply = MsgType::kPeelInitReply;
          } else {
            reply = MsgType::kPeelReply;
          }
          out.VecI64(cells);
        }
        if (!WriteFrame(sv[1], reply, out).ok()) return;
      }
    });
    ShardCoordinator coordinator({sv[0]});
    const Status built = coordinator.BuildGlobalBins();
    PrimConfig config;
    config.min_points = 2;  // four rows: peel at least once
    const Status prim =
        built.ok() ? coordinator.RunPrim(config).status() : built;
    EXPECT_TRUE(coordinator.Shutdown().ok());
    fake.join();
    ::close(sv[0]);
    ::close(sv[1]);
    if (flaw == Flaw::kShortVmin || flaw == Flaw::kShortVmax) {
      EXPECT_EQ(built.code(), Status::Code::kInvalidArgument)
          << built.ToString();
    } else {
      ASSERT_TRUE(built.ok()) << built.ToString();
      EXPECT_EQ(coordinator.bins().columns[0].live, 4);
      EXPECT_EQ(prim.code(), Status::Code::kInvalidArgument)
          << prim.ToString();
    }
  }
}

TEST(ShardFleetTest, NonFiniteCellFailsTheFleetWithItsStatus) {
  // A NaN in a worker's shard: the worker's sketch pass refuses it, and
  // the coordinator fails with that InvalidArgument (naming the column)
  // rather than with a summary it cannot decode.
  Dataset d(3);
  Rng rng(5);
  for (int r = 0; r < 2000; ++r) {
    const double x[3] = {rng.Uniform(),
                         r == 1500 ? std::nan("") : rng.Uniform(),
                         rng.Uniform()};
    d.AddRow(x, rng.Bernoulli(0.3) ? 1.0 : 0.0);
  }
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Status served = Status::OK();
  std::thread worker([&] {
    MatrixSource source(std::make_shared<const Dataset>(std::move(d)));
    served = RunShardWorker(sv[1], &source);
  });
  StreamedBuildOptions options;
  options.block_rows = 256;
  ShardCoordinator coordinator({sv[0]}, options);
  const Status built = coordinator.BuildGlobalBins();
  EXPECT_EQ(built.code(), Status::Code::kInvalidArgument) << built.ToString();
  EXPECT_NE(built.message().find("column 1"), std::string::npos)
      << built.ToString();
  EXPECT_EQ(built.message().find("invalid tuple"), std::string::npos);
  // Releases a worker that did not fail; a failed one has already left.
  (void)coordinator.Shutdown();
  worker.join();
  EXPECT_EQ(served.code(), Status::Code::kInvalidArgument)
      << served.ToString();
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ShardSourceTest, SpecSerializationRoundTrips) {
  SourceSpec spec = TestSpec();
  spec.path = "ignored-for-synthetic";
  util::ByteWriter out;
  spec.SerializeTo(&out);
  util::ByteReader in(out.data());
  Result<SourceSpec> parsed = SourceSpec::DeserializeFrom(&in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, spec.kind);
  EXPECT_EQ(parsed->block_rows, spec.block_rows);
  EXPECT_EQ(parsed->rows, spec.rows);
  EXPECT_EQ(parsed->dims, spec.dims);
  EXPECT_EQ(parsed->distinct, spec.distinct);
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_EQ(parsed->path, spec.path);

  // Invalid geometry is rejected on parse.
  SourceSpec bad = TestSpec();
  bad.distinct = 1;
  util::ByteWriter bad_out;
  bad.SerializeTo(&bad_out);
  util::ByteReader bad_in(bad_out.data());
  EXPECT_FALSE(SourceSpec::DeserializeFrom(&bad_in).ok());
}

TEST(ShardSourceTest, ShardUnionReassemblesSingleStream) {
  const SourceSpec spec = TestSpec();
  const int workers = 3;

  // Pull every shard's blocks; shard w owns global blocks w, w+W, ...
  const int64_t num_blocks =
      (spec.rows + spec.block_rows - 1) / spec.block_rows;
  std::vector<std::vector<double>> block_x(static_cast<size_t>(num_blocks));
  std::vector<std::vector<double>> block_y(static_cast<size_t>(num_blocks));
  int64_t union_rows = 0;
  for (int w = 0; w < workers; ++w) {
    SyntheticBlockSource source(spec, workers, w);
    int64_t b = w;
    for (;;) {
      Result<RowBlock> block = source.NextBlock(spec.block_rows);
      ASSERT_TRUE(block.ok());
      if (block->empty()) break;
      ASSERT_LT(b, num_blocks);
      const int rows = block->num_rows();
      union_rows += rows;
      block_x[static_cast<size_t>(b)].assign(
          block->x.data(), block->x.data() + rows * spec.dims);
      block_y[static_cast<size_t>(b)].assign(block->y, block->y + rows);
      b += workers;
    }
  }
  EXPECT_EQ(union_rows, spec.rows);

  // Reassembled in block order, the union is byte-for-byte the 1-shard
  // stream.
  SyntheticBlockSource single(spec, 1, 0);
  for (int64_t b = 0; b < num_blocks; ++b) {
    Result<RowBlock> block = single.NextBlock(spec.block_rows);
    ASSERT_TRUE(block.ok());
    ASSERT_FALSE(block->empty());
    const int rows = block->num_rows();
    ASSERT_EQ(block_x[static_cast<size_t>(b)].size(),
              static_cast<size_t>(rows * spec.dims));
    for (int i = 0; i < rows * spec.dims; ++i) {
      ASSERT_EQ(block->x.data()[i], block_x[static_cast<size_t>(b)][i]);
    }
    for (int r = 0; r < rows; ++r) {
      ASSERT_EQ(block->y[r], block_y[static_cast<size_t>(b)][r]);
    }
  }
}

TEST(ShardSourceTest, WrongBlockSizeIsRejected) {
  const SourceSpec spec = TestSpec();
  SyntheticBlockSource source(spec, 1, 0);
  EXPECT_FALSE(source.NextBlock(spec.block_rows + 1).ok());
}

TEST(ShardSourceTest, EqualSpecsShareOneIdentity) {
  const SourceSpec spec = TestSpec();
  EXPECT_EQ(spec.Identity(), TestSpec().Identity());
  const SyntheticBlockSource a(spec, 1, 0);
  const SyntheticBlockSource b(TestSpec(), 1, 0);
  ASSERT_TRUE(a.identity().has_value());
  EXPECT_EQ(a.identity(), b.identity());
}

TEST(ShardSourceTest, EveryIdentityFieldChangesTheIdentity) {
  const std::vector<std::function<void(SourceSpec*)>> edits = {
      [](SourceSpec* s) { s->kind = SourceSpec::Kind::kCsv; },
      [](SourceSpec* s) { s->block_rows += 1; },
      [](SourceSpec* s) { s->rows += 1; },
      [](SourceSpec* s) { s->dims += 1; },
      [](SourceSpec* s) { s->distinct += 1; },
      [](SourceSpec* s) { s->seed += 1; },
      [](SourceSpec* s) { s->path = "x.csv"; },
  };
  const SourceSpec base = TestSpec();
  std::set<uint64_t> seen = {base.Identity()};
  for (size_t i = 0; i < edits.size(); ++i) {
    SourceSpec edited = base;
    edits[i](&edited);
    EXPECT_TRUE(seen.insert(edited.Identity()).second) << "edit " << i;
  }

  // The stride is part of a source's identity: every shard of every fleet
  // size names a different row sequence.
  std::set<uint64_t> strides;
  for (int shards = 1; shards <= 3; ++shards) {
    for (int index = 0; index < shards; ++index) {
      const SyntheticBlockSource source(base, shards, index);
      EXPECT_TRUE(strides.insert(*source.identity()).second)
          << shards << " shards, index " << index;
    }
  }
}

TEST(ShardSourceTest, DataBackedSourcesClaimNoIdentity) {
  // A file can change under its path and a matrix is only its bytes, so
  // none of these may vouch for its rows.
  auto data = std::make_shared<Dataset>(2);
  data->AddRow({0.1, 0.2}, 1.0);
  EXPECT_FALSE(MatrixSource(data).identity().has_value());
  // Relabeling changes the rows, so a wrapped generator's identity does
  // not carry over.
  SyntheticBlockSource generator(TestSpec(), 1, 0);
  EXPECT_FALSE(LabelingSource(&generator, [](const double*) { return 1.0; })
                   .identity()
                   .has_value());

  const std::string path = ::testing::TempDir() + "reds_identity_test.csv";
  {
    std::ofstream out(path);
    out << "a,b,y\n0.1,0.2,1\n";
  }
  Result<std::unique_ptr<CsvFileSource>> csv = CsvFileSource::Open(path);
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  EXPECT_FALSE((*csv)->identity().has_value());

  SourceSpec spec;
  spec.kind = SourceSpec::Kind::kCsv;
  spec.block_rows = 1;
  spec.path = path;
  for (int shards : {1, 2}) {
    Result<std::unique_ptr<DatasetSource>> made = MakeSource(spec, shards, 0);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    EXPECT_FALSE((*made)->identity().has_value()) << shards << " shards";
  }
  std::filesystem::remove(path);
}

// Satellite: global bins are identical whatever the partition -- any
// worker count derives the same bins as the single-process build, because
// exact (value, count) summary merges are sorted multiset unions.
TEST(ShardFleetTest, GlobalBinsMatchSingleProcessForAnyWorkerCount) {
  const SourceSpec spec = TestSpec();
  const StreamedDataset reference =
      SingleProcessBuild(spec, BuildOptions(spec));
  ASSERT_EQ(reference.index->kind(), BinnedIndex::BuildKind::kExactPack);

  for (int workers : {1, 2, 3}) {
    Fleet fleet(spec, workers);
    ShardCoordinator coordinator(fleet.coordinator_fds(), BuildOptions(spec));
    ASSERT_TRUE(coordinator.BuildGlobalBins().ok());
    SCOPED_TRACE(workers);
    ExpectBinsMatch(coordinator.bins(), *reference.index);
    EXPECT_TRUE(coordinator.Shutdown().ok());
  }
}

// Satellite: the coordinator folds worker sketch summaries in worker-index
// order, but in the exact regime the fold is order-invariant -- any
// arrival order yields the same global bin bounds.
TEST(ShardFleetTest, ExactSummaryFoldIsOrderInvariant) {
  const int cap = 64;
  const double eps = 1.0 / 2048.0;
  Rng rng(99);
  std::vector<ColumnSketch> parts;
  for (int p = 0; p < 4; ++p) {
    ColumnSketch cs(eps);
    for (int i = 0; i < 500; ++i) {
      cs.AddValue(static_cast<double>(rng.UniformInt(40)) / 39.0, cap);
    }
    ASSERT_FALSE(cs.overflow);
    parts.push_back(std::move(cs));
  }
  const int n = 4 * 500;
  const std::vector<std::vector<size_t>> orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  std::vector<std::vector<double>> bounds;
  for (const std::vector<size_t>& order : orders) {
    ColumnSketch acc(eps);
    for (size_t p : order) acc.MergeFrom(parts[p], cap);
    bounds.push_back(StreamedBinUpperBounds(&acc, n, cap));
  }
  EXPECT_EQ(bounds[0], bounds[1]);
  EXPECT_EQ(bounds[0], bounds[2]);
}

TEST(ShardFleetTest, ColumnSketchSerializationRoundTrips) {
  const double eps = 1.0 / 2048.0;
  ColumnSketch cs(eps);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    cs.AddValue(rng.Uniform(), 32);  // far more distinct values than cap
  }
  ASSERT_TRUE(cs.overflow);
  util::ByteWriter out;
  cs.SerializeTo(&out);
  util::ByteReader in(out.data());
  Result<ColumnSketch> parsed = ColumnSketch::DeserializeFrom(&in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->count, cs.count);
  EXPECT_EQ(parsed->overflow, cs.overflow);
  // Identical summaries quantize identically.
  ColumnSketch a = cs;
  ColumnSketch b = *parsed;
  EXPECT_EQ(StreamedBinUpperBounds(&a, 3000, 32),
            StreamedBinUpperBounds(&b, 3000, 32));
}

TEST(ShardFleetTest, PrimBitIdenticalToSingleProcess) {
  // The 16-distinct stream and a 3-distinct one, whose early peels all
  // move past a tied block on both sides, each at two alphas; and a
  // two-block stream, which leaves the third worker of a 3-worker fleet
  // idle with zero rows.
  struct Case {
    const char* what;
    int distinct;
    int64_t rows;
    double alpha;
  };
  const std::vector<Case> cases = {
      {"16 distinct, alpha 0.05", 16, 20000, 0.05},
      {"16 distinct, alpha 0.2", 16, 20000, 0.2},
      {"3 distinct, alpha 0.05", 3, 20000, 0.05},
      {"3 distinct, alpha 0.2", 3, 20000, 0.2},
      {"two blocks", 16, 1000, 0.05},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    SourceSpec spec = TestSpec();
    spec.distinct = c.distinct;
    spec.rows = c.rows;
    const StreamedDataset reference =
        SingleProcessBuild(spec, BuildOptions(spec));
    PrimConfig config;
    config.alpha = c.alpha;
    config.min_points = 20;
    const PrimResult expected =
        RunPrimStreamed(*reference.index, reference.y, config);
    ASSERT_GT(expected.boxes.size(), 2u);

    for (int workers : {1, 2, 3}) {
      SCOPED_TRACE(workers);
      Fleet fleet(spec, workers);
      ShardCoordinator coordinator(fleet.coordinator_fds(),
                                   BuildOptions(spec));
      ASSERT_TRUE(coordinator.BuildGlobalBins().ok());
      Result<PrimResult> got = coordinator.RunPrim(config);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectPrimMatch(*got, expected);
      EXPECT_TRUE(coordinator.Shutdown().ok());
    }
  }
}

// Only workers see labels. A shard holding a 0.5 label reports
// StreamedBinTotals::integral_labels false, and the coordinator refuses to
// peel: its candidates read removed positives from the cells, which count
// only {0,1} labels. Every worker still leaves cleanly on Shutdown.
TEST(ShardFleetTest, FleetRefusesFractionalLabels) {
  const std::string path =
      ::testing::TempDir() + "reds_shard_fractional_test.csv";
  {
    std::ofstream out(path);
    out << "a,b,y\n";
    Rng rng(3);
    for (int r = 0; r < 400; ++r) {
      out << rng.Uniform() << ',' << rng.Uniform() << ','
          << (r == 250 ? "0.5" : rng.Bernoulli(0.3) ? "1" : "0") << '\n';
    }
  }
  SourceSpec spec;
  spec.kind = SourceSpec::Kind::kCsv;
  spec.block_rows = 64;
  spec.path = path;
  {
    Fleet fleet(spec, 2);  // its destructor expects every worker to exit OK
    ShardCoordinator coordinator(fleet.coordinator_fds(), BuildOptions(spec));
    ASSERT_TRUE(coordinator.BuildGlobalBins().ok());
    const Result<PrimResult> got = coordinator.RunPrim(PrimConfig{});
    EXPECT_EQ(got.status().code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(got.status().message(),
              "sharded PRIM requires integral {0,1} labels");
    EXPECT_TRUE(coordinator.Shutdown().ok());
  }
  std::filesystem::remove(path);
}

// Sketch regime: more distinct values than max_bins, and column a has a
// run of ties at its maximum longer than one bin's share of rows. The last
// sketch quantile then equals that maximum, the +inf catch-all raw bin
// stays empty, and the layout maps it to the live-bin count. The fleet
// must still reproduce the single-process streamed build. The sketch eps
// is fine enough that no summary compresses, so how the rows are
// partitioned cannot move a quantile bound.
TEST(ShardFleetTest, SketchRegimeWithEmptyCatchAllMatchesSingleProcess) {
  const std::string path = ::testing::TempDir() + "reds_shard_sketch_test.csv";
  {
    std::ofstream out(path);
    out.precision(17);
    out << "a,b,y\n";
    Rng rng(23);
    for (int r = 0; r < 4000; ++r) {
      const double a = rng.Bernoulli(0.02) ? 1.0 : rng.Uniform();
      const double b = rng.Uniform();
      const bool planted = a > 0.4 && b < 0.6;
      out << a << ',' << b << ','
          << (rng.Bernoulli(planted ? 0.8 : 0.1) ? 1 : 0) << '\n';
    }
  }
  SourceSpec spec;
  spec.kind = SourceSpec::Kind::kCsv;
  spec.block_rows = 256;
  spec.path = path;
  StreamedBuildOptions options = BuildOptions(spec);
  options.sketch_eps = 1.0 / 65536.0;
  const StreamedDataset reference = SingleProcessBuild(spec, options);
  ASSERT_EQ(reference.index->kind(), BinnedIndex::BuildKind::kSketch);
  PrimConfig config;
  config.alpha = 0.05;
  config.min_points = 20;
  const PrimResult expected =
      RunPrimStreamed(*reference.index, reference.y, config);

  for (int workers : {1, 2}) {
    SCOPED_TRACE(workers);
    Fleet fleet(spec, workers);
    ShardCoordinator coordinator(fleet.coordinator_fds(), options);
    const Status built = coordinator.BuildGlobalBins();
    ASSERT_TRUE(built.ok()) << built.ToString();
    ExpectBinsMatch(coordinator.bins(), *reference.index);
    Result<PrimResult> got = coordinator.RunPrim(config);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectPrimMatch(*got, expected);
    EXPECT_TRUE(coordinator.Shutdown().ok());
  }
  std::filesystem::remove(path);
}

TEST(ShardFleetTest, FleetMetricsFoldIntoOneRegistry) {
  const SourceSpec spec = TestSpec();
  const int workers = 3;
  Fleet fleet(spec, workers);
  ShardCoordinator coordinator(fleet.coordinator_fds(), BuildOptions(spec));
  ASSERT_TRUE(coordinator.BuildGlobalBins().ok());
  PrimConfig config;
  Result<PrimResult> r = coordinator.RunPrim(config);
  ASSERT_TRUE(r.ok());

  obs::MetricsRegistry registry;
  ASSERT_TRUE(coordinator.CollectMetrics(&registry).ok());
  // Counters fold exactly: every row and block of the stream is counted
  // once, across all workers.
  EXPECT_EQ(registry.counter("shard.worker.rows")->Value(),
            static_cast<uint64_t>(spec.rows));
  const uint64_t blocks =
      static_cast<uint64_t>((spec.rows + spec.block_rows - 1) /
                            spec.block_rows);
  EXPECT_EQ(registry.counter("shard.worker.blocks")->Value(), blocks);
  // One peel per applied box transition, counted on every worker.
  EXPECT_EQ(registry.counter("shard.worker.peels")->Value(),
            static_cast<uint64_t>(workers) * (r->boxes.size() - 1));
  EXPECT_EQ(registry.gauge("shard.coordinator.workers")->Value(), workers);
  EXPECT_TRUE(coordinator.Shutdown().ok());
}

}  // namespace
}  // namespace reds::shard
