// DiscoveryServer lifecycle and admission control, driven through real
// sockets. Determinism comes from the engine-coalesce-test trick: a
// one-thread engine whose sole worker is plugged by a gated job, so every
// request submitted over the wire behind it is still queued -- admission
// decisions (quota sheds, queue-depth sheds, coalesced-follower
// exemptions) then happen against a frozen engine state instead of a race.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset_source.h"
#include "engine/discovery_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "shard/source_spec.h"
#include "shard/wire.h"

namespace reds::net {
namespace {

const bool kHermetic = [] {
  unsetenv("REDS_CACHE_DIR");
  unsetenv("REDS_TRACE_DIR");
  return true;
}();

std::string UnixAddr(const std::string& name) {
  return "unix:/tmp/reds_net_" + name + "_" + std::to_string(::getpid()) +
         ".sock";
}

engine::EngineConfig EngineCfg(int threads) {
  engine::EngineConfig config;
  config.threads = threads;
  config.enable_persistent_cache = false;
  return config;
}

// Blocks the engine's sole worker inside a make_train factory until
// opened; everything submitted behind it stays queued.
class Gate {
 public:
  void Open() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

Dataset GateData() {
  Dataset d(2);
  for (int i = 0; i < 60; ++i) {
    d.AddRow({i * 0.01, 1.0 - i * 0.01}, i % 3 == 0 ? 1.0 : 0.0);
  }
  return d;
}

engine::JobHandle SubmitGateJob(engine::DiscoveryEngine* engine, Gate* gate) {
  engine::DiscoveryRequest request;
  request.make_train = [gate] {
    gate->Wait();
    return GateData();
  };
  request.method = "P";
  request.options.tune_metamodel = false;
  request.cell = "gate";
  return engine->Submit(std::move(request));
}

SubmitRequest WireRequest(uint64_t id, uint64_t seed,
                          DataMode mode = DataMode::kEager) {
  SubmitRequest request =
      MakeSubmit(id, "P", mode, /*rows=*/400, /*dims=*/4, seed,
                 /*alpha=*/0.05, /*l_prim=*/2000);
  request.source.distinct = 32;
  return request;
}

// The engine request the server builds for WireRequest, for in-process
// comparison runs.
engine::DiscoveryRequest DirectRequest(const SubmitRequest& wire) {
  engine::DiscoveryRequest req;
  Result<std::unique_ptr<DatasetSource>> source =
      shard::MakeSource(wire.source, 1, 0);
  Result<Dataset> data = ReadAll(source->get(), wire.source.block_rows);
  req.train = std::make_shared<const Dataset>(std::move(*data));
  req.method = wire.method;
  req.options.default_alpha = wire.alpha;
  req.options.min_points = wire.min_points;
  req.options.l_prim = wire.l_prim;
  req.options.seed = wire.options_seed;
  req.options.tune_metamodel = wire.tune_metamodel;
  return req;
}

uint64_t Counter(engine::DiscoveryEngine& engine, const std::string& name) {
  return engine.metrics().counter(name)->Value();
}

// Polls until `fn` returns true or ~2s pass; real-socket tests need one
// bounded wait for the loop thread to observe an fd state change.
bool Eventually(const std::function<bool()>& fn) {
  for (int i = 0; i < 400; ++i) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return fn();
}

TEST(NetServerTest, StartStopAndTcpAddressResolution) {
  engine::DiscoveryEngine engine(EngineCfg(2));
  ServerConfig config;
  config.address = "tcp:127.0.0.1:0";
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(server.address(), "tcp:127.0.0.1:0") << "port not resolved";

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  Result<HelloAck> ack = client.Hello("lifecycle-test");
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->version, kProtocolVersion);
  EXPECT_EQ(ack->engine_threads, engine.threads());
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
  // Stopped means stopped: the socket is gone.
  NetClient late;
  EXPECT_FALSE(late.Connect(server.address()).ok());
}

TEST(NetServerTest, WarmRoundTripMatchesInProcessEngine) {
  engine::DiscoveryEngine engine(EngineCfg(2));
  ServerConfig config;
  config.address = UnixAddr("warm");
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("warm-test").ok());

  const SubmitRequest wire = WireRequest(1, /*seed=*/7);
  Result<SubmitOutcome> outcome = client.Submit(wire);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->kind, SubmitOutcome::Kind::kAdmitted);
  Result<RequestResult> cold = client.WaitResult(1);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(cold->done.failed) << cold->done.error;
  EXPECT_GT(cold->done.server_latency_ns, 0u);
  EXPECT_GT(cold->done.trajectory_len, 0u);

  // Same spec again: warm caches, identical boxes.
  SubmitRequest again = wire;
  again.request_id = 2;
  ASSERT_TRUE(client.Submit(again).ok());
  Result<RequestResult> warm = client.WaitResult(2);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->done.last_box == cold->done.last_box);

  // The wire answer is the in-process answer: an identical request
  // submitted directly to the engine lands on the same box.
  engine::JobHandle direct = engine.Submit(DirectRequest(wire));
  direct->Wait();
  ASSERT_EQ(direct->state(), engine::JobState::kDone) << direct->error();
  EXPECT_TRUE(direct->output().last_box == cold->done.last_box);
  EXPECT_EQ(direct->output().trajectory.size(),
            static_cast<size_t>(cold->done.trajectory_len));
}

TEST(NetServerTest, StreamedSubmitStreamsTrajectoryBoxes) {
  engine::DiscoveryEngine engine(EngineCfg(2));
  ServerConfig config;
  config.address = UnixAddr("streamed");
  config.result_chunk_boxes = 4;  // force several kResultBoxes frames
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("streamed-test").ok());

  SubmitRequest wire = WireRequest(5, /*seed=*/9, DataMode::kStreamedSource);
  wire.want_boxes = true;
  Result<SubmitOutcome> outcome = client.Submit(wire);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->kind, SubmitOutcome::Kind::kAdmitted);
  Result<RequestResult> result = client.WaitResult(5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->done.failed) << result->done.error;
  EXPECT_EQ(result->boxes.size(),
            static_cast<size_t>(result->done.trajectory_len));
  ASSERT_FALSE(result->boxes.empty());
  EXPECT_TRUE(result->boxes.back() == result->done.last_box);
}

TEST(NetServerTest, WarmStreamedSubmitSkipsIngest) {
  engine::EngineConfig engine_config = EngineCfg(2);
  // Tracing feeds the stage.* histograms the ingest pass is counted in.
  engine_config.trace_dir = ::testing::TempDir() + "reds_net_ingest_traces";
  std::filesystem::remove_all(engine_config.trace_dir);
  engine::DiscoveryEngine engine(engine_config);
  ServerConfig config;
  config.address = UnixAddr("warm_stream");
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("warm-stream-test").ok());

  const SubmitRequest first =
      WireRequest(1, /*seed=*/17, DataMode::kStreamedSource);
  ASSERT_TRUE(client.Submit(first).ok());
  Result<RequestResult> cold = client.WaitResult(1);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(cold->done.failed) << cold->done.error;

  // Same source, new alpha: the result cache misses, the engine runs, and
  // its ingest tier serves the source without a pass over it.
  const uint64_t ingest_passes =
      engine.metrics().HistogramData("stage.ingest.source").count;
  const uint64_t ingest_hits = Counter(engine, "cache.ingest.hits");
#ifndef REDS_OBS_NOOP
  EXPECT_EQ(ingest_passes, 1u);
#endif
  SubmitRequest second = first;
  second.request_id = 2;
  second.alpha = 0.1;
  ASSERT_TRUE(client.Submit(second).ok());
  Result<RequestResult> warm = client.WaitResult(2);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_FALSE(warm->done.failed) << warm->done.error;
  EXPECT_EQ(engine.metrics().HistogramData("stage.ingest.source").count,
            ingest_passes);
  EXPECT_EQ(Counter(engine, "cache.ingest.hits"), ingest_hits + 1);

  // The warm answer is the one a fresh engine computes by reading the
  // source.
  engine::DiscoveryEngine fresh(EngineCfg(1));
  engine::DiscoveryRequest direct = DirectRequest(second);
  direct.train.reset();
  const shard::SourceSpec spec = second.source;
  direct.make_train_source = [spec] {
    return std::move(shard::MakeSource(spec, 1, 0).value());
  };
  engine::JobHandle reference = fresh.Submit(std::move(direct));
  reference->Wait();
  ASSERT_EQ(reference->state(), engine::JobState::kDone) << reference->error();
  EXPECT_EQ(Counter(fresh, "cache.ingest.misses"), 1u);
  EXPECT_TRUE(reference->output().last_box == warm->done.last_box);
  EXPECT_EQ(reference->output().trajectory.size(),
            static_cast<size_t>(warm->done.trajectory_len));
  server.Stop();
  std::filesystem::remove_all(engine_config.trace_dir);
}

TEST(NetServerTest, HelloRequiredBeforeAnythingElse) {
  engine::DiscoveryEngine engine(EngineCfg(1));
  ServerConfig config;
  config.address = UnixAddr("hello");
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(
      shard::WriteFrame(client.fd(), shard::MsgType::kPing, std::string())
          .ok());
  Result<shard::Frame> reply = shard::ReadFrame(client.fd());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, shard::MsgType::kError);
  // ...and the connection is closed behind the error frame.
  Result<shard::Frame> eof = shard::ReadFrame(client.fd());
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(Counter(engine, "net.protocol_errors"), 1u);
}

TEST(NetServerTest, UnknownFrameTypeAndOversizedFrameAreFatal) {
  engine::DiscoveryEngine engine(EngineCfg(1));
  ServerConfig config;
  config.address = UnixAddr("hostile");
  config.max_frame_bytes = 1 << 20;
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  {
    NetClient client;
    ASSERT_TRUE(client.Connect(server.address()).ok());
    ASSERT_TRUE(client.Hello("hostile-unknown").ok());
    ASSERT_TRUE(shard::WriteFrame(client.fd(),
                                  static_cast<shard::MsgType>(99), "junk")
                    .ok());
    Result<shard::Frame> reply = shard::ReadFrame(client.fd());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, shard::MsgType::kError);
    EXPECT_FALSE(shard::ReadFrame(client.fd()).ok());
  }
  {
    NetClient client;
    ASSERT_TRUE(client.Connect(server.address()).ok());
    ASSERT_TRUE(client.Hello("hostile-oversized").ok());
    // Header declaring a 64 MiB payload against the 1 MiB cap; the server
    // must reject from the header alone -- no payload is ever sent.
    util::ByteWriter header;
    header.U32(64u << 20);
    header.U8(static_cast<uint8_t>(shard::MsgType::kSubmit));
    ASSERT_EQ(::write(client.fd(), header.data().data(), header.size()),
              static_cast<ssize_t>(header.size()));
    Result<shard::Frame> reply = shard::ReadFrame(client.fd());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, shard::MsgType::kError);
    Result<ErrorReply> err = ErrorReply::Parse(reply->payload);
    ASSERT_TRUE(err.ok());
    EXPECT_NE(err->message.find("oversized"), std::string::npos);
    EXPECT_FALSE(shard::ReadFrame(client.fd()).ok());
  }
  EXPECT_EQ(Counter(engine, "net.protocol_errors"), 2u);
}

TEST(NetServerTest, MalformedSubmitIsFatalButBadRequestIsInBand) {
  engine::DiscoveryEngine engine(EngineCfg(1));
  ServerConfig config;
  config.address = UnixAddr("reject");
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  {
    // Truncated submit payload: framing can no longer be trusted.
    NetClient client;
    ASSERT_TRUE(client.Connect(server.address()).ok());
    ASSERT_TRUE(client.Hello("malformed").ok());
    ASSERT_TRUE(
        shard::WriteFrame(client.fd(), shard::MsgType::kSubmit, "garbage")
            .ok());
    Result<shard::Frame> reply = shard::ReadFrame(client.fd());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, shard::MsgType::kError);
    EXPECT_FALSE(shard::ReadFrame(client.fd()).ok());
  }
  {
    // Well-formed but unacceptable (CSV source): in-band error, the
    // connection survives and serves the next request.
    NetClient client;
    ASSERT_TRUE(client.Connect(server.address()).ok());
    ASSERT_TRUE(client.Hello("csv").ok());
    SubmitRequest bad = WireRequest(1, 3);
    bad.source.kind = shard::SourceSpec::Kind::kCsv;
    bad.source.path = "/etc/passwd";
    Result<SubmitOutcome> outcome = client.Submit(bad);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->kind, SubmitOutcome::Kind::kRejected);
    EXPECT_NE(outcome->message.find("synthetic"), std::string::npos);

    Result<SubmitOutcome> good = client.Submit(WireRequest(2, 3));
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    EXPECT_EQ(good->kind, SubmitOutcome::Kind::kAdmitted);
    EXPECT_TRUE(client.WaitResult(2).ok());
  }
}

TEST(NetServerTest, ShedsPastQueueDepthCapThenRecovers) {
  engine::DiscoveryEngine engine(EngineCfg(1));
  Gate gate;
  SubmitGateJob(&engine, &gate);  // pool slot 1 of the cap, held open
  ServerConfig config;
  config.address = UnixAddr("shed");
  config.max_queue_depth = 1;
  config.retry_after_ms = 75;
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("shed-test").ok());

  Result<SubmitOutcome> outcome = client.Submit(WireRequest(1, 21));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->kind, SubmitOutcome::Kind::kShed);
  EXPECT_EQ(outcome->retry_after_ms, 75u);
  EXPECT_NE(outcome->message.find("queue depth"), std::string::npos);
  EXPECT_EQ(Counter(engine, "net.submits_shed"), 1u);
  EXPECT_EQ(Counter(engine, "net.submits_admitted"), 0u);

  // Saturation over: the retry is admitted and completes.
  gate.Open();
  engine.WaitAll();
  Result<SubmitOutcome> retry = client.Submit(WireRequest(2, 21));
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->kind, SubmitOutcome::Kind::kAdmitted);
  Result<RequestResult> result = client.WaitResult(2);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->done.failed);
}

TEST(NetServerTest, CoalescedFollowersBypassAdmissionCaps) {
  engine::DiscoveryEngine engine(EngineCfg(1));
  Gate gate;
  SubmitGateJob(&engine, &gate);
  ServerConfig config;
  config.address = UnixAddr("coalesce");
  config.max_inflight_per_client = 1;  // binding for anything non-coalesced
  config.max_queue_depth = 3;
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("coalesce-test").ok());

  // Leader: admitted normally, takes the second pool slot (gate holds the
  // first).
  Result<SubmitOutcome> leader = client.Submit(WireRequest(1, 31));
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  ASSERT_EQ(leader->kind, SubmitOutcome::Kind::kAdmitted);
  EXPECT_EQ(leader->flags, 0);
  EXPECT_EQ(engine.inflight_leader_jobs(), 2);

  // Three identical submits: each coalesces onto the queued leader, so
  // each is admitted past the quota of 1 -- and takes no pool slot.
  for (uint64_t id = 2; id <= 4; ++id) {
    SubmitRequest clone = WireRequest(id, 31);
    Result<SubmitOutcome> follower = client.Submit(clone);
    ASSERT_TRUE(follower.ok()) << follower.status().ToString();
    ASSERT_EQ(follower->kind, SubmitOutcome::Kind::kAdmitted) << id;
    EXPECT_EQ(follower->flags, kAdmitCoalescedExempt) << id;
  }
  EXPECT_EQ(engine.inflight_leader_jobs(), 2)
      << "followers must not take pool slots";
  EXPECT_EQ(Counter(engine, "engine.jobs.coalesced"), 3u);
  EXPECT_EQ(Counter(engine, "net.submits_coalesced_exempt"), 3u);
  EXPECT_EQ(Counter(engine, "net.submits_admitted"), 4u);

  // A distinct request is NOT exempt: the quota sheds it.
  Result<SubmitOutcome> distinct = client.Submit(WireRequest(9, 32));
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(distinct->kind, SubmitOutcome::Kind::kShed);
  EXPECT_NE(distinct->message.find("quota"), std::string::npos);

  // One engine execution fans out to all four wire requests.
  gate.Open();
  Result<RequestResult> first = client.WaitResult(1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->done.failed) << first->done.error;
  for (uint64_t id = 2; id <= 4; ++id) {
    Result<RequestResult> r = client.WaitResult(id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->done.last_box == first->done.last_box) << id;
    EXPECT_EQ(r->done.flags, kAdmitCoalescedExempt) << id;
  }
}

// Regression: results for earlier ids landing in the client's stash while
// a later Submit awaits its ack must not be replayed to that Submit loop
// forever -- the client once cycled its stash without ever reading the
// socket, spinning at 100% CPU.
TEST(NetServerTest, PipelinedSubmitsSurviveInterleavedResults) {
  engine::DiscoveryEngine engine(EngineCfg(2));
  ServerConfig config;
  config.address = UnixAddr("pipelined");
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("pipeliner").ok());

  // Submit id N, let its result frame reach the socket, then submit N+1:
  // every later Submit call starts with result frames of earlier ids
  // queued ahead of its ack.
  for (uint64_t id = 1; id <= 4; ++id) {
    Result<SubmitOutcome> outcome = client.Submit(WireRequest(id, 80 + id));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(outcome->kind, SubmitOutcome::Kind::kAdmitted) << id;
    engine.WaitAll();  // result for `id` is now in flight toward the client
    ASSERT_TRUE(Eventually([&] {
      return Counter(engine, "net.results_delivered") == id;
    }));
  }
  for (uint64_t id = 1; id <= 4; ++id) {
    Result<RequestResult> result = client.WaitResult(id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->done.failed) << result->done.error;
  }
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, KeepaliveExpiryClosesIdleConnections) {
  engine::DiscoveryEngine engine(EngineCfg(1));
  ServerConfig config;
  config.address = UnixAddr("keepalive");
  config.keepalive_ms = 80;
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("keepalive-test").ok());
  // Pings refresh the deadline.
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    ASSERT_TRUE(client.Ping().ok()) << i;
  }
  // Silence expires it.
  ASSERT_TRUE(Eventually([&] {
    return Counter(engine, "net.connections_closed") == 1;
  }));
  EXPECT_FALSE(shard::ReadFrame(client.fd()).ok());
}

TEST(NetServerTest, DisconnectMidJobCancelsDeliveryNotTheJob) {
  engine::DiscoveryEngine engine(EngineCfg(1));
  Gate gate;
  SubmitGateJob(&engine, &gate);
  ServerConfig config;
  config.address = UnixAddr("disconnect");
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  {
    NetClient client;
    ASSERT_TRUE(client.Connect(server.address()).ok());
    ASSERT_TRUE(client.Hello("quitter").ok());
    Result<SubmitOutcome> outcome = client.Submit(WireRequest(1, 41));
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->kind, SubmitOutcome::Kind::kAdmitted);
  }  // client gone, job still queued behind the gate

  // Only after the loop has noticed the disconnect is the race closed;
  // then finishing the job must deliver nothing and touch nothing.
  ASSERT_TRUE(Eventually([&] {
    return Counter(engine, "net.connections_closed") == 1;
  }));
  gate.Open();
  engine.WaitAll();
  EXPECT_EQ(Counter(engine, "engine.jobs.completed"), 2u);  // gate + job
  EXPECT_EQ(Counter(engine, "engine.jobs.failed"), 0u);
  EXPECT_EQ(Counter(engine, "net.results_delivered"), 0u);

  // The server is unharmed.
  NetClient again;
  ASSERT_TRUE(again.Connect(server.address()).ok());
  ASSERT_TRUE(again.Hello("survivor").ok());
  EXPECT_TRUE(again.Ping().ok());
}

TEST(NetServerTest, HalfCloseDrainsPendingResultsThenCloses) {
  engine::DiscoveryEngine engine(EngineCfg(1));
  Gate gate;
  SubmitGateJob(&engine, &gate);
  ServerConfig config;
  config.address = UnixAddr("drain");
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("drainer").ok());
  Result<SubmitOutcome> outcome = client.Submit(WireRequest(1, 51));
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->kind, SubmitOutcome::Kind::kAdmitted);

  // Half-close: we promise to send nothing more; the server owes us one
  // result before it hangs up.
  ASSERT_TRUE(client.FinishWrites().ok());
  gate.Open();
  Result<RequestResult> result = client.WaitResult(1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->done.failed) << result->done.error;
  // Delivery done: now the server closes its side.
  EXPECT_FALSE(shard::ReadFrame(client.fd()).ok());
  EXPECT_TRUE(Eventually([&] {
    return Counter(engine, "net.connections_closed") == 1;
  }));
}

TEST(NetServerTest, StatusPollTracksTheJobLifecycle) {
  engine::DiscoveryEngine engine(EngineCfg(1));
  Gate gate;
  SubmitGateJob(&engine, &gate);
  ServerConfig config;
  config.address = UnixAddr("status");
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("poller").ok());

  Result<StatusReply> unknown = client.PollStatus(404);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->state, WireJobState::kUnknown);

  Result<SubmitOutcome> outcome = client.Submit(WireRequest(1, 61));
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->kind, SubmitOutcome::Kind::kAdmitted);
  Result<StatusReply> queued = client.PollStatus(1);
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(queued->state, WireJobState::kQueued) << "gate holds the worker";

  gate.Open();
  Result<RequestResult> result = client.WaitResult(1);
  ASSERT_TRUE(result.ok());
  // Delivered means retired: the id is unknown again.
  Result<StatusReply> after = client.PollStatus(1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->state, WireJobState::kUnknown);
}

TEST(NetServerTest, MetricsScrapeServesBothFormats) {
  engine::DiscoveryEngine engine(EngineCfg(2));
  ServerConfig config;
  config.address = UnixAddr("scrape");
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("scraper").ok());
  ASSERT_TRUE(client.Submit(WireRequest(1, 71)).ok());
  ASSERT_TRUE(client.WaitResult(1).ok());

  Result<std::string> json = client.Scrape(ScrapeFormat::kJson);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("\"net.submits_admitted\": 1"), std::string::npos);
  EXPECT_NE(json->find("net.request_latency_ns"), std::string::npos);
  EXPECT_NE(json->find("engine.job.latency_ns"), std::string::npos);

  Result<std::string> prom = client.Scrape(ScrapeFormat::kPrometheus);
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("net_submits_admitted 1"), std::string::npos);
  EXPECT_NE(prom->find("net_request_latency_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(prom->find("engine_job_warm_latency_ns"), std::string::npos);
}

TEST(NetServerTest, BackpressuredWritesResumeOnWritability) {
  engine::DiscoveryEngine engine(EngineCfg(2));
  ServerConfig config;
  config.address = UnixAddr("backpressure");
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("hoarder").ok());

  // Queue a few hundred scrapes without reading a byte back: the dumps
  // overrun the socket buffer, the loop hits EAGAIN mid-frame, parks the
  // remainder, and resumes on EPOLLOUT once we start draining. Every dump
  // must arrive complete.
  constexpr int kScrapes = 300;
  MetricsScrape scrape;
  scrape.format = ScrapeFormat::kJson;
  util::ByteWriter payload;
  scrape.SerializeTo(&payload);
  for (int i = 0; i < kScrapes; ++i) {
    ASSERT_TRUE(shard::WriteFrame(client.fd(), shard::MsgType::kMetricsScrape,
                                  payload.data())
                    .ok())
        << i;
  }
  for (int i = 0; i < kScrapes; ++i) {
    Result<shard::Frame> frame = shard::ReadFrame(client.fd());
    ASSERT_TRUE(frame.ok()) << i << ": " << frame.status().ToString();
    ASSERT_EQ(frame->type, shard::MsgType::kMetricsDump) << i;
    Result<MetricsDump> dump = MetricsDump::Parse(frame->payload);
    ASSERT_TRUE(dump.ok()) << i;
    EXPECT_NE(dump->body.find("net.connections_accepted"), std::string::npos)
        << i;
  }
  EXPECT_TRUE(client.Ping().ok()) << "connection healthy after the flood";
}

TEST(NetServerTest, IdenticalRepeatIsServedFromTheResultCache) {
  engine::DiscoveryEngine engine(EngineCfg(2));
  ServerConfig config;
  config.address = UnixAddr("rescache");
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("rescache-test").ok());

  Result<SubmitOutcome> first = client.Submit(WireRequest(1, /*seed=*/91));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->kind, SubmitOutcome::Kind::kAdmitted);
  EXPECT_EQ(first->flags, 0) << "a first-timer must run for real";
  Result<RequestResult> cold = client.WaitResult(1);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(cold->done.failed) << cold->done.error;
  EXPECT_EQ(Counter(engine, "engine.jobs.submitted"), 1u);
  EXPECT_EQ(Counter(engine, "net.result_cache_hits"), 0u);

  // Identical spec under a fresh id: replayed, not recomputed -- the
  // engine never sees a second job, and the reply is bit-equal.
  Result<SubmitOutcome> repeat = client.Submit(WireRequest(2, /*seed=*/91));
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  ASSERT_EQ(repeat->kind, SubmitOutcome::Kind::kAdmitted);
  EXPECT_EQ(repeat->flags, kAdmitResultCached);
  Result<RequestResult> hit = client.WaitResult(2);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_FALSE(hit->done.failed) << hit->done.error;
  EXPECT_EQ(hit->done.flags, kAdmitResultCached);
  EXPECT_TRUE(hit->done.last_box == cold->done.last_box);
  EXPECT_EQ(hit->done.trajectory_len, cold->done.trajectory_len);
  EXPECT_EQ(Counter(engine, "engine.jobs.submitted"), 1u)
      << "the repeat must not reach the engine";
  EXPECT_EQ(Counter(engine, "net.result_cache_hits"), 1u);
  EXPECT_EQ(Counter(engine, "net.submits_admitted"), 2u)
      << "a replay is still an admitted request in the server's books";

  // A different seed is a different answer: no false sharing.
  Result<SubmitOutcome> other = client.Submit(WireRequest(3, /*seed=*/92));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->flags, 0);
  ASSERT_TRUE(client.WaitResult(3).ok());
  EXPECT_EQ(Counter(engine, "engine.jobs.submitted"), 2u);

  // Cross-connection: the cache is a server property, not a connection
  // property.
  NetClient second;
  ASSERT_TRUE(second.Connect(server.address()).ok());
  ASSERT_TRUE(second.Hello("rescache-second").ok());
  Result<SubmitOutcome> cross = second.Submit(WireRequest(4, /*seed=*/91));
  ASSERT_TRUE(cross.ok());
  EXPECT_EQ(cross->flags, kAdmitResultCached);
  Result<RequestResult> cross_hit = second.WaitResult(4);
  ASSERT_TRUE(cross_hit.ok());
  EXPECT_TRUE(cross_hit->done.last_box == cold->done.last_box);
  EXPECT_EQ(Counter(engine, "engine.jobs.submitted"), 2u);
}

TEST(NetServerTest, ResultCacheReplaysTheStreamedTrajectory) {
  engine::DiscoveryEngine engine(EngineCfg(2));
  ServerConfig config;
  config.address = UnixAddr("rescache_boxes");
  config.result_chunk_boxes = 4;  // replay must re-chunk, too
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("rescache-boxes-test").ok());

  SubmitRequest wire = WireRequest(1, /*seed=*/93, DataMode::kStreamedSource);
  wire.want_boxes = true;
  ASSERT_TRUE(client.Submit(wire).ok());
  Result<RequestResult> cold = client.WaitResult(1);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(cold->boxes.empty());

  // want_boxes is not part of the fingerprint: a repeat that wants the
  // trajectory gets the cached one, box for box.
  SubmitRequest again = wire;
  again.request_id = 2;
  Result<SubmitOutcome> repeat = client.Submit(again);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->flags, kAdmitResultCached);
  Result<RequestResult> hit = client.WaitResult(2);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_EQ(hit->boxes.size(), cold->boxes.size());
  for (size_t i = 0; i < hit->boxes.size(); ++i) {
    EXPECT_TRUE(hit->boxes[i] == cold->boxes[i]) << "box " << i;
  }
  EXPECT_EQ(Counter(engine, "engine.jobs.submitted"), 1u);

  // ...and a repeat that does not want boxes gets only the done frame.
  SubmitRequest no_boxes = wire;
  no_boxes.request_id = 3;
  no_boxes.want_boxes = false;
  ASSERT_TRUE(client.Submit(no_boxes).ok());
  Result<RequestResult> bare = client.WaitResult(3);
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->boxes.empty());
  EXPECT_TRUE(bare->done.last_box == cold->done.last_box);
}

TEST(NetServerTest, ResultCacheCanBeDisabled) {
  engine::DiscoveryEngine engine(EngineCfg(2));
  ServerConfig config;
  config.address = UnixAddr("rescache_off");
  config.result_cache_entries = 0;
  DiscoveryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(server.address()).ok());
  ASSERT_TRUE(client.Hello("rescache-off-test").ok());

  ASSERT_TRUE(client.Submit(WireRequest(1, /*seed=*/94)).ok());
  ASSERT_TRUE(client.WaitResult(1).ok());
  Result<SubmitOutcome> repeat = client.Submit(WireRequest(2, /*seed=*/94));
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->flags, 0);
  ASSERT_TRUE(client.WaitResult(2).ok());
  EXPECT_EQ(Counter(engine, "engine.jobs.submitted"), 2u);
  EXPECT_EQ(Counter(engine, "net.result_cache_hits"), 0u);
}

}  // namespace
}  // namespace reds::net
