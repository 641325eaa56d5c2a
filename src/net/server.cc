#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/method.h"
#include "shard/source_spec.h"

namespace reds::net {

namespace {

// Entries of the server-side LRU of materialized eager datasets, keyed by
// the SourceSpec's bytes. One materialization per distinct spec is what
// lets identical eager submits from different connections coalesce.
constexpr size_t kDatasetCacheEntries = 16;

uint64_t NsSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

std::string EncodePayload(const std::function<void(util::ByteWriter*)>& fn) {
  util::ByteWriter w;
  fn(&w);
  return w.data();
}

// Result-cache key: every request field that shapes the answer. The id is
// the client's demux handle and want_boxes only selects which frames are
// sent, so both are canonicalized out; everything else rides the payload
// serialization, which tracks field additions automatically.
uint64_t RequestFingerprint(const SubmitRequest& msg) {
  SubmitRequest canon = msg;
  canon.request_id = 0;
  canon.want_boxes = false;
  util::ByteWriter bytes;
  canon.SerializeTo(&bytes);
  return util::Fnv64(bytes.data().data(), bytes.size());
}

// Encodes one finished request's result frames: the trajectory as
// kResultBoxes chunks of `chunk` boxes when the client asked for boxes,
// then `done` -- its trajectory length and server latency (since `t0`)
// stamped here -- as the closing kResultDone frame. Cache replays and
// engine completions both go through it, so they put identical frame
// sequences on the wire. Returns the stamped latency.
uint64_t AppendResultFrames(
    const std::vector<Box>& trajectory, bool want_boxes, int chunk,
    ResultDone done, std::chrono::steady_clock::time_point t0,
    std::vector<std::pair<shard::MsgType, std::string>>* frames) {
  const size_t total = trajectory.size();
  if (want_boxes) {
    for (size_t i = 0; i < total; i += static_cast<size_t>(chunk)) {
      ResultBoxes boxes;
      boxes.request_id = done.request_id;
      boxes.first_index = static_cast<uint32_t>(i);
      const size_t end = std::min(total, i + static_cast<size_t>(chunk));
      boxes.boxes.assign(trajectory.begin() + i, trajectory.begin() + end);
      frames->emplace_back(
          shard::MsgType::kResultBoxes,
          EncodePayload([&](util::ByteWriter* w) { boxes.SerializeTo(w); }));
    }
  }
  done.trajectory_len = static_cast<uint32_t>(total);
  done.server_latency_ns = NsSince(t0);
  frames->emplace_back(
      shard::MsgType::kResultDone,
      EncodePayload([&](util::ByteWriter* w) { done.SerializeTo(w); }));
  return done.server_latency_ns;
}

}  // namespace

void DiscoveryServer::EventQueue::Push(Event event) {
  std::lock_guard<std::mutex> lock(mutex);
  if (!open) return;
  events.push_back(std::move(event));
  if (wake_fd >= 0) {
    // A full pipe is fine: unread wakeup bytes already guarantee a drain.
    char b = 1;
    ssize_t ignored = ::write(wake_fd, &b, 1);
    (void)ignored;
  }
}

void DiscoveryServer::EventQueue::Close() {
  std::lock_guard<std::mutex> lock(mutex);
  open = false;
  if (wake_fd >= 0) {
    ::close(wake_fd);
    wake_fd = -1;
  }
  events.clear();
}

DiscoveryServer::DiscoveryServer(engine::DiscoveryEngine* engine,
                                 ServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      events_(std::make_shared<EventQueue>()),
      datasets_(kDatasetCacheEntries),
      result_cache_(std::make_shared<ResultCache>(config_.result_cache_entries)),
      decode_pool_(std::max(1, config_.decode_threads), &engine_->metrics(),
                   "net.decode") {
  obs::MetricsRegistry& m = engine_->metrics();
  accepted_ = m.counter("net.connections_accepted");
  closed_ = m.counter("net.connections_closed");
  admitted_ = m.counter("net.submits_admitted");
  coalesced_exempt_ = m.counter("net.submits_coalesced_exempt");
  result_cache_hits_ = m.counter("net.result_cache_hits");
  shed_ = m.counter("net.submits_shed");
  protocol_errors_ = m.counter("net.protocol_errors");
  results_delivered_ = m.counter("net.results_delivered");
  open_conns_ = m.gauge("net.connections_open");
  request_latency_ = m.histogram("net.request_latency_ns");
}

DiscoveryServer::~DiscoveryServer() { Stop(); }

Status DiscoveryServer::Listen() {
  const std::string& addr = config_.address;
  if (addr.rfind("unix:", 0) == 0) {
    const std::string path = addr.substr(5);
    sockaddr_un sa{};
    if (path.empty() || path.size() >= sizeof(sa.sun_path)) {
      return Status::InvalidArgument("net server: bad unix socket path: " +
                                     path);
    }
    listen_fd_ =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return Status::IoError(std::string("net server: socket: ") +
                             std::strerror(errno));
    }
    ::unlink(path.c_str());
    sa.sun_family = AF_UNIX;
    std::memcpy(sa.sun_path, path.c_str(), path.size());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      return Status::IoError(std::string("net server: bind ") + path + ": " +
                             std::strerror(errno));
    }
    unix_path_ = path;
    bound_address_ = addr;
  } else if (addr.rfind("tcp:", 0) == 0) {
    const std::string rest = addr.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("net server: tcp address needs a port: " +
                                     addr);
    }
    const std::string host = rest.substr(0, colon);
    const int port = std::atoi(rest.c_str() + colon + 1);
    if (port < 0 || port > 65535) {
      return Status::InvalidArgument("net server: bad tcp port in " + addr);
    }
    listen_fd_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return Status::IoError(std::string("net server: socket: ") +
                             std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
      return Status::InvalidArgument("net server: bad tcp host in " + addr);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      return Status::IoError(std::string("net server: bind ") + addr + ": " +
                             std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_address_ =
        "tcp:" + host + ":" + std::to_string(ntohs(bound.sin_port));
  } else {
    return Status::InvalidArgument(
        "net server: address must be unix:PATH or tcp:host:port, got " + addr);
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::IoError(std::string("net server: listen: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status DiscoveryServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("net server: already started");
  }
  Status s = Listen();
  if (!s.ok()) return s;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IoError(std::string("net server: epoll_create1: ") +
                           std::strerror(errno));
  }
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Status::IoError(std::string("net server: pipe2: ") +
                           std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  {
    std::lock_guard<std::mutex> lock(events_->mutex);
    events_->wake_fd = pipe_fds[1];
    events_->open = true;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = 1;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev);
  running_.store(true);
  loop_ = std::thread(&DiscoveryServer::LoopThread, this);
  return Status::OK();
}

void DiscoveryServer::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  {
    // Kick the loop out of epoll_wait.
    std::lock_guard<std::mutex> lock(events_->mutex);
    if (events_->wake_fd >= 0) {
      char b = 0;
      ssize_t ignored = ::write(events_->wake_fd, &b, 1);
      (void)ignored;
    }
  }
  loop_.join();
  // Decode tasks still in flight push into the queue (processed never) and
  // may submit engine jobs; their completion callbacks then find the queue
  // closed. Nothing blocks, nothing leaks.
  decode_pool_.Shutdown();
  events_->Close();
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  wake_read_fd_ = epoll_fd_ = listen_fd_ = -1;
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void DiscoveryServer::LoopThread() {
  std::vector<epoll_event> events(64);
  while (running_.load(std::memory_order_relaxed)) {
    int timeout_ms = 100;
    if (config_.keepalive_ms > 0) {
      timeout_ms = std::max(5, std::min(100, config_.keepalive_ms / 4));
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      const uint32_t flags = events[i].events;
      if (id == 0) {
        AcceptNew();
        continue;
      }
      if (id == 1) {
        ProcessEvents();
        continue;
      }
      Connection* conn = FindConn(id);
      if (!conn) continue;
      if (flags & EPOLLERR) {
        CloseConn(id);
        continue;
      }
      if (flags & (EPOLLIN | EPOLLHUP)) {
        HandleReadable(conn, (flags & EPOLLHUP) != 0);
        conn = FindConn(id);
        if (!conn) continue;
      }
      if (flags & EPOLLOUT) HandleWritable(conn);
    }
    SweepKeepalive();
  }
  // Teardown on the loop thread, where connections live.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& entry : conns_) ids.push_back(entry.first);
  for (uint64_t id : ids) CloseConn(id);
}

void DiscoveryServer::AcceptNew() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: accepted everything pending
    }
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(config_.max_frame_bytes);
    conn->fd = fd;
    conn->id = id;
    conn->shared = std::make_shared<ConnShared>();
    conn->last_activity = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    accepted_->Add(1);
    open_conns_->Add(1);
  }
}

DiscoveryServer::Connection* DiscoveryServer::FindConn(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void DiscoveryServer::CloseConn(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  conn->shared->alive.store(false);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(it);
  closed_->Add(1);
  open_conns_->Add(-1);
}

void DiscoveryServer::SendFrame(Connection* conn, shard::MsgType type,
                                const std::string& payload) {
  conn->out.Push(type, payload);
}

void DiscoveryServer::SetWriteInterest(Connection* conn, bool want) {
  if (conn->want_write == want) return;
  conn->want_write = want;
  epoll_event ev{};
  ev.events = ((conn->draining || conn->closing) ? 0u : EPOLLIN) |
              (want ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void DiscoveryServer::MaybeFinishClose(Connection* conn) {
  if (!conn->out.empty()) return;
  if (conn->closing) {
    CloseConn(conn->id);
    return;
  }
  if (conn->draining && conn->shared->inflight.load() == 0) {
    CloseConn(conn->id);
  }
}

// May close (and free) the connection; callers must not touch `conn`
// afterwards -- call only as the final action on it.
void DiscoveryServer::FlushConn(Connection* conn) {
  if (conn->out.empty()) {
    SetWriteInterest(conn, false);
    MaybeFinishClose(conn);
    return;
  }
  bool blocked = false;
  Status s = conn->out.Flush(conn->fd, &blocked);
  if (!s.ok()) {
    CloseConn(conn->id);
    return;
  }
  SetWriteInterest(conn, blocked);
  if (!blocked) MaybeFinishClose(conn);
}

void DiscoveryServer::BeginDrain(Connection* conn) {
  if (!conn->draining) {
    conn->draining = true;
    epoll_event ev{};
    ev.events = conn->want_write ? EPOLLOUT : 0u;
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  MaybeFinishClose(conn);
}

void DiscoveryServer::HandleReadable(Connection* conn, bool hup) {
  if (conn->closing || conn->draining) {
    FlushConn(conn);
    return;
  }
  conn->last_activity = std::chrono::steady_clock::now();
  char buf[65536];
  for (;;) {
    const ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      Status s = conn->decoder.Feed(buf, static_cast<size_t>(r));
      if (!s.ok()) {
        ProtocolError(conn, 0, s.message());
        FlushConn(conn);
        return;
      }
      shard::Frame frame;
      while (!conn->closing && conn->decoder.Next(&frame)) {
        DispatchFrame(conn, std::move(frame));
      }
      if (conn->closing) {
        FlushConn(conn);
        return;
      }
      continue;
    }
    if (r == 0) {
      // FIN with EPOLLHUP means the peer is fully gone (nothing we write
      // can arrive); a bare FIN is a half-close -- the client wants its
      // pending results before we hang up.
      if (hup) {
        CloseConn(conn->id);
      } else {
        BeginDrain(conn);
      }
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      FlushConn(conn);
      return;
    }
    CloseConn(conn->id);
    return;
  }
}

void DiscoveryServer::HandleWritable(Connection* conn) { FlushConn(conn); }

void DiscoveryServer::ProtocolError(Connection* conn, uint64_t request_id,
                                    const std::string& message) {
  protocol_errors_->Add(1);
  ErrorReply err;
  err.request_id = request_id;
  err.message = message;
  SendFrame(conn, shard::MsgType::kError,
            EncodePayload([&](util::ByteWriter* w) { err.SerializeTo(w); }));
  conn->closing = true;
  conn->shared->alive.store(false);
}

void DiscoveryServer::DispatchFrame(Connection* conn, shard::Frame frame) {
  using shard::MsgType;
  if (!conn->hello_done) {
    if (frame.type != MsgType::kHello) {
      ProtocolError(conn, 0, "expected hello before any other frame");
      return;
    }
    Result<HelloRequest> hello = HelloRequest::Parse(frame.payload);
    if (!hello.ok()) {
      ProtocolError(conn, 0, hello.status().message());
      return;
    }
    if (hello->version != kProtocolVersion) {
      ProtocolError(conn, 0, "unsupported protocol version " +
                                 std::to_string(hello->version));
      return;
    }
    conn->hello_done = true;
    HelloAck ack;
    ack.max_inflight_per_client =
        static_cast<uint32_t>(std::max(0, config_.max_inflight_per_client));
    ack.max_queue_depth =
        static_cast<uint32_t>(std::max(0, config_.max_queue_depth));
    ack.max_frame_bytes = config_.max_frame_bytes;
    ack.engine_threads = engine_->threads();
    SendFrame(conn, MsgType::kHelloAck,
              EncodePayload([&](util::ByteWriter* w) { ack.SerializeTo(w); }));
    return;
  }
  switch (frame.type) {
    case MsgType::kPing:
      SendFrame(conn, MsgType::kPong, std::string());
      return;
    case MsgType::kStatusPoll: {
      Result<StatusPoll> poll = StatusPoll::Parse(frame.payload);
      if (!poll.ok()) {
        ProtocolError(conn, 0, poll.status().message());
        return;
      }
      StatusReply reply;
      reply.request_id = poll->request_id;
      {
        std::lock_guard<std::mutex> lock(conn->shared->mutex);
        const auto it = conn->shared->jobs.find(poll->request_id);
        if (it == conn->shared->jobs.end()) {
          reply.state = WireJobState::kUnknown;
        } else {
          switch (it->second->state()) {
            case engine::JobState::kQueued:
              reply.state = WireJobState::kQueued;
              break;
            case engine::JobState::kRunning:
              reply.state = WireJobState::kRunning;
              break;
            case engine::JobState::kDone:
              reply.state = WireJobState::kDone;
              break;
            case engine::JobState::kFailed:
              reply.state = WireJobState::kFailed;
              reply.error = it->second->error();
              break;
          }
        }
      }
      SendFrame(
          conn, MsgType::kStatusReply,
          EncodePayload([&](util::ByteWriter* w) { reply.SerializeTo(w); }));
      return;
    }
    case MsgType::kSubmit: {
      auto shared = conn->shared;
      const uint64_t id = conn->id;
      decode_pool_.Submit(
          [this, id, shared, payload = std::move(frame.payload)]() {
            HandleSubmit(id, shared, payload);
          });
      return;
    }
    case MsgType::kMetricsScrape: {
      const uint64_t id = conn->id;
      decode_pool_.Submit([this, id, payload = std::move(frame.payload)]() {
        HandleScrape(id, payload);
      });
      return;
    }
    default:
      ProtocolError(conn, 0,
                    "unexpected frame type " +
                        std::to_string(static_cast<int>(frame.type)));
  }
}

void DiscoveryServer::ProcessEvents() {
  // Drain the pipe before taking the queue: a wakeup byte written after
  // this drain implies its event was pushed after the swap below, so it is
  // never lost -- the byte survives and re-triggers epoll.
  char buf[256];
  while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
  }
  std::vector<Event> batch;
  {
    std::lock_guard<std::mutex> lock(events_->mutex);
    batch.swap(events_->events);
  }
  for (Event& event : batch) {
    Connection* conn = FindConn(event.conn_id);
    if (!conn) continue;  // client left; delivery evaporates
    for (auto& frame : event.frames) {
      conn->out.Push(frame.first, frame.second);
    }
    // Frames first, then the in-flight decrement: a draining connection
    // must never look finished before its final frames are queued.
    if (event.inflight_delta != 0) {
      conn->shared->inflight.fetch_add(event.inflight_delta);
    }
    if (!event.frames.empty()) {
      conn->last_activity = std::chrono::steady_clock::now();
    }
    if (event.fatal) {
      conn->closing = true;
      conn->shared->alive.store(false);
    }
    FlushConn(conn);
  }
}

void DiscoveryServer::SweepKeepalive() {
  if (config_.keepalive_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(config_.keepalive_ms);
  std::vector<uint64_t> expired;
  for (const auto& entry : conns_) {
    const Connection* conn = entry.second.get();
    if (conn->shared->inflight.load() > 0) continue;
    if (!conn->out.empty()) continue;
    if (now - conn->last_activity > limit) expired.push_back(entry.first);
  }
  for (uint64_t id : expired) CloseConn(id);
}

Status DiscoveryServer::ValidateSubmit(const SubmitRequest& msg) const {
  if (msg.source.kind != shard::SourceSpec::Kind::kSynthetic) {
    return Status::InvalidArgument(
        "only synthetic sources are accepted over the wire");
  }
  if (msg.source.rows < 1 || msg.source.rows > 100'000'000) {
    return Status::InvalidArgument("source rows out of range");
  }
  if (msg.source.dims < 1 || msg.source.dims > 512) {
    return Status::InvalidArgument("source dims out of range");
  }
  if (msg.source.distinct < 2 || msg.source.distinct > 256) {
    return Status::InvalidArgument("source distinct out of range");
  }
  if (msg.source.block_rows < 1 || msg.source.block_rows > (1 << 20)) {
    return Status::InvalidArgument("source block_rows out of range");
  }
  Result<MethodSpec> spec = MethodSpec::Parse(msg.method);
  if (!spec.ok()) return spec.status();
  if (!(msg.alpha > 0.0) || !(msg.alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (msg.min_points < 1) {
    return Status::InvalidArgument("min_points must be positive");
  }
  if (msg.l_prim < 10 || msg.l_prim > 100'000'000) {
    return Status::InvalidArgument("l_prim out of range");
  }
  if (msg.data_mode == DataMode::kEager &&
      msg.source.rows * msg.source.dims > config_.max_eager_cells) {
    return Status::InvalidArgument(
        "eager dataset too large; use streamed mode");
  }
  return Status::OK();
}

Result<std::shared_ptr<const Dataset>> DiscoveryServer::EagerDataset(
    const shard::SourceSpec& spec) {
  const uint64_t key = spec.Identity();
  // Built under the lock: a concurrent burst of identical specs
  // materializes once, which in turn is what lets the burst's engine
  // submissions coalesce (same Dataset pointer, same fingerprint).
  std::lock_guard<std::mutex> lock(dataset_mutex_);
  if (auto* hit = datasets_.Get(key)) return *hit;
  Result<std::unique_ptr<DatasetSource>> source = shard::MakeSource(spec, 1, 0);
  if (!source.ok()) return source.status();
  Result<Dataset> data = ReadAll(source->get(), spec.block_rows);
  if (!data.ok()) return data.status();
  std::shared_ptr<const Dataset> dataset =
      std::make_shared<const Dataset>(std::move(*data));
  datasets_.Put(key, dataset);
  return dataset;
}

void DiscoveryServer::Shed(uint64_t conn_id, uint64_t request_id,
                           const std::string& reason) {
  shed_->Add(1);
  ShedReply reply;
  reply.request_id = request_id;
  reply.retry_after_ms = config_.retry_after_ms;
  reply.reason = reason;
  Event event;
  event.conn_id = conn_id;
  event.frames.emplace_back(
      shard::MsgType::kShed,
      EncodePayload([&](util::ByteWriter* w) { reply.SerializeTo(w); }));
  events_->Push(std::move(event));
}

void DiscoveryServer::ReplayCachedResult(
    uint64_t conn_id, const std::shared_ptr<ConnShared>& shared,
    const SubmitRequest& msg, const CachedResult& cached,
    std::chrono::steady_clock::time_point t0) {
  admitted_->Add(1);
  result_cache_hits_->Add(1);
  // The in-flight count covers the replay so a half-closing connection
  // drains it like any other pending result; the result event below
  // carries the matching decrement.
  shared->inflight.fetch_add(1);

  SubmitAck ack;
  ack.request_id = msg.request_id;
  ack.flags = kAdmitResultCached;
  Event ack_event;
  ack_event.conn_id = conn_id;
  ack_event.frames.emplace_back(
      shard::MsgType::kSubmitAck,
      EncodePayload([&](util::ByteWriter* w) { ack.SerializeTo(w); }));
  events_->Push(std::move(ack_event));

  Event event;
  event.conn_id = conn_id;
  event.inflight_delta = -1;
  ResultDone done;
  done.request_id = msg.request_id;
  done.flags = kAdmitResultCached;
  done.last_box = cached.last_box;
  done.restricted = cached.restricted;
  done.runtime_seconds = cached.runtime_seconds;
  request_latency_->Observe(AppendResultFrames(
      cached.trajectory, msg.want_boxes,
      std::max(1, config_.result_chunk_boxes), std::move(done), t0,
      &event.frames));
  results_delivered_->Add(1);
  events_->Push(std::move(event));
}

void DiscoveryServer::HandleSubmit(uint64_t conn_id,
                                   std::shared_ptr<ConnShared> shared,
                                   const std::string& payload) {
  const auto t0 = std::chrono::steady_clock::now();
  Result<SubmitRequest> parsed = SubmitRequest::Parse(payload);
  if (!parsed.ok()) {
    // Unparseable submit: the stream cannot be trusted frame-by-frame.
    protocol_errors_->Add(1);
    ErrorReply err;
    err.message = parsed.status().message();
    Event event;
    event.conn_id = conn_id;
    event.fatal = true;
    event.frames.emplace_back(
        shard::MsgType::kError,
        EncodePayload([&](util::ByteWriter* w) { err.SerializeTo(w); }));
    events_->Push(std::move(event));
    return;
  }
  const SubmitRequest msg = std::move(*parsed);
  Status valid = ValidateSubmit(msg);
  if (!valid.ok()) {
    // Framing is intact, the request is just unacceptable: reply in-band
    // and keep the connection.
    protocol_errors_->Add(1);
    ErrorReply err;
    err.request_id = msg.request_id;
    err.message = valid.message();
    Event event;
    event.conn_id = conn_id;
    event.frames.emplace_back(
        shard::MsgType::kError,
        EncodePayload([&](util::ByteWriter* w) { err.SerializeTo(w); }));
    events_->Push(std::move(event));
    return;
  }

  // Cheapest admission path first: a completed identical request replays
  // from the result cache -- no dataset materialization, no engine slot,
  // no cap accounting.
  const uint64_t fingerprint = RequestFingerprint(msg);
  if (config_.result_cache_entries > 0) {
    std::shared_ptr<const CachedResult> hit;
    {
      std::lock_guard<std::mutex> lock(result_cache_->mutex);
      if (auto* entry = result_cache_->map.Get(fingerprint)) hit = *entry;
    }
    if (hit) {
      ReplayCachedResult(conn_id, shared, msg, *hit, t0);
      return;
    }
  }

  engine::DiscoveryRequest req;
  req.method = msg.method;
  req.keep_output = true;
  req.options.default_alpha = msg.alpha;
  req.options.min_points = msg.min_points;
  req.options.l_prim = msg.l_prim;
  req.options.seed = msg.options_seed;
  req.options.tune_metamodel = msg.tune_metamodel;

  bool exempt = false;
  if (msg.data_mode == DataMode::kEager) {
    Result<std::shared_ptr<const Dataset>> dataset = EagerDataset(msg.source);
    if (!dataset.ok()) {
      ErrorReply err;
      err.request_id = msg.request_id;
      err.message = dataset.status().message();
      Event event;
      event.conn_id = conn_id;
      event.frames.emplace_back(
          shard::MsgType::kError,
          EncodePayload([&](util::ByteWriter* w) { err.SerializeTo(w); }));
      events_->Push(std::move(event));
      return;
    }
    req.train = *dataset;
    // Advisory single-flight probe: a true here means this submit attaches
    // to an in-flight leader and takes no pool slot, so admission caps do
    // not apply. The window can close before Submit -- then the request
    // becomes a fresh leader against warm caches, which is strictly
    // cheaper than what the cap was sized for.
    exempt = engine_->WouldCoalesce(req);
  } else {
    const shard::SourceSpec spec = msg.source;
    req.make_train_source = [spec]() {
      return std::move(shard::MakeSource(spec, 1, 0).value());
    };
  }

  if (exempt) {
    coalesced_exempt_->Add(1);
  } else {
    if (config_.max_inflight_per_client > 0 &&
        shared->inflight.load() >= config_.max_inflight_per_client) {
      Shed(conn_id, msg.request_id, "per-client in-flight quota reached");
      return;
    }
    if (config_.max_queue_depth > 0 &&
        engine_->inflight_leader_jobs() >= config_.max_queue_depth) {
      Shed(conn_id, msg.request_id, "engine queue depth at cap");
      return;
    }
  }

  shared->inflight.fetch_add(1);
  engine::JobHandle handle = engine_->Submit(std::move(req));
  {
    std::lock_guard<std::mutex> lock(shared->mutex);
    shared->jobs[msg.request_id] = handle;
  }
  admitted_->Add(1);

  const uint8_t flags = exempt ? kAdmitCoalescedExempt : 0;
  SubmitAck ack;
  ack.request_id = msg.request_id;
  ack.flags = flags;
  Event ack_event;
  ack_event.conn_id = conn_id;
  ack_event.frames.emplace_back(
      shard::MsgType::kSubmitAck,
      EncodePayload([&](util::ByteWriter* w) { ack.SerializeTo(w); }));
  events_->Push(std::move(ack_event));

  // Completion fan-in. Registered after the ack is queued, so even a job
  // that already finished pushes its result event behind the ack (the
  // callback then runs synchronously right here). Captures the job weakly:
  // the callback lives inside the job, and a strong self-reference would
  // leak it. The result cache is captured by shared_ptr -- a job that
  // outlives the server still files its result harmlessly.
  auto events = events_;
  std::weak_ptr<engine::Job> weak = handle;
  const uint64_t request_id = msg.request_id;
  const bool want_boxes = msg.want_boxes;
  const int chunk = std::max(1, config_.result_chunk_boxes);
  obs::Histogram* latency = request_latency_;
  obs::Counter* delivered = results_delivered_;
  auto cache = config_.result_cache_entries > 0 ? result_cache_ : nullptr;
  handle->NotifyOnFinish([events, weak, shared, conn_id, request_id,
                          want_boxes, flags, chunk, t0, latency, delivered,
                          cache, fingerprint]() {
    {
      std::lock_guard<std::mutex> lock(shared->mutex);
      shared->jobs.erase(request_id);
    }
    std::shared_ptr<engine::Job> job = weak.lock();
    if (!job) return;
    // File the result before checking whether the client is still here:
    // the discovery is done either way, and the next identical request
    // should ride it.
    if (cache && job->state() == engine::JobState::kDone) {
      const MethodOutput& out = job->output();
      auto entry = std::make_shared<const CachedResult>(CachedResult{
          out.trajectory, out.last_box, out.last_box.NumRestricted(),
          out.runtime_seconds});
      std::lock_guard<std::mutex> lock(cache->mutex);
      cache->map.Put(fingerprint, std::move(entry));
    }
    // Client already gone: the engine job finished normally (it was never
    // touched), only the delivery evaporates.
    if (!shared->alive.load()) return;
    Event event;
    event.conn_id = conn_id;
    event.inflight_delta = -1;
    ResultDone done;
    done.request_id = request_id;
    done.flags = flags;
    const std::vector<Box> no_boxes;
    const bool failed = job->state() == engine::JobState::kFailed;
    if (failed) {
      done.failed = true;
      done.error = job->error();
    } else {
      const MethodOutput& out = job->output();
      done.last_box = out.last_box;
      done.restricted = out.last_box.NumRestricted();
      done.runtime_seconds = out.runtime_seconds;
    }
    latency->Observe(AppendResultFrames(
        failed ? no_boxes : job->output().trajectory, want_boxes, chunk,
        std::move(done), t0, &event.frames));
    delivered->Add(1);
    events->Push(std::move(event));
  });
}

void DiscoveryServer::HandleScrape(uint64_t conn_id,
                                   const std::string& payload) {
  Result<MetricsScrape> msg = MetricsScrape::Parse(payload);
  Event event;
  event.conn_id = conn_id;
  if (!msg.ok()) {
    protocol_errors_->Add(1);
    ErrorReply err;
    err.message = msg.status().message();
    event.fatal = true;
    event.frames.emplace_back(
        shard::MsgType::kError,
        EncodePayload([&](util::ByteWriter* w) { err.SerializeTo(w); }));
  } else {
    MetricsDump dump;
    dump.body = engine_->DumpMetrics(msg->format == ScrapeFormat::kPrometheus
                                         ? obs::ExportFormat::kPrometheus
                                         : obs::ExportFormat::kJson);
    event.frames.emplace_back(
        shard::MsgType::kMetricsDump,
        EncodePayload([&](util::ByteWriter* w) { dump.SerializeTo(w); }));
  }
  events_->Push(std::move(event));
}

}  // namespace reds::net
