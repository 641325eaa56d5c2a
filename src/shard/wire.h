// Length-prefixed message framing for the shard transport. One frame is
//   u32 payload length (little endian) | u8 message type | payload bytes
// written to / read from a plain file descriptor -- a socketpair between
// coordinator and in-process worker threads, a pipe to a forked worker, or
// a UNIX domain socket to a separate worker process all look the same
// here. Payloads are util/serialize byte streams, so everything that
// crosses the wire reuses the cache tier's (de)serializers and their
// bounds-checked parsing.
#ifndef REDS_SHARD_WIRE_H_
#define REDS_SHARD_WIRE_H_

#include <cstdint>
#include <deque>
#include <string>

#include "util/serialize.h"
#include "util/status.h"

namespace reds::shard {

/// Shard protocol message types: binning rounds, PRIM rounds, then metrics
/// and shutdown. The coordinator speaks first; every request type has one
/// reply type so the protocol is a strict sequence of (broadcast, gather)
/// rounds and cannot deadlock.
enum class MsgType : uint8_t {
  // Binning rounds.
  kSketchRequest = 1,   // -> worker: run the sketch pass over your shard
  kSketchReply = 2,     // <- worker: per-column ColumnSketch summaries
  kBins = 3,            // -> worker: global per-column bin upper bounds
  kCodingReply = 4,     // <- worker: per-column BinCodingStats
  kLayout = 5,          // -> worker: per column live, remap, bin edges
  kLayoutAck = 6,       // <- worker: shard BinnedIndex assembled

  // PRIM rounds. "Cells" are the shard's in-box StreamedBinTotals cells
  // (rows low, positives high), every column's bins in turn, as one
  // length-prefixed int64 vector.
  kPeelInit = 7,        // -> worker: build the shard's PeelState
  kPeelInitReply = 8,   // <- worker: integral-labels flag byte + cells
  kPeel = 9,            // -> worker: apply (dim, side, boundary bin)
  kPeelReply = 10,      // <- worker: cells after the peel

  // Values 11-19 stay unassigned: older peers sent them (tree-fit and
  // tuning rounds), so a worker refuses them as unexpected rather than
  // misreading one as a newer type.

  // Fleet observability + teardown.
  kMetricsRequest = 20, // -> worker: snapshot your registry
  kMetricsReply = 21,   // <- worker: serialized RegistrySnapshot
  kShutdown = 22,       // -> worker: exit the serve loop
  kWorkerError = 23,    // <- worker: a request failed (status code, message)

  // Client-facing discovery service (src/net/). Numbered from 64 so the
  // trusted shard protocol and the hostile-peer service never share a
  // type byte; payload layouts live in net/protocol.h.
  kHello = 64,          // -> server: protocol version + client name
  kHelloAck = 65,       // <- server: version + admission limits
  kSubmit = 66,         // -> server: discovery request spec
  kSubmitAck = 67,      // <- server: admitted (flags carry exemption)
  kShed = 68,           // <- server: admission refused, retry-after
  kStatusPoll = 69,     // -> server: poll one request id
  kStatusReply = 70,    // <- server: job state + error
  kResultBoxes = 71,    // <- server: one chunk of trajectory boxes
  kResultDone = 72,     // <- server: final box + metrics, ends a request
  kMetricsScrape = 73,  // -> server: dump the engine registry
  kMetricsDump = 74,    // <- server: JSON / Prometheus text body
  kPing = 75,           // -> server: keepalive refresh
  kPong = 76,           // <- server
  kError = 77,          // <- server: malformed frame / bad request
};

/// One parsed frame: the type byte plus the raw payload bytes.
struct Frame {
  MsgType type = MsgType::kShutdown;
  std::string payload;
};

/// Writes one frame to `fd`, looping over partial writes / EINTR.
Status WriteFrame(int fd, MsgType type, const std::string& payload);

inline Status WriteFrame(int fd, MsgType type, const util::ByteWriter& w) {
  return WriteFrame(fd, type, w.data());
}

/// Reads one frame from `fd` (blocking), looping over partial reads /
/// EINTR. Fails on EOF, short frames, or a declared payload above
/// `max_payload` (64 MiB default -- far above any real shard message, so a
/// corrupted length cannot trigger an absurd allocation).
Result<Frame> ReadFrame(int fd, size_t max_payload = 64ull << 20);

/// Reads one frame and checks its type. A kWorkerError frame comes back
/// as the status it carries.
Result<Frame> ExpectFrame(int fd, MsgType expected,
                          size_t max_payload = 64ull << 20);

/// Encodes one frame (header + payload) into a contiguous byte string --
/// what WriteFrame puts on the wire, reusable by buffered writers.
std::string EncodeFrame(MsgType type, const std::string& payload);

/// Incremental frame parser for nonblocking sockets. Feed() appends
/// whatever bytes recv() produced; Next() extracts complete frames as they
/// become available. A declared payload length above `max_payload` fails
/// Feed() as soon as the 5 header bytes are buffered -- before any payload
/// arrives -- so a hostile peer cannot make the server allocate or wait on
/// an absurd length. Once failed, the decoder stays failed: the byte
/// stream is unframed garbage from there on and the connection must close.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = 64ull << 20)
      : max_payload_(max_payload) {}

  /// Buffers `size` received bytes. Fails on an oversized declared length.
  Status Feed(const char* data, size_t size);

  /// Moves the next complete frame into `out`; false when more bytes are
  /// needed (or the decoder has failed -- check last Feed's Status).
  bool Next(Frame* out);

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  /// Validates the header at pos_ when present; sets failed_ on oversize.
  Status CheckHeader();

  size_t max_payload_;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  bool failed_ = false;
};

/// Outgoing frame queue for a nonblocking socket: Push() encodes a frame;
/// Flush() writes as much as the socket accepts, surviving short writes.
/// On EAGAIN, Flush returns OK with *blocked = true and the remaining
/// bytes stay queued for the next writability event. EPIPE/ECONNRESET
/// surface as IoError (never SIGPIPE), which means the peer is gone and
/// pending frames should be dropped with the connection.
class FrameWriteQueue {
 public:
  void Push(MsgType type, const std::string& payload);

  /// Writes queued bytes to `fd` until empty or the socket would block.
  Status Flush(int fd, bool* blocked);

  bool empty() const { return pending_.empty(); }
  size_t pending_bytes() const { return pending_bytes_; }

 private:
  std::deque<std::string> pending_;  // encoded frames; front partially sent
  size_t front_offset_ = 0;          // sent prefix of pending_.front()
  size_t pending_bytes_ = 0;
};

}  // namespace reds::shard

#endif  // REDS_SHARD_WIRE_H_
