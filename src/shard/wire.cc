#include "shard/wire.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

namespace reds::shard {

namespace {

Status WriteAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    // MSG_NOSIGNAL: a worker that died mid-protocol must surface as an
    // IoError (EPIPE), not a process-killing SIGPIPE. Falls back to
    // write() for non-socket transports (pipes).
    ssize_t w = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) {
      w = ::write(fd, data + done, size - done);
    }
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("shard wire write: ") +
                             std::strerror(errno));
    }
    if (w == 0) return Status::IoError("shard wire write: zero-byte write");
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status ReadAllBytes(int fd, char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t r = ::read(fd, data + done, size - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("shard wire read: ") +
                             std::strerror(errno));
    }
    if (r == 0) {
      return Status::IoError("shard wire read: unexpected end of stream");
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, MsgType type, const std::string& payload) {
  util::ByteWriter header;
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U8(static_cast<uint8_t>(type));
  Status s = WriteAll(fd, header.data().data(), header.size());
  if (!s.ok()) return s;
  if (payload.empty()) return Status::OK();
  return WriteAll(fd, payload.data(), payload.size());
}

Result<Frame> ReadFrame(int fd, size_t max_payload) {
  char header[5];
  Status s = ReadAllBytes(fd, header, sizeof(header));
  if (!s.ok()) return s;
  util::ByteReader reader(header, sizeof(header));
  const uint32_t length = reader.U32();
  const uint8_t type = reader.U8();
  if (length > max_payload) {
    return Status::IoError("shard wire read: oversized frame (" +
                           std::to_string(length) + " bytes)");
  }
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload.resize(length);
  if (length > 0) {
    s = ReadAllBytes(fd, frame.payload.data(), length);
    if (!s.ok()) return s;
  }
  return frame;
}

std::string EncodeFrame(MsgType type, const std::string& payload) {
  util::ByteWriter w;
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U8(static_cast<uint8_t>(type));
  std::string bytes = w.data();
  bytes.append(payload);
  return bytes;
}

Status FrameDecoder::Feed(const char* data, size_t size) {
  if (failed_) return Status::IoError("frame decoder already failed");
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, size);
  return CheckHeader();
}

Status FrameDecoder::CheckHeader() {
  if (buf_.size() - pos_ < 5) return Status::OK();
  util::ByteReader reader(buf_.data() + pos_, 5);
  const uint32_t length = reader.U32();
  if (length > max_payload_) {
    failed_ = true;
    return Status::IoError("frame decoder: oversized frame (" +
                           std::to_string(length) + " bytes)");
  }
  return Status::OK();
}

bool FrameDecoder::Next(Frame* out) {
  if (failed_) return false;
  const size_t available = buf_.size() - pos_;
  if (available < 5) return false;
  util::ByteReader reader(buf_.data() + pos_, 5);
  const uint32_t length = reader.U32();
  const uint8_t type = reader.U8();
  if (available < 5 + static_cast<size_t>(length)) return false;
  out->type = static_cast<MsgType>(type);
  out->payload.assign(buf_, pos_ + 5, length);
  pos_ += 5 + static_cast<size_t>(length);
  // A new frame header is now at the front; re-validate it eagerly so the
  // oversize check does not wait for the next Feed.
  (void)CheckHeader();
  return true;
}

void FrameWriteQueue::Push(MsgType type, const std::string& payload) {
  std::string bytes = EncodeFrame(type, payload);
  pending_bytes_ += bytes.size();
  pending_.push_back(std::move(bytes));
}

Status FrameWriteQueue::Flush(int fd, bool* blocked) {
  *blocked = false;
  while (!pending_.empty()) {
    const std::string& front = pending_.front();
    const char* data = front.data() + front_offset_;
    const size_t size = front.size() - front_offset_;
    ssize_t w = ::send(fd, data, size, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) w = ::write(fd, data, size);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        *blocked = true;
        return Status::OK();
      }
      return Status::IoError(std::string("frame write: ") +
                             std::strerror(errno));
    }
    if (w == 0) return Status::IoError("frame write: zero-byte write");
    front_offset_ += static_cast<size_t>(w);
    pending_bytes_ -= static_cast<size_t>(w);
    if (front_offset_ == front.size()) {
      pending_.pop_front();
      front_offset_ = 0;
    }
  }
  return Status::OK();
}

Result<Frame> ExpectFrame(int fd, MsgType expected, size_t max_payload) {
  Result<Frame> frame = ReadFrame(fd, max_payload);
  if (!frame.ok()) return frame;
  if (frame->type == MsgType::kWorkerError) {
    util::ByteReader in(frame->payload);
    const uint8_t code = in.U8();
    std::string message = in.Str();
    if (!in.ok() || code == 0 ||
        code > static_cast<uint8_t>(Status::Code::kIoError)) {
      return Status::IoError("shard protocol: malformed error frame");
    }
    return Status(static_cast<Status::Code>(code), std::move(message));
  }
  if (frame->type != expected) {
    return Status::IoError(
        "shard protocol: expected message type " +
        std::to_string(static_cast<int>(expected)) + ", got " +
        std::to_string(static_cast<int>(frame->type)));
  }
  return frame;
}

}  // namespace reds::shard
