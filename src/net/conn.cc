#include "src/net/conn.h"

#include <sys/epoll.h>

#include <cerrno>
#include <cstdint>
#include <utility>
#include <vector>

namespace net {

namespace {

// Bytes per read(2) on the drain loop: one maximal frame.
constexpr size_t kReadChunkBytes = 16 * 1024;

bool WouldBlock() { return errno == EAGAIN || errno == EWOULDBLOCK; }

}  // namespace

FramedConn::FramedConn(EventLoop* loop, Fd fd)
    : loop_(loop), fd_(std::move(fd)) {}

FramedConn::~FramedConn() {
  if (watched_) {
    loop_->Del(fd_.get());
  }
}

bool FramedConn::Watch(EventLoop::FdCallback on_event) {
  watched_ = loop_->Add(fd_.get(), EPOLLIN | EPOLLET, std::move(on_event));
  return watched_;
}

ReadEnd FramedConn::Read(const std::function<bool(Frame&)>& on_frame,
                         size_t* bytes_read) {
  uint8_t chunk[kReadChunkBytes];
  std::vector<Frame> frames;
  while (true) {
    const ssize_t n = ReadFd(fd_.get(), chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return WouldBlock() ? ReadEnd::kDrained : ReadEnd::kError;
    }
    if (n == 0) {
      return ReadEnd::kEof;
    }
    if (bytes_read != nullptr) {
      *bytes_read += static_cast<size_t>(n);
    }
    frames.clear();
    const WireError err =
        parser_.Feed(chunk, static_cast<size_t>(n), &frames);
    for (Frame& frame : frames) {
      if (!on_frame(frame)) {
        return ReadEnd::kStopped;
      }
    }
    if (err != WireError::kOk) {
      return ReadEnd::kBadStream;
    }
    if (static_cast<size_t>(n) < sizeof(chunk)) {
      // Short read: the socket is drained. Edge-triggered epoll would take
      // one more read(2) returning EAGAIN; this saves the syscall.
      return ReadEnd::kDrained;
    }
  }
}

ssize_t FramedConn::Send(std::string_view bytes) {
  outbox_.append(bytes);
  return Flush();
}

ssize_t FramedConn::Flush() {
  ssize_t written = 0;
  while (out_offset_ < outbox_.size()) {
    const ssize_t n = WriteFd(fd_.get(), outbox_.data() + out_offset_,
                              outbox_.size() - out_offset_);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && !WouldBlock()) {
      return -1;  // EPIPE/ECONNRESET/...
    }
    if (n <= 0) {
      WatchWrites(true);
      return written;
    }
    out_offset_ += static_cast<size_t>(n);
    written += n;
  }
  outbox_.clear();
  out_offset_ = 0;
  WatchWrites(false);
  return written;
}

void FramedConn::WatchWrites(bool on) {
  if (on == wants_write_) {
    return;
  }
  wants_write_ = on;
  loop_->Mod(fd_.get(), EPOLLIN | EPOLLET | (on ? EPOLLOUT : 0u));
}

}  // namespace net
