// FramedConn: one non-blocking framed connection on an EventLoop — the
// socket, its FrameParser and its outbox. NetServer's connections,
// AsyncClient's pool and the open-loop generator all run on it, so the read
// and write paths (and the net/* failpoints in ReadFd/WriteFd) exist once;
// each owner keeps only its policy: what a frame means and when to close.
//
// Loop-thread only, like the EventLoop it registers with. The frame callback
// of Read may destroy the connection; Read then returns at once and touches
// nothing of it afterwards.
#ifndef SRC_NET_CONN_H_
#define SRC_NET_CONN_H_

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "src/net/event_loop.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"

namespace net {

// Why FramedConn::Read returned.
enum class ReadEnd {
  kDrained,    // the socket would block: wait for the next readable edge
  kStopped,    // the frame callback returned false
  kEof,        // end of stream, the peer's or injected (net/read_eof)
  kError,      // read(2) failed
  kBadStream,  // sticky framing violation, see parser().error()
};

class FramedConn {
 public:
  // Takes the non-blocking socket `fd`; `loop` must outlive the connection.
  FramedConn(EventLoop* loop, Fd fd);
  // Deregisters from the loop and closes the socket.
  ~FramedConn();

  FramedConn(const FramedConn&) = delete;
  FramedConn& operator=(const FramedConn&) = delete;

  // Registers the socket for edge-triggered reads; `on_event` receives the
  // epoll mask. False when the loop refused the descriptor.
  bool Watch(EventLoop::FdCallback on_event);

  // Reads until the socket would block, passing each complete frame to
  // `on_frame`, which returns false to stop the read. Frames completed
  // before a framing violation are passed on first. Adds the bytes read to
  // *bytes_read when it is non-null, before their frames are passed on.
  ReadEnd Read(const std::function<bool(Frame&)>& on_frame,
               size_t* bytes_read = nullptr);

  // Appends `bytes` to the outbox, then Flush.
  ssize_t Send(std::string_view bytes);

  // Writes the outbox until it drains or the socket would block, with
  // EPOLLOUT armed exactly while bytes remain. Returns the bytes written,
  // or -1 when a write failed and the owner should close the connection.
  ssize_t Flush();

  size_t pending_bytes() const { return outbox_.size() - out_offset_; }
  const FrameParser& parser() const { return parser_; }

 private:
  void WatchWrites(bool on);

  EventLoop* loop_;
  Fd fd_;
  FrameParser parser_;
  std::string outbox_;     // bytes not yet written
  size_t out_offset_ = 0;  // written prefix of outbox_
  bool watched_ = false;
  bool wants_write_ = false;
};

}  // namespace net

#endif  // SRC_NET_CONN_H_
