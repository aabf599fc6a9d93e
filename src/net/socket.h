// Thin POSIX socket helpers for the network front-end: RAII fds, loopback
// listeners/connects, and failpoint-wrapped read/write so the chaos
// framework (src/fault) can reach the wire without a misbehaving peer.
//
// Failpoint sites (armed via fault::Activate, see failpoint.h):
//   net/accept_error — evaluated by the server's accept loop: the freshly
//                      accepted connection is closed immediately, as if
//                      accept(2) had failed after the handshake
//   net/read_eof     — ReadFd reports EOF regardless of pending data
//   net/slow_peer    — WriteFd pretends EAGAIN (a peer that never drains)
//   net/short_write  — WriteFd truncates to the trigger's value payload
//                      (default 1 byte): the classic partial-write path
#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <sys/types.h>

namespace net {

// Move-only RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Sets O_NONBLOCK; returns 0 or -1 (errno set).
int SetNonBlocking(int fd);

// Opens a non-blocking loopback listener (SO_REUSEADDR, backlog 512). `port`
// 0 binds an ephemeral port; the bound port is reported through
// *bound_port. Returns an invalid Fd on failure.
Fd ListenLocal(uint16_t port, uint16_t* bound_port);

// Connects to 127.0.0.1:`port`. Blocking connect (loopback completes
// immediately); the returned socket is switched to non-blocking when
// `nonblocking` is set. Returns an invalid Fd on failure.
Fd ConnectLocal(uint16_t port, bool nonblocking);

// read(2) with the net/read_eof failpoint: returns byte count, 0 on EOF
// (real or injected), or -1 with errno (EAGAIN included).
ssize_t ReadFd(int fd, void* buf, size_t n);

// write(2) with the net/slow_peer (pretend EAGAIN) and net/short_write
// (truncate to the trigger value, default 1 byte) failpoints. Returns bytes
// written or -1 with errno.
ssize_t WriteFd(int fd, const void* buf, size_t n);

// Number of open descriptors in this process (/proc/self/fd); the fd-leak
// assertion used by the socket fault-injection tests.
int CountOpenFds();

}  // namespace net

#endif  // SRC_NET_SOCKET_H_
