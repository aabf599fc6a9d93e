#include "src/net/socket.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "src/fault/failpoint.h"

namespace net {

void Fd::reset(int fd) {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  fd_ = fd;
}

int SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return -1;
  }
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

Fd ListenLocal(uint16_t port, uint16_t* bound_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Fd();
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Fd();
  }
  if (::listen(fd.get(), /*backlog=*/512) != 0) {
    return Fd();
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      return Fd();
    }
    *bound_port = ntohs(bound.sin_port);
  }
  if (SetNonBlocking(fd.get()) != 0) {
    return Fd();
  }
  return fd;
}

Fd ConnectLocal(uint16_t port, bool nonblocking) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Fd();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Fd();
  }
  // Request/reply frames are tiny; Nagle only adds latency on loopback.
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking && SetNonBlocking(fd.get()) != 0) {
    return Fd();
  }
  return fd;
}

ssize_t ReadFd(int fd, void* buf, size_t n) {
  if (fault::Triggered("net/read_eof")) {
    return 0;
  }
  return ::read(fd, buf, n);
}

ssize_t WriteFd(int fd, const void* buf, size_t n) {
  if (fault::Triggered("net/slow_peer")) {
    errno = EAGAIN;
    return -1;
  }
  uint64_t cap = fault::Trigger::kNoValue;
  if (fault::TriggeredValue("net/short_write", &cap)) {
    const size_t limit = cap == fault::Trigger::kNoValue
                             ? 1
                             : static_cast<size_t>(std::max<uint64_t>(cap, 1));
    n = std::min(n, limit);
  }
  // MSG_NOSIGNAL: a peer that slammed the connection shut must surface as
  // EPIPE from the call, not as a process-wide SIGPIPE.
  return ::send(fd, buf, n, MSG_NOSIGNAL);
}

int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    return -1;
  }
  int count = 0;
  while (::readdir(dir) != nullptr) {
    ++count;
  }
  ::closedir(dir);
  // Subtract ".", ".." and the directory's own fd.
  return count - 3;
}

}  // namespace net
