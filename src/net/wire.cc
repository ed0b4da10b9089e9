#include "net/wire.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>
#include <cstring>

namespace magic {
namespace net {

namespace {

/// Receives exactly `len` bytes. Returns len on success, 0 on clean EOF
/// before any byte, -1 on error, and a short count on EOF mid-read.
ssize_t RecvAll(int fd, char* buf, size_t len) {
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, buf + got, len - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) return static_cast<ssize_t>(got);  // EOF
    if (errno == EINTR) continue;
    return -1;
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

FrameResult ReadFrame(int fd, size_t max_payload, std::string* out) {
  char header[4];
  ssize_t n = RecvAll(fd, header, sizeof(header));
  if (n == 0) return FrameResult::kEof;
  if (n < 0) return FrameResult::kError;
  if (n < 4) return FrameResult::kTorn;
  uint32_t len = (static_cast<uint32_t>(static_cast<unsigned char>(header[0]))
                  << 24) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(header[1]))
                  << 16) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(header[2]))
                  << 8) |
                 static_cast<uint32_t>(static_cast<unsigned char>(header[3]));
  if (len > max_payload) return FrameResult::kOversized;
  out->resize(len);
  if (len == 0) return FrameResult::kOk;
  n = RecvAll(fd, out->data(), len);
  if (n < 0) return FrameResult::kError;
  if (static_cast<size_t>(n) < len) return FrameResult::kTorn;
  return FrameResult::kOk;
}

bool WriteFrame(int fd, std::string_view payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  char header[4] = {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
                    static_cast<char>(len >> 8), static_cast<char>(len)};
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    // Short write: drop the fully sent pieces, trim the partial one.
    size_t sent = static_cast<size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return true;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

namespace {

// strerror_r has two signatures: GNU returns char* (possibly a static
// string, ignoring buf), XSI returns int (filling buf). Overload dispatch
// normalizes both without a feature-test-macro #if maze; only one overload
// is instantiated per platform, hence maybe_unused.
[[maybe_unused]] const char* StrerrorResult(const char* result, const char*) {
  return result;
}
[[maybe_unused]] const char* StrerrorResult(int result, const char* buf) {
  return result == 0 ? buf : "unknown error";
}

}  // namespace

std::string ErrnoMessage(int err) {
  char buf[128] = "unknown error";
  return StrerrorResult(::strerror_r(err, buf, sizeof(buf)), buf);
}

}  // namespace net
}  // namespace magic
