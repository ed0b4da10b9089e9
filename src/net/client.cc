#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

namespace magic {
namespace net {

MagicClient::~MagicClient() { Close(); }

MagicClient::MagicClient(MagicClient&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

MagicClient& MagicClient::operator=(MagicClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<MagicClient> MagicClient::Connect(const std::string& host,
                                         uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket: " + ErrnoMessage(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::Internal("connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 ErrnoMessage(errno));
    ::close(fd);
    return st;
  }
  SetNoDelay(fd);
  return MagicClient(fd);
}

MagicClient::Reply ParseReply(const std::string& frame) {
  MagicClient::Reply reply;
  std::istringstream in(frame);
  std::string first_line;
  std::getline(in, first_line);
  size_t space = first_line.find(' ');
  std::string token =
      space == std::string::npos ? first_line : first_line.substr(0, space);
  if (std::optional<WireCode> code = WireCodeFromName(token)) {
    reply.code = *code;
    reply.head =
        space == std::string::npos ? std::string() : first_line.substr(space + 1);
  } else {
    reply.code = WireCode::kProtocol;
    reply.head = "unparseable response head: " + first_line;
  }
  std::string line;
  while (std::getline(in, line)) reply.lines.push_back(std::move(line));
  return reply;
}

Result<MagicClient::Reply> MagicClient::Call(const std::string& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  if (!WriteFrame(fd_, request)) {
    return Status::Internal("connection lost while sending request");
  }
  std::string frame;
  FrameResult result = ReadFrame(fd_, kMaxReplyFrame, &frame);
  if (result != FrameResult::kOk) {
    return Status::Internal("connection lost while reading response");
  }
  return ParseReply(frame);
}

Result<MagicClient::Reply> MagicClient::Stream(
    const std::string& request,
    const std::function<bool(const std::string&)>& on_row) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  if (!WriteFrame(fd_, request)) {
    return Status::Internal("connection lost while sending request");
  }
  std::string frame;
  while (true) {
    FrameResult result = ReadFrame(fd_, kMaxReplyFrame, &frame);
    if (result != FrameResult::kOk) {
      return Status::Internal("connection lost mid-stream");
    }
    if (!frame.empty() && frame[0] == '*') {
      if (!on_row(frame.substr(1))) {
        // Consumer abandoned the stream: hang up so the server cancels
        // the evaluation instead of deriving rows nobody reads.
        Close();
        Reply reply;
        reply.code = WireCode::kCancelled;
        reply.head = "stream abandoned by consumer";
        return reply;
      }
      continue;
    }
    return ParseReply(frame);
  }
}

void MagicClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace net
}  // namespace magic
