#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace magic {
namespace net {

MagicServer::MagicServer(std::shared_ptr<Universe> universe,
                         const Program& program, QueryService* service,
                         ServerOptions options)
    : options_(std::move(options)) {
  ctx_.universe = std::move(universe);
  ctx_.program = &program;
  ctx_.service = service;
  // "Serving started" is now: predicates declared from here on are above
  // the freeze line and every session rejects requests that use them.
  ctx_.frozen_preds = ctx_.universe->predicates().size();
  ctx_.max_request_frame = options_.max_request_frame;
  ctx_.metrics =
      NetMetrics::Register(service->metrics(), service->obs_enabled());
}

MagicServer::~MagicServer() { Stop(); }

Status MagicServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket: " + ErrnoMessage(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::Internal("bind " + options_.host + ":" +
                                 std::to_string(options_.port) + ": " +
                                 ErrnoMessage(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status st = Status::Internal("listen: " + ErrnoMessage(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  started_ = true;
  accept_thread_ = std::thread(&MagicServer::AcceptLoop, this);
  return Status::OK();
}

void MagicServer::Stop() {
  if (!started_) return;
  stopping_.store(true);
  // Wake the accept loop: shutdown makes the pending poll/accept fail
  // immediately (close alone would race a concurrent accept on the fd).
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Unblock every session parked in recv, then join. Sessions close their
  // own fd when they return, so the fd stays valid until the join.
  {
    MutexLock lock(sessions_mutex_);
    for (auto& [id, conn] : sessions_) {
      if (!conn.finished) ::shutdown(conn.fd, SHUT_RDWR);
    }
  }
  while (true) {
    std::thread thread;
    {
      MutexLock lock(sessions_mutex_);
      auto it = sessions_.begin();
      if (it == sessions_.end()) break;
      thread = std::move(it->second.thread);
      sessions_.erase(it);
    }
    if (thread.joinable()) thread.join();
  }
  started_ = false;
  stopping_.store(false);
}

void MagicServer::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (stopping_.load()) return;
    ReapFinished();
    if (ready <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (stopping_.load()) return;
      continue;
    }
    SetNoDelay(fd);
    // Behind one server, this loop is the only thread that raises the
    // gauge, so the check and the Add below cannot overshoot the bound.
    if (ctx_.metrics.connections->value() >=
        static_cast<int64_t>(options_.max_connections)) {
      WriteFrame(fd, std::string(WireCodeName(WireCode::kOverloaded)) +
                         " too many connections");
      ::close(fd);
      continue;
    }
    ctx_.metrics.connections->Add(1);
    uint64_t id;
    {
      MutexLock lock(sessions_mutex_);
      id = next_session_id_++;
      sessions_[id].fd = fd;
    }
    std::thread thread(&MagicServer::RunSession, this, id, fd);
    {
      MutexLock lock(sessions_mutex_);
      sessions_[id].thread = std::move(thread);
    }
  }
}

void MagicServer::RunSession(uint64_t id, int fd) {
  Session session(fd, &ctx_);
  session.Run();
  ctx_.metrics.connections->Add(-1);
  // close + finished flip together under the lock, so Stop() never
  // shutdown()s an fd number the kernel may have already reused.
  MutexLock lock(sessions_mutex_);
  ::close(fd);
  auto it = sessions_.find(id);
  if (it != sessions_.end()) it->second.finished = true;
}

void MagicServer::ReapFinished() {
  std::vector<std::thread> done;
  {
    MutexLock lock(sessions_mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second.finished && it->second.thread.joinable()) {
        done.push_back(std::move(it->second.thread));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& thread : done) thread.join();
}

}  // namespace net
}  // namespace magic
