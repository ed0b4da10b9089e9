#ifndef MAGIC_NET_SERVER_H_
#define MAGIC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/session.h"
#include "util/annotated_mutex.h"

namespace magic {
namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back via port().
  uint16_t port = 0;
  /// Connection-level admission: accepts beyond this answer one
  /// `Overloaded` frame and close. Checked against the service registry's
  /// `magicdb_net_connections` gauge, so it bounds every server sharing
  /// one QueryService together. (Request-level admission is the service's
  /// max_pending; this bound is about socket/thread fan-in.)
  size_t max_connections = 64;
  size_t max_request_frame = kMaxRequestFrame;
};

/// The TCP serving surface: accepts connections on one listener and runs
/// each as a Session on its own thread (connections are long-lived and
/// bounded by max_connections, so thread-per-connection is the right
/// simplicity/latency trade here — the heavy lifting is already pooled
/// inside QueryService).
///
/// Lifecycle: construct over a live QueryService, Start() binds/listens
/// and spawns the accept loop, Stop() (idempotent; the destructor calls
/// it) shuts the listener down, unblocks every in-flight session read,
/// and joins all threads — in-flight evaluations finish through the
/// cursor drain, so Stop never leaks a worker.
class MagicServer {
 public:
  /// `universe` is the root universe sessions parse against; `program`,
  /// `service`, and the universe must outlive the server. The predicate
  /// freeze line is captured here (constructor time = "serving started").
  MagicServer(std::shared_ptr<Universe> universe, const Program& program,
              QueryService* service, ServerOptions options = {});
  ~MagicServer();

  MagicServer(const MagicServer&) = delete;
  MagicServer& operator=(const MagicServer&) = delete;

  /// Binds, listens, and starts accepting. On success port() is the real
  /// (possibly ephemeral) port.
  Status Start();

  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Stops accepting, disconnects every session, joins all threads.
  void Stop() EXCLUDES(sessions_mutex_);

 private:
  void AcceptLoop() EXCLUDES(sessions_mutex_);
  void RunSession(uint64_t id, int fd) EXCLUDES(sessions_mutex_);
  /// Joins session threads that have finished (called from the accept
  /// loop so a long-lived server does not accumulate dead threads).
  void ReapFinished() EXCLUDES(sessions_mutex_);

  ServeContext ctx_;
  ServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread accept_thread_;

  /// Ranked below the whole service tier: a session thread finishing
  /// holds this while a request of its own may still be draining, and the
  /// server must never hold it while entering QueryService.
  Mutex sessions_mutex_{lock_rank::kServerSessions};
  struct Conn {
    int fd = -1;
    std::thread thread;
    bool finished = false;
  };
  std::unordered_map<uint64_t, Conn> sessions_ GUARDED_BY(sessions_mutex_);
  uint64_t next_session_id_ GUARDED_BY(sessions_mutex_) = 0;
};

}  // namespace net
}  // namespace magic

#endif  // MAGIC_NET_SERVER_H_
