#ifndef MAGIC_NET_WIRE_H_
#define MAGIC_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace magic {
namespace net {

/// The magicdb line protocol, frame layer.
///
/// Every message — request or response — is one *frame*: a 4-byte
/// big-endian payload length followed by that many bytes of UTF-8 text.
/// Requests are single frames; most responses are too. The exceptions are
/// STREAM (any number of `*`-prefixed row frames, then one final status
/// frame) — see Session for the verb grammar.
///
/// The first whitespace-delimited token of every response frame's first
/// line is a WireCode name from util/status.h's kWireCodeTable. That is
/// the whole error model: the server, the CLI, and the batch tool all map
/// outcomes through that one table, so a client turns any response into
/// an exit code without a per-surface switch.

/// Hard ceiling on *request* frames the server will read; a longer length
/// prefix is a protocol error and closes the connection (the peer is
/// either hostile or not speaking this protocol — resynchronizing inside
/// the stream is not possible once framing is untrusted).
inline constexpr size_t kMaxRequestFrame = size_t{4} << 20;  // 4 MiB

/// Ceiling on frames the *client* will read. Replies carry whole answer
/// sets, so this is deliberately roomy.
inline constexpr size_t kMaxReplyFrame = size_t{256} << 20;

enum class FrameResult {
  kOk,         // *out holds one complete payload
  kEof,        // clean end of stream on a frame boundary
  kTorn,       // peer vanished mid-frame (header or payload cut short)
  kOversized,  // length prefix exceeds the caller's maximum
  kError,      // transport error (errno-level)
};

/// Reads one frame, blocking. On kOversized no payload bytes have been
/// consumed (the caller must close the connection — the stream can no
/// longer be trusted to be on a frame boundary).
FrameResult ReadFrame(int fd, size_t max_payload, std::string* out);

/// Writes one frame (header + payload), handling short writes. Returns
/// false on any transport error, including a peer that hung up (EPIPE is
/// suppressed via MSG_NOSIGNAL; it reports as false, not a signal).
///
/// Latency invariant: a frame leaves in ONE syscall (header and payload
/// gathered by sendmsg; only a short write loops), and every TCP socket
/// that carries frames has TCP_NODELAY set (SetNoDelay, on the accepted
/// fd and on the client fd). Both halves matter. Two sends per frame let
/// Nagle's algorithm hold the payload behind the unacknowledged header
/// until the peer's delayed ACK fires, ~40 ms later, on every frame. One
/// send per frame fixes a request/reply exchange, but a STREAM reply is
/// many frames back to back, and without TCP_NODELAY each row frame after
/// the first again waits for the delayed ACK. The NetStallTest suite
/// fails on either regression.
bool WriteFrame(int fd, std::string_view payload);

/// Sets TCP_NODELAY on a connected TCP socket (see WriteFrame). Best
/// effort: a socket without it still works, only slower.
void SetNoDelay(int fd);

/// Thread-safe strerror for status messages: std::strerror formats into a
/// shared static buffer (clang-tidy concurrency-mt-unsafe), and this layer
/// fails from many session threads at once. Formats via strerror_r into a
/// local buffer instead.
std::string ErrnoMessage(int err);

}  // namespace net
}  // namespace magic

#endif  // MAGIC_NET_WIRE_H_
