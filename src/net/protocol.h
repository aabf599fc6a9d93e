// Wire protocol of the network front-end: length-prefixed binary frames.
//
// The paper's semantic intervals begin when a request becomes readable on a
// socket; this protocol is the minimal framing that lets the three servers
// (minidb, minipg, httpd) sit behind a real wire boundary. Every frame is
//
//   u32  length      — bytes following this field (type + request id +
//                      extensions + payload); bounded by kMaxFrameBytes
//   u8   type        — MsgType, high bit (kExtensionFlag) set when header
//                      extensions follow the request id
//   u64  request_id  — echoed verbatim in the reply, so clients may pipeline
//                      many requests per connection and match replies out of
//                      order (the server's worker pool does not preserve
//                      per-connection ordering)
//   ...  extensions  — optional, only when the flag bit is set:
//                      u8 count, then per extension u8 ext_type | u8 len |
//                      bytes. Unknown extension types are skipped, so old
//                      peers survive new metadata; malformed blocks are a
//                      typed kBadExtension.
//   ...  payload     — per-type body, exact size enforced
//
// The trace-context extension carries the distributed-profiling identity of a
// request ({interval_id, span_id, origin_service, send time}) into a backend
// tier; the server-timing extension carries the backend's span bookkeeping
// back. Together they let dist::TraceStitcher join per-process traces into
// one semantic interval spanning the wire.
//
// All integers are little-endian. Decoding is strict: short or long
// payloads, out-of-range enum values and oversized lengths are typed errors
// (WireError), never partial frames. DecodeFrame never consumes bytes on an
// error; FrameParser additionally recovers from *frame-local* violations
// (unknown type, malformed extension block) whose declared length is
// trustworthy, by skipping exactly that frame and surfacing it with
// Frame::decode_error set — the connection survives version skew instead of
// being sticky-poisoned.
#ifndef SRC_NET_PROTOCOL_H_
#define SRC_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/minidb/engine.h"  // TxnRequest/TxnType/TxnError shapes

namespace net {

// Frame geometry.
inline constexpr size_t kLengthBytes = 4;
inline constexpr size_t kFrameOverhead = 1 + 8;  // type + request_id
inline constexpr size_t kHeaderBytes = kLengthBytes + kFrameOverhead;
inline constexpr uint32_t kMaxPayloadBytes = 16 * 1024;
inline constexpr uint32_t kMaxFrameBytes =
    static_cast<uint32_t>(kFrameOverhead) + kMaxPayloadBytes;
// NewOrder carries at most a handful of items; anything larger is garbage.
inline constexpr size_t kMaxTxnItems = 64;

// High bit of the wire type byte: header extensions present.
inline constexpr uint8_t kExtensionFlag = 0x80;
// An extension block carries at most this many entries; a count beyond it is
// malformed, not future-proofing (each entry is >= 2 bytes, and no sane
// header needs more).
inline constexpr uint8_t kMaxExtensions = 8;

enum class MsgType : uint8_t {
  // Requests (client -> server).
  kTxn = 1,        // a TPC-C-shaped transaction for minidb/minipg
  kHttpGet = 2,    // a static-file fetch for httpd
  kPing = 3,       // liveness / drain probe
  kClockSync = 4,  // fastclock calibration probe (NTP-style exchange)

  // Replies (server -> client).
  kTxnReply = 16,   // status 0 = committed, 1 = aborted; error = TxnError
  kHttpReply = 17,  // status 0 = 200 OK, 1 = failed; value = bytes served
  kPong = 18,
  kRejected = 19,        // 503: shed at the accept path or the dispatch queue
  kError = 20,           // protocol violation; error = WireError
  kClockSyncReply = 21,  // echoes t1, carries the server receive stamp t2
};

// Header extension types.
enum class ExtType : uint8_t {
  kTraceContext = 1,  // request: origin identity of a distributed interval
  kServerTiming = 2,  // reply: backend span bookkeeping for the stitcher
};

// Which service originated (or answered) a distributed request. Wire-level:
// one byte inside the trace-context extension.
enum class ServiceId : uint8_t {
  kUnknown = 0,
  kFront = 1,   // httpd front tier
  kMinidb = 2,  // minidb backend tier
  kMinipg = 3,  // minipg backend tier
};

// Trace-context extension payload (25 bytes): the identity a front tier
// stamps on an outgoing RPC so the backend can anchor its work to the
// originating semantic interval.
struct TraceContext {
  uint64_t interval_id = 0;    // originating vprof interval (front-tier sid)
  uint64_t span_id = 0;        // unique per RPC within the origin process
  ServiceId origin_service = ServiceId::kUnknown;
  int64_t send_time_ns = 0;    // origin fastclock immediately before send
};

// Server-timing extension payload (28 bytes): the backend's side of a span,
// echoed on the reply so the client-side span log has both halves.
struct ServerTiming {
  uint64_t span_id = 0;
  int64_t recv_time_ns = 0;   // backend fastclock when the frame dispatched
  int64_t reply_time_ns = 0;  // backend fastclock when the reply was built
  int32_t worker_tid = -1;    // backend vprof tid that executed the request
};

// Typed decode failure. kNeedMore is not a failure: the frame is simply not
// complete yet.
enum class WireError : uint8_t {
  kOk = 0,
  kNeedMore = 1,
  kOversized = 2,      // declared length exceeds kMaxFrameBytes (or < overhead)
  kBadType = 3,        // unknown MsgType, or a reply type sent to a server
  kBadPayload = 4,     // payload size/enum/count does not match the type
  kBadExtension = 5,   // extension block overruns the frame or is malformed
};

// One parsed frame. A plain value type: the union-of-fields layout keeps
// encode/decode trivially exhaustive over MsgType.
struct Frame {
  MsgType type = MsgType::kPing;
  uint64_t request_id = 0;

  minidb::TxnRequest txn;  // kTxn
  uint64_t file_id = 0;    // kHttpGet

  uint8_t status = 0;     // kTxnReply / kHttpReply
  uint8_t error = 0;      // kTxnReply: minidb::TxnError; kError: WireError
  uint64_t value = 0;     // kTxnReply: trx id; kHttpReply: bytes served

  int64_t t1_ns = 0;  // kClockSync / kClockSyncReply: client send stamp
  int64_t t2_ns = 0;  // kClockSyncReply: server receive stamp

  // Header extensions (any request or reply type may carry them).
  bool has_trace_context = false;
  TraceContext trace_context;
  bool has_server_timing = false;
  ServerTiming server_timing;

  // Set only on frames synthesized by FrameParser for a recoverable
  // violation (kBadType / kBadExtension): the frame was skipped whole, no
  // typed fields above are meaningful, raw_type holds the offending wire
  // type byte and request_id was salvaged so the server can address a typed
  // kError reply. kOk on every genuinely decoded frame.
  WireError decode_error = WireError::kOk;
  uint8_t raw_type = 0;
};

// Serializes `frame` onto `out` (appends; does not clear). Extensions are
// emitted iff the corresponding has_* flag is set.
void EncodeFrame(const Frame& frame, std::string* out);

// Decodes one frame from [data, data+size). Returns kOk and sets *consumed
// on success; kNeedMore when the buffer holds only a frame prefix (consumed
// is 0); any other value is a protocol violation (consumed is 0 — the caller
// decides whether the declared length is trustworthy enough to skip).
WireError DecodeFrame(const uint8_t* data, size_t size, Frame* out,
                      size_t* consumed);

// Incremental per-connection parser: feed whatever the socket produced,
// collect every completed frame. The internal buffer is bounded by the
// declared frame length (itself bounded by kMaxFrameBytes), so a peer cannot
// grow server memory by dribbling an unterminated frame.
//
// Error handling is two-tier. Violations that leave the declared length
// trustworthy (kBadType, kBadExtension — the frame was fully buffered and
// only its interior is unintelligible) are *recoverable*: the parser skips
// exactly that frame, appends a Frame with decode_error set (request id
// salvaged) so the server can send a typed kError reply, and keeps parsing —
// old peers survive new frame types and header extensions. Violations that
// poison the framing itself (kOversized: the length field is garbage;
// kBadPayload: a known type whose body contradicts its declared size —
// byte-level corruption, not version skew) are sticky: every further Feed
// reports the same error and nothing after the violation may dispatch.
class FrameParser {
 public:
  // Appends completed frames to *out. Returns kOk while the stream is
  // healthy (possibly mid-frame); otherwise the first sticky violation hit.
  WireError Feed(const uint8_t* data, size_t size, std::vector<Frame>* out);

  size_t buffered_bytes() const { return buffer_.size(); }
  WireError error() const { return error_; }
  // Frames skipped-and-reported rather than dispatched (version skew).
  uint64_t recovered_frames() const { return recovered_frames_; }

 private:
  std::vector<uint8_t> buffer_;
  WireError error_ = WireError::kOk;
  uint64_t recovered_frames_ = 0;
};

}  // namespace net

#endif  // SRC_NET_PROTOCOL_H_
