#include "src/net/protocol.h"

#include <cstring>

namespace net {

namespace {

void PutU16(std::string* out, uint16_t v) {
  for (int i = 0; i < 2; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

int64_t GetI64(const uint8_t* p) { return static_cast<int64_t>(GetU64(p)); }

bool ValidType(uint8_t t) {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kTxn:
    case MsgType::kHttpGet:
    case MsgType::kPing:
    case MsgType::kClockSync:
    case MsgType::kTxnReply:
    case MsgType::kHttpReply:
    case MsgType::kPong:
    case MsgType::kRejected:
    case MsgType::kError:
    case MsgType::kClockSyncReply:
      return true;
  }
  return false;
}

// Exact payload byte counts for the fixed-size types; -1 = variable (kTxn).
int FixedPayloadBytes(MsgType type) {
  switch (type) {
    case MsgType::kTxn:
      return -1;
    case MsgType::kHttpGet:
      return 8;
    case MsgType::kPing:
    case MsgType::kPong:
    case MsgType::kRejected:
      return 0;
    case MsgType::kClockSync:
      return 8;  // t1
    case MsgType::kClockSyncReply:
      return 16;  // t1 echo + t2
    case MsgType::kTxnReply:
      return 10;  // status + error + trx id
    case MsgType::kHttpReply:
      return 9;  // status + bytes served
    case MsgType::kError:
      return 1;  // WireError
  }
  return -1;
}

// Serialized extension payload sizes.
constexpr uint8_t kTraceContextBytes = 8 + 8 + 1 + 8;
constexpr uint8_t kServerTimingBytes = 8 + 8 + 8 + 4;

}  // namespace

void EncodeFrame(const Frame& frame, std::string* out) {
  const size_t length_at = out->size();
  PutU32(out, 0);  // patched below
  const bool has_ext = frame.has_trace_context || frame.has_server_timing;
  out->push_back(static_cast<char>(static_cast<uint8_t>(frame.type) |
                                   (has_ext ? kExtensionFlag : 0)));
  PutU64(out, frame.request_id);
  if (has_ext) {
    const uint8_t count = static_cast<uint8_t>(
        (frame.has_trace_context ? 1 : 0) + (frame.has_server_timing ? 1 : 0));
    out->push_back(static_cast<char>(count));
    if (frame.has_trace_context) {
      out->push_back(static_cast<char>(ExtType::kTraceContext));
      out->push_back(static_cast<char>(kTraceContextBytes));
      PutU64(out, frame.trace_context.interval_id);
      PutU64(out, frame.trace_context.span_id);
      out->push_back(static_cast<char>(frame.trace_context.origin_service));
      PutI64(out, frame.trace_context.send_time_ns);
    }
    if (frame.has_server_timing) {
      out->push_back(static_cast<char>(ExtType::kServerTiming));
      out->push_back(static_cast<char>(kServerTimingBytes));
      PutU64(out, frame.server_timing.span_id);
      PutI64(out, frame.server_timing.recv_time_ns);
      PutI64(out, frame.server_timing.reply_time_ns);
      PutU32(out, static_cast<uint32_t>(frame.server_timing.worker_tid));
    }
  }
  switch (frame.type) {
    case MsgType::kTxn: {
      out->push_back(static_cast<char>(frame.txn.type));
      PutU32(out, static_cast<uint32_t>(frame.txn.warehouse));
      PutU32(out, static_cast<uint32_t>(frame.txn.district));
      PutU64(out, static_cast<uint64_t>(frame.txn.customer));
      PutU16(out, static_cast<uint16_t>(frame.txn.items.size()));
      for (int64_t item : frame.txn.items) {
        PutU64(out, static_cast<uint64_t>(item));
      }
      break;
    }
    case MsgType::kHttpGet:
      PutU64(out, frame.file_id);
      break;
    case MsgType::kPing:
    case MsgType::kPong:
    case MsgType::kRejected:
      break;
    case MsgType::kClockSync:
      PutI64(out, frame.t1_ns);
      break;
    case MsgType::kClockSyncReply:
      PutI64(out, frame.t1_ns);
      PutI64(out, frame.t2_ns);
      break;
    case MsgType::kTxnReply:
      out->push_back(static_cast<char>(frame.status));
      out->push_back(static_cast<char>(frame.error));
      PutU64(out, frame.value);
      break;
    case MsgType::kHttpReply:
      out->push_back(static_cast<char>(frame.status));
      PutU64(out, frame.value);
      break;
    case MsgType::kError:
      out->push_back(static_cast<char>(frame.error));
      break;
  }
  const uint32_t length =
      static_cast<uint32_t>(out->size() - length_at - kLengthBytes);
  for (int i = 0; i < 4; ++i) {
    (*out)[length_at + static_cast<size_t>(i)] =
        static_cast<char>((length >> (8 * i)) & 0xff);
  }
}

WireError DecodeFrame(const uint8_t* data, size_t size, Frame* out,
                      size_t* consumed) {
  *consumed = 0;
  if (size < kLengthBytes) {
    return WireError::kNeedMore;
  }
  const uint32_t length = GetU32(data);
  // A length that cannot even hold type + request_id is as malformed as an
  // oversized one; both mean the stream is not speaking this protocol.
  if (length < kFrameOverhead || length > kMaxFrameBytes) {
    return WireError::kOversized;
  }
  if (size < kLengthBytes + length) {
    return WireError::kNeedMore;
  }
  const uint8_t* p = data + kLengthBytes;
  const uint8_t wire_type = p[0];
  const uint8_t base_type = wire_type & static_cast<uint8_t>(~kExtensionFlag);
  if (!ValidType(base_type)) {
    return WireError::kBadType;
  }
  Frame frame;
  frame.type = static_cast<MsgType>(base_type);
  frame.request_id = GetU64(p + 1);

  // Optional header-extension block between the request id and the payload.
  const uint8_t* q = p + kFrameOverhead;
  const uint8_t* frame_end = p + length;
  if (wire_type & kExtensionFlag) {
    if (q >= frame_end) {
      return WireError::kBadExtension;
    }
    const uint8_t count = *q++;
    if (count == 0 || count > kMaxExtensions) {
      return WireError::kBadExtension;
    }
    for (uint8_t i = 0; i < count; ++i) {
      if (frame_end - q < 2) {
        return WireError::kBadExtension;
      }
      const uint8_t ext_type = q[0];
      const uint8_t ext_len = q[1];
      q += 2;
      if (frame_end - q < ext_len) {
        return WireError::kBadExtension;
      }
      switch (static_cast<ExtType>(ext_type)) {
        case ExtType::kTraceContext: {
          if (ext_len != kTraceContextBytes) {
            return WireError::kBadExtension;
          }
          frame.trace_context.interval_id = GetU64(q);
          frame.trace_context.span_id = GetU64(q + 8);
          const uint8_t service = q[16];
          if (service > static_cast<uint8_t>(ServiceId::kMinipg)) {
            return WireError::kBadExtension;
          }
          frame.trace_context.origin_service = static_cast<ServiceId>(service);
          frame.trace_context.send_time_ns = GetI64(q + 17);
          frame.has_trace_context = true;
          break;
        }
        case ExtType::kServerTiming: {
          if (ext_len != kServerTimingBytes) {
            return WireError::kBadExtension;
          }
          frame.server_timing.span_id = GetU64(q);
          frame.server_timing.recv_time_ns = GetI64(q + 8);
          frame.server_timing.reply_time_ns = GetI64(q + 16);
          frame.server_timing.worker_tid =
              static_cast<int32_t>(GetU32(q + 24));
          frame.has_server_timing = true;
          break;
        }
        default:
          break;  // unknown extension: skip, old peers stay compatible
      }
      q += ext_len;
    }
  }
  const uint8_t* payload = q;
  const size_t payload_len = static_cast<size_t>(frame_end - q);

  const int fixed = FixedPayloadBytes(frame.type);
  if (fixed >= 0 && payload_len != static_cast<size_t>(fixed)) {
    return WireError::kBadPayload;
  }
  switch (frame.type) {
    case MsgType::kTxn: {
      // u8 txn type | u32 warehouse | u32 district | u64 customer |
      // u16 n_items | u64 items[n]  — exact size, bounded item count.
      if (payload_len < 1 + 4 + 4 + 8 + 2) {
        return WireError::kBadPayload;
      }
      const uint8_t txn_type = payload[0];
      if (txn_type > static_cast<uint8_t>(minidb::TxnType::kStockLevel)) {
        return WireError::kBadPayload;
      }
      frame.txn.type = static_cast<minidb::TxnType>(txn_type);
      frame.txn.warehouse = static_cast<int>(GetU32(payload + 1));
      frame.txn.district = static_cast<int>(GetU32(payload + 5));
      frame.txn.customer = static_cast<int64_t>(GetU64(payload + 9));
      const uint16_t n = GetU16(payload + 17);
      if (n > kMaxTxnItems || payload_len != 1 + 4 + 4 + 8 + 2 + 8ull * n) {
        return WireError::kBadPayload;
      }
      frame.txn.items.resize(n);
      for (uint16_t i = 0; i < n; ++i) {
        frame.txn.items[i] = static_cast<int64_t>(GetU64(payload + 19 + 8 * i));
      }
      break;
    }
    case MsgType::kHttpGet:
      frame.file_id = GetU64(payload);
      break;
    case MsgType::kPing:
    case MsgType::kPong:
    case MsgType::kRejected:
      break;
    case MsgType::kClockSync:
      frame.t1_ns = GetI64(payload);
      break;
    case MsgType::kClockSyncReply:
      frame.t1_ns = GetI64(payload);
      frame.t2_ns = GetI64(payload + 8);
      break;
    case MsgType::kTxnReply:
      frame.status = payload[0];
      frame.error = payload[1];
      if (frame.error > static_cast<uint8_t>(minidb::TxnError::kShutdown)) {
        return WireError::kBadPayload;
      }
      frame.value = GetU64(payload + 2);
      break;
    case MsgType::kHttpReply:
      frame.status = payload[0];
      frame.value = GetU64(payload + 1);
      break;
    case MsgType::kError:
      frame.error = payload[0];
      if (frame.error > static_cast<uint8_t>(WireError::kBadExtension)) {
        return WireError::kBadPayload;
      }
      break;
  }
  *out = std::move(frame);
  *consumed = kLengthBytes + length;
  return WireError::kOk;
}

WireError FrameParser::Feed(const uint8_t* data, size_t size,
                            std::vector<Frame>* out) {
  if (error_ != WireError::kOk) {
    return error_;  // poisoned: nothing after a violation may dispatch
  }
  // Common case: no partial frame buffered — parse in place, buffer only the
  // trailing prefix. Otherwise append and parse out of the buffer.
  const uint8_t* cursor = data;
  size_t remaining = size;
  if (!buffer_.empty()) {
    buffer_.insert(buffer_.end(), data, data + size);
    cursor = buffer_.data();
    remaining = buffer_.size();
  }
  size_t offset = 0;
  while (true) {
    Frame frame;
    size_t consumed = 0;
    const WireError err =
        DecodeFrame(cursor + offset, remaining - offset, &frame, &consumed);
    if (err == WireError::kOk) {
      out->push_back(std::move(frame));
      offset += consumed;
      continue;
    }
    if (err == WireError::kNeedMore) {
      break;
    }
    if (err == WireError::kBadType || err == WireError::kBadExtension) {
      // Frame-local violation with a trustworthy length (DecodeFrame only
      // reports these once the whole declared frame is in the buffer): skip
      // exactly this frame and surface it so the server answers a typed
      // kError instead of killing the connection. Version skew — a newer
      // peer's frame type or extension — must not poison the stream.
      const uint8_t* f = cursor + offset;
      const uint32_t length = GetU32(f);
      Frame skipped;
      skipped.decode_error = err;
      skipped.raw_type = f[kLengthBytes];
      skipped.request_id = GetU64(f + kLengthBytes + 1);
      out->push_back(std::move(skipped));
      ++recovered_frames_;
      offset += kLengthBytes + length;
      continue;
    }
    error_ = err;
    buffer_.clear();
    return err;
  }
  if (buffer_.empty()) {
    buffer_.assign(cursor + offset, cursor + remaining);
  } else {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(offset));
  }
  return WireError::kOk;
}

}  // namespace net
