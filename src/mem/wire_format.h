#ifndef ANGELPTM_MEM_WIRE_FORMAT_H_
#define ANGELPTM_MEM_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/status.h"

namespace angelptm::mem::wire {

/// The wire framing of the multi-process socket collectives
/// (dist/process_group.cc): a fixed-size header before every payload, with
/// its integrity checks (magic, known op, a payload size the receiver
/// accepts) applied before any payload byte is read.
///
/// Layout (24 bytes, host byte order — the transport never leaves one
/// host, see DESIGN.md §14.2):
///
///   offset  size  field
///        0     4  magic   0x4150544D ("APTM")
///        4     2  op      message kind (Op below)
///        6     2  rank    sender rank / server id
///        8     4  seq     per-connection collective sequence number
///       12     4  reserved (zero)
///       16     8  payload_bytes
inline constexpr uint32_t kMagic = 0x4150544Du;
inline constexpr size_t kHeaderBytes = 24;

/// Message kinds of dist::ProcessGroup's hub protocol. Op 1 is retired:
/// DecodeHeader rejects it like any unknown op.
enum class Op : uint16_t {
  kHello = 2,          // rank -> root at rendezvous; payload: u32 world_size
  kWelcome = 3,        // root -> rank once the full world has joined
  kAllGather = 4,      // rank -> root: my contribution
  kReduceScatter = 5,  // rank -> root: my full gradient buffer
  kAllReduce = 6,      // rank -> root: my full buffer
  kBarrier = 7,        // rank -> root: empty
  kResult = 8,         // root -> rank: the collective's result
};

struct Header {
  Op op = Op::kHello;
  uint16_t rank = 0;
  uint32_t seq = 0;
  uint64_t payload_bytes = 0;
};

/// Serializes `header` into exactly kHeaderBytes at `out`.
void EncodeHeader(const Header& header, std::byte* out);

/// Parses kHeaderBytes at `in`. InvalidArgument on a bad magic or an
/// unknown op — a desynchronized or corrupted stream, never silently
/// resynchronized.
[[nodiscard]] util::Result<Header> DecodeHeader(const std::byte* in);

// --- Framed socket I/O ---

/// Writes header + `header.payload_bytes` of `payload` to `fd`, looping
/// over partial writes and EINTR. Uses MSG_NOSIGNAL so a dead peer surfaces
/// as an IoError instead of SIGPIPE. A closed peer yields an IoError whose
/// message contains kPeerClosedMsg. An error may come after part of the
/// frame was written; the `wire.send_payload` failpoint models one between
/// the header and a non-empty payload.
[[nodiscard]] util::Status SendFrame(int fd, const Header& header,
                                     const void* payload);

/// Reads one frame from `fd` into `header` and straight into `payload`,
/// which is exactly the payload the caller expects: a header claiming any
/// other size returns InvalidArgument before a payload byte lands.
/// `timeout_ms` < 0 waits forever; on expiry returns DeadlineExceeded. EOF
/// (peer process died) returns an IoError whose message contains
/// kPeerClosedMsg.
[[nodiscard]] util::Status RecvFrame(int fd, Header* header,
                                     std::span<std::byte> payload,
                                     int timeout_ms);

/// Substring that marks an IoError as "the peer went away" (fail-stop
/// detection; see ProcessGroup::IsPeerLoss).
inline constexpr const char* kPeerClosedMsg = "peer closed";

}  // namespace angelptm::mem::wire

#endif  // ANGELPTM_MEM_WIRE_FORMAT_H_
