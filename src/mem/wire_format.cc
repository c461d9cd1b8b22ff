#include "mem/wire_format.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "util/fault_injector.h"

namespace angelptm::mem::wire {

namespace {

void PutU16(std::byte* out, uint16_t v) { std::memcpy(out, &v, 2); }
void PutU32(std::byte* out, uint32_t v) { std::memcpy(out, &v, 4); }
void PutU64(std::byte* out, uint64_t v) { std::memcpy(out, &v, 8); }
uint16_t GetU16(const std::byte* in) {
  uint16_t v;
  std::memcpy(&v, in, 2);
  return v;
}
uint32_t GetU32(const std::byte* in) {
  uint32_t v;
  std::memcpy(&v, in, 4);
  return v;
}
uint64_t GetU64(const std::byte* in) {
  uint64_t v;
  std::memcpy(&v, in, 8);
  return v;
}

util::Status PeerClosed(const char* what) {
  return util::Status::IoError(std::string("wire: ") + kPeerClosedMsg +
                               " during " + what);
}

/// Blocks until `fd` is ready for `events` or the deadline passes.
util::Status PollFor(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n > 0) return util::Status::OK();
    if (n == 0) {
      return util::Status::DeadlineExceeded("wire: frame I/O timed out");
    }
    if (errno == EINTR) continue;
    return util::Status::IoError(std::string("wire: poll failed: ") +
                                 std::strerror(errno));
  }
}

util::Status WriteFull(int fd, const void* buf, size_t len) {
  const auto* p = static_cast<const std::byte*>(buf);
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::send(fd, p + done, len - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += size_t(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return PeerClosed("send");
    }
    return util::Status::IoError(std::string("wire: send failed: ") +
                                 std::strerror(errno));
  }
  return util::Status::OK();
}

util::Status ReadFull(int fd, void* buf, size_t len, int timeout_ms) {
  auto* p = static_cast<std::byte*>(buf);
  size_t done = 0;
  while (done < len) {
    ANGEL_RETURN_IF_ERROR(PollFor(fd, POLLIN, timeout_ms));
    const ssize_t n = ::recv(fd, p + done, len - done, 0);
    if (n > 0) {
      done += size_t(n);
      continue;
    }
    if (n == 0) return PeerClosed("recv");
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) return PeerClosed("recv");
    return util::Status::IoError(std::string("wire: recv failed: ") +
                                 std::strerror(errno));
  }
  return util::Status::OK();
}

}  // namespace

void EncodeHeader(const Header& header, std::byte* out) {
  PutU32(out + 0, kMagic);
  PutU16(out + 4, uint16_t(header.op));
  PutU16(out + 6, header.rank);
  PutU32(out + 8, header.seq);
  PutU32(out + 12, 0);
  PutU64(out + 16, header.payload_bytes);
}

util::Result<Header> DecodeHeader(const std::byte* in) {
  if (GetU32(in + 0) != kMagic) {
    return util::Status::InvalidArgument(
        "wire: bad frame magic (desynchronized or corrupt stream)");
  }
  const uint16_t op = GetU16(in + 4);
  if (op < uint16_t(Op::kHello) || op > uint16_t(Op::kResult)) {
    return util::Status::InvalidArgument("wire: unknown frame op " +
                                         std::to_string(op));
  }
  Header header;
  header.op = Op(op);
  header.rank = GetU16(in + 6);
  header.seq = GetU32(in + 8);
  header.payload_bytes = GetU64(in + 16);
  return header;
}

util::Status SendFrame(int fd, const Header& header, const void* payload) {
  std::byte head[kHeaderBytes];
  EncodeHeader(header, head);
  ANGEL_RETURN_IF_ERROR(WriteFull(fd, head, kHeaderBytes));
  if (header.payload_bytes > 0) {
    ANGEL_FAULT_CHECK("wire.send_payload");
    ANGEL_RETURN_IF_ERROR(WriteFull(fd, payload, header.payload_bytes));
  }
  return util::Status::OK();
}

util::Status RecvFrame(int fd, Header* header, std::span<std::byte> payload,
                       int timeout_ms) {
  std::byte head[kHeaderBytes];
  ANGEL_RETURN_IF_ERROR(ReadFull(fd, head, kHeaderBytes, timeout_ms));
  ANGEL_ASSIGN_OR_RETURN(*header, DecodeHeader(head));
  // The size comes from the peer: a frame of any other size than the
  // caller expects is refused before a payload byte is read.
  if (header->payload_bytes != payload.size()) {
    return util::Status::InvalidArgument(
        "wire: frame claims " + std::to_string(header->payload_bytes) +
        " payload bytes, the receiver expects " +
        std::to_string(payload.size()));
  }
  if (payload.empty()) return util::Status::OK();
  return ReadFull(fd, payload.data(), payload.size(), timeout_ms);
}

}  // namespace angelptm::mem::wire
