// Contract tests for the socket framing (mem/wire_format.h): every frame a
// peer can send, well-formed or not, yields a Status from RecvFrame.

#include "mem/wire_format.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace angelptm::mem::wire {
namespace {

/// A connected socketpair; either end can be closed early.
class SocketPair {
 public:
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    send_fd_ = fds[0];
    recv_fd_ = fds[1];
  }
  ~SocketPair() {
    CloseSender();
    if (recv_fd_ >= 0) ::close(recv_fd_);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  int send_fd() const { return send_fd_; }
  int recv_fd() const { return recv_fd_; }
  void CloseSender() {
    if (send_fd_ >= 0) ::close(send_fd_);
    send_fd_ = -1;
  }
  /// Writes raw bytes, bypassing SendFrame's encoding.
  void WriteRaw(const void* data, size_t bytes) {
    ASSERT_EQ(::write(send_fd_, data, bytes), ssize_t(bytes));
  }

 private:
  int send_fd_ = -1;
  int recv_fd_ = -1;
};

constexpr int kTimeoutMs = 2000;

/// Encodes `header` and patches its op field (offset 4) to `op`, so values
/// outside the Op enum can be put on the wire.
void WriteHeaderWithOp(SocketPair* pair, const Header& header, uint16_t op) {
  std::byte head[kHeaderBytes];
  EncodeHeader(header, head);
  std::memcpy(head + 4, &op, sizeof(op));
  pair->WriteRaw(head, kHeaderBytes);
}

TEST(WireFormatTest, BadMagicIsInvalidArgument) {
  SocketPair pair;
  std::byte head[kHeaderBytes];
  EncodeHeader(Header{}, head);
  head[0] ^= std::byte{0xFF};
  pair.WriteRaw(head, kHeaderBytes);
  Header got;
  EXPECT_TRUE(
      RecvFrame(pair.recv_fd(), &got, {}, kTimeoutMs).IsInvalidArgument());
}

TEST(WireFormatTest, UnknownOpsAreInvalidArgument) {
  for (const uint16_t op : {uint16_t{0}, uint16_t{9}, uint16_t{0xFFFF}}) {
    SocketPair pair;
    WriteHeaderWithOp(&pair, Header{}, op);
    Header got;
    EXPECT_TRUE(
        RecvFrame(pair.recv_fd(), &got, {}, kTimeoutMs).IsInvalidArgument())
        << "op " << op;
  }
}

TEST(WireFormatTest, RetiredPageOpIsInvalidArgument) {
  // Op 1 is retired and nothing sends it, so a frame carrying it is a
  // corrupt stream.
  SocketPair pair;
  Header header;
  header.payload_bytes = 64;
  WriteHeaderWithOp(&pair, header, 1);
  Header got;
  std::vector<std::byte> payload(64);
  EXPECT_TRUE(RecvFrame(pair.recv_fd(), &got, std::span<std::byte>(payload),
                        kTimeoutMs)
                  .IsInvalidArgument());
}

TEST(WireFormatTest, FrameRoundTripsIntoTheCallersBuffer) {
  SocketPair pair;
  const std::vector<float> sent = {1.5f, -2.0f, 3.25f, 0.0f};
  Header header;
  header.op = Op::kResult;
  header.rank = 3;
  header.seq = 7;
  header.payload_bytes = sent.size() * sizeof(float);
  ASSERT_TRUE(SendFrame(pair.send_fd(), header, sent.data()).ok());

  Header got;
  std::vector<float> received(sent.size());
  const util::Status status =
      RecvFrame(pair.recv_fd(), &got,
                std::as_writable_bytes(std::span<float>(received)),
                kTimeoutMs);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(got.op, Op::kResult);
  EXPECT_EQ(got.rank, 3);
  EXPECT_EQ(got.seq, 7u);
  EXPECT_EQ(received, sent);
}

/// Sends a frame of `sent` payload bytes and receives it into a buffer of
/// `expected` bytes: it must be refused with no payload byte written.
void ExpectSizeMismatchRefused(size_t sent, size_t expected) {
  SocketPair pair;
  const std::vector<std::byte> payload(sent, std::byte{0x5A});
  Header header;
  header.op = Op::kResult;
  header.payload_bytes = sent;
  ASSERT_TRUE(SendFrame(pair.send_fd(), header, payload.data()).ok());
  std::vector<std::byte> buffer(expected, std::byte{0x11});
  Header got;
  const util::Status status =
      RecvFrame(pair.recv_fd(), &got, std::span<std::byte>(buffer),
                kTimeoutMs);
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_EQ(buffer, std::vector<std::byte>(expected, std::byte{0x11}));
}

TEST(WireFormatTest, TooLargeFrameForTheCallersBufferIsRefused) {
  ExpectSizeMismatchRefused(/*sent=*/64, /*expected=*/16);
}

TEST(WireFormatTest, TooSmallFrameForTheCallersBufferIsRefused) {
  ExpectSizeMismatchRefused(/*sent=*/8, /*expected=*/16);
}

TEST(WireFormatTest, TruncatedPayloadIsPeerClosed) {
  SocketPair pair;
  Header header;
  header.op = Op::kResult;
  header.payload_bytes = 100;
  std::byte head[kHeaderBytes];
  EncodeHeader(header, head);
  pair.WriteRaw(head, kHeaderBytes);
  const std::vector<std::byte> part(10, std::byte{0x5A});
  pair.WriteRaw(part.data(), part.size());
  pair.CloseSender();
  Header got;
  std::vector<std::byte> payload(100);
  const util::Status status = RecvFrame(
      pair.recv_fd(), &got, std::span<std::byte>(payload), kTimeoutMs);
  EXPECT_TRUE(status.IsIoError()) << status;
  EXPECT_NE(status.message().find(kPeerClosedMsg), std::string::npos);
}

TEST(WireFormatTest, ClosedPeerIsPeerClosed) {
  SocketPair pair;
  pair.CloseSender();
  Header got;
  const util::Status status = RecvFrame(pair.recv_fd(), &got, {}, kTimeoutMs);
  EXPECT_TRUE(status.IsIoError()) << status;
  EXPECT_NE(status.message().find(kPeerClosedMsg), std::string::npos);
}

TEST(WireFormatTest, SilentPeerTimesOut) {
  SocketPair pair;
  Header got;
  EXPECT_EQ(RecvFrame(pair.recv_fd(), &got, {}, /*timeout_ms=*/20).code(),
            util::StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace angelptm::mem::wire
