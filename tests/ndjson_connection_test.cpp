// NdjsonConnection over a socketpair: the outbox cap, partial-write resume,
// and how read() hands frames to its handler around an oversized frame, an
// EOF and a handler that closes the connection. The serve and shard suites
// exercise it end to end; these pin the transport contracts directly.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <string>
#include <utility>
#include <vector>

#include "common/net.hpp"
#include "service/ndjson_connection.hpp"

namespace qspr {
namespace {

/// A connected non-blocking pair; `near` gets a small send buffer so a peer
/// that does not read fills it quickly.
struct SocketPair {
  FileDescriptor near;
  FileDescriptor far;
};

SocketPair socket_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  const int send_buffer = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &send_buffer,
               sizeof send_buffer);
  return {FileDescriptor(fds[0]), FileDescriptor(fds[1])};
}

/// Everything readable on `fd` right now.
std::string drain(const FileDescriptor& fd) {
  std::string got;
  char chunk[1000];
  while (true) {
    const IoResult io = read_some(fd.get(), chunk, sizeof chunk);
    if (io.status != IoStatus::Ok) return got;
    got.append(chunk, io.bytes);
  }
}

void send_all(const FileDescriptor& fd, std::string_view bytes) {
  const IoResult io = write_some(fd.get(), bytes);
  ASSERT_EQ(io.status, IoStatus::Ok);
  ASSERT_EQ(io.bytes, bytes.size());
}

TEST(NdjsonConnection, QueuePastTheOutboxCapIsRefused) {
  // While the connect is pending nothing is written, so the outbox holds
  // exactly what was queued: the cap admits up to max_outbox_bytes.
  SocketPair pair = socket_pair();
  NdjsonConnection conn(std::move(pair.near), 1024, /*max_outbox_bytes=*/100,
                        /*connecting=*/true);
  EXPECT_TRUE(conn.queue(std::string(49, 'a')));  // 50 bytes with newline
  EXPECT_TRUE(conn.queue(std::string(49, 'b')));  // 100: exactly the cap
  EXPECT_FALSE(conn.broken());
  EXPECT_FALSE(conn.queue(""));  // one byte more is refused
  EXPECT_TRUE(conn.broken());
  EXPECT_TRUE(conn.finished(/*replies_owed=*/true));
  EXPECT_FALSE(conn.queue("late"));
}

TEST(NdjsonConnection, SlowReaderIsCutAtTheCap) {
  // A peer that never reads: once the kernel buffer is full, replies pile
  // up in the outbox until the next one would pass the cap.
  SocketPair pair = socket_pair();
  constexpr std::size_t kCap = 16 * 1024;
  NdjsonConnection conn(std::move(pair.near), 1024, kCap);
  const std::string line(999, 'x');
  int queued = 0;
  while (conn.queue(line)) {
    ++queued;
    ASSERT_LT(queued, 100000) << "outbox cap never reached";
  }
  EXPECT_TRUE(conn.broken());
  EXPECT_GT(queued, static_cast<int>(kCap / (line.size() + 1)) - 1);
}

TEST(NdjsonConnection, PartialWritesResumeAtTheRightByte) {
  SocketPair pair = socket_pair();
  NdjsonConnection conn(std::move(pair.near), 1024);
  std::string expected;
  std::string received;
  for (int i = 0; i < 200; ++i) {
    std::string line(1500, static_cast<char>('a' + i % 26));
    line += std::to_string(i);
    expected += line + "\n";
    ASSERT_TRUE(conn.queue(line));
    // Read a little now and then, so later lines land behind a partially
    // written outbox and the written prefix gets compacted away.
    if (i % 3 == 0) {
      char chunk[700];
      const IoResult io = read_some(pair.far.get(), chunk, sizeof chunk);
      if (io.status == IoStatus::Ok) received.append(chunk, io.bytes);
    }
  }
  EXPECT_FALSE(conn.outbox_empty());  // the kernel buffer is far smaller
  for (int round = 0; round < 100000 && !conn.outbox_empty(); ++round) {
    received += drain(pair.far);
    ASSERT_TRUE(conn.flush());
  }
  received += drain(pair.far);
  EXPECT_TRUE(conn.outbox_empty());
  EXPECT_EQ(received, expected);
}

TEST(NdjsonConnection, FramesBeforeAnOversizedFrameAreHandled) {
  SocketPair pair = socket_pair();
  NdjsonConnection conn(std::move(pair.near), /*max_frame_bytes=*/16);
  // One write, so one read sees all of it: two frames, a blank keep-alive
  // line, then a frame over the cap and one more that must never surface.
  send_all(pair.far, "first\nsecond\n\n" + std::string(40, 'z') + "\nafter\n");
  std::vector<std::string> frames;
  const NdjsonConnection::ReadEnd end =
      conn.read([&](std::string& frame) { frames.push_back(frame); });
  EXPECT_EQ(end, NdjsonConnection::ReadEnd::Oversized);
  EXPECT_EQ(frames, (std::vector<std::string>{"first", "second"}));
}

TEST(NdjsonConnection, EofDropsAPartialTrailingFrame) {
  SocketPair pair = socket_pair();
  NdjsonConnection conn(std::move(pair.near), 1024);
  send_all(pair.far, "whole\npartial");
  pair.far.reset();
  std::vector<std::string> frames;
  const NdjsonConnection::ReadEnd end =
      conn.read([&](std::string& frame) { frames.push_back(frame); });
  EXPECT_EQ(end, NdjsonConnection::ReadEnd::Closed);
  EXPECT_EQ(frames, (std::vector<std::string>{"whole"}));
  // At EOF it is finished once no reply is owed.
  EXPECT_FALSE(conn.finished(/*replies_owed=*/true));
  EXPECT_TRUE(conn.finished(/*replies_owed=*/false));
  EXPECT_FALSE(conn.poll_entry().want_read);
}

TEST(NdjsonConnection, HandlerThatClosesStopsTheRead) {
  SocketPair pair = socket_pair();
  NdjsonConnection conn(std::move(pair.near), 1024);
  send_all(pair.far, "one\ntwo\n");
  std::vector<std::string> frames;
  const NdjsonConnection::ReadEnd end = conn.read([&](std::string& frame) {
    frames.push_back(frame);
    conn.close_after_flush();
  });
  EXPECT_EQ(end, NdjsonConnection::ReadEnd::Stopped);
  EXPECT_EQ(frames, (std::vector<std::string>{"one"}));
  EXPECT_TRUE(conn.finished(/*replies_owed=*/true));
}

}  // namespace
}  // namespace qspr
