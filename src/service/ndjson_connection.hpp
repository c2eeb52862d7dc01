// NdjsonConnection: one non-blocking newline-delimited JSON socket — the
// descriptor, a FrameReader for what arrives and an outbox for what leaves.
//
// Every event-loop connection of the mapping service is one of these:
// qspr_serve's client connections, and qspr_shard's client connections,
// worker lanes and control lanes. Owners keep only the state that is theirs
// (in-flight registries, lane maps) and decide what a frame means; reading,
// framing, buffering, flushing and the connection's lifecycle flags live
// here once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/net.hpp"
#include "service/request_codec.hpp"

namespace qspr {

class NdjsonConnection {
 public:
  /// How a read() ended.
  enum class ReadEnd : std::uint8_t {
    Drained,    // the socket would block: every available frame was handled
    Stopped,    // a frame handler broke or closed the connection
    Closed,     // orderly EOF; a partial trailing frame is dropped unread
    Error,      // read failure; the connection is now broken
    Oversized,  // a frame exceeded max_frame_bytes; frames before it in the
                // stream were handled, and no later byte ever will be
  };

  /// `fd` must be non-blocking; an invalid one (a refused connect) makes a
  /// broken connection. max_outbox_bytes 0 = uncapped. `connecting` marks a
  /// non-blocking connect still in flight: queued lines wait for
  /// finish_connect().
  NdjsonConnection(FileDescriptor fd, std::size_t max_frame_bytes,
                   std::size_t max_outbox_bytes = 0, bool connecting = false);

  [[nodiscard]] int fd() const { return fd_.get(); }
  /// Unusable: destroy it without flushing.
  [[nodiscard]] bool broken() const { return broken_; }
  [[nodiscard]] bool connecting() const { return connecting_; }
  [[nodiscard]] bool outbox_empty() const {
    return outbox_at_ >= outbox_.size();
  }
  /// The owner may destroy it: broken, or flushed and either closing for
  /// cause or at EOF with no reply still owed.
  [[nodiscard]] bool finished(bool replies_owed) const {
    return broken_ ||
           (outbox_empty() && (closing_ || (read_closed_ && !replies_owed)));
  }
  /// Poll registration: read unless connecting, at EOF or closing; write
  /// while connecting or while the outbox holds bytes.
  [[nodiscard]] PollEntry poll_entry() const;

  void mark_broken() { broken_ = true; }
  /// Stops reading; finished() once the outbox drains.
  void close_after_flush() { closing_ = true; }

  /// Reads until the socket would block, handing every completed non-blank
  /// frame to on_frame(std::string&) in stream order. Stops after a frame
  /// whose handler broke or closed the connection.
  template <typename OnFrame>
  ReadEnd read(OnFrame&& on_frame);

  /// Appends `line` and a newline, then flushes (unless connecting).
  /// Returns false when the connection is broken afterwards: it already
  /// was, the line would take the outbox past max_outbox_bytes (a reader
  /// that slow is cut rather than buffered), or a write failed.
  bool queue(std::string_view line);
  /// Writes buffered bytes until the outbox is empty or the socket would
  /// block; a no-op while connecting. Returns false when a write failed
  /// (the connection is now broken).
  bool flush();
  /// Completes a non-blocking connect once poll reported the socket
  /// writable or hung up, then flushes what was queued meanwhile. Returns
  /// false (the connection is now broken) when the handshake or the flush
  /// failed.
  bool finish_connect();

 private:
  /// One read_some into `frames` (cleared first). Sets read_closed_ on EOF
  /// and broken_ on error; `fits` is false once a frame overflowed.
  IoStatus read_chunk(std::vector<std::string>& frames, bool& fits);

  FileDescriptor fd_;
  FrameReader reader_;
  std::string outbox_;
  std::size_t outbox_at_ = 0;
  std::size_t max_outbox_bytes_;
  bool connecting_;
  bool broken_;
  bool read_closed_ = false;
  bool closing_ = false;
};

template <typename OnFrame>
NdjsonConnection::ReadEnd NdjsonConnection::read(OnFrame&& on_frame) {
  std::vector<std::string> frames;
  while (!broken_ && !closing_) {
    bool fits = true;
    switch (read_chunk(frames, fits)) {
      case IoStatus::WouldBlock:
        return ReadEnd::Drained;
      case IoStatus::Closed:
        return ReadEnd::Closed;
      case IoStatus::Error:
        return ReadEnd::Error;
      case IoStatus::Ok:
        break;
    }
    for (std::string& frame : frames) {
      if (frame.empty()) continue;  // blank keep-alive lines are free
      on_frame(frame);
      if (broken_ || closing_) return ReadEnd::Stopped;
    }
    if (!fits) return ReadEnd::Oversized;
  }
  return ReadEnd::Stopped;
}

}  // namespace qspr
