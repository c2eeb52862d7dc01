#include "service/ndjson_connection.hpp"

#include <utility>

namespace qspr {

NdjsonConnection::NdjsonConnection(FileDescriptor fd,
                                   std::size_t max_frame_bytes,
                                   std::size_t max_outbox_bytes,
                                   bool connecting)
    : fd_(std::move(fd)),
      reader_(max_frame_bytes),
      max_outbox_bytes_(max_outbox_bytes),
      connecting_(connecting),
      broken_(!fd_.valid()) {}

PollEntry NdjsonConnection::poll_entry() const {
  PollEntry entry;
  entry.fd = fd_.get();
  entry.want_read = !connecting_ && !read_closed_ && !closing_;
  entry.want_write = connecting_ || !outbox_empty();
  return entry;
}

IoStatus NdjsonConnection::read_chunk(std::vector<std::string>& frames,
                                      bool& fits) {
  char buffer[16384];
  frames.clear();
  const IoResult io = read_some(fd_.get(), buffer, sizeof buffer);
  if (io.status == IoStatus::Closed) read_closed_ = true;
  if (io.status == IoStatus::Error) broken_ = true;
  if (io.status == IoStatus::Ok) {
    fits = reader_.feed(std::string_view(buffer, io.bytes), frames);
  }
  return io.status;
}

bool NdjsonConnection::queue(std::string_view line) {
  if (broken_) return false;
  const std::size_t buffered = outbox_.size() - outbox_at_;
  if (max_outbox_bytes_ > 0 &&
      buffered + line.size() + 1 > max_outbox_bytes_) {
    broken_ = true;
    return false;
  }
  // Drop the written prefix once it outweighs the unwritten rest, so a
  // reader that never quite catches up cannot grow the buffer without bound.
  if (outbox_at_ > 0 && outbox_at_ >= buffered) {
    outbox_.erase(0, outbox_at_);
    outbox_at_ = 0;
  }
  outbox_.append(line);
  outbox_.push_back('\n');
  return flush();
}

bool NdjsonConnection::flush() {
  if (broken_) return false;
  if (connecting_) return true;
  while (outbox_at_ < outbox_.size()) {
    const IoResult io =
        write_some(fd_.get(), std::string_view(outbox_).substr(outbox_at_));
    if (io.status == IoStatus::Ok) {
      outbox_at_ += io.bytes;
      continue;
    }
    if (io.status == IoStatus::WouldBlock) return true;  // poll for POLLOUT
    broken_ = true;
    return false;
  }
  outbox_.clear();
  outbox_at_ = 0;
  return true;
}

bool NdjsonConnection::finish_connect() {
  connecting_ = false;
  if (pending_connect_error(fd_.get()) != 0) {
    broken_ = true;
    return false;
  }
  return flush();
}

}  // namespace qspr
