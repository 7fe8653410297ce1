// Output file whose every write and the close are checked.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace simx {

/// Output file whose every write and the close are checked: a full disk
/// fails the write instead of leaving a silently truncated file (an ofstream
/// reports the last buffer's write error only to its destructor).  A failure
/// throws std::runtime_error, e.g. "cannot open 'x.ipmt': No such file or
/// directory".  The path must outlive the OutFile.
class OutFile {
 public:
  /// kTruncate creates or empties the file; kAppend writes at the end of a
  /// file that exists and never creates one.
  enum class Mode { kTruncate, kAppend };

  OutFile(const std::string& path, Mode mode)
      : path_(path),
        fd_(::open(path.c_str(),
                   O_WRONLY | O_CLOEXEC |
                       (mode == Mode::kTruncate ? O_CREAT | O_TRUNC : O_APPEND),
                   0666)) {
    if (fd_ < 0) fail("cannot open");
  }
  ~OutFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  OutFile(const OutFile&) = delete;
  OutFile& operator=(const OutFile&) = delete;

  void write(std::string_view buf) {
    while (!buf.empty()) {
      const ssize_t n = ::write(fd_, buf.data(), buf.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) fail("write failed for");
      buf.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  void close() {
    if (::close(std::exchange(fd_, -1)) != 0) fail("close failed for");
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    const std::string reason = std::strerror(errno);  // before anything resets errno
    throw std::runtime_error(std::string(what) + " '" + std::string(path_) + "': " +
                             reason);
  }

  std::string_view path_;
  int fd_;
};

/// Appends `bytes` to a stream's file with one OutFile: open, write, close.
/// A stream's first append (`begun` false) truncates the file, creating it;
/// a later one appends to the file the first made and never creates it, so
/// a file removed mid-stream fails every later append instead of starting
/// a stream without its header.  `begun` is set either way.  Throws as
/// OutFile does.
inline void append_stream(const std::string& path, std::string_view bytes,
                          bool& begun) {
  OutFile file(path, std::exchange(begun, true) ? OutFile::Mode::kAppend
                                                : OutFile::Mode::kTruncate);
  file.write(bytes);
  file.close();
}

}  // namespace simx
