// StreamReader: bounded-memory windowed reads over text datasets.
//
// The loader used to slurp the whole file into one std::string before the
// chunk-parallel parse — a file larger than RAM killed the process before a
// single snapshot existed. StreamReader instead pulls fixed-size
// newline-aligned windows (default 4 MiB): each next_window() call returns a
// run of *whole* lines, carrying any partial trailing line into the next
// window, so the chunk parser sees exactly the byte stream the slurp path
// saw, window by window. The bytes are read (or inflated) straight into the
// caller's buffer, which keeps its capacity across calls. Memory is bounded
// by the window size plus one line (lines are capped at kMaxLineBytes — a
// binary blob with no newlines fails cleanly instead of buffering the whole
// file). The parsers hold two windows: one parsing on the pool while the
// next is read.
//
// gzip is transparent: the constructor sniffs the two magic bytes (1f 8b)
// and, when present, routes reads through a zlib inflate stream
// (windowBits 15+16; concatenated members are handled, truncated or corrupt
// streams throw Error). Other compressed/binary magics (zstd, xz, bzip2,
// .dtdg) are rejected up front with the detected format named in the error,
// instead of surfacing as "malformed src '<garbage>'" from the tokenizer.
//
// Wall-clock spent in raw file reads and in inflate is measured separately
// (read_us / inflate_us) and reported in LoadStats.
#pragma once

#include <cstddef>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace pipad::graph::io {

/// Abstract pull source of decoded bytes. read() fills up to `n` bytes and
/// returns the count; 0 means end of stream.
class ByteSource {
 public:
  ByteSource() = default;
  ByteSource(const ByteSource&) = delete;
  ByteSource& operator=(const ByteSource&) = delete;
  virtual ~ByteSource() = default;
  virtual std::size_t read(char* buf, std::size_t n) = 0;
};

/// Recognize well-known binary/compressed file magics in `prefix`. Returns
/// a human-readable format description, or nullptr when the prefix does not
/// match any. gzip (1f 8b) IS reported here — callers that inflate
/// transparently check for it themselves first. Only magics that cannot
/// plausibly start a text dataset are matched (every pattern contains
/// non-printable bytes or is an exact multi-byte constant).
const char* binary_format_name(std::string_view prefix);

/// True when `prefix` starts with the gzip magic bytes 1f 8b.
bool looks_gzip(std::string_view prefix);

/// Opens an input file for reading; throws Error "PATH: is a directory"
/// (a directory opens like a file and fails only at the first read) or
/// "cannot open PATH".
std::ifstream open_input(const std::string& path,
                         std::ios::openmode mode = std::ios::binary);

class StreamReader {
 public:
  static constexpr std::size_t kDefaultWindowBytes = 4u << 20;  // 4 MiB.
  /// A single line longer than this fails the parse: without some cap a
  /// newline-free input (binary data, or an adversarial one-line file)
  /// would buffer without bound and defeat the windowing.
  static constexpr std::size_t kMaxLineBytes = 1u << 20;  // 1 MiB.

  /// Opens `path`, sniffs the magic bytes, and sets up transparent gzip
  /// inflation when the file is gzip'd. `window_bytes` = 0 picks the
  /// default. Throws Error when the file cannot be opened or carries a
  /// known non-text, non-gzip magic.
  explicit StreamReader(std::string path, std::size_t window_bytes = 0);
  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;
  ~StreamReader();

  /// Fill `out` with the next window: whole lines, ~window_bytes long (the
  /// final window may lack a trailing newline). `out` is overwritten; its
  /// capacity is reused. `first_line` receives the 1-based line number of
  /// the window's first line. Returns false at end of stream (out is left
  /// empty).
  bool next_window(std::string& out, std::size_t& first_line);

  bool gzip() const { return gzip_; }
  std::size_t window_bytes() const { return window_bytes_; }

  /// Cumulative wall-clock spent in raw file reads / in zlib inflate.
  double read_us() const { return read_us_; }
  double inflate_us() const { return inflate_us_; }

 private:
  std::string path_;
  std::size_t window_bytes_ = kDefaultWindowBytes;
  bool gzip_ = false;
  std::unique_ptr<ByteSource> src_;
  std::string carry_;      ///< Partial trailing line of the previous window.
  bool eof_ = false;
  std::size_t next_line_ = 1;
  double read_us_ = 0.0;
  double inflate_us_ = 0.0;
};

}  // namespace pipad::graph::io
