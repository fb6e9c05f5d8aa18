#include "graph/io/stream_reader.hpp"

#include <zlib.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>

#include "common/timer.hpp"

namespace pipad::graph::io {

namespace {

constexpr std::size_t kReadChunk = 256u << 10;  // Raw-read granularity.

/// Plain file bytes; wall-clock of every read lands in *read_us.
class FileSource final : public ByteSource {
 public:
  FileSource(const std::string& path, double* read_us)
      : path_(path), read_us_(read_us), is_(open_input(path)) {}

  std::size_t read(char* buf, std::size_t n) override {
    Timer t;
    is_.read(buf, static_cast<std::streamsize>(n));
    const auto got = static_cast<std::size_t>(is_.gcount());
    if (is_.bad()) throw Error(path_ + ": read error");
    *read_us_ += t.elapsed_us();
    return got;
  }

 private:
  std::string path_;
  double* read_us_;
  std::ifstream is_;
};

/// zlib inflate over an underlying FileSource. windowBits 15+16 restricts
/// the stream to gzip framing (header + CRC); concatenated members are
/// inflated back to back, and a stream that ends mid-member throws.
class GzipSource final : public ByteSource {
 public:
  GzipSource(const std::string& path, std::unique_ptr<ByteSource> raw,
             double* inflate_us)
      : path_(path), raw_(std::move(raw)), inflate_us_(inflate_us) {
    std::memset(&strm_, 0, sizeof(strm_));
    if (inflateInit2(&strm_, 15 + 16) != Z_OK) {
      throw Error(path_ + ": cannot initialize zlib inflate");
    }
    init_ = true;
  }

  ~GzipSource() override {
    if (init_) inflateEnd(&strm_);
  }

  std::size_t read(char* buf, std::size_t n) override {
    Timer t;
    std::size_t produced = 0;
    while (produced < n) {
      if (strm_.avail_in == 0 && !raw_eof_) {
        const std::size_t got = raw_->read(in_.data(), in_.size());
        if (got == 0) raw_eof_ = true;
        strm_.next_in = reinterpret_cast<Bytef*>(in_.data());
        strm_.avail_in = static_cast<uInt>(got);
      }
      if (member_done_) {
        if (strm_.avail_in == 0 && raw_eof_) break;  // Clean end of stream.
        // Bytes follow a finished member: a concatenated gzip file.
        if (inflateReset(&strm_) != Z_OK) {
          throw Error(path_ + ": corrupt gzip stream");
        }
        member_done_ = false;
      }
      strm_.next_out = reinterpret_cast<Bytef*>(buf + produced);
      strm_.avail_out = static_cast<uInt>(n - produced);
      const int rc = inflate(&strm_, Z_NO_FLUSH);
      produced = n - strm_.avail_out;
      if (rc == Z_STREAM_END) {
        member_done_ = true;
        continue;
      }
      if (rc == Z_BUF_ERROR && strm_.avail_in == 0) {
        if (raw_eof_) throw Error(path_ + ": truncated gzip stream");
        continue;  // Need more input.
      }
      if (rc != Z_OK) {
        throw Error(path_ + ": corrupt gzip stream (" +
                    (strm_.msg != nullptr ? strm_.msg : "inflate failed") +
                    ")");
      }
      if (strm_.avail_in == 0 && raw_eof_ && produced < n) {
        throw Error(path_ + ": truncated gzip stream");
      }
    }
    *inflate_us_ += t.elapsed_us();
    return produced;
  }

 private:
  std::string path_;
  std::unique_ptr<ByteSource> raw_;
  double* inflate_us_;
  z_stream strm_{};
  bool init_ = false;
  bool raw_eof_ = false;
  bool member_done_ = false;
  std::array<char, kReadChunk> in_{};
};

std::string sniff_prefix(const std::string& path) {
  std::ifstream is = open_input(path);
  char buf[16];
  is.read(buf, sizeof(buf));
  return std::string(buf, static_cast<std::size_t>(is.gcount()));
}

}  // namespace

std::ifstream open_input(const std::string& path, std::ios::openmode mode) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    throw Error(path + ": is a directory");
  }
  std::ifstream is(path, mode);
  if (!is) throw Error("cannot open " + path);
  return is;
}

bool looks_gzip(std::string_view p) {
  return p.size() >= 2 && static_cast<unsigned char>(p[0]) == 0x1f &&
         static_cast<unsigned char>(p[1]) == 0x8b;
}

const char* binary_format_name(std::string_view p) {
  const auto starts = [&](std::initializer_list<int> bytes) {
    if (p.size() < bytes.size()) return false;
    std::size_t i = 0;
    for (int b : bytes) {
      if (static_cast<unsigned char>(p[i++]) != static_cast<unsigned>(b)) {
        return false;
      }
    }
    return true;
  };
  if (looks_gzip(p)) return "gzip-compressed data";
  if (starts({0x28, 0xb5, 0x2f, 0xfd})) {
    return "zstd-compressed data (decompress it first; only gzip is "
           "transparent)";
  }
  if (starts({0xfd, '7', 'z', 'X', 'Z', 0x00})) {
    return "xz-compressed data (decompress it first; only gzip is "
           "transparent)";
  }
  // bzip2: "BZh" + level digit + the exact block magic 0x314159265359 (π).
  // The full 10-byte constant is matched so a text line that merely starts
  // with "BZh" is never misclassified.
  if (p.size() >= 10 && p.substr(0, 3) == "BZh" && p[3] >= '1' &&
      p[3] <= '9' && p.substr(4, 6) == "\x31\x41\x59\x26\x53\x59") {
    return "bzip2-compressed data (decompress it first; only gzip is "
           "transparent)";
  }
  if (p.size() >= 8 && p.substr(0, 8) == "PIPADTDG") {
    return "a binary .dtdg snapshot (give the file a .dtdg extension to "
           "load it directly)";
  }
  return nullptr;
}

StreamReader::StreamReader(std::string path, std::size_t window_bytes)
    : path_(std::move(path)) {
  if (window_bytes > 0) window_bytes_ = window_bytes;
  const std::string prefix = sniff_prefix(path_);
  if (looks_gzip(prefix)) {
    gzip_ = true;
    src_ = std::make_unique<GzipSource>(
        path_, std::make_unique<FileSource>(path_, &read_us_), &inflate_us_);
  } else {
    if (const char* fmt = binary_format_name(prefix)) {
      throw Error(path_ + ": not a text dataset — detected " + fmt);
    }
    src_ = std::make_unique<FileSource>(path_, &read_us_);
  }
}

StreamReader::~StreamReader() = default;

bool StreamReader::next_window(std::string& out, std::size_t& first_line) {
  out.clear();
  first_line = next_line_;
  if (eof_ && carry_.empty()) return false;
  std::swap(out, carry_);
  buf_.resize(std::min(kReadChunk, std::max<std::size_t>(window_bytes_, 1)));
  for (;;) {
    if (out.size() >= window_bytes_) {
      const std::size_t nl = out.rfind('\n');
      if (nl != std::string::npos) {
        carry_.assign(out, nl + 1, out.size() - nl - 1);
        out.resize(nl + 1);
        break;
      }
      // No newline yet: the current line spans the whole window. Keep
      // growing it up to the line cap so windowing cannot be defeated by
      // one enormous (or newline-free binary) line.
      if (out.size() > kMaxLineBytes) {
        throw Error(path_ + ":" + std::to_string(next_line_) + ": line "
                    "longer than " + std::to_string(kMaxLineBytes) +
                    " bytes (binary data, or a missing newline?)");
      }
    }
    if (eof_) break;  // Final (possibly newline-less) window.
    const std::size_t got = src_->read(buf_.data(), buf_.size());
    if (got == 0) {
      eof_ = true;
      continue;
    }
    out.append(buf_.data(), got);
  }
  if (out.empty()) return false;
  for (const char* b = out.data(), *e = out.data() + out.size(); b < e;) {
    const char* p = static_cast<const char*>(std::memchr(b, '\n', e - b));
    if (p == nullptr) break;
    ++next_line_;
    b = p + 1;
  }
  return true;
}

}  // namespace pipad::graph::io
