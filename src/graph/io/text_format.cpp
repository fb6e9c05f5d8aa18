#include "graph/io/text_format.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "graph/io/stream_reader.hpp"

namespace pipad::graph::io {

std::string read_file(const std::string& path) {
  // open_input rejects a directory, whose bogus size (LLONG_MAX on ext4)
  // the sized read below would try to allocate.
  std::ifstream is = open_input(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = is.tellg();
  if (size < 0 || !is.seekg(0)) throw Error(path + ": read error");
  std::string out(static_cast<std::size_t>(size), '\0');
  is.read(out.data(), static_cast<std::streamsize>(size));
  if (is.gcount() != static_cast<std::streamsize>(size)) {
    throw Error(path + ": read error");
  }
  return out;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h) {
  return fnv1a(&v, sizeof(v), h);
}

namespace {

constexpr std::uint64_t kXxP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kXxP2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kXxP3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kXxP4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kXxP5 = 0x27d4eb2f165667c5ull;

inline std::uint64_t rotl64(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline std::uint64_t load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t xx_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kXxP2;
  return rotl64(acc, 31) * kXxP1;
}

inline std::uint64_t xx_merge(std::uint64_t h, std::uint64_t lane) {
  h ^= xx_round(0, lane);
  return h * kXxP1 + kXxP4;
}

}  // namespace

ContentHash::ContentHash() : lane_{kXxP1 + kXxP2, kXxP2, 0, 0 - kXxP1} {}

void ContentHash::update(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  total_ += n;
  if (buffered_ + n < sizeof(stripe_)) {
    if (n > 0) std::memcpy(stripe_ + buffered_, p, n);
    buffered_ += n;
    return;
  }
  if (buffered_ > 0) {
    const std::size_t fill = sizeof(stripe_) - buffered_;
    std::memcpy(stripe_ + buffered_, p, fill);
    p += fill;
    n -= fill;
    for (int i = 0; i < 4; ++i) {
      lane_[i] = xx_round(lane_[i], load64(stripe_ + 8 * i));
    }
    buffered_ = 0;
  }
  // The four lanes are independent, so their multiply chains overlap.
  std::uint64_t v0 = lane_[0], v1 = lane_[1], v2 = lane_[2], v3 = lane_[3];
  for (; n >= 32; p += 32, n -= 32) {
    v0 = xx_round(v0, load64(p));
    v1 = xx_round(v1, load64(p + 8));
    v2 = xx_round(v2, load64(p + 16));
    v3 = xx_round(v3, load64(p + 24));
  }
  lane_[0] = v0;
  lane_[1] = v1;
  lane_[2] = v2;
  lane_[3] = v3;
  if (n > 0) std::memcpy(stripe_, p, n);
  buffered_ = n;
}

std::uint64_t ContentHash::digest() const {
  std::uint64_t h;
  if (total_ >= 32) {
    h = rotl64(lane_[0], 1) + rotl64(lane_[1], 7) + rotl64(lane_[2], 12) +
        rotl64(lane_[3], 18);
    for (const std::uint64_t lane : lane_) h = xx_merge(h, lane);
  } else {
    h = kXxP5;
  }
  h += total_;
  const unsigned char* p = stripe_;
  std::size_t n = buffered_;
  for (; n >= 8; p += 8, n -= 8) {
    h ^= xx_round(0, load64(p));
    h = rotl64(h, 27) * kXxP1 + kXxP4;
  }
  if (n >= 4) {
    h ^= static_cast<std::uint64_t>(load32(p)) * kXxP1;
    h = rotl64(h, 23) * kXxP2 + kXxP3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) {
    h ^= *p * kXxP5;
    h = rotl64(h, 11) * kXxP1;
  }
  h ^= h >> 33;
  h *= kXxP2;
  h ^= h >> 29;
  h *= kXxP3;
  h ^= h >> 32;
  return h;
}

std::string escape_token(std::string_view tok, std::size_t max_bytes) {
  std::string out;
  const std::size_t n = std::min(tok.size(), max_bytes);
  out.reserve(n + 8);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<unsigned char>(tok[i]);
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  if (tok.size() > max_bytes) out += "...";
  return out;
}

std::string_view strip_quotes(std::string_view t) {
  if (t.size() >= 2 && t.front() == '"' && t.back() == '"') {
    t.remove_prefix(1);
    t.remove_suffix(1);
  }
  return t;
}

namespace {

constexpr std::size_t kMinChunkBytes = 4096;
/// Matches the .dtdg name-table cap (kMaxNameLen): a string vertex id that
/// could not round-trip through the binary cache is rejected at parse time.
constexpr std::size_t kMaxNameBytes = 4096;

[[noreturn]] void fail_at(const std::string& path, std::size_t line,
                          const std::string& msg) {
  throw Error(path + ":" + std::to_string(line) + ": " + msg);
}

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

/// The line of `text` starting at `pos`, trimmed; `pos` moves past its
/// newline (to text.size() + 1 after a last line without one).
std::string_view next_line(std::string_view text, std::size_t& pos) {
  std::size_t eol = text.find('\n', pos);
  if (eol == std::string_view::npos) eol = text.size();
  const std::string_view l = trim(text.substr(pos, eol - pos));
  pos = eol + 1;
  return l;
}

/// Reads the fields of one trimmed line in place, left to right: runs of
/// non-space bytes, or — in a CSV — the comma-separated cells, each
/// trimmed. Nothing is copied or allocated.
class Fields {
 public:
  Fields(std::string_view line, bool csv) : line_(line), csv_(csv) {}

  /// The next field into `f`; false once the line has none left.
  bool next(std::string_view& f) {
    if (csv_) {
      if (pos_ > line_.size()) return false;
      std::size_t end = line_.find(',', pos_);
      if (end == std::string_view::npos) end = line_.size();
      f = trim(line_.substr(pos_, end - pos_));
      pos_ = end + 1;
      return true;
    }
    while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
    if (pos_ == line_.size()) return false;
    const std::size_t begin = pos_;
    while (pos_ < line_.size() && !is_space(line_[pos_])) ++pos_;
    f = line_.substr(begin, pos_ - begin);
    return true;
  }

  /// The line's field count, for the field-count errors.
  std::size_t count() const {
    Fields all(line_, csv_);
    std::size_t n = 0;
    for (std::string_view f; all.next(f);) ++n;
    return n;
  }

 private:
  std::string_view line_;
  bool csv_;
  std::size_t pos_ = 0;
};

/// True when `tok` is entirely one number literal of v's type (stored in v).
template <typename T>
bool whole_number(std::string_view tok, T& v) {
  const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  return ec == std::errc{} && p == tok.data() + tok.size();
}

std::string malformed(const char* what, std::string_view tok) {
  return std::string("malformed ") + what + " '" + escape_token(tok) + "'";
}

long long parse_ll_tok(std::string_view tok, const std::string& path,
                       std::size_t line, const char* what) {
  long long v = 0;
  if (!whole_number(tok, v)) fail_at(path, line, malformed(what, tok));
  return v;
}

/// True when `tok` is one finite float (stored in v).
bool finite_float(std::string_view tok, float& v) {
  return whole_number(tok, v) && std::isfinite(v);
}

/// A byte range of the input covering whole lines, the 1-based line number
/// its first line has in the file, and its newline count, which sizes the
/// chunk's output.
struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t first_line = 1;
  std::size_t lines = 0;
};

std::size_t count_newlines(const char* b, const char* e) {
  std::size_t n = 0;
  while (b < e) {
    const char* p = static_cast<const char*>(std::memchr(b, '\n', e - b));
    if (p == nullptr) break;
    ++n;
    b = p + 1;
  }
  return n;
}

/// Split content[start..] into at most `want` newline-aligned chunks.
std::vector<Chunk> chunk_lines(const std::string& s, std::size_t start,
                               std::size_t start_line, std::size_t want) {
  std::vector<Chunk> out;
  const std::size_t n = s.size();
  want = std::max<std::size_t>(1, want);
  std::size_t pos = start, line = start_line;
  for (std::size_t i = 0; i < want && pos < n; ++i) {
    std::size_t end = n;
    if (i + 1 < want) {
      const std::size_t step =
          std::max<std::size_t>(1, (n - pos) / (want - i));
      end = std::min(n, pos + step);
      const char* nl = static_cast<const char*>(
          std::memchr(s.data() + end, '\n', n - end));
      end = nl == nullptr ? n : static_cast<std::size_t>(nl - s.data()) + 1;
    }
    const std::size_t lines = count_newlines(s.data() + pos, s.data() + end);
    out.push_back({pos, end, line, lines});
    line += lines;
    pos = end;
  }
  return out;
}

/// A pool this thread may submit to: none from inside a pool, where nested
/// work runs inline.
ThreadPool* usable(ThreadPool* pool) {
  return ThreadPool::current_pool() == nullptr ? pool : nullptr;
}

std::size_t want_chunks(std::size_t bytes, const ThreadPool* pool) {
  if (pool == nullptr) return 1;
  const std::size_t by_size = std::max<std::size_t>(1, bytes / kMinChunkBytes);
  return std::min(pool->size() * 2, by_size);
}

/// Reads the next window into `w`. A read error is held in `error`, and
/// reads as the end of input, so that the windows before it finish parsing
/// first and the error surfaces where a serial parse would meet it.
bool read_window(StreamReader& in, std::string& w, std::size_t& first_line,
                 std::exception_ptr& error) {
  try {
    return in.next_window(w, first_line);
  } catch (...) {
    error = std::current_exception();
    return false;
  }
}

/// The chunk parses of the window in flight. With a pool each chunk is a
/// pool task, so the calling thread reads the next window (and feeds the
/// last one) while they run; without one, start() runs them inline. The
/// task body must not throw: each chunk keeps its own error.
class ChunkTasks {
 public:
  explicit ChunkTasks(ThreadPool* pool) : pool_(pool) {}
  ChunkTasks(const ChunkTasks&) = delete;
  ChunkTasks& operator=(const ChunkTasks&) = delete;
  ~ChunkTasks() { wait(); }

  /// Runs fn(i) for i in [0, n), after the previous window's wait().
  void start(std::size_t n, std::function<void(std::size_t)> fn) {
    fn_ = std::move(fn);
    for (std::size_t i = 0; i < n; ++i) {
      if (pool_ == nullptr) {
        fn_(i);
      } else {
        pending_.push_back(pool_->submit([this, i] { fn_(i); }));
      }
    }
  }

  /// Blocks until every started task has finished.
  void wait() {
    for (std::future<void>& f : pending_) f.wait();
    pending_.clear();
  }

 private:
  ThreadPool* pool_;
  std::function<void(std::size_t)> fn_;
  std::vector<std::future<void>> pending_;
};

/// Per-chunk parse result, merged in chunk order.
struct Partial {
  std::vector<TemporalEdge> edges;
  long long nodes = -1;
  long long snapshots = -1;
  bool weights = false;
  std::size_t first_edge_line = 0;  ///< 0 = chunk had no edges.
  std::size_t last_edge_line = 0;
  /// String-id mode: chunk-local vertex names in first-appearance order
  /// (views into the chunk's window text); edges' src/dst index into it.
  std::vector<std::string_view> names;
  std::exception_ptr error;  ///< The chunk's first bad row; it stopped there.
};

/// Recognize `nodes=N` / `snapshots=S` tokens in a comment line.
void scan_directives(std::string_view comment, const std::string& path,
                     std::size_t line, Partial& out) {
  Fields fields(comment, false);
  for (std::string_view tok; fields.next(tok);) {
    long long* slot = nullptr;
    const char* what = nullptr;
    if (tok.rfind("nodes=", 0) == 0) {
      tok.remove_prefix(6);
      slot = &out.nodes;
      what = "nodes directive";
    } else if (tok.rfind("snapshots=", 0) == 0) {
      tok.remove_prefix(10);
      slot = &out.snapshots;
      what = "snapshots directive";
    } else {
      continue;
    }
    const long long v = parse_ll_tok(tok, path, line, what);
    if (v <= 0) fail_at(path, line, std::string(what) + " must be positive");
    if (*slot >= 0 && *slot != v) {
      fail_at(path, line, std::string("conflicting ") + what);
    }
    *slot = v;
  }
}

void check_sorted(long long prev_t, const TemporalEdge& e,
                  const std::string& path, std::size_t line) {
  if (e.t < prev_t) {
    fail_at(path, line,
            "timestamps must be non-decreasing (t=" + std::to_string(e.t) +
                " after t=" + std::to_string(prev_t) + ")");
  }
}

/// Chunk-local string-id interning: maps a name to its chunk-local id
/// (views into the window text — valid until the merge copies them out).
using NameScratch = std::unordered_map<std::string_view, long long>;

long long vertex_tok(std::string_view tok, bool string_ids,
                     NameScratch& scratch, Partial& out,
                     const std::string& path, std::size_t line,
                     const char* what) {
  if (!string_ids) return parse_ll_tok(tok, path, line, what);
  const std::string_view name = strip_quotes(tok);
  if (name.empty()) {
    fail_at(path, line, std::string("empty ") + what + " id");
  }
  if (name.size() > kMaxNameBytes) {
    fail_at(path, line, std::string(what) + " id '" + escape_token(name) +
                            "' longer than " +
                            std::to_string(kMaxNameBytes) + " bytes");
  }
  const auto [it, inserted] =
      scratch.try_emplace(name, static_cast<long long>(out.names.size()));
  if (inserted) out.names.push_back(name);
  return it->second;
}

/// Where a row's fields sit and how its line splits. A CSV's layout comes
/// from its header row (`csv_layout`); an edge list has the fixed
/// `src dst t [w]` layout, with 3 or 4 whitespace-separated tokens.
struct RowLayout {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  bool csv = false;
  std::size_t columns = 0;  ///< CSV: the cell count every row must have.
  std::size_t src = 0, dst = 1, t = 2;
  std::size_t w = 3;  ///< A row has a weight when it has this field; a CSV
                      ///< without a `w` column: kNone.

  /// Reads a row's fields in one pass: f[0..3] receive its src, dst, t and
  /// w fields (w only when the row has one). Returns the row's field count.
  std::size_t read(std::string_view line, std::string_view (&f)[4]) const {
    Fields fields(line, csv);
    std::size_t n = 0;
    if (!csv) {
      while (n < 4 && fields.next(f[n])) ++n;
      std::string_view extra;
      return n == 4 && fields.next(extra) ? fields.count() : n;
    }
    for (std::string_view cell; fields.next(cell); ++n) {
      if (n == src) {
        f[0] = cell;
      } else if (n == dst) {
        f[1] = cell;
      } else if (n == t) {
        f[2] = cell;
      } else if (n == w) {
        f[3] = cell;
      }
    }
    return n;
  }
};

RowLayout csv_layout(const std::string& path, std::string_view header,
                     std::size_t line) {
  RowLayout lay;
  lay.csv = true;
  lay.w = RowLayout::kNone;
  bool have_src = false, have_dst = false, have_t = false, have_w = false;
  Fields cells(header, true);
  std::size_t i = 0;
  for (std::string_view c; cells.next(c); ++i) {
    const auto claim = [&](bool& have, std::size_t& slot, const char* name) {
      if (have) fail_at(path, line, std::string("duplicate column ") + name);
      have = true;
      slot = i;
    };
    if (c == "src") {
      claim(have_src, lay.src, "src");
    } else if (c == "dst") {
      claim(have_dst, lay.dst, "dst");
    } else if (c == "t") {
      claim(have_t, lay.t, "t");
    } else if (c == "w") {
      claim(have_w, lay.w, "w");
    }
    // Other columns are ignored (documented).
  }
  lay.columns = i;
  if (!have_src || !have_dst || !have_t) {
    fail_at(path, line,
            "CSV header must name src, dst and t columns (got '" +
                escape_token(trim(header), 128) + "')");
  }
  return lay;
}

/// Parse one chunk of rows laid out as `lay`.
void parse_chunk(const std::string& path, std::string_view text,
                 std::size_t first_line, const RowLayout& lay,
                 bool string_ids, Partial& out) {
  bool have_prev = false;
  long long prev_t = 0;
  NameScratch scratch;
  std::string_view f[4];
  for (std::size_t pos = 0, line = first_line; pos < text.size(); ++line) {
    const std::string_view l = next_line(text, pos);
    if (l.empty()) continue;
    if (l.front() == '#') {
      scan_directives(l.substr(1), path, line, out);
      continue;
    }
    const std::size_t n = lay.read(l, f);
    if (lay.csv && n != lay.columns) {
      fail_at(path, line,
              "expected " + std::to_string(lay.columns) + " columns, got " +
                  std::to_string(n));
    }
    if (!lay.csv && n != 3 && n != 4) {
      fail_at(path, line,
              "expected `src dst t [w]`, got " + std::to_string(n) +
                  " token(s)");
    }
    TemporalEdge e;
    e.src = vertex_tok(f[0], string_ids, scratch, out, path, line,
                       "src vertex");
    e.dst = vertex_tok(f[1], string_ids, scratch, out, path, line,
                       "dst vertex");
    e.t = parse_ll_tok(f[2], path, line, "timestamp");
    if (lay.w < n) {
      if (!finite_float(f[3], e.w)) {
        fail_at(path, line, malformed("weight", f[3]));
      }
      out.weights = true;
    }
    if (!string_ids && (e.src < 0 || e.dst < 0)) {
      fail_at(path, line, "vertex id must be non-negative");
    }
    if (have_prev) check_sorted(prev_t, e, path, line);
    prev_t = e.t;
    have_prev = true;
    if (out.first_edge_line == 0) out.first_edge_line = line;
    out.last_edge_line = line;
    out.edges.push_back(e);
  }
}

/// One parse over a file, window by window. Holds everything that must
/// survive across windows so that the merged stream is byte-identical for
/// any window size: directives, the row layout, string-id mode, the global
/// name table, and the cross-chunk timestamp-ordering state; and the
/// window in flight, whose chunks parse on the pool until finish().
struct ParseState {
  const std::string& path;
  ThreadPool* pool;

  EdgeFile out;
  bool first_region = true;
  bool mode_known = false;
  bool have_layout;  ///< False until a CSV's header row is seen.
  RowLayout lay;
  bool have_prev = false;
  long long prev_t = 0;
  /// Global name -> arrival-order id (string-id mode). Owns the strings
  /// that `out.names` views would dangle on — out.names stores copies.
  std::unordered_map<std::string, long long> name_index;

  /// The window in flight: its chunks, their results, and the error its
  /// scan met before any chunk started.
  std::vector<Chunk> ranges;
  std::vector<Partial> parts;
  std::exception_ptr scan_error;
  /// The last finished window's edges, one vector per non-empty chunk, in
  /// file order.
  EdgeChunks ready;
  /// Chunk buffers back from the sink, reused by later windows.
  std::vector<std::vector<TemporalEdge>> spare;
  /// Last, so that it is destroyed first: it waits for the chunk tasks
  /// before anything they write goes away.
  ChunkTasks tasks;

  ParseState(const std::string& p, ThreadPool* pl, bool csv)
      : path(p), pool(pl), have_layout(!csv), tasks(pl) {}

  /// Once the layout and id mode are fixed, start() no longer changes
  /// `out`, so a window may start before the sink sees the one before it.
  bool settled() const { return have_layout && mode_known; }

  void merge_directives(long long nodes, long long snaps) {
    if (nodes >= 0) {
      if (out.declared_nodes >= 0 && out.declared_nodes != nodes) {
        throw Error(path + ": conflicting nodes directives");
      }
      out.declared_nodes = nodes;
    }
    if (snaps >= 0) {
      if (snaps > std::numeric_limits<int>::max()) {
        throw Error(path + ": snapshots directive out of range");
      }
      if (out.declared_snapshots >= 0 && out.declared_snapshots != snaps) {
        throw Error(path + ": conflicting snapshots directives");
      }
      out.declared_snapshots = static_cast<int>(snaps);
    }
  }

  /// Scan region text forward to the CSV header row, merging directive
  /// comments along the way. Returns true when the header was found (pos
  /// and line then point at the first body line).
  bool scan_to_csv_header(const std::string& text, std::size_t& pos,
                          std::size_t& line) {
    while (pos < text.size()) {
      const std::string_view l = next_line(text, pos);
      const std::size_t at = line++;
      if (l.empty()) continue;
      if (l.front() != '#') {
        lay = csv_layout(path, l, at);
        have_layout = true;
        pos = std::min(pos, text.size());
        return true;
      }
      Partial pre;
      scan_directives(l.substr(1), path, at, pre);
      merge_directives(pre.nodes, pre.snapshots);
    }
    return false;
  }

  /// The first data row's src token decides integer vs string ids. -1 =
  /// region has no data rows (mode stays undecided).
  int detect_mode(const std::string& text, std::size_t start) const {
    for (std::size_t pos = start; pos < text.size();) {
      const std::string_view l = next_line(text, pos);
      if (l.empty() || l.front() == '#') continue;
      Fields fields(l, lay.csv);
      std::string_view src;
      for (std::size_t i = 0; i <= lay.src; ++i) {
        if (!fields.next(src)) return 0;  // Column error surfaces later.
      }
      long long id = 0;
      return whole_number(src, id) ? 0 : 1;
    }
    return -1;
  }

  /// Scans window `text` (whole lines, the first numbered `start_line`)
  /// and starts its chunk parses. Its errors wait for finish().
  void start(const std::string& text, std::size_t start_line) {
    ranges.clear();
    parts.clear();
    scan_error = nullptr;
    try {
      std::size_t pos = 0;
      std::size_t line = start_line;
      if (first_region) {
        first_region = false;
        if (const char* fmt = binary_format_name(text)) {
          throw Error(path + ": not a text dataset — detected " +
                      std::string(fmt));
        }
      }
      if (const void* nul = std::memchr(text.data(), '\0', text.size())) {
        const auto* p = static_cast<const char*>(nul);
        fail_at(path, line + count_newlines(text.data(), p),
                "NUL byte — binary data is not a text dataset");
      }
      if (!have_layout && !scan_to_csv_header(text, pos, line)) return;
      if (!mode_known) {
        const int m = detect_mode(text, pos);
        if (m >= 0) {
          out.string_ids = m == 1;
          mode_known = true;
        }
      }
      ranges =
          chunk_lines(text, pos, line, want_chunks(text.size() - pos, pool));
    } catch (...) {
      scan_error = std::current_exception();
      return;
    }
    // Every chunk's output is sized once, here, from its line count, in a
    // buffer an earlier window used when there is one.
    parts.resize(ranges.size());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      std::vector<TemporalEdge>& edges = parts[i].edges;
      if (!spare.empty()) {
        edges = std::move(spare.back());
        spare.pop_back();
      }
      edges.reserve(ranges[i].lines + 1);
    }
    const std::string_view view(text);
    const bool string_ids = out.string_ids;
    tasks.start(ranges.size(), [this, view, string_ids](std::size_t i) {
      const Chunk& c = ranges[i];
      try {
        parse_chunk(path, view.substr(c.begin, c.end - c.begin),
                    c.first_line, lay, string_ids, parts[i]);
      } catch (...) {
        parts[i].error = std::current_exception();
      }
    });
  }

  /// Waits for the window's chunks and merges them onto `ready` in file
  /// order. Throws the window's first error: its scan's, else the lowest
  /// chunk's, else the merge's.
  void finish() {
    tasks.wait();
    if (scan_error) std::rethrow_exception(scan_error);
    for (const Partial& p : parts) {
      if (p.error) std::rethrow_exception(p.error);
    }
    for (Partial& p : parts) {
      merge_directives(p.nodes, p.snapshots);
      out.has_weights = out.has_weights || p.weights;
      if (p.edges.empty()) {
        spare.push_back(std::move(p.edges));
        continue;
      }
      if (have_prev) {
        check_sorted(prev_t, p.edges.front(), path, p.first_edge_line);
      }
      prev_t = p.edges.back().t;
      have_prev = true;
      if (out.string_ids) {
        // Translate chunk-local name ids to global arrival order. Chunks
        // merge in file order, so the global table (and therefore every
        // downstream remap) is independent of pool width and window size.
        std::vector<long long> to_global;
        to_global.reserve(p.names.size());
        for (const std::string_view nv : p.names) {
          const auto [it, inserted] = name_index.try_emplace(
              std::string(nv), static_cast<long long>(out.names.size()));
          if (inserted) out.names.emplace_back(nv);
          to_global.push_back(it->second);
        }
        for (TemporalEdge& e : p.edges) {
          e.src = to_global[static_cast<std::size_t>(e.src)];
          e.dst = to_global[static_cast<std::size_t>(e.dst)];
        }
      }
      out.streamed_edges += p.edges.size();
      ready.push_back(std::move(p.edges));
    }
    out.parse_chunks =
        std::max(out.parse_chunks, std::max<std::size_t>(1, ranges.size()));
  }

  /// Takes back the chunk buffers the sink left in `ready`.
  void recycle() {
    for (std::vector<TemporalEdge>& c : ready) {
      if (c.capacity() == 0) continue;
      c.clear();
      spare.push_back(std::move(c));
    }
    ready.clear();
  }
};

}  // namespace

EdgeFile parse_edge_stream(const std::string& path, bool csv, StreamReader& in,
                           ThreadPool* pool, const EdgeSink& sink) {
  // Two window buffers: window k parses in one while window k + 1 is read
  // into the other. They are declared before the parse state, whose
  // destructor waits for the chunk tasks that read them.
  std::string windows[2];
  std::size_t first_line[2] = {1, 1};
  std::exception_ptr read_error;
  ParseState st(path, usable(pool), csv);
  bool have = read_window(in, windows[0], first_line[0], read_error);
  if (have) st.start(windows[0], first_line[0]);
  for (std::size_t k = 0; have; k ^= 1) {
    const std::size_t n = k ^ 1;
    const bool more = read_window(in, windows[n], first_line[n], read_error);
    st.finish();
    // Window k + 1's chunks start before window k reaches the sink, so the
    // sink's work overlaps their parse — once the layout and id mode are
    // settled; until then starting a window may change what the sink sees.
    const bool early = more && st.settled();
    if (early) st.start(windows[n], first_line[n]);
    sink(st.out, std::move(st.ready));
    st.recycle();
    if (more && !early) st.start(windows[n], first_line[n]);
    have = more;
  }
  if (read_error) std::rethrow_exception(read_error);
  if (!st.have_layout) throw Error(path + ": empty CSV (no header row)");
  if (st.out.string_ids && st.out.declared_nodes >= 0) {
    throw Error(path +
                ": the nodes=N directive requires integer vertex ids "
                "(this file uses string ids)");
  }
  return std::move(st.out);
}

namespace {

/// The data-row shape of a sidecar file, fixed by its header.
struct SidecarLayout {
  bool targets = false;   ///< `t id y` rows (else feature rows).
  bool temporal = false;  ///< Rows lead with a snapshot index.
  int width = 1;          ///< Values per row.
  int num_snapshots = 0;
  std::size_t lead() const { return temporal ? 2 : 1; }
};

/// The first tokens of a sidecar's header line.
struct HeaderTokens {
  std::string_view tok[5];
  std::size_t n = 0;  ///< Tokens read, at most 5.
};

/// Pulls windows from `in` up to the first non-blank line, the header, and
/// reads its first tokens into `h` (views into `window`), with `pos` and
/// `line` advanced past it. Throws "bad header" naming `format` when the
/// file has no header or its first tokens are not `magic` (a magic token
/// ending in '=' is a key whose value follows).
void sidecar_header(const std::string& path, StreamReader& in,
                    const char* format,
                    std::initializer_list<std::string_view> magic,
                    std::string& window, std::size_t& pos, std::size_t& line,
                    HeaderTokens& h) {
  const std::string bad = std::string("bad header (expected `") + format + "`)";
  while (in.next_window(window, line)) {
    for (pos = 0; pos < window.size(); ++line) {
      Fields fields(next_line(window, pos), false);
      h.n = 0;
      while (h.n < std::size(h.tok) && fields.next(h.tok[h.n])) ++h.n;
      if (h.n == 0) continue;
      pos = std::min(pos, window.size());
      std::size_t i = 0;
      for (const std::string_view m : magic) {
        if (i >= h.n ||
            (m.back() == '=' ? h.tok[i].substr(0, m.size()) : h.tok[i]) != m) {
          fail_at(path, line, bad);
        }
        ++i;
      }
      ++line;
      return;
    }
  }
  throw Error(path + ": " + bad);
}

/// A sidecar's data rows, parsed window by window straight into their
/// tensor rows: row v of dest[snap]. Each (snapshot, vertex) slot is
/// claimed, with an atomic compare-and-swap, by the window whose row fills
/// it, before that row's values are written: a second row for a slot is
/// rejected wherever it falls, and no slot is written twice. Chunks stop
/// at their first error, and chunks of one window may meet theirs out of
/// file order, so a window with any error has its claims undone and is
/// rescanned serially: the error thrown names the line a serial parse
/// stops at, at every pool width and window size.
class SidecarRows {
 public:
  SidecarRows(const std::string& path, const SidecarLayout& lay,
              const VertexRemap& remap, int num_nodes, ThreadPool* pool,
              Tensor* dest)
      : path_(path), lay_(lay), remap_(remap), num_nodes_(num_nodes),
        pool_(pool), dest_(dest),
        claims_((lay.temporal ? static_cast<std::size_t>(lay.num_snapshots)
                              : 1) *
                static_cast<std::size_t>(num_nodes)),
        tasks_(pool) {}

  /// Starts parsing the rows of `text` from `pos` on, whose first line is
  /// `line`. Its errors wait for finish().
  void start(const std::string& text, std::size_t pos, std::size_t line) {
    text_ = text;
    ++window_;
    PIPAD_CHECK_MSG(window_ != 0, path_ << ": too many windows");
    ranges_ =
        chunk_lines(text, pos, line, want_chunks(text.size() - pos, pool_));
    errors_.assign(ranges_.size(), nullptr);
    tasks_.start(ranges_.size(), [this](std::size_t i) {
      try {
        parse(ranges_[i]);
      } catch (...) {
        errors_[i] = std::current_exception();
      }
    });
  }

  /// Waits for the window's chunks; throws the error a serial parse of the
  /// window would throw.
  void finish() {
    tasks_.wait();
    const auto bad = std::find_if(
        errors_.begin(), errors_.end(),
        [](const std::exception_ptr& e) { return e != nullptr; });
    if (bad == errors_.end()) return;
    if (ranges_.size() > 1) {
      for (std::uint32_t& c : claims_) {
        if (c == window_) c = 0;
      }
      parse({ranges_.front().begin, ranges_.back().end,
             ranges_.front().first_line, 0});
    }
    std::rethrow_exception(*bad);
  }

 private:
  /// Parses chunk `c` of the window; throws at its first bad row.
  void parse(const Chunk& c) {
    const std::size_t lead = lay_.lead();
    const std::size_t want = lead + static_cast<std::size_t>(lay_.width);
    const char* what = lay_.targets ? "target" : "feature";
    const char* value_what = lay_.targets ? "target value" : "feature value";
    std::size_t pos = c.begin, line = c.first_line;
    for (; pos < c.end; ++line) {
      const std::size_t eol = std::min(text_.find('\n', pos), c.end);
      const std::string_view l = trim(text_.substr(pos, eol - pos));
      pos = eol + 1;
      if (l.empty() || l.front() == '#') continue;
      // A row is read in one pass. The field count is checked first, as
      // a split-then-parse reader would, but taken only once a row fails.
      const auto reject = [&](const std::string& msg) {
        const std::size_t got = Fields(l, false).count();
        if (got != want) {
          fail_at(path_, line,
                  lay_.targets ? "expected `t id y`, got " +
                                     std::to_string(got) + " token(s)"
                               : "expected " + std::to_string(want) +
                                     " tokens, got " + std::to_string(got));
        }
        fail_at(path_, line, msg);
      };
      Fields fields(l, false);
      std::string_view tok;
      const auto field = [&] {
        if (!fields.next(tok)) reject("");
        return tok;
      };
      int snap = 0;
      if (lay_.temporal) {
        const std::string_view ts = field();
        long long t = 0;
        if (!whole_number(ts, t)) reject(malformed("snapshot index", ts));
        if (t < 0 || t >= lay_.num_snapshots) {
          reject("snapshot index " + std::to_string(t) + " out of range [0, " +
                 std::to_string(lay_.num_snapshots) + ")");
        }
        snap = static_cast<int>(t);
      }
      const std::string_view id = field();
      int v = 0;
      try {
        v = remap_(id);
      } catch (const Error& e) {
        reject(e.what());
      }
      std::uint32_t unclaimed = 0;
      if (!std::atomic_ref<std::uint32_t>(
               claims_[static_cast<std::size_t>(snap) *
                           static_cast<std::size_t>(num_nodes_) +
                       static_cast<std::size_t>(v)])
               .compare_exchange_strong(unclaimed, window_,
                                        std::memory_order_relaxed)) {
        reject(std::string("duplicate ") + what + " row for vertex " +
               escape_token(id));
      }
      float* row = dest_[snap].row(v);
      for (int d = 0; d < lay_.width; ++d) {
        const std::string_view vt = field();
        if (!finite_float(vt, row[d])) reject(malformed(value_what, vt));
      }
      if (fields.next(tok)) reject("");
    }
  }

  const std::string& path_;
  const SidecarLayout lay_;
  const VertexRemap& remap_;
  const int num_nodes_;
  ThreadPool* const pool_;
  Tensor* const dest_;
  /// Per (snapshot, vertex) slot: the 1-based index of the window whose
  /// row filled it, or 0.
  std::vector<std::uint32_t> claims_;
  std::uint32_t window_ = 0;
  std::string_view text_;
  std::vector<Chunk> ranges_;
  std::vector<std::exception_ptr> errors_;
  /// Last, so that it is destroyed first (see ParseState::tasks).
  ChunkTasks tasks_;
};

/// Parses a sidecar's data rows: first `window`'s from `pos` on (whose
/// first line is `line`), then each later window of `in`, reading window
/// k + 1 while window k parses.
void parse_sidecar_rows(const std::string& path, StreamReader& in,
                        std::string& window, std::size_t pos,
                        std::size_t line, const SidecarLayout& lay,
                        const VertexRemap& remap, int num_nodes,
                        ThreadPool* pool, Tensor* dest) {
  std::string other;
  std::string* windows[2] = {&window, &other};
  std::size_t first_line[2] = {line, 1};
  std::exception_ptr read_error;
  SidecarRows rows(path, lay, remap, num_nodes, usable(pool), dest);
  rows.start(window, pos, line);
  for (std::size_t k = 0;; k ^= 1) {
    const std::size_t n = k ^ 1;
    const bool more = read_window(in, *windows[n], first_line[n], read_error);
    rows.finish();
    if (!more) break;
    rows.start(*windows[n], 0, first_line[n]);
  }
  if (read_error) std::rethrow_exception(read_error);
}

}  // namespace

FeatureFile parse_features(const std::string& path, StreamReader& in,
                           const VertexRemap& remap, int num_nodes,
                           int num_snapshots, ThreadPool* pool) {
  FeatureFile ff;
  std::string window;
  std::size_t pos = 0, line = 1;
  HeaderTokens h;
  sidecar_header(path, in, "# pipad-features v1 dim=D static|temporal",
                 {"#", "pipad-features", "v1", "dim="}, window, pos, line, h);
  const std::size_t hline = line - 1;
  const long long d =
      parse_ll_tok(h.tok[3].substr(4), path, hline, "feature dim");
  if (d <= 0 || d > 1000000) fail_at(path, hline, "feature dim out of range");
  ff.dim = static_cast<int>(d);
  ff.temporal = h.n > 4 && h.tok[4] == "temporal";
  if (h.n > 4 && h.tok[4] != "temporal" && h.tok[4] != "static") {
    fail_at(path, hline, "bad header mode '" + escape_token(h.tok[4]) + "'");
  }
  if (ff.temporal) {
    ff.per_snapshot.assign(num_snapshots, Tensor(num_nodes, ff.dim));
  } else {
    ff.static_feat = Tensor(num_nodes, ff.dim);
  }
  const SidecarLayout lay{false, ff.temporal, ff.dim, num_snapshots};
  parse_sidecar_rows(path, in, window, pos, line, lay, remap, num_nodes, pool,
                     ff.temporal ? ff.per_snapshot.data() : &ff.static_feat);
  return ff;
}

std::vector<Tensor> parse_targets(const std::string& path, StreamReader& in,
                                  const VertexRemap& remap, int num_nodes,
                                  int num_snapshots, ThreadPool* pool) {
  std::string window;
  std::size_t pos = 0, line = 1;
  HeaderTokens h;
  sidecar_header(path, in, "# pipad-targets v1", {"#", "pipad-targets", "v1"},
                 window, pos, line, h);
  std::vector<Tensor> out(num_snapshots, Tensor(num_nodes, 1));
  const SidecarLayout lay{true, true, 1, num_snapshots};
  parse_sidecar_rows(path, in, window, pos, line, lay, remap, num_nodes, pool,
                     out.data());
  return out;
}

}  // namespace pipad::graph::io
