#include "graph/io/text_format.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
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

/// True when `tok` is entirely one number literal of v's type (stored in v).
template <typename T>
bool whole_number(std::string_view tok, T& v) {
  const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  return ec == std::errc{} && p == tok.data() + tok.size();
}

long long parse_ll_tok(std::string_view tok, const std::string& path,
                       std::size_t line, const char* what) {
  long long v = 0;
  if (!whole_number(tok, v)) {
    fail_at(path, line,
            std::string("malformed ") + what + " '" + escape_token(tok) + "'");
  }
  return v;
}

float parse_f_tok(std::string_view tok, const std::string& path,
                  std::size_t line, const char* what) {
  float v = 0.0f;
  if (!whole_number(tok, v) || !std::isfinite(v)) {
    fail_at(path, line,
            std::string("malformed ") + what + " '" + escape_token(tok) + "'");
  }
  return v;
}

/// A line's tokens. Each parse chunk keeps one buffer and refills it per
/// line, so a data line allocates nothing once the buffer has grown.
using Tokens = std::vector<std::string_view>;

/// Split a line into whitespace-separated tokens (`out` is cleared first).
void ws_tokens(std::string_view line, Tokens& out) {
  out.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    std::size_t b = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (i > b) out.push_back(line.substr(b, i - b));
  }
}

/// A byte range of the input covering whole lines, plus the 1-based line
/// number its first line has in the file.
struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t first_line = 1;
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
    out.push_back({pos, end, line});
    line += count_newlines(s.data() + pos, s.data() + end);
    pos = end;
  }
  return out;
}

std::size_t want_chunks(std::size_t bytes, ThreadPool* pool) {
  if (pool == nullptr || ThreadPool::current_pool() != nullptr) return 1;
  const std::size_t by_size = std::max<std::size_t>(1, bytes / kMinChunkBytes);
  return std::min(pool->size() * 2, by_size);
}

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
};

/// Recognize `nodes=N` / `snapshots=S` tokens in a comment line.
void scan_directives(std::string_view comment, const std::string& path,
                     std::size_t line, Tokens& toks, Partial& out) {
  ws_tokens(comment, toks);
  for (std::string_view tok : toks) {
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

  /// Split a line into its fields (`out` is cleared first).
  void split(std::string_view line, Tokens& out) const {
    if (!csv) {
      ws_tokens(line, out);
      return;
    }
    out.clear();
    std::size_t pos = 0;
    for (;;) {
      const std::size_t comma = line.find(',', pos);
      if (comma == std::string_view::npos) {
        out.push_back(trim(line.substr(pos)));
        return;
      }
      out.push_back(trim(line.substr(pos, comma - pos)));
      pos = comma + 1;
    }
  }
};

RowLayout csv_layout(const std::string& path, std::string_view header,
                     std::size_t line) {
  RowLayout lay;
  lay.csv = true;
  lay.w = RowLayout::kNone;
  Tokens cells;
  lay.split(header, cells);
  lay.columns = cells.size();
  bool have_src = false, have_dst = false, have_t = false, have_w = false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string_view c = cells[i];
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
  Tokens toks;
  for (std::size_t pos = 0, line = first_line; pos < text.size(); ++line) {
    const std::string_view l = next_line(text, pos);
    if (l.empty()) continue;
    if (l.front() == '#') {
      scan_directives(l.substr(1), path, line, toks, out);
      continue;
    }
    lay.split(l, toks);
    if (lay.csv && toks.size() != lay.columns) {
      fail_at(path, line,
              "expected " + std::to_string(lay.columns) + " columns, got " +
                  std::to_string(toks.size()));
    }
    if (!lay.csv && toks.size() != 3 && toks.size() != 4) {
      fail_at(path, line,
              "expected `src dst t [w]`, got " + std::to_string(toks.size()) +
                  " token(s)");
    }
    TemporalEdge e;
    e.src = vertex_tok(toks[lay.src], string_ids, scratch, out, path, line,
                       "src vertex");
    e.dst = vertex_tok(toks[lay.dst], string_ids, scratch, out, path, line,
                       "dst vertex");
    e.t = parse_ll_tok(toks[lay.t], path, line, "timestamp");
    if (lay.w < toks.size()) {
      e.w = parse_f_tok(toks[lay.w], path, line, "weight");
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
/// name table, and the cross-chunk timestamp-ordering state.
struct ParseState {
  const std::string& path;
  ThreadPool* pool;

  EdgeFile out;
  /// Edges parsed since the last hand-off, one vector per non-empty chunk,
  /// in file order.
  EdgeChunks chunks;
  bool first_region = true;
  bool mode_known = false;
  bool have_layout;  ///< False until a CSV's header row is seen.
  RowLayout lay;
  bool have_prev = false;
  long long prev_t = 0;
  /// Global name -> arrival-order id (string-id mode). Owns the strings
  /// that `out.names` views would dangle on — out.names stores copies.
  std::unordered_map<std::string, long long> name_index;

  ParseState(const std::string& p, ThreadPool* pl, bool csv)
      : path(p), pool(pl), have_layout(!csv) {}

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
      Tokens toks;
      scan_directives(l.substr(1), path, at, toks, pre);
      merge_directives(pre.nodes, pre.snapshots);
    }
    return false;
  }

  /// The first data row's src token decides integer vs string ids. -1 =
  /// region has no data rows (mode stays undecided).
  int detect_mode(const std::string& text, std::size_t start) const {
    Tokens toks;
    for (std::size_t pos = start; pos < text.size();) {
      const std::string_view l = next_line(text, pos);
      if (l.empty() || l.front() == '#') continue;
      lay.split(l, toks);
      if (lay.src >= toks.size()) return 0;  // Column error surfaces later.
      long long id = 0;
      return whole_number(toks[lay.src], id) ? 0 : 1;
    }
    return -1;
  }

  /// Folds the region's chunk results into the file state in chunk order
  /// and moves each non-empty chunk's edges onto `chunks` — no copy.
  void merge(std::vector<Partial>& parts) {
    for (Partial& p : parts) {
      merge_directives(p.nodes, p.snapshots);
      out.has_weights = out.has_weights || p.weights;
      if (p.edges.empty()) continue;
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
      chunks.push_back(std::move(p.edges));
    }
  }

  /// Parse one region (whole lines) whose first line is `start_line`,
  /// appending its per-chunk edge vectors to `chunks`.
  void parse_region(const std::string& text, std::size_t start_line) {
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
    const auto ranges =
        chunk_lines(text, pos, line, want_chunks(text.size() - pos, pool));
    std::vector<Partial> parts(ranges.size());
    const auto parse_one = [&](std::size_t i) {
      const Chunk& c = ranges[i];
      parse_chunk(path, std::string_view(text).substr(c.begin, c.end - c.begin),
                  c.first_line, lay, out.string_ids, parts[i]);
    };
    if (pool != nullptr && ranges.size() > 1 &&
        ThreadPool::current_pool() == nullptr) {
      pool->parallel_for(ranges.size(), parse_one);
    } else {
      for (std::size_t i = 0; i < ranges.size(); ++i) parse_one(i);
    }
    merge(parts);
    out.parse_chunks =
        std::max(out.parse_chunks, std::max<std::size_t>(1, ranges.size()));
  }
};

}  // namespace

EdgeFile parse_edge_stream(const std::string& path, bool csv, StreamReader& in,
                           ThreadPool* pool, const EdgeSink& sink) {
  ParseState st(path, pool, csv);
  std::string window;
  std::size_t first_line = 1;
  while (in.next_window(window, first_line)) {
    st.parse_region(window, first_line);
    sink(st.out, std::exchange(st.chunks, EdgeChunks()));
  }
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

/// One parsed data row: where its line starts in the window and the
/// (snapshot, vertex) slot it fills. Its values follow in
/// SidecarPart::values.
struct SidecarRow {
  std::size_t offset;
  int snap;
  int v;
};

/// One chunk's rows, parsed independently of the others.
struct SidecarPart {
  std::vector<SidecarRow> rows;
  std::vector<float> values;  ///< SidecarLayout::width per row.
  /// The chunk's first bad row; parsing stopped there.
  std::exception_ptr error;
  /// The bad row resolved its slot before failing (a malformed value): it
  /// is rows.back(), and its duplicate check comes first, as in a serial
  /// parse.
  bool error_has_slot = false;
};

/// Pulls windows from `in` up to the first non-blank line, the header, and
/// splits it into `toks` (views into `window`), with `pos` and `line`
/// advanced past it. Throws "bad header" naming `format` when the file has
/// no header or its first tokens are not `magic` (a magic token ending in
/// '=' is a key whose value follows).
void sidecar_header(const std::string& path, StreamReader& in,
                    const char* format, const Tokens& magic,
                    std::string& window, std::size_t& pos, std::size_t& line,
                    Tokens& toks) {
  const std::string bad = std::string("bad header (expected `") + format + "`)";
  while (in.next_window(window, line)) {
    for (pos = 0; pos < window.size(); ++line) {
      ws_tokens(next_line(window, pos), toks);
      if (toks.empty()) continue;
      pos = std::min(pos, window.size());
      for (std::size_t i = 0; i < magic.size(); ++i) {
        const std::string_view m = magic[i];
        if (i >= toks.size() ||
            (m.back() == '=' ? toks[i].substr(0, m.size()) : toks[i]) != m) {
          fail_at(path, line, bad);
        }
      }
      ++line;
      return;
    }
  }
  throw Error(path + ": " + bad);
}

void parse_sidecar_chunk(const std::string& path, const std::string& content,
                         const Chunk& c, const SidecarLayout& lay,
                         const VertexRemap& remap, SidecarPart& out) {
  const std::size_t lead = lay.lead();
  const std::size_t want = lead + static_cast<std::size_t>(lay.width);
  const char* value_what = lay.targets ? "target value" : "feature value";
  Tokens toks;
  std::size_t pos = c.begin, line = c.first_line;
  try {
    while (pos < c.end) {
      const std::size_t eol = std::min(content.find('\n', pos), c.end);
      const std::string_view l =
          trim(std::string_view(content).substr(pos, eol - pos));
      const std::size_t offset = pos;
      pos = eol + 1;
      if (l.empty() || l.front() == '#') {
        ++line;
        continue;
      }
      ws_tokens(l, toks);
      if (toks.size() != want) {
        fail_at(path, line,
                lay.targets ? "expected `t id y`, got " +
                                  std::to_string(toks.size()) + " token(s)"
                            : "expected " + std::to_string(want) +
                                  " tokens, got " +
                                  std::to_string(toks.size()));
      }
      int snap = 0;
      if (lay.temporal) {
        const long long t = parse_ll_tok(toks[0], path, line, "snapshot index");
        if (t < 0 || t >= lay.num_snapshots) {
          fail_at(path, line, "snapshot index " + std::to_string(t) +
                                  " out of range [0, " +
                                  std::to_string(lay.num_snapshots) + ")");
        }
        snap = static_cast<int>(t);
      }
      int v;
      try {
        v = remap(toks[lead - 1]);
      } catch (const Error& e) {
        fail_at(path, line, e.what());
      }
      out.rows.push_back({offset, snap, v});
      out.error_has_slot = true;
      for (std::size_t d = lead; d < want; ++d) {
        out.values.push_back(parse_f_tok(toks[d], path, line, value_what));
      }
      out.error_has_slot = false;
      ++line;
    }
  } catch (...) {
    out.error = std::current_exception();
  }
}

/// Parses a sidecar's data rows window by window: first `window`'s rows
/// from `pos` on (whose first line is `line`), then each later window of
/// `in`. A window's rows parse in newline-aligned chunks, on `pool` when
/// there is more than one, and are then copied into row v of dest[snap]
/// serially in file order. `seen` outlives the windows, so a second row for
/// a (snapshot, vertex) slot is rejected wherever it falls. A chunk holds
/// its first error until every earlier row has passed that check, so the
/// error thrown names the line a serial parse stops at, at any pool width
/// and window size.
void parse_sidecar_rows(const std::string& path, StreamReader& in,
                        std::string& window, std::size_t pos,
                        std::size_t line, const SidecarLayout& lay,
                        const VertexRemap& remap, int num_nodes,
                        ThreadPool* pool, Tensor* dest) {
  std::vector<std::vector<bool>> seen(
      lay.temporal ? static_cast<std::size_t>(lay.num_snapshots) : 1,
      std::vector<bool>(static_cast<std::size_t>(num_nodes)));
  const auto width = static_cast<std::size_t>(lay.width);
  Tokens toks;
  do {
    const auto ranges =
        chunk_lines(window, pos, line, want_chunks(window.size() - pos, pool));
    std::vector<SidecarPart> parts(ranges.size());
    const auto parse_one = [&](std::size_t i) {
      parse_sidecar_chunk(path, window, ranges[i], lay, remap, parts[i]);
    };
    if (ranges.size() > 1) {  // want_chunks gave 1 unless `pool` is usable.
      pool->parallel_for(ranges.size(), parse_one);
    } else if (!ranges.empty()) {
      parse_one(0);
    }
    for (std::size_t c = 0; c < parts.size(); ++c) {
      SidecarPart& part = parts[c];
      for (std::size_t r = 0; r < part.rows.size(); ++r) {
        const SidecarRow& row = part.rows[r];
        auto slot = seen[static_cast<std::size_t>(row.snap)]
                        [static_cast<std::size_t>(row.v)];
        if (slot) {
          std::size_t at = row.offset;
          ws_tokens(next_line(window, at), toks);
          fail_at(path,
                  ranges[c].first_line +
                      count_newlines(window.data() + ranges[c].begin,
                                     window.data() + row.offset),
                  std::string("duplicate ") +
                      (lay.targets ? "target" : "feature") +
                      " row for vertex " + escape_token(toks[lay.lead() - 1]));
        }
        if (part.error && part.error_has_slot && r + 1 == part.rows.size()) {
          break;
        }
        slot = true;
        std::copy_n(part.values.data() + r * width, width,
                    dest[row.snap].row(row.v));
      }
      if (part.error) std::rethrow_exception(part.error);
      part = SidecarPart();
    }
    pos = 0;
  } while (in.next_window(window, line));
}

}  // namespace

FeatureFile parse_features(const std::string& path, StreamReader& in,
                           const VertexRemap& remap, int num_nodes,
                           int num_snapshots, ThreadPool* pool) {
  FeatureFile ff;
  std::string window;
  std::size_t pos = 0, line = 1;
  Tokens toks;
  sidecar_header(path, in, "# pipad-features v1 dim=D static|temporal",
                 {"#", "pipad-features", "v1", "dim="}, window, pos, line,
                 toks);
  const std::size_t hline = line - 1;
  const long long d =
      parse_ll_tok(toks[3].substr(4), path, hline, "feature dim");
  if (d <= 0 || d > 1000000) fail_at(path, hline, "feature dim out of range");
  ff.dim = static_cast<int>(d);
  ff.temporal = toks.size() > 4 && toks[4] == "temporal";
  if (toks.size() > 4 && toks[4] != "temporal" && toks[4] != "static") {
    fail_at(path, hline, "bad header mode '" + escape_token(toks[4]) + "'");
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
  Tokens toks;
  sidecar_header(path, in, "# pipad-targets v1", {"#", "pipad-targets", "v1"},
                 window, pos, line, toks);
  std::vector<Tensor> out(num_snapshots, Tensor(num_nodes, 1));
  const SidecarLayout lay{true, true, 1, num_snapshots};
  parse_sidecar_rows(path, in, window, pos, line, lay, remap, num_nodes, pool,
                     out.data());
  return out;
}

}  // namespace pipad::graph::io
