// Text dataset formats: timestamped edge lists, temporal-graph CSV, and the
// node-feature / regression-target sidecar files.
//
// docs/DATASET_FORMATS.md is the normative spec. In short:
//
//   edge list    `src dst t [w]`, whitespace-separated; `#` starts a comment;
//                comment tokens `nodes=N` / `snapshots=S` are directives
//   CSV          a header row naming `src`, `dst`, `t` (and optionally `w`)
//                columns in any order (extra columns are ignored), then one
//                edge per row; `#` comment lines are allowed anywhere and
//                may carry the same directives
//   features     `# pipad-features v1 dim=D static|temporal` header, then
//                `id f0 .. fD-1` (static) or `t id f0 .. fD-1` (temporal)
//   targets      `# pipad-targets v1` header, then `t id y`
//
// Timestamps are signed 64-bit integers and must be non-decreasing through
// the file. Vertex ids are either non-negative 64-bit integers or — when
// the first data row's src token is quoted or does not parse as an integer
// — arbitrary strings (string-id mode, EdgeFile::string_ids): every id in
// the file is then a string, optionally "double-quoted", and the loader
// remaps the sorted-unique name set to a dense range.
//
// Both edge formats go through one entry point, parse_edge_stream, and one
// row parser: a row layout says how a line splits and which field holds
// src, dst, t and w. A CSV's layout comes from its header row; an edge list
// has the fixed `src dst t [w]` layout. A field cursor reads each row's
// fields in place (no token vector), and numbers parse with from_chars.
//
// The input is pulled in windows (see stream_reader.hpp). Each window is
// split at newline boundaries into bounded chunks, and each chunk's output
// is sized once from its newline count, in a buffer an earlier window used
// when there is one. The parse is pipelined over two window buffers:
//
//   caller    read k+1 | wait k, merge | start k+1 | sink(k)   | read k+2 ..
//   pool                   parse k     |      parse k+1 ...
//
// With a pool, window k+1's chunks are pool tasks that run while the
// calling thread hands window k to the sink (the loader's snapshot feed)
// and reads window k+2; without one (or from inside a pool) the same loop
// runs each step inline. Chunk results merge in file order, so the parser
// holds two windows, not the file, and the parsed stream is byte-identical
// for any window size and thread count. Errors keep serial order: a
// window's scan error, then its lowest chunk's, then the merge's; a sink
// error in window k wins over anything in window k+1, and a read error
// surfaces only after every window before it was parsed and sunk.
//
// The sidecar parsers pull their files through the same two-buffer loop
// (the next window is read while this one parses) and write each row's
// values straight into its tensor row; see parse_features.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace pipad::graph::io {

class StreamReader;

struct TemporalEdge {
  long long src = 0;
  long long dst = 0;
  long long t = 0;
  float w = 1.0f;  ///< Optional weight: validated (finite) and kept in
                   ///< Snapshot::edge_w (duplicates sum; see graph/dtdg.hpp).
};

/// What parsing an edge file found besides its rows (which go to the sink).
struct EdgeFile {
  long long declared_nodes = -1;  ///< `nodes=N` directive (-1 = absent).
  int declared_snapshots = -1;    ///< `snapshots=S` directive (-1 = absent).
  bool has_weights = false;       ///< Any row carried a weight.
  std::size_t parse_chunks = 1;   ///< Chunks the parse fanned out to (max
                                  ///< over windows).
  bool string_ids = false;        ///< String-id mode (see header comment).
  /// String-id mode: the distinct vertex names in first-appearance order;
  /// edges' src/dst index into this table. Empty in integer-id mode.
  std::vector<std::string> names;
  std::size_t streamed_edges = 0;  ///< Edge rows handed to the sink.
};

/// Read a whole file into memory with one sized read; throws Error when it
/// cannot be opened or delivers fewer bytes than its size.
std::string read_file(const std::string& path);

/// FNV-1a over a byte range, chainable through `h`: folds a few scalars
/// (cache-key digests and options, bench signatures) into one value.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull);
std::uint64_t fnv1a_u64(std::uint64_t v,
                        std::uint64_t h = 0xcbf29ce484222325ull);

/// Streaming XXH64 (the public spec: four independent 64-bit
/// multiply-rotate lanes over 32-byte stripes, then the tail and the
/// avalanche) with seed 0 — the content hash behind the `.dtdg` cache key.
/// The digest depends only on the bytes fed, never on how update() calls
/// split them. Input words are read in host byte order, so digests match
/// the published vectors on little-endian hosts (the byte order `.dtdg`
/// files assume).
class ContentHash {
 public:
  ContentHash();
  void update(const void* data, std::size_t n);
  /// Digest of everything fed so far; more update() calls may follow.
  std::uint64_t digest() const;
  /// Bytes fed so far.
  std::uint64_t size() const { return total_; }

 private:
  std::uint64_t lane_[4];
  unsigned char stripe_[32] = {};
  std::size_t buffered_ = 0;  ///< Bytes pending in stripe_ (< 32).
  std::uint64_t total_ = 0;
};

/// `tok` made safe for an error message: non-printable bytes become \xNN
/// escapes and anything past `max_bytes` input bytes is elided with "...",
/// so a malformed-token error never embeds raw binary garbage.
std::string escape_token(std::string_view tok, std::size_t max_bytes = 32);

/// Strip one layer of surrounding double quotes (string-id mode); quotes
/// do not protect whitespace or commas — ids containing separators are
/// unsupported.
std::string_view strip_quotes(std::string_view t);

/// One window's parsed edges: the parse chunks' edge vectors in file order
/// (empty chunks omitted). Their concatenation is the window's edge stream;
/// handing them over as they are copies nothing.
using EdgeChunks = std::vector<std::vector<TemporalEdge>>;

/// Streaming sink: receives each window's edges in file order, exactly
/// once, after that window fully parsed and merged. `so_far` is the
/// accumulating summary — directives, string_ids/names, has_weights and
/// streamed_edges reflect everything parsed up to and including this
/// window (so a sink may commit to a staging strategy on its first
/// non-empty window). The next window may be parsing on the pool while
/// the sink runs. A sink keeps a chunk by moving it out; the chunks it
/// leaves are cleared and their buffers reused for later windows.
using EdgeSink = std::function<void(const EdgeFile& so_far, EdgeChunks&&)>;

/// Parse an edge file — a temporal CSV when `csv`, else an edge list —
/// pulling newline-aligned windows from `in`, parsing each chunk-parallel
/// and pipelined (see the header comment), and handing each window's edges
/// to `sink`: memory stays bounded by two windows. The returned EdgeFile
/// carries directives, names, flags and streamed_edges. `path` is used in
/// error messages only.
EdgeFile parse_edge_stream(const std::string& path, bool csv, StreamReader& in,
                           ThreadPool* pool, const EdgeSink& sink);

/// A parsed node-feature file. Unlisted (t, id) slots stay 0; duplicate
/// rows are rejected.
struct FeatureFile {
  int dim = 0;
  bool temporal = false;
  Tensor static_feat;               ///< !temporal: [num_nodes x dim].
  std::vector<Tensor> per_snapshot; ///< temporal: S tensors [num_nodes x dim].
};

/// Vertex-id remap for sidecar files: converts a raw id token (integer, or
/// an optionally-quoted name in string-id mode) to a dense index; throws
/// Error on unknown/malformed ids.
using VertexRemap = std::function<int(std::string_view)>;

/// Parse a feature file, pulling newline-aligned windows from `in` and
/// writing each row's values straight into its tensor row. `remap`
/// converts raw vertex-id tokens to dense indices and throws on unknown ids
/// (it is called from pool threads, so it must be safe to call
/// concurrently); `num_snapshots` bounds temporal rows' `t`. With a pool
/// (and when not already on a pool worker) each window's rows parse as
/// chunk tasks while the next window is read. A row claims its
/// (snapshot, vertex) slot before writing it, so a slot is written at most
/// once; a window with any error or duplicate is rescanned serially, so the
/// result, and the line any error names, are the same at every width and
/// window size. `path` is used in error messages only.
FeatureFile parse_features(const std::string& path, StreamReader& in,
                           const VertexRemap& remap, int num_nodes,
                           int num_snapshots, ThreadPool* pool = nullptr);

/// Parse a target file into one [num_nodes x 1] tensor per snapshot; `in`
/// and the pool are used as in parse_features.
std::vector<Tensor> parse_targets(const std::string& path, StreamReader& in,
                                  const VertexRemap& remap, int num_nodes,
                                  int num_snapshots,
                                  ThreadPool* pool = nullptr);

}  // namespace pipad::graph::io
