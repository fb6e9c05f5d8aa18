// Binary DTDG snapshot files (`.dtdg`) — the on-disk cache that lets a
// re-run skip the text parse entirely.
//
// Layout (native little-endian, no padding; docs/DATASET_FORMATS.md):
//
//   u8[8]  magic            "PIPADTDG"
//   u32    version          3 (v2 added the per-snapshot edge weights; v3
//                           added the optional vertex-name table; older
//                           files are rejected, which a cache probe treats
//                           as a miss)
//   u64    config_hash      cache key: XXH64 of each input file, folded
//                           with sizes, sidecar presence, load options and
//                           the loader version; the loader treats a
//                           mismatch as a cache miss
//   i32    num_nodes
//   i32    feat_dim
//   i32    num_snapshots
//   i32    sim_scale
//   u32    name_len, u8[name_len] name
//   u8     has_names        1 when the dataset uses string vertex ids
//   if has_names, per vertex (num_nodes of them, ascending name order —
//   the dense remap order):
//     u32  len, u8[len]     vertex name (validated sorted + unique on read)
//   per snapshot, in order:
//     u64  nnz
//     i32[num_nodes + 1]        adj.row_ptr
//     i32[nnz]                  adj.col_idx
//     u8   has_w                1 when the snapshot carries edge weights
//     f32[nnz]                  edge_w (only when has_w == 1)
//     f32[num_nodes * feat_dim] features (row-major)
//     f32[num_nodes]            targets
//
// A read is a serial walk, then one pool task per snapshot. The walk reads
// the length fields and makes every structural check (nnz plausibility,
// each array fits in the file, the has_w flag, no trailing bytes); it also
// allocates each snapshot's storage on the calling thread, which keeps a
// load's peak RSS where a serial read has it. Each task reads its
// snapshot's arrays into that storage through its own stream, validates
// the CSR and recomputes the transpose (adj_t). adj_t is NOT stored, which
// halves the file and keeps the cache bit-exact (transpose() is
// deterministic). A truncated or corrupt file fails loudly, at every pool
// width with the error a front-to-back read meets first.
#pragma once

#include <cstdint>
#include <string>

#include "common/thread_pool.hpp"
#include "graph/dtdg.hpp"

namespace pipad::graph::io {

inline constexpr char kDtdgMagic[8] = {'P', 'I', 'P', 'A', 'D', 'T', 'D', 'G'};
inline constexpr std::uint32_t kDtdgVersion = 3;

/// Serialize a DTDG. Writes to `path + ".tmp"` then renames, so concurrent
/// readers never observe a half-written cache file. Throws Error on I/O
/// failure or an inconsistently-shaped DTDG.
void write_dtdg(const DTDG& g, const std::string& path,
                std::uint64_t config_hash);

/// Read just the header's config hash (cache probe). Throws Error on bad
/// magic / unsupported version / truncation.
std::uint64_t read_dtdg_hash(const std::string& path);

/// Full read; the snapshot tasks run on `pool` when one is given and the
/// caller is not already on a pool worker, else inline. Throws Error on any
/// structural problem. `config_hash` receives the stored hash if non-null.
DTDG read_dtdg(const std::string& path, ThreadPool* pool = nullptr,
               std::uint64_t* config_hash = nullptr);

}  // namespace pipad::graph::io
