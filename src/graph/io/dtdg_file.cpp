#include "graph/io/dtdg_file.hpp"

#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <vector>

namespace pipad::graph::io {

namespace {

// Implausibility caps: reject corrupt headers before they turn into
// multi-gigabyte allocations. (Every array read is additionally bounded
// by the bytes actually left in the file, so no corrupt length field can
// allocate more than the file could back.)
constexpr long long kMaxNodes = 1LL << 30;
constexpr long long kMaxSnapshots = 1 << 24;
constexpr long long kMaxFeatDim = 1 << 20;
constexpr std::uint32_t kMaxNameLen = 4096;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
void write_array(std::ostream& os, const T* data, std::size_t n) {
  os.write(reinterpret_cast<const char*>(data),
           static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
void read_pod(std::istream& is, T& v, const std::string& path) {
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(v))) {
    throw Error(path + ": truncated .dtdg file");
  }
}

template <typename T>
void read_array(std::istream& is, T* data, std::size_t n,
                const std::string& path) {
  const auto bytes = static_cast<std::streamsize>(n * sizeof(T));
  is.read(reinterpret_cast<char*>(data), bytes);
  if (is.gcount() != bytes) throw Error(path + ": truncated .dtdg file");
}

}  // namespace

void write_dtdg(const DTDG& g, const std::string& path,
                std::uint64_t config_hash) {
  const int n = g.num_nodes;
  const int S = g.num_snapshots();
  PIPAD_CHECK_MSG(static_cast<int>(g.targets.size()) == S,
                  "DTDG targets/snapshots length mismatch");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw Error("cannot write " + tmp);
    write_array(os, kDtdgMagic, sizeof(kDtdgMagic));
    write_pod(os, kDtdgVersion);
    write_pod(os, config_hash);
    write_pod(os, g.num_nodes);
    write_pod(os, g.feat_dim);
    write_pod(os, S);
    write_pod(os, g.sim_scale);
    const auto name_len = static_cast<std::uint32_t>(g.name.size());
    write_pod(os, name_len);
    write_array(os, g.name.data(), g.name.size());
    PIPAD_CHECK_MSG(g.vertex_names.empty() ||
                        g.vertex_names.size() == static_cast<std::size_t>(n),
                    "vertex_names length mismatch");
    const std::uint8_t has_names = g.vertex_names.empty() ? 0 : 1;
    write_pod(os, has_names);
    if (has_names != 0) {
      for (const std::string& vn : g.vertex_names) {
        PIPAD_CHECK_MSG(vn.size() <= kMaxNameLen, "vertex name too long");
        const auto len = static_cast<std::uint32_t>(vn.size());
        write_pod(os, len);
        write_array(os, vn.data(), vn.size());
      }
    }
    for (int t = 0; t < S; ++t) {
      const Snapshot& snap = g.snapshots[t];
      PIPAD_CHECK_MSG(snap.adj.rows == n && snap.adj.cols == n,
                      "snapshot " << t << " adjacency shape mismatch");
      PIPAD_CHECK_MSG(snap.features.rows() == n &&
                          snap.features.cols() == g.feat_dim,
                      "snapshot " << t << " feature shape mismatch");
      PIPAD_CHECK_MSG(g.targets[t].rows() == n && g.targets[t].cols() == 1,
                      "snapshot " << t << " target shape mismatch");
      PIPAD_CHECK_MSG(snap.edge_w.empty() ||
                          snap.edge_w.size() == snap.adj.nnz(),
                      "snapshot " << t << " edge weight length mismatch");
      const std::uint64_t nnz = snap.adj.nnz();
      write_pod(os, nnz);
      write_array(os, snap.adj.row_ptr.data(), snap.adj.row_ptr.size());
      write_array(os, snap.adj.col_idx.data(), snap.adj.col_idx.size());
      const std::uint8_t has_w = snap.edge_w.empty() ? 0 : 1;
      write_pod(os, has_w);
      if (has_w != 0) {
        write_array(os, snap.edge_w.data(), snap.edge_w.size());
      }
      write_array(os, snap.features.data(), snap.features.size());
      write_array(os, g.targets[t].data(), g.targets[t].size());
    }
    os.flush();
    if (!os) throw Error("write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw Error("cannot move " + tmp + " to " + path + ": " + ec.message());
  }
}

namespace {

/// Shared header read; leaves `is` positioned at the first snapshot.
struct Header {
  std::uint64_t config_hash = 0;
  int num_nodes = 0, feat_dim = 0, num_snapshots = 0, sim_scale = 1;
  std::string name;
};

/// Checks the magic and the version; leaves `is` at the config hash.
void read_magic_version(std::istream& is, const std::string& path) {
  char magic[sizeof(kDtdgMagic)];
  is.read(magic, sizeof(magic));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(magic)) ||
      std::memcmp(magic, kDtdgMagic, sizeof(magic)) != 0) {
    throw Error(path + ": not a .dtdg file (bad magic)");
  }
  std::uint32_t version = 0;
  read_pod(is, version, path);
  if (version != kDtdgVersion) {
    throw Error(path + ": unsupported .dtdg version " +
                std::to_string(version));
  }
}

Header read_header(std::istream& is, const std::string& path) {
  read_magic_version(is, path);
  Header h;
  read_pod(is, h.config_hash, path);
  read_pod(is, h.num_nodes, path);
  read_pod(is, h.feat_dim, path);
  read_pod(is, h.num_snapshots, path);
  read_pod(is, h.sim_scale, path);
  if (h.num_nodes < 0 || h.num_nodes > kMaxNodes || h.feat_dim < 0 ||
      h.feat_dim > kMaxFeatDim || h.num_snapshots < 0 ||
      h.num_snapshots > kMaxSnapshots || h.sim_scale < 1) {
    throw Error(path + ": implausible .dtdg header");
  }
  std::uint32_t name_len = 0;
  read_pod(is, name_len, path);
  if (name_len > kMaxNameLen) {
    throw Error(path + ": implausible .dtdg name length");
  }
  h.name.resize(name_len);
  if (name_len > 0) read_array(is, h.name.data(), name_len, path);
  return h;
}

}  // namespace

std::uint64_t read_dtdg_hash(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open " + path);
  read_magic_version(is, path);
  std::uint64_t hash = 0;
  read_pod(is, hash, path);
  return hash;
}

DTDG read_dtdg(const std::string& path, ThreadPool* pool,
               std::uint64_t* config_hash) {
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  if (ec) throw Error("cannot open " + path + ": " + ec.message());
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open " + path);
  const Header h = read_header(is, path);
  if (config_hash != nullptr) *config_hash = h.config_hash;

  // Bound every upcoming allocation by the bytes the file can actually
  // back — a corrupt length field then reads as "truncated", it never
  // resizes a vector past the file size.
  const auto remaining = [&]() -> std::uintmax_t {
    const auto pos = static_cast<std::uintmax_t>(is.tellg());
    return pos > file_size ? 0 : file_size - pos;
  };
  const auto check_fits = [&](std::uint64_t count, std::size_t elem_size) {
    if (count > remaining() / elem_size) {
      throw Error(path + ": truncated .dtdg file");
    }
  };

  // Every snapshot carries at least its u64 nnz field, so a snapshot count
  // the file cannot back is caught before the per-snapshot resizes.
  if (static_cast<std::uintmax_t>(h.num_snapshots) * sizeof(std::uint64_t) >
      remaining()) {
    throw Error(path + ": truncated .dtdg file");
  }

  DTDG g;
  g.name = h.name;
  g.num_nodes = h.num_nodes;
  g.feat_dim = h.feat_dim;
  g.sim_scale = h.sim_scale;

  // v3 vertex-name table (string-id datasets): names are stored in the
  // dense remap order, which the loader defines as ascending — readers
  // enforce sorted + unique so a corrupt table cannot smuggle in an
  // ambiguous remap.
  std::uint8_t has_names = 0;
  read_pod(is, has_names, path);
  if (has_names > 1) throw Error(path + ": corrupt vertex-name flag");
  if (has_names != 0) {
    g.vertex_names.resize(static_cast<std::size_t>(h.num_nodes));
    for (int v = 0; v < h.num_nodes; ++v) {
      std::uint32_t len = 0;
      read_pod(is, len, path);
      if (len > kMaxNameLen) {
        throw Error(path + ": implausible vertex name length");
      }
      std::string& vn = g.vertex_names[static_cast<std::size_t>(v)];
      vn.resize(len);
      if (len > 0) read_array(is, vn.data(), len, path);
      if (v > 0 && vn <= g.vertex_names[static_cast<std::size_t>(v) - 1]) {
        throw Error(path + ": vertex-name table is not sorted unique");
      }
    }
  }

  g.snapshots.resize(static_cast<std::size_t>(h.num_snapshots));
  g.targets.resize(static_cast<std::size_t>(h.num_snapshots));

  // The walk (see the header); `offsets[t]` is where snapshot t's row_ptr
  // starts. Its error waits for the tasks of the snapshots before it and of
  // the one it stopped in, once that one's adjacency is allocated.
  const int n = h.num_nodes;
  const auto un = static_cast<std::uint64_t>(n);
  std::vector<std::streamoff> offsets;
  std::exception_ptr walk_error;
  const auto skip = [&](std::uint64_t count, std::size_t elem_size) {
    is.seekg(static_cast<std::streamoff>(count * elem_size), std::ios::cur);
  };
  try {
    for (int t = 0; t < h.num_snapshots; ++t) {
      Snapshot& snap = g.snapshots[t];
      std::uint64_t nnz = 0;
      read_pod(is, nnz, path);
      if (nnz > un * un) throw Error(path + ": implausible snapshot nnz");
      check_fits(un + 1 + nnz, sizeof(int));
      snap.adj.rows = n;
      snap.adj.cols = n;
      snap.adj.row_ptr.resize(static_cast<std::size_t>(n) + 1);
      snap.adj.col_idx.resize(static_cast<std::size_t>(nnz));
      offsets.push_back(is.tellg());
      skip(un + 1 + nnz, sizeof(int));
      std::uint8_t has_w = 0;
      read_pod(is, has_w, path);
      if (has_w > 1) throw Error(path + ": corrupt edge weight flag");
      if (has_w != 0) {
        check_fits(nnz, sizeof(float));
        snap.edge_w.resize(static_cast<std::size_t>(nnz));
        skip(nnz, sizeof(float));
      }
      const std::uint64_t floats =
          un * static_cast<std::uint64_t>(h.feat_dim) + un;
      check_fits(floats, sizeof(float));
      snap.features = Tensor(n, h.feat_dim);
      g.targets[t] = Tensor(n, 1);
      skip(floats, sizeof(float));
    }
    if (is.peek() != std::ifstream::traits_type::eof()) {
      throw Error(path + ": trailing bytes after last snapshot");
    }
  } catch (...) {
    walk_error = std::current_exception();
  }

  // One task per snapshot; storage the walk did not allocate reads nothing.
  const auto read_snapshot = [&](std::size_t t) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot open " + path);
    in.seekg(offsets[t]);
    Snapshot& snap = g.snapshots[t];
    read_array(in, snap.adj.row_ptr.data(), snap.adj.row_ptr.size(), path);
    read_array(in, snap.adj.col_idx.data(), snap.adj.col_idx.size(), path);
    try {
      snap.adj.validate();
    } catch (const Error& e) {
      throw Error(path + ": corrupt snapshot " + std::to_string(t) + ": " +
                  e.what());
    }
    in.ignore(1);  // has_w, checked by the walk.
    read_array(in, snap.edge_w.data(), snap.edge_w.size(), path);
    read_array(in, snap.features.data(), snap.features.size(), path);
    read_array(in, g.targets[t].data(), g.targets[t].size(), path);
    snap.adj_t = transpose(snap.adj);
  };
  if (pool != nullptr && offsets.size() > 1 &&
      ThreadPool::current_pool() == nullptr) {
    pool->parallel_for(offsets.size(), read_snapshot);
  } else {
    for (std::size_t t = 0; t < offsets.size(); ++t) read_snapshot(t);
  }
  if (walk_error) std::rethrow_exception(walk_error);
  return g;
}

}  // namespace pipad::graph::io
