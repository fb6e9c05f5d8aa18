// graph/io tests: text-format parsing, malformed-input rejection, vertex
// remapping, snapshotting modes, the generate -> export -> load round trip
// (bit-exact), determinism across pool widths, the .dtdg binary format and
// snapshot cache, worker-lane charging of measured load phases, and the
// chunk-parallel sidecar parse.
#include <gtest/gtest.h>

#include <zlib.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generator.hpp"
#include "graph/io/dtdg_file.hpp"
#include "graph/io/exporter.hpp"
#include "graph/io/loader.hpp"
#include "graph/io/stream_reader.hpp"
#include "graph/io/text_format.hpp"

namespace pipad::graph::io {
namespace {

namespace fs = std::filesystem;

/// Unique, initially-empty scratch directory per test.
fs::path temp_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::path(::testing::TempDir()) / "pipad_io" /
                 (std::string(info->test_suite_name()) + "." + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string write_file_at(const fs::path& path, const std::string& content) {
  std::ofstream os(path, std::ios::trunc | std::ios::binary);
  os << content;
  EXPECT_TRUE(os.good()) << path;
  return path.string();
}

/// Write `content` gzip-compressed (one member) at `path`.
std::string gzip_file_at(const fs::path& path, const std::string& content) {
  gzFile gz = gzopen(path.string().c_str(), "wb");
  EXPECT_NE(gz, nullptr) << path;
  if (!content.empty()) {
    EXPECT_EQ(gzwrite(gz, content.data(),
                      static_cast<unsigned>(content.size())),
              static_cast<int>(content.size()));
  }
  EXPECT_EQ(gzclose(gz), Z_OK);
  return path.string();
}

std::string fixture(const char* name) {
  return std::string(PIPAD_TEST_DATA_DIR) + "/" + name;
}

/// Bit-exact DTDG comparison; `name` is excluded (the loader derives it
/// from the file name).
void expect_same_dtdg(const DTDG& a, const DTDG& b) {
  ASSERT_EQ(a.num_nodes, b.num_nodes);
  ASSERT_EQ(a.feat_dim, b.feat_dim);
  ASSERT_EQ(a.num_snapshots(), b.num_snapshots());
  EXPECT_EQ(a.sim_scale, b.sim_scale);
  EXPECT_EQ(a.vertex_names, b.vertex_names);
  for (int t = 0; t < a.num_snapshots(); ++t) {
    EXPECT_TRUE(same_topology(a.snapshots[t].adj, b.snapshots[t].adj))
        << "adj differs at snapshot " << t;
    EXPECT_TRUE(same_topology(a.snapshots[t].adj_t, b.snapshots[t].adj_t))
        << "adj_t differs at snapshot " << t;
    EXPECT_EQ(a.snapshots[t].edge_w, b.snapshots[t].edge_w)
        << "edge_w differs at snapshot " << t;
    EXPECT_EQ(a.snapshots[t].features.storage(),
              b.snapshots[t].features.storage())
        << "features differ at snapshot " << t;
    EXPECT_EQ(a.targets[t].storage(), b.targets[t].storage())
        << "targets differ at snapshot " << t;
  }
}

DatasetConfig small_cfg() {
  DatasetConfig cfg;
  cfg.name = std::string("t");
  cfg.num_nodes = 120;
  cfg.raw_events = 1500;
  cfg.num_snapshots = 12;
  cfg.feat_dim = 2;
  cfg.edge_life = 4.0;
  cfg.seed = 5;
  return cfg;
}

// ---- content hash ----

std::uint64_t xxh64(std::string_view bytes) {
  ContentHash h;
  h.update(bytes.data(), bytes.size());
  return h.digest();
}

TEST(ContentHash, MatchesPublishedXxh64Vectors) {
  EXPECT_EQ(xxh64(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxh64("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(xxh64("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(xxh64("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
}

TEST(ContentHash, DigestIndependentOfUpdateSplits) {
  std::string bytes(1000, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131 + 7) % 251);
  }
  const std::uint64_t whole = xxh64(bytes);
  for (const std::size_t step : {std::size_t{1}, std::size_t{13}}) {
    ContentHash h;
    for (std::size_t i = 0; i < bytes.size(); i += step) {
      h.update(bytes.data() + i, std::min(step, bytes.size() - i));
    }
    EXPECT_EQ(h.digest(), whole) << step << "-byte updates";
    EXPECT_EQ(h.size(), bytes.size());
  }
  for (const std::size_t cut : {31u, 32u, 33u}) {
    ContentHash h;
    h.update(bytes.data(), cut);
    h.update(bytes.data() + cut, bytes.size() - cut);
    EXPECT_EQ(h.digest(), whole) << "split at " << cut;
  }
}

TEST(ContentHash, EveryByteReachesTheDigest) {
  // Lengths cover each tail shape after the stripes: 8-byte words, a 4-byte
  // word and single bytes, with and without a full stripe before them.
  for (const std::size_t n : {1u, 5u, 13u, 31u, 32u, 45u, 1000u}) {
    std::string bytes(n, 'x');
    const std::uint64_t base = xxh64(bytes);
    for (std::size_t i = 0; i < n; ++i) {
      bytes[i] = 'y';
      EXPECT_NE(xxh64(bytes), base) << "length " << n << ", byte " << i;
      bytes[i] = 'x';
    }
  }
}

// ---- text parsing ----

/// An edge file's parse through the one streaming entry point, with the
/// rows its sink received.
struct Parsed {
  EdgeFile file;
  std::vector<TemporalEdge> edges;
};

/// Parse the file at `path` (a CSV when it ends in .csv) in windows of
/// `window` bytes (0 = the reader's default).
Parsed parse_path(const std::string& path, std::size_t window = 0) {
  StreamReader reader(path, window);
  Parsed out;
  const bool csv = fs::path(path).extension() == ".csv";
  out.file = parse_edge_stream(
      path, csv, reader, nullptr, [&](const EdgeFile&, EdgeChunks&& chunks) {
        for (const auto& c : chunks) {
          EXPECT_FALSE(c.empty());
          out.edges.insert(out.edges.end(), c.begin(), c.end());
        }
      });
  EXPECT_EQ(out.file.streamed_edges, out.edges.size());
  return out;
}

/// Write `content` to `name` in a fresh scratch directory and parse it.
Parsed parse_text(const std::string& name, const std::string& content) {
  return parse_path(write_file_at(temp_dir() / name, content));
}

TEST(EdgeListParse, TokensCommentsAndDirectives) {
  const std::string content =
      "# a comment\n"
      "# nodes=10 snapshots=3\n"
      "\n"
      "0 1 0\n"
      "1 2 0 0.5\n"
      "  2 3 1  \n"
      "3 4 2\n";
  const Parsed ef = parse_text("mem.el", content);
  ASSERT_EQ(ef.edges.size(), 4u);
  EXPECT_EQ(ef.file.declared_nodes, 10);
  EXPECT_EQ(ef.file.declared_snapshots, 3);
  EXPECT_TRUE(ef.file.has_weights);
  EXPECT_EQ(ef.edges[1].src, 1);
  EXPECT_EQ(ef.edges[1].dst, 2);
  EXPECT_FLOAT_EQ(ef.edges[1].w, 0.5f);
  EXPECT_EQ(ef.edges[3].t, 2);
}

TEST(EdgeListParse, RejectsMalformedRows) {
  EXPECT_THROW(parse_text("m.el", "0 1\n"), Error);          // 2 tokens
  EXPECT_THROW(parse_text("m.el", "0 1 2 3 4\n"), Error);    // 5 tokens
  EXPECT_THROW(parse_text("m.el", "0 x 2\n"), Error);        // bad int
  EXPECT_THROW(parse_text("m.el", "0 -1 2\n"), Error);       // negative
  EXPECT_THROW(parse_text("m.el", "0 1 0 nan\n"), Error);    // bad w
  try {
    parse_text("m.el", "0 1 0\n0 2 1\n0 3 9\n0 4 5\n");
    FAIL() << "unsorted timestamps accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("m.el:4"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("non-decreasing"), std::string::npos);
  }
}

TEST(EdgeListParse, ConflictingDirectivesRejected) {
  EXPECT_THROW(parse_text("m.el", "# nodes=4\n# nodes=5\n0 1 0\n"), Error);
}

TEST(CsvParse, HeaderAnyOrderExtraColumnsIgnored) {
  const std::string content =
      "t,label,dst,src\n"
      "0,a,1,0\n"
      "1,b,2,1\n";
  const Parsed ef = parse_text("mem.csv", content);
  ASSERT_EQ(ef.edges.size(), 2u);
  EXPECT_EQ(ef.edges[0].src, 0);
  EXPECT_EQ(ef.edges[0].dst, 1);
  EXPECT_EQ(ef.edges[1].t, 1);
}

TEST(CsvParse, MissingRequiredColumnIsBadHeader) {
  try {
    parse_text("m.csv", "src,dst\n0,1\n");
    FAIL() << "bad header accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("header"), std::string::npos)
        << e.what();
  }
  // A file that starts with data has no header either.
  EXPECT_THROW(parse_text("m.csv", "0,1,0\n1,2,0\n"), Error);
  EXPECT_THROW(parse_text("m.csv", ""), Error);
}

TEST(CsvParse, WrongCellCountRejected) {
  EXPECT_THROW(parse_text("m.csv", "src,dst,t\n0,1\n"), Error);
  EXPECT_THROW(parse_text("m.csv", "src,dst,t\n0,1,0,9\n"), Error);
}

// ---- loading: snapshotting, remapping, sidecar files ----

TEST(Loader, SampleFixtureLoads) {
  LoadStats st;
  const DTDG g = load_dataset(fixture("sample_edges.csv"), {}, nullptr, &st);
  EXPECT_EQ(g.name, "sample_edges");
  EXPECT_EQ(g.num_nodes, 8);
  EXPECT_EQ(g.num_snapshots(), 4);
  EXPECT_EQ(g.feat_dim, 2);  // Synthesized at the loader default width.
  EXPECT_EQ(st.edges, 25u);
  EXPECT_EQ(g.snapshots[0].nnz(), 6u);
  EXPECT_EQ(g.snapshots[3].nnz(), 7u);
  // Hub vertex 0 receives three in-edges in every snapshot.
  for (int t = 0; t < 4; ++t) EXPECT_EQ(g.snapshots[t].adj.degree(0), 3);
}

TEST(Loader, DistinctTimestampDefault) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "d.el", "0 1 10\n1 2 10\n2 3 40\n0 3 45\n");
  const DTDG g = load_dataset(p);
  EXPECT_EQ(g.num_snapshots(), 3);  // t = 10, 40, 45.
  EXPECT_EQ(g.snapshots[0].nnz(), 2u);
  EXPECT_EQ(g.snapshots[1].nnz(), 1u);
  EXPECT_EQ(g.snapshots[2].nnz(), 1u);
}

TEST(Loader, WindowAndCountSnapshotting) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "w.el", "0 1 0\n1 2 9\n2 3 10\n0 3 35\n");
  LoadOptions w;
  w.snapshot_window = 10;
  const DTDG gw = load_dataset(p, w);
  EXPECT_EQ(gw.num_snapshots(), 4);  // Windows [0,10) [10,20) [20,30) [30,40).
  EXPECT_EQ(gw.snapshots[0].nnz(), 2u);
  EXPECT_EQ(gw.snapshots[2].nnz(), 0u);  // Empty window survives.

  LoadOptions c;
  c.snapshot_count = 2;
  const DTDG gc = load_dataset(p, c);
  EXPECT_EQ(gc.num_snapshots(), 2);
  EXPECT_EQ(gc.snapshots[0].nnz() + gc.snapshots[1].nnz(), 4u);

  LoadOptions both;
  both.snapshot_window = 10;
  both.snapshot_count = 2;
  EXPECT_THROW(load_dataset(p, both), Error);
}

TEST(Loader, ExtremeTimestampsBucketWithoutOverflow) {
  // Full-range 64-bit timestamps: the span does not fit in a signed long
  // long, but count-mode bucketing must still split it cleanly.
  const auto dir = temp_dir();
  const auto p = write_file_at(
      dir / "x.el",
      "0 1 -9223372036854775808\n1 2 0\n2 3 9223372036854775807\n");
  LoadOptions o;
  o.snapshot_count = 2;
  const DTDG g = load_dataset(p, o);
  ASSERT_EQ(g.num_snapshots(), 2);
  EXPECT_EQ(g.snapshots[0].nnz() + g.snapshots[1].nnz(), 3u);
  EXPECT_EQ(g.snapshots[0].adj.degree(1), 1);  // t_min edge in window 0.
  EXPECT_EQ(g.snapshots[1].adj.degree(3), 1);  // t_max edge in window 1.

  // A tiny window over that span would need ~2^64 snapshots: clean error.
  LoadOptions w;
  w.snapshot_window = 1;
  EXPECT_THROW(load_dataset(p, w), Error);

  // snapshot_count=1 over the full range: ceil-window arithmetic would
  // wrap to 0; the loader must still put all three edges in one bucket.
  LoadOptions one;
  one.snapshot_count = 1;
  const DTDG g1 = load_dataset(p, one);
  ASSERT_EQ(g1.num_snapshots(), 1);
  EXPECT_EQ(g1.snapshots[0].nnz(), 3u);
}

TEST(Loader, DtdgRejectsReshapingOptions) {
  // A .dtdg is already snapshotted/featured: options that would reshape
  // it must error rather than be silently dropped.
  const auto dir = temp_dir();
  const DTDG g0 = generate(small_cfg());
  const auto p = (dir / "g.dtdg").string();
  write_dtdg(g0, p, 3);
  for (const auto& opts : {[] { LoadOptions o; o.snapshot_count = 2; return o; }(),
                           [] { LoadOptions o; o.snapshot_window = 4; return o; }(),
                           [] { LoadOptions o; o.edge_life = 2; return o; }(),
                           [] { LoadOptions o; o.features_path = "f"; return o; }()}) {
    EXPECT_THROW(load_dataset(p, opts), Error);
  }
  // Cache options and synthesis knobs that change nothing are fine.
  LoadOptions ok;
  ok.cache_dir = (dir / "cache").string();
  ok.feat_dim = 16;
  EXPECT_NO_THROW(load_dataset(p, ok));
}

TEST(Loader, EdgeLifeCarriesInstancesForward) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "l.el", "# snapshots=4\n0 1 0\n1 2 2\n");
  LoadOptions o;
  o.edge_life = 2;
  const DTDG g = load_dataset(p, o);
  ASSERT_EQ(g.num_snapshots(), 4);
  EXPECT_EQ(g.snapshots[0].nnz(), 1u);
  EXPECT_EQ(g.snapshots[1].nnz(), 1u);  // 0->1 still alive.
  EXPECT_EQ(g.snapshots[2].nnz(), 1u);  // 1->2 born.
  EXPECT_EQ(g.snapshots[3].nnz(), 1u);  // 1->2 carried, clipped at S.
}

TEST(Loader, RemapDensifiesInAscendingRawIdOrder) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "r.el", "100 7 0\n42 100 0\n");
  const DTDG g = load_dataset(p);
  EXPECT_EQ(g.num_nodes, 3);  // 7 -> 0, 42 -> 1, 100 -> 2.
  const CSR& adj = g.snapshots[0].adj;
  EXPECT_EQ(adj.degree(0), 1);  // 100->7 lands in row 0 (dst 7).
  EXPECT_EQ(adj.col_idx[adj.row_ptr[0]], 2);
  EXPECT_EQ(adj.degree(2), 1);  // 42->100 lands in row 2 (dst 100).
  EXPECT_EQ(adj.col_idx[adj.row_ptr[2]], 1);
}

TEST(Loader, DeclaredNodesPinIdentityAndRange) {
  const auto dir = temp_dir();
  const auto p =
      write_file_at(dir / "n.el", "# nodes=4\n3 0 0\n");
  const DTDG g = load_dataset(p);
  EXPECT_EQ(g.num_nodes, 4);  // Isolated vertices 1, 2 survive.

  const auto bad = write_file_at(dir / "bad.el", "# nodes=4\n9 0 0\n");
  try {
    load_dataset(bad);
    FAIL() << "out-of-range vertex accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
}

TEST(Loader, DeclaredSnapshotsRejectOutOfRangeTimestamps) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "s.el", "# snapshots=2\n0 1 0\n1 2 5\n");
  EXPECT_THROW(load_dataset(p), Error);
}

TEST(Loader, WeightColumnKeptAndSummed) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "w.el",
                               "0 1 0 2.5\n"
                               "0 1 0 0.5\n"
                               "1 1 0 4.0\n"
                               "2 0 0 0.25\n");
  const DTDG g = load_dataset(p);
  ASSERT_TRUE(g.snapshots[0].weighted());
  // CSR (dst, src) order: (0,2), (1,0) duplicate summed, (1,1) the file's
  // own self edge (no self-loop is ever added).
  ASSERT_EQ(g.snapshots[0].nnz(), 3u);
  EXPECT_EQ(g.snapshots[0].edge_w,
            (std::vector<float>{0.25f, 3.0f, 4.0f}));
}

TEST(Loader, CsvWeightColumnKept) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "w.csv",
                               "src,dst,w,t\n"
                               "0,1,0.75,0\n"
                               "1,0,1.25,0\n");
  const DTDG g = load_dataset(p);
  ASSERT_TRUE(g.snapshots[0].weighted());
  EXPECT_EQ(g.snapshots[0].edge_w, (std::vector<float>{1.25f, 0.75f}));
}

TEST(Loader, UnweightedFilesLeaveEdgeWEmpty) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "u.el", "0 1 0\n1 0 1\n");
  const DTDG g = load_dataset(p);
  for (const Snapshot& s : g.snapshots) EXPECT_FALSE(s.weighted());
}

TEST(Loader, DirectAndGeneralStagingAgree) {
  // Every id in 0..N-1 appears, so the general path's ascending remap is
  // the identity `nodes=N` pins. Weightless rows come first and the w
  // column appears windows later: the direct path has built snapshots by
  // then, and their duplicate rows must still sum as 1.0 each.
  const int n = 12;
  std::string body;
  for (int i = 0; i < 48; ++i) {
    const int t = i / 3;
    char row[64];
    std::snprintf(row, sizeof(row), "%d %d %d", i % n, (i * 5 + 1) % n, t);
    body += row;
    if (i >= 24) {
      std::snprintf(row, sizeof(row), " %g", 0.25 * (i % 7) + 0.125);
      body += row;
    }
    body += '\n';
    if (i == 2) body += "2 11 0\n";  // Duplicate of row 2, weightless.
  }
  const auto dir = temp_dir();
  const auto with_n =
      write_file_at(dir / "direct.el", "# nodes=12\n" + body);
  const auto without_n = write_file_at(dir / "general.el", body);
  LoadOptions o;
  o.edge_life = 2;
  o.snapshot_window = 3;
  o.window_bytes = 64;
  ThreadPool pool(2);
  const DTDG direct = load_dataset(with_n, o, &pool);
  const DTDG general = load_dataset(without_n, o, &pool);
  ASSERT_EQ(direct.num_nodes, n);
  ASSERT_TRUE(direct.snapshots[0].weighted());
  EXPECT_EQ(direct.snapshots[0].adj.degree(11), 1);
  EXPECT_EQ(direct.snapshots[0].edge_w[direct.snapshots[0].adj.row_ptr[11]],
            2.0f);
  expect_same_dtdg(direct, general);
}

/// Rows for the declared-index staging tests: every id in 0..11 appears
/// (so the general path's ascending remap is the identity `nodes=12`
/// pins), t runs 0..9 (so `snapshots=14` leaves 4 trailing empty
/// snapshots), row 2 repeats weightless, and rows from 24 on carry a
/// weight — in CSV every row does, 1 before then.
std::string declared_index_rows(bool csv) {
  std::string body;
  char row[96];
  for (int i = 0; i < 30; ++i) {
    const int src = i % 12, dst = (i * 5 + 1) % 12, t = i / 3;
    const double w = i >= 24 ? 0.25 * (i % 7) + 0.125 : 1.0;
    if (csv) {
      std::snprintf(row, sizeof(row), "%d,%d,%d,%g\n", src, dst, t, w);
    } else if (i >= 24) {
      std::snprintf(row, sizeof(row), "%d %d %d %g\n", src, dst, t, w);
    } else {
      std::snprintf(row, sizeof(row), "%d %d %d\n", src, dst, t);
    }
    body += row;
    if (i == 2) body += csv ? "2,11,0,1\n" : "2 11 0\n";
  }
  return body;
}

TEST(Loader, DeclaredIndexDirectAndGeneralStagingAgree) {
  // `nodes=12 snapshots=14` and no snapshot option: the direct path
  // buckets by t while the windows parse; without nodes= the general path
  // stages every row first. Both must build the same 14 snapshots.
  const auto dir = temp_dir();
  const std::string body = declared_index_rows(false);
  const auto with_n =
      write_file_at(dir / "direct.el", "# nodes=12 snapshots=14\n" + body);
  const auto without_n =
      write_file_at(dir / "general.el", "# snapshots=14\n" + body);
  ThreadPool pool(2);
  for (const int life : {1, 3}) {
    LoadOptions o;
    o.edge_life = life;
    o.window_bytes = 64;
    const DTDG direct = load_dataset(with_n, o, &pool);
    const DTDG general = load_dataset(without_n, o, &pool);
    ASSERT_EQ(direct.num_snapshots(), 14) << life;
    ASSERT_TRUE(direct.snapshots[0].weighted());
    EXPECT_EQ(direct.snapshots[0].edge_w[direct.snapshots[0].adj.row_ptr[11]],
              2.0f);
    // The last rows (t = 9) live through snapshot 8 + life; the rest of
    // the 14 are built empty.
    for (int t = 9; t < 14; ++t) {
      EXPECT_EQ(direct.snapshots[t].nnz() > 0, t <= 8 + life)
          << "life " << life << " snapshot " << t;
    }
    expect_same_dtdg(direct, general);
  }
}

TEST(Loader, DeclaredIndexCsvMatchesEdgeList) {
  const auto dir = temp_dir();
  const std::string body = declared_index_rows(true);
  const auto with_n = write_file_at(
      dir / "direct.csv", "# nodes=12 snapshots=14\nsrc,dst,t,w\n" + body);
  const auto without_n = write_file_at(dir / "general.csv",
                                       "# snapshots=14\nsrc,dst,t,w\n" + body);
  const auto el = write_file_at(
      dir / "direct.el",
      "# nodes=12 snapshots=14\n" + declared_index_rows(false));
  ThreadPool pool(2);
  for (const int life : {1, 3}) {
    LoadOptions o;
    o.edge_life = life;
    o.window_bytes = 64;
    const DTDG direct = load_dataset(with_n, o, &pool);
    ASSERT_EQ(direct.num_snapshots(), 14);
    expect_same_dtdg(direct, load_dataset(without_n, o, &pool));
    expect_same_dtdg(direct, load_dataset(el, o, &pool));
  }
}

TEST(Loader, DeclaredIndexDirectRejectsOutOfRangeTimestamp) {
  // The direct path checks each row as it arrives, so it names the first
  // timestamp past the range.
  const auto dir = temp_dir();
  const auto p = write_file_at(
      dir / "s.el", "# nodes=4 snapshots=2\n0 1 0\n1 2 1\n2 3 5\n3 0 7\n");
  try {
    load_dataset(p);
    FAIL() << "out-of-range timestamp accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "timestamp 5 out of range for declared snapshots=2"),
              std::string::npos)
        << e.what();
  }
  const auto neg =
      write_file_at(dir / "n.el", "# nodes=4 snapshots=2\n0 1 -1\n");
  EXPECT_THROW(load_dataset(neg), Error);
}

TEST(Loader, DeclaredIndexGeneralNamesTheFirstOutOfRangeTimestamp) {
  // Without nodes= the rows are staged, but they feed the builder through
  // the same per-row check, so the message names the same row as the
  // direct path's.
  const auto dir = temp_dir();
  const auto p =
      write_file_at(dir / "s.el", "# snapshots=2\n0 1 0\n1 2 5\n2 3 7\n");
  try {
    load_dataset(p);
    FAIL() << "out-of-range timestamp accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "timestamp 5 out of range for declared snapshots=2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Loader, StaticFeatureFileAppliesToEverySnapshot) {
  LoadOptions o;
  o.features_path = fixture("sample_features.tsv");
  const DTDG g = load_dataset(fixture("sample_edges.csv"), o);
  EXPECT_EQ(g.feat_dim, 4);
  for (int t = 0; t < g.num_snapshots(); ++t) {
    EXPECT_FLOAT_EQ(g.snapshots[t].features.at(0, 0), 0.9f);
    EXPECT_FLOAT_EQ(g.snapshots[t].features.at(7, 3), 0.0078125f);
  }
}

TEST(Loader, FeatureFileBadHeaderRejected) {
  const auto dir = temp_dir();
  const auto bad = write_file_at(dir / "f.tsv", "0 1.0 2.0\n");
  LoadOptions o;
  o.features_path = bad;
  try {
    load_dataset(fixture("sample_edges.csv"), o);
    FAIL() << "bad feature header accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad header"), std::string::npos)
        << e.what();
  }
}

TEST(Loader, EmptySidecarsFailWithBadHeader) {
  const auto dir = temp_dir();
  const auto empty = write_file_at(dir / "empty.tsv", "");
  const auto blank = write_file_at(dir / "blank.tsv", std::string(300, '\n'));
  for (const auto& file : {empty, blank}) {
    for (const bool targets : {false, true}) {
      LoadOptions o;
      o.window_bytes = 64;
      (targets ? o.targets_path : o.features_path) = file;
      try {
        load_dataset(fixture("sample_edges.csv"), o);
        FAIL() << file << " accepted";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(": bad header (expected `# pipad-" +
                                             std::string(targets ? "targets"
                                                                 : "features")),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Loader, DirectoryInputsNamedInError) {
  const auto dir = temp_dir();
  const auto sub = (dir / "sub").string();
  fs::create_directories(sub);
  // With a cache dir the cache key hashes every input first; it must name
  // a directory the same way.
  for (const std::string& cache : {std::string(), (dir / "cache").string()}) {
    LoadOptions o, of, oy;
    o.cache_dir = of.cache_dir = oy.cache_dir = cache;
    of.features_path = sub;
    oy.targets_path = sub;
    for (const auto& [edges, opts] :
         {std::pair{sub, o}, std::pair{fixture("sample_edges.csv"), of},
          std::pair{fixture("sample_edges.csv"), oy}}) {
      try {
        load_dataset(edges, opts);
        FAIL() << "directory accepted";
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), sub + ": is a directory") << cache;
      }
    }
  }
}

TEST(Loader, SidecarsAreOpenedBeforeTheEdgeParse) {
  // The sidecars are parsed after the edge file, but a missing or binary
  // one still fails first, before a long edge parse could.
  const auto dir = temp_dir();
  const auto edges = write_file_at(dir / "e.el", "0 1 0\n1 2 oops\n");
  LoadOptions o;
  o.targets_path = (dir / "missing.tsv").string();
  try {
    load_dataset(edges, o);
    FAIL() << "missing targets accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "cannot open " + o.targets_path);
  }
  o.targets_path.clear();
  o.features_path = write_file_at(dir / "f.tsv", "PIPADTDG\n");
  try {
    load_dataset(edges, o);
    FAIL() << "binary features accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("f.tsv: not a text dataset"),
              std::string::npos)
        << e.what();
  }
}

TEST(Loader, FeatureDimMismatchAndDuplicateRowsRejected) {
  const auto dir = temp_dir();
  LoadOptions o;
  o.features_path = write_file_at(dir / "short.tsv",
                                  "# pipad-features v1 dim=3 static\n"
                                  "0 1.0 2.0\n");
  EXPECT_THROW(load_dataset(fixture("sample_edges.csv"), o), Error);
  o.features_path = write_file_at(dir / "dup.tsv",
                                  "# pipad-features v1 dim=1 static\n"
                                  "0 1.0\n0 2.0\n");
  EXPECT_THROW(load_dataset(fixture("sample_edges.csv"), o), Error);
}

TEST(Loader, TargetsFileOverridesSynthesis) {
  const auto dir = temp_dir();
  LoadOptions o;
  o.targets_path = write_file_at(dir / "y.tsv",
                                 "# pipad-targets v1\n"
                                 "0 3 1.5\n"
                                 "2 0 -2.25\n");
  const DTDG g = load_dataset(fixture("sample_edges.csv"), o);
  EXPECT_FLOAT_EQ(g.targets[0].at(3, 0), 1.5f);
  EXPECT_FLOAT_EQ(g.targets[2].at(0, 0), -2.25f);
  EXPECT_FLOAT_EQ(g.targets[1].at(3, 0), 0.0f);  // Unlisted slots stay 0.

  o.targets_path = write_file_at(dir / "dup.tsv",
                                 "# pipad-targets v1\n"
                                 "0 3 1.0\n0 3 2.0\n");
  EXPECT_THROW(load_dataset(fixture("sample_edges.csv"), o), Error);
}

/// The error parse(pool) throws, or "" when it throws none.
template <typename Parse>
std::string error_of(const Parse& parse, ThreadPool* pool) {
  try {
    parse(pool);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// The window sizes every sidecar test runs at: rows split across windows,
/// a few windows per file, and the default (one window).
constexpr std::size_t kSidecarWindows[] = {64, 4096, 0};

FeatureFile features_at(const std::string& path, std::size_t window,
                        const VertexRemap& remap, int nodes, int snaps,
                        ThreadPool* pool = nullptr) {
  StreamReader in(path, window);
  return parse_features(path, in, remap, nodes, snaps, pool);
}

std::vector<Tensor> targets_at(const std::string& path, std::size_t window,
                               const VertexRemap& remap, int nodes, int snaps,
                               ThreadPool* pool = nullptr) {
  StreamReader in(path, window);
  return parse_targets(path, in, remap, nodes, snaps, pool);
}

/// Integer ids in [0, nodes); anything else throws.
VertexRemap int_remap(int nodes) {
  return [nodes](std::string_view tok) {
    int v = -1;
    std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (v < 0 || v >= nodes) throw Error("bad vertex");
    return v;
  };
}

TEST(Sidecar, FirstErrorIsTheSameAtEveryPoolWidth) {
  // Enough rows for several chunks. A late row repeats a slot an early
  // chunk filled, and a malformed row comes later still: every width and
  // window size must name the duplicate, as a serial parse does. A row
  // that is both a duplicate and malformed is a duplicate too (the slot is
  // checked before the values).
  constexpr int kNodes = 400, kSnaps = 20;
  const VertexRemap remap = int_remap(kNodes);
  const auto dir = temp_dir();
  ThreadPool p1(1), p4(4);
  for (const bool malformed_dup : {false, true}) {
    std::string feat = "# pipad-features v1 dim=2 temporal\n";
    std::string targ = "# pipad-targets v1\n";
    std::size_t line = 1, dup_line = 0;
    for (int t = 0; t < kSnaps; ++t) {
      for (int v = 0; v < kNodes; ++v) {
        feat += std::to_string(t) + " " + std::to_string(v) + " 0.5 1.5\n";
        targ += std::to_string(t) + " " + std::to_string(v) + " 2.5\n";
        ++line;
        if (t == 17 && v == 100) {
          feat += malformed_dup ? "0 3 x 1.5\n" : "0 3 0.5 1.5\n";
          targ += malformed_dup ? "0 3 x\n" : "0 3 2.5\n";
          dup_line = ++line;
        }
        if (t == 19 && v == 300) {
          feat += "19 7 0.5 oops\n";
          targ += "19 7 oops\n";
          ++line;
        }
      }
    }
    const auto fp = write_file_at(dir / "f.tsv", feat);
    const auto yp = write_file_at(dir / "y.tsv", targ);
    const std::string want = ":" + std::to_string(dup_line) +
                             ": duplicate feature row for vertex 3";
    const std::string want_t = ":" + std::to_string(dup_line) +
                               ": duplicate target row for vertex 3";
    for (const std::size_t window : kSidecarWindows) {
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p1, &p4}) {
        const std::string fe = error_of(
            [&](ThreadPool* pl) {
              features_at(fp, window, remap, kNodes, kSnaps, pl);
            },
            pool);
        EXPECT_NE(fe.find(want), std::string::npos) << window << ": " << fe;
        const std::string te = error_of(
            [&](ThreadPool* pl) {
              targets_at(yp, window, remap, kNodes, kSnaps, pl);
            },
            pool);
        EXPECT_NE(te.find(want_t), std::string::npos) << window << ": " << te;
      }
    }
  }
}

TEST(Sidecar, ChunkParallelParseIsBitIdentical) {
  constexpr int kNodes = 300, kSnaps = 8;
  const VertexRemap remap = int_remap(kNodes);
  std::string feat = "\n# pipad-features v1 dim=3 temporal\n# comment\n";
  std::string targ = "# pipad-targets v1\n\n";
  for (int t = 0; t < kSnaps; ++t) {
    for (int v = kNodes - 1; v >= 0; v -= 2) {  // Odd slots stay 0.
      const std::string tv = std::to_string(t) + " " + std::to_string(v);
      feat += tv + " " + std::to_string(0.001 * v) + " " +
              std::to_string(t - 0.5) + " " + std::to_string(v * t) + "\n";
      targ += tv + " " + std::to_string(0.01 * v - t) + "\n";
    }
  }
  const auto dir = temp_dir();
  const auto fp = write_file_at(dir / "f", feat);
  const auto yp = write_file_at(dir / "y", targ);
  const auto ep = write_file_at(dir / "e", "# pipad-targets v1");
  const FeatureFile base = features_at(fp, 0, remap, kNodes, kSnaps);
  const auto base_y = targets_at(yp, 0, remap, kNodes, kSnaps);
  ASSERT_TRUE(base.temporal);
  EXPECT_FLOAT_EQ(base.per_snapshot[2].at(299, 1), 1.5f);
  EXPECT_EQ(base.per_snapshot[2].at(298, 1), 0.0f);
  ThreadPool p4(4);
  for (const std::size_t window : kSidecarWindows) {
    const FeatureFile ff = features_at(fp, window, remap, kNodes, kSnaps, &p4);
    const auto y = targets_at(yp, window, remap, kNodes, kSnaps, &p4);
    for (int t = 0; t < kSnaps; ++t) {
      EXPECT_EQ(ff.per_snapshot[t].storage(), base.per_snapshot[t].storage())
          << window;
      EXPECT_EQ(y[t].storage(), base_y[t].storage()) << window;
    }
    // A header with no rows and no trailing newline leaves every slot 0.
    const auto empty = targets_at(ep, window, remap, 3, 2, &p4);
    ASSERT_EQ(empty.size(), 2u);
    EXPECT_EQ(empty[1].storage(), std::vector<float>(3, 0.0f)) << window;
  }
}

TEST(Sidecar, DuplicateInALaterWindowNamesItsLine) {
  // The first row for (2, 5) sits in the first window and its repeat many
  // windows later: the slot bits outlive the window that set them.
  const auto dir = temp_dir();
  std::string targ = "# pipad-targets v1\n2 5 1.0\n";
  for (int v = 0; v < 40; ++v) targ += "3 " + std::to_string(v) + " 0.25\n";
  targ += "2 5 2.0\n";  // Line 43.
  const auto yp = write_file_at(dir / "y.tsv", targ);
  ThreadPool p4(4);
  for (const std::size_t window : kSidecarWindows) {
    const std::string e = error_of(
        [&](ThreadPool* pl) { targets_at(yp, window, int_remap(50), 50, 4, pl); },
        &p4);
    EXPECT_NE(e.find("y.tsv:43: duplicate target row for vertex 5"),
              std::string::npos)
        << window << ": " << e;
  }
}

TEST(Sidecar, HeaderAfterBlankWindowsIsFound) {
  // 200 blank lines fill several 64-byte windows before the header: it is
  // read from the first window with a non-blank line, and line numbers
  // count the blank lines.
  const auto dir = temp_dir();
  const std::string blanks(200, '\n');
  const auto fp = write_file_at(
      dir / "f.tsv", blanks + "# pipad-features v1 dim=2 static\n"
                              "1 0.5 -1.5\n3 2.0 4.0\n");
  const auto bad = write_file_at(
      dir / "bad.tsv", blanks + "# pipad-features v1 dim=2 static\n"
                                "1 0.5 -1.5\n3 2.0 x\n");
  const auto bad_header =
      write_file_at(dir / "h.tsv", blanks + "# pipad-features v2 dim=2\n");
  for (const std::size_t window : kSidecarWindows) {
    const FeatureFile ff = features_at(fp, window, int_remap(4), 4, 1);
    ASSERT_FALSE(ff.temporal);
    EXPECT_EQ(ff.static_feat.storage(),
              (std::vector<float>{0, 0, 0.5f, -1.5f, 0, 0, 2.0f, 4.0f}))
        << window;
    const std::string e = error_of(
        [&](ThreadPool*) { features_at(bad, window, int_remap(4), 4, 1); },
        nullptr);
    EXPECT_NE(e.find("bad.tsv:203: malformed feature value 'x'"),
              std::string::npos)
        << window << ": " << e;
    const std::string h = error_of(
        [&](ThreadPool*) { features_at(bad_header, window, int_remap(4), 4, 1); },
        nullptr);
    EXPECT_NE(h.find("h.tsv:201: bad header"), std::string::npos)
        << window << ": " << h;
  }
}

TEST(Loader, NoEdgesRejected) {
  const auto dir = temp_dir();
  EXPECT_THROW(load_dataset(write_file_at(dir / "e.el", "")), Error);
  EXPECT_THROW(load_dataset(write_file_at(dir / "c.el", "# nodes=4\n")),
               Error);
  EXPECT_THROW(load_dataset((dir / "missing.el").string()), Error);
}

// ---- round trips ----

TEST(RoundTrip, GenerateExportEdgeListLoadIsBitExact) {
  const auto dir = temp_dir();
  const DTDG g0 = generate(small_cfg());
  export_edge_list(g0, (dir / "rt.el").string());
  export_features(g0, (dir / "rt_features.tsv").string());
  export_targets(g0, (dir / "rt_targets.tsv").string());
  LoadOptions o;
  o.features_path = (dir / "rt_features.tsv").string();
  o.targets_path = (dir / "rt_targets.tsv").string();
  ThreadPool pool(4);
  const DTDG g1 = load_dataset((dir / "rt.el").string(), o, &pool);
  expect_same_dtdg(g0, g1);
  EXPECT_EQ(g1.name, "rt");
}

TEST(RoundTrip, CsvExportLoadIsBitExact) {
  const auto dir = temp_dir();
  DatasetConfig cfg = small_cfg();
  cfg.num_snapshots = 6;
  const DTDG g0 = generate(cfg);
  export_csv(g0, (dir / "rt.csv").string());
  export_features(g0, (dir / "rt_features.tsv").string());
  export_targets(g0, (dir / "rt_targets.tsv").string());
  LoadOptions o;
  o.features_path = (dir / "rt_features.tsv").string();
  o.targets_path = (dir / "rt_targets.tsv").string();
  const DTDG g1 = load_dataset((dir / "rt.csv").string(), o);
  expect_same_dtdg(g0, g1);
}

TEST(RoundTrip, WeightedExportLoadIsBitExact) {
  const auto dir = temp_dir();
  // Fractional weights that are NOT short decimals in binary32, plus a
  // real self edge, so the round trip has to carry exact floats through
  // the %.9g text form.
  const auto src = write_file_at(dir / "w.el",
                                 "# nodes=5 snapshots=3\n"
                                 "0 1 0 0.1\n"
                                 "1 2 0 2.5\n"
                                 "3 3 1 0.3\n"
                                 "2 4 1 7.0\n"
                                 "4 0 2 0.0078125\n"
                                 "0 1 2 1e-3\n");
  const DTDG g0 = load_dataset(src);
  export_edge_list(g0, (dir / "rt.el").string());
  export_csv(g0, (dir / "rt.csv").string());
  export_features(g0, (dir / "rt_features.tsv").string());
  export_targets(g0, (dir / "rt_targets.tsv").string());
  // The export holds the summed weights, one row per stored edge.
  LoadOptions r;
  r.features_path = (dir / "rt_features.tsv").string();
  r.targets_path = (dir / "rt_targets.tsv").string();
  const DTDG g_el = load_dataset((dir / "rt.el").string(), r);
  expect_same_dtdg(g0, g_el);
  const DTDG g_csv = load_dataset((dir / "rt.csv").string(), r);
  expect_same_dtdg(g0, g_csv);
}

TEST(RoundTrip, LoadIsBitIdenticalAcrossPoolWidths) {
  const auto dir = temp_dir();
  // Big enough to fan out to several parse chunks and build tasks.
  std::string content = "# nodes=97 snapshots=30\n";
  char buf[64];
  for (int t = 0; t < 30; ++t) {
    for (int i = 0; i < 100; ++i) {
      std::snprintf(buf, sizeof(buf), "%d %d %d\n", (i * 7) % 97,
                    (i * 13 + t) % 97, t);
      content += buf;
    }
  }
  const auto p = write_file_at(dir / "det.el", content);
  LoadOptions o;
  o.edge_life = 3;
  LoadStats st1, st8;
  ThreadPool p1(1), p8(8);
  const DTDG g1 = load_dataset(p, o, &p1, &st1);
  const DTDG g8 = load_dataset(p, o, &p8, &st8);
  EXPECT_GT(st8.parse_chunks, 1u);
  expect_same_dtdg(g1, g8);
  const DTDG gserial = load_dataset(p, o, nullptr);
  expect_same_dtdg(g1, gserial);
}

// ---- .dtdg binary format and cache ----

TEST(DtdgFile, WriteReadRoundTripsBitExact) {
  const auto dir = temp_dir();
  const DTDG g0 = generate(small_cfg());
  const auto p = (dir / "g.dtdg").string();
  write_dtdg(g0, p, 0xfeedu);
  std::uint64_t hash = 0;
  const DTDG g1 = read_dtdg(p, nullptr, &hash);
  EXPECT_EQ(hash, 0xfeedu);
  EXPECT_EQ(read_dtdg_hash(p), 0xfeedu);
  EXPECT_EQ(g1.name, g0.name);
  EXPECT_EQ(g1.sim_scale, g0.sim_scale);
  expect_same_dtdg(g0, g1);
}

TEST(DtdgFile, WeightedWriteReadRoundTripsBitExact) {
  const auto dir = temp_dir();
  const auto src = write_file_at(dir / "w.el", "0 1 0 0.5\n1 0 0 2.25\n");
  const DTDG g0 = load_dataset(src);
  ASSERT_TRUE(g0.snapshots[0].weighted());
  const auto p = (dir / "g.dtdg").string();
  write_dtdg(g0, p, 7u);
  const DTDG g1 = read_dtdg(p);
  expect_same_dtdg(g0, g1);
}

TEST(DtdgFile, MalformedFilesRejected) {
  const auto dir = temp_dir();
  const auto bad_magic = write_file_at(dir / "m.dtdg", "not a dtdg file....");
  EXPECT_THROW(read_dtdg(bad_magic), Error);
  EXPECT_THROW(read_dtdg_hash(bad_magic), Error);

  DTDG g0 = generate(small_cfg());
  const auto p = (dir / "g.dtdg").string();
  write_dtdg(g0, p, 1);

  // Unsupported version: patch the u32 after the 8-byte magic.
  std::string bytes = read_file(p);
  bytes[8] = 99;
  const auto bad_version = write_file_at(dir / "v.dtdg", bytes);
  try {
    read_dtdg(bad_version);
    FAIL() << "bad version accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }

  const auto truncated =
      write_file_at(dir / "t.dtdg", read_file(p).substr(0, 200));
  EXPECT_THROW(read_dtdg(truncated), Error);

  const auto trailing = write_file_at(dir / "x.dtdg", read_file(p) + "zz");
  try {
    read_dtdg(trailing);
    FAIL() << "trailing bytes accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
  }

  // A corrupt snapshot count the file cannot back must fail as truncation
  // before any per-snapshot allocation happens (num_snapshots is the i32
  // at offset 28: magic 8 + version 4 + hash 8 + num_nodes 4 + feat_dim 4).
  std::string huge = read_file(p);
  huge[28] = static_cast<char>(0xFF);
  huge[29] = static_cast<char>(0xFF);
  huge[30] = static_cast<char>(0xFF);
  huge[31] = 0x00;
  const auto snap_bomb = write_file_at(dir / "s.dtdg", huge);
  EXPECT_THROW(read_dtdg(snap_bomb), Error);
}

/// Byte offsets of one snapshot's fields in a `.dtdg` file without vertex
/// names (docs/DATASET_FORMATS.md has the layout).
struct SnapshotBytes {
  std::size_t nnz, row_ptr, col_idx, has_w, end;
};

std::vector<SnapshotBytes> snapshot_bytes(const DTDG& g) {
  const std::size_t n = static_cast<std::size_t>(g.num_nodes);
  std::size_t pos = 8 + 4 + 8 + 4 * 4 + 4 + g.name.size() + 1;
  std::vector<SnapshotBytes> out;
  for (const Snapshot& s : g.snapshots) {
    SnapshotBytes b;
    b.nnz = pos;
    b.row_ptr = b.nnz + 8;
    b.col_idx = b.row_ptr + 4 * (n + 1);
    b.has_w = b.col_idx + 4 * s.adj.nnz();
    b.end = b.has_w + 1 + 4 * (s.edge_w.size() + n * g.feat_dim + n);
    out.push_back(b);
    pos = b.end;
  }
  return out;
}

void put_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

TEST(DtdgFile, EachFaultGivesOneErrorAtEveryPoolWidth) {
  // The reader walks the length fields serially, then reads and validates
  // the snapshots as pool tasks. One fault per case; every case must give
  // the text a front-to-back read gives, with no pool and at widths 1
  // and 4.
  const auto dir = temp_dir();
  const auto src = write_file_at(dir / "w.el",
                                 "0 1 0 0.5\n1 2 0 1.5\n2 3 1 2.5\n"
                                 "3 0 1 3.5\n0 2 2 4.5\n1 3 2 5.5\n");
  const DTDG g = load_dataset(src);
  ASSERT_EQ(g.num_snapshots(), 3);
  const auto p = (dir / "g.dtdg").string();
  write_dtdg(g, p, 1);
  const std::string clean = read_file(p);
  const std::vector<SnapshotBytes> at = snapshot_bytes(g);
  ASSERT_EQ(at.back().end, clean.size());

  ThreadPool p1(1), p4(4);
  const auto expect_error = [&](const std::string& bytes,
                                const std::string& want) {
    const auto f = write_file_at(dir / "f.dtdg", bytes);
    const auto read = [&](ThreadPool* pool) { read_dtdg(f, pool); };
    const std::string serial = error_of(read, nullptr);
    EXPECT_EQ(serial.substr(0, (f + want).size()), f + want);
    EXPECT_EQ(error_of(read, &p1), serial);
    EXPECT_EQ(error_of(read, &p4), serial);
  };
  const std::string truncated = ": truncated .dtdg file";
  for (std::size_t t = 0; t < at.size(); ++t) {
    const std::string corrupt = ": corrupt snapshot " + std::to_string(t);
    std::string b = clean;
    put_u32(b, at[t].nnz, static_cast<std::uint32_t>(
                              g.snapshots[t].adj.nnz() + 1));
    expect_error(b, corrupt);
    b = clean;
    b[at[t].has_w] = 2;
    expect_error(b, ": corrupt edge weight flag");
    b = clean;
    put_u32(b, at[t].row_ptr + 4, 1000);
    expect_error(b, corrupt);
    b = clean;
    put_u32(b, at[t].col_idx, static_cast<std::uint32_t>(g.num_nodes));
    expect_error(b, corrupt);
    for (const std::size_t cut :
         {at[t].row_ptr + 2, at[t].col_idx + 4, at[t].has_w + 1,
          at[t].end - 1}) {
      expect_error(clean.substr(0, cut), truncated);
    }
  }
  expect_error(clean + "z", ": trailing bytes after last snapshot");

  // Two faults: the lower snapshot's is reported, whichever kind it is.
  std::string b = clean;
  put_u32(b, at[2].row_ptr + 4, 1000);
  put_u32(b, at[1].col_idx, static_cast<std::uint32_t>(g.num_nodes));
  expect_error(b, ": corrupt snapshot 1");
  b[at[0].has_w] = 2;
  expect_error(b, ": corrupt edge weight flag");
  b = clean;
  put_u32(b, at[0].col_idx, static_cast<std::uint32_t>(g.num_nodes));
  expect_error(b.substr(0, at[2].has_w), ": corrupt snapshot 0");

  // Called from a pool worker, the read runs inline (a nested
  // parallel_for would throw) and is bit-exact.
  const DTDG inline_read =
      p4.submit([&] { return read_dtdg(p, &p4); }).get();
  expect_same_dtdg(g, inline_read);
  for (ThreadPool* pool : {&p1, &p4}) expect_same_dtdg(g, read_dtdg(p, pool));
}

TEST(Cache, KeyIsTheSameAtEveryPoolWidth) {
  // The three inputs hash as pool tasks: every width keys the same cache
  // file, and an input error names the same file (edges, then features,
  // then targets) at every width.
  const auto dir = temp_dir();
  const auto targets = write_file_at(dir / "y.tsv",
                                     "# pipad-targets v1\n0 3 1.5\n");
  LoadOptions o;
  o.cache_dir = (dir / "cache").string();
  o.features_path = fixture("sample_features.tsv");
  o.targets_path = targets;
  ThreadPool p1(1), p4(4);
  LoadStats first;
  const DTDG g =
      load_dataset(fixture("sample_edges.csv"), o, nullptr, &first);
  EXPECT_FALSE(first.cache_hit);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p1, &p4}) {
    LoadStats st;
    expect_same_dtdg(
        g, load_dataset(fixture("sample_edges.csv"), o, pool, &st));
    EXPECT_TRUE(st.cache_hit);
    EXPECT_EQ(st.cache_path, first.cache_path);
  }

  const auto sub = (dir / "sub").string();
  fs::create_directories(sub);
  const auto missing = (dir / "missing.tsv").string();
  const auto expect_error = [&](const std::string& edges,
                                const LoadOptions& opts,
                                const std::string& want) {
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p1, &p4}) {
      EXPECT_EQ(error_of([&](ThreadPool* tp) { load_dataset(edges, opts, tp); },
                         pool),
                want);
    }
  };
  LoadOptions bad = o;
  bad.features_path = missing;
  expect_error(fixture("sample_edges.csv"), bad, "cannot open " + missing);
  bad = o;
  bad.targets_path = sub;
  expect_error(fixture("sample_edges.csv"), bad, sub + ": is a directory");
  bad.features_path = missing;
  expect_error(fixture("sample_edges.csv"), bad, "cannot open " + missing);
  const auto no_edges = (dir / "missing.el").string();
  expect_error(no_edges, bad, "cannot open " + no_edges);
  bad.features_path = sub;
  bad.targets_path = missing;
  expect_error(fixture("sample_edges.csv"), bad, sub + ": is a directory");
}

TEST(Cache, CorruptCacheBodyIsAMissEvenWithValidHeader) {
  // Keep magic/version/hash intact but lie about the snapshot count: the
  // probe passes, the body read fails, and the loader must fall back to a
  // parse instead of aborting.
  const auto dir = temp_dir();
  LoadOptions o;
  o.cache_dir = (dir / "cache").string();
  LoadStats st1;
  const DTDG g1 = load_dataset(fixture("sample_edges.csv"), o, nullptr, &st1);
  std::string bytes = read_file(st1.cache_path);
  bytes[28] = static_cast<char>(0xFF);
  bytes[29] = static_cast<char>(0xFF);
  bytes[30] = static_cast<char>(0xFF);
  bytes[31] = 0x00;
  write_file_at(st1.cache_path, bytes);
  LoadStats st2;
  const DTDG g2 = load_dataset(fixture("sample_edges.csv"), o, nullptr, &st2);
  EXPECT_FALSE(st2.cache_hit);
  expect_same_dtdg(g1, g2);
}

TEST(Loader, DirectDtdgPathLoads) {
  const auto dir = temp_dir();
  const DTDG g0 = generate(small_cfg());
  const auto p = (dir / "direct.dtdg").string();
  write_dtdg(g0, p, 7);
  LoadStats st;
  const DTDG g1 = load_dataset(p, {}, nullptr, &st);
  expect_same_dtdg(g0, g1);
  EXPECT_EQ(st.edges, g0.total_edges());
  EXPECT_FALSE(st.cache_hit);
}

TEST(Cache, SecondLoadHitsAndIsBitExact) {
  const auto dir = temp_dir();
  LoadOptions o;
  o.cache_dir = (dir / "cache").string();
  LoadStats st1;
  const DTDG g1 =
      load_dataset(fixture("sample_edges.csv"), o, nullptr, &st1);
  EXPECT_FALSE(st1.cache_hit);
  ASSERT_FALSE(st1.cache_path.empty());
  EXPECT_TRUE(fs::exists(st1.cache_path));

  LoadStats st2;
  const DTDG g2 =
      load_dataset(fixture("sample_edges.csv"), o, nullptr, &st2);
  EXPECT_TRUE(st2.cache_hit);
  EXPECT_EQ(st2.parse_chunks, 0u);
  EXPECT_EQ(st1.cache_path, st2.cache_path);
  expect_same_dtdg(g1, g2);

  // Different load options key a different cache entry.
  LoadOptions o2 = o;
  o2.snapshot_count = 2;
  LoadStats st3;
  load_dataset(fixture("sample_edges.csv"), o2, nullptr, &st3);
  EXPECT_FALSE(st3.cache_hit);
  EXPECT_NE(st3.cache_path, st1.cache_path);

  // An invalid (empty) features file must still error on a warm cache:
  // sidecar *presence* is part of the key, so this cannot hit the
  // no-features entry.
  LoadOptions o3 = o;
  o3.features_path = write_file_at(
      fs::path(::testing::TempDir()) / "pipad_io" / "empty_features.tsv", "");
  EXPECT_THROW(load_dataset(fixture("sample_edges.csv"), o3), Error);
}

TEST(Cache, ContentEditsMissAndRestoredContentHits) {
  // Sidecar contents are folded into the key, never compared on a hit, so
  // every input byte must reach the key: stripe body and final tail of the
  // edge file, each sidecar, and the split between the two sidecars.
  const auto dir = temp_dir();
  const std::string edges0 = read_file(fixture("sample_edges.csv"));
  const std::string feats0 = read_file(fixture("sample_features.tsv"));
  const std::string targs0 = "# pipad-targets v1\n0 3 1.5\n2 0 -2.25\n";
  const auto edges = write_file_at(dir / "e.csv", edges0);
  LoadOptions o;
  o.cache_dir = (dir / "cache").string();
  o.features_path = write_file_at(dir / "f.tsv", feats0);
  o.targets_path = write_file_at(dir / "y.tsv", targs0);
  const auto restore = [&] {
    write_file_at(edges, edges0);
    write_file_at(o.features_path, feats0);
    write_file_at(o.targets_path, targs0);
  };
  LoadStats warm;
  const DTDG g0 = load_dataset(edges, o, nullptr, &warm);
  ASSERT_FALSE(warm.cache_hit);

  // Each edit changes the loaded data; a cache-less load of the edited
  // files is the reference the missed load must reproduce.
  const auto expect_edited_miss = [&](const std::string& file,
                                      std::string bytes, std::size_t at,
                                      char to) {
    ASSERT_LT(at, bytes.size());
    ASSERT_NE(bytes[at], to);
    bytes[at] = to;
    write_file_at(file, bytes);
    LoadOptions plain = o;
    plain.cache_dir.clear();
    const DTDG ref = load_dataset(edges, plain);
    LoadStats st;
    const DTDG g = load_dataset(edges, o, nullptr, &st);
    EXPECT_FALSE(st.cache_hit) << file << " byte " << at;
    EXPECT_NE(st.cache_path, warm.cache_path) << file << " byte " << at;
    expect_same_dtdg(ref, g);
    restore();
  };
  const std::size_t stripes = edges0.size() / 32 * 32;
  ASSERT_GT(edges0.size() - stripes, 4u);  // A non-empty tail to edit.
  const std::size_t body = edges0.find("1,0,0\n") + 2;  // dst 0 -> 5
  ASSERT_LT(body, stripes);
  const std::size_t tail = edges0.rfind("6,0,3") + 2;    // dst 0 -> 1
  ASSERT_GE(tail, stripes);
  expect_edited_miss(edges, edges0, body, '5');
  expect_edited_miss(edges, edges0, tail, '1');
  expect_edited_miss(o.features_path, feats0, feats0.find("0.9"), '8');
  expect_edited_miss(o.targets_path, targs0, targs0.find("1.5"), '7');

  // Same bytes in sequence, split differently: the features file's final
  // newline becomes a leading blank line of the targets file. The data is
  // unchanged, but the key must not be.
  write_file_at(o.features_path, feats0.substr(0, feats0.size() - 1));
  write_file_at(o.targets_path, "\n" + targs0);
  LoadStats moved;
  const DTDG gm = load_dataset(edges, o, nullptr, &moved);
  EXPECT_FALSE(moved.cache_hit);
  EXPECT_NE(moved.cache_path, warm.cache_path);
  expect_same_dtdg(g0, gm);

  restore();
  LoadStats back;
  const DTDG gb = load_dataset(edges, o, nullptr, &back);
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.cache_path, warm.cache_path);
  expect_same_dtdg(g0, gb);
}

TEST(Cache, CorruptCacheIsIgnoredAndRegenerated) {
  const auto dir = temp_dir();
  LoadOptions o;
  o.cache_dir = (dir / "cache").string();
  LoadStats st1;
  const DTDG g1 =
      load_dataset(fixture("sample_edges.csv"), o, nullptr, &st1);
  write_file_at(st1.cache_path, "garbage");

  LoadStats st2;
  const DTDG g2 =
      load_dataset(fixture("sample_edges.csv"), o, nullptr, &st2);
  EXPECT_FALSE(st2.cache_hit);  // Corrupt cache = miss, not an error.
  expect_same_dtdg(g1, g2);

  LoadStats st3;
  load_dataset(fixture("sample_edges.csv"), o, nullptr, &st3);
  EXPECT_TRUE(st3.cache_hit);  // ... and the cache was rewritten.
}

// ---- docs stay in sync with the fixture ----

TEST(Docs, FormatSpecWorkedExampleIsTheCheckedInFixture) {
  const std::string doc =
      read_file(std::string(PIPAD_SOURCE_DIR) + "/docs/DATASET_FORMATS.md");
  const std::string sample = read_file(fixture("sample_edges.csv"));
  EXPECT_NE(doc.find(sample), std::string::npos)
      << "docs/DATASET_FORMATS.md must embed tests/data/sample_edges.csv "
         "verbatim as its worked example";
  const std::string feats = read_file(fixture("sample_features.tsv"));
  EXPECT_NE(doc.find(feats), std::string::npos)
      << "docs/DATASET_FORMATS.md must embed tests/data/sample_features.tsv "
         "verbatim";
}

// ---- streaming windows ----

TEST(Stream, WindowSizeAndPoolWidthNeverChangeTheResult) {
  const auto dir = temp_dir();
  const DTDG g0 = generate(small_cfg());
  const auto p = (dir / "w.el").string();
  export_edge_list(g0, p);
  const DTDG base = load_dataset(p);
  ThreadPool p1(1), p8(8);
  for (const std::size_t window : {std::size_t{257}, std::size_t{4096}}) {
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p1, &p8}) {
      LoadOptions ow;
      ow.window_bytes = window;
      const DTDG g = load_dataset(p, ow, pool);
      expect_same_dtdg(base, g);
    }
  }
}

TEST(Stream, StreamedParseMatchesInMemoryParse) {
  const auto dir = temp_dir();
  std::string content = "# nodes=40 snapshots=6\n";
  char buf[64];
  for (int t = 0; t < 6; ++t) {
    for (int i = 0; i < 50; ++i) {
      std::snprintf(buf, sizeof(buf), "%d %d %d %.3f\n", (i * 3) % 40,
                    (i * 11 + t) % 40, t, 0.5 + 0.01 * i);
      content += buf;
    }
  }
  const auto p = write_file_at(dir / "s.el", content);
  // A window larger than the file parses it as one region: the reference.
  const Parsed mem = parse_path(p, content.size() + 1);
  const Parsed ef = parse_path(p, 64);  // Dozens of tiny windows.
  EXPECT_EQ(mem.edges.size(), 300u);
  EXPECT_EQ(ef.file.streamed_edges, mem.edges.size());
  EXPECT_EQ(ef.file.declared_nodes, mem.file.declared_nodes);
  EXPECT_EQ(ef.file.declared_snapshots, mem.file.declared_snapshots);
  EXPECT_EQ(ef.file.has_weights, mem.file.has_weights);
  ASSERT_EQ(ef.edges.size(), mem.edges.size());
  for (std::size_t i = 0; i < ef.edges.size(); ++i) {
    EXPECT_EQ(ef.edges[i].src, mem.edges[i].src) << i;
    EXPECT_EQ(ef.edges[i].dst, mem.edges[i].dst) << i;
    EXPECT_EQ(ef.edges[i].t, mem.edges[i].t) << i;
    EXPECT_EQ(ef.edges[i].w, mem.edges[i].w) << i;
  }
}

TEST(Stream, NoTrailingNewlineStillLoads) {
  const auto dir = temp_dir();
  const auto a = write_file_at(dir / "a.el", "0 1 0\n1 2 1\n");
  const auto b = write_file_at(dir / "b.el", "0 1 0\n1 2 1");
  expect_same_dtdg(load_dataset(a), load_dataset(b));
}

// ---- gzip inputs ----

TEST(Gzip, EdgeListLoadsBitIdenticalToPlain) {
  const auto dir = temp_dir();
  const DTDG g0 = generate(small_cfg());
  const auto plain = (dir / "g.el").string();
  export_edge_list(g0, plain);
  const auto gz = gzip_file_at(dir / "g.el.gz", read_file(plain));

  LoadStats stp, stz;
  const DTDG gp = load_dataset(plain, {}, nullptr, &stp);
  const DTDG gg = load_dataset(gz, {}, nullptr, &stz);
  expect_same_dtdg(gp, gg);
  EXPECT_EQ(gg.name, "g");  // ".el.gz" strips down to the same stem.
  EXPECT_EQ(stp.inflate_us, 0.0);
  EXPECT_GE(stz.inflate_us, 0.0);
}

TEST(Gzip, SidecarsLoadBitIdenticalToPlain) {
  // Sidecars go through the same reader as the edge file, so a gzip'd
  // feature or target file inflates transparently, whatever its name.
  const auto dir = temp_dir();
  const DTDG g0 = generate(small_cfg());
  const auto edges = (dir / "g.el").string();
  export_edge_list(g0, edges);
  LoadOptions plain;
  plain.features_path = (dir / "f.tsv").string();
  plain.targets_path = (dir / "y.tsv").string();
  export_features(g0, plain.features_path);
  export_targets(g0, plain.targets_path);
  LoadOptions gz = plain;
  gz.features_path = gzip_file_at(dir / "f.tsv.gz", read_file(plain.features_path));
  gz.targets_path = gzip_file_at(dir / "y", read_file(plain.targets_path));
  const DTDG gp = load_dataset(edges, plain);
  expect_same_dtdg(g0, gp);
  for (const std::size_t window : {std::size_t{64}, std::size_t{0}}) {
    gz.window_bytes = window;
    expect_same_dtdg(gp, load_dataset(edges, gz));
  }
}

TEST(Gzip, CsvDispatchesOnInnerExtension) {
  const auto dir = temp_dir();
  const std::string content = read_file(fixture("sample_edges.csv"));
  const auto gz = gzip_file_at(dir / "s.csv.gz", content);
  expect_same_dtdg(load_dataset(fixture("sample_edges.csv")),
                   load_dataset(gz));
}

TEST(Gzip, ConcatenatedMembersAndEmptyMemberParse) {
  const auto dir = temp_dir();
  const std::string part1 = "0 1 0\n1 2 0\n";
  const std::string part2 = "2 3 1\n3 4 2\n";
  gzip_file_at(dir / "m0.gz", "");  // A zero-byte member is legal glue.
  gzip_file_at(dir / "m1.gz", part1);
  gzip_file_at(dir / "m2.gz", part2);
  std::string cat = read_file((dir / "m0.gz").string()) +
                    read_file((dir / "m1.gz").string()) +
                    read_file((dir / "m2.gz").string());
  const auto gz = write_file_at(dir / "cat.el.gz", cat);
  const auto plain = write_file_at(dir / "cat.el", part1 + part2);
  expect_same_dtdg(load_dataset(plain), load_dataset(gz));
}

TEST(Gzip, TruncatedStreamRejected) {
  const auto dir = temp_dir();
  std::string content;
  for (int i = 0; i < 2000; ++i) {
    content += std::to_string(i % 50) + " " + std::to_string((i * 7) % 50) +
               " " + std::to_string(i / 200) + "\n";
  }
  gzip_file_at(dir / "full.gz", content);
  const std::string bytes = read_file((dir / "full.gz").string());
  ASSERT_GT(bytes.size(), 40u);
  const auto trunc =
      write_file_at(dir / "t.el.gz", bytes.substr(0, bytes.size() / 2));
  try {
    load_dataset(trunc);
    FAIL() << "truncated gzip accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("gzip"), std::string::npos)
        << e.what();
  }
}

TEST(Gzip, EmptyMemberAloneHasNoEdges) {
  const auto dir = temp_dir();
  const auto gz = gzip_file_at(dir / "e.el.gz", "");
  try {
    load_dataset(gz);
    FAIL() << "empty gzip accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no edges"), std::string::npos)
        << e.what();
  }
}

TEST(Gzip, CompressedDtdgRejected) {
  const auto dir = temp_dir();
  const auto gz = gzip_file_at(dir / "g.dtdg.gz", "anything");
  try {
    load_dataset(gz);
    FAIL() << ".dtdg.gz accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not supported"), std::string::npos)
        << e.what();
  }
}

// ---- adversarial inputs: every corpus entry throws Error, never crashes ----

TEST(AdversarialInput, TruncatedMidRecordRejected) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "t.el", "0 1 0\n1 2");
  EXPECT_THROW(load_dataset(p), Error);
}

TEST(AdversarialInput, NulByteRejected) {
  const auto dir = temp_dir();
  std::string content = "0 1 0\n0 ";
  content.push_back('\0');
  content += "1 1\n";
  const auto p = write_file_at(dir / "n.el", content);
  try {
    load_dataset(p);
    FAIL() << "NUL byte accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("NUL"), std::string::npos)
        << e.what();
  }
}

TEST(AdversarialInput, BinaryMagicsNamedInError) {
  const auto dir = temp_dir();
  const auto expect_detected = [&](const char* file, std::string bytes,
                                   const char* needle) {
    const auto p = write_file_at(dir / file, bytes);
    try {
      load_dataset(p);
      FAIL() << file << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << file << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("not a text dataset"),
                std::string::npos)
          << file << ": " << e.what();
    }
  };
  expect_detected("z.el", std::string("\x28\xb5\x2f\xfd", 4) + "payload",
                  "zstd");
  expect_detected("x.el", std::string("\xfd", 1) + "7zXZ" +
                              std::string(1, '\0') + "payload",
                  "xz");
  expect_detected("b.el",
                  std::string("BZh9") +
                      std::string("\x31\x41\x59\x26\x53\x59", 6) + "payload",
                  "bzip2");
  expect_detected("d.el", std::string("PIPADTDG") + "payload", ".dtdg");
}

TEST(AdversarialInput, GarbageTokensAreEscapedInErrors) {
  const auto dir = temp_dir();
  std::string content = "a b ";
  content.push_back('\x01');
  content.push_back('\x02');
  content += "\n";
  const auto p = write_file_at(dir / "g.el", content);
  try {
    load_dataset(p);
    FAIL() << "garbage timestamp accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("\\x01\\x02"), std::string::npos) << msg;
    EXPECT_EQ(msg.find('\x01'), std::string::npos) << "raw byte in message";
  }
}

TEST(AdversarialInput, ImplausiblyLargeNodesDirectiveRejected) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "h.el", "# nodes=100000000\n0 1 0\n");
  try {
    load_dataset(p);
    FAIL() << "huge nodes directive accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("implausibly large"),
              std::string::npos)
        << e.what();
  }
  // The guard floor: 65536 declared nodes on one edge row is still honored
  // (small fixtures routinely over-declare).
  const auto ok = write_file_at(dir / "ok.el", "# nodes=65536\n0 1 0\n");
  EXPECT_EQ(load_dataset(ok).num_nodes, 65536);

  // Direct staging (nodes=N plus a fixed window) builds snapshots while it
  // parses, and each one allocates N + 1 row offsets: nothing may be built
  // before the guard could pass, or this file allocates 400 MB per
  // snapshot instead of being rejected.
  std::string rows = "# nodes=100000000\n";
  for (int t = 0; t < 20; ++t) {
    rows += std::to_string(t) + " " + std::to_string(t + 1) + " " +
            std::to_string(t) + "\n";
  }
  LoadOptions direct;
  direct.snapshot_window = 1;
  try {
    load_dataset(write_file_at(dir / "hd.el", rows), direct);
    FAIL() << "huge nodes directive accepted by direct staging";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("implausibly large"),
              std::string::npos)
        << e.what();
  }
}

TEST(AdversarialInput, OverflowingTimestampRejected) {
  const auto dir = temp_dir();
  const auto p =
      write_file_at(dir / "o.el", "0 1 99999999999999999999999\n");
  try {
    load_dataset(p);
    FAIL() << "overflowing timestamp accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("timestamp"), std::string::npos)
        << e.what();
  }
}

TEST(AdversarialInput, SnapshotCountBombRejected) {
  const auto dir = temp_dir();
  const auto p =
      write_file_at(dir / "s.el", "# snapshots=16777217\n0 1 0\n");
  try {
    load_dataset(p);
    FAIL() << "snapshot bomb accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos)
        << e.what();
  }
}

TEST(AdversarialInput, DirectSnapshotCountBombRejectedBeforeAllocating) {
  // With nodes= the file takes the direct path, which would build all S
  // snapshots of 65537 row offsets each: the cap must fire first.
  const auto dir = temp_dir();
  const auto p = write_file_at(
      dir / "s.el", "# nodes=65536 snapshots=16777217\n0 1 0\n");
  try {
    load_dataset(p);
    FAIL() << "snapshot bomb accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos)
        << e.what();
  }
}

TEST(AdversarialInput, NewlineFreeBlobRejected) {
  const auto dir = temp_dir();
  const auto p = write_file_at(
      dir / "l.el", std::string(StreamReader::kMaxLineBytes + 4096, '7'));
  try {
    load_dataset(p);
    FAIL() << "newline-free blob accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
        << e.what();
  }
}

TEST(AdversarialInput, SidecarBinaryMagicNamedInError) {
  const auto dir = temp_dir();
  LoadOptions of;
  of.features_path = write_file_at(dir / "f.tsv", "PIPADTDG payload\n");
  LoadOptions oy;
  oy.targets_path =
      write_file_at(dir / "y.tsv", std::string("\x28\xb5\x2f\xfd", 4) + "x");
  for (const auto& [o, needle] :
       {std::pair{of, ".dtdg"}, std::pair{oy, "zstd"}}) {
    try {
      load_dataset(fixture("sample_edges.csv"), o);
      FAIL() << needle << " sidecar accepted";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("not a text dataset — detected"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find(needle), std::string::npos) << msg;
    }
  }
}

TEST(AdversarialInput, OverlongSidecarRowHitsTheLineCap) {
  // A row longer than both the window and the reader's line cap fails
  // with the cap's error, naming the row's line.
  const auto dir = temp_dir();
  LoadOptions o;
  o.window_bytes = 4096;
  o.features_path = write_file_at(
      dir / "f.tsv", "# pipad-features v1 dim=2 static\n0" +
                         std::string(StreamReader::kMaxLineBytes + 4096, ' ') +
                         "1.0 2.0\n");
  try {
    load_dataset(fixture("sample_edges.csv"), o);
    FAIL() << "overlong feature row accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "f.tsv:2: line longer than " +
                  std::to_string(StreamReader::kMaxLineBytes) + " bytes"),
              std::string::npos)
        << e.what();
  }
}

// ---- string vertex ids ----

TEST(StringIds, NamesRemapInSortedOrder) {
  const auto dir = temp_dir();
  const auto p = write_file_at(
      dir / "s.el", "\"gamma\" \"alpha\" 0\nbeta gamma 0\nalpha beta 1\n");
  const DTDG g = load_dataset(p);
  EXPECT_EQ(g.num_nodes, 3);
  ASSERT_EQ(g.vertex_names,
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  // In-adjacency rows: gamma->alpha lands in row 0 (alpha), col 2 (gamma).
  const CSR& adj = g.snapshots[0].adj;
  ASSERT_EQ(adj.degree(0), 1);
  EXPECT_EQ(adj.col_idx[adj.row_ptr[0]], 2);
  ASSERT_EQ(adj.degree(2), 1);
  EXPECT_EQ(adj.col_idx[adj.row_ptr[2]], 1);  // beta->gamma.
}

TEST(StringIds, NumericTokensAfterAStringFirstRowAreNames) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "m.el", "x y 0\n7 x 1\n");
  const DTDG g = load_dataset(p);
  EXPECT_EQ(g.num_nodes, 3);
  EXPECT_EQ(g.vertex_names, (std::vector<std::string>{"7", "x", "y"}));
}

TEST(StringIds, NodesDirectiveRejected) {
  const auto dir = temp_dir();
  const auto p = write_file_at(dir / "d.el", "# nodes=3\na b 0\n");
  try {
    load_dataset(p);
    FAIL() << "nodes directive with string ids accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("integer vertex ids"),
              std::string::npos)
        << e.what();
  }
}

TEST(StringIds, WindowSizeAndPoolWidthInvariant) {
  const auto dir = temp_dir();
  std::string content;
  char buf[64];
  for (int t = 0; t < 8; ++t) {
    for (int i = 0; i < 40; ++i) {
      std::snprintf(buf, sizeof(buf), "v%d v%d %d\n", (i * 7) % 23,
                    (i * 13 + t) % 23, t);
      content += buf;
    }
  }
  const auto p = write_file_at(dir / "w.el", content);
  const DTDG base = load_dataset(p);
  ThreadPool p8(8);
  LoadOptions ow;
  ow.window_bytes = 64;
  const DTDG g = load_dataset(p, ow, &p8);
  expect_same_dtdg(base, g);  // Includes vertex_names.
}

TEST(StringIds, SidecarFilesJoinOnNames) {
  const auto dir = temp_dir();
  const auto p = write_file_at(
      dir / "s.el", "alpha beta 0\nbeta gamma 0\ngamma alpha 1\n");
  const auto feats = write_file_at(dir / "s_features.tsv",
                                   "# pipad-features v1 dim=1 static\n"
                                   "alpha 2.5\n"
                                   "\"gamma\" -1.5\n");
  LoadOptions o;
  o.features_path = feats;
  const DTDG g = load_dataset(p, o);
  ASSERT_EQ(g.feat_dim, 1);
  for (int t = 0; t < g.num_snapshots(); ++t) {
    EXPECT_FLOAT_EQ(g.snapshots[t].features.at(0, 0), 2.5f);   // alpha.
    EXPECT_FLOAT_EQ(g.snapshots[t].features.at(1, 0), 0.0f);   // beta.
    EXPECT_FLOAT_EQ(g.snapshots[t].features.at(2, 0), -1.5f);  // gamma.
  }

  const auto bad = write_file_at(dir / "bad_features.tsv",
                                 "# pipad-features v1 dim=1 static\n"
                                 "delta 1.0\n");
  LoadOptions ob;
  ob.features_path = bad;
  try {
    load_dataset(p, ob);
    FAIL() << "unknown name accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("does not appear"),
              std::string::npos)
        << e.what();
  }
}

TEST(StringIds, DtdgV3RoundTripPersistsNames) {
  const auto dir = temp_dir();
  const auto p = write_file_at(
      dir / "s.el", "alpha beta 0 0.5\nbeta gamma 0 2.0\ngamma alpha 1\n");
  const DTDG g1 = load_dataset(p);
  ASSERT_FALSE(g1.vertex_names.empty());
  const auto dtdg = (dir / "s.dtdg").string();
  write_dtdg(g1, dtdg, 1);
  const DTDG g2 = read_dtdg(dtdg);
  expect_same_dtdg(g1, g2);
  EXPECT_EQ(g2.vertex_names, g1.vertex_names);
}

TEST(StringIds, ExporterRoundTripsNamedGraphs) {
  const auto dir = temp_dir();
  const auto p = write_file_at(
      dir / "s.el", "alpha beta 0 0.5\nbeta gamma 0 2.0\ngamma alpha 1\n");
  const DTDG g1 = load_dataset(p);

  const auto el = (dir / "rt.el").string();
  export_edge_list(g1, el);
  expect_same_dtdg(g1, load_dataset(el));

  const auto csv = (dir / "rt.csv").string();
  export_csv(g1, csv);
  expect_same_dtdg(g1, load_dataset(csv));
}

TEST(StringIds, CacheRoundTripPersistsNames) {
  const auto dir = temp_dir();
  const auto p =
      write_file_at(dir / "s.el", "alpha beta 0\nbeta gamma 0\n");
  LoadOptions o;
  o.cache_dir = (dir / "cache").string();
  LoadStats st1, st2;
  const DTDG g1 = load_dataset(p, o, nullptr, &st1);
  const DTDG g2 = load_dataset(p, o, nullptr, &st2);
  EXPECT_FALSE(st1.cache_hit);
  EXPECT_TRUE(st2.cache_hit);
  expect_same_dtdg(g1, g2);
  EXPECT_EQ(g2.vertex_names, g1.vertex_names);
}

TEST(StringIds, GzipNamedGraphMatchesPlain) {
  const auto dir = temp_dir();
  const std::string content = "alpha beta 0\nbeta gamma 0\ngamma alpha 1\n";
  const auto plain = write_file_at(dir / "s.el", content);
  const auto gz = gzip_file_at(dir / "s.el.gz", content);
  expect_same_dtdg(load_dataset(plain), load_dataset(gz));
}

}  // namespace
}  // namespace pipad::graph::io
