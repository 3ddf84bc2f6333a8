// Snapshot format versions.  This build writes v4, which carries no
// search-layout sections (open() derives the root's blocked layout from
// the validated keys) and stores one own/dummy bit per augmented entry
// instead of a uint32 proper index (open() derives the rank directory).
// v1, v2 and v3 files — crafted here byte for byte from v4 files
// (tests/snapshot_craft.hpp) — still open through the same path and
// serve exactly what a fresh compile serves; a v2 file's per-node layout
// sections are CRC-checked and never read, and a v1-v3 proper map must be
// a rank sequence.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "dyn/overlay.hpp"
#include "fc/build.hpp"
#include "geom/generators.hpp"
#include "helpers.hpp"
#include "robust/corrupt.hpp"
#include "serve/query_engine.hpp"
#include "snapshot/format.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot_craft.hpp"

namespace {

namespace craft = snapshot_craft;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "coop_" + name;
}

struct Compiled {
  cat::Tree tree;
  serve::FlatCascade flat;
};

Compiled build_cascade(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Compiled c;
  c.tree = cat::make_balanced_binary(5, 3000, cat::CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build(c.tree);
  auto flat = serve::FlatCascade::compile(s);
  EXPECT_TRUE(flat.ok());
  c.flat = flat.take();
  return c;
}

/// Same answers as `reference` at every node (find and find_binary) and
/// along random root-to-leaf paths (the grouped kernel and search_path).
void expect_serves_identically(const serve::FlatCascade& opened,
                               const Compiled& reference, std::uint64_t seed) {
  const serve::FlatCascade& ref = reference.flat;
  ASSERT_EQ(opened.num_nodes(), ref.num_nodes());
  EXPECT_EQ(opened.arena_bytes(), ref.arena_bytes());
  std::mt19937_64 rng(seed);
  for (std::uint32_t v = 0; v < opened.num_nodes(); ++v) {
    for (int i = 0; i < 20; ++i) {
      const auto y = static_cast<cat::Key>(rng() % 2'000'000'000);
      const std::uint32_t want = ref.find_binary(v, y);
      EXPECT_EQ(opened.find(v, y), want) << "node " << v << " y=" << y;
      EXPECT_EQ(opened.find_binary(v, y), want) << "node " << v << " y=" << y;
    }
  }
  std::vector<serve::PathQuery> queries(100);
  for (auto& q : queries) {
    q.path = test_helpers::random_root_leaf_path(reference.tree, rng);
    q.y = test_helpers::random_query(reference.tree, rng);
  }
  std::vector<serve::PathAnswer> got(queries.size()), want(queries.size());
  serve::search_paths_grouped(opened, queries.data(), queries.size(),
                              got.data());
  serve::search_paths_grouped(ref, queries.data(), queries.size(),
                              want.data());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i].aug_index, want[i].aug_index) << "query " << i;
    EXPECT_EQ(got[i].proper_index, want[i].proper_index) << "query " << i;
    const auto one = opened.search(queries[i].path, queries[i].y);
    EXPECT_EQ(one.aug_index, want[i].aug_index) << "query " << i;
  }
}

std::uint32_t file_version(const std::string& path) {
  return craft::parse(craft::slurp(path)).header.version;
}

TEST(SnapshotFormats, WritesV4WithOwnBitsAndNoProperOrLayoutSections) {
  const std::string path = tmp_path("v4_roundtrip.snap");
  const Compiled c = build_cascade(31);
  ASSERT_TRUE(snapshot::write(c.flat, path).ok());
  EXPECT_EQ(file_version(path), snapshot::kFormatVersion);
  EXPECT_EQ(snapshot::kFormatVersion, 4u);
  EXPECT_FALSE(craft::has_layout_sections(path));
  EXPECT_FALSE(craft::has_proper_section(path));
  const craft::File f = craft::parse(craft::slurp(path));
  const craft::Section* bits = craft::find(f, snapshot::SectionId::kOwnBits);
  ASSERT_NE(bits, nullptr);
  EXPECT_EQ(bits->payload.size(), (c.flat.total_entries() + 63) / 64 * 8);

  auto snap = snapshot::open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  expect_serves_identically(snap->cascade, c, 77);
  std::remove(path.c_str());
}

TEST(SnapshotFormats, V3FilesServeIdentically) {
  const std::string path = tmp_path("v3_compat.snap");
  const Compiled c = build_cascade(30);
  ASSERT_TRUE(snapshot::write(c.flat, path).ok());
  const auto v4_size = craft::slurp(path).size();
  craft::to_v3(path);
  ASSERT_EQ(file_version(path), 3u);
  ASSERT_TRUE(craft::has_proper_section(path));
  EXPECT_GT(craft::slurp(path).size(), v4_size);

  auto snap = snapshot::open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  expect_serves_identically(snap->cascade, c, 76);
  std::remove(path.c_str());
}

TEST(SnapshotFormats, V1FilesServeIdentically) {
  const std::string path = tmp_path("v1_compat.snap");
  const Compiled c = build_cascade(32);
  ASSERT_TRUE(snapshot::write(c.flat, path).ok());
  craft::to_v1(path);
  ASSERT_EQ(file_version(path), 1u);

  auto snap = snapshot::open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  ASSERT_EQ(snap->kind, snapshot::SnapshotKind::kCascade);
  expect_serves_identically(snap->cascade, c, 78);
  std::remove(path.c_str());
}

TEST(SnapshotFormats, V2FilesServeIdenticallyWithoutReadingTheLayout) {
  const std::string path = tmp_path("v2_compat.snap");
  const Compiled c = build_cascade(33);
  ASSERT_TRUE(snapshot::write(c.flat, path).ok());
  const auto v4_size = craft::slurp(path).size();
  craft::to_v2(path);
  ASSERT_EQ(file_version(path), 2u);
  ASSERT_TRUE(craft::has_layout_sections(path));
  EXPECT_GT(craft::slurp(path).size(), v4_size);

  auto snap = snapshot::open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  // arena_bytes() equal to the fresh compile's: the layout sections are
  // mapped with the file but belong to no arena pool.
  expect_serves_identically(snap->cascade, c, 79);
  EXPECT_TRUE(snapshot::verify(*snap).ok());
  std::remove(path.c_str());
}

TEST(SnapshotFormats, V2LayoutSectionsAreStillCrcChecked) {
  // Never read is not never checked: a stale CRC on a layout section is
  // still a damaged file.
  const std::string path = tmp_path("v2_crc.snap");
  const Compiled c = build_cascade(34);
  ASSERT_TRUE(snapshot::write(c.flat, path).ok());
  craft::to_v2(path);
  const craft::File f = craft::parse(craft::slurp(path));
  std::vector<unsigned char> bytes = craft::slurp(path);
  std::vector<snapshot::SectionRecord> table(f.header.section_count);
  std::memcpy(table.data(), bytes.data() + sizeof(snapshot::FileHeader),
              table.size() * sizeof(snapshot::SectionRecord));
  bool flipped = false;
  for (const snapshot::SectionRecord& r : table) {
    if (r.id == static_cast<std::uint32_t>(snapshot::SectionId::kSimdPos)) {
      bytes[r.offset] ^= 1;
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);
  craft::spit(path, bytes);
  auto snap = snapshot::open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), coop::StatusCode::kCorrupted);
  EXPECT_NE(snap.status().message().find("CRC"), std::string::npos)
      << snap.status().to_string();
  std::remove(path.c_str());
}

TEST(SnapshotFormats, PointLocatorFilesOfEveryVersionLocateIdentically) {
  std::mt19937_64 rng(35);
  const auto sub = geom::make_random_monotone(61, 50, rng);
  auto st = pointloc::SeparatorTree::build_checked(sub);
  ASSERT_TRUE(st.ok());
  auto flat = serve::FlatPointLocator::compile(*st);
  ASSERT_TRUE(flat.ok());
  const std::string path = tmp_path("pl_versions.snap");
  for (const std::uint32_t version : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(testing::Message() << "v" << version);
    ASSERT_TRUE(snapshot::write(*flat, path).ok());
    if (version == 1) {
      craft::to_v1(path);
    } else if (version == 2) {
      craft::to_v2(path);
    } else if (version == 3) {
      craft::to_v3(path);
    }
    ASSERT_EQ(file_version(path), version);
    auto snap = snapshot::open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    ASSERT_TRUE(snap->pointloc.has_value());
    for (int i = 0; i < 500; ++i) {
      const auto q = geom::random_query_point(sub, rng);
      EXPECT_EQ(snap->pointloc->locate(q), sub.locate_brute(q));
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotFormats, V4V3AndV1FilesCannotHostTheSimdLayoutFault) {
  const std::string path = tmp_path("nofault.snap");
  const Compiled c = build_cascade(36);
  for (const std::uint32_t version : {1u, 3u, 4u}) {
    SCOPED_TRACE(testing::Message() << "v" << version);
    ASSERT_TRUE(snapshot::write(c.flat, path).ok());
    if (version == 1) {
      craft::to_v1(path);
    } else if (version == 3) {
      craft::to_v3(path);
    }
    const std::vector<unsigned char> before = craft::slurp(path);
    const auto s = robust::corrupt_file(
        path, robust::CorruptionKind::kSnapshotSimdLayout, 1);
    EXPECT_EQ(s.code(), coop::StatusCode::kFailedPrecondition)
        << s.to_string();
    // The attempt left the file untouched.
    EXPECT_EQ(craft::slurp(path), before);
    EXPECT_TRUE(snapshot::open(path).ok());
  }
  std::remove(path.c_str());
}

TEST(SnapshotFormats, FutureVersionsAreRejected) {
  const std::string path = tmp_path("future.snap");
  const Compiled c = build_cascade(37);
  ASSERT_TRUE(snapshot::write(c.flat, path).ok());
  std::vector<unsigned char> bytes = craft::slurp(path);
  snapshot::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.version = snapshot::kFormatVersion + 1;
  header.header_crc = snapshot::header_crc(header);
  std::memcpy(bytes.data(), &header, sizeof(header));
  craft::spit(path, bytes);
  auto snap = snapshot::open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), coop::StatusCode::kFailedPrecondition);
  EXPECT_NE(snap.status().message().find("version"), std::string::npos)
      << snap.status().to_string();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The own-entry bits and their rank directory (format v4)

/// Every entry of every node: the arena's rank-derived proper index
/// equals the source structure's stored one.
void expect_same_proper_map(const serve::FlatCascade& f,
                            const fc::Structure& s) {
  ASSERT_EQ(f.num_nodes(), s.tree().num_nodes());
  for (std::uint32_t v = 0; v < f.num_nodes(); ++v) {
    const auto nv = static_cast<cat::NodeId>(v);
    ASSERT_EQ(f.node(v).key_count, s.aug(nv).keys.size()) << "node " << v;
    for (std::uint32_t i = 0; i < f.node(v).key_count; ++i) {
      ASSERT_EQ(f.to_proper(v, i), s.to_proper(nv, i))
          << "node " << v << " entry " << i;
    }
  }
}

/// dyn::ProperIndex lists exactly each tree catalog's keys.
void expect_proper_index_lists_catalogs(const serve::FlatCascade& f,
                                        const cat::Tree& t) {
  const dyn::ProperIndex idx = dyn::ProperIndex::build(f);
  ASSERT_EQ(idx.num_nodes(), t.num_nodes());
  for (std::uint32_t v = 0; v < t.num_nodes(); ++v) {
    const cat::Catalog& c = t.catalog(static_cast<cat::NodeId>(v));
    const auto keys = idx.node_keys(v);
    ASSERT_EQ(keys.size(), c.size()) << "node " << v;
    for (std::size_t j = 0; j < c.size(); ++j) {
      ASSERT_EQ(keys[j], c.key(j)) << "node " << v << " key " << j;
    }
  }
}

/// Which boundary cases of the bit pool the checked arenas exercised.
struct RankCoverage {
  bool mid_word_start = false;  ///< a node's slice starts inside a word
  bool terminal_only = false;   ///< a node holds only the +inf terminal
  bool whole_words = false;     ///< pool size a multiple of 64
  bool partial_word = false;    ///< pool size not a multiple of 64

  void note(const serve::FlatCascade& f) {
    for (std::uint32_t v = 0; v < f.num_nodes(); ++v) {
      mid_word_start |= f.node(v).key_off % 64 != 0;
      terminal_only |= f.node(v).key_count == 1;
    }
    whole_words |= f.total_entries() % 64 == 0;
    partial_word |= f.total_entries() % 64 != 0;
  }
};

cat::Tree single_node_tree(std::size_t n) {
  std::vector<cat::Key> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<cat::Key>(3 * i + 1);
  }
  cat::Tree t(1);
  t.set_catalog(0, cat::Catalog::from_sorted_keys(keys));
  t.finalize();
  return t;
}

TEST(SnapshotFormats, RankDirectoryMatchesStoredProperAfterCompileAndOpen) {
  std::mt19937_64 rng(41);
  std::vector<cat::Tree> trees;
  // One node of 63, 64, 65 and 128 entries (keys plus the terminal).
  for (const std::size_t n : {62u, 63u, 64u, 127u}) {
    trees.push_back(single_node_tree(n));
  }
  trees.push_back(
      cat::make_balanced_binary(6, 3000, cat::CatalogShape::kRandom, rng));
  // Sparse catalogs over many nodes leave some holding only +inf.
  trees.push_back(
      cat::make_random_tree(80, 4, 30, cat::CatalogShape::kSkewed, rng));
  trees.push_back(
      cat::make_random_tree(200, 3, 5000, cat::CatalogShape::kLeafHeavy, rng));

  const std::string path = tmp_path("rank_dir.snap");
  RankCoverage cov;
  for (std::size_t k = 0; k < trees.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "tree " << k);
    const cat::Tree& t = trees[k];
    const auto s = fc::Structure::build(t);
    auto flat = serve::FlatCascade::compile(s);
    ASSERT_TRUE(flat.ok()) << flat.status().to_string();
    cov.note(*flat);
    expect_same_proper_map(*flat, s);
    expect_proper_index_lists_catalogs(*flat, t);

    ASSERT_TRUE(snapshot::write(*flat, path).ok());
    ASSERT_EQ(file_version(path), 4u);
    auto snap = snapshot::open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    expect_same_proper_map(snap->cascade, s);
    expect_proper_index_lists_catalogs(snap->cascade, t);
  }
  EXPECT_TRUE(cov.mid_word_start);
  EXPECT_TRUE(cov.terminal_only);
  EXPECT_TRUE(cov.whole_words);
  EXPECT_TRUE(cov.partial_word);
  std::remove(path.c_str());
}

TEST(SnapshotFormats, PointLocatorRankDirectoryMatchesStoredProper) {
  std::mt19937_64 rng(42);
  const std::string path = tmp_path("pl_rank_dir.snap");
  RankCoverage cov;
  for (const std::size_t regions : {3u, 20u, 61u}) {
    SCOPED_TRACE(testing::Message() << regions << " regions");
    const auto sub = geom::make_random_monotone(regions, 40, rng);
    auto st = pointloc::SeparatorTree::build_checked(sub);
    ASSERT_TRUE(st.ok()) << st.status().to_string();
    auto flat = serve::FlatPointLocator::compile(*st);
    ASSERT_TRUE(flat.ok()) << flat.status().to_string();
    cov.note(flat->cascade());
    expect_same_proper_map(flat->cascade(), st->cascade());

    ASSERT_TRUE(snapshot::write(*flat, path).ok());
    auto snap = snapshot::open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    ASSERT_TRUE(snap->pointloc.has_value());
    expect_same_proper_map(snap->pointloc->cascade(), st->cascade());
  }
  EXPECT_TRUE(cov.mid_word_start);
  std::remove(path.c_str());
}

/// Rewrite one own bit of the v4 file at `path` (CRCs re-forged).
void forge_own_bit(const std::string& path, std::size_t p, bool value) {
  craft::File f = craft::parse(craft::slurp(path));
  craft::Section* s = craft::find(f, snapshot::SectionId::kOwnBits);
  ASSERT_NE(s, nullptr);
  ASSERT_LT(p / 8, s->payload.size());
  const auto bit = static_cast<unsigned char>(1u << (p % 8));
  unsigned char& byte = s->payload[p / 8];
  byte = static_cast<unsigned char>(value ? byte | bit : byte & ~bit);
  craft::spit(path, craft::serialize(std::move(f)));
}

void expect_corrupted(const std::string& path, const std::string& what) {
  auto snap = snapshot::open(path);
  ASSERT_FALSE(snap.ok()) << what;
  EXPECT_EQ(snap.status().code(), coop::StatusCode::kCorrupted)
      << snap.status().to_string();
  EXPECT_NE(snap.status().message().find(what), std::string::npos)
      << snap.status().to_string();
}

TEST(SnapshotFormats, ForgedV4OwnBitsAreCorrupted) {
  const std::string path = tmp_path("forged_bits.snap");
  const Compiled c = build_cascade(43);
  const serve::FlatCascade& f = c.flat;
  ASSERT_NE(f.total_entries() % 64, 0u) << "need a partial last word";
  const auto last_node = static_cast<std::uint32_t>(f.num_nodes() - 1);
  for (const std::uint32_t v : {0u, 7u, last_node}) {
    SCOPED_TRACE(testing::Message() << "node " << v);
    ASSERT_TRUE(snapshot::write(f, path).ok());
    forge_own_bit(path, f.node(v).key_off + f.node(v).key_count - 1, false);
    expect_corrupted(path, "terminal");
  }
  ASSERT_TRUE(snapshot::write(f, path).ok());
  forge_own_bit(path, f.total_entries(), true);
  expect_corrupted(path, "past the last entry");
  std::remove(path.c_str());
}

TEST(SnapshotFormats, ForgedPointLocatorOwnCountIsCorrupted) {
  std::mt19937_64 rng(44);
  const auto sub = geom::make_random_monotone(40, 50, rng);
  auto st = pointloc::SeparatorTree::build_checked(sub);
  ASSERT_TRUE(st.ok());
  auto flat = serve::FlatPointLocator::compile(*st);
  ASSERT_TRUE(flat.ok());
  const serve::FlatCascade& f = flat->cascade();
  // The first node with both a dummy and a non-terminal own entry.
  std::uint32_t victim = 0, dummy = 0, own = 0;
  bool found = false;
  for (std::uint32_t v = 0; v < f.num_nodes() && !found; ++v) {
    bool has_dummy = false, has_own = false;
    for (std::uint32_t i = 0; i + 1 < f.node(v).key_count; ++i) {
      (f.is_own(v, i) ? own : dummy) = i;
      (f.is_own(v, i) ? has_own : has_dummy) = true;
    }
    found = has_dummy && has_own;
    victim = v;
  }
  ASSERT_TRUE(found);
  const std::string path = tmp_path("forged_pl_bits.snap");
  const std::size_t off = f.node(victim).key_off;
  for (const bool set_dummy : {true, false}) {
    SCOPED_TRACE(set_dummy ? "dummy marked own" : "own entry cleared");
    ASSERT_TRUE(snapshot::write(*flat, path).ok());
    forge_own_bit(path, off + (set_dummy ? dummy : own), set_dummy);
    expect_corrupted(path, "differs from entry span");
  }
  std::remove(path.c_str());
}

TEST(SnapshotFormats, V3ProperMapThatIsNotARankSequenceIsCorrupted) {
  // Each forged value stays below its node's entry count — the bound a
  // v3 reader checked, so such a file used to be served — but no arena
  // compile() builds can carry it.
  const std::string path = tmp_path("v3_not_rank.snap");
  const Compiled c = build_cascade(45);
  const serve::FlatCascade& f = c.flat;
  // A node with a dummy entry i, 0 < i < key_count - 1: bump its proper
  // index past its successor's.
  std::uint32_t victim = 0, entry = 0;
  for (std::uint32_t v = 0; v < f.num_nodes() && entry == 0; ++v) {
    for (std::uint32_t i = 1; i + 1 < f.node(v).key_count; ++i) {
      if (!f.is_own(v, i)) {
        victim = v;
        entry = i;
        break;
      }
    }
  }
  ASSERT_GT(entry, 0u);
  const std::size_t at = std::size_t{f.node(victim).key_off} + entry;
  const std::size_t first = f.node(victim).key_off;
  for (const bool bump_first : {false, true}) {
    SCOPED_TRACE(bump_first ? "first entry nonzero" : "step backwards");
    ASSERT_TRUE(snapshot::write(f, path).ok());
    craft::to_v3(path);
    craft::File file = craft::parse(craft::slurp(path));
    craft::Section* s = craft::find(file, snapshot::SectionId::kProper);
    ASSERT_NE(s, nullptr);
    auto proper = craft::elements<std::uint32_t>(*s);
    std::uint32_t& cell = proper[bump_first ? first : at];
    cell += 1;
    ASSERT_LT(cell, f.node(victim).key_count);
    s->payload = craft::bytes_of(proper);
    craft::spit(path, craft::serialize(std::move(file)));
    expect_corrupted(path, "proper map");
  }
  std::remove(path.c_str());
}

}  // namespace
