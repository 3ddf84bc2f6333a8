// Snapshot format versions.  This build writes v3, which carries no
// search-layout sections: open() derives the root's blocked layout from
// the validated keys.  v1 and v2 files — crafted here byte for byte from
// v3 files (tests/snapshot_craft.hpp) — still open through the same
// path and serve exactly what a fresh compile serves; a v2 file's
// per-node layout sections are CRC-checked and never read.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

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

TEST(SnapshotFormats, WritesV3WithoutLayoutSections) {
  const std::string path = tmp_path("v3_roundtrip.snap");
  const Compiled c = build_cascade(31);
  ASSERT_TRUE(snapshot::write(c.flat, path).ok());
  EXPECT_EQ(file_version(path), snapshot::kFormatVersion);
  EXPECT_EQ(snapshot::kFormatVersion, 3u);
  EXPECT_FALSE(craft::has_layout_sections(path));

  auto snap = snapshot::open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  expect_serves_identically(snap->cascade, c, 77);
  std::remove(path.c_str());
}

TEST(SnapshotFormats, V1FilesServeIdentically) {
  const std::string path = tmp_path("v1_compat.snap");
  const Compiled c = build_cascade(32);
  ASSERT_TRUE(snapshot::write(c.flat, path).ok());
  craft::downgrade_to_v1(path);
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
  const auto v3_size = craft::slurp(path).size();
  craft::upgrade_to_v2(path);
  ASSERT_EQ(file_version(path), 2u);
  ASSERT_TRUE(craft::has_layout_sections(path));
  EXPECT_GT(craft::slurp(path).size(), v3_size);

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
  craft::upgrade_to_v2(path);
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
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "v" << version);
    ASSERT_TRUE(snapshot::write(*flat, path).ok());
    if (version == 1) {
      craft::downgrade_to_v1(path);
    } else if (version == 2) {
      craft::upgrade_to_v2(path);
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

TEST(SnapshotFormats, V3AndV1FilesCannotHostTheSimdLayoutFault) {
  const std::string path = tmp_path("nofault.snap");
  const Compiled c = build_cascade(36);
  for (const bool v1 : {false, true}) {
    SCOPED_TRACE(v1 ? "v1" : "v3");
    ASSERT_TRUE(snapshot::write(c.flat, path).ok());
    if (v1) {
      craft::downgrade_to_v1(path);
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

}  // namespace
