// Input preparation: a seeded tree, its snapshot (and, on request, its
// shard partition), and pools of path-query batches whose expected
// answers come from the sequential reference, fc::search_explicit.  Run
// once per seed and cached by perfbench/run.py; nothing here is timed.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>

#include "cluster/partition.hpp"
#include "commands.hpp"
#include "common.hpp"
#include "fc/search.hpp"
#include "snapshot/snapshot.hpp"

namespace pb {

namespace {

constexpr Key kKeyRange = 1'000'000'000;  // make_balanced_binary's default

/// `batches` batches of random root-to-leaf paths.  With `determinate`,
/// keys are redrawn until every path node holds a base key >= y, so the
/// live successor is a base key no write above the base range can change.
Pool make_pool(const cat::Tree& tree, const fc::Structure& s,
               std::uint32_t batches, std::uint32_t batch_size,
               bool determinate, std::mt19937_64& rng) {
  Pool p;
  p.batch_size = batch_size;
  p.num_batches = batches;
  p.path_len = tree.height() + 1;
  const std::size_t nq = std::size_t{batches} * batch_size;
  p.queries.resize(nq);
  p.exp_aug.reserve(nq * p.path_len);
  p.exp_proper.reserve(nq * p.path_len);
  p.exp_key.reserve(nq * p.path_len);
  std::uniform_int_distribution<Key> key(0, kKeyRange - 1);
  for (auto& q : p.queries) {
    cat::NodeId v = tree.root();
    q.path.assign(1, v);
    while (!tree.is_leaf(v)) {
      const auto ch = tree.children(v);
      v = ch[rng() % ch.size()];
      q.path.push_back(v);
    }
    if (q.path.size() != p.path_len) {
      die("tree is not balanced");
    }
    fc::PathSearchResult r;
    for (;;) {
      q.y = key(rng);
      r = fc::search_explicit(s, q.path, q.y);
      bool all_finite = true;
      for (std::size_t i = 0; i < q.path.size(); ++i) {
        all_finite = all_finite &&
                     tree.catalog(q.path[i]).key(r.proper_index[i]) !=
                         cat::kInfinity;
      }
      if (!determinate || all_finite) {
        break;
      }
    }
    for (std::size_t i = 0; i < q.path.size(); ++i) {
      p.exp_aug.push_back(static_cast<std::uint32_t>(r.aug_index[i]));
      p.exp_proper.push_back(static_cast<std::uint32_t>(r.proper_index[i]));
      p.exp_key.push_back(tree.catalog(q.path[i]).key(r.proper_index[i]));
    }
  }
  return p;
}

std::uint64_t file_digest(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    die("cannot read " + path);
  }
  std::uint64_t h = 1469598103934665603ull;
  std::vector<std::uint64_t> buf(1 << 16);
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size() * 8, f)) > 0) {
    const std::size_t words = (n + 7) / 8;
    if (n % 8 != 0) {
      std::memset(reinterpret_cast<char*>(buf.data()) + n, 0, 8 - n % 8);
    }
    for (std::size_t i = 0; i < words; ++i) {
      h = (h ^ buf[i]) * 1099511628211ull;
    }
  }
  std::fclose(f);
  return h;
}

std::string hex(std::uint64_t v) {
  char b[17];
  std::snprintf(b, sizeof(b), "%016llx", static_cast<unsigned long long>(v));
  return b;
}

}  // namespace

int cmd_prep(const Args& a) {
  const std::string out = a.str("out");
  const auto height = static_cast<std::uint32_t>(a.num("height"));
  const auto entries = static_cast<std::size_t>(a.num("entries"));
  const auto seed = static_cast<std::uint64_t>(a.num("seed"));
  const auto batches = static_cast<std::uint32_t>(a.num("batches"));
  const auto rw_batches = static_cast<std::uint32_t>(a.num("rw-batches", 0));
  const auto shards = static_cast<std::uint32_t>(a.num("shards", 0));
  std::filesystem::create_directories(out);

  std::mt19937_64 rng(seed);
  const cat::Tree tree = cat::make_balanced_binary(
      height, entries, cat::CatalogShape::kRandom, rng);
  auto s = fc::Structure::build_checked(tree);
  if (!s.ok()) {
    die("build: " + s.status().to_string());
  }
  auto flat = serve::FlatCascade::compile(*s);
  if (!flat.ok()) {
    die("compile: " + flat.status().to_string());
  }
  const std::string snap = out + "/main.snap";
  if (auto st = snapshot::write(*flat, snap); !st.ok()) {
    die("snapshot: " + st.to_string());
  }
  if (shards > 0) {
    auto map = cluster::partition_to_dir(tree, shards, out + "/part");
    if (!map.ok()) {
      die("partition: " + map.status().to_string());
    }
  }

  // Queries come from their own stream so the tree and the queries of a
  // seed are independent of each other's sizes.
  std::mt19937_64 qrng(seed * 0x9E3779B97F4A7C15ull + 1);
  const Pool stat = make_pool(tree, *s, batches, 64, false, qrng);
  std::uint64_t digest = stat.digest() ^ file_digest(snap);
  if (auto st = stat.save(out + "/static.pool"); !st.ok()) {
    die(st.to_string());
  }
  if (rw_batches > 0) {
    const Pool rw = make_pool(tree, *s, rw_batches, 64, true, qrng);
    digest = digest * 31 + rw.digest();
    if (auto st = rw.save(out + "/rw.pool"); !st.ok()) {
      die(st.to_string());
    }
  }
  Json j;
  j.str("digest", hex(digest))
      .str("snapshot_digest", hex(file_digest(snap)))
      .num("nodes", static_cast<double>(tree.num_nodes()))
      .num("entries", static_cast<double>(tree.total_catalog_size()))
      .num("path_len", stat.path_len)
      .num("arena_mb", static_cast<double>(flat->arena_bytes()) / (1 << 20));
  std::FILE* f = std::fopen((out + "/inputs.json").c_str(), "w");
  if (f == nullptr) {
    die("cannot write inputs.json");
  }
  std::fprintf(f, "%s\n", j.done().c_str());
  std::fclose(f);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

}  // namespace pb
