#pragma once

// Byte-level crafting of older snapshot formats from files this build
// writes (format v4), so back-compat tests can prove that every version
// snapshot::open still accepts serves identically.
//
//   v3: v4 with the kOwnBits section replaced, in place, by kProper: the
//       uint32 aug -> proper map, each entry's count of own entries before
//       it in its node — exactly what a v3 writer emitted.
//   v1: v3's section set under version 1 (v1 had no layout sections and
//       the same 56-byte meta).
//   v2: v3 plus the per-node blocked multiway layout sections kSimdKeys/
//       kSimdPos/kSimdOff after kChild, the meta grown to 64 bytes by the
//       layout's slot count.
//
// Every CRC is re-forged, so the crafted files pass the checksum ladder.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "serve/flat_cascade.hpp"
#include "serve/simd_find.hpp"
#include "snapshot/format.hpp"

namespace snapshot_craft {

inline std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

inline void spit(const std::string& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

struct Section {
  snapshot::SectionId id{};
  std::uint32_t elem_size = 0;
  std::vector<unsigned char> payload;
};

struct File {
  snapshot::FileHeader header;
  std::vector<Section> sections;
};

inline File parse(const std::vector<unsigned char>& bytes) {
  File f;
  std::memcpy(&f.header, bytes.data(), sizeof(f.header));
  std::vector<snapshot::SectionRecord> table(f.header.section_count);
  std::memcpy(table.data(), bytes.data() + sizeof(f.header),
              table.size() * sizeof(snapshot::SectionRecord));
  for (const snapshot::SectionRecord& r : table) {
    const unsigned char* at = bytes.data() + r.offset;
    f.sections.push_back({static_cast<snapshot::SectionId>(r.id),
                          r.elem_size, {at, at + r.length}});
  }
  return f;
}

/// Lay the file out the way snapshot::write does and forge every CRC.
inline std::vector<unsigned char> serialize(File f) {
  const std::size_t table_bytes =
      f.sections.size() * sizeof(snapshot::SectionRecord);
  std::vector<snapshot::SectionRecord> table(f.sections.size());
  std::uint64_t off = snapshot::align_up(sizeof(f.header) + table_bytes,
                                         snapshot::kSectionAlign);
  for (std::size_t i = 0; i < f.sections.size(); ++i) {
    const Section& s = f.sections[i];
    table[i].id = static_cast<std::uint32_t>(s.id);
    table[i].elem_size = s.elem_size;
    table[i].offset = off;
    table[i].length = s.payload.size();
    table[i].crc32 = snapshot::crc32(s.payload.data(), s.payload.size());
    off = snapshot::align_up(off + s.payload.size(), snapshot::kSectionAlign);
  }
  std::vector<unsigned char> bytes(
      table.empty() ? sizeof(f.header)
                    : table.back().offset + table.back().length);
  for (std::size_t i = 0; i < table.size(); ++i) {
    std::memcpy(bytes.data() + table[i].offset, f.sections[i].payload.data(),
                f.sections[i].payload.size());
  }
  std::memcpy(bytes.data() + sizeof(f.header), table.data(), table_bytes);
  f.header.section_count = static_cast<std::uint32_t>(table.size());
  f.header.file_size = bytes.size();
  f.header.table_crc = snapshot::crc32(table.data(), table_bytes);
  f.header.header_crc = snapshot::header_crc(f.header);
  std::memcpy(bytes.data(), &f.header, sizeof(f.header));
  return bytes;
}

inline Section* find(File& f, snapshot::SectionId id) {
  for (Section& s : f.sections) {
    if (s.id == id) {
      return &s;
    }
  }
  return nullptr;
}
inline const Section* find(const File& f, snapshot::SectionId id) {
  return find(const_cast<File&>(f), id);
}

template <typename T>
std::vector<T> elements(const Section& s) {
  std::vector<T> out(s.payload.size() / sizeof(T));
  std::memcpy(out.data(), s.payload.data(), s.payload.size());
  return out;
}

template <typename T>
std::vector<unsigned char> bytes_of(const std::vector<T>& vec) {
  const auto* p = reinterpret_cast<const unsigned char*>(vec.data());
  return {p, p + vec.size() * sizeof(T)};
}

/// A v4 file's section set in v3 form: kOwnBits replaced in place by the
/// kProper map it encodes.
inline void own_bits_to_proper(File& f) {
  Section* bits_s = find(f, snapshot::SectionId::kOwnBits);
  const Section* nodes_s = find(f, snapshot::SectionId::kNodes);
  ASSERT_NE(bits_s, nullptr);
  ASSERT_NE(nodes_s, nullptr);
  const auto bits = elements<std::uint64_t>(*bits_s);
  std::vector<std::uint32_t> proper;
  for (const serve::FlatNode& nd : elements<serve::FlatNode>(*nodes_s)) {
    std::uint32_t rank = 0;
    for (std::uint32_t i = 0; i < nd.key_count; ++i) {
      proper.push_back(rank);
      const std::size_t p = std::size_t{nd.key_off} + i;
      rank += static_cast<std::uint32_t>((bits[p / 64] >> (p % 64)) & 1);
    }
  }
  *bits_s = {snapshot::SectionId::kProper, 4, bytes_of(proper)};
}

/// Rewrite the v4 snapshot at `path` as the v3 format.
inline void to_v3(const std::string& path) {
  File f = parse(slurp(path));
  ASSERT_EQ(f.header.version, 4u);
  own_bits_to_proper(f);
  f.header.version = 3;
  spit(path, serialize(std::move(f)));
}

/// Rewrite the v4 snapshot at `path` as the v1 format.
inline void to_v1(const std::string& path) {
  File f = parse(slurp(path));
  ASSERT_EQ(f.header.version, 4u);
  own_bits_to_proper(f);
  f.header.version = 1;
  spit(path, serialize(std::move(f)));
}

/// Rewrite the v4 snapshot at `path` as the v2 format: build every
/// node's layout with simd::build_layout from the file's own keys.
inline void to_v2(const std::string& path) {
  File f = parse(slurp(path));
  ASSERT_EQ(f.header.version, 4u);
  own_bits_to_proper(f);
  const Section* nodes_s = find(f, snapshot::SectionId::kNodes);
  const Section* keys_s = find(f, snapshot::SectionId::kKeys);
  ASSERT_NE(nodes_s, nullptr);
  ASSERT_NE(keys_s, nullptr);
  const auto nodes = elements<serve::FlatNode>(*nodes_s);
  const auto keys = elements<cat::Key>(*keys_s);
  const std::size_t nn = nodes.size();

  std::vector<std::uint32_t> slot_off(nn);
  std::size_t slots = 0;
  for (std::size_t v = 0; v < nn; ++v) {
    slot_off[v] = static_cast<std::uint32_t>(slots);
    slots += serve::simd::num_slots(nodes[v].key_count);
  }
  std::vector<cat::Key> slot_keys(slots);
  std::vector<std::uint32_t> slot_pos(slots);
  for (std::size_t v = 0; v < nn; ++v) {
    serve::simd::build_layout(keys.data() + nodes[v].key_off,
                              nodes[v].key_count,
                              slot_keys.data() + slot_off[v],
                              slot_pos.data() + slot_off[v]);
  }
  std::vector<Section> out;
  for (Section& s : f.sections) {
    if (s.id == snapshot::SectionId::kMeta) {
      ASSERT_EQ(s.payload.size(), sizeof(snapshot::ArenaMeta));
      const std::uint64_t num_simd_slots = slots;
      const auto* p = reinterpret_cast<const unsigned char*>(&num_simd_slots);
      s.payload.insert(s.payload.end(), p, p + sizeof(num_simd_slots));
      s.elem_size = snapshot::kArenaMetaSizeV2;
    }
    const bool after_child = s.id == snapshot::SectionId::kChild;
    out.push_back(std::move(s));
    if (after_child) {
      out.push_back({snapshot::SectionId::kSimdKeys, sizeof(cat::Key),
                     bytes_of(slot_keys)});
      out.push_back({snapshot::SectionId::kSimdPos, 4, bytes_of(slot_pos)});
      out.push_back({snapshot::SectionId::kSimdOff, 4, bytes_of(slot_off)});
    }
  }
  f.sections = std::move(out);
  f.header.version = 2;
  spit(path, serialize(std::move(f)));
}

/// Whether the file at `path` carries any of the v2 layout sections.
inline bool has_layout_sections(const std::string& path) {
  const File f = parse(slurp(path));
  return find(f, snapshot::SectionId::kSimdKeys) != nullptr ||
         find(f, snapshot::SectionId::kSimdPos) != nullptr ||
         find(f, snapshot::SectionId::kSimdOff) != nullptr;
}

/// Whether the file at `path` carries the v1-v3 kProper section.
inline bool has_proper_section(const std::string& path) {
  return find(parse(slurp(path)), snapshot::SectionId::kProper) != nullptr;
}

}  // namespace snapshot_craft
