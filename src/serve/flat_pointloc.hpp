#pragma once

#include <cstdint>

#include "geom/subdivision.hpp"
#include "pointloc/separator_tree.hpp"
#include "serve/flat_cascade.hpp"

namespace serve {

/// The serving-layer compilation of a SeparatorTree: the cascading
/// structure goes through FlatCascade, and the per-entry edge geometry the
/// branch rule needs (endpoints for the side test, max_sep for the
/// running-max rule) is flattened into SoA pools indexed by
/// entry_off[node] + proper_index, which is the position walk_implicit
/// hands the branch rule — no Catalog, payload table, or edge array hop
/// in the hot loop.  Immutable and thread-safe after compile().
///
/// locate() implements the same running-max branch rule as
/// SeparatorTree::locate (the recommended form; no per-gap storage) and is
/// tested to agree with it query for query.
class FlatPointLocator {
 public:
  /// Compile `st`.  The cascade is validated by FlatCascade::compile; the
  /// edge table is bounds-checked against the subdivision, so corrupted
  /// inputs are rejected with a Status.  `st` is not referenced after
  /// compile() returns.
  [[nodiscard]] static coop::Expected<FlatPointLocator> compile(
      const pointloc::SeparatorTree& st);

  [[nodiscard]] const FlatCascade& cascade() const { return cascade_; }
  [[nodiscard]] std::size_t num_regions() const { return num_regions_; }

  /// Region index containing q (same contract as SeparatorTree::locate).
  [[nodiscard]] std::size_t locate(const geom::Point& q) const {
    std::int32_t max_el = 0;
    const auto branch = [&](std::uint32_t v, std::uint32_t e) {
      return branch_at(v, e, q, max_el);
    };
    std::uint32_t last_e = 0;
    const std::uint32_t leaf = cascade_.walk_implicit(q.y, branch, &last_e);
    const std::uint32_t last_branch = branch_at(leaf, last_e, q, max_el);
    const std::int32_t m = sep_[leaf];
    return static_cast<std::size_t>(last_branch == 1 ? m : m - 1);
  }

  [[nodiscard]] std::size_t arena_bytes() const {
    return cascade_.arena_bytes() + entry_off_.allocated_bytes() +
           sep_.allocated_bytes() + lo_x_.allocated_bytes() +
           lo_y_.allocated_bytes() + hi_x_.allocated_bytes() +
           hi_y_.allocated_bytes() + max_sep_.allocated_bytes();
  }

 private:
  friend struct snapshot::ArenaAccess;  // snapshot codec backdoor

  FlatPointLocator() = default;

  /// The running-max branch rule on flat data (see SeparatorTree::branch_at
  /// and coop_pointloc.cpp for the correctness argument).  An entry is
  /// active iff its edge's open span contains q.y; sentinel entries carry
  /// lo_y == +inf so they are inactive without a separate flag.  `e` is
  /// the entry's index in the pools (entry_off_[v] + its proper index).
  [[nodiscard]] std::uint32_t branch_at(std::uint32_t v, std::uint32_t e,
                                        const geom::Point& q,
                                        std::int32_t& max_el) const {
    if (lo_y_[e] < q.y) {  // active edge: discriminate geometrically
      const geom::Point lo{lo_x_[e], lo_y_[e]};
      const geom::Point hi{hi_x_[e], hi_y_[e]};
      if (geom::orientation(lo, hi, q) > 0) {
        return 0;
      }
      max_el = max_el > max_sep_[e] ? max_el : max_sep_[e];
      return 1;
    }
    return sep_[v] <= max_el ? 1u : 0u;
  }

  FlatCascade cascade_;
  Pool<std::uint32_t> entry_off_;  ///< per node, into the entry pools
  Pool<std::int32_t> sep_;         ///< separator index per node
  Pool<geom::Coord> lo_x_, lo_y_, hi_x_, hi_y_;
  Pool<std::int32_t> max_sep_;
  std::size_t num_regions_ = 0;
};

}  // namespace serve
