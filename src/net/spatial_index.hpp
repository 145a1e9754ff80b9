// Spatial-hash grid over node positions (the medium's topology core at
// scale). Cell size equals the radio range, so any pair within range shares a
// cell or sits in adjacent cells: one sweep over each cell and its forward
// neighbours (for_each_candidate_pair) is a complete candidate set for the
// range test, turning the all-pairs O(n²) link scan into O(n·k) for k nodes
// per neighbourhood.
//
// Determinism: cells are stored in an unordered_map, so the sweep visits
// pairs in an order that depends on the hash layout and movement history.
// Callers that journal link flips must therefore sort the flips they derive
// before applying them (topology.cpp sorts by (min addr, max addr)) — the
// *set* of candidate pairs is deterministic, only its order is not.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/position.hpp"

namespace mk::net {

class SpatialGrid {
 public:
  /// `cell_size` must be >= the query range used against the grid.
  explicit SpatialGrid(double cell_size);

  /// Registers `slot` at `p`. A slot lives in exactly one cell; insert twice
  /// only after an intervening erase/move.
  void insert(std::uint32_t slot, Position p);

  /// Removes `slot`, which must currently be registered at `from`'s cell.
  void erase(std::uint32_t slot, Position from);

  /// Relocates `slot`; a no-op when both positions land in the same cell.
  void move(std::uint32_t slot, Position from, Position to);

  /// Visits every unordered slot pair that shares a cell or sits in adjacent
  /// cells — the complete candidate set for range queries — exactly once:
  /// cell-interior pairs plus each cell crossed with its four forward
  /// neighbours (+1,0), (+1,+1), (0,+1), (-1,+1). Visit *order* follows the
  /// hash layout and is not deterministic; the visited *set* is.
  template <typename Fn>
  void for_each_candidate_pair(Fn&& fn) const {
    static constexpr std::int64_t kForward[4][2] = {
        {1, 0}, {1, 1}, {0, 1}, {-1, 1}};
    for (const auto& [key, members] : cells_) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          fn(members[i], members[j]);
        }
      }
      const auto cx = static_cast<std::int64_t>(
          static_cast<std::int32_t>(key >> 32));
      const auto cy = static_cast<std::int64_t>(
          static_cast<std::int32_t>(key & 0xffffffffu));
      for (const auto& d : kForward) {
        auto it = cells_.find(pack(cx + d[0], cy + d[1]));
        if (it == cells_.end()) continue;
        for (std::uint32_t a : members) {
          for (std::uint32_t b : it->second) fn(a, b);
        }
      }
    }
  }

 private:
  /// Packs a cell coordinate pair into one map key. Coordinates are biased
  /// through int64 floor so positions slightly outside [0, w)x[0, h)
  /// (mobility clamps, test fixtures) still land in well-defined cells.
  static std::uint64_t pack(std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }

  std::uint64_t key_of(Position p) const;

  double inv_cell_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
};

}  // namespace mk::net
