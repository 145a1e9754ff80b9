#include "net/spatial_index.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace mk::net {

SpatialGrid::SpatialGrid(double cell_size) : inv_cell_(1.0 / cell_size) {
  MK_ASSERT(cell_size > 0.0);
}

std::uint64_t SpatialGrid::key_of(Position p) const {
  auto cx = static_cast<std::int64_t>(std::floor(p.x * inv_cell_));
  auto cy = static_cast<std::int64_t>(std::floor(p.y * inv_cell_));
  return pack(cx, cy);
}

void SpatialGrid::insert(std::uint32_t slot, Position p) {
  cells_[key_of(p)].push_back(slot);
}

void SpatialGrid::erase(std::uint32_t slot, Position from) {
  auto it = cells_.find(key_of(from));
  MK_ASSERT(it != cells_.end(), "slot not registered at its recorded cell");
  auto& v = it->second;
  auto pos = std::find(v.begin(), v.end(), slot);
  MK_ASSERT(pos != v.end(), "slot missing from its recorded cell");
  *pos = v.back();  // swap-remove: cell membership is a set, order is free
  v.pop_back();
  if (v.empty()) cells_.erase(it);
}

void SpatialGrid::move(std::uint32_t slot, Position from, Position to) {
  if (key_of(from) == key_of(to)) return;
  erase(slot, from);
  insert(slot, to);
}

}  // namespace mk::net
