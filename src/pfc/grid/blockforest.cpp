#include "pfc/grid/blockforest.hpp"

#include <algorithm>
#include <cstdio>

#include "pfc/support/assert.hpp"

namespace pfc::grid {

std::uint64_t morton_encode(std::uint32_t x, std::uint32_t y,
                            std::uint32_t z) {
  const auto spread = [](std::uint64_t v) {
    v &= 0x1fffff;  // 21 bits
    v = (v | v << 32) & 0x1f00000000ffffull;
    v = (v | v << 16) & 0x1f0000ff0000ffull;
    v = (v | v << 8) & 0x100f00f00f00f00full;
    v = (v | v << 4) & 0x10c30c30c30c30c3ull;
    v = (v | v << 2) & 0x1249249249249249ull;
    return v;
  };
  return spread(x) | (spread(y) << 1) | (spread(z) << 2);
}

BlockForest::BlockForest(std::array<long long, 3> global_cells,
                         std::array<int, 3> blocks_per_dim, int num_ranks,
                         int dims, BoundaryKind boundary)
    : global_cells_(global_cells),
      blocks_per_dim_(blocks_per_dim),
      num_ranks_(num_ranks),
      dims_(dims),
      boundary_(boundary) {
  PFC_REQUIRE(num_ranks >= 1, "need at least one rank");
  PFC_REQUIRE(dims >= 1 && dims <= 3, "dims must be 1..3");
  std::array<long long, 3> bsize{1, 1, 1};
  for (int d = 0; d < 3; ++d) {
    if (d >= dims) {
      PFC_REQUIRE(blocks_per_dim[std::size_t(d)] == 1 &&
                      global_cells[std::size_t(d)] == 1,
                  "unused dims must have 1 block of 1 cell");
    }
    PFC_REQUIRE(blocks_per_dim[std::size_t(d)] >= 1, "bad block count");
    PFC_REQUIRE(
        global_cells[std::size_t(d)] % blocks_per_dim[std::size_t(d)] == 0,
        "global cells must divide evenly into blocks");
    bsize[std::size_t(d)] =
        global_cells[std::size_t(d)] / blocks_per_dim[std::size_t(d)];
  }

  for (int bz = 0; bz < blocks_per_dim[2]; ++bz) {
    for (int by = 0; by < blocks_per_dim[1]; ++by) {
      for (int bx = 0; bx < blocks_per_dim[0]; ++bx) {
        Block b;
        b.index = {bx, by, bz};
        b.size = bsize;
        b.offset = {bx * bsize[0], by * bsize[1], bz * bsize[2]};
        b.morton = morton_encode(std::uint32_t(bx), std::uint32_t(by),
                                 std::uint32_t(bz));
        blocks_.push_back(b);
      }
    }
  }

  // sort along the Morton curve, then cut into near-equal contiguous chunks
  std::sort(blocks_.begin(), blocks_.end(),
            [](const Block& a, const Block& b) { return a.morton < b.morton; });
  const std::size_t nb = blocks_.size();
  for (std::size_t i = 0; i < nb; ++i) {
    blocks_[i].linear_id = static_cast<int>(i);
    blocks_[i].owner = static_cast<int>(i * std::size_t(num_ranks) / nb);
  }

  by_index_.assign(nb, -1);
  for (std::size_t i = 0; i < nb; ++i) {
    const auto& ix = blocks_[i].index;
    const std::size_t flat =
        std::size_t(ix[0]) +
        std::size_t(blocks_per_dim[0]) *
            (std::size_t(ix[1]) +
             std::size_t(blocks_per_dim[1]) * std::size_t(ix[2]));
    by_index_[flat] = static_cast<int>(i);
  }
}

std::vector<const Block*> BlockForest::blocks_of_rank(int rank) const {
  std::vector<const Block*> out;
  for (const auto& b : blocks_) {
    if (b.owner == rank) out.push_back(&b);
  }
  return out;
}

const Block& BlockForest::block_at(std::array<int, 3> index) const {
  for (int d = 0; d < 3; ++d) {
    PFC_REQUIRE(index[std::size_t(d)] >= 0 &&
                    index[std::size_t(d)] < blocks_per_dim_[std::size_t(d)],
                "block index out of range");
  }
  const std::size_t flat =
      std::size_t(index[0]) +
      std::size_t(blocks_per_dim_[0]) *
          (std::size_t(index[1]) +
           std::size_t(blocks_per_dim_[1]) * std::size_t(index[2]));
  return blocks_[std::size_t(by_index_[flat])];
}

const Block* BlockForest::neighbor(const Block& b, int axis, int side) const {
  PFC_REQUIRE(axis >= 0 && axis < dims_, "neighbor axis out of range");
  PFC_REQUIRE(side == 1 || side == -1, "side must be +-1");
  std::array<int, 3> ix = b.index;
  ix[std::size_t(axis)] += side;
  const int n = blocks_per_dim_[std::size_t(axis)];
  if (ix[std::size_t(axis)] < 0 || ix[std::size_t(axis)] >= n) {
    if (boundary_ != BoundaryKind::Periodic) return nullptr;
    ix[std::size_t(axis)] = (ix[std::size_t(axis)] + n) % n;
  }
  return &block_at(ix);
}

std::pair<int, int> BlockForest::rank_load_extremes() const {
  std::vector<int> counts(std::size_t(num_ranks_), 0);
  for (const auto& b : blocks_) ++counts[std::size_t(b.owner)];
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  return {*mx, *mn};
}

std::string BlockForest::layout_signature() const {
  char buf[160];
  std::snprintf(
      buf, sizeof buf,
      "cells=%lldx%lldx%lld;blocks=%dx%dx%d;ranks=%d;dims=%d;boundary=%s",
      global_cells_[0], global_cells_[1], global_cells_[2],
      blocks_per_dim_[0], blocks_per_dim_[1], blocks_per_dim_[2], num_ranks_,
      dims_, support::enum_name(boundary_));
  return buf;
}

}  // namespace pfc::grid
