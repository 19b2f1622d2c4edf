#include "pfc/grid/ghost_exchange.hpp"

#include <algorithm>

#include "pfc/support/assert.hpp"

namespace pfc::grid {

namespace {

/// Iteration box of one ghost/interior slab along `axis`; other axes span
/// interior plus the ghosts of already-exchanged axes (< axis).
struct SlabBox {
  std::int64_t lo[3], hi[3];
};

SlabBox slab_box(const Array& a, int axis, std::int64_t a_lo,
                 std::int64_t a_hi) {
  SlabBox box;
  const int g = a.ghost_layers();
  for (int d = 0; d < 3; ++d) {
    const bool used = d < a.field()->spatial_dims();
    const int gd = used ? g : 0;
    if (d == axis) {
      box.lo[d] = a_lo;
      box.hi[d] = a_hi;
    } else if (d < axis) {
      box.lo[d] = -gd;
      box.hi[d] = a.size()[std::size_t(d)] + gd;
    } else {
      box.lo[d] = 0;
      box.hi[d] = a.size()[std::size_t(d)];
    }
  }
  return box;
}

std::size_t box_cells(const SlabBox& b) {
  std::size_t n = 1;
  for (int d = 0; d < 3; ++d) n *= std::size_t(b.hi[d] - b.lo[d]);
  return n;
}

/// Doubles in one remote message of `a` along `axis` (send and recv slabs
/// have the same volume: g layers thick).
std::size_t slab_doubles(const Array& a, int axis) {
  const SlabBox b = slab_box(a, axis, 0, a.ghost_layers());
  return box_cells(b) * std::size_t(a.components());
}

/// Start of the x-row (y, z) of component c inside box b: a row runs
/// b.hi[0] - b.lo[0] contiguous cells from x = b.lo[0] (stride(0) == 1).
template <class A>
auto row(A& a, const SlabBox& b, int c, std::int64_t y, std::int64_t z) {
  return a.origin(c) + b.lo[0] + y * a.stride(1) + z * a.stride(2);
}

void pack(const Array& a, const SlabBox& b, std::vector<double>& buf) {
  const std::int64_t len = b.hi[0] - b.lo[0];
  buf.clear();
  buf.reserve(box_cells(b) * std::size_t(a.components()));
  for (int c = 0; c < a.components(); ++c) {
    for (std::int64_t z = b.lo[2]; z < b.hi[2]; ++z) {
      for (std::int64_t y = b.lo[1]; y < b.hi[1]; ++y) {
        const double* p = row(a, b, c, y, z);
        buf.insert(buf.end(), p, p + len);
      }
    }
  }
}

void unpack(Array& a, const SlabBox& b, const std::vector<double>& buf) {
  PFC_ASSERT(buf.size() == box_cells(b) * std::size_t(a.components()));
  const std::int64_t len = b.hi[0] - b.lo[0];
  const double* in = buf.data();
  for (int c = 0; c < a.components(); ++c) {
    for (std::int64_t z = b.lo[2]; z < b.hi[2]; ++z) {
      for (std::int64_t y = b.lo[1]; y < b.hi[1]; ++y) {
        std::copy_n(in, len, row(a, b, c, y, z));
        in += len;
      }
    }
  }
}

/// Copies neighbour interior into my ghosts directly (both local), row by
/// row. The two slabs are disjoint, also when a periodic block is its own
/// neighbour, because each block is at least g cells wide.
void copy_local(Array& dst, const Array& src, int axis, int side, int g) {
  const std::int64_t n_dst = dst.size()[std::size_t(axis)];
  const std::int64_t n_src = src.size()[std::size_t(axis)];
  PFC_ASSERT(n_src >= g, "ghost exchange: block thinner than its ghosts");
  // my ghosts on `side` <- neighbour interior at the opposite edge
  const SlabBox gbox = slab_box(dst, axis, side > 0 ? n_dst : -g,
                                side > 0 ? n_dst + g : 0);
  const SlabBox sbox = slab_box(src, axis, side > 0 ? 0 : n_src - g,
                                side > 0 ? g : n_src);
  PFC_ASSERT(box_cells(gbox) == box_cells(sbox));
  const std::int64_t len = gbox.hi[0] - gbox.lo[0];
  const std::int64_t dy = sbox.lo[1] - gbox.lo[1];
  const std::int64_t dz = sbox.lo[2] - gbox.lo[2];
  for (int c = 0; c < dst.components(); ++c) {
    for (std::int64_t z = gbox.lo[2]; z < gbox.hi[2]; ++z) {
      for (std::int64_t y = gbox.lo[1]; y < gbox.hi[1]; ++y) {
        std::copy_n(row(src, sbox, c, y + dy, z + dz), len,
                    row(dst, gbox, c, y, z));
      }
    }
  }
}

int message_tag(int field_tag, int axis, int recv_side,
                int recv_block_id) {
  return ((field_tag * 3 + axis) * 2 + (recv_side > 0 ? 1 : 0)) * 65536 +
         recv_block_id;
}

}  // namespace

GhostExchange::GhostExchange(const BlockForest& forest, mpi::Comm* comm,
                             int max_components, int max_ghost_layers)
    : forest_(forest), comm_(comm) {
  const int my_rank = comm != nullptr ? comm->rank() : 0;
  const std::vector<const Block*> mine = forest.blocks_of_rank(my_rank);
  num_slots_ = static_cast<int>(mine.size());
  bufs_.resize(std::size_t(num_slots_) * 3 * 2 * 2);
  if (num_slots_ == 0) return;

  // All blocks are equal-sized; pre-size the (slot, axis, side) buffer
  // pair of every remote face to its slab volume so steady-state rounds
  // never allocate. Local faces and unused axes never touch theirs.
  const auto& s = forest.blocks().front().size;
  const int g = max_ghost_layers;
  for (int axis = 0; axis < forest.dims(); ++axis) {
    std::size_t cells = 1;
    for (int d = 0; d < forest.dims(); ++d) {
      if (d == axis) cells *= std::size_t(g);
      else if (d < axis) cells *= std::size_t(s[std::size_t(d)] + 2 * g);
      else cells *= std::size_t(s[std::size_t(d)]);
    }
    const std::size_t cap = cells * std::size_t(max_components);
    for (int slot = 0; slot < num_slots_; ++slot) {
      for (int side : {-1, +1}) {
        const Block* nb = forest.neighbor(*mine[std::size_t(slot)], axis, side);
        if (nb == nullptr || nb->owner == my_rank) continue;
        buffer(slot, axis, side, /*send=*/true, 0).reserve(cap);
        buffer(slot, axis, side, /*send=*/false, 0).reserve(cap);
      }
    }
  }
  pending_local_.reserve(std::size_t(num_slots_));
  pending_.reserve(std::size_t(num_slots_) * 2);
  pending_reqs_.reserve(std::size_t(num_slots_) * 2);
}

std::vector<double>& GhostExchange::buffer(int slot, int axis, int side,
                                           bool send,
                                           std::size_t needed_doubles) {
  const std::size_t i =
      ((std::size_t(slot) * 3 + std::size_t(axis)) * 2 +
       std::size_t(side > 0 ? 1 : 0)) * 2 + std::size_t(send ? 0 : 1);
  std::vector<double>& b = bufs_[i];
  // The first round may grow past the constructor's sizing hints (larger
  // component count / ghost depth); after that, capacity is frozen.
  PFC_ASSERT(!first_round_done_ || needed_doubles <= b.capacity(),
             "ghost exchange: steady-state buffer growth");
  return b;
}

std::size_t GhostExchange::round_bytes(
    const std::vector<LocalBlockField>& local) const {
  const int my_rank = comm_ != nullptr ? comm_->rank() : 0;
  std::size_t bytes = 0;
  for (int axis = 0; axis < forest_.dims(); ++axis) {
    for (const auto& lf : local) {
      for (int side : {-1, +1}) {
        const Block* nb = forest_.neighbor(*lf.block, axis, side);
        if (nb != nullptr && nb->owner != my_rank) {
          bytes += slab_doubles(*lf.array, axis) * sizeof(double);
        }
      }
    }
  }
  return bytes;
}

void GhostExchange::post_remote(const std::vector<LocalBlockField>& local,
                                int axis, int field_tag) {
  const int my_rank = comm_ != nullptr ? comm_->rank() : 0;
  for (std::size_t slot = 0; slot < local.size(); ++slot) {
    const LocalBlockField& lf = local[slot];
    Array& a = *lf.array;
    const int g = a.ghost_layers();
    const std::int64_t n = a.size()[std::size_t(axis)];
    for (int side : {-1, +1}) {
      const Block* nb = forest_.neighbor(*lf.block, axis, side);
      if (nb == nullptr || nb->owner == my_rank) continue;
      PFC_REQUIRE(comm_ != nullptr,
                  "remote neighbor block but no communicator");
      const std::size_t doubles = slab_doubles(a, axis);
      // send my edge interior for the neighbour's ghosts (buffered, so the
      // send buffer is reusable at once and posting cannot deadlock)
      const SlabBox sbox =
          slab_box(a, axis, side > 0 ? n - g : 0, side > 0 ? n : g);
      std::vector<double>& sbuf =
          buffer(int(slot), axis, side, /*send=*/true, doubles);
      pack(a, sbox, sbuf);
      const int stag = message_tag(field_tag, axis, -side, nb->linear_id);
      comm_->send_vec(nb->owner, stag, sbuf);

      // register the matching receive into my ghosts
      std::vector<double>& rbuf =
          buffer(int(slot), axis, side, /*send=*/false, doubles);
      rbuf.resize(doubles);
      const int rtag = message_tag(field_tag, axis, side, lf.block->linear_id);
      pending_reqs_.push_back(comm_->irecv(nb->owner, rtag, rbuf.data(),
                                           rbuf.size() * sizeof(double)));
      pending_.push_back({int(slot), axis, side});
    }
  }
}

void GhostExchange::fill_local(const std::vector<LocalBlockField>& local,
                               int axis) {
  const int my_rank = comm_ != nullptr ? comm_->rank() : 0;
  const auto find_local = [&](const Block* b) -> Array* {
    for (const auto& lf : local) {
      if (lf.block->linear_id == b->linear_id) return lf.array;
    }
    PFC_ASSERT(false, "neighbor block marked local but not bound");
  };
  for (const auto& lf : local) {
    Array& a = *lf.array;
    for (int side : {-1, +1}) {
      const Block* nb = forest_.neighbor(*lf.block, axis, side);
      if (nb == nullptr) {
        fill_ghosts_axis(a, axis, BoundaryKind::ZeroGradient,
                         /*lower=*/side < 0, /*upper=*/side > 0);
      } else if (nb->owner == my_rank) {
        copy_local(a, *find_local(nb), axis, side, a.ghost_layers());
      }
    }
  }
}

void GhostExchange::complete_remote(
    const std::vector<LocalBlockField>& local) {
  // No global barrier is needed: tags are unique per (field, axis, side,
  // block) and matching is FIFO per (source, tag), so a neighbour that is
  // still computing simply delays its own message, not ours.
  if (!pending_reqs_.empty()) comm_->wait_all(pending_reqs_);
  for (const Pending& p : pending_) {
    Array& a = *local[std::size_t(p.slot)].array;
    const int g = a.ghost_layers();
    const std::int64_t n = a.size()[std::size_t(p.axis)];
    const SlabBox gbox = slab_box(a, p.axis, p.side > 0 ? n : -g,
                                  p.side > 0 ? n + g : 0);
    unpack(a, gbox,
           buffer(p.slot, p.axis, p.side, /*send=*/false,
                  slab_doubles(a, p.axis)));
  }
  pending_.clear();
  pending_reqs_.clear();
}

void GhostExchange::exchange_axis(const std::vector<LocalBlockField>& local,
                                  int axis, int field_tag) {
  post_remote(local, axis, field_tag);
  fill_local(local, axis);
  complete_remote(local);
}

void GhostExchange::exchange(const std::vector<LocalBlockField>& local,
                             int field_tag) {
  PFC_REQUIRE(!in_flight_, "ghost exchange: exchange() during begin/finish");
  bytes_sent_ = round_bytes(local);
  for (int axis = 0; axis < forest_.dims(); ++axis) {
    exchange_axis(local, axis, field_tag);
    // axis sweeps must complete globally before the next axis reads the
    // freshly filled ghosts
    if (comm_ != nullptr) comm_->barrier();
  }
  first_round_done_ = true;
}

void GhostExchange::begin(const std::vector<LocalBlockField>& local,
                          int field_tag) {
  PFC_REQUIRE(!in_flight_, "ghost exchange: begin() while in flight");
  // The slab geometry is fixed by topology, so the round's full byte count
  // is known before finish() packs the later axes.
  bytes_sent_ = round_bytes(local);
  post_remote(local, /*axis=*/0, field_tag);
  pending_local_ = local;
  pending_tag_ = field_tag;
  in_flight_ = true;
}

void GhostExchange::finish() {
  PFC_REQUIRE(in_flight_, "ghost exchange: finish() without begin()");
  // Axis 0 without messages first (it reads the edge cells the caller
  // computed after begin()), then the posted receives.
  fill_local(pending_local_, /*axis=*/0);
  complete_remote(pending_local_);
  // Later axes run synchronously: their slabs read the axis-0 ghosts just
  // filled, preserving the corner-propagation order of exchange().
  for (int axis = 1; axis < forest_.dims(); ++axis) {
    exchange_axis(pending_local_, axis, pending_tag_);
  }
  pending_local_.clear();
  in_flight_ = false;
  first_round_done_ = true;
}

}  // namespace pfc::grid
