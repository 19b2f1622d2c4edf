// Ghost-layer synchronization across blocks (paper §4.3).
//
// The exchange is axis-sequential (x, then y, then z); each sweep includes
// the ghost cells already filled by earlier sweeps, so edge and corner
// ghosts propagate without diagonal messages — the standard trick also used
// by waLBerla. Local neighbour pairs are copied directly; remote pairs are
// packed into contiguous buffers and sent via pfc::mpi (the paper's pack →
// single asynchronous message design).
//
// Two entry points share the same sweeps:
//   - exchange(): the fully synchronous round (pack, send, recv, unpack per
//     axis with a barrier between axes — the seed behaviour).
//   - begin()/finish(): the communication-hiding split. begin() packs and
//     posts the axis-0 messages to remote ranks (nonblocking) and returns
//     immediately, so only the edge cells those messages carry must be
//     final before it; finish() does the axis-0 local copies and boundary
//     fills, completes the axis-0 receives and runs the remaining axes in
//     corner-propagating order.
// Pack buffers of remote faces are pre-sized from the forest topology in
// the constructor and reused across rounds: steady-state rounds perform no
// allocation.
#pragma once

#include "pfc/grid/blockforest.hpp"
#include "pfc/mpi/simmpi.hpp"

namespace pfc::grid {

/// One rank's view: its blocks and their storage for one field.
struct LocalBlockField {
  const Block* block = nullptr;
  Array* array = nullptr;
};

class GhostExchange {
 public:
  /// `comm` may be nullptr for single-rank (serial multi-block) operation.
  /// The buffers of remote faces are pre-sized for fields of up to
  /// `max_components` components with up to `max_ghost_layers` ghost
  /// layers; a first round with larger fields still works (one-time
  /// growth), after which capacity is frozen and asserted.
  GhostExchange(const BlockForest& forest, mpi::Comm* comm,
                int max_components = 1, int max_ghost_layers = 1);

  /// Synchronizes all ghost layers of the given local arrays (one entry per
  /// local block). `field_tag` disambiguates concurrent exchanges of
  /// different fields. Non-periodic domain boundaries are filled with
  /// zero-gradient values.
  void exchange(const std::vector<LocalBlockField>& local, int field_tag);

  /// Overlap half 1: packs and posts the axis-0 sends to remote ranks
  /// (buffered, so the pack buffers are immediately reusable), registers
  /// the matching nonblocking receives, then returns. It reads only the
  /// g-thick x edges of blocks with a remote x neighbour; everything else
  /// may still be computed until finish(). No ghost cell is written. The
  /// whole round's remote byte volume is credited here (slab volumes are
  /// known from topology), so last_bytes_sent() is correct mid-overlap.
  /// Exactly one exchange per GhostExchange may be in flight.
  void begin(const std::vector<LocalBlockField>& local, int field_tag);

  /// Overlap half 2: performs the axis-0 local copies and boundary fills,
  /// waits for the axis-0 receives and unpacks them, then runs the
  /// remaining axes (whose slabs include the freshly filled axis-0 ghosts —
  /// the corner-propagation order of exchange()).
  void finish();

  bool in_flight() const { return in_flight_; }

  /// Bytes sent to remote ranks during the last exchange (communication
  /// volume accounting for the network model).
  std::size_t last_bytes_sent() const { return bytes_sent_; }

  /// Cumulative remote bytes / exchange rounds since construction (feeds
  /// the driver's observability registry).
  std::size_t total_bytes_sent() const { return total_bytes_sent_; }
  std::size_t rounds() const { return rounds_; }

 private:
  /// One posted receive, completed by complete_remote(): the ghost slab of
  /// `local[slot]` on `side` of `axis`.
  struct Pending {
    int slot = 0;
    int axis = 0;
    int side = 0;
  };

  /// Packs and sends the `axis` edge slabs of blocks with a remote
  /// neighbour and registers the matching receives in pending_.
  void post_remote(const std::vector<LocalBlockField>& local, int axis,
                   int field_tag);
  /// Fills the `axis` ghosts that need no message: copies from local
  /// neighbour blocks and zero-gradient fills at domain boundaries.
  void fill_local(const std::vector<LocalBlockField>& local, int axis);
  /// Waits for the receives in pending_ and unpacks them into the ghosts.
  void complete_remote(const std::vector<LocalBlockField>& local);
  /// One synchronous axis sweep: post, local fill, complete.
  void exchange_axis(const std::vector<LocalBlockField>& local, int axis,
                     int field_tag);
  /// Remote bytes of one full round (all axes), from the slab geometry.
  std::size_t round_bytes(const std::vector<LocalBlockField>& local) const;

  /// The persistent buffer for (local slot, axis, side, send|recv), checked
  /// against the frozen capacity.
  std::vector<double>& buffer(int slot, int axis, int side, bool send,
                              std::size_t needed_doubles);

  const BlockForest& forest_;
  mpi::Comm* comm_;
  int num_slots_ = 0;
  std::vector<std::vector<double>> bufs_;  // (slot,axis,side,dir) flattened
  std::vector<double> scratch_;            // local-copy staging

  // in-flight round state (begin .. finish); pending_/pending_reqs_ hold
  // the posted receives of the axis in progress on either path
  std::vector<LocalBlockField> pending_local_;
  std::vector<Pending> pending_;
  std::vector<mpi::Comm::Request> pending_reqs_;
  int pending_tag_ = 0;
  bool in_flight_ = false;

  std::size_t bytes_sent_ = 0;
  std::size_t total_bytes_sent_ = 0;
  std::size_t rounds_ = 0;
};

}  // namespace pfc::grid
