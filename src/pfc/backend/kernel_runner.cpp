#include "pfc/backend/kernel_runner.hpp"

#include <algorithm>
#include <unordered_map>

#include "pfc/support/assert.hpp"
#include "pfc/support/topology.hpp"

namespace pfc::backend {

ReadRanges read_offset_ranges(const ir::Kernel& k) {
  ReadRanges ranges;
  for (const auto& sa : k.body) {
    for (const auto& fr : sym::field_refs(sa.assign.rhs)) {
      auto& r = ranges[fr->field()->id()];
      for (int d = 0; d < 3; ++d) {
        r.lo[std::size_t(d)] =
            std::min(r.lo[std::size_t(d)], fr->offset()[std::size_t(d)]);
        r.hi[std::size_t(d)] =
            std::max(r.hi[std::size_t(d)], fr->offset()[std::size_t(d)]);
      }
    }
  }
  return ranges;
}

CellRange full_range(const ir::Kernel& k, const std::array<long long, 3>& n) {
  CellRange r;
  for (int d = 0; d < k.dims; ++d) {
    r.lo[std::size_t(d)] = 0;
    r.hi[std::size_t(d)] =
        n[std::size_t(d)] + k.extent_plus[std::size_t(d)];
  }
  return r;
}

RawArgs marshal(const ir::Kernel& k, const Binding& b,
                const std::array<long long, 3>& n, const ReadRanges* reads) {
  PFC_REQUIRE(b.arrays.size() == k.fields.size(),
              "binding has wrong number of arrays for kernel " + k.name);
  PFC_REQUIRE(b.params.size() == k.scalar_params.size(),
              "binding has wrong number of scalar params for " + k.name);

  // exact per-field, per-dim signed offset ranges of all reads
  ReadRanges analyzed;
  if (reads == nullptr) {
    analyzed = read_offset_ranges(k);
    reads = &analyzed;
  }
  RawArgs raw;
  raw.n = n;
  raw.block_off = b.block_offset;
  raw.fields.reserve(k.fields.size());
  raw.strides.reserve(4 * k.fields.size());

  for (std::size_t i = 0; i < k.fields.size(); ++i) {
    Array* a = b.arrays[i];
    PFC_REQUIRE(a != nullptr, "null array bound to kernel " + k.name);
    PFC_REQUIRE(a->field()->id() == k.fields[i]->id(),
                "array/field mismatch at position " + std::to_string(i) +
                    " of kernel " + k.name + ": expected " +
                    k.fields[i]->name() + ", got " + a->field()->name());
    bool written = false;
    for (const auto& w : k.writes) {
      written = written || w->id() == a->field()->id();
    }
    const auto range_it = reads->find(a->field()->id());
    for (int d = 0; d < k.dims; ++d) {
      const long long iter = n[std::size_t(d)] +
                             k.extent_plus[std::size_t(d)];
      if (written) {
        // stores land at offset 0 of every iteration cell
        PFC_REQUIRE(a->size()[std::size_t(d)] >= iter,
                    "array " + a->field()->name() +
                        " too small for kernel " + k.name);
      }
      if (range_it != reads->end()) {
        // reads must be covered by interior + ghosts of the iteration box
        const auto& r = range_it->second;
        PFC_REQUIRE(a->ghost_layers() >= -r.lo[std::size_t(d)],
                    "array " + a->field()->name() +
                        " lacks ghost layers for kernel " + k.name);
        PFC_REQUIRE(a->size()[std::size_t(d)] + a->ghost_layers() >=
                        iter + r.hi[std::size_t(d)],
                    "array " + a->field()->name() +
                        " does not cover the iteration box of " + k.name);
      }
    }
    raw.fields.push_back(a->origin(0));
    raw.strides.push_back(a->stride(0));
    raw.strides.push_back(a->stride(1));
    raw.strides.push_back(a->stride(2));
    raw.strides.push_back(a->component_stride());
  }
  return raw;
}

void for_each_slab(const CellRange& box, int dims, ThreadPool* pool,
                   const SlabPlan* plan, long long align,
                   const std::function<void(long long, long long)>& launch) {
  const auto outer = std::size_t(dims - 1);
  const long long outer_lo = box.lo[outer];
  const long long outer_hi = box.hi[outer];
  if (pool == nullptr || pool->num_threads() == 1 ||
      outer_hi - outer_lo < 2) {
    launch(outer_lo, outer_hi);
    return;
  }
  if (plan != nullptr) {
    pool->run_on_all([&](int w) {
      const auto [lo, hi] = plan->slab(w, outer_lo, outer_hi);
      if (lo < hi) launch(lo, hi);
    });
    return;
  }
  pool->parallel_for(outer_lo, outer_hi, launch, align);
}

void run_compiled(const ir::Kernel& k, KernelFn fn, const Binding& b,
                  const std::array<long long, 3>& n, double t,
                  long long t_step, ThreadPool* pool,
                  obs::TraceRecorder* tracer, int vector_width,
                  const CellRange* range, const SlabPlan* plan,
                  const ReadRanges* reads) {
  const RawArgs raw = marshal(k, b, n, reads);
  const CellRange box = range != nullptr ? *range : full_range(k, n);
  if (box.cells() == 0) return;
  const auto outer = std::size_t(k.dims - 1);
  const long long align =
      (k.dims == 1 && vector_width > 1) ? vector_width : 1;
  for_each_slab(box, k.dims, pool, plan, align, [&](long long lo,
                                                    long long hi) {
    obs::TraceSpan span(tracer, k.name.c_str(), "slab", t_step, 0);
    std::array<long long, 3> slab_lo = box.lo;
    std::array<long long, 3> slab_hi = box.hi;
    slab_lo[outer] = lo;
    slab_hi[outer] = hi;
    fn(raw.fields.data(), raw.strides.data(), raw.n.data(),
       raw.block_off.data(), slab_lo.data(), slab_hi.data(), t, t_step,
       b.params.data());
  });
}

FaceOnce make_face_once(const ir::Kernel& full, std::vector<ir::Kernel> split,
                        const FieldPtr& flux) {
  if (full.dims < 2 || full.extent_plus != std::array<int, 3>{0, 0, 0} ||
      split.size() < 2 || flux == nullptr) {
    return {};
  }
  const auto position = [&](const FieldPtr& f) {
    if (f->id() == flux->id()) return -1;
    for (std::size_t i = 0; i < full.fields.size(); ++i) {
      if (full.fields[i]->id() == f->id()) return int(i);
    }
    return -2;
  };
  FaceOnce fo;
  for (std::size_t i = 0; i < split.size(); ++i) {
    const ir::Kernel& k = split[i];
    const bool cell = i + 1 == split.size();
    int axis = -1;
    for (int d = 0; d < 3; ++d) {
      const int e = k.extent_plus[std::size_t(d)];
      if (e == 1 && !cell && axis < 0) {
        axis = d;
      } else if (e != 0) {
        return {};
      }
    }
    if (k.dims != full.dims || (!cell && axis < 0)) return {};
    std::vector<int> fields;
    for (const auto& f : k.fields) {
      fields.push_back(position(f));
      if (fields.back() == -2) return {};
    }
    std::vector<int> params;
    for (const auto& p : k.scalar_params) {
      const auto it = std::find_if(
          full.scalar_params.begin(), full.scalar_params.end(),
          [&](const sym::Expr& q) { return sym::equals(p, q); });
      if (it == full.scalar_params.end()) return {};
      params.push_back(int(it - full.scalar_params.begin()));
    }
    fo.axis.push_back(axis);
    fo.fields.push_back(std::move(fields));
    fo.params.push_back(std::move(params));
  }
  fo.passes = std::move(split);
  fo.flux_components = flux->components();
  return fo;
}

namespace {

/// `p` moved by `d` doubles. A window base points outside the window's
/// storage; a pass adds back the offset of every face it touches.
double* moved(double* p, long long d) {
  return reinterpret_cast<double*>(reinterpret_cast<std::uintptr_t>(p) +
                                   std::uintptr_t(d) * sizeof(double));
}

/// The executing thread's window storage, 64-byte aligned like a
/// pfc::Array line. It only grows, and lives as long as the thread.
double* thread_window(std::size_t doubles) {
  thread_local std::vector<double> store;
  if (store.size() < doubles + 8) store.resize(doubles + 8);
  const auto misalign = reinterpret_cast<std::uintptr_t>(store.data()) % 64;
  return store.data() + (misalign == 0 ? 0 : (64 - misalign) / 8);
}

}  // namespace

void run_face_once(const ir::Kernel& full, const FaceOnce& fo,
                   const PassFn& pass, const Binding& b,
                   const std::array<long long, 3>& n, long long t_step,
                   ThreadPool* pool, obs::TraceRecorder* tracer,
                   const CellRange* range, const SlabPlan* plan,
                   const ReadRanges* reads, long long tile_rows) {
  const RawArgs raw = marshal(full, b, n, reads);
  const CellRange box = range != nullptr ? *range : full_range(full, n);
  if (box.cells() == 0) return;
  const int dims = full.dims;
  const auto outer = std::size_t(dims - 1);
  // One outer row of the window: every flux component over the box's x
  // faces (from the vector boundary at or below box.lo[0], so the window
  // shares the block arrays' alignment) and, in 3-D, its y faces.
  const long long x0 = box.lo[0] - box.lo[0] % 8;
  const long long line = (box.hi[0] + 1 - x0 + 7) / 8 * 8;
  const long long plane =
      dims == 3 ? line * (box.hi[1] + 1 - box.lo[1]) : line;
  const long long row = plane * fo.flux_components;
  if (tile_rows <= 0) {
    static const long long l2 = support::Topology::detect().l2_bytes;
    tile_rows = std::max(1LL, l2 / 2 / (row * 8) - 1);
  }

  const std::size_t np = fo.passes.size();
  std::vector<std::vector<double>> params(np);
  for (std::size_t i = 0; i < np; ++i) {
    for (const int p : fo.params[i]) {
      params[i].push_back(b.params[std::size_t(p)]);
    }
  }

  for_each_slab(box, dims, pool, plan, 1, [&](long long lo, long long hi) {
    obs::TraceSpan span(tracer, full.name.c_str(), "slab", t_step, 0);
    const long long T = std::min(tile_rows, hi - lo);
    double* const window = thread_window(std::size_t((T + 1) * row));
    // Per pass: its raw arguments, and which of its fields is the window.
    std::vector<RawArgs> args(np);
    constexpr std::size_t kNoWindow = std::size_t(-1);
    std::vector<std::size_t> slot(np, kNoWindow);
    for (std::size_t i = 0; i < np; ++i) {
      args[i].n = raw.n;
      args[i].block_off = raw.block_off;
      for (const int p : fo.fields[i]) {
        if (p < 0) {
          slot[i] = args[i].fields.size();
          args[i].fields.push_back(nullptr);
          args[i].strides.insert(args[i].strides.end(),
                                 {1, dims == 3 ? line : 0, 0, plane});
          continue;
        }
        args[i].fields.push_back(raw.fields[std::size_t(p)]);
        for (int s = 0; s < 4; ++s) {
          args[i].strides.push_back(raw.strides[std::size_t(4 * p + s)]);
        }
      }
    }
    for (long long a = lo, tile = 0; a < hi; a += T, ++tile) {
      const long long e = std::min(hi, a + T);
      // Even tiles put row a at the window's first row and walk up, odd
      // tiles at row T and walk down: the previous tile's top face row,
      // row a, is where it left it.
      const long long step = tile % 2 == 0 ? row : -row;
      const long long first = tile % 2 == 0 ? 0 : T * row;
      const long long base =
          first - a * step - x0 - (dims == 3 ? box.lo[1] * line : 0);
      for (std::size_t i = 0; i < np; ++i) {
        if (slot[i] != kNoWindow) {
          args[i].fields[slot[i]] = moved(window, base);
          args[i].strides[4 * slot[i] + outer] = step;
        }
        CellRange r = box;
        r.lo[outer] = a;
        r.hi[outer] = e;
        const int d = fo.axis[i];
        if (d == int(outer)) {
          r.lo[outer] = tile == 0 ? a : a + 1;
          r.hi[outer] = e + 1;
        } else if (d >= 0) {
          r.hi[std::size_t(d)] += 1;
        }
        pass(i, args[i], params[i].data(), r);
      }
    }
  });
}

}  // namespace pfc::backend
