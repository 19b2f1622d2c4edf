#include "pfc/backend/kernel_runner.hpp"

#include <algorithm>
#include <unordered_map>

#include "pfc/support/assert.hpp"

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

void run_compiled(const ir::Kernel& k, KernelFn fn, const Binding& b,
                  const std::array<long long, 3>& n, double t,
                  long long t_step, ThreadPool* pool,
                  obs::TraceRecorder* tracer, int vector_width,
                  const CellRange* range, const SlabPlan* plan,
                  const ReadRanges* reads) {
  const RawArgs raw = marshal(k, b, n, reads);
  const CellRange box = range != nullptr ? *range : full_range(k, n);
  if (box.cells() == 0) return;
  const int outer = k.dims - 1;

  const auto launch = [&](long long lo, long long hi) {
    obs::TraceSpan span(tracer, k.name.c_str(), "slab", t_step, 0);
    std::array<long long, 3> slab_lo = box.lo;
    std::array<long long, 3> slab_hi = box.hi;
    slab_lo[std::size_t(outer)] = lo;
    slab_hi[std::size_t(outer)] = hi;
    fn(raw.fields.data(), raw.strides.data(), raw.n.data(),
       raw.block_off.data(), slab_lo.data(), slab_hi.data(), t, t_step,
       b.params.data());
  };

  const long long outer_lo = box.lo[std::size_t(outer)];
  const long long outer_hi = box.hi[std::size_t(outer)];
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
  const long long align =
      (k.dims == 1 && vector_width > 1) ? vector_width : 1;
  pool->parallel_for(outer_lo, outer_hi, launch, align);
}

}  // namespace pfc::backend
