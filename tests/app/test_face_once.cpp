// Face-once kernels (DESIGN.md §5d) against the explicit split pair. A
// full kernel whose split form divides less runs that form tile by tile in
// a per-thread window: every face value comes from the same pass code as
// the split pair's whole-block flux array, so the two agree bit for bit in
// each tier, at every tile height, on every sub-box decomposition the
// drivers use, on any number of threads and with either dispatch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "pfc/app/compiler.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/backend/kernel_runner.hpp"
#include "pfc/ir/opcount.hpp"

namespace pfc::app {
namespace {

using backend::CellRange;

enum class Tier { Vector8, Scalar, Interpreter };

const char* tier_name(Tier t) {
  return t == Tier::Vector8 ? "jit width 8"
         : t == Tier::Scalar ? "jit width 1"
                             : "interpreter";
}

/// compile()'s kernels, or (split) the explicit split pair of each PDE.
CompiledModel compile_at(const GrandChemModel& model, Tier tier, bool split) {
  CompileOptions o;
  o.backend = tier == Tier::Interpreter ? Backend::Interpreter : Backend::Jit;
  o.vector_width = tier == Tier::Vector8 ? 8 : 1;
  const ModelCompiler mc(o);
  if (!split) return mc.compile(model);
  fd::DiscretizeOptions d = ModelCompiler::discretization(model.params(), 0, o);
  d.split_staggered = true;
  return mc.compile_updates({model.phi_update(), model.mu_update()}, d);
}

/// The φ/µ arrays of one block, src and dst filled with a smooth pattern
/// (ghosts included) that keeps every gradient away from zero.
struct Block {
  Array phi_src, phi_dst, mu_src, mu_dst;

  Block(const GrandChemModel& m, const std::array<long long, 3>& n)
      : phi_src(m.phi_src(), {n[0], n[1], n[2]}, 1),
        phi_dst(m.phi_dst(), {n[0], n[1], n[2]}, 1),
        mu_src(m.mu_src(), {n[0], n[1], n[2]}, 1),
        mu_dst(m.mu_dst(), {n[0], n[1], n[2]}, 1) {
    int seed = 0;
    for (Array* a : {&phi_src, &phi_dst, &mu_src, &mu_dst}) {
      const auto& s = a->size();
      const int g = a->ghost_layers();
      const long long gz = s[2] > 1 ? g : 0;
      for (int c = 0; c < a->components(); ++c, ++seed) {
        for (long long z = -gz; z < s[2] + gz; ++z) {
          for (long long y = -g; y < s[1] + g; ++y) {
            for (long long x = -g; x < s[0] + g; ++x) {
              a->at(x, y, z, c) =
                  0.5 + 0.3 * std::sin(0.7 * x + 0.3 * seed) *
                            std::cos(0.5 * y - 0.2 * seed) +
                  0.1 * std::sin(0.9 * z + seed);
            }
          }
        }
      }
    }
  }

  Array* of(const FieldPtr& f) {
    for (Array* a : {&phi_src, &phi_dst, &mu_src, &mu_dst}) {
      if (a->field()->id() == f->id()) return a;
    }
    return nullptr;
  }
};

/// Binds `k` to the block's φ/µ arrays and, for the split pair, `flux`.
backend::Binding bind(const ir::Kernel& k, Block& b, Array* flux) {
  backend::Binding out;
  out.block_offset = {40, 50, 0};  // noise counters use global coordinates
  for (const auto& f : k.fields) {
    Array* a = b.of(f);
    if (a == nullptr && flux != nullptr && flux->field()->id() == f->id()) {
      a = flux;
    }
    EXPECT_NE(a, nullptr) << k.name << " needs field " << f->name();
    out.arrays.push_back(a);
  }
  return out;
}

std::vector<double> interior(const Array& a) {
  std::vector<double> v(std::size_t(a.interior_count()));
  a.copy_interior_out(v.data());
  return v;
}

/// The box decompositions the drivers sweep: the whole box; an 8-wide x
/// frontier slab and its interior (the overlap step's remote-x peel);
/// width-1 onion slabs, outermost dim first, and their interior.
std::vector<std::vector<CellRange>> decompositions(const CellRange& full,
                                                   int dims) {
  std::vector<std::vector<CellRange>> out{{full}};
  CellRange slab = full, rest = full;
  slab.hi[0] = full.lo[0] + 8;
  rest.lo[0] = slab.hi[0];
  out.push_back({slab, rest});
  std::vector<CellRange> onion;
  CellRange inner = full;
  for (int d = dims - 1; d >= 0; --d) {
    const auto dd = std::size_t(d);
    CellRange lo = inner, hi = inner;
    lo.hi[dd] = inner.lo[dd] + 1;
    hi.lo[dd] = inner.hi[dd] - 1;
    onion.push_back(lo);
    onion.push_back(hi);
    inner.lo[dd] += 1;
    inner.hi[dd] -= 1;
  }
  onion.push_back(inner);
  out.push_back(onion);
  return out;
}

/// The face-once kernel of `fo` for φ (mu = false) or µ must equal the
/// split pair of `split` on every decomposition, tile height, thread count
/// and dispatch.
void expect_split_bits(const GrandChemModel& model, const CompiledModel& fo,
                       const CompiledModel& split, bool mu,
                       const std::array<long long, 3>& n,
                       const std::string& label) {
  const CompiledKernel& k = (mu ? fo.mu_kernels : fo.phi_kernels).front();
  ASSERT_FALSE(k.face_once().empty()) << label;
  const auto& pair = mu ? split.mu_kernels : split.phi_kernels;
  ASSERT_GE(pair.size(), 2u) << label;
  // the staggered kernels write the flux field, and nothing else
  const FieldPtr flux_field = pair.front().ir.writes.front();
  const int dims = model.params().dims;

  Block blk(model, n);
  Array& dst = mu ? blk.mu_dst : blk.phi_dst;
  std::array<std::int64_t, 3> fs{1, 1, 1};
  for (int d = 0; d < dims; ++d) fs[std::size_t(d)] = n[std::size_t(d)] + 1;
  Array flux(flux_field, fs, 0);
  for (const CompiledKernel& ck : pair) {
    ck.run(bind(ck.ir, blk, &flux), n, 0.5, 7);
  }
  const std::vector<double> ref = interior(dst);

  ThreadPool pool(3);
  const long long rows = n[std::size_t(dims - 1)];
  const SlabPlan plan = SlabPlan::make(0, rows, 3, 1);
  const backend::Binding b = bind(k.ir, blk, nullptr);
  const auto boxes = decompositions(backend::full_range(k.ir, n), dims);
  for (std::size_t di = 0; di < boxes.size(); ++di) {
    for (const long long tile : {1LL, 2LL, 3LL, rows}) {
      for (int threads : {1, 3}) {
        for (bool dynamic : {false, true}) {
          if (threads == 1 && dynamic) continue;
          dst.fill(std::numeric_limits<double>::quiet_NaN());
          for (const CellRange& box : boxes[di]) {
            k.run(b, n, 0.5, 7, threads == 3 ? &pool : nullptr, nullptr,
                  &box, dynamic ? nullptr : &plan, tile);
          }
          const std::vector<double> got = interior(dst);
          ASSERT_EQ(got.size(), ref.size());
          std::size_t differ = 0;
          for (std::size_t i = 0; i < ref.size(); ++i) {
            differ += std::memcmp(&got[i], &ref[i], sizeof(double)) != 0;
          }
          EXPECT_EQ(differ, 0u)
              << label << ", decomposition " << di << ", T = " << tile
              << ", " << threads << " thread(s), "
              << (dynamic ? "dynamic" : "static");
        }
      }
    }
  }
}

TEST(FaceOnce, EqualsSplitPairBitwise) {
  GrandChemParams p1 = make_p1(3);
  GrandChemParams p2 = make_p2(2);
  ASSERT_GT(p2.noise_amplitude, 0.0) << "P2 must carry Philox noise";
  const GrandChemModel m1(p1), m2(p2);
  for (Tier tier : {Tier::Vector8, Tier::Scalar, Tier::Interpreter}) {
    const CompiledModel fo1 = compile_at(m1, tier, false);
    const CompiledModel sp1 = compile_at(m1, tier, true);
    expect_split_bits(m1, fo1, sp1, true, {20, 9, 10},
                      std::string("P1 3-D mu, ") + tier_name(tier));
    const CompiledModel fo2 = compile_at(m2, tier, false);
    const CompiledModel sp2 = compile_at(m2, tier, true);
    expect_split_bits(m2, fo2, sp2, false, {21, 17, 1},
                      std::string("P2 2-D phi, ") + tier_name(tier));
    expect_split_bits(m2, fo2, sp2, true, {21, 17, 1},
                      std::string("P2 2-D mu, ") + tier_name(tier));
  }
}

long dividers(const ir::Kernel& k) {
  const ir::OpCounts c = ir::count_ops(k);
  return c.sqrts + c.divs + 2 * c.rsqrts;
}

TEST(FaceOnce, TakenWhereThePassesDivideLess) {
  // Per kernel: the recompute form's per-cell dividers (sqrt + div +
  // 2 rsqrt) and the passes' sum. P1 φ's split form divides as often as
  // its recompute form, so it keeps recomputing.
  struct Row {
    const char* label;
    bool p2, mu;
    int dims;
    long full, passes;  // passes = -1: no plan
  };
  const Row rows[] = {{"P1 mu 3-D", false, true, 3, 37, 19},
                      {"P2 mu 2-D", true, true, 2, 17, 9},
                      {"P2 phi 2-D", true, false, 2, 13, 9},
                      {"P1 phi 3-D", false, false, 3, 3, -1}};
  for (const Row& r : rows) {
    const GrandChemModel m(r.p2 ? make_p2(r.dims) : make_p1(r.dims));
    CompileOptions o;
    o.backend = Backend::Interpreter;
    const CompiledModel cm = ModelCompiler(o).compile(m);
    const CompiledKernel& k = (r.mu ? cm.mu_kernels : cm.phi_kernels).front();
    EXPECT_EQ(k.ir.name, r.mu ? "mu-full" : "phi-full") << r.label;
    EXPECT_EQ(dividers(k.ir), r.full) << r.label;
    if (r.passes < 0) {
      EXPECT_TRUE(k.face_once().empty()) << r.label;
      continue;
    }
    ASSERT_FALSE(k.face_once().empty()) << r.label;
    long sum = 0;
    for (const ir::Kernel& pass : k.face_once().passes) sum += dividers(pass);
    EXPECT_EQ(sum, r.passes) << r.label;
    EXPECT_EQ(k.face_once().passes.size(), std::size_t(r.dims + 1))
        << r.label << ": one face pass per axis, then the cell pass";
  }
}

TEST(FaceOnce, SimulationKernelsBindOnlyPhiAndMu) {
  // The kernels a Simulation compiled keep the full kernels' contract: a
  // binding of the φ/µ src and dst arrays runs each of them, whether it
  // recomputes or runs face-once (perfbench's per-kernel probes bind
  // exactly these arrays).
  for (const bool p2 : {false, true}) {
    const GrandChemParams p = p2 ? make_p2(2) : make_p1(3);
    const GrandChemModel model(p);
    SimulationOptions o;
    o.cells = p2 ? std::array<long long, 3>{24, 16, 1}
                 : std::array<long long, 3>{16, 8, 8};
    o.compile.backend = Backend::Interpreter;
    const Simulation sim(model, o);
    const CompiledModel& cm = sim.compiled();
    int face_once = 0;
    for (const auto* group : {&cm.phi_kernels, &cm.mu_kernels}) {
      for (const CompiledKernel& k : *group) {
        Block blk(model, o.cells);
        backend::Binding b;
        for (const auto& f : k.ir.fields) {
          Array* a = blk.of(f);
          ASSERT_NE(a, nullptr) << k.ir.name << " needs " << f->name();
          b.arrays.push_back(a);
        }
        EXPECT_NO_THROW(k.run(b, o.cells, 0.0, 0)) << k.ir.name;
        face_once += !k.face_once().empty();
      }
    }
    EXPECT_EQ(face_once, p2 ? 2 : 1);
  }
}

}  // namespace
}  // namespace pfc::app
