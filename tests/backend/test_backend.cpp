// End-to-end backend tests: C emission, JIT compilation, interpreter, and
// differential agreement between all execution paths.
#include <gtest/gtest.h>

#include <cmath>

#include "pfc/backend/c_emitter.hpp"
#include "pfc/backend/cuda_emitter.hpp"
#include "pfc/backend/interp.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/backend/kernel_runner.hpp"
#include "pfc/ir/passes.hpp"
#include "pfc/fd/discretize.hpp"
#include "pfc/ir/kernel.hpp"
#include "pfc/rng/philox.hpp"

namespace pfc::backend {
namespace {

using sym::Expr;
using sym::num;

struct DiffusionSetup {
  FieldPtr src, dst;
  ir::Kernel kernel;
};

DiffusionSetup make_diffusion_kernel(int dims, bool with_noise = false) {
  static int counter = 0;
  const std::string suffix = std::to_string(counter++);
  auto src = Field::create("u_src" + suffix, dims, 1);
  auto dst = Field::create("u_dst" + suffix, dims, 1);
  fd::PdeUpdate pde;
  pde.name = "diffuse" + suffix;
  pde.src = src;
  pde.dst = dst;
  Expr lap = num(0);
  for (int d = 0; d < dims; ++d) {
    lap = lap + sym::diff_op(sym::diff_op(sym::at(src), d), d);
  }
  Expr rhs = 0.1 * lap;
  if (with_noise) rhs = rhs + 0.01 * sym::random_uniform(0);
  pde.rhs = {rhs};
  fd::DiscretizeOptions o;
  o.dims = dims;
  o.dt = 1.0;
  o.rng_seed = 42;
  ir::BuildOptions bo;
  bo.dims = dims;
  auto sk = fd::discretize(pde, o).kernels[0];
  return {src, dst, ir::build_kernel(sk, bo)};
}

void fill_pattern(Array& a) {
  const auto& n = a.size();
  const int g = a.ghost_layers();
  for (int c = 0; c < a.components(); ++c) {
    for (std::int64_t z = -((n[2] > 1) ? g : 0);
         z < n[2] + ((n[2] > 1) ? g : 0); ++z) {
      for (std::int64_t y = -g; y < n[1] + g; ++y) {
        for (std::int64_t x = -g; x < n[0] + g; ++x) {
          a.at(x, y, z, c) = std::sin(0.3 * double(x)) *
                                 std::cos(0.2 * double(y)) +
                             0.1 * double(z) + 0.05 * c;
        }
      }
    }
  }
}

TEST(CEmitterTest, GeneratesCompilableStructure) {
  auto setup = make_diffusion_kernel(3);
  const std::string src = emit_c(setup.kernel);
  EXPECT_NE(src.find("extern \"C\" void"), std::string::npos);
  EXPECT_NE(src.find("for (long long z"), std::string::npos);
  EXPECT_NE(src.find("__restrict"), std::string::npos);
  EXPECT_NE(src.find("pfc_philox_uniform"), std::string::npos);  // preamble
}

TEST(CEmitterTest, EntryNameSanitized) {
  auto setup = make_diffusion_kernel(3);
  EXPECT_EQ(entry_name(setup.kernel).find('-'), std::string::npos);
}

TEST(JitTest, CompileAndRunDiffusion3D) {
  auto setup = make_diffusion_kernel(3);
  JitLibrary lib = JitLibrary::compile(emit_c(setup.kernel));
  KernelFn fn = lib.get(entry_name(setup.kernel));

  const std::array<long long, 3> n{12, 10, 8};
  Array a_src(setup.src, {n[0], n[1], n[2]}, 1);
  Array a_dst(setup.dst, {n[0], n[1], n[2]}, 1);
  fill_pattern(a_src);

  Binding b;
  b.arrays = {nullptr, nullptr};
  // bind in kernel.fields order
  for (std::size_t i = 0; i < setup.kernel.fields.size(); ++i) {
    b.arrays[i] = setup.kernel.fields[i]->id() == setup.src->id() ? &a_src
                                                                  : &a_dst;
  }
  run_compiled(setup.kernel, fn, b, n, 0.0, 0);

  // verify against a hand-written reference update
  double max_err = 0;
  for (long long z = 0; z < n[2]; ++z) {
    for (long long y = 0; y < n[1]; ++y) {
      for (long long x = 0; x < n[0]; ++x) {
        const double lap = a_src.at(x + 1, y, z) + a_src.at(x - 1, y, z) +
                           a_src.at(x, y + 1, z) + a_src.at(x, y - 1, z) +
                           a_src.at(x, y, z + 1) + a_src.at(x, y, z - 1) -
                           6.0 * a_src.at(x, y, z);
        const double expect = a_src.at(x, y, z) + 0.1 * lap;
        max_err = std::max(max_err, std::abs(a_dst.at(x, y, z) - expect));
      }
    }
  }
  EXPECT_LT(max_err, 1e-13);
}

TEST(JitTest, CompilerErrorSurfaced) {
  EXPECT_THROW(JitLibrary::compile("this is not C++"), Error);
}

TEST(JitTest, MissingSymbolThrows) {
  JitLibrary lib = JitLibrary::compile("extern \"C\" void some_fn() {}\n");
  EXPECT_THROW(lib.get("not_there"), Error);
  EXPECT_NO_THROW(lib.get("some_fn"));
}

class JitVsInterpreter : public ::testing::TestWithParam<int> {};

TEST_P(JitVsInterpreter, AgreeOnDiffusionWithNoise) {
  const int dims = GetParam() % 2 == 0 ? 2 : 3;
  const bool noise = GetParam() >= 2;
  auto setup = make_diffusion_kernel(dims, noise);

  const std::array<long long, 3> n{10, 9, dims == 3 ? 6 : 1};
  Array src_a(setup.src, {n[0], n[1], n[2]}, 1);
  Array dst_jit(setup.dst, {n[0], n[1], n[2]}, 1);
  Array dst_interp(setup.dst, {n[0], n[1], n[2]}, 1);
  fill_pattern(src_a);

  const auto bind = [&](Array& dst) {
    Binding b;
    b.arrays.resize(setup.kernel.fields.size());
    for (std::size_t i = 0; i < setup.kernel.fields.size(); ++i) {
      b.arrays[i] =
          setup.kernel.fields[i]->id() == setup.src->id() ? &src_a : &dst;
    }
    b.block_offset = {100, 200, 300};  // exercise global-coordinate path
    return b;
  };

  JitLibrary lib = JitLibrary::compile(emit_c(setup.kernel));
  run_compiled(setup.kernel, lib.get(entry_name(setup.kernel)),
               bind(dst_jit), n, 0.5, 3);

  InterpreterKernel interp(setup.kernel);
  interp.run(bind(dst_interp), n, 0.5, 3);

  EXPECT_LT(Array::max_abs_diff(dst_jit, dst_interp), 1e-12);
  // with noise the result must change between time steps (Philox keyed on t)
  if (noise) {
    Array dst2(setup.dst, {n[0], n[1], n[2]}, 1);
    interp.run(bind(dst2), n, 0.5, 4);
    EXPECT_GT(Array::max_abs_diff(dst_interp, dst2), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, JitVsInterpreter, ::testing::Range(0, 4));

TEST(JitTest, ThreadedMatchesSerial) {
  auto setup = make_diffusion_kernel(3);
  const std::array<long long, 3> n{16, 16, 16};
  Array src_a(setup.src, {n[0], n[1], n[2]}, 1);
  Array dst_serial(setup.dst, {n[0], n[1], n[2]}, 1);
  Array dst_par(setup.dst, {n[0], n[1], n[2]}, 1);
  fill_pattern(src_a);

  JitLibrary lib = JitLibrary::compile(emit_c(setup.kernel));
  KernelFn fn = lib.get(entry_name(setup.kernel));
  const auto bind = [&](Array& dst) {
    Binding b;
    b.arrays.resize(setup.kernel.fields.size());
    for (std::size_t i = 0; i < setup.kernel.fields.size(); ++i) {
      b.arrays[i] =
          setup.kernel.fields[i]->id() == setup.src->id() ? &src_a : &dst;
    }
    return b;
  };
  run_compiled(setup.kernel, fn, bind(dst_serial), n, 0, 0, nullptr);
  ThreadPool pool(4);
  run_compiled(setup.kernel, fn, bind(dst_par), n, 0, 0, &pool);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(dst_serial, dst_par), 0.0);
}

TEST(BindingTest, ValidationErrors) {
  auto setup = make_diffusion_kernel(3);
  const std::array<long long, 3> n{8, 8, 8};
  Array src_a(setup.src, {8, 8, 8}, 1);
  Array no_ghost(setup.dst, {8, 8, 8}, 0);

  Binding b;
  b.arrays = {&src_a};  // too few
  EXPECT_THROW(marshal(setup.kernel, b, n), Error);

  // wrong field bound
  b.arrays = {&no_ghost, &no_ghost};
  EXPECT_THROW(marshal(setup.kernel, b, n), Error);
}

TEST(BindingTest, PrecomputedRangesKeepEveryLaunchCheck) {
  // Launches that reuse a precomputed read analysis (CompiledKernel, the
  // interpreter) still validate every binding: too few ghost layers and a
  // too-small array throw the same pfc::Error as a fresh analysis.
  auto setup = make_diffusion_kernel(3);
  const ir::Kernel& k = setup.kernel;
  const std::array<long long, 3> n{8, 8, 8};
  const ReadRanges reads = read_offset_ranges(k);
  JitLibrary lib = JitLibrary::compile(emit_c(k));
  const KernelFn fn = lib.get(entry_name(k));
  const InterpreterKernel interp(k);

  const auto message = [](const auto& launch) -> std::string {
    try {
      launch();
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  const auto bind = [&](Array& src, Array& dst) {
    Binding b;
    for (const auto& f : k.fields) {
      b.arrays.push_back(f->id() == setup.src->id() ? &src : &dst);
    }
    return b;
  };

  Array src_ok(setup.src, {8, 8, 8}, 1), dst_ok(setup.dst, {8, 8, 8}, 1);
  Array src_no_ghost(setup.src, {8, 8, 8}, 0);
  Array dst_small(setup.dst, {7, 8, 8}, 1);
  const struct {
    Binding binding;
    const char* expected;
  } cases[] = {{bind(src_no_ghost, dst_ok), "lacks ghost layers"},
               {bind(src_ok, dst_small), "too small for kernel"}};
  for (const auto& c : cases) {
    const std::string fresh = message([&] { marshal(k, c.binding, n); });
    EXPECT_NE(fresh.find(c.expected), std::string::npos) << fresh;
    EXPECT_EQ(message([&] { marshal(k, c.binding, n, &reads); }), fresh);
    EXPECT_EQ(message([&] {
                run_compiled(k, fn, c.binding, n, 0.0, 0, nullptr, nullptr,
                             1, nullptr, nullptr, &reads);
              }),
              fresh);
    EXPECT_EQ(message([&] { interp.run(c.binding, n, 0.0, 0); }), fresh);
  }
}

/// A pure-noise kernel of stream 5 keyed on `seed`, run at `width` through
/// the JIT and through the interpreter: every cell must equal the host
/// generator bit for bit. The x extent gives width 8 peel, vector and
/// remainder cells.
void expect_noise_matches_host(std::uint64_t seed, int width) {
  static int counter = 0;
  const std::string suffix = std::to_string(counter++);
  auto dst = Field::create("seed_dst" + suffix, 3, 1);
  auto src = Field::create("seed_src" + suffix, 3, 1);
  fd::PdeUpdate pde;
  pde.name = "seeded_noise" + suffix;
  pde.src = src;
  pde.dst = dst;
  pde.rhs = {sym::random_uniform(5)};
  fd::DiscretizeOptions o;
  o.dims = 3;
  o.rng_seed = seed;
  auto k = ir::build_kernel(fd::discretize(pde, o).kernels[0]);

  const std::array<long long, 3> n{27, 5, 4};
  Array a_src(src, {n[0], n[1], n[2]}, 1);
  Array a_jit(dst, {n[0], n[1], n[2]}, 1);
  Array a_int(dst, {n[0], n[1], n[2]}, 1);
  const auto bind = [&](Array& d) {
    Binding b;
    b.arrays.resize(k.fields.size());
    for (std::size_t i = 0; i < k.fields.size(); ++i) {
      b.arrays[i] = k.fields[i]->id() == src->id() ? &a_src : &d;
    }
    return b;
  };
  CEmitOptions eo;
  eo.vector_width = width;
  JitLibrary lib = JitLibrary::compile(emit_c(k, eo));
  run_compiled(k, lib.get(entry_name(k)), bind(a_jit), n, 0.0, 17, nullptr,
               nullptr, width);
  InterpreterKernel(k).run(bind(a_int), n, 0.0, 17);

  int jit_diff = 0, interp_diff = 0;
  for (long long z = 0; z < n[2]; ++z) {
    for (long long y = 0; y < n[1]; ++y) {
      for (long long x = 0; x < n[0]; ++x) {
        const double expect = rng::philox_uniform(
            std::uint64_t(x), std::uint64_t(y), std::uint64_t(z), 17, seed,
            5);
        jit_diff += a_jit.at(x, y, z) != expect;
        interp_diff += a_int.at(x, y, z) != expect;
      }
    }
  }
  EXPECT_EQ(jit_diff, 0) << "seed " << seed << " width " << width;
  EXPECT_EQ(interp_diff, 0) << "seed " << seed;
}

TEST(GeneratedRngTest, JitPhiloxMatchesHost) {
  expect_noise_matches_host(1234, 1);
}

// A seed reaches the generated code exactly even where a double cannot
// hold it: above 2^53 (the low bit survives) and with bit 63 set.
TEST(GeneratedRngTest, ExactSeedAbove2Pow53) {
  for (const int width : {1, 8}) {
    expect_noise_matches_host((1ull << 53) + 1, width);
  }
}

TEST(GeneratedRngTest, ExactSeedWithBit63) {
  for (const int width : {1, 8}) {
    expect_noise_matches_host(0xd1b54a32d192ed03ull, width);
  }
}

TEST(CudaEmitterTest, StructureLinear3D) {
  auto setup = make_diffusion_kernel(3);
  const std::string cu = emit_cuda(setup.kernel);
  EXPECT_NE(cu.find("__global__"), std::string::npos);
  EXPECT_NE(cu.find("blockIdx.x"), std::string::npos);
  EXPECT_NE(cu.find("threadIdx.x"), std::string::npos);
  EXPECT_NE(cu.find("if (cx >= n[0]"), std::string::npos);
  EXPECT_EQ(cu.find("for (long long z"), std::string::npos)
      << "linear3d mapping must not contain a z loop";
}

TEST(CudaEmitterTest, SliceMappingLoopsOverZ) {
  auto setup = make_diffusion_kernel(3);
  CudaEmitOptions o;
  o.mapping = ThreadMapping::SliceXY;
  const std::string cu = emit_cuda(setup.kernel, o);
  EXPECT_NE(cu.find("for (long long cz"), std::string::npos);
}

TEST(CudaEmitterTest, FastMathIntrinsics) {
  // build a kernel with a division and an rsqrt
  auto src = Field::create("fm_src", 3, 1);
  auto dst = Field::create("fm_dst", 3, 1);
  fd::PdeUpdate pde;
  pde.name = "fm";
  pde.src = src;
  pde.dst = dst;
  pde.rhs = {sym::rsqrt(sym::at(src) + 2.0) / (sym::at(src) + 3.0)};
  fd::DiscretizeOptions o3;
  o3.dims = 3;
  auto k = ir::build_kernel(fd::discretize(pde, o3).kernels[0]);
  CudaEmitOptions fast;
  fast.fast_math = true;
  const std::string cu = emit_cuda(k, fast);
  EXPECT_NE(cu.find("__frsqrt_rn"), std::string::npos);
  EXPECT_NE(cu.find("fdividef"), std::string::npos);
  const std::string exact = emit_cuda(k);
  EXPECT_EQ(exact.find("__frsqrt_rn"), std::string::npos);
  EXPECT_EQ(exact.find("fdividef"), std::string::npos);
}

TEST(CudaEmitterTest, FencesEmitted) {
  auto setup = make_diffusion_kernel(3);
  ir::insert_thread_fences(setup.kernel, 1);
  const std::string cu = emit_cuda(setup.kernel);
  EXPECT_NE(cu.find("__threadfence();"), std::string::npos);
}

TEST(CudaEmitterTest, LaunchConfig) {
  auto setup = make_diffusion_kernel(3);
  CudaEmitOptions o;
  o.block_dim = {64, 4, 2};
  const std::string cfg = launch_config(setup.kernel, o, {400, 400, 400});
  EXPECT_NE(cfg.find("dim3 block(64, 4, 2)"), std::string::npos);
  EXPECT_NE(cfg.find("grid(7, 100, 200)"), std::string::npos);
}

TEST(FastMathCpuTest, ApproximationErrorBounded) {
  // the C backend's fast variants must agree with exact math to ~1e-6
  auto src = Field::create("ap_src", 2, 1);
  auto dst = Field::create("ap_dst", 2, 1);
  fd::PdeUpdate pde;
  pde.name = "ap";
  pde.src = src;
  pde.dst = dst;
  pde.rhs = {sym::rsqrt(sym::at(src) + 2.0) + sym::sqrt_(sym::at(src) + 3.0)};
  fd::DiscretizeOptions o2;
  o2.dims = 2;
  ir::BuildOptions bo;
  bo.dims = 2;
  auto k = ir::build_kernel(fd::discretize(pde, o2).kernels[0], bo);

  const std::array<long long, 3> n{16, 8, 1};
  Array a_src(src, {n[0], n[1], 1}, 1);
  Array d_exact(dst, {n[0], n[1], 1}, 1);
  Array d_fast(dst, {n[0], n[1], 1}, 1);
  fill_pattern(a_src);
  const auto bind = [&](Array& d) {
    Binding b;
    b.arrays.resize(k.fields.size());
    for (std::size_t i = 0; i < k.fields.size(); ++i) {
      b.arrays[i] = k.fields[i]->id() == src->id() ? &a_src : &d;
    }
    return b;
  };
  CEmitOptions fast;
  fast.fast_math = true;
  JitLibrary exact_lib = JitLibrary::compile(emit_c(k));
  JitLibrary fast_lib = JitLibrary::compile(emit_c(k, fast));
  run_compiled(k, exact_lib.get(entry_name(k)), bind(d_exact), n, 0, 0);
  run_compiled(k, fast_lib.get(entry_name(k)), bind(d_fast), n, 0, 0);
  const double err = Array::max_abs_diff(d_exact, d_fast);
  EXPECT_GT(err, 0.0) << "fast path should differ in the last bits";
  EXPECT_LT(err, 1e-5);
}

}  // namespace
}  // namespace pfc::backend
