#include "pfc/backend/interp.hpp"

#include <cmath>
#include <unordered_map>

#include "pfc/rng/philox.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::backend {

using sym::Expr;
using sym::Kind;

struct InterpreterKernel::CompileCtx {
  std::unordered_map<std::string, int> temp_reg;  // temp symbol -> register
  std::unordered_map<std::string, int> param_index;
};

namespace {

int seg_of(ir::Level l) {
  switch (l) {
    case ir::Level::Invariant: return 0;
    case ir::Level::PerZ: return 1;
    case ir::Level::PerY: return 2;
    case ir::Level::Body: return 3;
  }
  return 3;
}

}  // namespace

InterpreterKernel::InterpreterKernel(const ir::Kernel& k)
    : kernel_(k), reads_(read_offset_ranges(k)) {
  CompileCtx ctx;
  for (std::size_t i = 0; i < k.scalar_params.size(); ++i) {
    ctx.param_index[k.scalar_params[i]->name()] = static_cast<int>(i);
  }
  for (const auto& sa : kernel_.body) {
    auto& seg = segs_[std::size_t(seg_of(sa.level))];
    const int r = compile_expr(sa.assign.rhs, seg, ctx);
    if (sa.assign.lhs->kind() == Kind::Symbol) {
      ctx.temp_reg[sa.assign.lhs->name()] = r;
    } else {
      PFC_ASSERT(sa.assign.lhs->kind() == Kind::FieldRef);
      Instr st;
      st.op = Op::Store;
      st.a = r;
      const auto& fr = sa.assign.lhs;
      st.field = -1;
      for (std::size_t i = 0; i < kernel_.fields.size(); ++i) {
        if (kernel_.fields[i]->id() == fr->field()->id()) {
          st.field = static_cast<int>(i);
          break;
        }
      }
      PFC_ASSERT(st.field >= 0);
      st.off = fr->offset();
      st.component = fr->component();
      seg.push_back(st);
    }
  }
}

int InterpreterKernel::compile_expr(const Expr& e, std::vector<Instr>& seg,
                                    CompileCtx& ctx) {
  const auto fresh = [&] { return num_regs_++; };
  const auto emit = [&](Instr in) {
    seg.push_back(in);
    return in.dst;
  };

  switch (e->kind()) {
    case Kind::Number: {
      Instr in;
      in.op = Op::Const;
      in.dst = fresh();
      in.imm = e->number();
      return emit(in);
    }
    case Kind::Symbol: {
      switch (e->builtin()) {
        case sym::Builtin::Coord0:
        case sym::Builtin::Coord1:
        case sym::Builtin::Coord2: {
          Instr in;
          in.op = Op::Coord;
          in.dst = fresh();
          in.pow_n = e->builtin() == sym::Builtin::Coord0   ? 0
                     : e->builtin() == sym::Builtin::Coord1 ? 1
                                                            : 2;
          return emit(in);
        }
        case sym::Builtin::Time: {
          Instr in;
          in.op = Op::Time;
          in.dst = fresh();
          return emit(in);
        }
        case sym::Builtin::TimeStep: {
          Instr in;
          in.op = Op::TimeStep;
          in.dst = fresh();
          return emit(in);
        }
        case sym::Builtin::None: break;
      }
      auto t = ctx.temp_reg.find(e->name());
      if (t != ctx.temp_reg.end()) return t->second;
      auto p = ctx.param_index.find(e->name());
      PFC_REQUIRE(p != ctx.param_index.end(),
                  "interpreter: unbound symbol " + e->name());
      Instr in;
      in.op = Op::Param;
      in.dst = fresh();
      in.pow_n = p->second;
      return emit(in);
    }
    case Kind::FieldRef: {
      Instr in;
      in.op = Op::Load;
      in.dst = fresh();
      in.field = -1;
      for (std::size_t i = 0; i < kernel_.fields.size(); ++i) {
        if (kernel_.fields[i]->id() == e->field()->id()) {
          in.field = static_cast<int>(i);
          break;
        }
      }
      PFC_REQUIRE(in.field >= 0, "interpreter: unknown field " +
                                     e->field()->name());
      in.off = e->offset();
      in.component = e->component();
      return emit(in);
    }
    case Kind::Random:
      PFC_REQUIRE(false, "interpreter: Random must be lowered to Philox");
    case Kind::Add: {
      int acc = compile_expr(e->arg(0), seg, ctx);
      for (std::size_t i = 1; i < e->arity(); ++i) {
        Instr in;
        in.op = Op::Add;
        in.a = acc;
        in.b = compile_expr(e->arg(i), seg, ctx);
        in.dst = fresh();
        acc = emit(in);
      }
      return acc;
    }
    case Kind::Mul: {
      int acc = compile_expr(e->arg(0), seg, ctx);
      for (std::size_t i = 1; i < e->arity(); ++i) {
        Instr in;
        in.op = Op::Mul;
        in.a = acc;
        in.b = compile_expr(e->arg(i), seg, ctx);
        in.dst = fresh();
        acc = emit(in);
      }
      return acc;
    }
    case Kind::Pow: {
      const int base = compile_expr(e->arg(0), seg, ctx);
      long n = 0;
      Instr in;
      in.a = base;
      in.dst = fresh();
      if (e->arg(1)->integer_value(&n)) {
        in.op = Op::PowInt;
        in.pow_n = n;
        return emit(in);
      }
      if (e->arg(1)->is_number(0.5)) {
        in.op = Op::Sqrt;
        return emit(in);
      }
      if (e->arg(1)->is_number(-0.5)) {
        in.op = Op::RSqrt;
        return emit(in);
      }
      in.op = Op::PowGen;
      in.b = compile_expr(e->arg(1), seg, ctx);
      return emit(in);
    }
    case Kind::Call: {
      Instr in;
      in.dst = fresh();
      switch (e->func()) {
        case sym::Func::Sqrt: in.op = Op::Sqrt; break;
        case sym::Func::RSqrt: in.op = Op::RSqrt; break;
        case sym::Func::Exp: in.op = Op::Exp; break;
        case sym::Func::Log: in.op = Op::Log; break;
        case sym::Func::Sin: in.op = Op::Sin; break;
        case sym::Func::Cos: in.op = Op::Cos; break;
        case sym::Func::Tanh: in.op = Op::Tanh; break;
        case sym::Func::Abs: in.op = Op::Abs; break;
        case sym::Func::Min: in.op = Op::Min; break;
        case sym::Func::Max: in.op = Op::Max; break;
        case sym::Func::Select: in.op = Op::Select; break;
        case sym::Func::Less: in.op = Op::Less; break;
        case sym::Func::Greater: in.op = Op::Greater; break;
        case sym::Func::LessEq: in.op = Op::LessEq; break;
        case sym::Func::GreaterEq: in.op = Op::GreaterEq; break;
        case sym::Func::PhiloxUniform: {
          in.op = Op::Philox;
          for (std::size_t i = 0; i < in.rng_args.size(); ++i) {
            in.rng_args[i] = compile_expr(e->arg(i), seg, ctx);
          }
          return emit(in);
        }
      }
      in.a = compile_expr(e->arg(0), seg, ctx);
      if (e->arity() >= 2) in.b = compile_expr(e->arg(1), seg, ctx);
      if (e->arity() >= 3) in.c = compile_expr(e->arg(2), seg, ctx);
      return emit(in);
    }
    case Kind::Diff:
    case Kind::Dt:
      PFC_REQUIRE(false, "interpreter: undiscretized Diff/Dt node");
  }
  PFC_ASSERT(false, "unreachable");
}

namespace {

double powi(double b, long n) {
  if (n < 0) return 1.0 / powi(b, -n);
  double r = 1.0;
  while (n-- > 0) r *= b;  // matches the emitted repeated multiplication
  return r;
}

}  // namespace

void InterpreterKernel::run(const Binding& b,
                            const std::array<long long, 3>& n, double t,
                            long long t_step, ThreadPool* pool,
                            const CellRange* range,
                            const SlabPlan* plan) const {
  const RawArgs raw = marshal(kernel_, b, n, &reads_);
  const CellRange box = range != nullptr ? *range : full_range(kernel_, n);
  if (box.cells() == 0) return;
  const auto outer = std::size_t(kernel_.dims - 1);
  for_each_slab(box, kernel_.dims, pool, plan, 1,
                [&](long long lo, long long hi) {
                  CellRange slab = box;
                  slab.lo[outer] = lo;
                  slab.hi[outer] = hi;
                  run_box(raw, b.params.data(), slab, t, t_step);
                });
}

void InterpreterKernel::run_box(const RawArgs& raw, const double* params,
                                const CellRange& box, double t,
                                long long t_step) const {
  const int dims = kernel_.dims;

  // resolve per-load pointer deltas for this box
  struct Resolved {
    double* ptr;
    long long sy, sz;
  };
  std::vector<Resolved> res(kernel_.fields.size());
  for (std::size_t i = 0; i < kernel_.fields.size(); ++i) {
    res[i].ptr = raw.fields[i];
    res[i].sy = raw.strides[4 * i + 1];
    res[i].sz = raw.strides[4 * i + 2];
  }
  const auto delta = [&](const Instr& in) {
    const auto f = std::size_t(in.field);
    return in.off[0] + in.off[1] * res[f].sy + in.off[2] * res[f].sz +
           in.component * raw.strides[4 * f + 3];
  };

  std::vector<double> regs(std::size_t(num_regs_), 0.0);
  long long cx = 0, cy = 0, cz = 0;

  const auto exec = [&](const std::vector<Instr>& seg) {
    for (const auto& in : seg) {
      double* r = regs.data();
      switch (in.op) {
        case Op::Const: r[in.dst] = in.imm; break;
        case Op::Param: r[in.dst] = params[std::size_t(in.pow_n)]; break;
        case Op::Coord: {
          const long long local = in.pow_n == 0 ? cx : in.pow_n == 1 ? cy : cz;
          r[in.dst] = double(local + raw.block_off[std::size_t(in.pow_n)]);
          break;
        }
        case Op::Time: r[in.dst] = t; break;
        case Op::TimeStep: r[in.dst] = double(t_step); break;
        case Op::Load: {
          const auto& f = res[std::size_t(in.field)];
          r[in.dst] = f.ptr[cx + cy * f.sy + cz * f.sz + delta(in)];
          break;
        }
        case Op::Store: {
          const auto& f = res[std::size_t(in.field)];
          f.ptr[cx + cy * f.sy + cz * f.sz + delta(in)] = r[in.a];
          break;
        }
        case Op::Add: r[in.dst] = r[in.a] + r[in.b]; break;
        case Op::Mul: r[in.dst] = r[in.a] * r[in.b]; break;
        case Op::Div: r[in.dst] = r[in.a] / r[in.b]; break;
        case Op::Neg: r[in.dst] = -r[in.a]; break;
        case Op::PowInt: r[in.dst] = powi(r[in.a], in.pow_n); break;
        case Op::PowGen: r[in.dst] = std::pow(r[in.a], r[in.b]); break;
        case Op::Sqrt: r[in.dst] = std::sqrt(r[in.a]); break;
        case Op::RSqrt: r[in.dst] = 1.0 / std::sqrt(r[in.a]); break;
        case Op::Exp: r[in.dst] = std::exp(r[in.a]); break;
        case Op::Log: r[in.dst] = std::log(r[in.a]); break;
        case Op::Sin: r[in.dst] = std::sin(r[in.a]); break;
        case Op::Cos: r[in.dst] = std::cos(r[in.a]); break;
        case Op::Tanh: r[in.dst] = std::tanh(r[in.a]); break;
        case Op::Abs: r[in.dst] = std::abs(r[in.a]); break;
        case Op::Min: r[in.dst] = std::fmin(r[in.a], r[in.b]); break;
        case Op::Max: r[in.dst] = std::fmax(r[in.a], r[in.b]); break;
        case Op::Select:
          r[in.dst] = r[in.a] != 0.0 ? r[in.b] : r[in.c];
          break;
        case Op::Less: r[in.dst] = r[in.a] < r[in.b] ? 1.0 : 0.0; break;
        case Op::Greater: r[in.dst] = r[in.a] > r[in.b] ? 1.0 : 0.0; break;
        case Op::LessEq: r[in.dst] = r[in.a] <= r[in.b] ? 1.0 : 0.0; break;
        case Op::GreaterEq:
          r[in.dst] = r[in.a] >= r[in.b] ? 1.0 : 0.0;
          break;
        case Op::Philox: {
          const auto v = [&](int i) {
            return (unsigned long long)(r[in.rng_args[std::size_t(i)]]);
          };
          r[in.dst] = rng::philox_uniform(v(0), v(1), v(2), v(3),
                                          v(6) << 32 | v(4), v(5));
          break;
        }
        case Op::CopyReg: r[in.dst] = r[in.a]; break;
      }
    }
  };

  exec(segs_[0]);  // invariant (recomputed per box: same values)
  const long long zlo = box.lo[2], zhi = box.hi[2];
  const long long ylo = box.lo[1], yhi = box.hi[1];
  const long long xlo = box.lo[0], xhi = box.hi[0];
  if (dims == 3) {
    for (cz = zlo; cz < zhi; ++cz) {
      exec(segs_[1]);
      for (cy = ylo; cy < yhi; ++cy) {
        exec(segs_[2]);
        for (cx = xlo; cx < xhi; ++cx) exec(segs_[3]);
      }
    }
  } else if (dims == 2) {
    cz = 0;
    exec(segs_[1]);
    for (cy = ylo; cy < yhi; ++cy) {
      exec(segs_[2]);
      for (cx = xlo; cx < xhi; ++cx) exec(segs_[3]);
    }
  } else {
    cz = cy = 0;
    exec(segs_[1]);
    exec(segs_[2]);
    for (cx = xlo; cx < xhi; ++cx) exec(segs_[3]);
  }
}

}  // namespace pfc::backend
