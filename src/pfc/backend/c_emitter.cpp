#include "pfc/backend/c_emitter.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "pfc/backend/codegen_common.hpp"
#include "pfc/ir/opcount.hpp"
#include "pfc/ir/vectorize.hpp"
#include "pfc/sym/printer.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::backend {

using sym::Expr;
using sym::Kind;

namespace {

const char* kCoordName[3] = {"_xg", "_yg", "_zg"};  // global coords (double)
// vector mirrors of the scalar coordinates / time arguments
const char* kCoordVecName[3] = {"_xgv", "_ygv", "_zgv"};
const char* kLoopVar[3] = {"x", "y", "z"};

struct NameTables {
  // field id -> sanitized local base name
  std::unordered_map<std::uint64_t, std::string> field_name;
  // scalar param symbol (by identity hash+name) -> rendered name
  std::vector<std::pair<Expr, std::string>> params;

  std::string param_name(const Expr& s) const {
    for (const auto& [p, n] : params) {
      if (sym::equals(p, s)) return n;
    }
    return sanitize_identifier(s->name());  // a CSE temp
  }
};

/// The index expression inside `base[...]` for one FieldRef.
std::string field_index_expr(const ir::Kernel& k, const NameTables& names,
                             const Expr& fr) {
  const auto& base = names.field_name.at(fr->field()->id());
  std::ostringstream os;
  const auto idx_term = [&](int d, const char* var) {
    const int off = fr->offset()[std::size_t(d)];
    std::string s = var;
    if (off > 0) s += " + " + std::to_string(off);
    if (off < 0) s += " - " + std::to_string(-off);
    return s;
  };
  os << idx_term(0, kLoopVar[0]);
  if (k.dims >= 2) os << " + " << base << "_sy*(" << idx_term(1, kLoopVar[1]) << ')';
  if (k.dims >= 3) os << " + " << base << "_sz*(" << idx_term(2, kLoopVar[2]) << ')';
  if (fr->component() != 0) {
    os << " + " << base << "_sc*" << fr->component();
  }
  return os.str();
}

sym::PrintOptions make_print_options(const ir::Kernel& k,
                                     const NameTables& names,
                                     const CEmitOptions& opts) {
  sym::PrintOptions po;
  po.dialect = sym::Dialect::C;
  po.fast_math = opts.fast_math;
  po.symbol_printer = [&k, &names](const Expr& s) -> std::string {
    switch (s->builtin()) {
      case sym::Builtin::Coord0: return kCoordName[0];
      case sym::Builtin::Coord1: return kCoordName[1];
      case sym::Builtin::Coord2: return kCoordName[2];
      case sym::Builtin::Time: return "t";
      case sym::Builtin::TimeStep: return "(double)t_step";
      case sym::Builtin::None: return names.param_name(s);
    }
    return s->name();
  };
  po.field_printer = [&k, &names](const Expr& fr) -> std::string {
    const auto& base = names.field_name.at(fr->field()->id());
    return base + "[" + field_index_expr(k, names, fr) + "]";
  };
  return po;
}

/// Print options for the vector body: every scalar that lives outside the
/// body reads through its `_v` broadcast mirror, field reads become vector
/// loads.
sym::PrintOptions make_vector_print_options(
    const ir::Kernel& k, const NameTables& names, const CEmitOptions& opts,
    const std::unordered_set<std::string>& body_temps) {
  sym::PrintOptions po;
  po.dialect = sym::Dialect::CVec;
  po.fast_math = opts.fast_math;
  po.symbol_printer = [&k, &names, &body_temps](const Expr& s) -> std::string {
    switch (s->builtin()) {
      case sym::Builtin::Coord0: return kCoordVecName[0];
      case sym::Builtin::Coord1: return kCoordVecName[1];
      case sym::Builtin::Coord2: return kCoordVecName[2];
      case sym::Builtin::Time: return "_tv";
      case sym::Builtin::TimeStep: return "_tsv";
      case sym::Builtin::None: break;
    }
    const std::string n = names.param_name(s);
    return body_temps.count(n) != 0 ? n : n + "_v";
  };
  po.field_printer = [&k, &names](const Expr& fr) -> std::string {
    const auto& base = names.field_name.at(fr->field()->id());
    return "pfc_vd_loadu(&" + base + "[" + field_index_expr(k, names, fr) +
           "])";
  };
  return po;
}

/// emit_c's text in three pieces: the header comments and includes, the
/// runtime preamble this kernel needs (scalar Philox etc., plus the vector
/// runtime when it is vectorized) and the entry point.
struct KernelText {
  std::string head, preamble, body;
};

KernelText emit_parts(const ir::Kernel& k, const CEmitOptions& opts) {
  PFC_REQUIRE(k.dims >= 1 && k.dims <= 3, "emit_c: dims out of range");
  KernelText out;
  std::ostringstream os;

  ir::VectorizeOptions vo;
  vo.width = opts.vector_width < 1 ? 1 : opts.vector_width;
  vo.streaming_stores = opts.streaming_stores;
  const ir::VectorPlan plan = ir::plan_vectorize(k, vo);
  const bool streams =
      plan.enabled() && plan.is_streamed(plan.primary_write);

  NameTables names;
  for (const auto& f : k.fields) {
    std::string base = "f_" + sanitize_identifier(f->name());
    // disambiguate clashes after sanitation
    for (const auto& [id, n] : names.field_name) {
      (void)id;
      if (n == base) {
        base += "_" + std::to_string(f->id());
        break;
      }
    }
    names.field_name.emplace(f->id(), base);
  }
  for (std::size_t i = 0; i < k.scalar_params.size(); ++i) {
    names.params.emplace_back(k.scalar_params[i],
                              "p_" + sanitize_identifier(
                                         k.scalar_params[i]->name()));
  }
  std::unordered_set<std::string> body_temps;
  for (const auto& sa : k.body) {
    if (sa.level == ir::Level::Body &&
        sa.assign.lhs->kind() == Kind::Symbol) {
      body_temps.insert(sanitize_identifier(sa.assign.lhs->name()));
    }
  }

  const sym::PrintOptions po = make_print_options(k, names, opts);
  const sym::PrintOptions vpo =
      make_vector_print_options(k, names, opts, body_temps);
  const auto render = [&](const Expr& e) { return sym::to_string(e, po); };
  const auto vrender = [&](const Expr& e) { return sym::to_string(e, vpo); };

  const ir::OpCounts ops = ir::count_ops(k);
  os << "// generated by pfc (C backend) — kernel \"" << k.name << "\"\n";
  os << "// per-cell: " << ops.to_string() << "\n";
  if (plan.enabled()) {
    os << "// vectorized: width " << plan.width
       << (streams ? ", streaming stores" : "") << ", "
       << plan.broadcasts.size() << " hoisted broadcast(s), "
       << plan.lane_serial_calls << " lane-serial call(s)/cell\n";
  }
  os << "#include <math.h>\n\n";
  out.head = os.str();
  out.preamble = std::string(runtime_preamble()) + "\n";
  if (plan.enabled()) out.preamble += vector_preamble(plan.width) + "\n";
  os.str("");

  os << "extern \"C\" void " << entry_name(k)
     << "(double* const* fields, const long long* strides,\n"
        "    const long long* n, const long long* block_off,\n"
        "    const long long* lo, const long long* hi,\n"
        "    double t, long long t_step, const double* params) {\n";
  os << "  (void)n; (void)block_off; (void)t; (void)t_step; (void)params;\n";

  // field bases and strides
  for (std::size_t i = 0; i < k.fields.size(); ++i) {
    const auto& f = k.fields[i];
    const auto& base = names.field_name.at(f->id());
    bool written = false;
    for (const auto& w : k.writes) written = written || w->id() == f->id();
    if (written) {
      os << "  double* __restrict " << base << " = fields[" << i << "];\n";
    } else {
      os << "  const double* __restrict " << base << " = fields[" << i
         << "];\n";
    }
    if (k.dims >= 2) {
      os << "  const long long " << base << "_sy = strides[" << (4 * i + 1)
         << "];\n";
    }
    if (k.dims >= 3) {
      os << "  const long long " << base << "_sz = strides[" << (4 * i + 2)
         << "];\n";
    }
    if (f->components() > 1) {
      os << "  const long long " << base << "_sc = strides[" << (4 * i + 3)
         << "];\n";
    }
  }
  for (std::size_t i = 0; i < names.params.size(); ++i) {
    os << "  const double " << names.params[i].second << " = params[" << i
       << "];\n";
  }

  // Alignment contract of the vector path: the peel aligns the primary
  // write's component-0 row, so stores to further components (and the
  // streaming fast path) need vector-multiple strides. pfc::Array pads
  // every line to 8 doubles and puts x = 0 of every line on a 64-byte
  // boundary, which satisfies all of these for width <= 8 and leaves a
  // full row [0, n) with no peel; only sub-ranges starting off a vector
  // boundary peel.
  if (plan.enabled()) {
    const auto& pbase =
        names.field_name.at(k.fields[plan.primary_write]->id());
    std::vector<std::string> checked;
    if (k.fields[plan.primary_write]->components() > 1) {
      checked.push_back(pbase + "_sc");
    }
    if (streams) {
      if (k.dims >= 2) checked.push_back(pbase + "_sy");
      if (k.dims >= 3) checked.push_back(pbase + "_sz");
    }
    for (const auto& s : checked) {
      os << "  if ((" << s << " % PFC_VW) != 0) __builtin_trap();\n";
    }
  }
  os << "\n";

  const auto emit_level = [&](ir::Level lvl, const char* indent,
                              bool vector) {
    for (const auto* sa : k.at_level(lvl)) {
      PFC_ASSERT(sa->assign.lhs->kind() == Kind::Symbol ||
                 lvl == ir::Level::Body);
      if (sa->assign.lhs->kind() == Kind::Symbol) {
        os << indent << "const " << (vector ? "pfc_vd " : "double ")
           << sanitize_identifier(sa->assign.lhs->name()) << " = "
           << (vector ? vrender(sa->assign.rhs) : render(sa->assign.rhs))
           << ";\n";
      } else if (!vector) {
        os << indent << render(sa->assign.lhs) << " = "
           << render(sa->assign.rhs) << ";\n";
      } else {
        const Expr& lhs = sa->assign.lhs;
        std::size_t fidx = std::size_t(-1);
        for (std::size_t i = 0; i < k.fields.size(); ++i) {
          if (k.fields[i]->id() == lhs->field()->id()) {
            fidx = i;
            break;
          }
        }
        const auto& off = lhs->offset();
        const bool aligned = fidx == plan.primary_write && off[0] == 0 &&
                             off[1] == 0 && off[2] == 0;
        const char* store = "pfc_vd_storeu";
        if (aligned) {
          store = plan.is_streamed(fidx) ? "pfc_vd_stream" : "pfc_vd_storea";
        }
        const auto& base = names.field_name.at(lhs->field()->id());
        os << indent << store << "(&" << base << "["
           << field_index_expr(k, names, lhs) << "], "
           << vrender(sa->assign.rhs) << ");\n";
      }
    }
  };

  // stride-0 broadcast hoists: one set1 per non-body scalar, emitted right
  // after its scalar definition at the same loop level
  const auto emit_broadcasts = [&](ir::Level lvl, const char* indent) {
    if (!plan.enabled()) return;
    for (const auto& [s, l] : plan.broadcasts) {
      if (l != lvl) continue;
      const std::string sn = names.param_name(s);
      os << indent << "const pfc_vd " << sn << "_v = pfc_vd_set1(" << sn
         << ");\n";
    }
  };

  // coordinates of unused spatial dims are constant (local index 0)
  for (int d = k.dims; d < 3; ++d) {
    if (!k.uses_coord[std::size_t(d)]) continue;
    os << "  const double " << kCoordName[d] << " = (double)(block_off[" << d
       << "]);\n";
    if (plan.body_uses_coord[std::size_t(d)]) {
      os << "  const pfc_vd " << kCoordVecName[d] << " = pfc_vd_set1("
         << kCoordName[d] << ");\n";
    }
  }
  if (plan.body_uses_time) {
    os << "  const pfc_vd _tv = pfc_vd_set1(t);\n";
  }
  if (plan.body_uses_timestep) {
    os << "  const pfc_vd _tsv = pfc_vd_set1((double)t_step);\n";
  }

  // kernel-invariant temporaries, then their broadcasts (params broadcast
  // here too: they are invariant by definition)
  emit_level(ir::Level::Invariant, "  ", false);
  emit_broadcasts(ir::Level::Invariant, "  ");

  std::string indent = "  ";
  if (k.dims == 3) {
    os << indent << "for (long long z = lo[2]; z < hi[2]; ++z) {\n";
    indent += "  ";
    if (k.uses_coord[2]) {
      os << indent << "const double " << kCoordName[2]
         << " = (double)(z + block_off[2]);\n";
      if (plan.body_uses_coord[2]) {
        os << indent << "const pfc_vd " << kCoordVecName[2]
           << " = pfc_vd_set1(" << kCoordName[2] << ");\n";
      }
    }
    emit_level(ir::Level::PerZ, indent.c_str(), false);
    emit_broadcasts(ir::Level::PerZ, indent.c_str());
  }
  if (k.dims >= 2) {
    os << indent << "for (long long y = lo[1]; y < hi[1]; ++y) {\n";
    indent += "  ";
    if (k.uses_coord[1]) {
      os << indent << "const double " << kCoordName[1]
         << " = (double)(y + block_off[1]);\n";
      if (plan.body_uses_coord[1]) {
        os << indent << "const pfc_vd " << kCoordVecName[1]
           << " = pfc_vd_set1(" << kCoordName[1] << ");\n";
      }
    }
    emit_level(ir::Level::PerY, indent.c_str(), false);
    emit_broadcasts(ir::Level::PerY, indent.c_str());
  }

  const auto emit_body_scalar = [&](const std::string& ind) {
    if (k.uses_coord[0]) {
      os << ind << "const double " << kCoordName[0]
         << " = (double)(x + block_off[0]);\n";
    }
    emit_level(ir::Level::Body, ind.c_str(), false);
  };
  const auto emit_body_vector = [&](const std::string& ind) {
    if (plan.body_uses_coord[0]) {
      os << ind << "const pfc_vd " << kCoordVecName[0]
         << " = pfc_vd_iota((double)(x + block_off[0]));\n";
    }
    emit_level(ir::Level::Body, ind.c_str(), true);
  };

  // x-loop bounds come from the sub-range box like every other dim; the
  // host passes the full box for a monolithic sweep, a sub-box for
  // interior/frontier or thread-slab execution.
  const std::string xlo = "lo[0]";
  const std::string xhi = "hi[0]";

  if (!plan.enabled()) {
    if (opts.simd_hint) os << indent << "#pragma GCC ivdep\n";
    os << indent << "for (long long x = " << xlo << "; x < " << xhi
       << "; ++x) {\n";
    emit_body_scalar(indent + "  ");
    os << indent << "}\n";
  } else {
    const auto& pbase =
        names.field_name.at(k.fields[plan.primary_write]->id());
    os << indent << "{\n";
    const std::string ind = indent + "  ";
    const std::string bind = indent + "    ";
    // scalar peel until the primary destination row is vector-aligned,
    // aligned vector main loop, scalar remainder
    os << ind << "const long long _xlo = " << xlo << ";\n";
    os << ind << "const long long _xhi = " << xhi << ";\n";
    os << ind << "double* _vrow = " << pbase << " + _xlo";
    if (k.dims >= 2) os << " + " << pbase << "_sy*y";
    if (k.dims >= 3) os << " + " << pbase << "_sz*z";
    os << ";\n";
    os << ind
       << "long long _xpeel = (long long)(((__UINTPTR_TYPE__)PFC_VW - "
          "(((__UINTPTR_TYPE__)_vrow / sizeof(double)) % "
          "(__UINTPTR_TYPE__)PFC_VW)) % (__UINTPTR_TYPE__)PFC_VW);\n";
    os << ind << "if (_xpeel > _xhi - _xlo) _xpeel = _xhi - _xlo;\n";
    os << ind << "const long long _xv0 = _xlo + _xpeel;\n";
    os << ind
       << "const long long _xv1 = _xv0 + ((_xhi - _xv0) / PFC_VW) * "
          "PFC_VW;\n";
    os << ind << "for (long long x = _xv0; x < _xv1; x += PFC_VW) {\n";
    emit_body_vector(bind);
    os << ind << "}\n";
    // one scalar body serves the peel [_xlo, _xv0), then the remainder
    // [_xv1, _xhi): cells are independent, so their order is free
    os << ind
       << "for (long long x = _xv0 > _xlo ? _xlo : _xv1; x < _xhi;\n"
       << ind << "     x = x + 1 == _xv0 ? _xv1 : x + 1) {\n";
    emit_body_scalar(bind);
    os << ind << "}\n";
    os << indent << "}\n";
  }

  // close the outer loops
  for (int d = 1; d < k.dims; ++d) {
    indent.resize(indent.size() - 2);
    os << indent << "}\n";
  }
  if (streams) os << "  pfc_vd_stream_fence();\n";
  os << "}\n";
  out.body = os.str();
  return out;
}

}  // namespace

std::string entry_name(const ir::Kernel& k) {
  return sanitize_identifier(k.name);
}

std::string emit_c(const ir::Kernel& k, const CEmitOptions& opts) {
  KernelText t = emit_parts(k, opts);
  if (opts.include_preamble) t.head += t.preamble;
  return t.head + t.body;
}

ModelSource emit_model(const std::vector<const ir::Kernel*>& kernels,
                       const CEmitOptions& opts) {
  ModelSource out;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelText t = emit_parts(*kernels[i], opts);
    out.units.push_back(t.head + t.preamble + t.body);
    out.joined += i == 0 ? out.units.back() : t.head + t.body;
    out.joined += "\n";
  }
  return out;
}

}  // namespace pfc::backend
