#include "transform/codegen_nd.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "exec/engines_nd.hpp"
#include "support/cemit.hpp"
#include "support/diagnostics.hpp"

namespace lf::transform {

namespace {

using exec::MdDomain;

/// Level-k loop variable name in the emitted C ("v0".."v{d-2}", "j").
std::string var(int level, int dim) {
    return level == dim - 1 ? "j" : "v" + std::to_string(level);
}

std::string c_ref(const std::string& copy, const front::BasicArrayRef<VecN>& ref,
                  const VecN& shift) {
    const int dim = ref.offset.dim();
    std::ostringstream os;
    os << "AT(" << copy << ref.array;
    for (int k = 0; k < dim; ++k) {
        os << ", " << cemit::index_with_offset(var(k, dim), ref.offset[k] + shift[k]);
    }
    os << ')';
    return os.str();
}

/// The shared expression printer's view of the N-D IR node types.
struct MdDialect {
    using Expr = front::BasicExpr<VecN>;
    using Literal = front::BasicLiteral<VecN>;
    using Read = front::BasicRead<VecN>;
    using Unary = front::BasicUnary<VecN>;
    using Binary = front::BasicBinary<VecN>;
};

std::string c_statement(const front::BasicStatement<VecN>& s, const std::string& copy,
                        const VecN& shift) {
    std::ostringstream os;
    os << c_ref(copy, s.target, shift) << " = ";
    cemit::emit_expr<MdDialect>(os, *s.value,
                                [&](std::ostringstream& o, const front::BasicRead<VecN>& r) {
                                    o << c_ref(copy, r.ref(), shift);
                                });
    os << ';';
    return os.str();
}

/// Opens `levels` nested for-loops; loop variables are named by their level
/// within the full `name_dim`-deep nest (so prefix loops over a dim-3 nest
/// are v0, v1 -- never "j"). `omp_level` (when >= 0) puts a
/// `#pragma omp parallel for` on that loop, guarded by #if defined(_OPENMP)
/// so the file stays -Wall -Werror clean without -fopenmp.
void open_loops(std::ostringstream& os, const std::vector<std::int64_t>& lo,
                const std::vector<std::int64_t>& hi, int levels, int name_dim,
                const std::string& indent, int omp_level = -1) {
    for (int k = 0; k < levels; ++k) {
        if (k == omp_level) {
            os << "#if defined(_OPENMP)\n"
               << indent << std::string(static_cast<std::size_t>(2 * k), ' ')
               << "#pragma omp parallel for\n"
                  "#endif\n";
        }
        os << indent << std::string(static_cast<std::size_t>(2 * k), ' ') << "for (int64_t "
           << var(k, name_dim) << " = " << lo[static_cast<std::size_t>(k)] << "; "
           << var(k, name_dim) << " <= " << hi[static_cast<std::size_t>(k)] << "; ++"
           << var(k, name_dim) << ") {\n";
    }
}

void close_loops(std::ostringstream& os, int levels, const std::string& indent) {
    for (int k = levels - 1; k >= 0; --k) {
        os << indent << std::string(static_cast<std::size_t>(2 * k), ' ') << "}\n";
    }
}

/// Shared prelude: includes, extents, strides, the AT() accessor,
/// boundary_value, the two array copies and init().
void emit_prelude(std::ostringstream& os, const front::BasicProgram<VecN>& p,
                  const MdDomain& dom, std::int64_t halo, bool kernel_library) {
    const int dim = p.dim;
    if (kernel_library) {
        os << "/* Generated by loopfusion (mdir): kernel library for '" << p.name << "', dim "
           << dim
           << ".\n"
              " * Compile: cc -O2 -fPIC -shared -pthread -o kernel.so this_file.c\n"
              " * Exports: int lf_kernel_run(lf_kernel_result*) and the ABI v2\n"
              " * int lf_kernel_run_par(const lf_kernel_params*, lf_kernel_result*),\n"
              " * see src/exec/runner.hpp. */\n"
              "#include <stdint.h>\n#include <time.h>\n"
           << cemit::parallel_runtime_includes_c() << '\n';
    } else {
        os << "/* Generated by loopfusion (mdir): original vs fused '" << p.name << "', dim "
           << dim
           << ", self-verifying.\n"
              " * Compile: cc -O2 -pthread -o check this_file.c; run with\n"
              " * LF_THREADS=N (and optionally LF_TILE / LF_CUTOFF) for the\n"
              " * threaded fused scan. */\n"
              "#include <stdint.h>\n#include <stdio.h>\n#include <stdlib.h>\n"
           << cemit::parallel_runtime_includes_c() << '\n';
    }
    os << "enum { DIM = " << dim << ", H = " << halo << " };\n";
    for (int k = 0; k < dim; ++k) {
        os << "enum { E" << k << " = " << dom.ext[static_cast<std::size_t>(k)] << ", LEN" << k
           << " = E" << k << " + 2 * H + 1 };\n";
    }
    // Row-major strides, innermost stride 1. #defines over an int64_t base
    // (not enum constants, which are C `int` and would overflow silently
    // once LEN0 * ... * LENd exceeds INT_MAX on big benchmark domains).
    for (int k = dim - 1; k >= 0; --k) {
        os << "#define S" << k << " (";
        if (k == dim - 1) {
            os << "(int64_t)1";
        } else {
            os << "S" << k + 1 << " * LEN" << k + 1;
        }
        os << ")\n";
    }
    os << "#define TOTAL (S0 * LEN0)\n\n";

    // Flat accessor macro: AT(arr, c0, ..., c{d-1}).
    os << "#define AT(arr";
    for (int k = 0; k < dim; ++k) os << ", c" << k;
    os << ") (arr)[";
    for (int k = 0; k < dim; ++k) {
        if (k) os << " + ";
        os << "((c" << k << ") + H) * S" << k;
    }
    os << "]\n\n";

    os << "static double boundary_value(uint64_t h, const int64_t* c) {\n"
          "    for (int k = 0; k < DIM; ++k) {\n"
          "        h ^= (uint64_t)c[k] * 0x9e3779b97f4a7c15ULL;\n"
          "        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;\n"
          "    }\n"
          "    h ^= h >> 31;\n"
          "    return (double)(h % 2000001ULL) / 1000000.0 - 1.0;\n"
          "}\n\n";

    const auto arrays = p.arrays();
    for (const std::string& name : arrays) {
        os << "static double orig_" << name << "[TOTAL];\n";
        os << "static double fused_" << name << "[TOTAL];\n";
    }
    os << '\n';

    // init(): sweep the halo-extended box.
    const std::vector<std::int64_t> halo_lo(static_cast<std::size_t>(dim), -halo);
    std::vector<std::int64_t> halo_hi(dom.ext);
    for (auto& h : halo_hi) h += halo;
    os << "static void init(void) {\n";
    open_loops(os, halo_lo, halo_hi, dim, dim, "    ");
    const std::string deep(static_cast<std::size_t>(2 * dim), ' ');
    os << "    " << deep << "int64_t cell[DIM] = {";
    for (int k = 0; k < dim; ++k) os << (k ? ", " : "") << var(k, dim);
    os << "};\n";
    for (const std::string& name : arrays) {
        const auto seed = static_cast<std::uint64_t>(std::hash<std::string>{}(name));
        os << "    " << deep << "AT(orig_" << name;
        for (int k = 0; k < dim; ++k) os << ", " << var(k, dim);
        os << ") = AT(fused_" << name;
        for (int k = 0; k < dim; ++k) os << ", " << var(k, dim);
        os << ") = boundary_value(" << seed << "ULL, cell);\n";
    }
    close_loops(os, dim, "    ");
    os << "}\n\n";
}

/// run_original(): the source nests are siblings inside the shared prefix
/// loops (levels 1..d-1), each contributing its own innermost j sweep --
/// the depth-d generalization of the paper's Figure-1 shape.
void emit_run_original(std::ostringstream& os, const front::BasicProgram<VecN>& p,
                       const MdDomain& dom) {
    const int dim = p.dim;
    os << "static void run_original(void) {\n";
    std::vector<std::int64_t> plo(static_cast<std::size_t>(dim - 1), 0);
    std::vector<std::int64_t> phi(dom.ext.begin(), dom.ext.end() - 1);
    open_loops(os, plo, phi, dim - 1, dim, "    ");
    const std::string ind = "    " + std::string(static_cast<std::size_t>(2 * (dim - 1)), ' ');
    for (const front::BasicLoopNest<VecN>& loop : p.loops) {
        os << ind << "/* loop " << loop.label << " */\n";
        os << ind << "for (int64_t j = 0; j <= E" << dim - 1 << "; ++j) {\n";
        for (const front::BasicStatement<VecN>& s : loop.body) {
            os << ind << "    " << c_statement(s, "orig_", VecN::zeros(dim)) << '\n';
        }
        os << ind << "}\n";
    }
    close_loops(os, dim - 1, "    ");
    os << "}\n\n";
}

/// The fused bounding box: point p runs body v iff p + r(v) lies in the
/// domain, so the scan covers the union of every body's retimed range.
void fused_box(const NdFusionPlan& plan, const MdDomain& dom, std::vector<std::int64_t>& lo,
               std::vector<std::int64_t>& hi) {
    const int dim = dom.dim();
    lo.assign(static_cast<std::size_t>(dim), 0);
    hi.assign(static_cast<std::size_t>(dim), 0);
    // Same shared fringe model as the 2-D emitter and the planner's
    // StageReport metrics (support/cemit.hpp); this is the union box.
    std::vector<std::int64_t> shifts(static_cast<std::size_t>(plan.retimed.num_nodes()));
    for (int k = 0; k < dim; ++k) {
        for (int v = 0; v < plan.retimed.num_nodes(); ++v) {
            shifts[static_cast<std::size_t>(v)] = plan.retiming.of(v)[k];
        }
        const cemit::FringeBounds b =
            cemit::fringe_bounds(shifts, dom.ext[static_cast<std::size_t>(k)]);
        lo[static_cast<std::size_t>(k)] = b.lo;
        hi[static_cast<std::size_t>(k)] = b.hi;
    }
}

/// The guarded fused bodies at one iteration point (all loop variables of
/// the dim-deep nest are in scope).
void emit_guarded_bodies(std::ostringstream& os, const front::BasicProgram<VecN>& p,
                         const NdFusionPlan& plan, const std::vector<int>& order,
                         const std::string& ind) {
    const int dim = p.dim;
    for (const int v : order) {
        const VecN& r = plan.retiming.of(v);
        os << ind << "/* loop " << p.loops[static_cast<std::size_t>(v)].label << ", r = "
           << r.str() << " */\n";
        os << ind << "if (";
        for (int k = 0; k < dim; ++k) {
            if (k) os << " && ";
            os << -r[k] << " <= " << var(k, dim) << " && " << var(k, dim) << " <= E" << k
               << " - " << r[k] << " + 0";
        }
        os << ") {\n";
        for (const front::BasicStatement<VecN>& s : p.loops[static_cast<std::size_t>(v)].body) {
            os << ind << "    " << c_statement(s, "fused_", r) << '\n';
        }
        os << ind << "}\n";
    }
}

/// run_fused(): lexicographic scan of the fused bounding box with guards,
/// bodies in the (0..0)-dependence topological order. OutermostCarried
/// plans have every retimed dependence carried by the outermost loop, so
/// the level-1 loop is DOALL and gets a guarded OpenMP pragma.
void emit_run_fused(std::ostringstream& os, const front::BasicProgram<VecN>& p,
                    const NdFusionPlan& plan, const MdDomain& dom,
                    const std::vector<int>& order) {
    const int dim = p.dim;
    if (plan.level == NdParallelism::OutermostCarried) {
        os << "/* Fused scan; every retimed dependence is outermost-carried, so all\n"
              " * inner levels are DOALL (one barrier per outermost iteration). */\n";
    } else {
        os << "/* Fused lexicographic scan; schedule s = " << plan.schedule.str()
           << " gives the parallel hyperplanes. */\n";
    }
    os << "static void run_fused(void) {\n";
    std::vector<std::int64_t> lo;
    std::vector<std::int64_t> hi;
    fused_box(plan, dom, lo, hi);
    const int omp_level =
        plan.level == NdParallelism::OutermostCarried && dim >= 2 ? 1 : -1;
    open_loops(os, lo, hi, dim, dim, "    ", omp_level);
    const std::string ind = "    " + std::string(static_cast<std::size_t>(2 * dim), ' ');
    emit_guarded_bodies(os, p, plan, order, ind);
    close_loops(os, dim, "    ");
    os << "}\n\n";
}

/// True when the hyperplane wavefront can be lane-decomposed: the schedule's
/// innermost component is 1, so j is determined per (t, v0..v_{d-2}).
bool parallel_wavefront_nd(const NdFusionPlan& plan, int dim) {
    return plan.level == NdParallelism::Hyperplane && dim >= 2 &&
           plan.schedule[dim - 1] == 1;
}

bool needs_div_helpers_nd(const NdFusionPlan& plan, int dim) {
    return parallel_wavefront_nd(plan, dim) && plan.schedule[0] != 0;
}

/// The plan-specific half of the parallel runtime (see cemit
/// parallel_runtime_c): lane-range scans plus lf_fused_lane().
///
///   * OutermostCarried: the outermost loop carries every dependence, so
///     each v0 iteration is a round whose level-1 range is DOALL across
///     the lanes (inner levels stay nested inside the range function).
///   * Hyperplane with s[d-1] == 1: diagonals t = s . v are rounds; lanes
///     split the v0 range, inner levels scan freely and j is solved from
///     the hyperplane equation.
///   * Anything else degrades to lane 0 running the serial scan.
void emit_parallel_lanes_nd(std::ostringstream& os, const front::BasicProgram<VecN>& p,
                            const NdFusionPlan& plan, const MdDomain& dom,
                            const std::vector<int>& order) {
    const int dim = p.dim;
    std::vector<std::int64_t> lo;
    std::vector<std::int64_t> hi;
    fused_box(plan, dom, lo, hi);

    if (plan.level == NdParallelism::OutermostCarried && dim >= 2) {
        os << "/* Lane share of one outermost-carried slab: levels 2.." << dim - 1
           << " stay\n"
              " * nested; values are identical to the serial scan's. */\n"
              "static void lf_fused_slab(int64_t lo, int64_t hi, int64_t v0) {\n"
              "    for (int64_t " << var(1, dim) << " = lo; " << var(1, dim) << " <= hi; ++"
           << var(1, dim) << ") {\n";
        for (int k = 2; k < dim; ++k) {
            os << "    " << std::string(static_cast<std::size_t>(2 * k), ' ')
               << "for (int64_t " << var(k, dim) << " = " << lo[static_cast<std::size_t>(k)]
               << "; " << var(k, dim) << " <= " << hi[static_cast<std::size_t>(k)] << "; ++"
               << var(k, dim) << ") {\n";
        }
        const std::string ind = "    " + std::string(static_cast<std::size_t>(2 * dim), ' ');
        emit_guarded_bodies(os, p, plan, order, ind);
        for (int k = dim - 1; k >= 2; --k) {
            os << "    " << std::string(static_cast<std::size_t>(2 * k), ' ') << "}\n";
        }
        os << "    }\n}\n\n";
        os << "/* Outermost iterations are rounds: one barrier per v0. */\n"
              "static void lf_fused_lane(int lane) {\n"
              "    int my_sense = 0;\n"
              "    for (int64_t v0 = " << lo[0] << "; v0 <= " << hi[0] << "; ++v0) {\n"
              "        lf_lane_round(lane, " << lo[1] << ", " << hi[1]
           << ", v0, lf_fused_slab);\n"
              "        lf_barrier(&my_sense);\n"
              "    }\n"
              "}\n\n";
        return;
    }

    if (parallel_wavefront_nd(plan, dim)) {
        // t bounds over the fused box; "other" = every term except s0*v0,
        // for clamping the v0 lane range per diagonal.
        std::int64_t tlo = 0;
        std::int64_t thi = 0;
        for (int k = 0; k < dim; ++k) {
            const std::int64_t a = plan.schedule[k] * lo[static_cast<std::size_t>(k)];
            const std::int64_t b = plan.schedule[k] * hi[static_cast<std::size_t>(k)];
            tlo += std::min(a, b);
            thi += std::max(a, b);
        }
        std::int64_t other_min = lo[static_cast<std::size_t>(dim - 1)];
        std::int64_t other_max = hi[static_cast<std::size_t>(dim - 1)];
        for (int k = 1; k < dim - 1; ++k) {
            const std::int64_t a = plan.schedule[k] * lo[static_cast<std::size_t>(k)];
            const std::int64_t b = plan.schedule[k] * hi[static_cast<std::size_t>(k)];
            other_min += std::min(a, b);
            other_max += std::max(a, b);
        }
        const std::int64_t s0 = plan.schedule[0];
        os << "/* Lane share of one wavefront diagonal of s = " << plan.schedule.str()
           << ": the\n"
              " * innermost coordinate is solved from the hyperplane equation. */\n"
              "static void lf_fused_diag(int64_t lo, int64_t hi, int64_t t) {\n"
              "    for (int64_t v0 = lo; v0 <= hi; ++v0) {\n";
        for (int k = 1; k < dim - 1; ++k) {
            os << "    " << std::string(static_cast<std::size_t>(2 * k), ' ')
               << "for (int64_t " << var(k, dim) << " = " << lo[static_cast<std::size_t>(k)]
               << "; " << var(k, dim) << " <= " << hi[static_cast<std::size_t>(k)] << "; ++"
               << var(k, dim) << ") {\n";
        }
        const std::string deep =
            "    " + std::string(static_cast<std::size_t>(2 * (dim - 1)), ' ');
        os << deep << "const int64_t j = t";
        for (int k = 0; k < dim - 1; ++k) {
            os << " - (" << plan.schedule[k] << ") * " << var(k, dim);
        }
        os << ";\n";
        os << deep << "if (j < " << lo[static_cast<std::size_t>(dim - 1)] << " || j > "
           << hi[static_cast<std::size_t>(dim - 1)] << ") continue;\n";
        emit_guarded_bodies(os, p, plan, order, deep);
        for (int k = dim - 2; k >= 1; --k) {
            os << "    " << std::string(static_cast<std::size_t>(2 * k), ' ') << "}\n";
        }
        os << "    }\n}\n\n";
        os << "/* Diagonals are rounds, in t order, one barrier per diagonal. */\n"
              "static void lf_fused_lane(int lane) {\n"
              "    int my_sense = 0;\n"
              "    for (int64_t t = " << tlo << "; t <= " << thi << "; ++t) {\n"
              "        int64_t vlo = " << lo[0] << ";\n"
              "        int64_t vhi = " << hi[0] << ";\n";
        if (s0 > 0) {
            os << "        const int64_t clo = lf_ceil_div(t - (" << other_max << "), " << s0
               << ");\n"
                  "        const int64_t chi = lf_floor_div(t - (" << other_min << "), "
               << s0 << ");\n"
                  "        if (clo > vlo) vlo = clo;\n"
                  "        if (chi < vhi) vhi = chi;\n";
        } else if (s0 < 0) {
            os << "        const int64_t clo = lf_ceil_div(t - (" << other_min << "), " << s0
               << ");\n"
                  "        const int64_t chi = lf_floor_div(t - (" << other_max << "), "
               << s0 << ");\n"
                  "        if (clo > vlo) vlo = clo;\n"
                  "        if (chi < vhi) vhi = chi;\n";
        }
        os << "        lf_lane_round(lane, vlo, vhi, t, lf_fused_diag);\n"
              "        lf_barrier(&my_sense);\n"
              "    }\n"
              "}\n\n";
        return;
    }

    os << "/* No lane decomposition for this plan shape: lane 0 runs the serial\n"
          " * fused scan, the other lanes only keep the pool protocol. */\n"
          "static void lf_fused_lane(int lane) {\n"
          "    if (lane == 0) run_fused();\n"
          "}\n\n";
}

/// Formats "AT(<copy><name>, v0, ..., j)".
std::string at_ref(const std::string& copy, const std::string& name, int dim) {
    std::ostringstream os;
    os << "AT(" << copy << name;
    for (int k = 0; k < dim; ++k) os << ", " << var(k, dim);
    os << ')';
    return os.str();
}

void validate(const front::BasicProgram<VecN>& p, const NdFusionPlan& plan,
              const MdDomain& dom) {
    check(dom.dim() == p.dim, "emit_md_c: domain dimension mismatch");
    check(plan.retimed.num_nodes() == static_cast<int>(p.loops.size()),
          "emit_md_c: plan/program mismatch");
}

}  // namespace

std::string emit_md_c_program(const front::BasicProgram<VecN>& p, const NdFusionPlan& plan,
                              const MdDomain& dom) {
    validate(p, plan, dom);
    const auto order = exec::md_body_order(plan.retimed);
    check(order.has_value(), "emit_md_c_program: zero-dependence cycle in the retimed graph");

    const int dim = p.dim;
    std::ostringstream os;
    emit_prelude(os, p, dom, p.max_offset(), /*kernel_library=*/false);
    emit_run_original(os, p, dom);
    emit_run_fused(os, p, plan, dom, *order);
    os << cemit::parallel_runtime_c(needs_div_helpers_nd(plan, dim));
    emit_parallel_lanes_nd(os, p, plan, dom, *order);

    // main(): compare + checksum (cells outer, arrays inner).
    const std::vector<std::int64_t> zero_lo(static_cast<std::size_t>(dim), 0);
    os << "int main(void) {\n"
          "    const char* threads_env = getenv(\"LF_THREADS\");\n"
          "    const char* tile_env = getenv(\"LF_TILE\");\n"
          "    const char* cutoff_env = getenv(\"LF_CUTOFF\");\n"
          "    const int threads = threads_env != 0 ? atoi(threads_env) : 1;\n"
          "    lf_tile = tile_env != 0 ? atoll(tile_env) : 0;\n"
          "    lf_cutoff = cutoff_env != 0 ? atoll(cutoff_env) : 0;\n"
          "    if (threads > 1) (void)lf_pool_start(threads);\n"
          "    init();\n"
          "    run_original();\n"
          "    lf_run_fused_par();\n"
          "    if (threads > 1) lf_pool_stop();\n"
          "    double checksum = 0.0;\n";
    open_loops(os, zero_lo, dom.ext, dim, dim, "    ");
    const std::string ind = "    " + std::string(static_cast<std::size_t>(2 * dim), ' ');
    for (const std::string& name : p.written_arrays()) {
        const std::string o_ref = at_ref("orig_", name, dim);
        const std::string f_ref = at_ref("fused_", name, dim);
        os << ind << "if (" << o_ref << " != " << f_ref << ") {\n"
           << ind << "    printf(\"MISMATCH " << name << "\\n\");\n"
           << ind << "    return 1;\n" << ind << "}\n";
        os << ind << "checksum += " << o_ref << ";\n";
    }
    close_loops(os, dim, "    ");
    os << "    printf(\"OK %.17g\\n\", checksum);\n    return 0;\n}\n";
    return os.str();
}

std::string emit_md_c_kernel_library(const front::BasicProgram<VecN>& p,
                                     const NdFusionPlan& plan, const MdDomain& dom) {
    validate(p, plan, dom);
    const auto order = exec::md_body_order(plan.retimed);
    check(order.has_value(),
          "emit_md_c_kernel_library: zero-dependence cycle in the retimed graph");

    const int dim = p.dim;
    std::ostringstream os;
    emit_prelude(os, p, dom, p.max_offset(), /*kernel_library=*/true);
    emit_run_original(os, p, dom);
    emit_run_fused(os, p, plan, dom, *order);
    os << cemit::parallel_runtime_c(needs_div_helpers_nd(plan, dim));
    emit_parallel_lanes_nd(os, p, plan, dom, *order);

    os << "typedef struct {\n"
          "    double checksum_original;\n"
          "    double checksum_fused;\n"
          "    int64_t mismatches;\n"
          "    int64_t ns_original;\n"
          "    int64_t ns_fused;\n"
          "} lf_kernel_result;\n\n"
          "static int64_t lf_now_ns(void) {\n"
          "    struct timespec ts;\n"
          "    clock_gettime(CLOCK_MONOTONIC, &ts);\n"
          "    return (int64_t)ts.tv_sec * 1000000000LL + (int64_t)ts.tv_nsec;\n"
          "}\n\n";

    // The comparison accumulates cells outer, arrays inner -- exactly the
    // order expected_md_c_checksum uses.
    const std::vector<std::int64_t> zero_lo(static_cast<std::size_t>(dim), 0);
    const auto emit_compare = [&]() {
        os << "    double checksum_original = 0.0;\n"
              "    double checksum_fused = 0.0;\n"
              "    int64_t mismatches = 0;\n";
        open_loops(os, zero_lo, dom.ext, dim, dim, "    ");
        const std::string ind = "    " + std::string(static_cast<std::size_t>(2 * dim), ' ');
        for (const std::string& name : p.written_arrays()) {
            const std::string o_ref = at_ref("orig_", name, dim);
            const std::string f_ref = at_ref("fused_", name, dim);
            os << ind << "if (" << o_ref << " != " << f_ref << ") ++mismatches;\n";
            os << ind << "checksum_original += " << o_ref << ";\n";
            os << ind << "checksum_fused += " << f_ref << ";\n";
        }
        close_loops(os, dim, "    ");
        os << "    out->checksum_original = checksum_original;\n"
              "    out->checksum_fused = checksum_fused;\n"
              "    out->mismatches = mismatches;\n"
              "    out->ns_original = ns_original;\n"
              "    out->ns_fused = ns_fused;\n"
              "    return 0;\n}\n";
    };

    // The exported entry points the sandbox worker dlsym()s. Each rep
    // starts both variants from a fresh init() sweep (so neither gets a
    // cache-warmth handicap and every rep recomputes the same values);
    // per-form wall time is the minimum over reps (cemit::timing_reps_c).
    os << "int lf_kernel_run(lf_kernel_result* out) {\n"
       << cemit::timing_reps_c("run_fused");
    emit_compare();

    // ABI v2: the same differential contract with the fused form executed
    // by the persistent worker pool. Threads / tile / cutoff are runtime
    // parameters; the thread count must not change a single result bit
    // (the sandbox verifies checksum invariance across counts).
    os << "\nint lf_kernel_run_par(const lf_kernel_params* params,"
          " lf_kernel_result* out) {\n"
          "    const int threads = params != 0 ? (int)params->threads : 1;\n"
          "    lf_tile = params != 0 ? (int64_t)params->tile : 0;\n"
          "    lf_cutoff = params != 0 ? params->serial_cutoff : 0;\n"
          "    if (threads > 1) (void)lf_pool_start(threads);\n"
       << cemit::timing_reps_c("lf_run_fused_par")
       << "    if (threads > 1) lf_pool_stop();\n";
    emit_compare();
    return os.str();
}

std::string expected_md_c_checksum(const front::BasicProgram<VecN>& p, const MdDomain& dom) {
    exec::MdArrayStore store(p, dom);
    (void)exec::run_original_md(p, dom, store);
    std::vector<const std::vector<double>*> written;
    for (const std::string& name : p.written_arrays()) written.push_back(&store.cells(name));
    // Cells outer, arrays inner (matching the C accumulation order).
    double checksum = 0.0;
    const std::vector<std::int64_t> lo(static_cast<std::size_t>(p.dim), 0);
    if (std::all_of(dom.ext.begin(), dom.ext.end(), [](std::int64_t e) { return e >= 0; })) {
        std::vector<std::int64_t> cell = lo;
        do {
            const std::size_t at = store.index(cell);
            for (const std::vector<double>* cells : written) checksum += (*cells)[at];
        } while (exec::next_point(cell, lo, dom.ext));
    }
    return cemit::format_checksum(checksum);
}

}  // namespace lf::transform
