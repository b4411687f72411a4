#include "transform/codegen_c.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "exec/engines.hpp"
#include "exec/store.hpp"
#include "support/cemit.hpp"
#include "support/diagnostics.hpp"

namespace lf::transform {

namespace {

std::string c_ref(const std::string& prefix, const ir::ArrayRef& ref, const Vec2& shift) {
    std::ostringstream os;
    os << prefix << ref.array << '(' << cemit::index_with_offset("i", ref.offset.x + shift.x)
       << ", " << cemit::index_with_offset("j", ref.offset.y + shift.y) << ')';
    return os.str();
}

/// The shared expression printer's view of the Figure-1 IR node types.
struct IrDialect {
    using Expr = ir::Expr;
    using Literal = ir::LiteralExpr;
    using Read = ir::ReadExpr;
    using Unary = ir::UnaryExpr;
    using Binary = ir::BinaryExpr;
};

/// `shift` applies the retiming offset and `prefix` selects the array copy
/// ("o_" original, "f_" fused).
std::string c_statement(const ir::Statement& s, const std::string& prefix, const Vec2& shift) {
    std::ostringstream os;
    os << c_ref(prefix, s.target, shift) << " = ";
    cemit::emit_expr<IrDialect>(os, *s.value, [&](std::ostringstream& o, const ir::ReadExpr& r) {
        o << c_ref(prefix, r.ref(), shift);
    });
    os << ';';
    return os.str();
}

/// An OpenMP pragma that stays -Wall -Werror clean when compiled without
/// -fopenmp (GCC's -Wunknown-pragmas would otherwise flag it).
void emit_omp_pragma(std::ostringstream& os, const std::string& indent) {
    os << "#if defined(_OPENMP)\n" << indent << "#pragma omp parallel for\n#endif\n";
}

/// Shared prelude: includes, domain enums, boundary_value, the two array
/// copies and init(). `kernel_library` picks <time.h> over <stdio.h>.
void emit_prelude(std::ostringstream& os, const ir::Program& p, const Domain& dom,
                  std::int64_t halo, bool kernel_library) {
    if (kernel_library) {
        os << "/* Generated by loopfusion: kernel library for '" << p.name
           << "' (original vs fused).\n"
              " * Compile: cc -O2 -fPIC -shared -pthread -o kernel.so this_file.c\n"
              " * Exports: int lf_kernel_run(lf_kernel_result*) and the ABI v2\n"
              " * int lf_kernel_run_par(const lf_kernel_params*, lf_kernel_result*),\n"
              " * see src/exec/runner.hpp. */\n"
              "#include <stdint.h>\n#include <time.h>\n"
           << cemit::parallel_runtime_includes_c() << '\n';
    } else {
        os << "/* Generated by loopfusion: original vs fused '" << p.name
           << "', self-verifying.\n"
              " * Compile: cc -O2 -pthread -o check this_file.c\n"
              " * Run with LF_THREADS=N (and optionally LF_TILE / LF_CUTOFF) for\n"
              " * the threaded fused scan; -fopenmp remains a serial-main "
              "fallback. */\n"
              "#include <stdint.h>\n#include <stdio.h>\n#include <stdlib.h>\n"
           << cemit::parallel_runtime_includes_c() << '\n';
    }
    os << "enum { NN = " << dom.n << ", MM = " << dom.m << ", H = " << halo << " };\n";
    os << "enum { ROWS = NN + 2 * H + 1, COLS = MM + 2 * H + 1 };\n\n";

    os << "/* Deterministic boundary values, bit-identical to the library's\n"
          " * exec::ArrayStore::boundary_value (splitmix64-style mixing). */\n"
          "static double boundary_value(uint64_t h, int64_t i, int64_t j) {\n"
          "    h ^= (uint64_t)i * 0x9e3779b97f4a7c15ULL;\n"
          "    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;\n"
          "    h ^= (uint64_t)j * 0x94d049bb133111ebULL;\n"
          "    h = (h ^ (h >> 27)) * 0x2545f4914f6cdd1dULL;\n"
          "    h ^= h >> 31;\n"
          "    return (double)(h % 2000001ULL) / 1000000.0 - 1.0;\n"
          "}\n\n";

    const auto arrays = p.arrays();
    for (const std::string& name : arrays) {
        os << "static double orig_" << name << "[ROWS][COLS];\n";
        os << "static double fused_" << name << "[ROWS][COLS];\n";
        os << "#define o_" << name << "(ii, jj) orig_" << name << "[(ii) + H][(jj) + H]\n";
        os << "#define f_" << name << "(ii, jj) fused_" << name << "[(ii) + H][(jj) + H]\n";
    }
    os << '\n';

    // Initialization: both copies get identical boundary values. The name
    // hash is computed host-side (std::hash is not portable to C).
    os << "static void init(void) {\n"
          "    for (int64_t i = -H; i <= NN + H; ++i) {\n"
          "        for (int64_t j = -H; j <= MM + H; ++j) {\n";
    for (const std::string& name : arrays) {
        const auto seed = static_cast<std::uint64_t>(std::hash<std::string>{}(name));
        os << "            o_" << name << "(i, j) = f_" << name << "(i, j) = boundary_value("
           << seed << "ULL, i, j);\n";
    }
    os << "        }\n    }\n}\n\n";
}

/// Original program, as written: the source nests are siblings inside one
/// shared outer i loop (the paper's Figure-1 shape -- this nesting is what
/// lets the MLDG carry cyclic dependences between loops), so each row runs
/// every nest's inner j sweep in source order.
void emit_run_original(std::ostringstream& os, const ir::Program& p) {
    os << "static void run_original(void) {\n"
          "    for (int64_t i = 0; i <= NN; ++i) {\n";
    for (const ir::LoopNest& loop : p.loops) {
        os << "        /* loop " << loop.label << " */\n";
        os << "        for (int64_t j = 0; j <= MM; ++j) {\n";
        for (const ir::Statement& s : loop.body) {
            os << "            " << c_statement(s, "o_", Vec2{0, 0}) << '\n';
        }
        os << "        }\n";
    }
    os << "    }\n}\n\n";
}

/// The guarded fused bodies at one iteration point (i, j already in scope).
void emit_fused_bodies(std::ostringstream& os, const FusedProgram& fp,
                       const std::string& indent) {
    for (const FusedLoopBody& body : fp.bodies) {
        const Vec2 r = body.retiming;
        os << indent << "/* loop " << body.label << ", r = " << r.str() << " */\n";
        os << indent << "if (" << -r.x << " <= i && i <= NN - " << r.x << " + 0"
           << " && " << -r.y << " <= j && j <= MM - " << r.y << " + 0) {\n";
        for (const ir::Statement& s : body.statements) {
            os << indent << "    " << c_statement(s, "f_", r) << '\n';
        }
        os << indent << "}\n";
    }
}

/// The fused bodies with no guards: only emitted where every body's retimed
/// range is statically known to contain (i, j).
void emit_fused_bodies_unguarded(std::ostringstream& os, const FusedProgram& fp,
                                 const std::string& indent) {
    for (const FusedLoopBody& body : fp.bodies) {
        os << indent << "/* loop " << body.label << ", r = " << body.retiming.str() << " */\n";
        for (const ir::Statement& s : body.statements) {
            os << indent << c_statement(s, "f_", body.retiming) << '\n';
        }
    }
}

/// Fused-point scan bounds: the full box and the interior intersection of
/// every body's retimed iteration range (inside it all guards are
/// statically true). Shared by the serial split scan and the lane-range
/// functions of the parallel runtime.
struct ScanBounds {
    std::int64_t ilo, ihi, jlo, jhi;
    std::int64_t in_ilo, in_ihi, in_jlo, in_jhi;
    bool split = false;
};

ScanBounds scan_bounds(const FusedProgram& fp, const Domain& dom) {
    // One fringe model for planner and emitters: cemit::fringe_bounds is
    // exactly the union-box / interior-intersection computation this
    // function historically inlined (bit-identical bounds).
    std::vector<std::int64_t> sx;
    std::vector<std::int64_t> sy;
    sx.reserve(fp.bodies.size());
    sy.reserve(fp.bodies.size());
    for (const FusedLoopBody& body : fp.bodies) {
        sx.push_back(body.retiming.x);
        sy.push_back(body.retiming.y);
    }
    const cemit::FringeBounds bi = cemit::fringe_bounds(sx, dom.n);
    const cemit::FringeBounds bj = cemit::fringe_bounds(sy, dom.m);
    ScanBounds b{};
    b.ilo = bi.lo;
    b.ihi = bi.hi;
    b.jlo = bj.lo;
    b.jhi = bj.hi;
    b.in_ilo = bi.in_lo;
    b.in_ihi = bi.in_hi;
    b.in_jlo = bj.in_lo;
    b.in_jhi = bj.in_hi;
    b.split = bi.nonempty_interior() && bj.nonempty_interior();
    return b;
}

/// The guarded lexicographic scan (always legal: the retimed dependences
/// are lexicographically non-negative), split into fringe and interior.
/// Rows and columns where every body is inside its retimed range -- all but
/// a halo-wide border -- run the bodies with no per-point guards at all;
/// the border keeps the guarded form. The split only statically resolves
/// guards, so the execution order is exactly the plain guarded scan's.
void emit_fused_sequential_scan(std::ostringstream& os, const FusedProgram& fp,
                                const Domain& dom, bool doall_rows) {
    const ScanBounds b = scan_bounds(fp, dom);
    const std::int64_t ilo = b.ilo, ihi = b.ihi, jlo = b.jlo, jhi = b.jhi;
    const std::int64_t in_ilo = b.in_ilo, in_ihi = b.in_ihi;
    const std::int64_t in_jlo = b.in_jlo, in_jhi = b.in_jhi;
    const bool split = b.split;

    os << "    for (int64_t i = " << ilo << "; i <= " << ihi << "; ++i) {\n";
    if (split) {
        os << "        if (" << in_ilo << " <= i && i <= " << in_ihi << ") {\n";
        if (in_jlo > jlo) {
            os << "            for (int64_t j = " << jlo << "; j < " << in_jlo
               << "; ++j) {\n";
            emit_fused_bodies(os, fp, "                ");
            os << "            }\n";
        }
        if (doall_rows) emit_omp_pragma(os, "        ");
        os << "            for (int64_t j = " << in_jlo << "; j <= " << in_jhi
           << "; ++j) {\n";
        emit_fused_bodies_unguarded(os, fp, "                ");
        os << "            }\n";
        if (in_jhi < jhi) {
            os << "            for (int64_t j = " << in_jhi + 1 << "; j <= " << jhi
               << "; ++j) {\n";
            emit_fused_bodies(os, fp, "                ");
            os << "            }\n";
        }
        os << "        } else {\n";
        if (doall_rows) emit_omp_pragma(os, "        ");
        os << "            for (int64_t j = " << jlo << "; j <= " << jhi << "; ++j) {\n";
        emit_fused_bodies(os, fp, "                ");
        os << "            }\n        }\n";
    } else {
        if (doall_rows) emit_omp_pragma(os, "    ");
        os << "        for (int64_t j = " << jlo << "; j <= " << jhi << "; ++j) {\n";
        emit_fused_bodies(os, fp, "            ");
        os << "        }\n";
    }
    os << "    }\n";
}

/// Fused program. InnerDoall plans get the split scan with a parallel-for
/// on each interior row; Hyperplane plans (schedule s = (s1, 1)) get a dual
/// emission: under _OPENMP a wavefront over t = s1*i + j whose hyperplanes
/// are DOALL, otherwise the cache-friendly sequential lexicographic scan.
void emit_run_fused(std::ostringstream& os, const FusedProgram& fp, const Domain& dom) {
    os << "static void run_fused(void) {\n";
    const bool wavefront = fp.level == ParallelismLevel::Hyperplane && fp.schedule.y == 1;
    if (wavefront) {
        const std::int64_t sx = fp.schedule.x;
        const std::int64_t ilo = fp.point_i_lo();
        const std::int64_t ihi = fp.point_i_hi(dom);
        const std::int64_t jlo = fp.point_j_lo();
        const std::int64_t jhi = fp.point_j_hi(dom);
        const std::int64_t tlo = std::min(sx * ilo, sx * ihi) + jlo;
        const std::int64_t thi = std::max(sx * ilo, sx * ihi) + jhi;
        os << "#if defined(_OPENMP)\n"
              "    /* Wavefront for schedule s = "
           << fp.schedule.str() << ": all points with " << sx
           << "*i + j == t are\n"
              "     * independent; hyperplanes run in t order, one barrier each. */\n";
        os << "    for (int64_t t = " << tlo << "; t <= " << thi << "; ++t) {\n";
        os << "        #pragma omp parallel for\n";
        os << "        for (int64_t i = " << ilo << "; i <= " << ihi << "; ++i) {\n";
        os << "            const int64_t j = t - (" << sx << ") * i;\n";
        os << "            if (j < " << jlo << " || j > " << jhi << ") continue;\n";
        emit_fused_bodies(os, fp, "            ");
        os << "        }\n    }\n#else\n";
        emit_fused_sequential_scan(os, fp, dom, /*doall_rows=*/false);
        os << "#endif\n";
    } else {
        emit_fused_sequential_scan(os, fp, dom,
                                   fp.level == ParallelismLevel::InnerDoall);
    }
    os << "}\n\n";
}

/// True when the plan's wavefront can be lane-decomposed (hyperplane with
/// schedule s = (s1, 1): j is determined per (t, i)).
bool parallel_wavefront(const FusedProgram& fp) {
    return fp.level == ParallelismLevel::Hyperplane && fp.schedule.y == 1;
}

/// The clamped lane ranges need floor/ceil division only when i actually
/// appears in the hyperplane equation.
bool needs_div_helpers(const FusedProgram& fp) {
    return parallel_wavefront(fp) && fp.schedule.x != 0;
}

/// The plan-specific half of the parallel runtime: the lane-range scan
/// (one row of the DOALL scan / one diagonal span of the wavefront) and
/// lf_fused_lane(), the per-lane body of one fused run. Plans with no lane
/// decomposition (unfused fallback, hyperplane with s2 != 1) degrade to
/// lane 0 running the serial scan -- still thread-count-invariant.
void emit_parallel_lanes(std::ostringstream& os, const FusedProgram& fp,
                         const Domain& dom) {
    if (fp.level == ParallelismLevel::InnerDoall) {
        const ScanBounds b = scan_bounds(fp, dom);
        os << "/* Lane share of one DOALL row: guard resolution and cell values\n"
              " * are identical to the serial split scan, restricted to [lo, hi]. */\n"
              "static void lf_fused_row(int64_t lo, int64_t hi, int64_t i) {\n";
        if (b.split) {
            os << "    if (" << b.in_ilo << " <= i && i <= " << b.in_ihi << ") {\n";
            os << "        {\n"
                  "            const int64_t e = hi < " << b.in_jlo - 1 << " ? hi : "
               << b.in_jlo - 1 << ";\n"
                  "            for (int64_t j = lo; j <= e; ++j) {\n";
            emit_fused_bodies(os, fp, "                ");
            os << "            }\n        }\n";
            os << "        {\n"
                  "            const int64_t s = lo > " << b.in_jlo << " ? lo : "
               << b.in_jlo << ";\n"
                  "            const int64_t e = hi < " << b.in_jhi << " ? hi : "
               << b.in_jhi << ";\n"
                  "            for (int64_t j = s; j <= e; ++j) {\n";
            emit_fused_bodies_unguarded(os, fp, "                ");
            os << "            }\n        }\n";
            os << "        {\n"
                  "            const int64_t s = lo > " << b.in_jhi + 1 << " ? lo : "
               << b.in_jhi + 1 << ";\n"
                  "            for (int64_t j = s; j <= hi; ++j) {\n";
            emit_fused_bodies(os, fp, "                ");
            os << "            }\n        }\n";
            os << "    } else {\n"
                  "        for (int64_t j = lo; j <= hi; ++j) {\n";
            emit_fused_bodies(os, fp, "            ");
            os << "        }\n    }\n";
        } else {
            os << "    for (int64_t j = lo; j <= hi; ++j) {\n";
            emit_fused_bodies(os, fp, "        ");
            os << "    }\n";
        }
        os << "}\n\n";
        os << "/* Rows are rounds: the outer loop carries every dependence, each\n"
              " * inner row is DOALL across the lanes, one barrier per row. */\n"
              "static void lf_fused_lane(int lane) {\n"
              "    int my_sense = 0;\n"
              "    for (int64_t i = " << b.ilo << "; i <= " << b.ihi << "; ++i) {\n"
              "        lf_lane_round(lane, " << b.jlo << ", " << b.jhi
           << ", i, lf_fused_row);\n"
              "        lf_barrier(&my_sense);\n"
              "    }\n"
              "}\n\n";
        return;
    }
    if (parallel_wavefront(fp)) {
        const ScanBounds b = scan_bounds(fp, dom);
        const std::int64_t sx = fp.schedule.x;
        const std::int64_t tlo = std::min(sx * b.ilo, sx * b.ihi) + b.jlo;
        const std::int64_t thi = std::max(sx * b.ilo, sx * b.ihi) + b.jhi;
        os << "/* Lane share of one wavefront diagonal: all points with " << sx
           << "*i + j == t\n"
              " * are independent (schedule s = " << fp.schedule.str() << "). */\n"
              "static void lf_fused_diag(int64_t lo, int64_t hi, int64_t t) {\n"
              "    for (int64_t i = lo; i <= hi; ++i) {\n"
              "        const int64_t j = t - (" << sx << ") * i;\n"
              "        if (j < " << b.jlo << " || j > " << b.jhi << ") continue;\n";
        emit_fused_bodies(os, fp, "        ");
        os << "    }\n}\n\n";
        os << "/* Diagonals are rounds, in t order, one barrier per diagonal. */\n"
              "static void lf_fused_lane(int lane) {\n"
              "    int my_sense = 0;\n"
              "    for (int64_t t = " << tlo << "; t <= " << thi << "; ++t) {\n"
              "        int64_t ilo = " << b.ilo << ";\n"
              "        int64_t ihi = " << b.ihi << ";\n";
        if (sx > 0) {
            os << "        const int64_t clo = lf_ceil_div(t - (" << b.jhi << "), " << sx
               << ");\n"
                  "        const int64_t chi = lf_floor_div(t - (" << b.jlo << "), " << sx
               << ");\n"
                  "        if (clo > ilo) ilo = clo;\n"
                  "        if (chi < ihi) ihi = chi;\n";
        } else if (sx < 0) {
            os << "        const int64_t clo = lf_ceil_div(t - (" << b.jlo << "), " << sx
               << ");\n"
                  "        const int64_t chi = lf_floor_div(t - (" << b.jhi << "), " << sx
               << ");\n"
                  "        if (clo > ilo) ilo = clo;\n"
                  "        if (chi < ihi) ihi = chi;\n";
        }
        os << "        lf_lane_round(lane, ilo, ihi, t, lf_fused_diag);\n"
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

}  // namespace

std::string emit_c_program(const ir::Program& p, const FusedProgram& fp, const Domain& dom) {
    const std::int64_t halo = p.max_offset();
    std::ostringstream os;
    emit_prelude(os, p, dom, halo, /*kernel_library=*/false);
    emit_run_original(os, p);
    emit_run_fused(os, fp, dom);
    os << cemit::parallel_runtime_c(needs_div_helpers(fp));
    emit_parallel_lanes(os, fp, dom);

    // Comparison + checksum over the written arrays' domain cells.
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
          "    double checksum = 0.0;\n"
          "    for (int64_t i = 0; i <= NN; ++i) {\n"
          "        for (int64_t j = 0; j <= MM; ++j) {\n";
    for (const std::string& name : p.written_arrays()) {
        os << "            if (o_" << name << "(i, j) != f_" << name << "(i, j)) {\n"
           << "                printf(\"MISMATCH " << name
           << "[%lld][%lld]: %.17g != %.17g\\n\", (long long)i, (long long)j, o_" << name
           << "(i, j), f_" << name << "(i, j));\n"
           << "                return 1;\n            }\n";
        os << "            checksum += o_" << name << "(i, j);\n";
    }
    os << "        }\n    }\n"
          "    printf(\"OK %.17g\\n\", checksum);\n"
          "    return 0;\n}\n";
    return os.str();
}

std::string emit_c_kernel_library(const ir::Program& p, const FusedProgram& fp,
                                  const Domain& dom) {
    const std::int64_t halo = p.max_offset();
    std::ostringstream os;
    emit_prelude(os, p, dom, halo, /*kernel_library=*/true);
    emit_run_original(os, p);
    emit_run_fused(os, fp, dom);
    os << cemit::parallel_runtime_c(needs_div_helpers(fp));
    emit_parallel_lanes(os, fp, dom);

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
    // order expected_c_checksum uses.
    const auto emit_compare = [&os, &p]() {
        os << "    double checksum_original = 0.0;\n"
              "    double checksum_fused = 0.0;\n"
              "    int64_t mismatches = 0;\n"
              "    for (int64_t i = 0; i <= NN; ++i) {\n"
              "        for (int64_t j = 0; j <= MM; ++j) {\n";
        for (const std::string& name : p.written_arrays()) {
            os << "            if (o_" << name << "(i, j) != f_" << name
               << "(i, j)) ++mismatches;\n";
            os << "            checksum_original += o_" << name << "(i, j);\n";
            os << "            checksum_fused += f_" << name << "(i, j);\n";
        }
        os << "        }\n    }\n"
              "    out->checksum_original = checksum_original;\n"
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

std::string expected_c_checksum(const ir::Program& p, const Domain& dom) {
    exec::ArrayStore store(p, dom);
    (void)exec::run_original(p, dom, store);
    // Accumulate in exactly the order the emitted C program does (cells
    // outer, arrays inner): floating-point addition is order-sensitive.
    std::vector<const exec::Array2D*> written;
    for (const std::string& name : p.written_arrays()) written.push_back(&store.array(name));
    double checksum = 0.0;
    for (std::int64_t i = 0; i <= dom.n; ++i) {
        for (std::int64_t j = 0; j <= dom.m; ++j) {
            for (const exec::Array2D* a : written) checksum += a->at(i, j);
        }
    }
    return cemit::format_checksum(checksum);
}

}  // namespace lf::transform
