#include "exec/engines.hpp"

#include <algorithm>
#include <barrier>
#include <thread>
#include <vector>

#include "exec/interp.hpp"
#include "support/diagnostics.hpp"

namespace lf::exec {

namespace {

/// Resolves the fused program's bodies, in fused body order, against `store`.
ResolvedProgram resolve_fused(const transform::FusedProgram& fp, ArrayStore& store) {
    ResolvedProgram rp(store);
    for (const transform::FusedLoopBody& b : fp.bodies) rp.add_body(b.statements, b.retiming);
    return rp;
}

/// Resolves the original program's loops, in program order, against `store`.
ResolvedProgram resolve_original(const ir::Program& p, ArrayStore& store) {
    ResolvedProgram rp(store);
    for (const ir::LoopNest& loop : p.loops) rp.add_body(loop.body, Vec2{0, 0});
    return rp;
}

/// Executes all active bodies at fused point (pi, pj), in body order.
std::int64_t run_point(Evaluator& ev, const std::int64_t* ext, std::int64_t pi,
                       std::int64_t pj) {
    const std::int64_t p[2] = {pi, pj};
    std::int64_t instances = 0;
    for (int b = 0; b < ev.program().num_bodies(); ++b) instances += ev.run_at(b, p, ext);
    return instances;
}

ExecStats from_sweep(const SweepStats& s) { return ExecStats{s.barriers, s.instances, s.barriers}; }

}  // namespace

ExecStats run_original(const ir::Program& p, const Domain& dom, ArrayStore& store) {
    const ResolvedProgram rp = resolve_original(p, store);
    Evaluator ev(rp);
    return from_sweep(sweep_original(ev, {dom.n, dom.m}));
}

ExecStats run_fused_rowwise(const transform::FusedProgram& fp, const Domain& dom,
                            ArrayStore& store) {
    const ResolvedProgram rp = resolve_fused(fp, store);
    Evaluator ev(rp);
    const std::int64_t ext[2] = {dom.n, dom.m};
    ExecStats stats;
    const std::int64_t jlo = fp.point_j_lo(), jhi = fp.point_j_hi(dom);
    for (std::int64_t pi = fp.point_i_lo(); pi <= fp.point_i_hi(dom); ++pi) {
        std::int64_t row_instances = 0;
        for (std::int64_t pj = jlo; pj <= jhi; ++pj) {
            row_instances += run_point(ev, ext, pi, pj);
        }
        if (row_instances > 0) {
            stats.instances += row_instances;
            ++stats.barriers;  // one barrier terminates each fused row
        }
    }
    stats.phases = stats.barriers;
    return stats;
}

ExecStats run_wavefront(const transform::FusedProgram& fp, const Domain& dom, ArrayStore& store) {
    const ResolvedProgram rp = resolve_fused(fp, store);
    Evaluator ev(rp);
    return from_sweep(sweep_wavefront(ev, {fp.schedule.x, fp.schedule.y}, {dom.n, dom.m}));
}

ExecStats run_fused_blocked(const transform::FusedProgram& fp, const Domain& dom,
                            ArrayStore& store, int processors) {
    check(processors >= 1, "run_fused_blocked: need at least one processor");
    const ResolvedProgram rp = resolve_fused(fp, store);
    Evaluator ev(rp);
    const std::int64_t ext[2] = {dom.n, dom.m};
    ExecStats stats;
    const std::int64_t jlo = fp.point_j_lo(), jhi = fp.point_j_hi(dom);
    const std::int64_t width = jhi - jlo + 1;
    const std::int64_t block = (width + processors - 1) / processors;
    for (std::int64_t pi = fp.point_i_lo(); pi <= fp.point_i_hi(dom); ++pi) {
        std::int64_t row_instances = 0;
        for (int proc = 0; proc < processors; ++proc) {
            store.set_trace_processor(static_cast<std::int16_t>(proc));
            const std::int64_t my_lo = jlo + proc * block;
            const std::int64_t my_hi = std::min(jhi, my_lo + block - 1);
            for (std::int64_t pj = my_lo; pj <= my_hi; ++pj) {
                row_instances += run_point(ev, ext, pi, pj);
            }
        }
        if (row_instances > 0) {
            stats.instances += row_instances;
            ++stats.barriers;
        }
    }
    store.set_trace_processor(-1);
    stats.phases = stats.barriers;
    return stats;
}

ExecStats run_original_blocked(const ir::Program& p, const Domain& dom, ArrayStore& store,
                               int processors) {
    check(processors >= 1, "run_original_blocked: need at least one processor");
    const ResolvedProgram rp = resolve_original(p, store);
    Evaluator ev(rp);
    ExecStats stats;
    const std::int64_t block = (dom.cols() + processors - 1) / processors;
    for (std::int64_t i = 0; i <= dom.n; ++i) {
        for (int loop = 0; loop < rp.num_bodies(); ++loop) {
            for (int proc = 0; proc < processors; ++proc) {
                store.set_trace_processor(static_cast<std::int16_t>(proc));
                const std::int64_t my_lo = proc * block;
                const std::int64_t my_hi = std::min(dom.m, my_lo + block - 1);
                for (std::int64_t j = my_lo; j <= my_hi; ++j) {
                    const std::int64_t q[2] = {i, j};
                    stats.instances += ev.run(loop, q);
                }
            }
            ++stats.barriers;
        }
    }
    store.set_trace_processor(-1);
    stats.phases = stats.barriers;
    return stats;
}

ExecStats run_fused_peeled(const transform::FusedProgram& fp, const Domain& dom,
                           ArrayStore& store) {
    check(fp.level == ParallelismLevel::InnerDoall,
          "run_fused_peeled: only inner-DOALL plans have a row-peeled form");
    const ResolvedProgram rp = resolve_fused(fp, store);
    Evaluator ev(rp);
    const std::int64_t ext[2] = {dom.n, dom.m};
    ExecStats stats;
    const std::int64_t ilo = fp.point_i_lo(), ihi = fp.point_i_hi(dom);
    const std::int64_t main_ilo = fp.main_i_lo(), main_ihi = fp.main_i_hi(dom);
    const std::int64_t jlo_all = fp.point_j_lo(), jhi_all = fp.point_j_hi(dom);
    const std::int64_t main_jlo = fp.main_j_lo(), main_jhi = fp.main_j_hi(dom);
    const bool has_steady = main_ilo <= main_ihi && main_jlo <= main_jhi;

    // Executes one row as a sequence of stand-alone per-body DOALL loops
    // (the prologue/epilogue row form): one barrier per active body.
    auto run_row_per_body = [&](std::int64_t pi) {
        for (int b = 0; b < rp.num_bodies(); ++b) {
            const Vec2 r = fp.bodies[static_cast<std::size_t>(b)].retiming;
            const std::int64_t qi = pi + r.x;
            if (qi < 0 || qi > dom.n) continue;
            for (std::int64_t qj = 0; qj <= dom.m; ++qj) {
                const std::int64_t q[2] = {qi, qj};
                stats.instances += ev.run(b, q);
            }
            ++stats.barriers;
        }
    };

    for (std::int64_t pi = ilo; pi <= ihi; ++pi) {
        if (!has_steady || pi < main_ilo || pi > main_ihi) {
            run_row_per_body(pi);
            continue;
        }
        // Steady-state row: j-prologue peels (serial, per body) ...
        for (int b = 0; b < rp.num_bodies(); ++b) {
            const std::int64_t b_lo = -fp.bodies[static_cast<std::size_t>(b)].retiming.y;
            for (std::int64_t pj = std::max(b_lo, jlo_all); pj < main_jlo; ++pj) {
                const std::int64_t p[2] = {pi, pj};
                stats.instances += ev.run_at(b, p, ext);
            }
        }
        // ... the fused DOALL core (one barrier) ...
        for (std::int64_t pj = main_jlo; pj <= main_jhi; ++pj) {
            stats.instances += run_point(ev, ext, pi, pj);
        }
        // ... and j-epilogue peels.
        for (int b = 0; b < rp.num_bodies(); ++b) {
            const std::int64_t b_hi = dom.m - fp.bodies[static_cast<std::size_t>(b)].retiming.y;
            for (std::int64_t pj = main_jhi + 1; pj <= std::min(b_hi, jhi_all); ++pj) {
                const std::int64_t p[2] = {pi, pj};
                stats.instances += ev.run_at(b, p, ext);
            }
        }
        ++stats.barriers;
    }
    stats.phases = stats.barriers;
    return stats;
}

ExecStats run_fused_threaded(const transform::FusedProgram& fp, const Domain& dom,
                             ArrayStore& store, int num_threads) {
    check(fp.level == ParallelismLevel::InnerDoall,
          "run_fused_threaded: plan's fused rows are not DOALL; use run_wavefront");
    check(!store.tracing(), "run_fused_threaded: tracing is single-threaded only");
    check(!store.order_checking(), "run_fused_threaded: order checking is single-threaded only");
    check(num_threads >= 1, "run_fused_threaded: need at least one thread");

    const ResolvedProgram rp = resolve_fused(fp, store);
    const std::int64_t ext[2] = {dom.n, dom.m};
    const std::int64_t ilo = fp.point_i_lo(), ihi = fp.point_i_hi(dom);
    const std::int64_t jlo = fp.point_j_lo(), jhi = fp.point_j_hi(dom);
    const std::int64_t width = jhi - jlo + 1;

    std::atomic<std::int64_t> instances{0};
    std::barrier row_barrier(num_threads);

    auto worker = [&](int tid) {
        // Static partition of the j-range.
        const std::int64_t chunk = (width + num_threads - 1) / num_threads;
        const std::int64_t my_lo = jlo + tid * chunk;
        const std::int64_t my_hi = std::min(jhi, my_lo + chunk - 1);
        Evaluator ev(rp);  // per thread: its own operand stack and meter counts
        std::int64_t my_instances = 0;
        for (std::int64_t pi = ilo; pi <= ihi; ++pi) {
            for (std::int64_t pj = my_lo; pj <= my_hi; ++pj) {
                my_instances += run_point(ev, ext, pi, pj);
            }
            row_barrier.arrive_and_wait();  // end-of-row synchronization
        }
        instances.fetch_add(my_instances, std::memory_order_relaxed);
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
    for (auto& t : threads) t.join();

    ExecStats stats;
    stats.instances = instances.load();
    stats.barriers = ihi - ilo + 1;  // one barrier per fused row
    stats.phases = stats.barriers;
    return stats;
}

}  // namespace lf::exec
