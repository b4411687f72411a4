#include "exec/engines_nd.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/dependence.hpp"
#include "exec/interp.hpp"
#include "support/diagnostics.hpp"

namespace lf::exec {

std::optional<std::vector<int>> md_body_order(const MldgN& retimed) {
    const int n = retimed.num_nodes();
    std::vector<std::vector<int>> succ(static_cast<std::size_t>(n));
    std::vector<int> indegree(static_cast<std::size_t>(n), 0);
    for (const auto& e : retimed.edges()) {
        if (e.from == e.to) continue;
        const bool same_point = std::any_of(e.vectors.begin(), e.vectors.end(),
                                            [](const VecN& d) { return d.is_zero(); });
        if (!same_point) continue;
        succ[static_cast<std::size_t>(e.from)].push_back(e.to);
        ++indegree[static_cast<std::size_t>(e.to)];
    }
    std::vector<int> order;
    std::vector<bool> done(static_cast<std::size_t>(n), false);
    for (int step = 0; step < n; ++step) {
        int pick = -1;
        for (int v = 0; v < n; ++v) {
            if (!done[static_cast<std::size_t>(v)] && indegree[static_cast<std::size_t>(v)] == 0) {
                pick = v;
                break;
            }
        }
        if (pick < 0) return std::nullopt;
        done[static_cast<std::size_t>(pick)] = true;
        order.push_back(pick);
        for (int w : succ[static_cast<std::size_t>(pick)]) --indegree[static_cast<std::size_t>(w)];
    }
    return order;
}

MdExecStats run_original_md(const front::BasicProgram<VecN>& p, const MdDomain& dom,
                            MdArrayStore& store) {
    ResolvedProgram rp(store);
    for (const front::BasicLoopNest<VecN>& loop : p.loops) rp.add_body(loop.body, VecN(p.dim));
    Evaluator ev(rp);
    const SweepStats s = sweep_original(ev, dom.ext);
    return MdExecStats{s.barriers, s.instances};
}

MdExecStats run_wavefront_md(const front::BasicProgram<VecN>& p, const NdFusionPlan& plan,
                             const MdDomain& dom, MdArrayStore& store) {
    check(static_cast<int>(p.loops.size()) == plan.retimed.num_nodes(),
          "run_wavefront_md: plan/program mismatch");
    const auto order = md_body_order(plan.retimed);
    check(order.has_value(), "run_wavefront_md: zero-dependence cycle in the retimed graph");

    // Bodies in the (0..0)-dependence order, which is their order at a point.
    ResolvedProgram rp(store);
    for (const int v : *order) {
        rp.add_body(p.loops[static_cast<std::size_t>(v)].body, plan.retiming.of(v));
    }
    Evaluator ev(rp);
    const SweepStats s = sweep_wavefront(ev, plan.schedule.values(), dom.ext);
    return MdExecStats{s.barriers, s.instances};
}

std::optional<std::string> first_difference_md(const front::BasicProgram<VecN>& p,
                                               const MdDomain& dom, const MdArrayStore& a,
                                               const MdArrayStore& b) {
    const std::vector<std::int64_t> lo(static_cast<std::size_t>(p.dim), 0);
    const std::vector<std::int64_t>& hi = dom.ext;
    for (std::size_t k = 0; k < lo.size(); ++k) {
        if (lo[k] > hi[k]) return std::nullopt;  // empty domain
    }
    std::vector<std::int64_t> cell;
    for (const std::string& name : p.written_arrays()) {
        const std::vector<double>& ca = a.cells(name);
        const std::vector<double>& cb = b.cells(name);
        cell = lo;
        do {
            const double va = ca[a.index(cell)];
            const double vb = cb[b.index(cell)];
            if (va != vb) {
                std::ostringstream os;
                os << name << VecN(cell).str() << ": " << va << " != " << vb;
                return os.str();
            }
        } while (next_point(cell, lo, hi));
    }
    return std::nullopt;
}

MdVerification verify_md_fusion(const front::BasicProgram<VecN>& p, const MdDomain& dom) {
    const MldgN g = analysis::build_mldg_nd(p);
    const NdFusionPlan plan = plan_fusion_nd(g);

    MdArrayStore golden(p, dom);
    MdArrayStore subject(p, dom);

    MdVerification result;
    result.original = run_original_md(p, dom, golden);
    result.transformed = run_wavefront_md(p, plan, dom, subject);

    const auto diff = first_difference_md(p, dom, golden, subject);
    result.equivalent = !diff.has_value();
    result.detail = diff.value_or("");
    return result;
}

}  // namespace lf::exec
