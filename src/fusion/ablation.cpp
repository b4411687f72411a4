#include "fusion/ablation.hpp"

#include <algorithm>

#include "graph/constraint_system.hpp"
#include "graph/solver_workspace.hpp"
#include "ldg/legality.hpp"
#include "support/diagnostics.hpp"
#include "support/faultpoint.hpp"

namespace lf::ablation {

Result<Retiming> try_cyclic_doall_all_hard(const Mldg& g, ResourceGuard* guard,
                                           SolverStats* stats, PlannerWorkspace* ws,
                                           const std::vector<std::int64_t>* warm) {
    if (faultpoint::triggered("forced_carry")) {
        return Status(StatusCode::Internal, "cyclic_doall_all_hard: fault injected");
    }
    SolverWorkspace<std::int64_t>* scalar_ws = ws != nullptr ? &ws->scalar : nullptr;
    {
        const LegalityReport rep = check_schedulable(g, guard, stats, scalar_ws);
        if (rep.status != StatusCode::Ok) {
            return Status(rep.status, "cyclic_doall_all_hard: schedulability check aborted");
        }
        if (!rep.legal) {
            return Status(StatusCode::IllegalInput,
                          "cyclic_doall_all_hard: input MLDG is not schedulable");
        }
    }
    DifferenceConstraintSystem<std::int64_t> sys;
    for (int v = 0; v < g.num_nodes(); ++v) sys.add_variable(g.node_ref(v).name);
    for (const auto& e : g.edges()) {
        sys.add_constraint(e.from, e.to, e.delta().x - 1);
    }
    const auto solution = sys.solve(guard, stats, scalar_ws, warm);
    if (solution.status != StatusCode::Ok) {
        return Status(solution.status, "cyclic_doall_all_hard: solve aborted");
    }
    if (!solution.feasible) {
        return Status(StatusCode::Infeasible,
                      "cyclic_doall_all_hard: no retiming can carry every edge on the "
                      "outer loop (negative cycle in the forced system)");
    }
    Retiming r(g.num_nodes());
    for (int v = 0; v < g.num_nodes(); ++v) {
        r.of(v) = Vec2{solution.values[static_cast<std::size_t>(v)], 0};
    }
    return r;
}

std::optional<Retiming> cyclic_doall_all_hard(const Mldg& g) {
    auto result = try_cyclic_doall_all_hard(g);
    if (result.ok()) return std::move(result).value();
    if (result.status().code() == StatusCode::Infeasible) return std::nullopt;
    check(false, [&] { return result.status().message(); });
    return std::nullopt;  // unreachable
}

Retiming acyclic_doall_keep_y(const Mldg& g) {
    check(g.is_acyclic(), "acyclic_doall_keep_y: input MLDG has a cycle");
    check(is_schedulable(g), "acyclic_doall_keep_y: input MLDG is not schedulable");
    DifferenceConstraintSystem<Vec2> sys;
    for (int v = 0; v < g.num_nodes(); ++v) sys.add_variable(g.node_ref(v).name);
    for (const auto& e : g.edges()) {
        sys.add_constraint(e.from, e.to, e.delta() - Vec2{1, -1});
    }
    const auto solution = sys.solve();
    check(solution.feasible, "acyclic_doall_keep_y: internal error");
    return Retiming(solution.values);
}

std::int64_t prologue_rows(const Retiming& r) {
    std::int64_t lo = 0, hi = 0;
    for (int v = 0; v < r.num_nodes(); ++v) {
        lo = std::min(lo, r.of(v).x);
        hi = std::max(hi, r.of(v).x);
    }
    return hi - lo;
}

std::int64_t inner_peels(const Retiming& r) {
    std::int64_t lo = 0, hi = 0;
    for (int v = 0; v < r.num_nodes(); ++v) {
        lo = std::min(lo, r.of(v).y);
        hi = std::max(hi, r.of(v).y);
    }
    return hi - lo;
}

bool program_order_body_would_be_wrong(const Mldg& retimed) {
    for (int eid = 0; eid < retimed.num_edges(); ++eid) {
        const auto& e = retimed.edge_ref(eid);
        if (retimed.is_self_edge(eid)) continue;
        const bool backward = retimed.is_backward_edge(eid);
        for (const Vec2& d : e.vectors) {
            if (d.is_zero() && backward) return true;
        }
    }
    return false;
}

}  // namespace lf::ablation
