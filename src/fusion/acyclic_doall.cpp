#include "fusion/acyclic_doall.hpp"

#include "graph/constraint_system.hpp"
#include "graph/solver_workspace.hpp"
#include "ldg/legality.hpp"
#include "support/diagnostics.hpp"
#include "support/faultpoint.hpp"

namespace lf {

Result<Retiming> try_acyclic_doall_fusion(const Mldg& g, ResourceGuard* guard,
                                          SolverStats* stats, PlannerWorkspace* ws) {
    if (faultpoint::triggered("acyclic_doall")) {
        return Status(StatusCode::Internal, "acyclic_doall_fusion: fault injected");
    }
    {
        const LegalityReport rep =
            check_schedulable(g, guard, stats, ws != nullptr ? &ws->scalar : nullptr);
        if (rep.status != StatusCode::Ok) {
            return Status(rep.status, "acyclic_doall_fusion: schedulability check aborted");
        }
        if (!rep.legal) {
            return Status(StatusCode::IllegalInput,
                          "acyclic_doall_fusion: input MLDG is not schedulable");
        }
    }
    if (!g.is_acyclic()) {
        return Status(StatusCode::IllegalInput,
                      "acyclic_doall_fusion: input MLDG has a cycle; use "
                      "cyclic_doall_fusion or hyperplane_fusion");
    }
    DifferenceConstraintSystem<Vec2> sys;
    for (int i = 0; i < g.num_nodes(); ++i) sys.add_variable(g.node_ref(i).name);
    for (const auto& e : g.edges()) {
        sys.add_constraint(e.from, e.to, e.delta() - Vec2{1, -1});
    }
    const auto solution = sys.solve(guard, stats, ws != nullptr ? &ws->vec2 : nullptr);
    if (solution.status != StatusCode::Ok) {
        return Status(solution.status, "acyclic_doall_fusion: solve aborted");
    }
    // The constraint graph is acyclic, so a negative cycle is impossible.
    if (!solution.feasible) {
        return Status(StatusCode::Internal,
                      "acyclic_doall_fusion: internal error (acyclic system infeasible)");
    }
    Retiming r(solution.values);
    for (int i = 0; i < g.num_nodes(); ++i) r.of(i).y = 0;  // paper Alg. 3, final loop
    return r;
}

Retiming acyclic_doall_fusion(const Mldg& g) {
    auto result = try_acyclic_doall_fusion(g);
    check(result.ok(), [&] { return result.status().message(); });
    return std::move(result).value();
}

}  // namespace lf
