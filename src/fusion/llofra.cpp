#include "fusion/llofra.hpp"

#include "graph/constraint_system.hpp"
#include "graph/solver_workspace.hpp"
#include "ldg/legality.hpp"
#include "support/diagnostics.hpp"
#include "support/faultpoint.hpp"

namespace lf {

Result<Retiming> try_llofra(const Mldg& g, ResourceGuard* guard, SolverStats* stats,
                            PlannerWorkspace* ws) {
    if (faultpoint::triggered("llofra")) {
        return Status(StatusCode::Internal, "llofra: fault injected");
    }
    {
        const LegalityReport rep =
            check_schedulable(g, guard, stats, ws != nullptr ? &ws->scalar : nullptr);
        if (rep.status != StatusCode::Ok) {
            return Status(rep.status, "llofra: schedulability check aborted");
        }
        if (!rep.legal) {
            return Status(StatusCode::IllegalInput,
                          "llofra: input MLDG is not schedulable: " +
                              (rep.violations.empty() ? std::string("?")
                                                      : rep.violations.front()));
        }
    }
    DifferenceConstraintSystem<Vec2> sys;
    for (int i = 0; i < g.num_nodes(); ++i) sys.add_variable(g.node_ref(i).name);
    for (const auto& e : g.edges()) {
        // Require delta_r(e) >= (0,0), i.e. r(to) - r(from) <= delta(e).
        sys.add_constraint(e.from, e.to, e.delta());
    }
    const auto solution = sys.solve(guard, stats, ws != nullptr ? &ws->vec2 : nullptr);
    if (solution.status != StatusCode::Ok) {
        return Status(solution.status, "llofra: solve aborted");
    }
    // Theorem 3.2: feasible because every cycle weighs > (0,0).
    if (!solution.feasible) {
        return Status(StatusCode::Internal,
                      "llofra: internal error (constraint system infeasible on a "
                      "schedulable MLDG)");
    }
    return Retiming(solution.values);
}

Retiming llofra(const Mldg& g) {
    auto result = try_llofra(g);
    check(result.ok(), [&] { return result.status().message(); });
    return std::move(result).value();
}

}  // namespace lf
