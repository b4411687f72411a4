#include "fusion/hyperplane.hpp"
#include <optional>

#include <algorithm>

#include "fusion/llofra.hpp"
#include "ldg/legality.hpp"
#include "support/diagnostics.hpp"
#include "support/faultpoint.hpp"
#include "support/math_util.hpp"

namespace lf {

Vec2 schedule_vector_for(const Mldg& retimed_graph) {
    bool any_nonzero = false;
    std::optional<std::int64_t> s1;  // set iff some vector has x >= 1
    for (const auto& e : retimed_graph.edges()) {
        for (const Vec2& d : e.vectors) {
            if (d.is_zero()) continue;
            check(d >= Vec2{0, 0},
                  "schedule_vector_for: dependence vector below (0,0); run LLOFRA first");
            any_nonzero = true;
            if (d.x >= 1) {
                // Need s1 * d.x + d.y > 0, i.e. s1 > -d.y / d.x; the paper's
                // formula s1 = max floor(-d.y/d.x) + 1 (possibly negative).
                const std::int64_t lower = floor_div(-d.y, d.x) + 1;
                s1 = s1 ? std::max(*s1, lower) : lower;
            }
        }
    }
    if (!any_nonzero) return Vec2{1, 0};  // no dependences: rows already DOALL
    if (!s1) return Vec2{0, 1};           // Lemma 4.3 case a == 0
    return Vec2{*s1, 1};
}

Result<HyperplaneResult> try_hyperplane_fusion(const Mldg& g, ResourceGuard* guard,
                                               SolverStats* stats, PlannerWorkspace* ws) {
    if (faultpoint::triggered("hyperplane")) {
        return Status(StatusCode::Internal, "hyperplane_fusion: fault injected");
    }
    HyperplaneResult out;
    auto retiming = try_llofra(g, guard, stats, ws);
    if (!retiming.ok()) return retiming.status();
    out.retiming = std::move(retiming).value();
    const Mldg retimed = out.retiming.apply(g);
    try {
        out.schedule = schedule_vector_for(retimed);
    } catch (const Error& e) {
        return Status(StatusCode::Internal, e.what());
    }
    out.hyperplane = Vec2{out.schedule.y, -out.schedule.x};
    if (!is_strict_schedule_vector(retimed, out.schedule)) {
        return Status(StatusCode::Internal,
                      "hyperplane_fusion: internal error (computed schedule is not strict)");
    }
    return out;
}

HyperplaneResult hyperplane_fusion(const Mldg& g) {
    auto result = try_hyperplane_fusion(g);
    check(result.ok(), [&] { return result.status().message(); });
    return std::move(result).value();
}

}  // namespace lf
