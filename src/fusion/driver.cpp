#include "fusion/driver.hpp"

#include <sstream>

#include "ldg/legality.hpp"
#include "support/diagnostics.hpp"

namespace lf {

std::string to_string(ParallelismLevel level) {
    switch (level) {
        case ParallelismLevel::InnerDoall: return "inner-DOALL";
        case ParallelismLevel::Hyperplane: return "DOALL-hyperplane";
        case ParallelismLevel::Unfused: return "unfused (per-loop inner DOALL)";
    }
    return "?";
}

std::string to_string(AlgorithmUsed algorithm) {
    switch (algorithm) {
        case AlgorithmUsed::AcyclicDoall: return "Algorithm 3 (acyclic)";
        case AlgorithmUsed::CyclicDoall: return "Algorithm 4 (cyclic two-phase)";
        case AlgorithmUsed::CyclicDoallForced: return "Algorithm 4 variant (forced carry)";
        case AlgorithmUsed::Hyperplane: return "Algorithm 5 (hyperplane)";
        case AlgorithmUsed::DistributionFallback: return "loop distribution (unfused fallback)";
    }
    return "?";
}

std::string to_string(PlanPolicy policy) {
    switch (policy) {
        case PlanPolicy::FastestSchedule: return "fastest";
        case PlanPolicy::SmallestCode: return "smallest";
    }
    return "?";
}

std::optional<PlanPolicy> parse_plan_policy(const std::string& text) {
    if (text == "fastest" || text == "fastest-schedule") return PlanPolicy::FastestSchedule;
    if (text == "smallest" || text == "smallest-code") return PlanPolicy::SmallestCode;
    return std::nullopt;
}

FusionPlan plan_fusion(const Mldg& g, const PlanOptions& options) {
    {
        const LegalityReport rep = check_schedulable(g);
        check(rep.legal, "plan_fusion: input MLDG is not schedulable: " +
                             (rep.violations.empty() ? std::string("?") : rep.violations.front()));
    }
    TryPlanOptions topts;
    topts.plan = options;
    topts.allow_distribution_fallback = false;  // preserve the classic success set
    auto result = try_plan_fusion(g, topts);
    check(result.ok(), "plan_fusion: " + result.status().str());
    FusionPlan plan = std::move(result).value();
    plan.stages.clear();  // classic API: no ladder trace
    return plan;
}

std::string FusionPlan::describe(const Mldg& original) const {
    std::ostringstream os;
    os << to_string(algorithm) << " -> " << to_string(level) << '\n';
    os << "  retiming: " << retiming.str(original) << '\n';
    os << "  schedule s = " << schedule.str() << ", hyperplane h = " << hyperplane.str() << '\n';
    os << "  fused body order:";
    for (int v : body_order) os << ' ' << original.node(v).name;
    os << '\n';
    if (cyclic_doall_failed_phase) {
        os << "  (Algorithm 4 infeasible at phase " << *cyclic_doall_failed_phase << ")\n";
    }
    if (!stages.empty()) {
        os << "  ladder:\n";
        for (const auto& s : stages) os << "    " << s.str() << '\n';
    }
    return os.str();
}

}  // namespace lf
