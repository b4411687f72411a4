#include "fusion/ladder.hpp"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fusion/compact.hpp"
#include "fusion/hyperplane.hpp"
#include "graph/bellman_ford.hpp"
#include "graph/solver_workspace.hpp"
#include "ldg/legality.hpp"
#include "support/cemit.hpp"
#include "support/diagnostics.hpp"
#include "support/faultpoint.hpp"

namespace lf {

namespace {

/// Rung-failure severity for the overall error code (same ranking as the
/// historical driver): budget exhaustion must surface over ordinary
/// infeasibility, overflow over a mere fault/postcondition.
int severity(StatusCode code) {
    switch (code) {
        case StatusCode::ResourceExhausted: return 4;
        case StatusCode::Overflow: return 3;
        case StatusCode::Internal: return 2;
        case StatusCode::Infeasible: return 1;
        default: return 0;
    }
}

std::vector<int> program_order_of(const Mldg& g) {
    std::vector<int> order(static_cast<std::size_t>(g.num_nodes()));
    for (int i = 0; i < g.num_nodes(); ++i) {
        order[static_cast<std::size_t>(g.node_ref(i).order)] = i;
    }
    return order;
}

/// Completes a plan whose retiming/level/algorithm/schedule are set and
/// re-verifies the paper's guarantees. `prebuilt_retimed`, when given, is
/// the already-applied retimed graph (Algorithm 5 computes it for its
/// schedule derivation; rebuilding it would be byte-identical work), and
/// `schedule_already_strict` skips the strictness re-check the caller just
/// performed on that same graph. Returns "" on success, else the reason the
/// plan is rejected.
std::string finalize_plan(const Mldg& g, FusionPlan& plan, Mldg* prebuilt_retimed = nullptr,
                          bool schedule_already_strict = false) {
    if (prebuilt_retimed != nullptr) {
        plan.retimed = std::move(*prebuilt_retimed);
    } else {
        plan.retimed = plan.retiming.apply(g);
    }
    auto order = fused_body_order(plan.retimed);
    if (!order.has_value()) return "(0,0)-dependence cycle in the retimed graph";
    plan.body_order = std::move(*order);
    if (!is_fusion_legal(plan.retimed, plan.body_order)) return "fusion illegal after retiming";
    if (plan.level == ParallelismLevel::InnerDoall &&
        !is_fused_inner_doall(plan.retimed, plan.body_order)) {
        return "fused inner loop not DOALL";
    }
    if (!schedule_already_strict && !is_strict_schedule_vector(plan.retimed, plan.schedule)) {
        return "schedule not strict";
    }
    return {};
}

/// One job's trip down the ladder. The budget guard is shared by every
/// rung; each rung's solver telemetry and budget are booked into the stage
/// it pushes.
class Ladder {
  public:
    Ladder(const Mldg& g, const TryPlanOptions& options, PlannerWorkspace& arena)
        : g_(g), options_(options), arena_(arena), guard_(options.limits) {}

    Result<FusionPlan> run() {
        // ---- Validation ----
        // Program-model legality is solver-free and implies schedulability
        // (L2+L3: every cycle has x-weight >= 1); only graphs outside the
        // program model need the solver-backed schedulability check. The
        // verdict is CACHED: rungs 1-4 reuse it instead of re-running their
        // own check_schedulable / is_schedulable preambles (counted in
        // SolverStats::rungs_shared).
        model_legal_ = is_legal_mldg(g_);
        if (!model_legal_) {
            const LegalityReport rep =
                check_schedulable(g_, &guard_, &rung_stats_, &arena_.scalar);
            if (rep.status != StatusCode::Ok) {
                push_stage("validate", rep.status, "schedulability check aborted");
                return fail(
                    Status(rep.status, "try_plan_fusion: could not validate the input MLDG"));
            }
            if (!rep.legal) {
                const std::string why =
                    rep.violations.empty() ? std::string("?") : rep.violations.front();
                push_stage("validate", StatusCode::IllegalInput, why);
                return fail(Status(StatusCode::IllegalInput,
                                   "try_plan_fusion: input MLDG is not schedulable: " + why));
            }
        }
        push_stage("validate", StatusCode::Ok,
                   model_legal_ ? "program-model legal"
                                : "schedulable (outside the program model)");

        if (!options_.distribution_only) {
            // The one endpoint build of this job: every rung below rewrites
            // only the bounds.
            const auto& edges = g_.edges();
            arena_.scalar_edges.resize(edges.size());
            arena_.vec2_edges.resize(edges.size());
            for (std::size_t e = 0; e < edges.size(); ++e) {
                arena_.scalar_edges[e].from = arena_.vec2_edges[e].from = edges[e].from;
                arena_.scalar_edges[e].to = arena_.vec2_edges[e].to = edges[e].to;
            }
            std::optional<FusionPlan> plan;
            if (g_.is_acyclic()) plan = acyclic_doall();
            if (!plan) plan = cyclic_doall();  // also takes acyclic graphs rung 1 let through
            if (!plan) plan = forced_carry();
            if (!plan) plan = hyperplane();
            if (plan) return accept(std::move(*plan));
        }
        return distribution();
    }

  private:
    void push_stage(std::string stage, StatusCode code, std::string detail) {
        StageReport r;
        r.stage = std::move(stage);
        r.code = code;
        r.detail = std::move(detail);
        r.budget_consumed = guard_.consumed() - metered_;
        metered_ = guard_.consumed();
        r.solver = rung_stats_;
        rung_stats_ = SolverStats{};
        stages_.push_back(std::move(r));
    }

    Result<FusionPlan> fail(Status st) {
        st.stages = std::move(stages_);
        return st;
    }

    /// The rung's solve over this job's edge list, metered by the shared
    /// guard, with the kernel's early cycle exit.
    template <typename W>
    ShortestPaths<W> solve(const std::vector<WeightedEdge<W>>& edges, SolverWorkspace<W>& ws,
                           const std::vector<W>* warm_start = nullptr) {
        return bellman_ford_all_sources<W>(g_.num_nodes(), edges, &guard_, &rung_stats_, {}, &ws,
                                           warm_start, /*early_cycle_exit=*/true);
    }

    /// Verifies a rung's candidate: its Ok stage and the plan, or the
    /// rejection stage and nullopt.
    std::optional<FusionPlan> verified(const char* stage, FusionPlan plan,
                                       Mldg* prebuilt_retimed = nullptr,
                                       bool schedule_already_strict = false) {
        const std::string err = finalize_plan(g_, plan, prebuilt_retimed, schedule_already_strict);
        if (!err.empty()) {
            push_stage(stage, StatusCode::Internal, err);
            return std::nullopt;
        }
        push_stage(stage, StatusCode::Ok, {});
        return plan;
    }

    // ---- Rung 1: Algorithm 3 (acyclic graphs only). ----
    std::optional<FusionPlan> acyclic_doall() {
        if (faultpoint::triggered("acyclic_doall")) {
            push_stage("acyclic-doall", StatusCode::Internal,
                       "acyclic_doall_fusion: fault injected");
            return std::nullopt;
        }
        ++rung_stats_.rungs_shared;  // schedulability verdict reused
        auto& edges = arena_.vec2_edges;
        for (std::size_t e = 0; e < edges.size(); ++e) {
            edges[e].weight = g_.edges()[e].delta() - Vec2{1, -1};
        }
        ShortestPaths<Vec2> sp = solve(edges, arena_.vec2);
        if (sp.status != StatusCode::Ok) {
            push_stage("acyclic-doall", sp.status, "acyclic_doall_fusion: solve aborted");
            return std::nullopt;
        }
        if (sp.has_negative_cycle) {
            // The constraint graph is acyclic; a negative cycle is impossible.
            push_stage("acyclic-doall", StatusCode::Internal,
                       "acyclic_doall_fusion: internal error (acyclic system infeasible)");
            return std::nullopt;
        }
        Retiming r(std::move(sp.dist));
        for (int v = 0; v < g_.num_nodes(); ++v) r.of(v).y = 0;  // paper Alg. 3, final loop
        FusionPlan plan;
        plan.retiming = std::move(r);
        plan.algorithm = AlgorithmUsed::AcyclicDoall;
        plan.level = ParallelismLevel::InnerDoall;
        return verified("acyclic-doall", std::move(plan));
    }

    // ---- Rung 2: Algorithm 4, two phases. ----
    std::optional<FusionPlan> cyclic_doall() {
        // Every graph that got here is schedulable (validated above), so the
        // historical is_schedulable precondition holds by construction.
        ++rung_stats_.rungs_shared;
        if (faultpoint::triggered("cyclic_doall.phase1")) {
            return a4_fail(1, StatusCode::Infeasible, "phase 1 infeasible");
        }
        // Phase 1: first retiming component. Hard edges must end
        // outer-loop-carried (retimed x >= 1); all others may stay within one
        // outer iteration (retimed x >= 0).
        const auto& g_edges = g_.edges();
        auto& edges = arena_.scalar_edges;
        for (std::size_t e = 0; e < edges.size(); ++e) {
            edges[e].weight = g_edges[e].delta().x - (g_edges[e].is_hard() ? 1 : 0);
        }
        ShortestPaths<std::int64_t> sp1 = solve(edges, arena_.scalar);
        if (sp1.status != StatusCode::Ok) return a4_fail(1, sp1.status, "phase 1 aborted");
        if (sp1.has_negative_cycle) return a4_fail(1, StatusCode::Infeasible, "phase 1 infeasible");
        phase1_values_ = std::move(sp1.dist);
        if (faultpoint::triggered("cyclic_doall.phase2")) {
            return a4_fail(2, StatusCode::Infeasible, "phase 2 infeasible");
        }

        // Phase 2: second retiming component. Only non-hard edges whose
        // x-retimed weight is exactly zero are constrained: they must land on
        // (0,0), hence an equality on y -- a (forward, backward) pair each.
        auto& pairs = arena_.pair_edges;
        pairs.clear();
        for (const auto& edge : g_edges) {
            if (edge.is_hard()) continue;
            std::int64_t shifted = 0;
            std::int64_t retimed_x = 0;
            if (__builtin_add_overflow(edge.delta().x,
                                       phase1_values_[static_cast<std::size_t>(edge.from)],
                                       &shifted) ||
                __builtin_sub_overflow(shifted, phase1_values_[static_cast<std::size_t>(edge.to)],
                                       &retimed_x)) {
                return a4_fail(2, StatusCode::Overflow, "phase 2 aborted");
            }
            if (retimed_x != 0) continue;
            const std::int64_t dy = edge.delta().y;
            pairs.push_back({edge.from, edge.to, dy});
            pairs.push_back({edge.to, edge.from, -dy});
        }
        ShortestPaths<std::int64_t> sp2 = solve(pairs, arena_.scalar);
        if (sp2.status != StatusCode::Ok) return a4_fail(2, sp2.status, "phase 2 aborted");
        if (sp2.has_negative_cycle) return a4_fail(2, StatusCode::Infeasible, "phase 2 infeasible");
        Retiming r(g_.num_nodes());
        for (int v = 0; v < g_.num_nodes(); ++v) {
            r.of(v) = Vec2{phase1_values_[static_cast<std::size_t>(v)],
                           sp2.dist[static_cast<std::size_t>(v)]};
        }
        FusionPlan plan;
        plan.retiming = std::move(r);
        plan.algorithm = AlgorithmUsed::CyclicDoall;
        plan.level = ParallelismLevel::InnerDoall;
        return verified("cyclic-doall", std::move(plan));
    }

    /// Records an Algorithm 4 failure at `phase` (reported on the final plan).
    std::optional<FusionPlan> a4_fail(int phase, StatusCode code, const char* detail) {
        a4_failed_phase_ = phase;
        push_stage("cyclic-doall", code, detail);
        return std::nullopt;
    }

    // ---- Rung 3: forced-carry variant (extension; still DOALL rows). ----
    std::optional<FusionPlan> forced_carry() {
        if (faultpoint::triggered("forced_carry")) {
            push_stage("forced-carry", StatusCode::Internal,
                       "cyclic_doall_all_hard: fault injected");
            return std::nullopt;
        }
        ++rung_stats_.rungs_shared;  // schedulability verdict reused
        auto& edges = arena_.scalar_edges;
        for (std::size_t e = 0; e < edges.size(); ++e) {
            edges[e].weight = g_.edges()[e].delta().x - 1;
        }
        // The forced system only tightens phase 1's (non-hard bounds drop
        // from delta.x to delta.x - 1), so phase 1's fixpoint is a valid
        // starting potential.
        ShortestPaths<std::int64_t> sp =
            solve(edges, arena_.scalar, phase1_values_.empty() ? nullptr : &phase1_values_);
        if (sp.status != StatusCode::Ok) {
            push_stage("forced-carry", sp.status, "cyclic_doall_all_hard: solve aborted");
            return std::nullopt;
        }
        if (sp.has_negative_cycle) {
            push_stage("forced-carry", StatusCode::Infeasible,
                       "cyclic_doall_all_hard: no retiming can carry every edge on the "
                       "outer loop (negative cycle in the forced system)");
            return std::nullopt;
        }
        Retiming r(g_.num_nodes());
        for (int v = 0; v < g_.num_nodes(); ++v) {
            r.of(v) = Vec2{sp.dist[static_cast<std::size_t>(v)], 0};
        }
        FusionPlan plan;
        plan.retiming = std::move(r);
        plan.algorithm = AlgorithmUsed::CyclicDoallForced;
        plan.level = ParallelismLevel::InnerDoall;
        return verified("forced-carry", std::move(plan));
    }

    // ---- Rung 4: Algorithm 5 (hyperplane wavefront). ----
    std::optional<FusionPlan> hyperplane() {
        if (faultpoint::triggered("hyperplane")) {
            push_stage("hyperplane", StatusCode::Internal, "hyperplane_fusion: fault injected");
            return std::nullopt;
        }
        if (faultpoint::triggered("llofra")) {
            push_stage("hyperplane", StatusCode::Internal, "llofra: fault injected");
            return std::nullopt;
        }
        ++rung_stats_.rungs_shared;  // schedulability verdict reused
        auto& edges = arena_.vec2_edges;
        for (std::size_t e = 0; e < edges.size(); ++e) {
            // Require delta_r(e) >= (0,0), i.e. r(to) - r(from) <= delta(e).
            edges[e].weight = g_.edges()[e].delta();
        }
        ShortestPaths<Vec2> sp = solve(edges, arena_.vec2);
        if (sp.status != StatusCode::Ok) {
            push_stage("hyperplane", sp.status, "llofra: solve aborted");
            return std::nullopt;
        }
        if (sp.has_negative_cycle) {
            // Theorem 3.2: feasible because every cycle weighs > (0,0).
            push_stage("hyperplane", StatusCode::Internal,
                       "llofra: internal error (constraint system infeasible on a "
                       "schedulable MLDG)");
            return std::nullopt;
        }
        FusionPlan plan;
        plan.retiming = Retiming(std::move(sp.dist));
        plan.algorithm = AlgorithmUsed::Hyperplane;
        plan.level = ParallelismLevel::Hyperplane;
        // The one retiming application: its result serves both the schedule
        // derivation (Lemma 4.3) and plan finalization.
        Mldg retimed = plan.retiming.apply(g_);
        try {
            plan.schedule = schedule_vector_for(retimed);
        } catch (const Error& e) {
            push_stage("hyperplane", StatusCode::Internal, e.what());
            return std::nullopt;
        }
        plan.hyperplane = Vec2{plan.schedule.y, -plan.schedule.x};
        if (!is_strict_schedule_vector(retimed, plan.schedule)) {
            push_stage("hyperplane", StatusCode::Internal,
                       "hyperplane_fusion: internal error (computed schedule is not strict)");
            return std::nullopt;
        }
        return verified("hyperplane", std::move(plan), &retimed,
                        /*schedule_already_strict=*/true);
    }

    // ---- Rung 5: loop distribution (unfused but legal), then the terminal
    // all-rungs-fell-through status. ----
    Result<FusionPlan> distribution() {
        // No solver involved: the plan *is* the original program, so it needs
        // no verification beyond program-model legality (checked above). Only
        // that legality makes the unfused original executable, so graphs like
        // the paper's Figure 14 (schedulable only) cannot take this rung.
        if (options_.allow_distribution_fallback) {
            if (!model_legal_) {
                push_stage("distribution", StatusCode::IllegalInput,
                           "input is not program-model legal; the unfused original is not "
                           "an executable Figure-1 program");
            } else if (faultpoint::triggered("distribution")) {
                push_stage("distribution", StatusCode::Internal, "fault injected");
            } else {
                FusionPlan plan;
                plan.retiming = Retiming(g_.num_nodes());  // identity
                plan.level = ParallelismLevel::Unfused;
                plan.algorithm = AlgorithmUsed::DistributionFallback;
                plan.retimed = g_;
                plan.body_order = program_order_of(g_);
                push_stage("distribution", StatusCode::Ok, "unfused fallback");
                plan.cyclic_doall_failed_phase = a4_failed_phase_;
                plan.stages = std::move(stages_);
                return plan;
            }
        }
        StatusCode worst = StatusCode::Internal;
        int worst_rank = -1;
        for (const auto& s : stages_) {
            if (s.code == StatusCode::Ok) continue;
            if (severity(s.code) > worst_rank) {
                worst_rank = severity(s.code);
                worst = s.code;
            }
        }
        return fail(Status(worst, "try_plan_fusion: no ladder rung produced a verifiable plan"));
    }

    Result<FusionPlan> accept(FusionPlan plan) {
        if (options_.plan.compact_prologue) compact(plan);
        if (options_.plan.policy == PlanPolicy::SmallestCode) minimize(plan);
        fill_metrics(plan);
        plan.cyclic_doall_failed_phase = a4_failed_phase_;
        plan.stages = std::move(stages_);
        return plan;
    }

    // Compact refinement (PlanOptions::compact_prologue) as a post-pass: the
    // plain rung's solution is kept unless the compacted one re-verifies.
    void compact(FusionPlan& plan) {
        try {
            std::vector<std::int64_t>& warm_x = arena_.warm_x;
            warm_x.clear();
            warm_x.reserve(static_cast<std::size_t>(g_.num_nodes()));
            for (int v = 0; v < g_.num_nodes(); ++v) warm_x.push_back(plan.retiming.of(v).x);
            std::optional<Retiming> alt;
            if (plan.algorithm == AlgorithmUsed::AcyclicDoall) {
                alt = acyclic_doall_fusion_compact(g_, &rung_stats_, &arena_, &warm_x);
            } else if (plan.algorithm == AlgorithmUsed::CyclicDoall) {
                alt = cyclic_doall_fusion_compact(g_, &rung_stats_, &arena_, &warm_x);
            }
            if (!alt.has_value()) return;
            FusionPlan refined;
            refined.retiming = std::move(*alt);
            refined.level = plan.level;
            refined.algorithm = plan.algorithm;
            refined.schedule = plan.schedule;
            refined.hyperplane = plan.hyperplane;
            if (finalize_plan(g_, refined).empty()) {
                plan = std::move(refined);
                push_stage("compact", StatusCode::Ok, "x-spread minimized");
            }
        } catch (const std::exception&) {
            // Keep the plain rung's verified solution.
        }
    }

    // PlanPolicy::SmallestCode post-pass: re-solve the accepted rung for the
    // smallest-magnitude feasible retiming (fusion/compact.hpp). Feasibility
    // is policy-independent -- the pass only swaps WHICH feasible retiming
    // the rung returns -- and the candidate re-verifies through the same
    // finalize_plan gate as any plan, falling back to the rung's own
    // solution on any rejection. Never runs under the default policy, so
    // default-policy plans and stage traces stay bit-identical.
    void minimize(FusionPlan& plan) {
        try {
            const MagnitudeOutcome m = minimize_plan_magnitude(g_, plan, &rung_stats_, &arena_);
            if (!m.changed()) {
                push_stage("minimize", StatusCode::Ok,
                           "retiming magnitude already minimal (" + std::to_string(m.before) +
                               ")");
                return;
            }
            FusionPlan refined;
            refined.retiming = m.retiming;
            refined.level = plan.level;
            refined.algorithm = plan.algorithm;
            refined.schedule = plan.schedule;
            refined.hyperplane = plan.hyperplane;
            if (plan.algorithm == AlgorithmUsed::Hyperplane) {
                // A trailing-spread reduction changes the retimed graph;
                // re-derive the wavefront schedule for it as rung 4 does.
                const Mldg retimed = refined.retiming.apply(g_);
                refined.schedule = schedule_vector_for(retimed);
                refined.hyperplane = Vec2{refined.schedule.y, -refined.schedule.x};
            }
            if (finalize_plan(g_, refined).empty()) {
                plan = std::move(refined);
                push_stage("minimize", StatusCode::Ok,
                           "retiming magnitude " + std::to_string(m.before) + " -> " +
                               std::to_string(m.after));
            } else {
                push_stage("minimize", StatusCode::Internal,
                           "candidate failed re-verification; keeping the rung's plan");
            }
        } catch (const std::exception&) {
            // Keep the rung's verified solution.
        }
    }

    // Per-plan code-shape metrics on the stage that accepted the plan, via
    // the same fringe model the emitters use (support/cemit.hpp). The widths
    // are domain-independent, so extent 0 serves.
    void fill_metrics(const FusionPlan& plan) {
        if (stages_.empty()) return;
        const auto n = static_cast<std::size_t>(g_.num_nodes());
        std::vector<std::int64_t> sx(n);
        std::vector<std::int64_t> sy(n);
        for (std::size_t v = 0; v < n; ++v) {
            sx[v] = plan.retiming.of(static_cast<int>(v)).x;
            sy[v] = plan.retiming.of(static_cast<int>(v)).y;
        }
        const cemit::FringeBounds bi = cemit::fringe_bounds(sx, 0);
        const cemit::FringeBounds bj = cemit::fringe_bounds(sy, 0);
        StageReport& s = stages_.back();
        s.prologue_iters = bi.prologue() + bj.prologue();
        s.epilogue_iters = bi.epilogue() + bj.epilogue();
        s.retiming_magnitude = retiming_magnitude(plan.retiming);
    }

    const Mldg& g_;
    const TryPlanOptions& options_;
    PlannerWorkspace& arena_;
    ResourceGuard guard_;
    std::uint64_t metered_ = 0;
    SolverStats rung_stats_;
    std::vector<StageReport> stages_;
    bool model_legal_ = false;
    std::optional<int> a4_failed_phase_;
    std::vector<std::int64_t> phase1_values_;
};
}  // namespace

Result<FusionPlan> try_plan_fusion(const Mldg& g, const TryPlanOptions& options) {
    std::optional<PlannerWorkspace> own;  // only when the caller brought none
    PlannerWorkspace& arena =
        options.workspace != nullptr ? *options.workspace : own.emplace();
    return Ladder(g, options, arena).run();
}

}  // namespace lf
