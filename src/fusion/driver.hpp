#pragma once
// Fusion driver: applies the strongest applicable algorithm from the paper.
//
//   acyclic 2LDG          -> Algorithm 3 (always DOALL)          [Thm 4.1]
//   cyclic, Thm 4.2 holds -> Algorithm 4 (DOALL)                 [Thm 4.2]
//   cyclic, forced-carry feasible -> Algorithm 4 variant (DOALL) [extension]
//   otherwise             -> Algorithm 5 (DOALL hyperplane)      [Thm 4.4]
//
// Every legal 2LDG therefore fuses with *some* form of full parallelism; the
// plan records which, plus the schedule that realizes it.
//
// Two entry points:
//
//   plan_fusion      -- the classic throwing API (lf::Error on illegal input
//                       or an internal failure). Unchanged behavior.
//   try_plan_fusion  -- the hardened, never-throwing API. Walks the same
//                       algorithms as a *degradation ladder*: when a rung
//                       fails (solver fault, budget exhausted, postcondition
//                       broken), the driver records a StageReport and tries
//                       the next-strongest rung, ending -- for program-model
//                       legal inputs -- at the loop-distribution fallback,
//                       which is always legal because it changes nothing:
//                       the original loops run in program order, each with
//                       its own DOALL innermost loop. The returned plan (or
//                       error Status) carries the per-rung trace.

#include <optional>
#include <string>
#include <vector>

#include "ldg/mldg.hpp"
#include "ldg/retiming.hpp"
#include "support/status.hpp"

namespace lf {

struct PlannerWorkspace;
struct LadderWarmHints;
struct LadderArtifacts;

enum class ParallelismLevel {
    /// The fused innermost loop is DOALL: one barrier per outer iteration.
    InnerDoall,
    /// Iterations on hyperplanes perpendicular to `schedule` are DOALL:
    /// one barrier per hyperplane (wavefront execution).
    Hyperplane,
    /// Degradation-ladder floor: no fusion performed. The original loops run
    /// in program order; each innermost loop is individually DOALL (that is
    /// what program-model legality means), but fusion's locality/barrier
    /// benefits are forfeited.
    Unfused,
};

enum class AlgorithmUsed {
    AcyclicDoall,      // paper Algorithm 3
    CyclicDoall,       // paper Algorithm 4
    CyclicDoallForced, // extension: Algorithm 4 with every edge forced
                       // outer-carried -- rescues phase-2 failures whose
                       // cycles have enough x-slack (see DESIGN.md,
                       // "Extensions"); still yields DOALL rows
    Hyperplane,        // paper Algorithm 5 (LLOFRA + Lemma 4.3 schedule)
    DistributionFallback, // robustness fallback: keep the loops distributed
                          // (unfused but legal); only try_plan_fusion
                          // produces this
};

/// Planning objective. Feasibility is policy-independent: both policies
/// succeed on exactly the same inputs with the same parallelism level; the
/// policy only selects WHICH feasible retiming a successful rung returns.
enum class PlanPolicy {
    /// First feasible retiming wins (the historical behavior): the ladder's
    /// lexicographic solve already minimizes the outer-loop spread, nothing
    /// else is optimized. Plans are bit-identical to pre-policy builds.
    FastestSchedule,
    /// After the rung succeeds, re-solve for the smallest-magnitude feasible
    /// retiming (fusion/compact.hpp minimize_plan_magnitude): trailing
    /// retiming components are spread-minimized through the same constraint
    /// core, then the whole vector is recentered. Shrinks the
    /// prologue/epilogue fringes of the emitted code; legality is re-checked
    /// exactly as for any plan.
    SmallestCode,
};

[[nodiscard]] std::string to_string(ParallelismLevel level);
[[nodiscard]] std::string to_string(AlgorithmUsed algorithm);
[[nodiscard]] std::string to_string(PlanPolicy policy);
/// Parses "fastest" / "smallest" (the CLI spellings). Returns nullopt on
/// anything else.
[[nodiscard]] std::optional<PlanPolicy> parse_plan_policy(const std::string& text);

struct FusionPlan {
    Retiming retiming;
    /// The retimed graph G_r (all dependence vectors shifted).
    Mldg retimed;
    ParallelismLevel level = ParallelismLevel::InnerDoall;
    AlgorithmUsed algorithm = AlgorithmUsed::AcyclicDoall;
    /// Strict schedule vector for the retimed, fused program. (1,0) for
    /// InnerDoall (rows execute in sequence, row contents in parallel).
    Vec2 schedule{1, 0};
    /// DOALL hyperplane direction, perpendicular to `schedule`.
    Vec2 hyperplane{0, 1};
    /// Statement order of the fused body: body_order[k] is the node whose
    /// loop body executes k-th at every fused iteration point. A topological
    /// order of the retimed (0,0)-dependence subgraph (ties broken by
    /// program order); usually equals program order.
    std::vector<int> body_order;
    /// Set when Algorithm 4 was attempted and failed: which phase (1 or 2).
    std::optional<int> cyclic_doall_failed_phase;
    /// try_plan_fusion's per-rung trace: one entry per ladder rung attempted,
    /// in order, including the rung that produced this plan (code Ok).
    /// Empty for plans produced by plan_fusion.
    std::vector<StageReport> stages;

    [[nodiscard]] std::string describe(const Mldg& original) const;
};

struct PlanOptions {
    /// Post-optimize DOALL retimings to minimize the x-spread (the number
    /// of prologue/epilogue rows) via fusion/compact.hpp. Never changes the
    /// achieved parallelism level.
    bool compact_prologue = false;
    /// Planning objective (see PlanPolicy). The default reproduces the
    /// historical first-feasible behavior bit-for-bit.
    PlanPolicy policy = PlanPolicy::FastestSchedule;
};

/// Plans fusion for a legal 2LDG (throws lf::Error on illegal input).
[[nodiscard]] FusionPlan plan_fusion(const Mldg& g, const PlanOptions& options = {});

struct TryPlanOptions {
    PlanOptions plan;
    /// Budget shared by *all* rungs of the ladder (solver steps + deadline).
    ResourceLimits limits;
    /// Allow the terminal loop-distribution rung. It requires program-model
    /// legality (the unfused program must itself be executable); disable to
    /// reproduce plan_fusion's success set exactly.
    bool allow_distribution_fallback = true;
    /// Skip rungs 1-4 and go straight to the loop-distribution fallback
    /// (validation still runs; requires allow_distribution_fallback to
    /// produce a plan). The service layer's circuit breaker uses this to
    /// short-circuit a workload class that keeps failing the full ladder.
    bool distribution_only = false;
    /// Reusable solver scratch (graph/solver_workspace.hpp), typically one
    /// per worker thread. When set, every rung's solves run allocation-free
    /// in the steady state and consecutive rungs warm-start each other where
    /// the constraint systems nest (see DESIGN.md, "Planning performance").
    /// Never changes any planning result. Not owned; may be null.
    PlannerWorkspace* workspace = nullptr;
    /// Ignored; kept only because the benchmark driver (perfbench/) still
    /// sets it. Goes with that call.
    const LadderWarmHints* warm_hints = nullptr;
    /// Ignored; kept only because the benchmark driver (perfbench/) still
    /// sets it. Goes with that call.
    LadderArtifacts* artifacts = nullptr;
};

/// Never-throwing planner with graceful degradation. Tries, in order:
/// Algorithm 3 (acyclic only) / Algorithm 4, the forced-carry variant,
/// Algorithm 5, and finally loop distribution (program-model legal inputs
/// only). Returns the first plan whose postconditions verify; otherwise a
/// non-Ok Status whose `stages` list why every rung fell through. Statuses:
/// IllegalInput (input fails validation), Infeasible / Internal /
/// ResourceExhausted / Overflow (every rung failed; the code is the most
/// severe rung failure, resource exhaustion dominating).
[[nodiscard]] Result<FusionPlan> try_plan_fusion(const Mldg& g,
                                                 const TryPlanOptions& options = {});

}  // namespace lf
