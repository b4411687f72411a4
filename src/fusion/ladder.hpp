#pragma once
// The planning ladder over a shared constraint-system core: the
// implementation of try_plan_fusion (fusion/driver.hpp).
//
// Every algorithm the degradation ladder runs (Alg. 3/4 -> forced-carry ->
// Alg. 5) solves a difference-constraint system over the SAME graph: one
// variable per loop, one constraint per dependence edge, only the per-edge
// bound differing by rung (PAPER.md Section 2.4 -- the five algorithms are
// one 2-ILP skeleton under different bounds):
//
//   rung 1 (Alg. 3, acyclic)   r(to) - r(from) <= delta - (1,-1)     [Vec2]
//   rung 2 (Alg. 4, phase 1)   x(to) - x(from) <= delta.x - hard     [int64]
//   rung 2 (Alg. 4, phase 2)   y(to) - y(from)  = delta.y  (subset)  [int64]
//   rung 3 (forced carry)      x(to) - x(from) <= delta.x - 1        [int64]
//   rung 4 (Alg. 5, LLOFRA)    r(to) - r(from) <= delta              [Vec2]
//
// The ladder therefore writes each job's edge endpoints ONCE (one int64 and
// one Vec2 edge list, held in the PlannerWorkspace) and each rung rewrites
// only the bounds before its bellman_ford_all_sources solve: no per-rung
// DifferenceConstraintSystem reconstruction, no repeated schedulability
// checks (validation's verdict is cached and implies every rung's internal
// check -- counted in SolverStats::rungs_shared), and the one retiming
// application Algorithm 5 performs is reused by plan finalization. Phase 2
// lists only the equality pairs its phase-1 solution enables. Forced carry
// warm-starts from phase 1's feasible distances (its system only tightens
// phase 1's), and every rung solves with the kernel's early cycle exit, so
// infeasible systems stop after a few passes instead of all |V|.

namespace lf {

// Inert since cross-job planning was removed; kept only because the
// benchmark driver (perfbench/driver.cpp) still names it. Goes with that call.
struct LadderWarmHints {};

// Inert since cross-job planning was removed; kept only because the
// benchmark driver (perfbench/driver.cpp) still names it. Goes with that call.
struct LadderArtifacts {};

}  // namespace lf
