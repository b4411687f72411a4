// Golden differential suite (solver-unification guard): the planner must
// reproduce, byte for byte, the plans and rung traces recorded from the
// pre-refactor seed for every gallery workload -- 2-D (paper + extended
// gallery) and N-D (fixed fixtures). The golden files under tests/golden/
// were generated from the seed tree *before* the 2-D and N-D solver stacks
// were unified; any divergence means the unified core changed observable
// planner behavior. ladder_work.golden additionally pins each rung's budget
// and solver counters; it was recorded from the lockstep-batch ladder that
// the straight-line ladder replaced.
//
// Regenerate (only when behavior is *intentionally* changed) with:
//   LF_UPDATE_GOLDEN=1 ./test_golden_differential
//
// The FaultPointsOnUnifiedPath tests additionally prove that the shared
// solver fault points fire on *both* the 2-D and the N-D planning paths,
// i.e. that N-D solves really route through the unified solvers.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dependence.hpp"
#include "fusion/driver.hpp"
#include "graph/solver_workspace.hpp"
#include "graph/spfa.hpp"
#include "support/diagnostics.hpp"
#include "fusion/multidim.hpp"
#include "ir/parser.hpp"
#include "ldg/serialization.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"
#include "workloads/extra.hpp"
#include "workloads/gallery.hpp"
#include "workloads/generators.hpp"

namespace lf {
namespace {

std::string golden_path(const std::string& name) {
    return std::string(LF_SOURCE_DIR) + "/tests/golden/" + name;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// Compares `actual` against the named golden file; with LF_UPDATE_GOLDEN=1
/// rewrites the file instead (and still passes).
void check_golden(const std::string& name, const std::string& actual) {
    const std::string path = golden_path(name);
    if (std::getenv("LF_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        return;
    }
    const std::string expected = read_file(path);
    ASSERT_FALSE(expected.empty()) << "missing golden file " << path
                                   << " (regenerate with LF_UPDATE_GOLDEN=1)";
    EXPECT_EQ(expected, actual) << "planner behavior diverged from the seed golden "
                                << path << " (see file header for regeneration)";
}

// ---------------------------------------------------------------------------
// 2-D gallery digest

std::string digest_plan_2d(const std::string& id, const Mldg& g) {
    std::ostringstream out;
    out << "== workload " << id << "\n";
    const Result<FusionPlan> r = try_plan_fusion(g);
    const std::vector<StageReport>& stages = r.ok() ? r.value().stages : r.status().stages;
    for (const StageReport& s : stages) {
        out << "stage " << s.stage << ":" << to_string(s.code);
        if (!s.detail.empty()) out << " [" << s.detail << "]";
        out << "\n";
    }
    if (!r.ok()) {
        out << "status " << to_string(r.status().code()) << "\n";
        return out.str();
    }
    const FusionPlan& plan = r.value();
    out << "status Ok\n";
    out << "algorithm " << to_string(plan.algorithm) << "\n";
    out << "level " << to_string(plan.level) << "\n";
    out << "schedule " << plan.schedule.str() << "\n";
    out << "hyperplane " << plan.hyperplane.str() << "\n";
    out << "body_order";
    for (int n : plan.body_order) out << " " << plan.retimed.node(n).name;
    out << "\n";
    out << "retiming";
    for (int n = 0; n < plan.retiming.num_nodes(); ++n) {
        out << " " << plan.retimed.node(n).name << "=" << plan.retiming.of(n).str();
    }
    out << "\n";
    out << serialize_mldg(plan.retimed, id + ".retimed");
    return out.str();
}

TEST(GoldenDifferential, PaperGalleryPlans) {
    std::ostringstream out;
    for (const workloads::Workload& w : workloads::paper_workloads()) {
        out << digest_plan_2d(w.id, w.graph);
    }
    check_golden("gallery_paper.golden", out.str());
}

TEST(GoldenDifferential, ExtraGalleryPlans) {
    std::ostringstream out;
    for (const workloads::ExtraWorkload& w : workloads::extra_workloads()) {
        const ir::Program p = ir::parse_program(w.dsl_source);
        out << digest_plan_2d(w.id, analysis::build_mldg(p));
    }
    check_golden("gallery_extra.golden", out.str());
}

// The as-printed Figure 14 is the gallery's canonical *illegal* input: its
// zero-weight cycle must keep producing the same failing rung trace.
TEST(GoldenDifferential, Fig14AsPrintedTrace) {
    check_golden("fig14_as_printed.golden",
                 digest_plan_2d("fig14_as_printed", workloads::fig14_graph_as_printed()));
}

// ---------------------------------------------------------------------------
// Ladder work digest: what every rung cost, not only what it produced. The
// steps a rung consumes decide where ResourceExhausted fires and therefore
// how the service escalates, so the per-rung budget and solver counters are
// pinned too (wall_ns excluded: the one nondeterministic counter). Each
// input runs clean, under every planner fault point, under two step budgets
// and under both post-pass objectives; a reused PlannerWorkspace must not
// change a single count.

std::string digest_work(const Result<FusionPlan>& r) {
    std::ostringstream out;
    const std::vector<StageReport>& stages = r.ok() ? r.value().stages : r.status().stages;
    for (const StageReport& s : stages) {
        const SolverStats& st = s.solver;
        out << "  " << s.stage << ":" << to_string(s.code) << " budget=" << s.budget_consumed
            << " scans=" << st.edge_scans << " relax=" << st.relaxations
            << " iters=" << st.iterations << " guard=" << st.guard_steps
            << " warm=" << st.warm_starts << " cold=" << st.cold_solves
            << " shared=" << st.rungs_shared << "\n";
    }
    out << "  => " << (r.ok() ? to_string(r.value().algorithm) : to_string(r.status().code()))
        << "\n";
    return out.str();
}

std::vector<std::pair<std::string, Mldg>> ladder_work_inputs() {
    std::vector<std::pair<std::string, Mldg>> inputs;
    for (const workloads::Workload& w : workloads::paper_workloads()) {
        inputs.emplace_back(w.id, w.graph);
    }
    for (const workloads::ExtraWorkload& w : workloads::extra_workloads()) {
        inputs.emplace_back(w.id, analysis::build_mldg(ir::parse_program(w.dsl_source)));
    }
    inputs.emplace_back("fig14_as_printed", workloads::fig14_graph_as_printed());
    // The shape of the benchmark's miss-graph traffic: ~4 forward edges and
    // ~1 backward edge per node.
    const int kSizes[] = {32, 64, 100, 160};
    for (int k = 0; k < 4; ++k) {
        Rng rng(static_cast<std::uint64_t>(101 + k));
        workloads::RandomGraphOptions o;
        o.num_nodes = kSizes[k];
        o.forward_edge_prob = 4.0 / o.num_nodes;
        o.backward_edge_prob = 1.0 / o.num_nodes;
        o.self_edge_prob = 0.2;
        inputs.emplace_back("random_legal_" + std::to_string(o.num_nodes),
                            workloads::random_legal_mldg(rng, o));
    }
    return inputs;
}

TEST(GoldenDifferential, LadderWork) {
    struct Variant {
        std::string label;
        const char* fault = nullptr;
        std::uint64_t max_steps = kUnlimitedSteps;
        PlanPolicy policy = PlanPolicy::FastestSchedule;
        bool compact = false;
    };
    std::vector<Variant> variants{{"clean"}};
    for (const char* fault : {"acyclic_doall", "cyclic_doall.phase1", "cyclic_doall.phase2",
                              "forced_carry", "hyperplane", "llofra", "distribution",
                              "solver.bellman_ford", "solver.spfa"}) {
        variants.push_back({std::string("fault ") + fault, fault});
    }
    variants.push_back({"steps 256", nullptr, 256});
    variants.push_back({"steps 2048", nullptr, 2048});
    variants.push_back({"policy smallest", nullptr, kUnlimitedSteps, PlanPolicy::SmallestCode});
    variants.push_back({"compact", nullptr, kUnlimitedSteps, PlanPolicy::FastestSchedule, true});

    PlannerWorkspace ws;
    std::ostringstream out;
    for (const auto& [id, g] : ladder_work_inputs()) {
        out << "== workload " << id << "\n";
        for (const Variant& v : variants) {
            TryPlanOptions opts;
            opts.limits.max_steps = v.max_steps;
            opts.plan.policy = v.policy;
            opts.plan.compact_prologue = v.compact;
            faultpoint::reset();
            if (v.fault != nullptr) faultpoint::arm(v.fault);
            const std::string alone = digest_work(try_plan_fusion(g, opts));
            opts.workspace = &ws;
            const std::string reused = digest_work(try_plan_fusion(g, opts));
            faultpoint::reset();
            EXPECT_EQ(alone, reused) << id << " / " << v.label
                                     << ": a reused workspace changed the ladder's work";
            out << "-- " << v.label << "\n" << alone;
        }
    }
    check_golden("ladder_work.golden", out.str());
}

// ---------------------------------------------------------------------------
// N-D gallery digest

MldgN stencil_3d() {
    MldgN g(3);
    const int a = g.add_node("A");
    const int b = g.add_node("B");
    const int c = g.add_node("C");
    g.add_edge(a, b, {VecN{0, 0, -2}, VecN{0, 0, 1}});  // hard, fusion-preventing
    g.add_edge(b, c, {VecN{0, 1, -1}});
    g.add_edge(c, a, {VecN{1, -1, 0}});
    g.add_edge(c, c, {VecN{1, 0, 2}});
    return g;
}

MldgN acyclic_chain_3d() {
    MldgN g(3);
    const int a = g.add_node("A");
    const int b = g.add_node("B");
    const int c = g.add_node("C");
    g.add_edge(a, b, {VecN{0, 0, -2}, VecN{0, 3, 1}});
    g.add_edge(b, c, {VecN{0, 2, -5}});
    g.add_edge(a, c, {VecN{2, 0, 0}});
    return g;
}

MldgN wavefront_4d() {
    MldgN g(4);
    const int a = g.add_node("A");
    const int b = g.add_node("B");
    g.add_edge(a, b, {VecN{0, 0, 0, -3}, VecN{0, 0, 1, 2}});
    g.add_edge(b, a, {VecN{0, 1, -1, 0}});
    g.add_edge(a, a, {VecN{1, 0, 0, -2}});
    return g;
}

MldgN feedback_1d() {
    MldgN g(1);
    const int a = g.add_node("A");
    const int b = g.add_node("B");
    g.add_edge(a, b, {VecN{-1}});
    g.add_edge(b, a, {VecN{2}});
    return g;
}

std::string digest_plan_nd(const std::string& id, const MldgN& g) {
    std::ostringstream out;
    out << "== nd-workload " << id << " dim=" << g.dim() << "\n";
    if (!is_schedulable_nd(g)) {
        out << "status unschedulable\n";
        return out.str();
    }
    const NdFusionPlan plan = plan_fusion_nd(g);
    out << "level "
        << (plan.level == NdParallelism::OutermostCarried ? "OutermostCarried" : "Hyperplane")
        << "\n";
    out << "schedule " << plan.schedule.str() << "\n";
    out << "retiming";
    for (int n = 0; n < plan.retiming.num_nodes(); ++n) {
        out << " " << g.node(n).name << "=" << plan.retiming.of(n).str();
    }
    out << "\n";
    out << plan.retimed.summary();
    return out.str();
}

TEST(GoldenDifferential, NdGalleryPlans) {
    std::ostringstream out;
    out << digest_plan_nd("stencil_3d", stencil_3d());
    out << digest_plan_nd("acyclic_chain_3d", acyclic_chain_3d());
    out << digest_plan_nd("wavefront_4d", wavefront_4d());
    out << digest_plan_nd("feedback_1d", feedback_1d());
    check_golden("gallery_nd.golden", out.str());
}

// ---------------------------------------------------------------------------
// Fault points on the unified path. These prove that both the 2-D ladder and
// the N-D planners route through the *same* solver entry points: arming
// solver.bellman_ford / solver.spfa must register hits from either side.

class FaultPointsOnUnifiedPath : public ::testing::Test {
  protected:
    void SetUp() override { faultpoint::reset(); }
    void TearDown() override { faultpoint::reset(); }
};

TEST_F(FaultPointsOnUnifiedPath, BellmanFordFires2d) {
    faultpoint::arm("solver.bellman_ford");
    const Result<FusionPlan> r = try_plan_fusion(workloads::fig2_graph());
    EXPECT_GE(faultpoint::hits("solver.bellman_ford"), 1u);
    // Every solver-backed rung is poisoned; only the solver-free
    // distribution fallback can still succeed.
    if (r.ok()) {
        EXPECT_EQ(r.value().algorithm, AlgorithmUsed::DistributionFallback);
    }
}

TEST_F(FaultPointsOnUnifiedPath, BellmanFordFiresNd) {
    faultpoint::arm("solver.bellman_ford");
    const MldgN g = stencil_3d();
    // Schedulability checking and LLOFRA both solve through the unified
    // Bellman-Ford; with the fault armed the solve reports Internal and the
    // planner must refuse rather than fabricate a retiming.
    EXPECT_FALSE(is_schedulable_nd(g));
    EXPECT_THROW((void)plan_fusion_nd(g), Error);
    EXPECT_GE(faultpoint::hits("solver.bellman_ford"), 1u);
}

TEST_F(FaultPointsOnUnifiedPath, SpfaFires) {
    faultpoint::arm("solver.spfa");
    WeightTraits<std::int64_t> traits;
    std::vector<WeightedEdge<std::int64_t>> edges{{0, 1, -1}, {1, 2, -1}};
    const SpfaResult<std::int64_t> r = spfa_all_sources<std::int64_t>(3, edges);
    EXPECT_EQ(r.status, StatusCode::Internal);
    EXPECT_GE(faultpoint::hits("solver.spfa"), 1u);
    (void)traits;
}

}  // namespace
}  // namespace lf
