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
//
// interp.golden pins the host-side interpreter -- the oracle every fused
// schedule and every native kernel is checked against: the C checksums,
// every engine's stats, written-array digests and load/store counts, the
// full address trace of two schedules, order-violation counts, and the exact
// partial state and error text of an out-of-bounds run. It was recorded
// from the AST-walking interpreter before the resolve-once evaluator
// replaced it.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dependence.hpp"
#include "exec/engines.hpp"
#include "exec/engines_nd.hpp"
#include "exec/equivalence.hpp"
#include "front/parse.hpp"
#include "fusion/driver.hpp"
#include "graph/solver_workspace.hpp"
#include "graph/spfa.hpp"
#include "support/diagnostics.hpp"
#include "fusion/multidim.hpp"
#include "ir/parser.hpp"
#include "ldg/serialization.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"
#include "transform/codegen_c.hpp"
#include "transform/codegen_nd.hpp"
#include "transform/fused_program.hpp"
#include "workloads/extra.hpp"
#include "workloads/gallery.hpp"
#include "workloads/generators.hpp"
#include "workloads/sources.hpp"

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
// Interpreter digest

/// FNV-1a over raw bytes; doubles are hashed by bit pattern.
struct Fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void bytes(const void* data, std::size_t n) {
        const auto* c = static_cast<const unsigned char*>(data);
        for (std::size_t k = 0; k < n; ++k) {
            h ^= c[k];
            h *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double d) {
        std::uint64_t v = 0;
        std::memcpy(&v, &d, sizeof v);
        u64(v);
    }
    [[nodiscard]] std::string hex() const {
        std::ostringstream os;
        os << std::hex << std::setw(16) << std::setfill('0') << h;
        return os.str();
    }
};

/// Every cell (halo included) of every array `p` writes.
std::string written_digest(const ir::Program& p, const exec::ArrayStore& store) {
    Fnv1a f;
    for (const std::string& name : p.written_arrays()) {
        const exec::Array2D& a = store.array(name);
        for (std::int64_t i = a.lo_i(); i < a.lo_i() + a.rows(); ++i) {
            for (std::int64_t j = a.lo_j(); j < a.lo_j() + a.cols(); ++j) f.f64(a.at(i, j));
        }
    }
    return f.hex();
}

std::string written_digest_md(const front::BasicProgram<VecN>& p, const exec::MdDomain& dom,
                              std::int64_t halo, const exec::MdArrayStore& store) {
    Fnv1a f;
    const std::vector<std::int64_t> lo(static_cast<std::size_t>(p.dim), -halo);
    std::vector<std::int64_t> hi = dom.ext;
    for (std::int64_t& h : hi) h += halo;
    for (const std::string& name : p.written_arrays()) {
        std::vector<std::int64_t> cell = lo;
        do {
            f.f64(store.load(name, VecN(cell)));
        } while (exec::next_point(cell, lo, hi));
    }
    return f.hex();
}

std::string trace_digest(const exec::ArrayStore& store) {
    Fnv1a f;
    for (const exec::TraceEntry& e : store.trace()) {
        f.u64(static_cast<std::uint64_t>(e.array_id));
        f.u64(static_cast<std::uint64_t>(e.address));
        f.u64(e.is_write ? 1 : 0);
        f.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.processor)));
    }
    std::ostringstream os;
    os << store.trace().size() << " entries " << f.hex();
    return os.str();
}

std::string domain_str(const Domain& dom) {
    return std::to_string(dom.n) + "x" + std::to_string(dom.m);
}

std::string md_domain_str(const exec::MdDomain& dom) {
    std::string out;
    for (const std::int64_t e : dom.ext) out += (out.empty() ? "" : "x") + std::to_string(e);
    return out;
}

/// Runs one 2-D engine on a fresh store and records what it observably did:
/// stats (or the error it threw), load/store counts, the written-array
/// digest and the first difference from the reference store.
void digest_engine(std::ostream& out, const std::string& engine, const ir::Program& p,
                   const Domain& dom, const exec::ArrayStore& reference,
                   const std::function<exec::ExecStats(exec::ArrayStore&)>& run,
                   std::optional<std::int64_t> halo = std::nullopt) {
    exec::ArrayStore store(p, dom, halo);
    out << "  " << engine << ":";
    try {
        const exec::ExecStats st = run(store);
        out << " barriers=" << st.barriers << " instances=" << st.instances
            << " phases=" << st.phases;
    } catch (const Error& e) {
        out << " error=[" << e.what() << "]";
    }
    out << " loads=" << store.loads() << " stores=" << store.stores()
        << " written=" << written_digest(p, store) << " diff=["
        << exec::first_difference(p, dom, reference, store).value_or("none") << "]\n";
}

void digest_engines_2d(std::ostream& out, const std::string& id, const ir::Program& p,
                       const Domain& dom) {
    out << "== engines " << id << " " << domain_str(dom) << "\n";
    const FusionPlan plan = plan_fusion(analysis::build_mldg(p));
    const transform::FusedProgram fp = transform::fuse_program(p, plan);
    exec::ArrayStore reference(p, dom);
    (void)exec::run_original(p, dom, reference);
    digest_engine(out, "original", p, dom, reference,
                  [&](exec::ArrayStore& s) { return exec::run_original(p, dom, s); });
    digest_engine(out, "original_blocked(3)", p, dom, reference,
                  [&](exec::ArrayStore& s) { return exec::run_original_blocked(p, dom, s, 3); });
    digest_engine(out, "fused_rowwise", p, dom, reference,
                  [&](exec::ArrayStore& s) { return exec::run_fused_rowwise(fp, dom, s); });
    digest_engine(out, "wavefront", p, dom, reference,
                  [&](exec::ArrayStore& s) { return exec::run_wavefront(fp, dom, s); });
    digest_engine(out, "fused_peeled", p, dom, reference,
                  [&](exec::ArrayStore& s) { return exec::run_fused_peeled(fp, dom, s); });
    digest_engine(out, "fused_blocked(4)", p, dom, reference,
                  [&](exec::ArrayStore& s) { return exec::run_fused_blocked(fp, dom, s, 4); });
    digest_engine(out, "fused_threaded(3)", p, dom, reference,
                  [&](exec::ArrayStore& s) { return exec::run_fused_threaded(fp, dom, s, 3); });
}

void digest_engines_nd(std::ostream& out, const std::string& id,
                       const front::BasicProgram<VecN>& p, const exec::MdDomain& dom,
                       std::optional<std::int64_t> halo_opt = std::nullopt) {
    const std::int64_t halo = halo_opt.value_or(p.max_offset());
    out << "== nd-engines " << id << " " << md_domain_str(dom) << " halo=" << halo << "\n";
    const NdFusionPlan plan = plan_fusion_nd(analysis::build_mldg_nd(p));
    exec::MdArrayStore reference(p, dom, halo);
    exec::MdArrayStore original(p, dom, halo);
    exec::MdArrayStore fused(p, dom, halo);
    const auto run = [&](const char* engine, exec::MdArrayStore& store,
                         const std::function<exec::MdExecStats()>& fn) {
        out << "  " << engine << ":";
        try {
            const exec::MdExecStats st = fn();
            out << " barriers=" << st.barriers << " instances=" << st.instances;
        } catch (const Error& e) {
            out << " error=[" << e.what() << "]";
        }
        out << " written=" << written_digest_md(p, dom, halo, store) << "\n";
    };
    run("original_md", original, [&] { return exec::run_original_md(p, dom, original); });
    run("wavefront_md", fused, [&] { return exec::run_wavefront_md(p, plan, dom, fused); });
    out << "  diff(original, wavefront)=["
        << exec::first_difference_md(p, dom, original, fused).value_or("none") << "]\n";
    out << "  diff(initial, original)=["
        << exec::first_difference_md(p, dom, reference, original).value_or("none") << "]\n";
}

TEST(GoldenDifferential, Interpreter) {
    std::ostringstream out;
    const std::pair<const char*, std::string_view> gallery[] = {
        {"fig2", workloads::sources::kFig2},
        {"fig8", workloads::sources::kFig8},
        {"jacobi", workloads::sources::kJacobiPair},
        {"iir", workloads::sources::kIirChain},
    };

    // The native kernels' host-side expected checksums.
    for (const auto& [id, source] : gallery) {
        const ir::Program p = ir::parse_program(source);
        for (const Domain dom : {Domain{64, 64}, Domain{97, 41}}) {
            out << "checksum " << id << " " << domain_str(dom) << " "
                << transform::expected_c_checksum(p, dom) << "\n";
        }
    }
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        Rng rng(seed);
        const ir::Program p = workloads::random_program(rng);
        out << "checksum random" << seed << " 12x12 "
            << transform::expected_c_checksum(p, Domain{12, 12}) << "\n";
    }
    const auto volume = front::parse_basic_program<VecN>(workloads::sources::kVolume3d);
    const auto hyper = front::parse_basic_program<VecN>(workloads::sources::kHyper4d);
    out << "checksum volume3d 24x24x24 "
        << transform::expected_md_c_checksum(volume, exec::MdDomain{{24, 24, 24}}) << "\n";
    out << "checksum hyper4d 6x6x6x6 "
        << transform::expected_md_c_checksum(hyper, exec::MdDomain{{6, 6, 6, 6}}) << "\n";

    // Every engine, on the gallery and on seeded random programs.
    for (const auto& [id, source] : gallery) {
        digest_engines_2d(out, id, ir::parse_program(source), Domain{17, 13});
    }
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(seed);
        digest_engines_2d(out, "random" + std::to_string(seed), workloads::random_program(rng),
                          Domain{12, 12});
    }
    digest_engines_nd(out, "volume3d", volume, exec::MdDomain{{5, 6, 7}});
    digest_engines_nd(out, "hyper4d", hyper, exec::MdDomain{{4, 3, 5, 4}});

    // A mismatch report: fig2 with C and D swapped in the fused body order.
    {
        const ir::Program p = ir::parse_program(workloads::sources::kFig2);
        transform::FusedProgram fp =
            transform::fuse_program(p, plan_fusion(analysis::build_mldg(p)));
        auto c_it = std::find_if(fp.bodies.begin(), fp.bodies.end(),
                                 [](const auto& b) { return b.label == "C"; });
        auto d_it = std::find_if(fp.bodies.begin(), fp.bodies.end(),
                                 [](const auto& b) { return b.label == "D"; });
        std::iter_swap(c_it, d_it);
        const Domain dom{15, 15};
        exec::ArrayStore reference(p, dom);
        (void)exec::run_original(p, dom, reference);
        out << "== swapped fig2 C/D\n";
        digest_engine(out, "fused_rowwise", p, dom, reference,
                      [&](exec::ArrayStore& s) { return exec::run_fused_rowwise(fp, dom, s); });
    }

    // Out-of-bounds runs: the halo is one cell short, so the reads of b at
    // j+2 leave the array on the last column of the first row. The error
    // text, the counts and the partial state pin where execution stops.
    {
        const ir::Program p = ir::parse_program(
            "program short { loop A { a[i][j] = b[i][j-1] + b[i][j+2]; } "
            "loop B { b[i][j] = a[i][j] * 0.5; } }");
        const Domain dom{6, 5};
        exec::ArrayStore reference(p, dom);
        (void)exec::run_original(p, dom, reference);
        const transform::FusedProgram fp =
            transform::fuse_program(p, plan_fusion(analysis::build_mldg(p)));
        out << "== out-of-bounds short " << domain_str(dom) << " halo=1\n";
        digest_engine(
            out, "original", p, dom, reference,
            [&](exec::ArrayStore& s) { return exec::run_original(p, dom, s); }, 1);
        digest_engine(
            out, "fused_rowwise", p, dom, reference,
            [&](exec::ArrayStore& s) { return exec::run_fused_rowwise(fp, dom, s); }, 1);
        const auto pn = front::parse_basic_program<VecN>(
            "program short dim 3 { loop A { a[i1][i2][j] = b[i1][i2][j-1] + b[i1][i2][j+2]; } "
            "loop B { b[i1][i2][j] = a[i1][i2][j] * 0.5; } }");
        digest_engines_nd(out, "short", pn, exec::MdDomain{{2, 3, 5}}, 1);
    }

    // Address traces: fig2 as written and block-partitioned over 4 processors.
    {
        const ir::Program p = ir::parse_program(workloads::sources::kFig2);
        const transform::FusedProgram fp =
            transform::fuse_program(p, plan_fusion(analysis::build_mldg(p)));
        const Domain dom{9, 7};
        exec::ArrayStore original(p, dom);
        original.enable_tracing();
        (void)exec::run_original(p, dom, original);
        exec::ArrayStore blocked(p, dom);
        blocked.enable_tracing();
        (void)exec::run_fused_blocked(fp, dom, blocked, 4);
        out << "trace fig2 original " << trace_digest(original) << "\n";
        out << "trace fig2 fused_blocked(4) " << trace_digest(blocked) << "\n";
    }

    // Order checking: iir's wavefront is clean; fig2 under the non-strict
    // schedule (0,1) runs consumers before producers.
    {
        const ir::Program iir = ir::parse_program(workloads::sources::kIirChain);
        const transform::FusedProgram fp =
            transform::fuse_program(iir, plan_fusion(analysis::build_mldg(iir)));
        exec::ArrayStore store(iir, Domain{12, 12});
        store.enable_order_checking();
        (void)exec::run_wavefront(fp, Domain{12, 12}, store);
        out << "order_violations iir wavefront " << store.order_violations() << "\n";

        const ir::Program fig2 = ir::parse_program(workloads::sources::kFig2);
        transform::FusedProgram bad =
            transform::fuse_program(fig2, plan_fusion(analysis::build_mldg(fig2)));
        bad.schedule = Vec2{0, 1};
        exec::ArrayStore checked(fig2, Domain{15, 15});
        checked.enable_order_checking();
        (void)exec::run_wavefront(bad, Domain{15, 15}, checked);
        out << "order_violations fig2 schedule(0,1) " << checked.order_violations() << "\n";
    }
    check_golden("interp.golden", out.str());
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
