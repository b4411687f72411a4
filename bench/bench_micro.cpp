// Micro-benchmarks (google-benchmark) for the core algorithmic kernels:
// Bellman-Ford (1-D and lexicographic 2-D), the constraint solver, the four
// fusion algorithms, dependence analysis and the cache simulator.
//
// In addition to the usual google-benchmark output, the binary writes two
// machine-readable summaries:
//
//   BENCH_solver.json  per-solver ns/op plus SolverStats aggregates
//                      (--solver_json=<path>; empty skips it);
//   BENCH_plan.json    end-to-end planning throughput over the full 2-D
//                      gallery and an N-D fixture set, in three modes --
//                      cold (fresh allocations per plan), warm (reused
//                      PlannerWorkspace, steady-state allocation-free) and
//                      cache-hit (content-addressed plan cache + certify
//                      re-check) -- with allocations/plan from the
//                      workspace's counting allocator and the computed
//                      speedups over cold (--plan_json=<path>; empty skips
//                      it).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <thread>

#include "analysis/dependence.hpp"
#include "exec/compile.hpp"
#include "exec/native.hpp"
#include "fusion/acyclic_doall.hpp"
#include "fusion/certify.hpp"
#include "fusion/cyclic_doall.hpp"
#include "fusion/compact.hpp"
#include "fusion/driver.hpp"
#include "fusion/hyperplane.hpp"
#include "fusion/llofra.hpp"
#include "fusion/multidim.hpp"
#include "graph/bellman_ford.hpp"
#include "graph/solver_workspace.hpp"
#include "ir/parser.hpp"
#include "graph/spfa.hpp"
#include "analysis/dependence.hpp"
#include "front/parse.hpp"
#include "sim/cache.hpp"
#include "support/cemit.hpp"
#include "support/json.hpp"
#include "support/lexvec.hpp"
#include "svc/manifest.hpp"
#include "svc/plancache.hpp"
#include "transform/codegen_c.hpp"
#include "transform/codegen_nd.hpp"
#include "transform/fused_program.hpp"
#include "workloads/gallery.hpp"
#include "workloads/generators.hpp"
#include "workloads/sources.hpp"

namespace {

using namespace lf;

std::vector<WeightedEdge<std::int64_t>> random_edges_1d(int nodes, int edges, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<WeightedEdge<std::int64_t>> out;
    out.reserve(static_cast<std::size_t>(edges));
    for (int k = 0; k < edges; ++k) {
        out.push_back({static_cast<int>(rng.uniform(0, nodes - 1)),
                       static_cast<int>(rng.uniform(0, nodes - 1)), rng.uniform(0, 20)});
    }
    return out;
}

void BM_BellmanFord1D(benchmark::State& state) {
    const int nodes = static_cast<int>(state.range(0));
    const auto edges = random_edges_1d(nodes, nodes * 4, 42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(bellman_ford_all_sources<std::int64_t>(nodes, edges));
    }
    state.SetComplexityN(nodes);
}
BENCHMARK(BM_BellmanFord1D)->Range(16, 1024)->Complexity();

void BM_BellmanFord2DLexicographic(benchmark::State& state) {
    const int nodes = static_cast<int>(state.range(0));
    Rng rng(7);
    std::vector<WeightedEdge<Vec2>> edges;
    for (int k = 0; k < nodes * 4; ++k) {
        edges.push_back({static_cast<int>(rng.uniform(0, nodes - 1)),
                         static_cast<int>(rng.uniform(0, nodes - 1)),
                         Vec2{rng.uniform(0, 5), rng.uniform(-5, 5)}});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(bellman_ford_all_sources<Vec2>(nodes, edges));
    }
    state.SetComplexityN(nodes);
}
BENCHMARK(BM_BellmanFord2DLexicographic)->Range(16, 1024)->Complexity();

Mldg random_graph(int nodes, std::uint64_t seed) {
    Rng rng(seed);
    workloads::RandomGraphOptions opt;
    opt.num_nodes = nodes;
    opt.forward_edge_prob = 6.0 / nodes;
    opt.backward_edge_prob = 2.0 / nodes;
    return workloads::random_legal_mldg(rng, opt);
}

void BM_Llofra(benchmark::State& state) {
    const Mldg g = random_graph(static_cast<int>(state.range(0)), 11);
    for (auto _ : state) benchmark::DoNotOptimize(llofra(g));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Llofra)->Range(16, 512)->Complexity();

void BM_AcyclicDoall(benchmark::State& state) {
    Rng rng(13);
    workloads::RandomGraphOptions opt;
    opt.num_nodes = static_cast<int>(state.range(0));
    opt.forward_edge_prob = 6.0 / opt.num_nodes;
    opt.backward_edge_prob = 0;
    opt.self_edge_prob = 0;
    const Mldg g = workloads::random_legal_mldg(rng, opt);
    for (auto _ : state) benchmark::DoNotOptimize(acyclic_doall_fusion(g));
}
BENCHMARK(BM_AcyclicDoall)->Range(16, 512);

void BM_CyclicDoall(benchmark::State& state) {
    const Mldg g = random_graph(static_cast<int>(state.range(0)), 17);
    for (auto _ : state) benchmark::DoNotOptimize(cyclic_doall_fusion(g));
}
BENCHMARK(BM_CyclicDoall)->Range(16, 512);

void BM_HyperplaneFusion(benchmark::State& state) {
    const Mldg g = random_graph(static_cast<int>(state.range(0)), 19);
    for (auto _ : state) benchmark::DoNotOptimize(hyperplane_fusion(g));
}
BENCHMARK(BM_HyperplaneFusion)->Range(16, 512);

void BM_PlanFusionFig2(benchmark::State& state) {
    const Mldg g = workloads::fig2_graph();
    for (auto _ : state) benchmark::DoNotOptimize(plan_fusion(g));
}
BENCHMARK(BM_PlanFusionFig2);

void BM_DependenceAnalysis(benchmark::State& state) {
    const ir::Program p = ir::parse_program(workloads::sources::kIirChain);
    for (auto _ : state) benchmark::DoNotOptimize(analysis::analyze_dependences(p));
}
BENCHMARK(BM_DependenceAnalysis);

void BM_ParseFig2(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(ir::parse_program(workloads::sources::kFig2));
    }
}
BENCHMARK(BM_ParseFig2);

void BM_CacheSimSweep(benchmark::State& state) {
    sim::CacheSim cache(sim::CacheConfig{8, 64, 4});
    std::int64_t address = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(address));
        address = (address + 7) % 100000;
    }
}
BENCHMARK(BM_CacheSimSweep);

// ---- End-to-end planning benchmarks (full ladder, gallery inputs) ----
//
// The 2-D inputs are the service's own job manifest (paper gallery +
// extended workloads), so these numbers measure exactly what one service
// job pays minus gate/replay overhead. The N-D fixtures mirror the golden
// differential suite's shapes.

std::vector<Mldg> gallery_graphs() {
    std::vector<Mldg> graphs;
    for (const auto& job : svc::full_gallery_jobs()) graphs.push_back(job.graph);
    return graphs;
}

/// Gallery plus larger random legal MLDGs: the gallery shapes are paper-scale
/// (3-6 loops), where per-plan fixed costs dominate; the stress sizes are
/// where the ladder's all-sources solves actually bite.
std::vector<Mldg> planning_input_set() {
    std::vector<Mldg> graphs = gallery_graphs();
    for (const int nodes : {64, 128, 256}) {
        graphs.push_back(random_graph(nodes, 29 + static_cast<std::uint64_t>(nodes)));
    }
    return graphs;
}

std::vector<MldgN> nd_fixture_graphs() {
    std::vector<MldgN> graphs;
    {
        MldgN g(3);  // cyclic 3-D stencil with a hard fusion-preventing edge
        const int a = g.add_node("A");
        const int b = g.add_node("B");
        const int c = g.add_node("C");
        g.add_edge(a, b, {VecN{0, 0, -2}, VecN{0, 0, 1}});
        g.add_edge(b, c, {VecN{0, 1, -1}});
        g.add_edge(c, a, {VecN{1, -1, 0}});
        g.add_edge(c, c, {VecN{1, 0, 2}});
        graphs.push_back(std::move(g));
    }
    {
        MldgN g(3);  // acyclic chain: outermost-DOALL fusion succeeds
        const int a = g.add_node("A");
        const int b = g.add_node("B");
        const int c = g.add_node("C");
        g.add_edge(a, b, {VecN{0, 0, -2}, VecN{0, 3, 1}});
        g.add_edge(b, c, {VecN{0, 2, -5}});
        g.add_edge(a, c, {VecN{2, 0, 0}});
        graphs.push_back(std::move(g));
    }
    {
        MldgN g(4);  // 4-D wavefront chain
        const int a = g.add_node("A");
        const int b = g.add_node("B");
        g.add_edge(a, b, {VecN{0, 0, 0, -1}});
        g.add_edge(b, a, {VecN{1, 0, -1, 0}});
        graphs.push_back(std::move(g));
    }
    return graphs;
}

void BM_PlanLadderGalleryCold(benchmark::State& state) {
    const auto graphs = gallery_graphs();
    for (auto _ : state) {
        for (const Mldg& g : graphs) benchmark::DoNotOptimize(try_plan_fusion(g));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(graphs.size()));
}
BENCHMARK(BM_PlanLadderGalleryCold);

void BM_PlanLadderGalleryWarm(benchmark::State& state) {
    const auto graphs = gallery_graphs();
    PlannerWorkspace ws;
    TryPlanOptions opts;
    opts.workspace = &ws;
    for (auto _ : state) {
        for (const Mldg& g : graphs) benchmark::DoNotOptimize(try_plan_fusion(g, opts));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(graphs.size()));
}
BENCHMARK(BM_PlanLadderGalleryWarm);

void BM_PlanCacheHit(benchmark::State& state) {
    const auto graphs = gallery_graphs();
    svc::PlanCache cache(graphs.size());
    std::vector<std::uint64_t> keys;
    for (const Mldg& g : graphs) {
        const std::uint64_t key = svc::PlanCache::key_of(g, PlanOptions{}, true);
        auto plan = try_plan_fusion(g);
        if (plan.ok()) cache.insert(key, *plan);
        keys.push_back(key);
    }
    // Steady-state hit path: hash + lookup + the gate's certify re-check.
    for (auto _ : state) {
        for (std::size_t i = 0; i < graphs.size(); ++i) {
            const std::uint64_t key = svc::PlanCache::key_of(graphs[i], PlanOptions{}, true);
            benchmark::DoNotOptimize(key == keys[i]);
            auto hit = cache.lookup(key);
            if (hit) benchmark::DoNotOptimize(certify_plan(graphs[i], *hit));
        }
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(graphs.size()));
}
BENCHMARK(BM_PlanCacheHit);

void BM_PlanFusionNdWarm(benchmark::State& state) {
    const auto graphs = nd_fixture_graphs();
    PlannerWorkspace ws;
    for (auto _ : state) {
        for (const MldgN& g : graphs) benchmark::DoNotOptimize(plan_fusion_nd(g, &ws));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(graphs.size()));
}
BENCHMARK(BM_PlanFusionNdWarm);

// ---- Machine-readable planning summary (BENCH_plan.json) ----
//
// Timed with std::chrono over `kPlanReps` passes of the whole input set;
// allocations/plan comes from the PlannerWorkspace counting allocator and
// is measured over the steady state only (the first pass, which grows the
// arena, is excluded) -- the acceptance target is 0.

struct PlanModeSummary {
    std::uint64_t plans = 0;
    std::uint64_t wall_ns = 0;
    double allocations_per_plan = 0.0;  // meaningful for warm modes only

    [[nodiscard]] double ns_per_plan() const {
        return plans == 0 ? 0.0 : static_cast<double>(wall_ns) / static_cast<double>(plans);
    }
    [[nodiscard]] double plans_per_sec() const {
        return wall_ns == 0 ? 0.0
                            : static_cast<double>(plans) * 1e9 / static_cast<double>(wall_ns);
    }
};

void write_plan_mode(json::Writer& w, const char* mode, const PlanModeSummary& s) {
    w.begin_object();
    w.kv("mode", mode);
    w.kv("plans", s.plans);
    w.kv("wall_ns", s.wall_ns);
    w.kv("ns_per_plan", s.ns_per_plan());
    w.kv("plans_per_sec", s.plans_per_sec());
    w.kv("allocations_per_plan", s.allocations_per_plan);
    w.end_object();
}

/// Best of three timed trials of `reps` passes each -- the minimum is the
/// standard robust estimator against scheduler noise and frequency drift.
template <typename Fn>
PlanModeSummary time_plan_mode(int reps, std::uint64_t plans_per_rep, Fn&& pass) {
    PlanModeSummary s;
    s.plans = plans_per_rep * static_cast<std::uint64_t>(reps);
    s.wall_ns = ~std::uint64_t{0};
    for (int trial = 0; trial < 3; ++trial) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; ++r) pass();
        const auto t1 = std::chrono::steady_clock::now();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
        if (ns < s.wall_ns) s.wall_ns = ns;
    }
    return s;
}

bool write_plan_json(const std::string& path) {
    constexpr int kPlanReps = 40;
    const auto graphs = planning_input_set();
    const auto nd_graphs = nd_fixture_graphs();
    const auto n2d = static_cast<std::uint64_t>(graphs.size());
    const auto nnd = static_cast<std::uint64_t>(nd_graphs.size());

    // 2-D cold: a fresh solve allocates everything per plan (pre-workspace
    // behaviour; also what a service run pays on its very first job).
    const PlanModeSummary cold = time_plan_mode(kPlanReps, n2d, [&] {
        for (const Mldg& g : graphs) benchmark::DoNotOptimize(try_plan_fusion(g));
    });

    // 2-D warm: one reused workspace; first pass grows the arena, the timed
    // + allocation-counted passes are pure steady state.
    PlannerWorkspace ws;
    TryPlanOptions warm_opts;
    warm_opts.workspace = &ws;
    for (const Mldg& g : graphs) benchmark::DoNotOptimize(try_plan_fusion(g, warm_opts));
    ws.reset_counters();
    PlanModeSummary warm = time_plan_mode(kPlanReps, n2d, [&] {
        for (const Mldg& g : graphs) benchmark::DoNotOptimize(try_plan_fusion(g, warm_opts));
    });
    // The counter ran over all 3 trials, not just the best one.
    warm.allocations_per_plan =
        warm.plans == 0 ? 0.0
                        : static_cast<double>(ws.total_allocations()) /
                              (3.0 * static_cast<double>(warm.plans));

    // Cache hit: content hash + LRU lookup + certify re-check (exactly the
    // service's hit path; the ladder never runs).
    svc::PlanCache cache(graphs.size());
    for (const Mldg& g : graphs) {
        auto plan = try_plan_fusion(g, warm_opts);
        if (plan.ok()) cache.insert(svc::PlanCache::key_of(g, PlanOptions{}, true), *plan);
    }
    const PlanModeSummary hit = time_plan_mode(kPlanReps, n2d, [&] {
        for (const Mldg& g : graphs) {
            auto cached = cache.lookup(svc::PlanCache::key_of(g, PlanOptions{}, true));
            if (cached) benchmark::DoNotOptimize(certify_plan(g, *cached));
        }
    });

    // N-D planner, cold vs warm (no cache: the service only plans 2-D jobs).
    const PlanModeSummary nd_cold = time_plan_mode(kPlanReps, nnd, [&] {
        for (const MldgN& g : nd_graphs) benchmark::DoNotOptimize(plan_fusion_nd(g));
    });
    PlannerWorkspace ws_nd;
    for (const MldgN& g : nd_graphs) benchmark::DoNotOptimize(plan_fusion_nd(g, &ws_nd));
    ws_nd.reset_counters();
    PlanModeSummary nd_warm = time_plan_mode(kPlanReps, nnd, [&] {
        for (const MldgN& g : nd_graphs) benchmark::DoNotOptimize(plan_fusion_nd(g, &ws_nd));
    });
    nd_warm.allocations_per_plan =
        nd_warm.plans == 0 ? 0.0
                           : static_cast<double>(ws_nd.total_allocations()) /
                                 (3.0 * static_cast<double>(nd_warm.plans));

    const auto speedup = [](const PlanModeSummary& base, const PlanModeSummary& fast) {
        return fast.wall_ns == 0 || base.plans == 0
                   ? 0.0
                   : base.ns_per_plan() / fast.ns_per_plan();
    };

    json::Writer w;
    w.begin_object();
    w.kv("gallery_workloads", n2d);
    w.kv("nd_fixtures", nnd);
    w.kv("reps", kPlanReps);
    w.key("modes").begin_array();
    write_plan_mode(w, "ladder_2d.cold", cold);
    write_plan_mode(w, "ladder_2d.warm", warm);
    write_plan_mode(w, "cache_hit", hit);
    write_plan_mode(w, "ladder_nd.cold", nd_cold);
    write_plan_mode(w, "ladder_nd.warm", nd_warm);
    w.end_array();
    w.key("speedups").begin_object();
    w.kv("warm_vs_cold", speedup(cold, warm));
    w.kv("cache_hit_vs_cold", speedup(cold, hit));
    w.kv("nd_warm_vs_cold", speedup(nd_cold, nd_warm));
    w.end_object();
    w.end_object();

    std::ofstream out(path);
    if (!out.good()) return false;
    out << w.str() << '\n';
    return out.good();
}

// ---- Machine-readable solver summary (BENCH_solver.json) ----
//
// Each entry runs one solver `solves` times on a fixed random instance with
// SolverStats attached; ns/op is wall_ns / solves from the stats themselves,
// so the JSON numbers are exactly what the telemetry pipeline reports.

void write_solver_entry(json::Writer& w, const char* name, const SolverStats& st) {
    w.begin_object();
    w.kv("solver", name);
    w.kv("ns_per_op", st.solves == 0 ? std::uint64_t{0} : st.wall_ns / st.solves);
    w.key("stats").begin_object();
    w.kv("solves", st.solves);
    w.kv("edge_scans", st.edge_scans);
    w.kv("relaxations", st.relaxations);
    w.kv("iterations", st.iterations);
    w.kv("queue_pushes", st.queue_pushes);
    w.kv("queue_pops", st.queue_pops);
    w.kv("guard_steps", st.guard_steps);
    w.kv("overflow_near_misses", st.overflow_near_misses);
    w.kv("wall_ns", st.wall_ns);
    w.end_object();
    w.end_object();
}

bool write_solver_json(const std::string& path) {
    constexpr int kNodes = 64;
    constexpr int kSolves = 50;

    const auto edges_1d = random_edges_1d(kNodes, kNodes * 4, 42);
    SolverStats bf1d;
    for (int k = 0; k < kSolves; ++k) {
        benchmark::DoNotOptimize(
            bellman_ford_all_sources<std::int64_t>(kNodes, edges_1d, nullptr, &bf1d));
    }
    SolverStats spfa1d;
    for (int k = 0; k < kSolves; ++k) {
        benchmark::DoNotOptimize(
            spfa_all_sources<std::int64_t>(kNodes, edges_1d, nullptr, &spfa1d));
    }

    Rng rng2(7);
    std::vector<WeightedEdge<Vec2>> edges_2d;
    for (int k = 0; k < kNodes * 4; ++k) {
        edges_2d.push_back({static_cast<int>(rng2.uniform(0, kNodes - 1)),
                            static_cast<int>(rng2.uniform(0, kNodes - 1)),
                            Vec2{rng2.uniform(0, 5), rng2.uniform(-5, 5)}});
    }
    SolverStats bf2d;
    for (int k = 0; k < kSolves; ++k) {
        benchmark::DoNotOptimize(
            bellman_ford_all_sources<Vec2>(kNodes, edges_2d, nullptr, &bf2d));
    }

    constexpr int kDim = 3;
    Rng rngn(23);
    std::vector<WeightedEdge<VecN>> edges_nd;
    for (int k = 0; k < kNodes * 4; ++k) {
        VecN wgt = VecN::zeros(kDim);
        wgt[0] = rngn.uniform(0, 5);
        for (int d = 1; d < kDim; ++d) wgt[d] = rngn.uniform(-5, 5);
        edges_nd.push_back({static_cast<int>(rngn.uniform(0, kNodes - 1)),
                            static_cast<int>(rngn.uniform(0, kNodes - 1)), std::move(wgt)});
    }
    SolverStats bfnd;
    for (int k = 0; k < kSolves; ++k) {
        benchmark::DoNotOptimize(bellman_ford_all_sources<VecN>(
            kNodes, edges_nd, nullptr, &bfnd, WeightTraits<VecN>(kDim)));
    }

    json::Writer w;
    w.begin_object();
    w.kv("nodes", kNodes);
    w.kv("edges", kNodes * 4);
    w.key("solvers").begin_array();
    write_solver_entry(w, "bellman_ford.int64", bf1d);
    write_solver_entry(w, "bellman_ford.vec2", bf2d);
    write_solver_entry(w, "bellman_ford.vecn_dim3", bfnd);
    write_solver_entry(w, "spfa.int64", spfa1d);
    w.end_array();
    w.end_object();

    std::ofstream out(path);
    if (!out.good()) return false;
    out << w.str() << '\n';
    return out.good();
}

// ---- Machine-readable native-kernel summary (BENCH_exec.json) ----
//
// Compiles every replayable gallery workload (plus a depth-3 pipeline)
// through the crash-contained native backend and reports the fused vs
// unfused wall time of the *emitted C*, best of `kExecTrials` sandboxed
// runs per kernel. Each run also differentially checks the native checksum
// against the interpreter: a kernel only appears as "verified" if every
// trial reproduced the interpreter's result bit-for-bit. Domains are sized
// so locality (not parallelism: the sandbox runs without OpenMP here) makes
// the fused form win -- the acceptance bar is fused_ns <= unfused_ns on
// every gallery kernel.
//
// When no C compiler is on PATH the summary is written with
// compiler_available=false and an empty kernel array, so report-only CI
// diffs degrade gracefully instead of failing the build.

struct ExecKernelRow {
    std::string name;
    std::string outcome;        // exec::to_string of the worst trial
    std::int64_t unfused_ns = 0;
    std::int64_t fused_ns = 0;
};

/// Folds one native check into the row: keeps the minimum per-form wall
/// time over trials, and the first non-verified outcome (if any) wins.
void fold_trial(ExecKernelRow& row, const exec::NativeCheck& nc) {
    if (!nc.verified()) {
        if (row.outcome.empty() || row.outcome == "verified") {
            row.outcome = std::string(exec::to_string(nc.outcome)) +
                          (nc.detail.empty() ? "" : ": " + nc.detail);
        }
        return;
    }
    if (row.outcome.empty()) row.outcome = "verified";
    if (row.unfused_ns == 0 || nc.ns_original < row.unfused_ns) {
        row.unfused_ns = nc.ns_original;
    }
    if (row.fused_ns == 0 || nc.ns_fused < row.fused_ns) row.fused_ns = nc.ns_fused;
}

bool write_exec_json(const std::string& path) {
    constexpr int kExecTrials = 7;
    const Domain dom2d{1024, 1024};

    exec::KernelCompiler compiler;  // fresh mkdtemp cache; objects reused across trials
    std::vector<ExecKernelRow> rows;

    if (compiler.available()) {
        struct GalleryEntry {
            const char* name;
            std::string_view source;
        };
        const GalleryEntry gallery[] = {
            {"fig2", workloads::sources::kFig2},
            {"fig8", workloads::sources::kFig8},
            {"jacobi", workloads::sources::kJacobiPair},
            {"iir", workloads::sources::kIirChain},
        };
        exec::SandboxLimits limits;
        limits.wall_ms = 60'000;  // 1024x1024 x 6 arrays is well under this
        for (const auto& entry : gallery) {
            ExecKernelRow row;
            row.name = entry.name;
            const ir::Program p = ir::parse_program(entry.source);
            const FusionPlan plan = plan_fusion(analysis::build_mldg(p));
            for (int t = 0; t < kExecTrials; ++t) {
                fold_trial(row, exec::native_check(p, plan, dom2d, compiler, limits));
            }
            rows.push_back(std::move(row));
        }
        {
            ExecKernelRow row;
            row.name = "volume3d";
            const auto p = front::parse_basic_program<VecN>(workloads::sources::kVolume3d);
            const NdFusionPlan plan = plan_fusion_nd(analysis::build_mldg_nd(p));
            exec::MdDomain mdom;
            mdom.ext = {96, 96, 96};
            for (int t = 0; t < kExecTrials; ++t) {
                fold_trial(row, exec::native_check_nd(p, plan, mdom, compiler, limits));
            }
            rows.push_back(std::move(row));
        }
    }

    json::Writer w;
    w.begin_object();
    w.kv("compiler_available", compiler.available());
    w.kv("trials", kExecTrials);
    w.key("domain_2d").begin_array();
    w.value(dom2d.n);
    w.value(dom2d.m);
    w.end_array();
    w.key("kernels").begin_array();
    for (const ExecKernelRow& row : rows) {
        w.begin_object();
        w.kv("kernel", row.name);
        w.kv("native", row.outcome);
        w.kv("unfused_ns", row.unfused_ns);
        w.kv("fused_ns", row.fused_ns);
        w.kv("ratio", row.unfused_ns == 0
                          ? 0.0
                          : static_cast<double>(row.fused_ns) /
                                static_cast<double>(row.unfused_ns));
        w.end_object();
    }
    w.end_array();
    const exec::CompileStats cs = compiler.stats();
    w.key("compile").begin_object();
    w.kv("compiles", cs.compiles);
    w.kv("cache_hits", cs.cache_hits);
    w.kv("failures", cs.failures);
    w.end_object();
    w.end_object();

    std::ofstream out(path);
    if (!out.good()) return false;
    out << w.str() << '\n';
    return out.good();
}

// ---- Speedup-vs-threads curves for the parallel entry (BENCH_exec_par.json) ----
//
// Compiles each gallery kernel library once (the object is content-addressed,
// so every thread count shares the same .so) and runs the ABI v2 entry
// `lf_kernel_run_par` at 1/2/4/8 lanes through the forked sandbox. The
// 1-lane run doubles as the serial baseline: lf_run_fused_par degrades to
// the plain fused scan at a single lane, so speedup_tN = ns(1) / ns(N).
//
// Every run must report zero bitwise mismatches against the original form,
// and the fused checksum must be bit-identical across all thread counts
// (the same thread-count-invariance rule exec/native.cpp enforces at
// admission); any variance poisons the row's "native" field instead of
// producing a speedup. The 2-D domain stays at BENCH_exec's 1024x1024:
// the gallery kernels' values grow superexponentially with the domain and
// overflow to NaN past ~1536, where bitwise comparison of the two forms
// breaks down (NaN payloads differ under commuted operands). 1024 rows of
// 1024 iterations is already far above any sane serial cutoff.
//
// Speedup > 1 is only reachable on multi-core hosts -- on a 1-CPU container
// the lanes time-slice one core and the curve is flat or worse. The writer
// records host_cpus so tools/bench_diff.py can gate its --require
// assertion on the measuring host, not on wherever CI happens to run.

struct ExecParRow {
    std::string name;
    std::string outcome;            // "verified" or the first failure, verbatim
    std::vector<std::int64_t> ns;   // best fused wall ns per thread step
};

bool write_exec_par_json(const std::string& path) {
    constexpr int kParTrials = 3;
    constexpr int kThreadSteps[] = {1, 2, 4, 8};
    const Domain dom2d{1024, 1024};

    exec::KernelCompiler compiler;
    std::vector<ExecParRow> rows;

    if (compiler.available()) {
        struct ParEntry {
            const char* name;
            std::string source;  // emitted kernel-library C
        };
        struct GalleryEntry {
            const char* name;
            std::string_view source;
        };
        const GalleryEntry gallery[] = {
            {"fig2", workloads::sources::kFig2},
            {"fig8", workloads::sources::kFig8},
            {"jacobi", workloads::sources::kJacobiPair},
            {"iir", workloads::sources::kIirChain},
        };
        std::vector<ParEntry> entries;
        for (const auto& [name, text] : gallery) {
            const ir::Program p = ir::parse_program(text);
            const FusionPlan plan = plan_fusion(analysis::build_mldg(p));
            const transform::FusedProgram fp = transform::fuse_program(p, plan);
            entries.push_back({name, transform::emit_c_kernel_library(p, fp, dom2d)});
        }
        {
            const auto p = front::parse_basic_program<VecN>(workloads::sources::kVolume3d);
            const NdFusionPlan plan = plan_fusion_nd(analysis::build_mldg_nd(p));
            exec::MdDomain mdom;
            mdom.ext = {128, 128, 128};
            entries.push_back({"volume3d", transform::emit_md_c_kernel_library(p, plan, mdom)});
        }

        exec::SandboxLimits limits;
        limits.wall_ms = 120'000;  // 8 lanes time-slicing one core is slow
        for (auto& entry : entries) {
            ExecParRow row;
            row.name = entry.name;
            const auto compiled = compiler.compile(entry.source);
            if (!compiled.ok()) {
                row.outcome = "compile failed: " + compiled.status().message();
                rows.push_back(std::move(row));
                continue;
            }
            double ref_checksum = 0.0;
            bool have_ref = false;
            for (const int threads : kThreadSteps) {
                std::int64_t best = 0;
                std::string bad;
                for (int t = 0; t < kParTrials && bad.empty(); ++t) {
                    exec::KernelParams params;
                    params.threads = threads;
                    const exec::RunOutcome run =
                        exec::run_kernel_par(compiled.value().path, params, limits);
                    if (!run.ok()) {
                        bad = std::string(exec::to_string(run.state)) +
                              (run.detail.empty() ? "" : ": " + run.detail);
                    } else if (run.result.mismatches != 0) {
                        bad = "fused/original mismatch at " + std::to_string(threads) +
                              " threads";
                    } else if (!have_ref) {
                        ref_checksum = run.result.checksum_fused;
                        have_ref = true;
                    } else if (std::memcmp(&run.result.checksum_fused, &ref_checksum,
                                           sizeof(double)) != 0) {
                        bad = "thread count changed the result at " +
                              std::to_string(threads) + " threads";
                    }
                    if (bad.empty() &&
                        (best == 0 || run.result.ns_fused < best)) {
                        best = run.result.ns_fused;
                    }
                }
                if (!bad.empty()) {
                    row.outcome = bad;
                    break;
                }
                row.ns.push_back(best);
            }
            if (row.outcome.empty()) row.outcome = "verified";
            rows.push_back(std::move(row));
        }
    }

    json::Writer w;
    w.begin_object();
    w.kv("compiler_available", compiler.available());
    w.kv("host_cpus",
         static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    w.kv("trials", kParTrials);
    w.key("threads").begin_array();
    for (const int t : kThreadSteps) w.value(t);
    w.end_array();
    w.key("domain_2d").begin_array();
    w.value(dom2d.n);
    w.value(dom2d.m);
    w.end_array();
    w.key("speedups").begin_array();
    for (const ExecParRow& row : rows) {
        w.begin_object();
        w.kv("kernel", row.name);
        w.kv("native", row.outcome);
        for (std::size_t i = 0; i < row.ns.size(); ++i) {
            w.kv("ns_t" + std::to_string(kThreadSteps[i]), row.ns[i]);
        }
        for (std::size_t i = 1; i < row.ns.size(); ++i) {
            w.kv("speedup_t" + std::to_string(kThreadSteps[i]),
                 row.ns[i] == 0 ? 0.0
                                : static_cast<double>(row.ns[0]) /
                                      static_cast<double>(row.ns[i]));
        }
        w.end_object();
    }
    w.end_array();
    const exec::CompileStats cs = compiler.stats();
    w.key("compile").begin_object();
    w.kv("compiles", cs.compiles);
    w.kv("cache_hits", cs.cache_hits);
    w.kv("failures", cs.failures);
    w.end_object();
    w.end_object();

    std::ofstream out(path);
    if (!out.good()) return false;
    out << w.str() << '\n';
    return out.good();
}

// ---- Emitted-code size under a planning objective (BENCH_codesize.json) ----
//
// Measures what PlanPolicy::SmallestCode buys: per-kernel emitted C bytes
// and lines, cold-compile wall time, total retiming magnitude, and fringe
// trip counts. The checked-in baseline (bench/baselines/BENCH_codesize.json)
// was generated with --codesize_policy=fastest; CI regenerates under
// --codesize_policy=smallest (the default here), so the report-only diff
// shows the realized reduction in bytes and compile time.
//
// compile_ns is the minimum over kCodesizeReps compiles, each through a
// FRESH KernelCompiler -- a fresh mkdtemp object cache per rep -- so every
// rep pays the true cold-compile cost instead of hitting the content-
// addressed cache. Size fields are deterministic; when no C compiler is on
// PATH they are still written, with compiler_available=false and
// compile_ns=0, so report-only CI diffs degrade gracefully.

struct CodesizeRow {
    std::string name;
    std::string source;                    // emitted kernel-library C
    std::int64_t retiming_magnitude = 0;
    std::int64_t prologue_iters = 0;       // summed across loop dimensions
    std::int64_t epilogue_iters = 0;
    std::int64_t compile_ns = 0;
};

/// Sums prologue/epilogue widths over per-dimension shift vectors, through
/// the same fringe model the emitters use (widths are domain-independent,
/// so extent 0 serves).
void fold_fringes(CodesizeRow& row, std::span<const std::vector<std::int64_t>> dims) {
    for (const auto& shifts : dims) {
        const cemit::FringeBounds b = cemit::fringe_bounds(shifts, 0);
        row.prologue_iters += b.prologue();
        row.epilogue_iters += b.epilogue();
    }
}

bool write_codesize_json(const std::string& path, PlanPolicy policy) {
    constexpr int kCodesizeReps = 3;
    const Domain dom2d{1024, 1024};

    std::vector<CodesizeRow> rows;
    {
        struct GalleryEntry {
            const char* name;
            std::string_view source;
        };
        const GalleryEntry gallery[] = {
            {"fig2", workloads::sources::kFig2},
            {"fig8", workloads::sources::kFig8},
            {"jacobi", workloads::sources::kJacobiPair},
            {"iir", workloads::sources::kIirChain},
        };
        PlanOptions popts;
        popts.policy = policy;
        for (const auto& entry : gallery) {
            CodesizeRow row;
            row.name = entry.name;
            const ir::Program p = ir::parse_program(entry.source);
            const FusionPlan plan = plan_fusion(analysis::build_mldg(p), popts);
            const transform::FusedProgram fp = transform::fuse_program(p, plan);
            row.source = transform::emit_c_kernel_library(p, fp, dom2d);
            row.retiming_magnitude = retiming_magnitude(plan.retiming);
            const int n = plan.retimed.num_nodes();
            std::vector<std::vector<std::int64_t>> dims(2);
            for (int v = 0; v < n; ++v) {
                dims[0].push_back(plan.retiming.of(v).x);
                dims[1].push_back(plan.retiming.of(v).y);
            }
            fold_fringes(row, dims);
            rows.push_back(std::move(row));
        }
        {
            CodesizeRow row;
            row.name = "volume3d";
            const auto p = front::parse_basic_program<VecN>(workloads::sources::kVolume3d);
            const MldgN g = analysis::build_mldg_nd(p);
            const NdFusionPlan plan = plan_fusion_nd(g, nullptr, policy);
            exec::MdDomain mdom;
            mdom.ext = {96, 96, 96};
            row.source = transform::emit_md_c_kernel_library(p, plan, mdom);
            row.retiming_magnitude = retiming_magnitude_nd(plan.retiming);
            std::vector<std::vector<std::int64_t>> dims(
                static_cast<std::size_t>(g.dim()));
            for (int v = 0; v < g.num_nodes(); ++v) {
                for (int k = 0; k < g.dim(); ++k) {
                    dims[static_cast<std::size_t>(k)].push_back(plan.retiming.of(v)[k]);
                }
            }
            fold_fringes(row, dims);
            rows.push_back(std::move(row));
        }
    }

    bool compiler_available = false;
    for (CodesizeRow& row : rows) {
        for (int rep = 0; rep < kCodesizeReps; ++rep) {
            exec::KernelCompiler cold;  // fresh mkdtemp cache: no reuse across reps
            if (!cold.available()) break;
            compiler_available = true;
            const auto t0 = std::chrono::steady_clock::now();
            const auto compiled = cold.compile(row.source);
            const auto t1 = std::chrono::steady_clock::now();
            if (!compiled.ok()) break;
            const std::int64_t ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
            if (row.compile_ns == 0 || ns < row.compile_ns) row.compile_ns = ns;
        }
    }

    json::Writer w;
    w.begin_object();
    w.kv("compiler_available", compiler_available);
    w.kv("reps", kCodesizeReps);
    w.kv("policy", to_string(policy));
    w.key("domain_2d").begin_array();
    w.value(dom2d.n);
    w.value(dom2d.m);
    w.end_array();
    w.key("codesize").begin_array();
    for (const CodesizeRow& row : rows) {
        w.begin_object();
        w.kv("kernel", row.name);
        w.kv("source_bytes", static_cast<std::int64_t>(row.source.size()));
        w.kv("source_lines", static_cast<std::int64_t>(
                                 std::count(row.source.begin(), row.source.end(), '\n')));
        w.kv("compile_ns", row.compile_ns);
        w.kv("retiming_magnitude", row.retiming_magnitude);
        w.kv("prologue_iters", row.prologue_iters);
        w.kv("epilogue_iters", row.epilogue_iters);
        w.end_object();
    }
    w.end_array();
    w.end_object();

    std::ofstream out(path);
    if (!out.good()) return false;
    out << w.str() << '\n';
    return out.good();
}

}  // namespace

int main(int argc, char** argv) {
    std::string solver_json = "BENCH_solver.json";
    std::string plan_json = "BENCH_plan.json";
    std::string exec_json;      // native runs need a C compiler: opt-in
    std::string exec_par_json;  // parallel speedup curves: opt-in
    std::string codesize_json;  // emitted-code size summary: opt-in
    lf::PlanPolicy codesize_policy = lf::PlanPolicy::SmallestCode;
    // Peel off our flags before google-benchmark sees the argument list.
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        constexpr const char* kSolverFlag = "--solver_json=";
        constexpr const char* kPlanFlag = "--plan_json=";
        constexpr const char* kExecFlag = "--exec_json=";
        constexpr const char* kExecParFlag = "--exec_par_json=";
        constexpr const char* kCodesizeFlag = "--codesize_json=";
        constexpr const char* kCodesizePolicyFlag = "--codesize_policy=";
        if (std::strncmp(argv[i], kSolverFlag, std::strlen(kSolverFlag)) == 0) {
            solver_json = argv[i] + std::strlen(kSolverFlag);
        } else if (std::strncmp(argv[i], kPlanFlag, std::strlen(kPlanFlag)) == 0) {
            plan_json = argv[i] + std::strlen(kPlanFlag);
        } else if (std::strncmp(argv[i], kExecParFlag, std::strlen(kExecParFlag)) == 0) {
            exec_par_json = argv[i] + std::strlen(kExecParFlag);
        } else if (std::strncmp(argv[i], kExecFlag, std::strlen(kExecFlag)) == 0) {
            exec_json = argv[i] + std::strlen(kExecFlag);
        } else if (std::strncmp(argv[i], kCodesizePolicyFlag,
                                std::strlen(kCodesizePolicyFlag)) == 0) {
            const char* name = argv[i] + std::strlen(kCodesizePolicyFlag);
            const std::optional<lf::PlanPolicy> parsed = lf::parse_plan_policy(name);
            if (!parsed.has_value()) {
                std::cerr << "bench_micro: unknown plan policy '" << name
                          << "' (fastest|smallest)\n";
                return 1;
            }
            codesize_policy = *parsed;
        } else if (std::strncmp(argv[i], kCodesizeFlag, std::strlen(kCodesizeFlag)) == 0) {
            codesize_json = argv[i] + std::strlen(kCodesizeFlag);
        } else {
            argv[kept++] = argv[i];
        }
    }
    argc = kept;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!solver_json.empty()) {
        if (!write_solver_json(solver_json)) {
            std::cerr << "bench_micro: could not write " << solver_json << '\n';
            return 1;
        }
        std::cout << "wrote " << solver_json << '\n';
    }
    if (!plan_json.empty()) {
        if (!write_plan_json(plan_json)) {
            std::cerr << "bench_micro: could not write " << plan_json << '\n';
            return 1;
        }
        std::cout << "wrote " << plan_json << '\n';
    }
    if (!exec_json.empty()) {
        if (!write_exec_json(exec_json)) {
            std::cerr << "bench_micro: could not write " << exec_json << '\n';
            return 1;
        }
        std::cout << "wrote " << exec_json << '\n';
    }
    if (!exec_par_json.empty()) {
        if (!write_exec_par_json(exec_par_json)) {
            std::cerr << "bench_micro: could not write " << exec_par_json << '\n';
            return 1;
        }
        std::cout << "wrote " << exec_par_json << '\n';
    }
    if (!codesize_json.empty()) {
        if (!write_codesize_json(codesize_json, codesize_policy)) {
            std::cerr << "bench_micro: could not write " << codesize_json << '\n';
            return 1;
        }
        std::cout << "wrote " << codesize_json << '\n';
    }
    return 0;
}
