// Execution-engine tests: arrays, the store, and -- most importantly -- the
// golden-output equivalence of original vs. transformed programs under
// every engine, on the gallery workloads and on randomized programs.

#include <gtest/gtest.h>

#include "analysis/dependence.hpp"
#include "exec/engines.hpp"
#include "exec/equivalence.hpp"
#include "exec/interp.hpp"
#include "ir/parser.hpp"
#include "support/diagnostics.hpp"
#include "transform/fused_program.hpp"
#include "workloads/gallery.hpp"
#include "workloads/generators.hpp"
#include "workloads/sources.hpp"

namespace lf::exec {
namespace {

TEST(Array2D, BoundsCheckedAccess) {
    Array2D a(-2, 5, -1, 3);
    a.set(-2, -1, 7.0);
    a.set(5, 3, 8.0);
    EXPECT_DOUBLE_EQ(a.at(-2, -1), 7.0);
    EXPECT_DOUBLE_EQ(a.at(5, 3), 8.0);
    EXPECT_TRUE(a.in_bounds(0, 0));
    EXPECT_FALSE(a.in_bounds(6, 0));
    EXPECT_THROW((void)a.at(6, 0), Error);
    EXPECT_THROW(a.set(0, 4, 1.0), Error);
    EXPECT_EQ(a.size(), 8 * 5);
}

TEST(ArrayStore, DeterministicInitialization) {
    const ir::Program p = ir::parse_program(workloads::sources::kFig2);
    const Domain dom{6, 6};
    ArrayStore s1(p, dom), s2(p, dom);
    for (const std::string& name : p.arrays()) {
        for (std::int64_t i = -2; i <= dom.n + 2; ++i) {
            for (std::int64_t j = -2; j <= dom.m + 2; ++j) {
                ASSERT_DOUBLE_EQ(s1.load(name, i, j), s2.load(name, i, j));
            }
        }
    }
    EXPECT_GT(s1.loads(), 0);
}

TEST(ArrayStore, BoundaryValuesVaryAcrossCellsAndArrays) {
    EXPECT_NE(ArrayStore::boundary_value("a", 0, 0), ArrayStore::boundary_value("a", 0, 1));
    EXPECT_NE(ArrayStore::boundary_value("a", 0, 0), ArrayStore::boundary_value("b", 0, 0));
    const double v = ArrayStore::boundary_value("x", -5, 17);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
}

TEST(ArrayStore, TraceRecordsAccesses) {
    const ir::Program p = ir::parse_program("program t { loop A { a[i][j] = b[i-1][j]; } }");
    const Domain dom{2, 2};
    ArrayStore store(p, dom);
    store.enable_tracing();
    (void)run_original(p, dom, store);
    // 9 instances, each 1 load + 1 store.
    ASSERT_EQ(store.trace().size(), 18u);
    EXPECT_FALSE(store.trace()[0].is_write);
    EXPECT_TRUE(store.trace()[1].is_write);
    EXPECT_NE(store.trace()[0].array_id, store.trace()[1].array_id);
}

TEST(ArrayStore, OrderCheckingFlagsConsumerBeforeProducer) {
    const ir::Program p = ir::parse_program("program t { loop A { a[i][j] = 1.0; } }");
    const Domain dom{1, 1};
    ArrayStore store(p, dom);
    store.enable_order_checking();
    (void)store.load("a", 0, 0);     // read before the write below
    store.store("a", 0, 0, 2.0);     // violation
    store.store("a", 1, 1, 2.0);     // fine: never read early
    EXPECT_EQ(store.order_violations(), 1);
}

TEST(RunOriginal, BarrierCountIsLoopsTimesRows) {
    const ir::Program p = ir::parse_program(workloads::sources::kFig2);
    const Domain dom{9, 5};
    ArrayStore store(p, dom);
    const ExecStats stats = run_original(p, dom, store);
    EXPECT_EQ(stats.barriers, 4 * dom.rows());
    EXPECT_EQ(stats.instances, 5 * dom.points());  // 5 statements across loops
}

TEST(Interp, UnknownArrayErrorOutlivesTheResolvedStatements) {
    // The store has only `a`; the body reads `zz`. The statements it was
    // resolved from are a temporary, gone before the run reports `zz`.
    const ir::Program known = ir::parse_program("program t { loop A { a[i][j] = 1.0; } }");
    const ir::Program other = ir::parse_program("program u { loop A { a[i][j] = zz[i][j]; } }");
    ArrayStore store(known, Domain{2, 2});
    ResolvedProgram rp(store);
    rp.add_body(std::vector<ir::Statement>(other.loops[0].body), Vec2{0, 0});
    Evaluator ev(rp);
    const std::int64_t q[2] = {0, 0};
    try {
        (void)ev.run(0, q);
        FAIL() << "reading an unknown array must throw";
    } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "ArrayStore: unknown array 'zz'");
    }
}

struct WorkloadCase {
    const char* id;
    std::string_view source;
};

class EquivalenceTest : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(EquivalenceTest, RowwiseEngineMatchesOriginal) {
    const ir::Program p = ir::parse_program(GetParam().source);
    const auto result = verify_fusion(p, Domain{17, 13}, EngineKind::FusedRowwise);
    EXPECT_TRUE(result.equivalent) << result.detail;
}

TEST_P(EquivalenceTest, PeeledEngineMatchesOriginal) {
    const ir::Program p = ir::parse_program(GetParam().source);
    const auto result = verify_fusion(p, Domain{17, 13}, EngineKind::Peeled);
    EXPECT_TRUE(result.equivalent) << result.detail;
}

TEST_P(EquivalenceTest, PeeledEngineSurvivesDegenerateDomains) {
    // Domains smaller than the retiming spread exercise the fallback path
    // (no steady state at all).
    const ir::Program p = ir::parse_program(GetParam().source);
    for (const Domain dom : {Domain{0, 0}, Domain{1, 2}, Domain{2, 1}, Domain{3, 3}}) {
        const auto result = verify_fusion(p, dom, EngineKind::Peeled);
        EXPECT_TRUE(result.equivalent)
            << "n=" << dom.n << " m=" << dom.m << ": " << result.detail;
    }
}

TEST_P(EquivalenceTest, WavefrontEngineMatchesOriginal) {
    const ir::Program p = ir::parse_program(GetParam().source);
    const auto result = verify_fusion(p, Domain{17, 13}, EngineKind::Wavefront);
    EXPECT_TRUE(result.equivalent) << result.detail;
}

TEST_P(EquivalenceTest, ThreadedEngineMatchesOriginal) {
    const ir::Program p = ir::parse_program(GetParam().source);
    const auto result = verify_fusion(p, Domain{17, 13}, EngineKind::Threaded, 3);
    EXPECT_TRUE(result.equivalent) << result.detail;
}

TEST_P(EquivalenceTest, FusionReducesBarriers) {
    const ir::Program p = ir::parse_program(GetParam().source);
    const auto result = verify_fusion(p, Domain{40, 40}, EngineKind::FusedRowwise);
    ASSERT_TRUE(result.equivalent) << result.detail;
    EXPECT_LT(result.transformed.barriers, result.original.barriers);
    EXPECT_EQ(result.transformed.instances, result.original.instances);
}

INSTANTIATE_TEST_SUITE_P(
    Gallery, EquivalenceTest,
    ::testing::Values(WorkloadCase{"fig2", lf::workloads::sources::kFig2},
                      WorkloadCase{"fig8", lf::workloads::sources::kFig8},
                      WorkloadCase{"jacobi", lf::workloads::sources::kJacobiPair},
                      WorkloadCase{"iir", lf::workloads::sources::kIirChain}),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) { return info.param.id; });

TEST(Equivalence, Fig2FusedBarriersMatchPaperClaim) {
    // Four loops, n+1 outer iterations: 4(n+1) barriers before fusion.
    // After Algorithm 4 the fused rows cover [point_i_lo, point_i_hi]:
    // retimings {0,0,-1,-1} spread the range by one row -> n+2 barriers.
    const ir::Program p = ir::parse_program(workloads::sources::kFig2);
    const Domain dom{99, 20};
    const auto result = verify_fusion(p, dom, EngineKind::FusedRowwise);
    ASSERT_TRUE(result.equivalent) << result.detail;
    EXPECT_EQ(result.original.barriers, 4 * (dom.n + 1));
    EXPECT_EQ(result.transformed.barriers, dom.n + 2);
}

class RandomProgramEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramEquivalence, AllEnginesMatchOriginal) {
    Rng rng(GetParam());
    const ir::Program p = workloads::random_program(rng);
    const Domain dom{11, 9};
    for (const EngineKind engine : {EngineKind::FusedRowwise, EngineKind::Peeled,
                                    EngineKind::Wavefront, EngineKind::Threaded}) {
        const auto result = verify_fusion(p, dom, engine, 2);
        EXPECT_TRUE(result.equivalent)
            << "engine " << static_cast<int>(engine) << ": " << result.detail << "\n"
            << p.str();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramEquivalence,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(Wavefront, OrderCheckingPassesOnIirChain) {
    // The wavefront schedule must never run a consumer before its producer;
    // the order-checking store verifies this mechanically.
    const ir::Program p = ir::parse_program(workloads::sources::kIirChain);
    const Mldg g = analysis::build_mldg(p);
    const FusionPlan plan = plan_fusion(g);
    ASSERT_EQ(plan.level, ParallelismLevel::Hyperplane);
    const auto fp = transform::fuse_program(p, plan);
    const Domain dom{12, 12};
    ArrayStore store(p, dom);
    store.enable_order_checking();
    (void)run_wavefront(fp, dom, store);
    EXPECT_EQ(store.order_violations(), 0);
}

TEST(Threaded, RejectsNonDoallPlansAndTracing) {
    const ir::Program p = ir::parse_program(workloads::sources::kIirChain);
    const Mldg g = analysis::build_mldg(p);
    const FusionPlan plan = plan_fusion(g);
    const auto fp = transform::fuse_program(p, plan);
    ArrayStore store(p, Domain{4, 4});
    EXPECT_THROW((void)run_fused_threaded(fp, Domain{4, 4}, store, 2), Error);

    // Tracing and order checking keep single-threaded state: a DOALL plan
    // is refused too, before any thread touches the store.
    const ir::Program doall = ir::parse_program(workloads::sources::kFig8);
    const auto fused = transform::fuse_program(doall, plan_fusion(analysis::build_mldg(doall)));
    ASSERT_EQ(fused.level, ParallelismLevel::InnerDoall);
    ArrayStore traced(doall, Domain{4, 4});
    traced.enable_tracing();
    EXPECT_THROW((void)run_fused_threaded(fused, Domain{4, 4}, traced, 2), Error);
    ArrayStore checked(doall, Domain{4, 4});
    checked.enable_order_checking();
    EXPECT_THROW((void)run_fused_threaded(fused, Domain{4, 4}, checked, 2), Error);
    EXPECT_EQ(checked.loads(), 0);
}

}  // namespace
}  // namespace lf::exec
