// Round-trip and semantics-preservation properties that cut across modules:
// printing/parsing, statement shifting, and store construction options.

#include <gtest/gtest.h>

#include "analysis/dependence.hpp"
#include "exec/engines.hpp"
#include "exec/equivalence.hpp"
#include "exec/interp.hpp"
#include "front/parse.hpp"
#include "ir/parser.hpp"
#include "support/rng.hpp"
#include "workloads/extra.hpp"
#include "workloads/generators.hpp"
#include "workloads/sources.hpp"

namespace lf {
namespace {

class RoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripTest, RandomProgramsSurvivePrintParsePrint) {
    Rng rng(GetParam() * 7 + 1);
    const ir::Program p1 = workloads::random_program(rng);
    const ir::Program p2 = ir::parse_program(p1.str());
    EXPECT_EQ(p1.str(), p2.str());
    // The reparsed program analyzes to the identical dependence graph.
    const Mldg g1 = analysis::build_mldg(p1);
    const Mldg g2 = analysis::build_mldg(p2);
    ASSERT_EQ(g1.num_edges(), g2.num_edges());
    for (int e = 0; e < g1.num_edges(); ++e) {
        EXPECT_EQ(g1.edge(e).vectors, g2.edge(e).vectors);
    }
}

/// The value statement `s` writes when the interpreter runs it alone at
/// iteration (i, j) on a freshly initialized store.
double value_written(const ir::Program& p, const ir::Statement& s, std::int64_t i,
                     std::int64_t j) {
    exec::ArrayStore store(p, Domain{8, 8}, /*halo=*/p.max_offset() + 4);
    exec::ResolvedProgram rp(store);
    rp.add_body(std::vector<ir::Statement>{s}, Vec2{0, 0});
    exec::Evaluator ev(rp);
    const std::int64_t q[2] = {i, j};
    EXPECT_EQ(ev.run(0, q), 1);
    const Vec2 cell = s.target.cell(i, j);
    return store.load(s.target.array, cell.x, cell.y);
}

TEST_P(RoundTripTest, ShiftedStatementsEvaluateAtShiftedInstances) {
    // s.shifted(delta) evaluated at (i, j) must equal s evaluated at
    // (i, j) + delta -- that is exactly why codegen can print retimed
    // statements by shifting subscripts.
    Rng rng(GetParam() * 11 + 3);
    const ir::Program p = workloads::random_program(rng);

    const Vec2 delta{rng.uniform(-2, 2), rng.uniform(-2, 2)};
    for (const auto& loop : p.loops) {
        for (const auto& s : loop.body) {
            const ir::Statement shifted = s.shifted(delta);
            for (std::int64_t i = 2; i <= 4; ++i) {
                for (std::int64_t j = 2; j <= 4; ++j) {
                    EXPECT_DOUBLE_EQ(value_written(p, shifted, i, j),
                                     value_written(p, s, i + delta.x, j + delta.y))
                        << s.str() << " shifted by " << delta.str();
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest, ::testing::Range<std::uint64_t>(0, 15));

/// Parse -> print -> reparse -> structural equality (same print, same
/// dependence graph), through the one unified front end.
void expect_print_reparse_stable(std::string_view source) {
    const front::AnyProgram first = front::parse_any_program(source);
    if (first.is_2d()) {
        const front::AnyProgram again = front::parse_any_program(first.p2->str());
        ASSERT_TRUE(again.is_2d());
        EXPECT_EQ(first.p2->str(), again.p2->str());
        const Mldg g1 = analysis::build_mldg(*first.p2);
        const Mldg g2 = analysis::build_mldg(*again.p2);
        ASSERT_EQ(g1.num_edges(), g2.num_edges()) << first.p2->name;
        for (int e = 0; e < g1.num_edges(); ++e) {
            EXPECT_EQ(g1.edge(e).vectors, g2.edge(e).vectors) << first.p2->name;
        }
    } else {
        const front::AnyProgram again = front::parse_any_program(first.pn->str());
        ASSERT_FALSE(again.is_2d());
        EXPECT_EQ(first.pn->str(), again.pn->str());
        EXPECT_EQ(first.pn->dim, again.pn->dim);
        const MldgN g1 = analysis::build_mldg_nd(*first.pn);
        const MldgN g2 = analysis::build_mldg_nd(*again.pn);
        ASSERT_EQ(g1.num_edges(), g2.num_edges()) << first.pn->name;
        for (int e = 0; e < g1.num_edges(); ++e) {
            EXPECT_EQ(g1.edge(e).vectors, g2.edge(e).vectors) << first.pn->name;
        }
    }
}

TEST(RoundTripGolden, EveryGallerySourceSurvivesPrintReparse) {
    // The complete source gallery, both depths.
    const std::string_view gallery[] = {
        workloads::sources::kFig2,       workloads::sources::kFig8,
        workloads::sources::kJacobiPair, workloads::sources::kIirChain,
        workloads::sources::kVolume3d,   workloads::sources::kHyper4d,
    };
    for (const std::string_view source : gallery) {
        expect_print_reparse_stable(source);
    }
}

TEST(RoundTripGolden, EveryExtraWorkloadSourceSurvivesPrintReparse) {
    for (const auto& w : workloads::extra_workloads()) {
        SCOPED_TRACE(w.id);
        expect_print_reparse_stable(w.dsl_source);
    }
}

TEST(RoundTripGolden, ExampleDslInputsSurvivePrintReparse) {
    // The DSL programs embedded in examples/ (weather_stencil.cpp and
    // image_pipeline.cpp; quickstart/emit_c reuse kFig2, covered above).
    constexpr std::string_view kWeather = R"(
program weather {
  loop Pressure {
    p[i][j] = 0.6 * p[i-1][j] + 0.2 * (w[i-1][j-1] + w[i-1][j+1]);
  }
  loop Wind {
    w[i][j] = 0.5 * (p[i][j-1] + p[i][j+1]) + 0.1 * w[i-1][j];
  }
  loop Temp {
    t[i][j] = 0.25 * (w[i][j-2] + w[i][j+2]) + 0.9 * t[i-1][j];
  }
}
)";
    constexpr std::string_view kPipeline = R"(
program image_pipeline {
  loop Blur {
    blur[i][j] = 0.25 * (frame[i][j-1] + 2.0 * frame[i][j] + frame[i][j+1])
               + 0.05 * motion[i-2][j];
  }
  loop Sharpen {
    sharp[i][j] = 1.4 * blur[i][j] - 0.2 * (blur[i][j-1] + blur[i][j+1]);
  }
  loop Edge {
    edge[i][j] = sharp[i][j+1] - sharp[i][j-1];
  }
  loop Motion {
    motion[i][j] = edge[i][j] - edge[i-1][j] + 0.5 * motion[i-1][j];
  }
}
)";
    expect_print_reparse_stable(kWeather);
    expect_print_reparse_stable(kPipeline);
}

TEST(StoreOptions, ExplicitHaloOverridesDefault) {
    const ir::Program p = ir::parse_program("program t { loop A { a[i][j] = x[i-1][j]; } }");
    const Domain dom{3, 3};
    exec::ArrayStore wide(p, dom, /*halo=*/5);
    EXPECT_NO_THROW((void)wide.load("a", -5, -5));
    EXPECT_THROW((void)wide.load("a", -6, 0), Error);

    exec::ArrayStore tight(p, dom);  // default halo = max offset = 1
    EXPECT_NO_THROW((void)tight.load("a", -1, 0));
    EXPECT_THROW((void)tight.load("a", -2, 0), Error);
}

TEST(StoreOptions, HaloSizeDoesNotChangeResults) {
    // Extra halo adds more initialized boundary cells but cannot change any
    // computed value inside the domain.
    Rng rng(99);
    const ir::Program p = workloads::random_program(rng);
    const Domain dom{10, 10};
    exec::ArrayStore a(p, dom);
    exec::ArrayStore b(p, dom, p.max_offset() + 7);
    (void)exec::run_original(p, dom, a);
    (void)exec::run_original(p, dom, b);
    EXPECT_FALSE(exec::first_difference(p, dom, a, b).has_value());
}

}  // namespace
}  // namespace lf
