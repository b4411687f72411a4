// The success path allocates nothing. A counting global operator new (this
// binary only) measures heap allocations across one call:
//   * a passing lf::check, Result<T>::value() on an Ok result and an
//     in-bounds Array2D::at allocate nothing at all;
//   * the interpreter may allocate while it resolves a program (once per
//     engine call), never per cell: running fig8 on a pre-built store costs
//     the same number of allocations at 32x32 as at 64x64.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "analysis/dependence.hpp"
#include "exec/array.hpp"
#include "exec/engines.hpp"
#include "fusion/driver.hpp"
#include "ir/parser.hpp"
#include "support/diagnostics.hpp"
#include "support/status.hpp"
#include "transform/fused_program.hpp"
#include "workloads/sources.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace lf {
namespace {

/// Heap allocations made while running `fn`.
template <typename Fn>
std::int64_t allocations_during(Fn&& fn) {
    const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
    fn();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(HotPathAlloc, CountingOperatorNewSeesAllocations) {
    // Guards the harness itself: a vector of 1000 doubles must be counted.
    EXPECT_GE(allocations_during([] {
                  std::vector<double> v(1000);
                  ASSERT_EQ(v.size(), 1000u);
              }),
              1);
}

TEST(HotPathAlloc, PassingCheckAllocatesNothing) {
    // Longer than any std::string small-buffer, so an eagerly built message
    // would have to allocate.
    EXPECT_EQ(allocations_during([] {
                  check(true, "a passing check with a message longer than the small buffer");
              }),
              0);
    EXPECT_EQ(allocations_during([] {
                  check(true, [] { return std::string("never built: ") + std::to_string(42); });
              }),
              0);
}

TEST(HotPathAlloc, OkResultValueAllocatesNothing) {
    const Result<std::int64_t> r(std::int64_t{7});
    std::int64_t v = 0;
    EXPECT_EQ(allocations_during([&] { v = r.value(); }), 0);
    EXPECT_EQ(v, 7);
}

TEST(HotPathAlloc, InBoundsArrayAccessAllocatesNothing) {
    exec::Array2D a(-2, 5, -1, 3);
    a.set(4, 2, 1.5);
    double v = 0.0;
    EXPECT_EQ(allocations_during([&] { v = a.at(4, 2); }), 0);
    EXPECT_EQ(v, 1.5);
}

TEST(HotPathAlloc, InterpreterAllocatesPerCallNotPerCell) {
    const ir::Program p = ir::parse_program(workloads::sources::kFig8);
    const transform::FusedProgram fp =
        transform::fuse_program(p, plan_fusion(analysis::build_mldg(p)));
    const auto count = [&](const Domain& dom, bool fused) {
        exec::ArrayStore store(p, dom);  // built outside the measured call
        return allocations_during([&] {
            if (fused) {
                (void)exec::run_fused_rowwise(fp, dom, store);
            } else {
                (void)exec::run_original(p, dom, store);
            }
        });
    };
    EXPECT_EQ(count(Domain{32, 32}, false), count(Domain{64, 64}, false)) << "run_original";
    EXPECT_EQ(count(Domain{32, 32}, true), count(Domain{64, 64}, true)) << "run_fused_rowwise";
}

}  // namespace
}  // namespace lf
