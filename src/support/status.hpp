#pragma once
// Status taxonomy for the hardened pipeline: typed, non-throwing error
// reporting plus resource budgeting.
//
// The library distinguishes two failure families. `lf::Error` (see
// diagnostics.hpp) remains the exception for *model violations* on the
// throwing API surface. The `Status`/`Result<T>` layer below is the
// never-throwing surface used by try_plan_fusion and the guarded solvers:
// every abnormal outcome is a value the caller can inspect, so one bad
// workload can never take down a batch run.
//
//   Ok                -- the operation completed (a normal result).
//   IllegalInput      -- the input violates the model (unschedulable MLDG,
//                        out-of-range dependence magnitudes, ...).
//   Infeasible        -- the algorithm correctly reports "no solution"
//                        (e.g. Algorithm 4 phase 1/2 negative cycle).
//   ResourceExhausted -- an iteration budget or wall-clock deadline from a
//                        ResourceGuard was hit before completion.
//   Overflow          -- weight arithmetic would have overflowed int64;
//                        detected, never undefined behavior.
//   Internal          -- a postcondition failed or a fault point fired.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/diagnostics.hpp"
#include "support/solver_stats.hpp"

namespace lf {

enum class StatusCode {
    Ok,
    IllegalInput,
    Infeasible,
    ResourceExhausted,
    Overflow,
    Internal,
};

[[nodiscard]] std::string to_string(StatusCode code);

/// One rung of a multi-stage operation (e.g. the fusion degradation ladder):
/// what was attempted, how it ended, and how much budget it consumed.
struct StageReport {
    std::string stage;
    StatusCode code = StatusCode::Ok;
    /// Failure or fallback reason; empty for a clean Ok.
    std::string detail;
    /// ResourceGuard steps consumed by this stage.
    std::uint64_t budget_consumed = 0;
    /// Solver telemetry accounted while this stage ran (zero/empty for
    /// solver-free stages such as validation or the distribution fallback).
    SolverStats solver;
    /// Per-plan code-shape metrics, filled by the planner on the stage that
    /// accepted a plan (zero everywhere else). The fringe widths follow the
    /// shared model in support/cemit.hpp (cemit::fringe_bounds): guarded
    /// iterations on either side of the steady-state interior, summed over
    /// dimensions -- the model is symmetric, so the two match and both equal
    /// the total retiming spread. `retiming_magnitude` is sum_v |r(v)|
    /// summed over components, the quantity PlanPolicy::SmallestCode
    /// minimizes.
    std::int64_t prologue_iters = 0;
    std::int64_t epilogue_iters = 0;
    std::int64_t retiming_magnitude = 0;

    [[nodiscard]] std::string str() const;
};

class Status {
  public:
    Status() = default;  // Ok
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message)) {}

    [[nodiscard]] bool ok() const { return code_ == StatusCode::Ok; }
    [[nodiscard]] StatusCode code() const { return code_; }
    [[nodiscard]] const std::string& message() const { return message_; }

    /// "<code>: <message>" plus one line per stage report.
    [[nodiscard]] std::string str() const;

    /// Per-stage trace of the operation that produced this status; populated
    /// by multi-stage operations (try_plan_fusion) on failure so callers see
    /// exactly which rungs were tried and why each one fell through.
    std::vector<StageReport> stages;

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/// StatusOr-style value wrapper: either a value (and an Ok status) or a
/// non-Ok Status. Accessing value() on an error throws lf::Error -- callers
/// on the never-throwing surface must branch on ok() first.
template <typename T>
class Result {
  public:
    Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
    Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
        check(!status_.ok(), "Result: error construction requires a non-Ok status");
    }

    [[nodiscard]] bool ok() const { return value_.has_value(); }
    [[nodiscard]] const Status& status() const { return status_; }

    [[nodiscard]] const T& value() const& { require(); return *value_; }
    [[nodiscard]] T& value() & { require(); return *value_; }
    [[nodiscard]] T&& value() && { require(); return *std::move(value_); }

    const T* operator->() const { require(); return &*value_; }
    const T& operator*() const& { require(); return *value_; }

  private:
    void require() const {
        check(value_.has_value(), [this] { return "Result: value() on error: " + status_.str(); });
    }

    Status status_;  // Ok iff value_ holds a value
    std::optional<T> value_;
};

/// Sentinel step budget meaning "no limit".
inline constexpr std::uint64_t kUnlimitedSteps = ~std::uint64_t{0};

struct ResourceLimits {
    /// Solver step budget. One step = one edge-relaxation attempt in a
    /// shortest-path solver; everything else the guarded pipeline does is
    /// linear in the input and is not metered.
    std::uint64_t max_steps = kUnlimitedSteps;
    /// Wall-clock budget in milliseconds; negative = unlimited. Zero means
    /// "already expired" (useful for tests).
    std::int64_t max_wall_ms = -1;
};

/// Carries an iteration budget and a wall-clock deadline through the
/// solvers. One guard is shared across all rungs of a degradation ladder, so
/// the budget bounds the *total* work of a try_plan_fusion call. Not
/// thread-safe: a guard belongs to one planning call.
class ResourceGuard {
  public:
    ResourceGuard() = default;  // unlimited
    explicit ResourceGuard(const ResourceLimits& limits) : max_steps_(limits.max_steps) {
        if (limits.max_wall_ms >= 0) {
            deadline_ = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(limits.max_wall_ms);
        }
    }

    /// Consumes `steps`; returns false once the budget or the deadline is
    /// exceeded (and keeps returning false: exhaustion is sticky, so a
    /// ladder's later rungs fail fast instead of re-spinning).
    bool consume(std::uint64_t steps = 1) {
        if (exhausted_) return false;
        consumed_ += steps;
        if (consumed_ > max_steps_) {
            exhausted_ = true;
            return false;
        }
        if (deadline_) {
            since_deadline_check_ += steps;
            if (since_deadline_check_ >= kDeadlineStride) {
                since_deadline_check_ = 0;
                if (std::chrono::steady_clock::now() >= *deadline_) {
                    exhausted_ = true;
                    return false;
                }
            }
        }
        return true;
    }

    [[nodiscard]] bool exhausted() const { return exhausted_; }
    [[nodiscard]] std::uint64_t consumed() const { return consumed_; }

  private:
    /// The deadline is checked every stride steps -- except the first
    /// consume() after construction, which always checks, so a zero budget
    /// expires immediately and deterministically.
    static constexpr std::uint64_t kDeadlineStride = 256;

    std::uint64_t max_steps_ = kUnlimitedSteps;
    std::uint64_t consumed_ = 0;
    std::uint64_t since_deadline_check_ = kDeadlineStride;
    std::optional<std::chrono::steady_clock::time_point> deadline_;
    bool exhausted_ = false;
};

}  // namespace lf
