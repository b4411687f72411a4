#pragma once
// ArrayStore: the program's memory. One Array2D per array name, initialized
// with deterministic pseudo-random boundary values so that
//   (a) halo reads are well defined,
//   (b) two independently initialized stores agree, making golden-output
//       equivalence checks meaningful.
//
// The store also meters loads/stores (atomically, so the threaded engine can
// share it; the interpreter adds its counts once per call), optionally
// records an address trace for the cache simulator, and optionally checks
// the dataflow ordering invariant "no cell is read before the write that
// produces it" (used to validate wavefront schedules of graph-only
// workloads like the paper's Figure 14).

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/array.hpp"
#include "ir/ast.hpp"
#include "support/domain.hpp"

namespace lf::exec {

struct TraceEntry {
    std::int32_t array_id = 0;
    std::int64_t address = 0;  // array base + element offset
    bool is_write = false;
    /// Owning processor under a block partition (-1 when not partitioned);
    /// set via ArrayStore::set_trace_processor by partition-aware engines.
    std::int16_t processor = -1;
};

class ArrayStore {
  public:
    /// Creates all arrays of `p` over `dom` extended by `halo` cells on each
    /// side, pre-filled with boundary_value(). `halo` defaults to the
    /// program's maximum subscript offset. Every array has the same shape.
    ArrayStore(const ir::Program& p, const Domain& dom,
               std::optional<std::int64_t> halo = std::nullopt);

    [[nodiscard]] double load(const std::string& array, std::int64_t i, std::int64_t j) const;
    void store(const std::string& array, std::int64_t i, std::int64_t j, double value);

    [[nodiscard]] const Array2D& array(const std::string& name) const;
    [[nodiscard]] const std::vector<std::string>& array_names() const { return names_; }

    [[nodiscard]] std::int64_t loads() const { return loads_.load(std::memory_order_relaxed); }
    [[nodiscard]] std::int64_t stores() const { return stores_.load(std::memory_order_relaxed); }

    /// The deterministic initial value of cell (i, j) of `array`: a hash of
    /// (name, i, j) mapped into [-1, 1].
    [[nodiscard]] static double boundary_value(const std::string& array, std::int64_t i,
                                               std::int64_t j);

    // --- Tracing (single-threaded engines only). ---
    void enable_tracing() { tracing_ = true; }
    [[nodiscard]] const std::vector<TraceEntry>& trace() const { return trace_; }
    [[nodiscard]] bool tracing() const { return tracing_; }
    /// Tags subsequent trace entries with the given processor id (block
    /// partitioning engines call this when switching blocks).
    void set_trace_processor(std::int16_t processor) { trace_processor_ = processor; }

    // --- Dataflow ordering validation. ---
    /// When enabled, load() records reads of not-yet-written cells; a later
    /// store() to such a cell is an ordering violation (the schedule let a
    /// consumer run before its producer).
    void enable_order_checking() { order_checking_ = true; }
    [[nodiscard]] bool order_checking() const { return order_checking_; }
    [[nodiscard]] std::int64_t order_violations() const { return order_violations_; }

  private:
    friend class ResolvedProgram;
    friend class Evaluator;

    struct Slot {
        Array2D data;
        std::int64_t base = 0;  // address-space base for tracing
        // Order checking state, keyed by linear index; allocated on first use.
        std::vector<bool> written;
        std::vector<bool> read_before_write;
    };

    /// Dense id of `name` (its position in array_names()); throws lf::Error
    /// for an array the store does not have.
    [[nodiscard]] std::int32_t id_of(const std::string& name) const;
    /// Records one access at linear index `at` of array `id` in the trace
    /// and the order-checking state, when those are enabled.
    void observe(std::int32_t id, std::int64_t at, bool is_write) const;

    std::vector<std::string> names_;
    // Mutable: observe() runs for loads, which are const. Tracing and order
    // checking are single-threaded modes.
    mutable std::vector<Slot> slots_;  // by id
    mutable std::atomic<std::int64_t> loads_{0};
    std::atomic<std::int64_t> stores_{0};
    bool tracing_ = false;
    std::int16_t trace_processor_ = -1;
    mutable std::vector<TraceEntry> trace_;
    bool order_checking_ = false;
    mutable std::int64_t order_violations_ = 0;
};

}  // namespace lf::exec
