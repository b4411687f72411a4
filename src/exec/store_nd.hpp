#pragma once
// Dense n-D array storage for the depth-d program model (the VecN
// instantiation of the front end), mirroring exec/store.hpp: a halo of
// boundary cells on every side of every level, pre-filled with the same
// deterministic splitmix-style boundary values as the 2-D store.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "front/ast.hpp"
#include "support/lexvec.hpp"

namespace lf::exec {

/// Inclusive iteration extents per level: level k ranges over [0, ext[k]].
struct MdDomain {
    std::vector<std::int64_t> ext;

    [[nodiscard]] int dim() const { return static_cast<int>(ext.size()); }
    [[nodiscard]] bool contains(const VecN& q) const {
        for (int k = 0; k < dim(); ++k) {
            if (q[k] < 0 || q[k] > ext[k]) return false;
        }
        return true;
    }
    [[nodiscard]] std::int64_t points() const {
        std::int64_t n = 1;
        for (const std::int64_t e : ext) n *= e + 1;
        return n;
    }
};

/// Advances `p` to the next integer point of the box [lo, hi] in
/// lexicographic order; false (with `p` back at `lo`) after the last one.
inline bool next_point(std::vector<std::int64_t>& p, const std::vector<std::int64_t>& lo,
                       const std::vector<std::int64_t>& hi) {
    for (std::size_t k = p.size(); k-- > 0;) {
        if (++p[k] <= hi[k]) return true;
        p[k] = lo[k];
    }
    return false;
}

/// Dense n-D array store with a halo of `halo` cells on every side of every
/// level, pre-filled with deterministic boundary values from its own
/// splitmix-style hash of name and coordinates (one multiplier pair per
/// coordinate). That hash differs from the 2-D store's, so a depth-2 program
/// starts from different values here than in ArrayStore, and its checksums
/// differ between the two. Every array has the same shape, stored row-major,
/// so a cell has one flat index (index()) in the cells() of every array.
class MdArrayStore {
  public:
    static constexpr const char* kOutOfBounds =
        "MdArrayStore: cell out of bounds (halo too small?)";

    MdArrayStore(const front::BasicProgram<VecN>& p, const MdDomain& dom,
                 std::optional<std::int64_t> halo = std::nullopt);

    [[nodiscard]] double load(const std::string& array, const VecN& cell) const;
    void store(const std::string& array, const VecN& cell, double value);

    [[nodiscard]] static double boundary_value(const std::string& array, const VecN& cell);

    /// The cells of `array` in row-major order; throws lf::Error for an
    /// array the store does not have.
    [[nodiscard]] const std::vector<double>& cells(const std::string& array) const;
    /// Flat index of `cell` in cells(); throws lf::Error out of bounds.
    [[nodiscard]] std::size_t index(const std::vector<std::int64_t>& cell) const;

  private:
    friend class ResolvedProgram;

    [[nodiscard]] std::size_t id_of(const std::string& name) const;

    std::vector<std::string> names_;
    std::vector<std::vector<double>> slots_;  // cells by array id
    std::vector<std::int64_t> lo_, hi_, stride_;
};

}  // namespace lf::exec
