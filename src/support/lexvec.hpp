#pragma once
// Dimension-generic integer vectors under lexicographic order: the single
// weight domain behind every solver in the repo.
//
// The paper works in iteration-distance space Z^n compared lexicographically;
// lexicographic order on Z^n is a translation-invariant total order for every
// n, so the classical Bellman-Ford correctness argument carries over in any
// dimension (Section 2.4). `LexVec<Extent>` captures that once:
//
//   * `LexVec<2>`  -- full specialization with named `x`/`y` members: exactly
//     the historical `Vec2` layout (two plain int64 fields, no indirection),
//     so the 2-D solver instantiations keep their codegen.
//   * `LexVec<N>`  -- compile-time extent over std::array, for callers that
//     know their dimension statically.
//   * `LexVec<kDynamicExtent>` -- runtime extent over std::vector: the
//     historical `VecN`, powering the n-D generalizations whose dimension is
//     only known when the MLDG is built.
//
// `Vec2` and `VecN` remain the canonical spellings (as aliases).

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "support/diagnostics.hpp"

namespace lf {

/// Extent tag selecting the runtime-dimension specialization.
inline constexpr int kDynamicExtent = -1;

/// Saturating int64 addition: clamps to the int64 range instead of invoking
/// signed-overflow UB. Deterministic on every platform.
[[nodiscard]] inline std::int64_t sat_add_i64(std::int64_t a, std::int64_t b) {
    std::int64_t out;
    if (!__builtin_add_overflow(a, b, &out)) return out;
    return b > 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
}

[[nodiscard]] inline std::int64_t sat_sub_i64(std::int64_t a, std::int64_t b) {
    std::int64_t out;
    if (!__builtin_sub_overflow(a, b, &out)) return out;
    return b < 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
}

/// Primary template: a point / distance in `Extent`-dimensional iteration
/// space, component 0 outermost. Ordered lexicographically (member order).
template <int Extent>
class LexVec {
    static_assert(Extent >= 1,
                  "LexVec extent must be >= 1 (use kDynamicExtent for runtime dimension)");

  public:
    constexpr LexVec() = default;
    template <typename... Ts>
        requires(sizeof...(Ts) == static_cast<std::size_t>(Extent) &&
                 (std::is_convertible_v<Ts, std::int64_t> && ...))
    constexpr LexVec(Ts... values) : c_{static_cast<std::int64_t>(values)...} {}

    [[nodiscard]] static constexpr int dim() { return Extent; }
    [[nodiscard]] constexpr std::int64_t operator[](int k) const {
        return c_[static_cast<std::size_t>(k)];
    }
    [[nodiscard]] constexpr std::int64_t& operator[](int k) {
        return c_[static_cast<std::size_t>(k)];
    }

    friend constexpr auto operator<=>(const LexVec&, const LexVec&) = default;

    constexpr LexVec operator+(const LexVec& o) const {
        LexVec r;
        for (int k = 0; k < Extent; ++k) r[k] = (*this)[k] + o[k];
        return r;
    }
    constexpr LexVec operator-(const LexVec& o) const {
        LexVec r;
        for (int k = 0; k < Extent; ++k) r[k] = (*this)[k] - o[k];
        return r;
    }
    constexpr LexVec operator-() const {
        LexVec r;
        for (int k = 0; k < Extent; ++k) r[k] = -(*this)[k];
        return r;
    }
    constexpr LexVec& operator+=(const LexVec& o) { return *this = *this + o; }
    constexpr LexVec operator*(std::int64_t m) const {
        LexVec r;
        for (int k = 0; k < Extent; ++k) r[k] = (*this)[k] * m;
        return r;
    }

    [[nodiscard]] constexpr std::int64_t dot(const LexVec& o) const {
        std::int64_t sum = 0;
        for (int k = 0; k < Extent; ++k) sum += (*this)[k] * o[k];
        return sum;
    }

    [[nodiscard]] constexpr bool is_zero() const {
        for (int k = 0; k < Extent; ++k) {
            if ((*this)[k] != 0) return false;
        }
        return true;
    }

    /// Index of the first nonzero component, or dim() when zero.
    [[nodiscard]] constexpr int leading_index() const {
        for (int k = 0; k < Extent; ++k) {
            if ((*this)[k] != 0) return k;
        }
        return Extent;
    }

    [[nodiscard]] static constexpr LexVec zeros() { return LexVec{}; }

    [[nodiscard]] std::string str() const;

  private:
    std::array<std::int64_t, static_cast<std::size_t>(Extent)> c_{};
};

/// 2-D specialization: the historical `Vec2`. `x` is the distance along the
/// outermost (sequential) loop, `y` along the innermost (DOALL) loop. Kept as
/// two named int64 members -- identical layout and codegen to the pre-unified
/// struct -- because the paper's main algorithms (and the hot solver paths)
/// are two-dimensional.
template <>
class LexVec<2> {
  public:
    std::int64_t x = 0;
    std::int64_t y = 0;

    constexpr LexVec() = default;
    constexpr LexVec(std::int64_t x_, std::int64_t y_) : x(x_), y(y_) {}

    /// Lexicographic comparison: member order (x, then y) is exactly the
    /// lexicographic order the paper uses throughout.
    friend constexpr auto operator<=>(const LexVec&, const LexVec&) = default;

    [[nodiscard]] static constexpr int dim() { return 2; }
    [[nodiscard]] constexpr std::int64_t operator[](int k) const { return k == 0 ? x : y; }
    [[nodiscard]] constexpr std::int64_t& operator[](int k) { return k == 0 ? x : y; }

    constexpr LexVec operator+(const LexVec& o) const { return {x + o.x, y + o.y}; }
    constexpr LexVec operator-(const LexVec& o) const { return {x - o.x, y - o.y}; }
    constexpr LexVec operator-() const { return {-x, -y}; }
    constexpr LexVec& operator+=(const LexVec& o) { x += o.x; y += o.y; return *this; }
    constexpr LexVec& operator-=(const LexVec& o) { x -= o.x; y -= o.y; return *this; }
    constexpr LexVec operator*(std::int64_t k) const { return {x * k, y * k}; }

    /// Inner product; used for schedule-vector tests `s . d > 0` (Lemma 4.3).
    [[nodiscard]] constexpr std::int64_t dot(const LexVec& o) const {
        return x * o.x + y * o.y;
    }

    [[nodiscard]] constexpr bool is_zero() const { return x == 0 && y == 0; }

    [[nodiscard]] constexpr int leading_index() const { return x != 0 ? 0 : (y != 0 ? 1 : 2); }

    [[nodiscard]] static constexpr LexVec zeros() { return {}; }

    [[nodiscard]] std::string str() const;
};

/// Runtime-extent specialization: the historical `VecN`. Dimension is carried
/// by the value (std::vector storage); mixed-dimension arithmetic throws.
template <>
class LexVec<kDynamicExtent> {
  public:
    LexVec() = default;
    explicit LexVec(int dim) : c_(static_cast<std::size_t>(dim), 0) {}
    LexVec(std::initializer_list<std::int64_t> values) : c_(values) {}
    explicit LexVec(std::vector<std::int64_t> values) : c_(std::move(values)) {}

    [[nodiscard]] int dim() const { return static_cast<int>(c_.size()); }
    [[nodiscard]] std::int64_t operator[](int k) const { return c_[static_cast<std::size_t>(k)]; }
    [[nodiscard]] std::int64_t& operator[](int k) { return c_[static_cast<std::size_t>(k)]; }
    [[nodiscard]] const std::vector<std::int64_t>& values() const { return c_; }

    /// Lexicographic comparison (std::vector's operator<=> is lexicographic).
    friend auto operator<=>(const LexVec&, const LexVec&) = default;

    LexVec operator+(const LexVec& o) const {
        check(dim() == o.dim(), "VecN: dimension mismatch");
        LexVec r(dim());
        for (int k = 0; k < dim(); ++k) r[k] = (*this)[k] + o[k];
        return r;
    }
    LexVec operator-(const LexVec& o) const {
        check(dim() == o.dim(), "VecN: dimension mismatch");
        LexVec r(dim());
        for (int k = 0; k < dim(); ++k) r[k] = (*this)[k] - o[k];
        return r;
    }
    LexVec operator-() const {
        LexVec r(dim());
        for (int k = 0; k < dim(); ++k) r[k] = -(*this)[k];
        return r;
    }
    LexVec& operator+=(const LexVec& o) { return *this = *this + o; }

    [[nodiscard]] std::int64_t dot(const LexVec& o) const {
        check(dim() == o.dim(), "VecN: dimension mismatch");
        std::int64_t sum = 0;
        for (int k = 0; k < dim(); ++k) sum += (*this)[k] * o[k];
        return sum;
    }

    [[nodiscard]] bool is_zero() const {
        for (int k = 0; k < dim(); ++k) {
            if ((*this)[k] != 0) return false;
        }
        return true;
    }

    /// Index of the first nonzero component, or dim() when zero.
    [[nodiscard]] int leading_index() const {
        for (int k = 0; k < dim(); ++k) {
            if ((*this)[k] != 0) return k;
        }
        return dim();
    }

    [[nodiscard]] static LexVec zeros(int dim) { return LexVec(dim); }

    [[nodiscard]] std::string str() const;

  private:
    std::vector<std::int64_t> c_;
};

/// The canonical spellings. `Vec2` backs the paper's elaborated 2-D
/// algorithms; `VecN` the n-D generalizations of fusion/multidim.hpp.
using Vec2 = LexVec<2>;
using VecN = LexVec<kDynamicExtent>;

std::ostream& operator<<(std::ostream& os, const Vec2& v);

/// Sentinel "plus infinity" for lexicographic shortest paths (paper writes
/// (inf, inf) when initializing Alg. 1). Large enough to never be reached by
/// sums over realistic graphs, small enough to never overflow when added to
/// real edge weights.
inline constexpr Vec2 kVecInfinity{std::int64_t{1} << 40, std::int64_t{1} << 40};

[[nodiscard]] inline constexpr bool is_infinite(const Vec2& v) {
    return v.x >= (std::int64_t{1} << 39) || v.y >= (std::int64_t{1} << 39);
}

/// Component-wise saturating Vec2 arithmetic, used where adversarial inputs
/// could otherwise drive dependence-vector sums past int64 (retiming
/// application). Legality checks reject out-of-range magnitudes up front
/// (kMaxDependenceMagnitude in ldg/legality.hpp), so saturation is a
/// defense-in-depth backstop, not a steady-state code path.
[[nodiscard]] inline Vec2 sat_add(const Vec2& a, const Vec2& b) {
    return {sat_add_i64(a.x, b.x), sat_add_i64(a.y, b.y)};
}

[[nodiscard]] inline Vec2 sat_sub(const Vec2& a, const Vec2& b) {
    return {sat_sub_i64(a.x, b.x), sat_sub_i64(a.y, b.y)};
}

/// Overflow-checked component-wise addition: false (and `out` saturated)
/// when either component overflows.
[[nodiscard]] inline bool checked_add(const Vec2& a, const Vec2& b, Vec2& out) {
    const bool ox = __builtin_add_overflow(a.x, b.x, &out.x);
    const bool oy = __builtin_add_overflow(a.y, b.y, &out.y);
    if (ox || oy) {
        out = sat_add(a, b);
        return false;
    }
    return true;
}

/// Overflow-checked component-wise addition for the runtime extent: false
/// when any component would overflow int64 (`out` then holds the wrapped
/// values; callers must treat the result as poisoned and surface
/// StatusCode::Overflow).
[[nodiscard]] inline bool checked_add(const VecN& a, const VecN& b, VecN& out) {
    check(a.dim() == b.dim(), "VecN: dimension mismatch");
    out = VecN(a.dim());
    bool overflowed = false;
    for (int k = 0; k < a.dim(); ++k) {
        std::int64_t sum = 0;
        overflowed |= __builtin_add_overflow(a[k], b[k], &sum);
        out[k] = sum;
    }
    return !overflowed;
}

/// Overflow-checked component-wise addition for static extents.
template <int Extent>
[[nodiscard]] bool checked_add(const LexVec<Extent>& a, const LexVec<Extent>& b,
                               LexVec<Extent>& out) {
    bool overflowed = false;
    for (int k = 0; k < Extent; ++k) {
        std::int64_t sum = 0;
        overflowed |= __builtin_add_overflow(a[k], b[k], &sum);
        out[k] = sum;
    }
    return !overflowed;
}

template <int Extent>
std::string LexVec<Extent>::str() const {
    std::string s = "(";
    for (int k = 0; k < Extent; ++k) {
        if (k) s += ',';
        s += std::to_string((*this)[k]);
    }
    s += ')';
    return s;
}

}  // namespace lf

template <>
struct std::hash<lf::Vec2> {
    std::size_t operator()(const lf::Vec2& v) const noexcept {
        const std::size_t hx = std::hash<std::int64_t>{}(v.x);
        const std::size_t hy = std::hash<std::int64_t>{}(v.y);
        return hx ^ (hy + 0x9e3779b97f4a7c15ULL + (hx << 6) + (hx >> 2));
    }
};
