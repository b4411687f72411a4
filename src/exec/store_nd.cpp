#include "exec/store_nd.hpp"

#include <functional>

#include "support/diagnostics.hpp"

namespace lf::exec {

namespace {

/// boundary_value with the name's hash computed once per array.
double boundary_value_hashed(std::uint64_t name_hash, const std::int64_t* cell, int dim) {
    std::uint64_t h = name_hash;
    for (int k = 0; k < dim; ++k) {
        h ^= static_cast<std::uint64_t>(cell[k]) * 0x9e3779b97f4a7c15ULL;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    }
    h ^= h >> 31;
    return static_cast<double>(h % 2000001ULL) / 1000000.0 - 1.0;
}

}  // namespace

MdArrayStore::MdArrayStore(const front::BasicProgram<VecN>& p, const MdDomain& dom,
                           std::optional<std::int64_t> halo_opt) {
    check(dom.dim() == p.dim, "MdArrayStore: domain dimension mismatch");
    const std::int64_t halo = halo_opt.value_or(p.max_offset());
    const auto dim = static_cast<std::size_t>(p.dim);
    lo_.assign(dim, -halo);
    hi_.resize(dim);
    for (std::size_t k = 0; k < dim; ++k) hi_[k] = dom.ext[k] + halo;
    stride_.assign(dim, 1);
    for (std::size_t k = dim; k-- > 1;) stride_[k - 1] = stride_[k] * (hi_[k] - lo_[k] + 1);
    const std::int64_t total = stride_[0] * (hi_[0] - lo_[0] + 1);

    names_ = p.arrays();
    slots_.reserve(names_.size());
    std::vector<std::int64_t> cell(dim);
    for (const std::string& name : names_) {
        const std::uint64_t name_hash = std::hash<std::string>{}(name);
        std::vector<double>& data = slots_.emplace_back(static_cast<std::size_t>(total));
        // The box in lexicographic order is the flat index order.
        cell = lo_;
        for (double& v : data) {
            v = boundary_value_hashed(name_hash, cell.data(), p.dim);
            next_point(cell, lo_, hi_);
        }
    }
}

double MdArrayStore::boundary_value(const std::string& array, const VecN& cell) {
    return boundary_value_hashed(std::hash<std::string>{}(array), cell.values().data(),
                                 cell.dim());
}

std::size_t MdArrayStore::index(const std::vector<std::int64_t>& cell) const {
    std::int64_t idx = 0;
    for (std::size_t k = 0; k < cell.size(); ++k) {
        check(cell[k] >= lo_[k] && cell[k] <= hi_[k], kOutOfBounds);
        idx += (cell[k] - lo_[k]) * stride_[k];
    }
    return static_cast<std::size_t>(idx);
}

std::size_t MdArrayStore::id_of(const std::string& name) const {
    for (std::size_t id = 0; id < names_.size(); ++id) {
        if (names_[id] == name) return id;
    }
    throw Error("MdArrayStore: unknown array '" + name + "'");
}

const std::vector<double>& MdArrayStore::cells(const std::string& array) const {
    return slots_[id_of(array)];
}

double MdArrayStore::load(const std::string& array, const VecN& cell) const {
    const std::vector<double>& data = slots_[id_of(array)];
    return data[index(cell.values())];
}

void MdArrayStore::store(const std::string& array, const VecN& cell, double value) {
    std::vector<double>& data = slots_[id_of(array)];
    data[index(cell.values())] = value;
}

}  // namespace lf::exec
