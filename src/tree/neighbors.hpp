#pragma once

/// \file neighbors.hpp
/// Neighbor discovery (step 2 of Algorithm 1): tree walks over the octree.
///
/// Per Table 1/2 of the paper, both discovery modes are provided:
///  - Global tree walk (SPHYNX, SPH-flow): every particle searches each step.
///  - Individual tree walk (ChaNGa): only an active subset searches — the
///    mode used with individual (multi-) time-stepping.
///
/// Neighbor lists are stored flat with a fixed per-particle capacity
/// (ngmax), the layout used by the production SPH-EXA mini-app; overflow is
/// recorded rather than silently truncated.
///
/// The walks run through parallelFor (parallel/parallel_for.hpp) with
/// per-worker scratch buffers: iteration i writes only list slot i, so the
/// produced lists are bitwise identical for any pool size and strategy.

#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "tree/octree.hpp"

namespace sphexa {

/// Flat fixed-capacity neighbor lists.
template<class T>
class NeighborList
{
public:
    using Index = typename Octree<T>::Index;

    explicit NeighborList(std::size_t n = 0, unsigned ngmax = 256) { reset(n, ngmax); }

    /// Size the lists for \p n particles and zero the counts. The entry
    /// storage only ever GROWS: steady-state resets (every step, plus the
    /// WCSPH ghost bracket growing and shrinking the set within a step)
    /// reuse the high-water-mark allocation instead of reassigning
    /// n*ngmax entries — entries are never read past their count, so
    /// stale storage needs no zeroing (bench_neighbors asserts the
    /// no-churn property).
    void reset(std::size_t n, unsigned ngmax)
    {
        n_     = n;
        ngmax_ = ngmax;
        if (list_.size() < n * std::size_t(ngmax)) list_.resize(n * std::size_t(ngmax));
        count_.assign(n, 0);
        overflow_ = 0;
    }

    /// Zero the overflow counter only (start of each search pass); keeps
    /// lists and counts, unlike reset().
    void resetOverflow() { overflow_ = 0; }

    /// Allocated entry storage, in entries (high-water mark across resets).
    std::size_t entryCapacity() const { return list_.capacity(); }
    /// Address of the entry storage (stable across steady-state resets).
    const Index* entryData() const { return list_.data(); }

    unsigned ngmax() const { return ngmax_; }
    std::size_t size() const { return n_; }

    /// Number of neighbors found for particle i (capped at ngmax).
    unsigned count(std::size_t i) const { return count_[i]; }

    /// Neighbor indices of particle i.
    std::span<const Index> neighbors(std::size_t i) const
    {
        return {list_.data() + i * ngmax_, count_[i]};
    }

    /// One particle's neighbor row — entry pointer and count from a single
    /// lookup, the flat contiguous form the backend kernels consume
    /// (src/backend/*_kernel.hpp). Iterable like neighbors(i).
    struct Row
    {
        const Index* data;
        std::size_t  count;

        std::span<const Index> span() const { return {data, count}; }
        const Index* begin() const { return data; }
        const Index* end() const { return data + count; }
        std::size_t size() const { return count; }
        bool empty() const { return count == 0; }
    };

    /// Row accessor: both the entries and the count of particle i in one call.
    Row row(std::size_t i) const { return {list_.data() + i * ngmax_, count_[i]}; }

    /// Number of particles whose neighborhood exceeded ngmax in the last fill.
    std::size_t overflowCount() const { return overflow_; }

    /// Total number of neighbor entries (interaction count proxy).
    std::size_t totalNeighbors() const
    {
        std::size_t s = 0;
        for (auto c : count_)
            s += c;
        return s;
    }

    void set(std::size_t i, std::span<const Index> nbs)
    {
        unsigned c = unsigned(std::min<std::size_t>(nbs.size(), ngmax_));
        for (unsigned k = 0; k < c; ++k)
            list_[i * ngmax_ + k] = nbs[k];
        count_[i] = c;
        if (nbs.size() > ngmax_)
        {
            // set() runs concurrently for distinct i from parallelFor
            // workers; atomic_ref makes the shared overflow tally atomic
            // while keeping the member a plain (copyable) size_t.
            std::atomic_ref<std::size_t>(overflow_).fetch_add(1, std::memory_order_relaxed);
        }
    }

private:
    std::size_t n_{0};
    unsigned    ngmax_{256};
    std::vector<Index>    list_;
    std::vector<unsigned> count_;
    std::size_t           overflow_{0};
};

/// Fill neighbor lists for all particles ("global tree walk").
///
/// The search radius of particle i is 2 h_i (kernel support). Self is
/// excluded from the list; SPH sums add the self contribution analytically.
template<class T>
void findNeighborsGlobal(const Octree<T>& tree, std::type_identity_t<std::span<const T>> x, std::type_identity_t<std::span<const T>> y,
                         std::type_identity_t<std::span<const T>> z, std::type_identity_t<std::span<const T>> h, NeighborList<T>& nl,
                         const LoopPolicy& policy = {})
{
    using Index = typename Octree<T>::Index;
    std::size_t n = x.size();
    std::vector<std::vector<Index>> scratch(parallelForWorkers());
    for (auto& s : scratch)
        s.reserve(nl.ngmax());
    parallelFor(n, [&](std::size_t i, std::size_t w) {
        auto& local = scratch[w];
        local.clear();
        Vec3<T> pos{x[i], y[i], z[i]};
        T radius = T(2) * h[i];
        tree.forEachNeighbor(pos, radius, [&](Index j, T) {
            if (j != Index(i)) local.push_back(j);
        });
        nl.set(i, local);
    }, policy);
}

/// Fill neighbor lists only for the \p active particles ("individual tree
/// walk", ChaNGa-style): the inactive entries keep their previous lists.
/// This is the phase-B search of every subset walk — the binned integration
/// (where \p active is the time-step controller's force set) and the
/// per-rank walk of a P > 1 run. No
/// ClusterList counterpart exists: clusters are runs of consecutive
/// SFC-sorted slots and an active bin scatters across them, so the
/// per-particle walk remains the subset path (open item in the ROADMAP).
template<class T>
void findNeighborsIndividual(const Octree<T>& tree, std::type_identity_t<std::span<const T>> x,
                             std::type_identity_t<std::span<const T>> y, std::type_identity_t<std::span<const T>> z,
                             std::type_identity_t<std::span<const T>> h, std::type_identity_t<std::span<const std::size_t>> active,
                             NeighborList<T>& nl, const LoopPolicy& policy = {})
{
    using Index = typename Octree<T>::Index;
    std::vector<std::vector<Index>> scratch(parallelForWorkers());
    for (auto& s : scratch)
        s.reserve(nl.ngmax());
    parallelFor(active.size(), [&](std::size_t a, std::size_t w) {
        std::size_t i = active[a];
        auto& local = scratch[w];
        local.clear();
        Vec3<T> pos{x[i], y[i], z[i]};
        T radius = T(2) * h[i];
        tree.forEachNeighbor(pos, radius, [&](Index j, T) {
            if (j != Index(i)) local.push_back(j);
        });
        nl.set(i, local);
    }, policy);
}

/// Brute-force O(N^2) reference used by tests and the neighbor ablation.
template<class T>
void findNeighborsBruteForce(std::type_identity_t<std::span<const T>> x, std::type_identity_t<std::span<const T>> y,
                             std::type_identity_t<std::span<const T>> z, std::type_identity_t<std::span<const T>> h, const Box<T>& box,
                             NeighborList<T>& nl)
{
    using Index = typename Octree<T>::Index;
    std::size_t n = x.size();
    std::vector<std::vector<Index>> scratch(parallelForWorkers());
    parallelFor(n, [&](std::size_t i, std::size_t w) {
        auto& local = scratch[w];
        local.clear();
        Vec3<T> pi{x[i], y[i], z[i]};
        T r2 = T(4) * h[i] * h[i];
        for (std::size_t j = 0; j < n; ++j)
        {
            if (j == i) continue;
            Vec3<T> d = box.delta(pi, Vec3<T>{x[j], y[j], z[j]});
            if (norm2(d) < r2) local.push_back(Index(j));
        }
        nl.set(i, local);
    });
}

} // namespace sphexa
