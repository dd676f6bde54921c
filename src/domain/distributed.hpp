#pragma once

/// \file distributed.hpp
/// The multi-rank glue of the driver (core/simulation.hpp): the "MPI+X"
/// layer of Table 4 over the simulated communicator (parallel/comm.hpp),
/// as plain functions over the per-rank particle sets. At P > 1 every
/// force pass runs
///   1. decomposeAndMigrate(): domain decomposition (ORB, SFC or slab,
///      Table 4) on current positions + migration to the new owners;
///   2. exchangeHalos() (domain/halo.hpp) with a haloMargin() of 2 h_max;
///   3. the per-rank phase segments, with refreshHaloFields() at the
///      boundaries the pipeline names;
///   4. replicatedGravity(): self-gravity on a replicated tree (positions
///      and masses allgathered — the communication is counted; see
///      docs/DESIGN.md substitution notes).
/// gatherById() collects the owned particles of all ranks. P = 1 calls
/// none of them.
///
/// See docs/ARCHITECTURE.md for the stage-by-stage pipeline walk-through.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "domain/box.hpp"
#include "domain/halo.hpp"
#include "domain/orb.hpp"
#include "domain/sfc_partition.hpp"
#include "domain/slab.hpp"
#include "parallel/comm.hpp"
#include "sph/particles.hpp"
#include "tree/gravity.hpp"
#include "tree/octree.hpp"

namespace sphexa {

/// Re-decompose on current positions and migrate particles to their
/// owners through the communicator. \p locals holds owned particles only.
template<class T>
void decomposeAndMigrate(simmpi::Communicator& comm, std::vector<ParticleSet<T>>& locals,
                         const Box<T>& box, const SimulationConfig<T>& cfg)
{
    int P = comm.size();
    // gather positions (counted as collective traffic)
    std::vector<std::vector<T>> xs(P), ys(P), zs(P), ws(P);
    for (int r = 0; r < P; ++r)
    {
        xs[r].assign(locals[r].x.begin(), locals[r].x.end());
        ys[r].assign(locals[r].y.begin(), locals[r].y.end());
        zs[r].assign(locals[r].z.begin(), locals[r].z.end());
        // work weight: last neighbor count (interaction proxy), or 1
        ws[r].resize(locals[r].size());
        for (std::size_t i = 0; i < locals[r].size(); ++i)
        {
            ws[r][i] = locals[r].nc[i] > 0 ? T(locals[r].nc[i]) : T(1);
        }
    }
    auto gx = comm.allgatherv(xs);
    auto gy = comm.allgatherv(ys);
    auto gz = comm.allgatherv(zs);
    auto gw = comm.allgatherv(ws);

    // global assignment
    std::vector<int> assignment;
    if (cfg.decomposition == DecompositionMethod::OrthogonalRecursiveBisection)
    {
        assignment = orbDecompose<T>(gx, gy, gz, gw, P, box).assignment;
    }
    else if (cfg.decomposition == DecompositionMethod::Slab1D)
    {
        assignment = slabDecompose<T>(gx, gy, gz, gw, P, box).assignment;
    }
    else
    {
        assignment = sfcPartition<T>(gx, gy, gz, gw, P, box, cfg.sfcCurve).assignment;
    }

    // map global index -> (rank, local index)
    std::vector<std::size_t> rankStart(P + 1, 0);
    for (int r = 0; r < P; ++r)
        rankStart[r + 1] = rankStart[r] + locals[r].size();

    // each rank sends leavers
    for (int src = 0; src < P; ++src)
    {
        auto& ps = locals[src];
        std::vector<std::vector<std::size_t>> leaving(P);
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            int owner = assignment[rankStart[src] + i];
            if (owner != src) leaving[owner].push_back(i);
        }
        for (int dst = 0; dst < P; ++dst)
        {
            if (dst == src) continue;
            auto sub = ps.gather(leaving[dst]);
            // pack all real fields + ids
            std::vector<T> packed;
            for (auto* f : sub.realFields())
                packed.insert(packed.end(), f->begin(), f->end());
            comm.sendVector<T>(src, dst, "migrate", packed);
            comm.sendVector<std::uint64_t>(src, dst, "migrate-id", sub.id);
        }
        // erase leavers locally (collect all)
        std::vector<std::size_t> all;
        for (int dst = 0; dst < P; ++dst)
        {
            all.insert(all.end(), leaving[dst].begin(), leaving[dst].end());
        }
        std::sort(all.begin(), all.end());
        ps.eraseSorted(all);
    }

    comm.exchange();

    const auto nFields = ParticleSet<T>::realFieldNames().size();
    for (int dst = 0; dst < P; ++dst)
    {
        auto& ps = locals[dst];
        for (int src = 0; src < P; ++src)
        {
            if (src == dst) continue;
            auto ids    = comm.receiveVector<std::uint64_t>(dst, src, "migrate-id");
            auto packed = comm.receiveVector<T>(dst, src, "migrate");
            std::size_t k = ids.size();
            if (packed.size() != k * nFields)
                throw std::runtime_error("migrate: size mismatch");
            std::size_t base = ps.size();
            ps.resize(base + k);
            auto fields = ps.realFields();
            for (std::size_t f = 0; f < nFields; ++f)
            {
                for (std::size_t g = 0; g < k; ++g)
                    (*fields[f])[base + g] = packed[f * k + g];
            }
            for (std::size_t g = 0; g < k; ++g)
                ps.id[base + g] = ids[g];
        }
    }
}

/// Halo margin for exchangeHalos(): the 2 h_max interaction stencil of the
/// owned particles in \p locals, with a safety factor for the h iteration.
template<class T>
T haloMargin(const std::vector<ParticleSet<T>>& locals)
{
    T hmax = T(0);
    for (const auto& ps : locals)
    {
        for (T h : ps.h)
            hmax = std::max(hmax, h);
    }
    return T(2) * hmax * T(1.5);
}

/// Replicated-tree gravity: allgather (x, y, z, m) of the owned particles,
/// run Barnes-Hut on the replicated set and add each rank's accelerations
/// to its own particles. Returns the potential energy.
template<class T>
T replicatedGravity(simmpi::Communicator& comm, std::vector<ParticleSet<T>>& locals,
                    const Box<T>& box, const SimulationConfig<T>& cfg,
                    GravityStats* stats = nullptr)
{
    int P = comm.size();
    std::vector<std::vector<T>> xs(P), ys(P), zs(P), ms(P);
    for (int r = 0; r < P; ++r)
    {
        xs[r].assign(locals[r].x.begin(), locals[r].x.end());
        ys[r].assign(locals[r].y.begin(), locals[r].y.end());
        zs[r].assign(locals[r].z.begin(), locals[r].z.end());
        ms[r].assign(locals[r].m.begin(), locals[r].m.end());
    }
    auto gx = comm.allgatherv(xs);
    auto gy = comm.allgatherv(ys);
    auto gz = comm.allgatherv(zs);
    auto gm = comm.allgatherv(ms);
    ParticleSet<T> all(gx.size());
    all.x = std::move(gx);
    all.y = std::move(gy);
    all.z = std::move(gz);
    all.m = std::move(gm);

    // the tree parameters of phase A, so P = 1 and P > 1 build the same
    // tree (its structure depends only on positions + params, not order)
    Octree<T> tree;
    typename Octree<T>::BuildParams bp;
    bp.leafSize = cfg.treeLeafSize;
    bp.curve    = cfg.sfcCurve;
    tree.build(all.x, all.y, all.z, box, bp);
    GravitySolver<T> solver;
    solver.prepare(tree, all, cfg.gravity);
    T pot = solver.accumulate(all, stats);

    // scatter accelerations back to owners (same order as the gathers)
    std::size_t cursor = 0;
    for (auto& ps : locals)
    {
        for (std::size_t i = 0; i < ps.size(); ++i, ++cursor)
        {
            ps.ax[i] += all.ax[cursor];
            ps.ay[i] += all.ay[cursor];
            ps.az[i] += all.az[cursor];
        }
    }
    return pot;
}

/// All particles of \p locals in one set, sorted by id.
template<class T>
ParticleSet<T> gatherById(const std::vector<ParticleSet<T>>& locals)
{
    ParticleSet<T> out;
    for (const auto& local : locals)
        out.append(local);
    std::vector<std::size_t> order(out.size());
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return out.id[a] < out.id[b]; });
    out.reorder(order);
    return out;
}

} // namespace sphexa
