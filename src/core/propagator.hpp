#pragma once

/// \file propagator.hpp
/// The phase-pipeline ("Propagator") layer: Algorithm 1 as data.
///
/// A phase of the paper's Fig. 4 timeline is a first-class named unit — a
/// PhaseOp with a run(StepContext&) entry point — instead of a block of
/// driver code. A pipeline is an ordered list of phases grouped into
/// segments; segment boundaries carry the halo fields a P > 1 run must
/// refresh before the next segment may run (the cross-rank data
/// dependencies of IAD, momentum and the Balsara limiter). The Propagator
/// runs a segment and applies timing and the tracer's phase events
/// uniformly — no call site hand-inserts Timer::lap().
///
/// The driver (core/simulation.hpp) runs every segment once per rank at
/// any rank count, and performs the halo refresh named at a boundary only
/// when P > 1.
///
/// PipelineFactory::singleRank() is the one assembly: every op gates
/// itself on the SimulationConfig and the StepContext (SFC reorder, WCSPH
/// ghost bracket, body force, self-gravity), so a config selects behaviour
/// without selecting a phase list. custom() accepts any op list for
/// bespoke pipelines.

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/step_context.hpp"
#include "perf/timer.hpp"
#include "sph/boundaries.hpp"
#include "sph/density.hpp"
#include "sph/divcurl.hpp"
#include "sph/iad.hpp"
#include "sph/momentum_energy.hpp"
#include "sph/smoothing_length.hpp"

namespace sphexa {

/// A named, first-class unit of work: one lettered phase of Algorithm 1.
template<class T>
struct PhaseOp
{
    Phase phase;
    std::function<void(StepContext<T>&)> run;
};

/// A run of consecutive phases with no cross-rank data dependency inside,
/// plus the ghost fields that must be refreshed before the next segment
/// when P > 1 (empty for the final segment; ignored at P = 1).
template<class T>
struct PipelineSegment
{
    std::vector<PhaseOp<T>> ops;
    std::vector<std::string> haloFieldsAfter{};
};

/// The pipeline runner: executes phase units over a StepContext, timing
/// each one into a rank's phaseSeconds and emitting a PhaseEvent per phase
/// when a log is attached.
template<class T>
class Propagator
{
public:
    Propagator() = default;
    explicit Propagator(std::vector<PipelineSegment<T>> segments)
        : segments_(std::move(segments))
    {
    }

    const std::vector<PipelineSegment<T>>& segments() const { return segments_; }

    /// Flattened phase order across all segments.
    std::vector<Phase> phases() const
    {
        std::vector<Phase> out;
        for (const auto& seg : segments_)
            for (const auto& op : seg.ops)
                out.push_back(op.phase);
        return out;
    }

    bool hasPhase(Phase p) const
    {
        for (const auto& seg : segments_)
            for (const auto& op : seg.ops)
                if (op.phase == p) return true;
        return false;
    }

    /// Execute one segment for one rank; at P > 1 the driver interleaves
    /// these with the halo refreshes named in haloFieldsAfter.
    void runSegment(std::size_t segment, StepContext<T>& ctx,
                    std::array<double, phaseCount>& phaseSeconds,
                    PhaseEventLog* log = nullptr, int rank = 0) const
    {
        Timer t;
        for (const auto& op : segments_[segment].ops)
        {
            op.run(ctx);
            double sec = t.lap();
            phaseSeconds[int(op.phase)] += sec;
            if (log) log->record(rank, op.phase, sec);
        }
    }

private:
    std::vector<PipelineSegment<T>> segments_;
};

/// The phase units themselves. Each body is mode-aware through the
/// StepContext (global walk, active-subset walk, or per-rank local walk) so
/// every rank count executes the exact same code.
namespace phase_ops {

/// SFC particle reorder (phase L, tree/sfc_sort.hpp): physically sort the
/// set along the configured curve so every downstream sweep is cache-local
/// and the cluster search's fixed-size runs of consecutive particles are
/// spatially tight. Placed FIRST in the pipelines that carry it — before
/// the WCSPH ghost bracket (ghosts never move) and before the tree build
/// (every list is rebuilt over the new order). Self-gates on the config
/// (ClusterList search implies it) and runs only on Global walks: an
/// active-subset step reuses neighbor lists whose entries reference
/// pre-reorder slots, and a P > 1 run orders particles in its
/// decomposition glue instead.
template<class T>
PhaseOp<T> sfcReorder()
{
    return {Phase::L_SfcSort, [](StepContext<T>& ctx) {
                if (ctx.walkMode != WalkMode::Global) return;
                if (!ctx.cfg.sfcReorder &&
                    ctx.cfg.searchMode != NeighborSearchMode::ClusterList)
                {
                    return;
                }
                SfcSorter<T>  local;
                SfcSorter<T>& sorter = ctx.sorter ? *ctx.sorter : local;
                sorter.apply(ctx.ps, ctx.box, ctx.cfg.sfcCurve);
            }};
}

template<class T>
PhaseOp<T> treeBuild()
{
    return {Phase::A_TreeBuild, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyLocal()) return;
                typename Octree<T>::BuildParams bp;
                bp.leafSize      = ctx.cfg.treeLeafSize;
                bp.curve         = ctx.cfg.sfcCurve;
                bp.parallelBuild = ctx.cfg.parallelTreeBuild;
                ctx.tree.build(ctx.ps.x, ctx.ps.y, ctx.ps.z, ctx.box, bp);
            }};
}

template<class T>
PhaseOp<T> neighborSearch()
{
    return {Phase::B_NeighborSearch, [](StepContext<T>& ctx) {
                auto& ps = ctx.ps;
                // this step's overflow accounting starts at the search
                // (phases C/D may add more via their nl.set calls)
                ctx.nl.resetOverflow();
                switch (ctx.walkMode)
                {
                    case WalkMode::Global:
                        if (ctx.cfg.searchMode == NeighborSearchMode::ClusterList)
                        {
                            ClusterWorkspace<T>  local;
                            ClusterWorkspace<T>& ws =
                                ctx.clusters ? *ctx.clusters : local;
                            findNeighborsClustered(ctx.tree, ps.x, ps.y, ps.z, ps.h,
                                                   ctx.nl, ws, ctx.cfg.clusterSize,
                                                   ctx.loopPolicy(Phase::B_NeighborSearch));
                        }
                        else
                        {
                            findNeighborsGlobal(ctx.tree, ps.x, ps.y, ps.z, ps.h, ctx.nl,
                                                ctx.loopPolicy(Phase::B_NeighborSearch));
                        }
                        ctx.activeParticles = ps.size();
                        break;
                    case WalkMode::ActiveSubset:
                        if (ctx.controller)
                        {
                            ctx.walkIndices = ctx.controller->activeParticles(ps);
                        }
                        findNeighborsIndividual(ctx.tree, ps.x, ps.y, ps.z, ps.h,
                                                ctx.walkIndices, ctx.nl,
                                                ctx.loopPolicy(Phase::B_NeighborSearch));
                        ctx.activeParticles = ctx.walkIndices.size();
                        break;
                    case WalkMode::LocalIndices:
                        if (ctx.skipEmptyLocal()) return;
                        findNeighborsIndividual(ctx.tree, ps.x, ps.y, ps.z, ps.h,
                                                ctx.walkIndices, ctx.nl,
                                                ctx.loopPolicy(Phase::B_NeighborSearch));
                        ctx.activeParticles = ctx.walkIndices.size();
                        break;
                }
            }};
}

/// The h iteration over the walked set. On an ActiveSubset walk (only the
/// binned driver path makes one) every step is a real force evaluation for
/// its active particles, so they iterate h too.
template<class T>
PhaseOp<T> smoothingLength()
{
    return {Phase::C_SmoothingLength, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk()) return;
                SmoothingLengthParams<T> hp;
                hp.targetNeighbors = ctx.cfg.targetNeighbors;
                hp.tolerance       = ctx.cfg.neighborTolerance;
                // phase B just filled the lists for the current h (all
                // particles in Global mode, the rank's owned particles in
                // LocalIndices mode, the controller's active bins in
                // ActiveSubset mode), so the iteration never repeats the
                // initial walk — one shared h path for all drivers
                auto hres = updateSmoothingLengths(ctx.ps, ctx.tree, ctx.nl, hp,
                                                   ctx.activeSpan(), /*reuseLists*/ true,
                                                   ctx.loopPolicy(Phase::C_SmoothingLength));
                ctx.hIterations = hres.iterations;
            }};
}

template<class T>
PhaseOp<T> neighborSymmetrize()
{
    return {Phase::D_NeighborSymmetrize, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk())
                {
                    ctx.neighborInteractions = 0;
                    ctx.neighborOverflow     = 0;
                    return;
                }
                // ActiveSubset lists are deliberately NOT symmetrized: an
                // inactive neighbor's list is stale by construction, so
                // pairwise antisymmetry only holds at full synchronizations
                // (where conservation is measured) — ChaNGa's trade-off.
                if (ctx.walkMode == WalkMode::Global && ctx.cfg.symmetrizeNeighbors)
                {
                    symmetrizeNeighborList(
                        ctx.nl, std::span<const std::uint64_t>(ctx.ps.id.data(),
                                                               ctx.nl.size()));
                }
                // phase D closes the list-building bracket (B fills, C may
                // re-walk, the symmetrize pass appends): snapshot overflow
                // here so the report reflects the lists the SPH sums read
                ctx.neighborOverflow = ctx.nl.overflowCount();
                // interaction counter: walked particles only when a subset
                // was searched (other entries are stale/ghost), whole list
                // on a global walk
                if (ctx.walkMode == WalkMode::Global)
                {
                    ctx.neighborInteractions = ctx.nl.totalNeighbors();
                }
                else
                {
                    std::size_t inter = 0;
                    for (std::size_t i : ctx.walkIndices)
                        inter += ctx.nl.count(i);
                    ctx.neighborInteractions = inter;
                }
            }};
}

template<class T>
PhaseOp<T> density()
{
    return {Phase::E_Density, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk()) return;
                auto pol = ctx.loopPolicy(Phase::E_Density);
                // the near-free uniform VE loop must not adapt the AWF
                // weights the neighbor-bound density sum is calibrated by —
                // its noise-dominated rates would drag them off every step
                LoopPolicy vePol = pol;
                vePol.awfWeights = nullptr;
                computeVolumeElementWeights(ctx.ps, ctx.cfg.volumeElements,
                                            ctx.cfg.veExponent, vePol);
                computeDensity(ctx.ps, ctx.nl, ctx.kernel, ctx.box, ctx.activeSpan(), pol,
                               ctx.computeBackend());
            }};
}

template<class T>
PhaseOp<T> eosAndIad()
{
    return {Phase::F_EosAndIad, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk()) return;
                auto& ps  = ctx.ps;
                auto act  = ctx.activeSpan();
                auto pol  = ctx.loopPolicy(Phase::F_EosAndIad);
                // the cheap EOS sweep runs weightless for the same reason
                // as the VE loop of phase E: only the IAD sum below should
                // drive the phase's AWF adaptation
                LoopPolicy eosPol = pol;
                eosPol.awfWeights = nullptr;
                std::size_t count = act.empty() ? ps.size() : act.size();
                parallelFor(
                    count,
                    [&](std::size_t k, std::size_t) {
                        std::size_t i = act.empty() ? k : act[k];
                        auto res = ctx.eos(ps.rho[i], ps.u[i]);
                        ps.p[i]  = res.pressure;
                        ps.c[i]  = res.soundSpeed;
                    },
                    eosPol);
                if (ctx.cfg.gradients == GradientMode::IAD)
                {
                    computeIadCoefficients(ps, ctx.nl, ctx.kernel, ctx.box, act, pol,
                                           ctx.computeBackend());
                }
            }};
}

template<class T>
PhaseOp<T> divCurl()
{
    return {Phase::G_DivCurl, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk()) return;
                computeDivCurl(ctx.ps, ctx.nl, ctx.kernel, ctx.box, ctx.cfg.gradients,
                               ctx.activeSpan(), ctx.loopPolicy(Phase::G_DivCurl),
                               ctx.computeBackend());
            }};
}

template<class T>
PhaseOp<T> momentumEnergy()
{
    return {Phase::H_MomentumEnergy, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk()) return;
                auto stats = computeMomentumEnergy(ctx.ps, ctx.nl, ctx.kernel, ctx.box,
                                                   ctx.cfg.gradients, ctx.cfg.av,
                                                   ctx.activeSpan(),
                                                   ctx.loopPolicy(Phase::H_MomentumEnergy),
                                                   ctx.computeBackend());
                ctx.maxVsignal = stats.maxVsignal;
            }};
}

template<class T>
PhaseOp<T> selfGravity()
{
    return {Phase::I_SelfGravity, [](StepContext<T>& ctx) {
                if (!ctx.cfg.selfGravity) return;
                if (!ctx.gravity) return; // P > 1: the driver's glue replicates
                if (ctx.skipEmptyWalk()) return;
                ctx.gravity->prepare(ctx.tree, ctx.ps, ctx.cfg.gravity);
                // active-subset steps accelerate the walked targets only; the
                // accumulated potential is then partial, so conservation
                // diagnostics read it at full synchronizations (where the
                // span is the whole set). Empty span = all (Global walks).
                ctx.potentialEnergy = ctx.gravity->accumulate(
                    ctx.ps, &ctx.gravityStats, ctx.activeSpan(),
                    ctx.loopPolicy(Phase::I_SelfGravity));
            }};
}

/// WCSPH ghost creation (phase K, before the tree build): mirror the reals
/// across the configured walls and size the neighbor list for the enlarged
/// set. A no-op when the config declares no walls, so the WCSPH pipeline
/// degenerates to the compressible one on wall-free scenarios.
template<class T>
PhaseOp<T> ghostCreate()
{
    return {Phase::K_GhostExchange, [](StepContext<T>& ctx) {
                ctx.nGhosts = appendMirrorGhosts(ctx.ps, ctx.box, ctx.cfg.boundaries);
                if (ctx.nGhosts) ctx.nl.reset(ctx.ps.size(), ctx.cfg.ngmax);
            }};
}

/// WCSPH ghost removal (phase K, after the force phases): truncate the
/// ghost tail so integration and conservation see real particles only.
template<class T>
PhaseOp<T> ghostRemove()
{
    return {Phase::K_GhostExchange, [](StepContext<T>& ctx) {
                if (!ctx.nGhosts) return;
                removeGhosts(ctx.ps, ctx.nGhosts);
                ctx.nl.reset(ctx.ps.size(), ctx.cfg.ngmax);
                ctx.nGhosts = 0;
            }};
}

/// Uniform body force (dam-break gravity): added onto the SPH
/// accelerations of the walked set, so it shares phase H's timing slot. A
/// no-op at zero acceleration.
template<class T>
PhaseOp<T> bodyForce()
{
    return {Phase::H_MomentumEnergy, [](StepContext<T>& ctx) {
                const Vec3<T>& g = ctx.cfg.constantAccel;
                if (g.x == T(0) && g.y == T(0) && g.z == T(0)) return;
                if (ctx.skipEmptyWalk()) return;
                auto& ps = ctx.ps;
                auto act = ctx.activeSpan();
                parallelFor(
                    act.empty() ? ps.size() : act.size(),
                    [&](std::size_t k, std::size_t) {
                        std::size_t i = act.empty() ? k : act[k];
                        ps.ax[i] += g.x;
                        ps.ay[i] += g.y;
                        ps.az[i] += g.z;
                    },
                    ctx.loopPolicy(Phase::H_MomentumEnergy));
            }};
}

} // namespace phase_ops

/// Assembles the force pipeline.
template<class T>
class PipelineFactory
{
public:
    /// The force pipeline of every configuration and rank count:
    ///
    ///   L, K+, A..E | F | G | H, body force, I, K-
    ///
    /// Each op gates itself: L on the config's reorder switch and Global
    /// walks, the K bracket on configured walls, the body force on a
    /// nonzero constantAccel, I on selfGravity (and on the driver's in-place
    /// solver: P > 1 replicates gravity in its glue). The '|' boundaries
    /// name the ghost fields a P > 1 run refreshes there: IAD reads the
    /// neighbors' density-pass volumes, momentum their EOS + IAD outputs,
    /// the AV limiter their Balsara value. P = 1 ignores them.
    static Propagator<T> singleRank(const SimulationConfig<T>&)
    {
        std::vector<PipelineSegment<T>> segs;
        segs.push_back({{phase_ops::sfcReorder<T>(), phase_ops::ghostCreate<T>(),
                         phase_ops::treeBuild<T>(), phase_ops::neighborSearch<T>(),
                         phase_ops::smoothingLength<T>(),
                         phase_ops::neighborSymmetrize<T>(), phase_ops::density<T>()},
                        {"h", "rho", "vol", "gradh", "xmass"}});
        segs.push_back({{phase_ops::eosAndIad<T>()},
                        {"p", "c", "c11", "c12", "c13", "c22", "c23", "c33"}});
        segs.push_back({{phase_ops::divCurl<T>()}, {"balsara", "divv", "curlv"}});
        segs.push_back({{phase_ops::momentumEnergy<T>(), phase_ops::bodyForce<T>(),
                         phase_ops::selfGravity<T>(), phase_ops::ghostRemove<T>()},
                        {}});
        return Propagator<T>(std::move(segs));
    }

    /// A bespoke single-segment pipeline from any op list.
    static Propagator<T> custom(std::vector<PhaseOp<T>> ops)
    {
        std::vector<PipelineSegment<T>> segs;
        segs.push_back({std::move(ops), {}});
        return Propagator<T>(std::move(segs));
    }
};

} // namespace sphexa
