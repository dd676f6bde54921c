#pragma once

/// \file simulation.hpp
/// The mini-app driver: Algorithm 1 of the paper as a thin owner of state
/// that executes a phase pipeline (core/propagator.hpp) at any rank count.
///
///   while target time not reached:
///     1. Build tree                      (phase A)
///     2. Find neighbors + smoothing len  (phases B, C, D)
///     3. SPH & physics kernels           (phases E..H)
///     4. (optional) self-gravity         (phase I)
///     5. New time-step                   (phase J)
///     6. Update velocity and position    (phase J)
///
/// The phase letters match the Extrae timeline of Fig. 4; the pipeline
/// runner times every phase uniformly and emits tracer events (attach a
/// PhaseEventLog to capture them). Phase J (time-step + kick-drift-kick)
/// brackets the force pipeline and stays in the driver.
///
/// The rank count P is a constructor argument (default 1): the "MPI+X"
/// configurations of Table 4 run over the simulated communicator
/// (parallel/comm.hpp). The driver owns each rank's particles, tree,
/// neighbor lists, AWF weights and sort/search scratch, and runs every
/// pipeline segment once per rank. At P > 1 it adds the multi-rank glue of
/// domain/distributed.hpp — decomposition + migration, halo exchange and
/// refresh, replicated gravity — and reduces the per-rank dt minima through
/// the communicator; P = 1 skips all of it.
///
/// docs/ARCHITECTURE.md walks the full pipeline stage by stage and names
/// the header implementing each stage.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "backend/lane_kernel.hpp"
#include "core/config.hpp"
#include "core/propagator.hpp"
#include "core/step_context.hpp"
#include "domain/box.hpp"
#include "domain/distributed.hpp"
#include "domain/halo.hpp"
#include "parallel/comm.hpp"
#include "perf/timer.hpp"
#include "sph/conservation.hpp"
#include "sph/integrator.hpp"
#include "sph/particles.hpp"

namespace sphexa {

/// SPH simulation of one particle set over P simulated ranks.
template<class T>
class Simulation
{
public:
    /// P > 1 needs Global time-steps and no walls (std::invalid_argument
    /// otherwise). It starts with every particle on rank 0 and runs its
    /// first force pass, which decomposes the set, right here; P = 1 runs
    /// its first force pass on computeForces() or the first advance().
    Simulation(ParticleSet<T> ps, Box<T> box, Eos<T> eos, SimulationConfig<T> cfg,
               int nRanks = 1)
        : comm_(nRanks)
        , box_(box)
        , eos_(std::move(eos))
        , cfg_(std::move(cfg))
        , kernel_(cfg_.kernel, cfg_.sincExponent)
        , laneKernel_(kernel_)
        , controller_(cfg_.timestep)
        , pipeline_(PipelineFactory<T>::singleRank(cfg_))
        , locals_(nRanks)
        , halos_(nRanks)
        , nLocal_(nRanks, 0)
        , rank_(nRanks)
    {
        if (ps.empty()) throw std::invalid_argument("Simulation: empty particle set");
        if (nRanks > 1 && cfg_.boundaries.anyWall())
        {
            throw std::invalid_argument(
                "Simulation: walls need P = 1 (mirror ghosts are not exchanged)");
        }
        if (nRanks > 1 && cfg_.timestep.mode != TimesteppingMode::Global)
        {
            throw std::invalid_argument("Simulation: P > 1 runs Global time-steps only");
        }
        if (binnedIntegration() && cfg_.boundaries.anyWall())
        {
            throw std::invalid_argument(
                "Simulation: binned integration cannot run with walls (mirror "
                "ghosts would join the active set)");
        }
        locals_[0] = std::move(ps);
        nLocal_[0] = locals_[0].size();
        rank_[0].nl.reset(nLocal_[0], cfg_.ngmax);
        if (nRanks > 1) forcePass(stepCount_);
    }

    /// Convenience: derive the EOS from the configuration — the Tait
    /// closure of the config's WCSPH parameters in the weakly-compressible
    /// mode, an ideal gas otherwise (core/config.hpp, eosFromConfig).
    Simulation(ParticleSet<T> ps, Box<T> box, SimulationConfig<T> cfg)
        : Simulation(std::move(ps), box, eosFromConfig<T>(cfg), cfg)
    {
    }

    int ranks() const { return comm_.size(); }
    /// The particle set: all particles at P = 1, rank 0's owned particles
    /// at P > 1 (gather() collects every rank's).
    const ParticleSet<T>& particles() const { return locals_[0]; }
    ParticleSet<T>& particles() { return locals_[0]; }
    const Box<T>& box() const { return box_; }
    const SimulationConfig<T>& config() const { return cfg_; }
    T time() const { return time_; }
    std::uint64_t step() const { return stepCount_; }

    /// The force pipeline this driver executes (phases L, A..I).
    const Propagator<T>& pipeline() const { return pipeline_; }

    /// Rank 0's persistent per-phase AWF weight store (inspectable by tests
    /// and the scheduling ablation; reset() returns every phase to equal
    /// weights).
    AwfWeightStore& awfWeights() { return rank_[0].awf; }
    const AwfWeightStore& awfWeights() const { return rank_[0].awf; }

    /// Replace the force pipeline (custom phase sequences; the default is
    /// PipelineFactory::singleRank(config)). Forces must be recomputed.
    void setPipeline(Propagator<T> pipeline)
    {
        pipeline_    = std::move(pipeline);
        forcesValid_ = false;
    }

    /// Attach a tracer log: the pipeline runner emits one PhaseEvent per
    /// executed (rank, phase) into it (pass nullptr to detach).
    void attachPhaseLog(PhaseEventLog* log) { log_ = log; }

    /// Signal velocity of the last force evaluation (checkpoint metadata:
    /// restoring it makes the continuation bitwise instead of merely
    /// physically equivalent, because the artificial viscosity is
    /// velocity-dependent and the checkpointed accelerations were computed
    /// with the half-kicked velocities of the KDK scheme).
    T maxVsignal() const { return maxVsignal_; }

    /// Resume from a checkpoint: restores simulated time, step counter and
    /// time-step controller. When \p maxVsignal is supplied, the
    /// checkpointed accelerations/du are reused (no force recomputation)
    /// and the continuation is bit-identical to an uninterrupted run.
    /// Individual-mode restarts additionally pass the controller's base
    /// step and cycle anchor (controller().baseDt()/cycleStart() at write
    /// time) so the 2^k activity schedule resumes mid-cycle exactly; the
    /// bin hierarchy itself rides in the serialized ps.bin/ps.dt fields and
    /// is re-derived here via restoreBins().
    void restoreFromCheckpoint(T time, std::uint64_t step, T lastDt = T(0),
                               std::optional<T> maxVsignal = {}, T baseDt = T(0),
                               std::uint64_t cycleStart = 0)
    {
        time_      = time;
        stepCount_ = step;
        controller_.restore(step, lastDt, baseDt, cycleStart);
        controller_.restoreBins(locals_[0]);
        if (maxVsignal)
        {
            maxVsignal_  = *maxVsignal;
            forcesValid_ = true;
        }
    }

    /// The time-step controller (bin schedule, sync state — read-only).
    const TimestepController<T>& timestepController() const { return controller_; }

    /// Compute forces for the current positions (phases A..I) by running
    /// the force pipeline. advance() runs it itself when forces are stale.
    /// The report's time/dt reflect the current simulation state (dt is the
    /// last step size used, zero before the first advance()).
    StepReport<T> computeForces()
    {
        comm_.resetTraffic();
        return withTotals(forcePass(stepCount_));
    }

    /// Advance one time-step (kick-drift-kick). Returns the step report of
    /// the force recomputation plus the J-phase timing.
    StepReport<T> advance()
    {
        if (!forcesValid_)
        {
            // seed forces silently: this pass's report is discarded, and
            // logging it would double-count phases A..I for the step
            PhaseEventLog* saved = std::exchange(log_, nullptr);
            try
            {
                computeForces();
            }
            catch (...)
            {
                log_ = saved;
                throw;
            }
            log_ = saved;
        }
        comm_.resetTraffic();

        // phase J runs under the configured strategy on every rank, like
        // any hot loop; each rank's busy and wall times join its J slot
        const int P = ranks();
        std::vector<PhaseLoadStats> jLoad(P);
        std::vector<double> jSeconds(P, 0.0);
        auto phaseJ = [&](int r, auto&& body) {
            LoopPolicy pol;
            pol.strategy = cfg_.phaseSchedule[Phase::J_TimestepUpdate];
            if (pol.strategy == SchedulingStrategy::AdaptiveWeightedFactoring)
            {
                pol.awfWeights = &rank_[r].awf.weightsFor(std::size_t(Phase::J_TimestepUpdate));
            }
            pol.stats = &jLoad[r];
            Timer t;
            body(locals_[r], pol);
            jSeconds[r] += t.elapsed();
        };
        const bool binned = binnedIntegration();

        // --- phase J (part 1): new time-step, first kick + drift ---
        T dtStep{};
        if (P == 1)
        {
            phaseJ(0, [&](ParticleSet<T>& ps, const LoopPolicy& pol) {
                dtStep = controller_.advance(ps, maxVsignal_, pol);
            });
        }
        else
        {
            std::vector<T> dtMin(P);
            for (int r = 0; r < P; ++r)
            {
                phaseJ(r, [&](ParticleSet<T>& ps, const LoopPolicy& pol) {
                    dtMin[r] = controller_.candidateMin(ps, maxVsignal_, pol);
                });
            }
            dtStep = controller_.advanceGlobal(comm_.allreduceMin<T>(dtMin));
        }
        for (int r = 0; r < P; ++r)
        {
            phaseJ(r, [&](ParticleSet<T>& ps, const LoopPolicy& pol) {
                if (binned)
                {
                    // binned leapfrog: only particles whose interval starts
                    // now get the opening half-kick (with their OWN ps.dt),
                    // then everyone drifts by the base step — the
                    // prediction of inactive particles the active subset's
                    // kernels read
                    kickStartIndividual(ps, controller_.kickStartSet(ps), pol);
                    driftAll(ps, dtStep, box_, eos_.isIdealGas(), pol);
                }
                else
                {
                    kickDrift(ps, dtStep, box_, pol);
                }
            });
        }

        // forces at the new positions (phases A..I), tagged with the step
        // id the returned report will carry so log events and reports join
        StepReport<T> rep = forcePass(stepCount_ + 1);

        // --- phase J (part 2): second kick + energy update ---
        for (int r = 0; r < P; ++r)
        {
            phaseJ(r, [&](ParticleSet<T>& ps, const LoopPolicy& pol) {
                if (binned)
                {
                    // close the intervals that end here: the force pass
                    // just walked exactly this set (phase B queried the
                    // controller at the post-increment step counter — the
                    // force/kick-end convention)
                    kickEndIndividual(ps, lastWalkIndices_, eos_.isIdealGas(), pol);
                }
                else
                {
                    kickEnergy(ps, dtStep, eos_.isIdealGas(), pol);
                }
            });
        }
        time_ += dtStep;
        ++stepCount_;

        for (int r = 0; r < P; ++r)
        {
            rep.ranks[r].phaseSeconds[int(Phase::J_TimestepUpdate)] = jSeconds[r];
            rep.ranks[r].phaseLoad[int(Phase::J_TimestepUpdate)]    = std::move(jLoad[r]);
            if (log_) log_->record(r, Phase::J_TimestepUpdate, jSeconds[r]);
        }
        rep.dt   = dtStep;
        rep.time = time_;
        rep.step = stepCount_;
        return withTotals(std::move(rep));
    }

    /// Run \p nSteps steps; returns the report of the last one. The optional
    /// callback receives every report (used by examples and benches).
    StepReport<T> run(std::uint64_t nSteps,
                      const std::function<void(const StepReport<T>&)>& onStep = {})
    {
        StepReport<T> last;
        for (std::uint64_t s = 0; s < nSteps; ++s)
        {
            last = advance();
            if (onStep) onStep(last);
        }
        return last;
    }

    /// All particles of every rank in one set, sorted by id.
    ParticleSet<T> gather() const { return gatherById(locals_); }

    /// Conservation snapshot, including gravitational potential when active.
    Conservation<T> conservation() const
    {
        if (ranks() == 1) return computeConservation(locals_[0], potentialEnergy_);
        return computeConservation(gather(), potentialEnergy_);
    }

    /// Imbalance of the current decomposition: max/mean owned count.
    double particleImbalance() const
    {
        double mx = 0, sum = 0;
        for (std::size_t n : nLocal_)
        {
            mx = std::max(mx, double(n));
            sum += double(n);
        }
        return sum > 0 ? mx * double(nLocal_.size()) / sum : 1.0;
    }

private:
    /// Per-rank state that persists across force passes.
    struct RankState
    {
        Octree<T> tree;
        NeighborList<T> nl;
        AwfWeightStore awf;            ///< per-phase AWF weights, adapted across steps
        SfcSorter<T> sorter;           ///< phase L key/permutation buffers
        ClusterWorkspace<T> clusters;  ///< cluster-search scratch
    };

    /// Whether this driver runs the binned (individual time-stepping)
    /// leapfrog: Individual bins + active-subset walks, compressible hydro
    /// only (the WCSPH mode falls back to global stepping at the
    /// controller's base dt).
    bool binnedIntegration() const
    {
        return cfg_.hydroMode == HydroMode::Compressible &&
               cfg_.timestep.mode == TimesteppingMode::Individual &&
               cfg_.neighborMode == NeighborMode::IndividualTreeWalk;
    }

    /// One force-pipeline pass over every rank; \p stepId tags the report
    /// and the emitted phase events (the current step for a standalone
    /// computeForces(), the upcoming one inside advance()).
    StepReport<T> forcePass(std::uint64_t stepId)
    {
        const int P = ranks();
        StepReport<T> rep;
        rep.step = stepId;
        rep.time = time_;
        rep.dt   = controller_.currentDt();
        rep.ranks.resize(P);
        if (log_) log_->beginStep(stepId);

        if (P > 1)
        {
            // re-decompose and migrate, then fetch halos within 2 h_max
            Timer t;
            decomposeAndMigrate(comm_, locals_, box_, cfg_);
            for (int r = 0; r < P; ++r)
                nLocal_[r] = locals_[r].size();
            double decompose = t.lap() / P;
            exchangeHalos(comm_, locals_, halos_, box_, haloMargin(locals_));
            double halo = t.lap() / P;
            for (auto& rr : rep.ranks)
            {
                rr.decompositionSeconds = decompose;
                rr.haloSeconds          = halo;
            }
        }

        // one StepContext per rank over the shared phase units
        std::vector<StepContext<T>> ctxs;
        ctxs.reserve(P);
        for (int r = 0; r < P; ++r)
        {
            auto& st = rank_[r];
            if (P > 1) st.nl.reset(locals_[r].size(), cfg_.ngmax);
            ctxs.push_back(StepContext<T>{locals_[r], box_, cfg_, kernel_, eos_, st.tree, st.nl});
            auto& ctx      = ctxs.back();
            ctx.controller = &controller_;
            ctx.awf        = &st.awf;      // AWF weights persist across steps,
            ctx.sorter     = &st.sorter;   // as do the phase L buffers,
            ctx.clusters   = &st.clusters; // the cluster-search scratch
            ctx.laneKernel = &laneKernel_; // and the read-only Simd lane tables
            if (P == 1)
            {
                ctx.gravity = &gravity_;
                // active-subset walks only under the binned integrator:
                // mixing a subset force pass with the global kick (stale du
                // on inactive particles) would silently violate the
                // trapezoid energy update, so every non-binned combination
                // runs full global walks
                bool subset  = binnedIntegration() && controller_.stepCount() > 0;
                ctx.walkMode = subset ? WalkMode::ActiveSubset : WalkMode::Global;
            }
            else
            {
                // a rank walks its owned particles; the tail are halo ghosts
                ctx.walkMode = WalkMode::LocalIndices;
                ctx.walkIndices.resize(nLocal_[r]);
                std::iota(ctx.walkIndices.begin(), ctx.walkIndices.end(), std::size_t(0));
            }
            rep.ranks[r].localParticles = nLocal_[r];
            rep.ranks[r].ghostParticles = locals_[r].size() - nLocal_[r];
        }

        // the segments in order, each on every rank; at P > 1 the ghost
        // fields a segment boundary names are refreshed before the next
        const auto& segments = pipeline_.segments();
        for (std::size_t s = 0; s < segments.size(); ++s)
        {
            for (int r = 0; r < P; ++r)
                pipeline_.runSegment(s, ctxs[r], rep.ranks[r].phaseSeconds, log_, r);
            if (P > 1 && !segments[s].haloFieldsAfter.empty())
            {
                refreshHaloFields(comm_, locals_, halos_, segments[s].haloFieldsAfter,
                                  nLocal_);
            }
        }

        std::vector<T> vsig(P);
        for (int r = 0; r < P; ++r)
        {
            const auto& ctx = ctxs[r];
            rep.ranks[r].neighborInteractions = ctx.neighborInteractions;
            rep.ranks[r].phaseLoad            = ctx.phaseLoad;
            rep.neighborInteractions += ctx.neighborInteractions;
            rep.activeParticles += ctx.activeParticles;
            rep.neighborOverflow += ctx.neighborOverflow;
            rep.hIterations = std::max(rep.hIterations, ctx.hIterations);
            vsig[r]         = ctx.maxVsignal;
        }
        rep.gravityStats = ctxs[0].gravityStats;
        potentialEnergy_ = ctxs[0].potentialEnergy;
        // keep the walked set: on a binned step this is the force/kick-end
        // set advance() closes right after this pass (empty on Global walks)
        lastWalkIndices_ = std::move(ctxs[0].walkIndices);

        if (P == 1)
        {
            maxVsignal_ = vsig[0];
        }
        else
        {
            maxVsignal_ = comm_.allreduceMax<T>(std::span<const T>(vsig));
            // ghost forces are NOT applied; drop the ghosts before the update
            for (int r = 0; r < P; ++r)
                locals_[r].resize(nLocal_[r]);
            if (cfg_.selfGravity)
            {
                Timer t;
                potentialEnergy_ =
                    replicatedGravity(comm_, locals_, box_, cfg_, &rep.gravityStats);
                double sec = t.elapsed() / P;
                for (int r = 0; r < P; ++r)
                {
                    rep.ranks[r].phaseSeconds[int(Phase::I_SelfGravity)] += sec;
                    if (log_) log_->record(r, Phase::I_SelfGravity, sec);
                }
            }
        }

        if (rep.neighborOverflow > 0)
        {
            std::fprintf(stderr,
                         "sphexa: step %llu: %zu neighbor list(s) exceeded ngmax=%u "
                         "(truncated; raise ngmax or lower targetNeighbors)\n",
                         static_cast<unsigned long long>(stepId), rep.neighborOverflow,
                         cfg_.ngmax);
        }
        forcesValid_ = true;
        return rep;
    }

    /// Fill the whole-step phase totals from the per-rank entries and stamp
    /// each rank's traffic since the last resetTraffic().
    StepReport<T> withTotals(StepReport<T> rep) const
    {
        for (std::size_t r = 0; r < rep.ranks.size(); ++r)
        {
            const auto& rr = rep.ranks[r];
            for (int p = 0; p < phaseCount; ++p)
            {
                rep.phaseSeconds[p] += rr.phaseSeconds[p];
                rep.phaseLoad[p].merge(rr.phaseLoad[p]);
            }
            rep.ranks[r].traffic = comm_.traffic(int(r));
        }
        return rep;
    }

    simmpi::Communicator comm_; ///< first: it validates the rank count
    Box<T> box_;
    Eos<T> eos_;
    SimulationConfig<T> cfg_;
    Kernel<T> kernel_;
    LaneKernel<T> laneKernel_; ///< Simd-backend lane tables, built once
    GravitySolver<T> gravity_; ///< in-place phase I (P = 1)
    TimestepController<T> controller_;
    Propagator<T> pipeline_;
    std::vector<ParticleSet<T>> locals_; ///< per rank: owned particles (+ ghosts in a pass)
    std::vector<HaloMap> halos_;         ///< per rank: ghost bookkeeping (P > 1)
    std::vector<std::size_t> nLocal_;    ///< per rank: owned count
    std::vector<RankState> rank_;
    std::vector<std::size_t> lastWalkIndices_; ///< last force pass's walked set
    PhaseEventLog* log_{nullptr};

    T time_{0};
    std::uint64_t stepCount_{0};
    T maxVsignal_{0};
    T potentialEnergy_{0};
    bool forcesValid_{false};
};

/// The multi-rank driver's former name: Simulation at P = nRanks.
template<class T>
using DistributedSimulation = Simulation<T>;

} // namespace sphexa
