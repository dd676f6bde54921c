/// Tests of the phase-pipeline ("Propagator") layer: the one op list
/// against the Fig. 4 A..J sequence, self-gating gravity, the halo-sync
/// segment boundaries, runner-emitted timing accounting, custom pipelines,
/// and the guarantee the shared phase units give every rank count — a
/// global walk and a per-rank walk over all indices producing
/// bitwise-identical particle state.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>

#include "core/propagator.hpp"
#include "core/simulation.hpp"
#include "ic/square_patch.hpp"

using namespace sphexa;

namespace {

struct PatchSetup
{
    ParticleSetD ps;
    SquarePatchSetup<double> setup;
};

PatchSetup makePatch(std::size_t nxy = 12, std::size_t nz = 6)
{
    ParticleSetD ps;
    SquarePatchConfig<double> pc;
    pc.nx = pc.ny = nxy;
    pc.nz = nz;
    auto setup = makeSquarePatch(ps, pc);
    return {std::move(ps), setup};
}

SimulationConfig<double> patchConfig()
{
    SimulationConfig<double> cfg;
    cfg.targetNeighbors   = 50;
    cfg.neighborTolerance = 10;
    return cfg;
}

} // namespace

// --- pipeline assembly -------------------------------------------------------------

TEST(PipelineFactory, PhaseOrderMatchesFig4Sequence)
{
    // the one force pipeline: exactly A..I in Fig. 4 order, preceded by the
    // L sfc-sort op and bracketed by the K ghost ops (each a no-op unless
    // the config asks for it), with the body force in phase H's slot;
    // phase J brackets the pipeline in the driver's kick-drift-kick
    auto phases = PipelineFactory<double>::singleRank(SimulationConfig<double>{}).phases();
    const std::vector<Phase> expected{
        Phase::L_SfcSort,        Phase::K_GhostExchange,      Phase::A_TreeBuild,
        Phase::B_NeighborSearch, Phase::C_SmoothingLength,    Phase::D_NeighborSymmetrize,
        Phase::E_Density,        Phase::F_EosAndIad,          Phase::G_DivCurl,
        Phase::H_MomentumEnergy, Phase::H_MomentumEnergy,     Phase::I_SelfGravity,
        Phase::K_GhostExchange};
    ASSERT_EQ(phases.size(), expected.size());
    for (std::size_t k = 0; k < phases.size(); ++k)
    {
        EXPECT_EQ(phases[k], expected[k]) << "op " << k << ": " << phaseName(phases[k]);
    }
}

TEST(PipelineFactory, GravityPhaseSkippedWithoutSelfGravity)
{
    // phase I gates itself on the config: without self-gravity the op runs
    // but evaluates nothing
    for (bool gravity : {false, true})
    {
        auto patch = makePatch(8, 4);
        auto cfg   = patchConfig();
        cfg.selfGravity = gravity;
        Simulation<double> sim(std::move(patch.ps), patch.setup.box,
                               Eos<double>(patch.setup.eos), cfg);
        auto rep = sim.computeForces();
        EXPECT_EQ(rep.gravityStats.p2pInteractions > 0, gravity);
        EXPECT_EQ(sim.conservation().potentialEnergy != 0.0, gravity);
    }
}

TEST(PipelineFactory, DistributedSegmentsCoverAtoHWithHaloSyncs)
{
    auto pipeline = PipelineFactory<double>::singleRank(SimulationConfig<double>{});

    // density | EOS + IAD | div/curl | momentum..: a P > 1 run refreshes
    // the ghost fields the next segment reads at every boundary but the last
    const auto& segs = pipeline.segments();
    ASSERT_EQ(segs.size(), 4u);
    EXPECT_EQ(segs[0].ops.back().phase, Phase::E_Density);
    EXPECT_EQ(segs[1].ops.front().phase, Phase::F_EosAndIad);
    EXPECT_EQ(segs[2].ops.front().phase, Phase::G_DivCurl);
    EXPECT_EQ(segs[3].ops.front().phase, Phase::H_MomentumEnergy);
    for (std::size_t k = 0; k + 1 < segs.size(); ++k)
    {
        EXPECT_FALSE(segs[k].haloFieldsAfter.empty()) << "segment " << k;
    }
    EXPECT_TRUE(segs.back().haloFieldsAfter.empty());
}

// --- runner accounting -------------------------------------------------------------

TEST(Propagator, RunnerEmitsPhaseEventsThatSumToReport)
{
    auto patch = makePatch();
    Simulation<double> sim(std::move(patch.ps), patch.setup.box,
                           Eos<double>(patch.setup.eos), patchConfig());
    PhaseEventLog log;
    sim.attachPhaseLog(&log);

    sim.computeForces();
    log.clear();
    auto rep = sim.advance();

    // one event per executed phase (A..H from the force pass, plus J) —
    // and the runner's events carry exactly the seconds of the report
    ASSERT_FALSE(log.events().empty());
    EXPECT_NEAR(log.totalSeconds(), rep.totalSeconds(), 1e-12);

    auto byRank = log.phaseSecondsByRank(1);
    ASSERT_EQ(byRank.size(), 1u);
    for (int p = 0; p < phaseCount; ++p)
    {
        EXPECT_NEAR(byRank[0][p], rep.phaseSeconds[p], 1e-12) << phaseName(Phase(p));
    }
    // per-phase seconds sum to the report total by construction of the runner
    double sum = 0;
    for (double s : rep.phaseSeconds)
        sum += s;
    EXPECT_DOUBLE_EQ(sum, rep.totalSeconds());
}

TEST(Propagator, FirstAdvanceLogsOnlyTheReportedForcePass)
{
    auto patch = makePatch();
    Simulation<double> sim(std::move(patch.ps), patch.setup.box,
                           Eos<double>(patch.setup.eos), patchConfig());
    PhaseEventLog log;
    sim.attachPhaseLog(&log);

    // no prior computeForces(): advance() seeds forces internally; that
    // discarded pass must not leak into the log
    auto rep = sim.advance();
    EXPECT_NEAR(log.totalSeconds(), rep.totalSeconds(), 1e-12);
    auto byRank = log.phaseSecondsByRank(1);
    for (int p = 0; p < phaseCount; ++p)
    {
        EXPECT_NEAR(byRank[0][p], rep.phaseSeconds[p], 1e-12) << phaseName(Phase(p));
    }
    // events join with the report they describe by step id
    for (const auto& e : log.events())
    {
        EXPECT_EQ(e.step, rep.step) << phaseName(e.phase);
    }
}

TEST(Propagator, CustomPipelineRunsSelectedPhasesOnly)
{
    auto patch = makePatch();
    Simulation<double> sim(std::move(patch.ps), patch.setup.box,
                           Eos<double>(patch.setup.eos), patchConfig());

    // a bespoke density-only pipeline: tree, neighbors, h, symmetrize, density
    sim.setPipeline(PipelineFactory<double>::custom(
        {phase_ops::treeBuild<double>(), phase_ops::neighborSearch<double>(),
         phase_ops::smoothingLength<double>(), phase_ops::neighborSymmetrize<double>(),
         phase_ops::density<double>()}));

    auto rep = sim.computeForces();
    EXPECT_GT(rep.phaseSeconds[int(Phase::E_Density)], 0.0);
    EXPECT_EQ(rep.phaseSeconds[int(Phase::H_MomentumEnergy)], 0.0);
    EXPECT_GT(rep.neighborInteractions, 0u);
    for (double rho : sim.particles().rho)
    {
        EXPECT_TRUE(std::isfinite(rho));
        EXPECT_GT(rho, 0.0);
    }
}

TEST(Propagator, ComputeForcesReportsTimeAndDt)
{
    auto patch = makePatch();
    Simulation<double> sim(std::move(patch.ps), patch.setup.box,
                           Eos<double>(patch.setup.eos), patchConfig());

    // standalone force evaluation before any step: time 0, dt 0 (no step yet)
    auto rep0 = sim.computeForces();
    EXPECT_EQ(rep0.time, 0.0);
    EXPECT_EQ(rep0.dt, 0.0);

    auto stepRep = sim.advance();
    // a standalone recomputation now reports the current simulated time and
    // the last step size actually used (satellite: benches calling
    // computeForces directly get consistent rows)
    auto rep1 = sim.computeForces();
    EXPECT_DOUBLE_EQ(rep1.time, stepRep.time);
    EXPECT_DOUBLE_EQ(rep1.dt, stepRep.dt);
    EXPECT_GT(rep1.dt, 0.0);
}

// --- walk-mode equivalence through the shared phase units ------------------------

TEST(Propagator, GlobalAndAllIndicesLocalWalksAreBitwiseIdentical)
{
    // P = 1 walks globally; a rank of a P > 1 run walks its owned indices.
    // Over the same patch with every index owned, the one pipeline must
    // produce bitwise-identical fields either way: the phase units, not the
    // walk mode, decide the summation order.
    auto patch = makePatch();
    SimulationConfig<double> cfg = patchConfig();
    cfg.symmetrizeNeighbors = false; // per-rank walks do not symmetrize
    // per-particle walks in the seed layout: phase L and the cluster search
    // run on Global walks only
    cfg.searchMode = NeighborSearchMode::TreeWalk;
    cfg.sfcReorder = false;
    const Eos<double> eos(patch.setup.eos);
    const Kernel<double> kernel(cfg.kernel, cfg.sincExponent);
    const auto pipeline = PipelineFactory<double>::singleRank(cfg);

    auto runPasses = [&](WalkMode mode) {
        ParticleSetD ps = patch.ps;
        Octree<double> tree;
        NeighborList<double> nl(ps.size(), cfg.ngmax);
        // two passes: the second starts from the h the first converged
        for (int pass = 0; pass < 2; ++pass)
        {
            StepContext<double> ctx{ps, patch.setup.box, cfg, kernel, eos, tree, nl};
            ctx.walkMode = mode;
            if (mode == WalkMode::LocalIndices)
            {
                ctx.walkIndices.resize(ps.size());
                std::iota(ctx.walkIndices.begin(), ctx.walkIndices.end(), std::size_t(0));
            }
            std::array<double, phaseCount> seconds{};
            for (std::size_t s = 0; s < pipeline.segments().size(); ++s)
                pipeline.runSegment(s, ctx, seconds);
        }
        return ps;
    };

    auto global = runPasses(WalkMode::Global);
    auto local  = runPasses(WalkMode::LocalIndices);
    ASSERT_EQ(global.size(), local.size());
    ASSERT_EQ(global.id, local.id);
    ASSERT_EQ(global.nc, local.nc);
    auto gf = global.realFields();
    auto lf = local.realFields();
    const auto& names = ParticleSetD::realFieldNames();
    for (std::size_t f = 0; f < gf.size(); ++f)
    {
        for (std::size_t i = 0; i < gf[f]->size(); ++i)
        {
            ASSERT_EQ((*gf[f])[i], (*lf[f])[i]) << names[f] << "[" << i << "]";
        }
    }
}

TEST(Propagator, DistributedPhaseLogCoversAllRanks)
{
    auto patch = makePatch();
    SimulationConfig<double> cfg = patchConfig();

    Simulation<double> dist(patch.ps, patch.setup.box, Eos<double>(patch.setup.eos), cfg,
                            3);
    PhaseEventLog log;
    dist.attachPhaseLog(&log);
    auto rep = dist.advance();

    auto byRank = log.phaseSecondsByRank(3);
    for (int r = 0; r < 3; ++r)
    {
        for (int p = 0; p < phaseCount; ++p)
        {
            EXPECT_NEAR(byRank[r][p], rep.ranks[r].phaseSeconds[p], 1e-12)
                << "rank " << r << " " << phaseName(Phase(p));
        }
    }
}
