/// \file stepbench.cpp
/// Whole-step benchmark of the mini-app: the time to solution of three
/// workloads driven through the public drivers (Simulation,
/// DistributedSimulation), with correctness checks in every run and
/// per-layer spans from a separate traced run.
///
///   stepbench --workload <sedov-simd|evrard-binned|sedov-ranks4>
///             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
///
/// Each run repeats the workload (set-up, then a closed loop of advance()
/// calls to a fixed end) until --seconds have passed, on a 4-worker pool.
/// The seed jitters the lattice initial conditions. The last line of
/// standard output is one JSON object with the keys correct, attempted,
/// failed and metrics:
///  - --trace 0: time_to_solution_s, setup_s (medians over the repetitions)
///    and peak_rss_mb;
///  - --trace 1: the per-layer metrics. Shared-memory workloads run a copy
///    of PipelineFactory::singleRank in which every phase op is wrapped by
///    a span and counter recorder; the distributed workload reads its
///    public DistributedStepReport. The traced run also repeats the workload
///    on one worker (per-phase speedups, bitwise pool-invariance check) and
///    runs a self-test of the recorder on a tiny set.
/// stepbench/METRICS.md maps every metric to the layer it measures and the
/// workload it should move.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "domain/distributed.hpp"
#include "ic/evrard.hpp"
#include "ic/lattice.hpp"
#include "ic/sedov.hpp"
#include "perf/timer.hpp"

using namespace sphexa;

namespace {

using Real  = double;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kWorkers = 4;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Workload
{
    SedovSimd,
    EvrardBinned,
    SedovRanks4,
};

constexpr std::string_view workloadName(Workload w)
{
    switch (w)
    {
        case Workload::SedovSimd: return "sedov-simd";
        case Workload::EvrardBinned: return "evrard-binned";
        case Workload::SedovRanks4: return "sedov-ranks4";
    }
    return "?";
}

/// Fixed sizes and ends of the workloads.
constexpr std::size_t kSedovSide      = 50; ///< sedov-simd: 125,000 particles
constexpr std::size_t kSedovSteps     = 4;
constexpr std::size_t kEvrardSide     = 36; ///< evrard-binned: 24,464 particles
constexpr Real kEvrardEndTime         = 0.3;
constexpr std::size_t kEvrardMaxSteps = 400;
constexpr std::size_t kRanksSide      = 32; ///< sedov-ranks4: 32,768 particles
constexpr std::size_t kRanksSteps     = 8;
constexpr int kRanks                  = 4;
constexpr std::size_t kSelfTestSide   = 12; ///< self-test: 1,728 particles

/// Seeded jitter, as a fraction of the lattice spacing. Evrard's radial
/// stretch packs the centre tighter than the lattice, so it gets less.
constexpr Real kSedovJitter  = 0.05;
constexpr Real kEvrardJitter = 0.01;

/// Total-energy drift bars. Evrard takes the golden gallery's 1e-3,
/// measured at the closing full sync. The Sedov blast drifts ~2e-3 per step
/// at the default Courant factor (with or without jitter, on either
/// backend), so the Sedov workloads take the 2e-2 bar of the Sedov
/// integration test; sph.energy_drift reports the measured value.
constexpr Real kEvrardMaxDrift = 1e-3;
constexpr Real kSedovMaxDrift  = 2e-2;

struct Input
{
    ParticleSet<Real> ps;
    Box<Real> box;
    Eos<Real> eos;
};

Input sedovInput(std::size_t nSide, std::uint64_t seed)
{
    ParticleSet<Real> ps;
    SedovConfig<Real> sc;
    sc.nSide   = nSide;
    auto setup = makeSedov(ps, sc);
    jitterPositions(ps, setup.box, setup.spacing, kSedovJitter, seed);
    return {std::move(ps), setup.box, Eos<Real>(setup.eos)};
}

Input evrardInput(std::size_t nSide, std::uint64_t seed)
{
    ParticleSet<Real> ps;
    EvrardConfig<Real> ec;
    ec.nSide   = nSide;
    auto setup = makeEvrard(ps, ec);
    jitterPositions(ps, setup.box, Real(2) * ec.R / Real(nSide), kEvrardJitter, seed);
    return {std::move(ps), setup.box, Eos<Real>(setup.eos)};
}

SimulationConfig<Real> configFor(Workload w)
{
    SimulationConfig<Real> cfg;
    switch (w)
    {
        case Workload::SedovSimd: cfg.kernelBackend = KernelBackend::Simd; break;
        case Workload::EvrardBinned:
            // bench_timestepping's Individual-mode Evrard setup, on Simd
            cfg.kernelBackend       = KernelBackend::Simd;
            cfg.selfGravity         = true;
            cfg.gravity.G           = 1;
            cfg.gravity.theta       = 0.5;
            cfg.gravity.softening   = 0.02;
            cfg.targetNeighbors     = 80;
            cfg.neighborTolerance   = 10;
            cfg.timestep.mode       = TimesteppingMode::Individual;
            cfg.timestep.cflCourant = 0.25;
            cfg.timestep.initialDt  = 0.01;
            cfg.neighborMode        = NeighborMode::IndividualTreeWalk;
            break;
        case Workload::SedovRanks4: break; // Scalar backend, SFC decomposition
    }
    return cfg;
}

// ---------------------------------------------------------------------------
// Span and counter recorder
// ---------------------------------------------------------------------------

/// What one timed step did, per layer. Shared-memory steps fill it from the
/// op spans and counters; distributed steps from DistributedStepReport.
struct StepTrace
{
    double wall = 0; ///< the step span: one advance() call
    std::array<double, phaseCount> spanSeconds{}; ///< op spans (phases L, A..I)
    double timestepSeconds = 0; ///< phase J, timed by the driver, not an op
    std::array<PhaseLoadStats, phaseCount> load{};
    std::size_t active       = 0;
    std::size_t afterC       = 0; ///< list entries of the walked set after phase C
    std::size_t appended     = 0; ///< list entries phase D added
    std::size_t interactions = 0; ///< StepReport::neighborInteractions
    std::size_t clusterAccepted   = 0;
    std::size_t clusterCandidates = 0; ///< ClusterWorkspace::candidatesVisited
    std::size_t clusterTests      = 0; ///< member-candidate distance tests
    unsigned hIterations   = 0;
    std::size_t p2p        = 0;
    std::size_t m2p        = 0;
    // distributed workload only
    double decompose         = 0;
    double halo              = 0;
    std::size_t haloBytes    = 0;
    std::size_t haloMessages = 0;
    std::size_t ghosts       = 0;
    double rankBalance       = 0;

    double spanSum() const
    {
        double s = 0;
        for (double v : spanSeconds)
            s += v;
        return s;
    }
};

/// One recorded span: a root (set-up or step) or a phase op under it.
struct Span
{
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1; ///< index of the causing span, -1 for roots
    int rep    = 0;  ///< repetition (trace-event thread id)
};

const char* opSpanName(Phase p)
{
    switch (p)
    {
        case Phase::L_SfcSort: return "tree.sfc_sort";
        case Phase::A_TreeBuild: return "tree.build";
        case Phase::B_NeighborSearch: return "tree.search";
        case Phase::C_SmoothingLength: return "sph.smoothing_length";
        case Phase::D_NeighborSymmetrize: return "sph.symmetrize";
        case Phase::E_Density: return "sph.density";
        case Phase::F_EosAndIad: return "sph.eos_iad";
        case Phase::G_DivCurl: return "sph.divcurl";
        case Phase::H_MomentumEnergy: return "sph.momentum_energy";
        case Phase::I_SelfGravity: return "tree.gravity";
        default: return phaseName(p).data(); // a string literal
    }
}

/// Keeps every span and step record in memory; writeTraceEvents() dumps
/// the spans at the end of the run.
class Tracer
{
public:
    void setRep(int rep) { rep_ = rep; }

    void beginSetup() { openRoot("core.setup", false); }
    void endSetup() { spans_[root_].end = Clock::now(); }

    void beginStep() { openRoot("core.step", true); }

    /// Close the step span and file the step with the driver's report.
    void endStep(const StepReport<Real>& rep)
    {
        st_.timestepSeconds = rep.phaseSeconds[int(Phase::J_TimestepUpdate)];
        st_.load          = rep.phaseLoad;
        st_.interactions  = rep.neighborInteractions;
        st_.active        = rep.activeParticles;
        endStep(std::move(st_));
    }

    /// Close a step whose per-layer numbers are already filled in (the
    /// distributed workload's come from its report).
    void endStep(StepTrace st)
    {
        Span& s = spans_[root_];
        s.end   = Clock::now();
        st.wall = std::chrono::duration<double>(s.end - s.start).count();
        steps_.push_back(std::move(st));
        inStep_ = false;
    }

    /// Counters of the open step (a scratch record during set-up).
    StepTrace& current() { return inStep_ ? st_ : scratch_; }

    void opSpan(Phase p, Clock::time_point t0, Clock::time_point t1)
    {
        current().spanSeconds[int(p)] += std::chrono::duration<double>(t1 - t0).count();
        spans_.push_back({opSpanName(p), t0, t1, root_, rep_});
    }

    const std::vector<StepTrace>& steps() const { return steps_; }
    std::vector<StepTrace> takeSteps() { return std::exchange(steps_, {}); }

    /// Write the spans in the trace-event JSON format (one thread per
    /// repetition, parent span index in args).
    bool writeTraceEvents(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) return false;
        Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
        auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin).count();
        };
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (std::size_t k = 0; k < spans_.size(); ++k)
        {
            const Span& s = spans_[k];
            std::fprintf(f,
                         "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                         "\"parent\": %d}}%s\n",
                         s.name, s.rep, us(s.start), us(s.end) - us(s.start), k,
                         s.parent, k + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

private:
    void openRoot(const char* name, bool step)
    {
        root_ = int(spans_.size());
        Clock::time_point now = Clock::now();
        spans_.push_back({name, now, now, -1, rep_});
        st_      = StepTrace{};
        scratch_ = StepTrace{};
        inStep_  = step;
    }

    std::vector<Span> spans_;
    std::vector<StepTrace> steps_;
    StepTrace st_;
    StepTrace scratch_;
    int root_    = -1;
    int rep_     = 0;
    bool inStep_ = false;
};

/// List entries of \p subset (every particle when \p all), counted from the
/// per-particle counts, independently of NeighborList::totalNeighbors().
std::size_t listEntries(const NeighborList<Real>& nl, bool all,
                        std::span<const std::size_t> subset)
{
    std::size_t s = 0;
    if (all)
    {
        for (std::size_t i = 0; i < nl.size(); ++i)
            s += nl.count(i);
    }
    else
    {
        for (std::size_t i : subset)
            s += nl.count(i);
    }
    return s;
}

/// The shared-memory pipeline for \p cfg with every phase op wrapped by a
/// span and the counters of its layer.
Propagator<Real> tracedPipeline(const SimulationConfig<Real>& cfg, Tracer& tr)
{
    auto segments = PipelineFactory<Real>::singleRank(cfg).segments();
    for (auto& seg : segments)
    {
        for (auto& op : seg.ops)
        {
            op.run = [inner = std::move(op.run), phase = op.phase,
                      &tr](StepContext<Real>& ctx) {
                StepTrace& st      = tr.current();
                const bool global  = ctx.walkMode == WalkMode::Global;
                std::size_t before = 0;
                if (phase == Phase::D_NeighborSymmetrize)
                {
                    st.afterC += listEntries(ctx.nl, global, ctx.walkIndices);
                    before = listEntries(ctx.nl, true, {});
                }
                GravityStats g0 = ctx.gravityStats;

                auto t0 = Clock::now();
                inner(ctx);
                tr.opSpan(phase, t0, Clock::now());

                switch (phase)
                {
                    case Phase::B_NeighborSearch:
                        if (global && ctx.clusters &&
                            ctx.cfg.searchMode == NeighborSearchMode::ClusterList)
                        {
                            st.clusterCandidates += ctx.clusters->candidatesVisited;
                            // every member of a cluster tests every
                            // candidate of its cluster (full clusters)
                            st.clusterTests +=
                                ctx.clusters->candidatesVisited * ctx.cfg.clusterSize;
                            st.clusterAccepted += listEntries(ctx.nl, true, {});
                        }
                        break;
                    case Phase::C_SmoothingLength: st.hIterations += ctx.hIterations; break;
                    case Phase::D_NeighborSymmetrize:
                        st.appended += listEntries(ctx.nl, true, {}) - before;
                        break;
                    case Phase::I_SelfGravity:
                        st.p2p += ctx.gravityStats.p2pInteractions - g0.p2pInteractions;
                        st.m2p += ctx.gravityStats.m2pInteractions - g0.m2pInteractions;
                        break;
                    default: break;
                }
            };
        }
    }
    return Propagator<Real>(std::move(segments));
}

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

void checkFinite(const ParticleSet<Real>& ps, std::vector<std::string>& failures)
{
    const auto& names = ParticleSet<Real>::realFieldNames();
    auto fields       = ps.realFields();
    for (std::size_t f = 0; f < fields.size(); ++f)
    {
        for (Real v : *fields[f])
        {
            if (!std::isfinite(v))
            {
                failures.push_back("non-finite field " + names[f]);
                break;
            }
        }
    }
}

/// Relative total-energy drift, checked against \p bar.
Real checkDrift(Real e0, Real e1, Real bar, std::vector<std::string>& failures)
{
    Real drift = std::abs(e1 - e0) / std::abs(e0);
    if (!(drift < bar))
    {
        char buf[96];
        std::snprintf(buf, sizeof buf, "energy drift %.3e >= %.0e", drift, bar);
        failures.push_back(buf);
    }
    return drift;
}

/// Bitwise equality of two end states (every field, ids, bins, counts).
bool bitwiseEqual(const ParticleSet<Real>& a, const ParticleSet<Real>& b)
{
    if (a.size() != b.size()) return false;
    auto fa = a.realFields();
    auto fb = b.realFields();
    auto same = [](const auto& x, const auto& y) {
        return x.size() == y.size() &&
               (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
    };
    for (std::size_t f = 0; f < fa.size(); ++f)
    {
        if (!same(*fa[f], *fb[f])) return false;
    }
    return same(a.id, b.id) && same(a.bin, b.bin) && same(a.nc, b.nc);
}

// ---------------------------------------------------------------------------
// One repetition: set-up, timed advance() loop, checks
// ---------------------------------------------------------------------------

struct RepResult
{
    double setupSeconds = 0;
    double solveSeconds = 0;
    std::size_t steps   = 0;
    double energyDrift  = 0;
    std::vector<std::string> failures;
    ParticleSet<Real> endState; ///< kept for the pool-invariance check
};

/// Step counters that must agree with the driver's own report.
void checkStepTrace(const StepTrace& st, std::vector<std::string>& failures)
{
    if (st.spanSum() > st.wall)
    {
        failures.push_back("op spans exceed the step wall time");
    }
    if (st.afterC + st.appended != st.interactions)
    {
        failures.push_back("entries after C + appended != reported interactions");
    }
}

RepResult runShared(Workload w, std::size_t nSide, std::uint64_t seed, Tracer* tr,
                    bool keepState)
{
    RepResult res;
    Timer setup;
    if (tr) tr->beginSetup();
    Input in = w == Workload::EvrardBinned ? evrardInput(nSide, seed)
                                           : sedovInput(nSide, seed);
    auto cfg = configFor(w);
    Simulation<Real> sim(std::move(in.ps), in.box, std::move(in.eos), cfg);
    if (tr) sim.setPipeline(tracedPipeline(cfg, *tr));
    std::size_t overflow = sim.computeForces().neighborOverflow;
    if (tr) tr->endSetup();
    res.setupSeconds = setup.elapsed();

    Real e0 = sim.conservation().totalEnergy();
    auto done = [&] {
        if (w != Workload::EvrardBinned) return res.steps >= kSedovSteps;
        // Individual stepping closes at a full bin sync, where the energy
        // of the whole set is consistent
        return sim.time() >= kEvrardEndTime && sim.timestepController().atFullSync();
    };
    bool stalled = false;
    Timer solve;
    while (!done())
    {
        if (res.steps >= kEvrardMaxSteps)
        {
            stalled = true;
            break;
        }
        if (tr) tr->beginStep();
        auto rep = sim.advance();
        if (tr) tr->endStep(rep);
        overflow += rep.neighborOverflow;
        ++res.steps;
    }
    res.solveSeconds = solve.elapsed();

    if (stalled) res.failures.push_back("end time not reached");
    if (overflow) res.failures.push_back("neighbor-list overflow");
    checkFinite(sim.particles(), res.failures);
    res.energyDrift =
        checkDrift(e0, sim.conservation().totalEnergy(),
                   w == Workload::EvrardBinned ? kEvrardMaxDrift : kSedovMaxDrift,
                   res.failures);
    if (tr)
    {
        for (std::size_t k = tr->steps().size() - res.steps; k < tr->steps().size(); ++k)
            checkStepTrace(tr->steps()[k], res.failures);
    }
    if (keepState) res.endState = sim.particles();
    return res;
}

RepResult runRanks(std::uint64_t seed, Tracer* tr, bool keepState)
{
    RepResult res;
    Timer setup;
    if (tr) tr->beginSetup();
    Input in      = sedovInput(kRanksSide, seed);
    std::size_t n = in.ps.size();
    auto cfg      = configFor(Workload::SedovRanks4);
    DistributedSimulation<Real> sim(std::move(in.ps), in.box, std::move(in.eos), cfg, kRanks);
    if (tr) tr->endSetup();
    res.setupSeconds = setup.elapsed();

    Real e0 = sim.conservation().totalEnergy();
    Timer solve;
    for (; res.steps < kRanksSteps; ++res.steps)
    {
        if (tr) tr->beginStep();
        auto rep = sim.advance();
        if (!tr) continue;
        StepTrace st;
        for (const auto& r : rep.ranks)
        {
            for (int p = 0; p < phaseCount; ++p)
            {
                if (Phase(p) == Phase::J_TimestepUpdate)
                    st.timestepSeconds += r.phaseSeconds[p];
                else
                    st.spanSeconds[p] += r.phaseSeconds[p];
                const auto& l = r.phaseLoad[p];
                if (l.invocations)
                {
                    st.load[p].accumulate(l.workerBusySeconds, l.workerIterations, l.chunks,
                                          l.wallSeconds);
                }
            }
            st.decompose += r.decompositionSeconds;
            st.halo += r.haloSeconds;
            st.active += r.localParticles;
            st.ghosts += r.ghostParticles;
            st.interactions += r.neighborInteractions;
            st.haloBytes += r.traffic.bytesSent;
            st.haloMessages += r.traffic.messagesSent;
        }
        // per-rank walks are not symmetrized: the lists the sums read are
        // the lists phase C left
        st.afterC      = st.interactions;
        st.rankBalance = rep.loadBalance();
        tr->endStep(std::move(st));
        const StepTrace& last = tr->steps().back();
        if (last.spanSum() + last.decompose + last.halo > last.wall)
        {
            res.failures.push_back("reported phase times exceed the step wall time");
        }
    }
    res.solveSeconds = solve.elapsed();

    auto g = sim.gather();
    bool idsOk = g.size() == n;
    for (std::size_t k = 1; idsOk && k < g.size(); ++k)
        idsOk = g.id[k - 1] < g.id[k]; // gather() sorts by id
    if (!idsOk) res.failures.push_back("gathered set lacks N unique ids");
    // the per-rank lists are private: a full list (nc == ngmax) may have
    // been truncated, so it counts as overflow
    for (int c : g.nc)
    {
        if (c >= int(cfg.ngmax))
        {
            res.failures.push_back("neighbor-list overflow");
            break;
        }
    }
    checkFinite(g, res.failures);
    res.energyDrift = checkDrift(e0, computeConservation(g, Real(0)).totalEnergy(),
                                 kSedovMaxDrift, res.failures);
    if (keepState) res.endState = std::move(g);
    return res;
}

RepResult runRep(Workload w, std::uint64_t seed, Tracer* tr, bool keepState)
{
    switch (w)
    {
        case Workload::SedovSimd: return runShared(w, kSedovSide, seed, tr, keepState);
        case Workload::EvrardBinned: return runShared(w, kEvrardSide, seed, tr, keepState);
        case Workload::SedovRanks4: return runRanks(seed, tr, keepState);
    }
    return {};
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double median(std::vector<double> v)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t k = 0; k < metrics.size(); ++k)
    {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", k ? ", " : "",
                    metrics[k].name.c_str(), metrics[k].value, metrics[k].unit);
    }
    std::printf("}}\n");
}

void reportRep(const char* kind, std::size_t index, const RepResult& r)
{
    std::printf("rep %zu (%s): setup %.4f s, solve %.4f s, %zu steps%s\n", index, kind,
                r.setupSeconds, r.solveSeconds, r.steps, r.failures.empty() ? "" : ", FAILED");
    for (const auto& f : r.failures)
        std::fprintf(stderr, "stepbench: rep %zu: %s\n", index, f.c_str());
}

/// Phases with a parallel.<layer>.* metric, by metric layer name.
struct PhaseLayer
{
    Phase phase;
    const char* layer;
};

constexpr PhaseLayer kPhaseLayers[] = {
    {Phase::L_SfcSort, "sfc_sort"},
    {Phase::A_TreeBuild, "build"},
    {Phase::B_NeighborSearch, "search"},
    {Phase::C_SmoothingLength, "smoothing_length"},
    {Phase::D_NeighborSymmetrize, "symmetrize"},
    {Phase::E_Density, "density"},
    {Phase::F_EosAndIad, "eos_iad"},
    {Phase::G_DivCurl, "divcurl"},
    {Phase::H_MomentumEnergy, "momentum_energy"},
    {Phase::I_SelfGravity, "gravity"},
    {Phase::J_TimestepUpdate, "timestep"},
};

/// Per-step seconds of a phase: its op span, or the driver's own timing for
/// phase J, which runs outside the pipeline.
double phaseSeconds(const StepTrace& st, Phase p)
{
    return p == Phase::J_TimestepUpdate ? st.timestepSeconds : st.spanSeconds[int(p)];
}

std::vector<Metric> layerMetrics(const std::vector<StepTrace>& steps4,
                                 const std::vector<StepTrace>& steps1, double stepsPerRep,
                                 double energyDrift, double traceOverhead)
{
    double n = double(std::max<std::size_t>(steps4.size(), 1));
    auto mean = [&](auto f) {
        double s = 0;
        for (const auto& st : steps4)
            s += double(f(st));
        return s / n;
    };
    auto phaseMean = [](const std::vector<StepTrace>& steps, Phase p) {
        double s = 0;
        for (const auto& st : steps)
            s += phaseSeconds(st, p);
        return steps.empty() ? 0.0 : s / double(steps.size());
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    std::vector<Metric> m;
    auto spanMetric = [&](const char* name, Phase p) {
        m.push_back({name, phaseMean(steps4, p), "s"});
    };
    auto rateMetric = [&](const char* name, Phase p) {
        double pairs = mean([](const StepTrace& st) { return st.interactions; });
        m.push_back({name, ratio(pairs, phaseMean(steps4, p)), "1/s"});
    };

    spanMetric("sph.symmetrize.s", Phase::D_NeighborSymmetrize);
    m.push_back({"sph.symmetrize.appended",
                 mean([](const StepTrace& st) { return st.appended; }), "count"});
    spanMetric("tree.search.s", Phase::B_NeighborSearch);
    m.push_back({"tree.search.interactions",
                 mean([](const StepTrace& st) { return st.afterC; }), "count"});
    double candidates = mean([](const StepTrace& st) { return st.clusterCandidates; });
    m.push_back({"tree.search.candidates", candidates, "count"});
    m.push_back({"tree.search.accept_ratio",
                 ratio(mean([](const StepTrace& st) { return st.clusterAccepted; }),
                       mean([](const StepTrace& st) { return st.clusterTests; })),
                 "ratio"});
    spanMetric("sph.smoothing_length.s", Phase::C_SmoothingLength);
    m.push_back({"sph.smoothing_length.iterations",
                 mean([](const StepTrace& st) { return st.hIterations; }), "count"});
    spanMetric("sph.density.s", Phase::E_Density);
    rateMetric("sph.density.pairs_per_s", Phase::E_Density);
    spanMetric("sph.eos_iad.s", Phase::F_EosAndIad);
    rateMetric("sph.eos_iad.pairs_per_s", Phase::F_EosAndIad);
    spanMetric("sph.divcurl.s", Phase::G_DivCurl);
    rateMetric("sph.divcurl.pairs_per_s", Phase::G_DivCurl);
    spanMetric("sph.momentum_energy.s", Phase::H_MomentumEnergy);
    rateMetric("sph.momentum_energy.pairs_per_s", Phase::H_MomentumEnergy);
    spanMetric("tree.gravity.s", Phase::I_SelfGravity);
    m.push_back({"tree.gravity.p2p", mean([](const StepTrace& st) { return st.p2p; }),
                 "count"});
    m.push_back({"tree.gravity.m2p", mean([](const StepTrace& st) { return st.m2p; }),
                 "count"});
    spanMetric("tree.sfc_sort.s", Phase::L_SfcSort);
    spanMetric("tree.build.s", Phase::A_TreeBuild);
    m.push_back({"core.step.s", mean([](const StepTrace& st) { return st.wall; }), "s"});
    m.push_back({"core.driver.s", mean([](const StepTrace& st) {
                     return st.wall - st.spanSum() - st.decompose - st.halo;
                 }),
                 "s"});
    m.push_back({"core.active_particles",
                 mean([](const StepTrace& st) { return st.active; }), "count"});
    m.push_back({"core.steps", stepsPerRep, "count"});
    m.push_back({"domain.decompose.s", mean([](const StepTrace& st) { return st.decompose; }),
                 "s"});
    m.push_back({"domain.halo.s", mean([](const StepTrace& st) { return st.halo; }), "s"});
    m.push_back({"domain.halo.bytes", mean([](const StepTrace& st) { return st.haloBytes; }),
                 "bytes"});
    m.push_back({"domain.halo.messages",
                 mean([](const StepTrace& st) { return st.haloMessages; }), "count"});
    m.push_back({"domain.ghosts", mean([](const StepTrace& st) { return st.ghosts; }),
                 "count"});
    m.push_back({"domain.rank_balance",
                 mean([](const StepTrace& st) { return st.rankBalance; }), "ratio"});

    for (const auto& pl : kPhaseLayers)
    {
        // POP load balance of the phase's ParallelFor loops over all timed
        // steps; 0 when the phase ran none (serial or absent)
        PhaseLoadStats load;
        for (const auto& st : steps4)
        {
            const auto& l = st.load[int(pl.phase)];
            if (l.invocations)
            {
                load.accumulate(l.workerBusySeconds, l.workerIterations, l.chunks,
                                l.wallSeconds);
            }
        }
        m.push_back({std::string("parallel.") + pl.layer + ".load_balance",
                     load.invocations ? load.loadBalance() : 0.0, "ratio"});
    }
    for (const auto& pl : kPhaseLayers)
    {
        m.push_back({std::string("parallel.") + pl.layer + ".speedup",
                     ratio(phaseMean(steps1, pl.phase), phaseMean(steps4, pl.phase)),
                     "ratio"});
    }
    m.push_back({"sph.energy_drift", energyDrift, "ratio"});
    m.push_back({"trace.overhead", traceOverhead, "ratio"});
    return m;
}

/// The recorder's self-test on a tiny jittered Sedov set: one traced step
/// whose spans must fit in its wall time and whose list counters must
/// recount the driver's interaction total.
std::vector<std::string> selfTest(std::uint64_t seed)
{
    Tracer tr;
    RepResult r = runShared(Workload::SedovSimd, kSelfTestSide, seed, &tr, false);
    if (tr.steps().empty()) r.failures.push_back("self-test recorded no step");
    return r.failures;
}

// ---------------------------------------------------------------------------
// The two kinds of run
// ---------------------------------------------------------------------------

struct Options
{
    Workload workload = Workload::SedovSimd;
    std::uint64_t seed = 0;
    double seconds     = 0;
    bool trace         = false;
    std::string traceOut;
};

/// Hard cap on one run's wall time, below the 180 s a run may take.
constexpr double kRunCapSeconds = 150;
constexpr std::size_t kMinReps  = 3;

/// Whether another repetition fits: until the budget is spent (and at
/// least \p minReps ran), and never past the hard cap.
bool anotherRep(const Timer& run, double budget, std::size_t reps, std::size_t minReps,
                double lastRep)
{
    double t = run.elapsed();
    if (t + lastRep > kRunCapSeconds) return false;
    return t < budget || reps < minReps;
}

int runEndToEnd(const Options& opt)
{
    Timer run;
    std::vector<double> setup, solve;
    std::size_t failed = 0;
    double lastRep     = 0;
    while (anotherRep(run, opt.seconds, setup.size(), kMinReps, lastRep))
    {
        Timer rep;
        RepResult r = runRep(opt.workload, opt.seed, nullptr, false);
        lastRep     = rep.elapsed();
        reportRep("untraced", setup.size(), r);
        setup.push_back(r.setupSeconds);
        solve.push_back(r.solveSeconds);
        if (!r.failures.empty()) ++failed;
    }
    printResult(failed == 0, setup.size(), failed,
                {{"time_to_solution_s", median(solve), "s"},
                 {"setup_s", median(setup), "s"},
                 {"peak_rss_mb", peakRssMb(), "MB"}});
    return 0;
}

int runTraced(const Options& opt)
{
    Timer run;
    std::size_t attempted = 1, failed = 0;
    for (const auto& f : selfTest(opt.seed))
    {
        std::fprintf(stderr, "stepbench: self-test: %s\n", f.c_str());
        failed = 1;
    }

    // 4 workers: untraced and traced repetitions alternate, so the trace
    // overhead compares runs made under the same conditions
    Tracer tr;
    std::vector<double> plain, traced, drift;
    std::vector<StepTrace> steps4;
    ParticleSet<Real> state4;
    double lastPair = 0;
    int rep         = 0;
    while (anotherRep(run, opt.seconds, traced.size(), 1, 2 * lastPair))
    {
        Timer pair;
        RepResult u = runRep(opt.workload, opt.seed, nullptr, false);
        reportRep("untraced", attempted++, u);
        tr.setRep(rep++);
        RepResult t = runRep(opt.workload, opt.seed, &tr, traced.empty());
        reportRep("traced", attempted++, t);
        lastPair = pair.elapsed();
        failed += !u.failures.empty() + !t.failures.empty();
        plain.push_back(u.solveSeconds);
        traced.push_back(t.solveSeconds);
        drift.push_back(t.energyDrift);
        if (state4.empty()) state4 = std::move(t.endState);
        auto s = tr.takeSteps();
        steps4.insert(steps4.end(), s.begin(), s.end());
    }

    // 1 worker: per-phase speedups and the pool-invariance contract
    WorkerPool::instance().resize(1);
    tr.setRep(rep++);
    RepResult one = runRep(opt.workload, opt.seed, &tr, true);
    WorkerPool::instance().resize(kWorkers);
    reportRep("traced, 1 worker", attempted++, one);
    failed += !one.failures.empty();
    std::vector<StepTrace> steps1 = tr.takeSteps();
    ++attempted;
    if (!bitwiseEqual(state4, one.endState))
    {
        std::fprintf(stderr, "stepbench: 1-worker and 4-worker end states differ\n");
        ++failed;
    }

    if (!opt.traceOut.empty() && !tr.writeTraceEvents(opt.traceOut))
    {
        std::fprintf(stderr, "stepbench: cannot write %s\n", opt.traceOut.c_str());
    }

    double stepsPerRep = double(steps4.size()) / double(traced.size());
    auto metrics = layerMetrics(steps4, steps1, stepsPerRep, median(drift),
                                median(traced) / median(plain));
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

[[noreturn]] void usage(const char* msg)
{
    std::fprintf(stderr,
                 "stepbench: %s\n"
                 "usage: stepbench --workload <sedov-simd|evrard-binned|sedov-ranks4> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 msg);
    std::exit(2);
}

Options parseArgs(int argc, char** argv)
{
    Options opt;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int k = 1; k < argc; ++k)
    {
        std::string_view a = argv[k];
        if (k + 1 >= argc) usage("missing value");
        const char* v = argv[++k];
        char* end     = nullptr;
        if (a == "--workload")
        {
            haveWorkload = true;
            std::string_view name = v;
            if (name == workloadName(Workload::SedovSimd)) opt.workload = Workload::SedovSimd;
            else if (name == workloadName(Workload::EvrardBinned))
                opt.workload = Workload::EvrardBinned;
            else if (name == workloadName(Workload::SedovRanks4))
                opt.workload = Workload::SedovRanks4;
            else usage("unknown workload");
        }
        else if (a == "--seed")
        {
            haveSeed = true;
            opt.seed = std::strtoull(v, &end, 10);
            if (*end) usage("bad seed");
        }
        else if (a == "--seconds")
        {
            haveSeconds = true;
            opt.seconds = std::strtod(v, &end);
            if (*end || !(opt.seconds > 0)) usage("bad seconds");
        }
        else if (a == "--trace")
        {
            haveTrace = true;
            if (std::string_view(v) != "0" && std::string_view(v) != "1") usage("bad trace");
            opt.trace = std::string_view(v) == "1";
        }
        else if (a == "--trace-out") { opt.traceOut = v; }
        else { usage("unknown argument"); }
    }
    if (!(haveWorkload && haveSeed && haveSeconds && haveTrace)) usage("missing argument");
    return opt;
}

} // namespace

int main(int argc, char** argv)
{
    Options opt = parseArgs(argc, argv);
    WorkerPool::instance().resize(kWorkers);
    std::printf("stepbench: workload=%s seed=%llu seconds=%g trace=%d workers=%zu\n",
                std::string(workloadName(opt.workload)).c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, int(opt.trace),
                kWorkers);
    return opt.trace ? runTraced(opt) : runEndToEnd(opt);
}
