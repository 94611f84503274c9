// Single-node sweep workloads: node_sweep (the paper's governor x app x
// cap grid) and tenant_slo (open-loop tenant traffic under a cap).
//
// Cells are dealt into fixed slices that run on a kThreads-wide
// SweepRunner pool. The first passSlices slices are the deterministic
// pass: their outputs are digested and scored. After the pass the run
// keeps executing slices, round robin, until the time budget is spent;
// a slice that repeats a pass slice must reproduce its digest.
//
// Untraced cells go through harness::runExperiment. Traced cells are
// assembled by hand from the same public parts in runExperiment's order,
// with every actor wrapped in a forwarding TimedActor and Platform::run
// stepped in 1 s slices; the traced pass digest must equal the untraced
// one, which is what shows the traced run simulates the same program.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "load/load_driver.h"
#include "load/traffic.h"
#include "machine/config.h"
#include "rapl/rapl.h"
#include "sim/platform.h"
#include "telemetry/settling.h"
#include "workload/catalog.h"
#include "workload/mixes.h"

namespace pupil::benchmark {
namespace {

using harness::ExperimentOptions;
using harness::ExperimentResult;
using harness::GovernorKind;

struct Cell
{
    GovernorKind kind = GovernorKind::kRapl;
    std::vector<sched::AppDemand> apps;
    ExperimentOptions options;
};

struct NodeWorkload
{
    std::vector<Cell> cells;
    /** Cell indices of each slice, in execution order. */
    std::vector<std::vector<size_t>> slices;
    size_t passSlices = 0;
};

/**
 * Deal cells into @p sliceCount slices through a fixed shuffle, so every
 * slice samples the whole grid and the slices do not depend on the run
 * seed (slice times stay comparable across seeds). @p scale keeps the
 * first share of each slice.
 */
void
dealSlices(NodeWorkload& w, size_t sliceCount, size_t passSlices,
           double scale)
{
    std::vector<size_t> order(w.cells.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
        const size_t j = size_t(uniformAt(0x511CE, i) * double(i));
        std::swap(order[i - 1], order[j]);
    }
    const size_t perSlice = order.size() / sliceCount;
    const size_t keep = std::max<size_t>(
        2, size_t(std::lround(double(perSlice) * scale)));
    for (size_t s = 0; s < sliceCount; ++s) {
        w.slices.emplace_back(order.begin() + long(s * perSlice),
                              order.begin() + long(s * perSlice + keep));
    }
    w.passSlices = std::max<size_t>(
        1, size_t(std::lround(double(passSlices) * scale)));
}

/** Seeds are derived per global cell index, so a cell's inputs do not
 *  depend on which slice or thread runs it. */
void
seedCells(NodeWorkload& w, uint64_t seed)
{
    for (size_t i = 0; i < w.cells.size(); ++i)
        w.cells[i].options.seed = harness::SweepRunner::deriveSeed(seed, i);
}

/** 5 governors x (20 apps x 5 caps + 12 mixes x 2 scenarios x 5 caps). */
NodeWorkload
makeNodeSweep(const RunOptions& run)
{
    static const double kCaps[] = {60, 100, 140, 180, 220};
    NodeWorkload w;
    const auto addCell = [&w](GovernorKind kind,
                              std::vector<sched::AppDemand> apps,
                              double cap) {
        Cell cell;
        cell.kind = kind;
        cell.apps = std::move(apps);
        cell.options.capWatts = cap;
        cell.options.durationSec = 90.0;
        cell.options.statsWindowSec = 40.0;
        w.cells.push_back(std::move(cell));
    };
    for (const GovernorKind kind : harness::allGovernors()) {
        for (const auto& app : workload::benchmarkCatalog())
            for (const double cap : kCaps)
                addCell(kind, harness::singleApp(app.name), cap);
        for (const auto& mix : workload::multiAppMixes())
            for (const auto scenario : {workload::Scenario::kCooperative,
                                        workload::Scenario::kOblivious})
                for (const double cap : kCaps)
                    addCell(kind, harness::mixApps(mix, scenario), cap);
    }
    seedCells(w, run.seed);
    dealSlices(w, 20, 8, run.scale);
    return w;
}

/** {RAPL, Soft-DVFS, PUPiL} x 3 arrival shapes x 4 caps x 3 rates x 2. */
NodeWorkload
makeTenantSlo(const RunOptions& run)
{
    static const double kCaps[] = {40, 50, 60, 80};
    static const double kRates[] = {0.4, 0.8, 1.2};
    NodeWorkload w;
    for (const GovernorKind kind :
         {GovernorKind::kRapl, GovernorKind::kSoftDvfs, GovernorKind::kPupil})
        for (const load::ArrivalKind shape : load::allArrivalKinds())
            for (const double cap : kCaps)
                for (const double rate : kRates)
                    for (int replica = 0; replica < 2; ++replica) {
                        Cell cell;
                        cell.kind = kind;
                        cell.options.capWatts = cap;
                        cell.options.durationSec = 150.0;
                        cell.options.statsWindowSec = 60.0;
                        cell.options.load.enabled = true;
                        cell.options.load.spec.kind = shape;
                        cell.options.load.spec.ratePerSec = rate;
                        w.cells.push_back(std::move(cell));
                    }
    seedCells(w, run.seed);
    dealSlices(w, 12, 6, run.scale);
    return w;
}

// ----- per-cell outputs ---------------------------------------------------

uint64_t
cellDigest(const ExperimentResult& r)
{
    Digest d;
    d.mixDouble(r.aggregatePerf);
    for (const double rate : r.appItemsPerSec)
        d.mixDouble(rate);
    d.mixDouble(r.meanPowerWatts);
    d.mixDouble(r.perfPerJoule);
    d.mixDouble(r.settlingTimeSec);
    d.mixDouble(r.capViolationSec);
    d.mixDouble(r.gips);
    d.mixDouble(r.bandwidthGBs);
    d.mixDouble(r.spinPercent);
    d.mix((r.capFeasible ? 1u : 0u) | (r.converged ? 2u : 0u));
    d.mixDouble(r.durationSec);
    d.mixDouble(r.degradedSec);
    d.mix(r.faultsInjected);
    d.mix(r.faultsDetected);
    d.mix(r.jobsArrived);
    d.mix(r.jobsCompleted);
    d.mix(r.jobsDropped);
    d.mix(r.sloViolations);
    d.mixDouble(r.p99LatencySec);
    d.mixDouble(r.sloViolationRate);
    for (const auto& point : r.powerTrace) {
        d.mixDouble(point.timeSec);
        d.mixDouble(point.value);
    }
    for (const auto& point : r.perfTrace) {
        d.mixDouble(point.timeSec);
        d.mixDouble(point.value);
    }
    return d.value();
}

/** Physical plausibility of one cell's outputs; empty when sane. */
std::string
checkCell(const Cell& cell, const ExperimentResult& r)
{
    if (!std::isfinite(r.aggregatePerf) || r.aggregatePerf < 0.0)
        return "non-finite or negative performance";
    if (!(r.meanPowerWatts > 0.0) || !std::isfinite(r.meanPowerWatts))
        return "non-positive mean power";
    if (r.durationSec != cell.options.durationSec)
        return "simulated duration differs from the requested one";
    if (r.capViolationSec < 0.0 || r.capViolationSec > r.durationSec + 1e-9)
        return "cap violation outside [0, duration]";
    if (r.jobsCompleted + r.jobsDropped > r.jobsArrived)
        return "more jobs finished than arrived";
    if (r.sloViolationRate < 0.0 || r.sloViolationRate > 1.0)
        return "SLO violation rate outside [0, 1]";
    return {};
}

/** Deterministic fidelity outputs of the pass. */
struct PassScore
{
    std::vector<double> perf;
    std::vector<double> itemRates;
    std::vector<double> settle;
    std::vector<double> sloRates;
    double violationSec = 0.0;
    double durationSec = 0.0;

    void add(const ExperimentResult& r)
    {
        perf.push_back(r.aggregatePerf);
        double items = 0.0;
        for (const double rate : r.appItemsPerSec)
            items += rate;
        itemRates.push_back(items);
        settle.push_back(r.settlingTimeSec);
        sloRates.push_back(r.sloViolationRate);
        violationSec += r.capViolationSec;
        durationSec += r.durationSec;
    }

    void report(WorkloadResult& out, bool tenant) const
    {
        // The pass always holds at least one cell, so no count is zero.
        double perfSum = 0.0;
        for (const double p : perf)
            perfSum += p;
        out.add("perf_per_node", perfSum / double(perf.size()));
        out.add("cap_violation_pct", 100.0 * violationSec / durationSec);
        if (tenant) {
            double sum = 0.0;
            for (const double rate : sloRates)
                sum += rate;
            out.add("slo_violation_pct",
                    100.0 * sum / double(sloRates.size()));
            return;
        }
        double logSum = 0.0;
        for (const double items : itemRates)
            logSum += std::log(std::max(items, 1e-12));
        out.add("perf_geomean", std::exp(logSum / double(itemRates.size())));
        out.addMedian("settle_s_p50", settle);
    }
};

harness::SweepRunner
makePool()
{
    harness::SweepRunner::Options options;
    options.threads = kThreads;
    options.deriveSeeds = false;
    options.progress = [](const harness::SweepProgress&) {};
    return harness::SweepRunner(options);
}

// ----- untraced slices ----------------------------------------------------

struct SliceRun
{
    double wallSec = 0.0;
    double simSec = 0.0;
    std::vector<double> cellMsPerSimSec;
    std::vector<uint64_t> cellHashes;
    std::vector<ExperimentResult> results;
    uint64_t failed = 0;
};

/** Run one slice through runExperiment, timing the slice and each cell. */
SliceRun
runSlice(harness::SweepRunner& pool, const NodeWorkload& w, size_t slice,
         WorkloadResult& out)
{
    const std::vector<size_t>& ids = w.slices[slice];
    SliceRun run;
    run.results.resize(ids.size());
    std::vector<double> cellSec(ids.size(), 0.0);
    const int64_t start = nowNs();
    const std::vector<std::string> errors =
        pool.forEach(ids.size(), [&](size_t i) {
            const Cell& cell = w.cells[ids[i]];
            const int64_t cellStart = nowNs();
            run.results[i] =
                harness::runExperiment(cell.kind, cell.apps, cell.options);
            cellSec[i] = secondsSince(cellStart);
        });
    run.wallSec = secondsSince(start);
    for (size_t i = 0; i < ids.size(); ++i) {
        const Cell& cell = w.cells[ids[i]];
        const std::string problem =
            errors[i].empty() ? checkCell(cell, run.results[i]) : errors[i];
        if (!problem.empty()) {
            ++run.failed;
            out.fail("cell " + std::to_string(ids[i]) + ": " + problem);
        }
        run.simSec += cell.options.durationSec;
        run.cellMsPerSimSec.push_back(1e3 * cellSec[i] /
                                      cell.options.durationSec);
        run.cellHashes.push_back(cellDigest(run.results[i]));
    }
    return run;
}

uint64_t
sliceDigest(const SliceRun& run)
{
    Digest d;
    for (const uint64_t h : run.cellHashes)
        d.mix(h);
    return d.value();
}

// ----- traced cells -------------------------------------------------------

enum Layer { kRaplLayer, kGovernorLayer, kLoadLayer, kLayerCount };

/** Fixed per-cell accumulators: no lookups or allocation while ticking. */
struct CellTrace
{
    int64_t layerNs[kLayerCount] = {};
    uint64_t layerCalls[kLayerCount] = {};
    int64_t platformNs = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    int64_t startNs = 0;
    int64_t durNs = 0;
    uint32_t lane = 0;
    std::vector<Span> steps;
};

/** Forwards every Actor call, timing onTick into a fixed slot. */
class TimedActor final : public sim::Actor
{
  public:
    TimedActor(sim::Actor& inner, int64_t& ns, uint64_t& calls)
        : inner_(inner), ns_(ns), calls_(calls)
    {
    }
    void onStart(sim::Platform& platform) override
    {
        inner_.onStart(platform);
    }
    void onTick(sim::Platform& platform, double now) override
    {
        const int64_t start = nowNs();
        inner_.onTick(platform, now);
        ns_ += nowNs() - start;
        ++calls_;
    }
    double periodSec() const override { return inner_.periodSec(); }

  private:
    sim::Actor& inner_;
    int64_t& ns_;
    uint64_t& calls_;
};

const char* const kLayerArg[kLayerCount] = {"rapl_us", "governor_us",
                                            "load_us"};

/** Advance @p platform to @p until in 1 s steps, one span per step. */
void
runSteps(sim::Platform& platform, double until, CellTrace& trace)
{
    while (platform.now() < until - 1e-9) {
        const double target =
            std::min(until, std::floor(platform.now() + 1e-9) + 1.0);
        int64_t before[kLayerCount];
        std::copy(std::begin(trace.layerNs), std::end(trace.layerNs), before);
        Span span;
        span.name = "sim.step";
        span.lane = trace.lane;
        span.startNs = nowNs();
        platform.run(target);
        span.durNs = nowNs() - span.startNs;
        trace.platformNs += span.durNs;
        for (int l = 0; l < kLayerCount; ++l) {
            span.argName[l] = kLayerArg[l];
            span.argValue[l] = double(trace.layerNs[l] - before[l]) * 1e-3;
        }
        if (trace.steps.size() < trace.steps.capacity())
            trace.steps.push_back(span);
    }
}

/**
 * runExperiment, assembled by hand in the same order with the same seed
 * derivations, actors wrapped in TimedActors. The result fields are
 * computed exactly as runExperiment computes them.
 */
ExperimentResult
runTracedCell(const Cell& cell, CellTrace& trace)
{
    const ExperimentOptions& options = cell.options;
    trace.steps.reserve(size_t(options.durationSec) + 2);
    trace.startNs = nowNs();

    sim::PlatformOptions platformOptions = options.platform;
    platformOptions.seed = options.seed;
    std::vector<sched::AppDemand> demand = cell.apps;
    const size_t firstLoadSlot = demand.size();
    if (options.load.enabled) {
        for (size_t s = 0; s < std::max<size_t>(options.load.slots, 1); ++s)
            demand.push_back({&workload::calibrationApp(), 0});
    }
    sim::Platform platform(platformOptions, std::move(demand));
    platform.warmStart(machine::maximalConfig());
    platform.mutableCounters().reset();
    platform.mutableCounters().resetFaults();
    platform.metrics().reset();

    rapl::RaplController rapl;
    core::StrategyOptions strategy = options.strategy;
    if (strategy.seed == 0)
        strategy.seed = harness::SweepRunner::deriveSeed(options.seed, 0x5EED);
    std::unique_ptr<capping::Governor> governor =
        harness::makeGovernor(cell.kind, options.pupilPolicy, strategy);
    governor->attachRapl(&rapl);
    governor->setCap(options.capWatts);
    TimedActor timedRapl(rapl, trace.layerNs[kRaplLayer],
                         trace.layerCalls[kRaplLayer]);
    TimedActor timedGovernor(*governor, trace.layerNs[kGovernorLayer],
                             trace.layerCalls[kGovernorLayer]);
    platform.addActor(&timedRapl);
    platform.addActor(&timedGovernor);

    std::unique_ptr<load::LoadDriver> loadDriver;
    std::unique_ptr<TimedActor> timedLoad;
    if (options.load.enabled) {
        const uint64_t loadSeed =
            options.load.seed != 0
                ? options.load.seed
                : harness::SweepRunner::deriveSeed(options.seed, 0x70AD);
        loadDriver = std::make_unique<load::LoadDriver>(
            options.load, firstLoadSlot, loadSeed);
        loadDriver->attachGovernor(governor.get());
        timedLoad = std::make_unique<TimedActor>(
            *loadDriver, trace.layerNs[kLoadLayer],
            trace.layerCalls[kLoadLayer]);
        platform.addActor(timedLoad.get());
    }

    const double statsStart =
        std::max(0.0, options.durationSec - options.statsWindowSec);
    runSteps(platform, statsStart, trace);
    platform.resetStatsWindow();
    runSteps(platform, options.durationSec, trace);

    ExperimentResult result;
    result.governor = governor->name();
    result.capWatts = options.capWatts;
    result.aggregatePerf = platform.energy().meanItemsPerSec();
    const double window = std::max(platform.statsWindowSec(), 1e-9);
    for (size_t i = 0; i < platform.appCount(); ++i)
        result.appItemsPerSec.push_back(platform.appItems(i) / window);
    result.meanPowerWatts = platform.energy().meanPower();
    result.perfPerJoule = platform.energy().itemsPerJoule();
    result.settlingTimeSec =
        telemetry::settlingTime(platform.powerTrace(), options.capWatts);
    result.capViolationSec = platform.capViolationSec(options.capWatts);
    result.gips = platform.counters().gips();
    result.bandwidthGBs = platform.counters().bandwidthGBs();
    result.spinPercent = platform.counters().spinPercent();
    result.capFeasible = governor->capFeasible();
    result.converged = governor->converged();
    result.durationSec = options.durationSec;
    result.degradedSec = platform.counters().degradedSeconds();
    result.faultsInjected = platform.counters().faultsInjected();
    result.faultsDetected = platform.counters().faultsDetected();
    result.powerTrace = platform.powerTrace();
    result.perfTrace = platform.perfTrace();
    if (loadDriver != nullptr) {
        loadDriver->finish(platform);
        const load::SloTracker& tracker = loadDriver->tracker();
        result.jobsArrived = tracker.totalArrivals();
        result.jobsCompleted = tracker.totalCompletions();
        result.jobsDropped = tracker.totalDrops();
        result.sloViolations = tracker.totalViolations();
        result.p99LatencySec = tracker.p99LatencySec();
        result.sloViolationRate = tracker.violationRate();
    }
    const telemetry::MetricsRegistry& metrics = platform.metrics();
    trace.cacheHits = metrics.counterTotal("sched.solve_cache.hits");
    trace.cacheMisses = metrics.counterTotal("sched.solve_cache.misses");
    trace.durNs = nowNs() - trace.startNs;
    return result;
}

/** Per-layer totals over every traced cell. */
struct LayerTotals
{
    double simSec = 0.0;
    int64_t layerNs[kLayerCount] = {};
    uint64_t layerCalls[kLayerCount] = {};
    int64_t platformNs = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    /** Governor time and simulated seconds per GovernorKind. */
    int64_t governorNs[5] = {};
    uint64_t governorCalls[5] = {};
    double governorSimSec[5] = {};
    std::vector<double> cellMs;
    double busySec = 0.0;
    double sliceWallSec = 0.0;
};

struct TracedSlice
{
    double wallSec = 0.0;
    uint64_t digest = 0;
    uint64_t failed = 0;
};

/** Worker lanes for span tracks, reassigned per slice. */
std::atomic<uint32_t> gNextLane{0};
std::atomic<uint32_t> gLaneEpoch{0};

uint32_t
currentLane()
{
    thread_local uint32_t lane = 0;
    thread_local uint32_t epoch = ~0u;
    if (epoch != gLaneEpoch.load()) {
        epoch = gLaneEpoch.load();
        lane = 1 + gNextLane.fetch_add(1);
    }
    return lane;
}

TracedSlice
runTracedSlice(harness::SweepRunner& pool, const NodeWorkload& w,
               size_t slice, uint32_t parentSpan, LayerTotals& totals,
               SpanLog& spans, WorkloadResult& out)
{
    const std::vector<size_t>& ids = w.slices[slice];
    std::vector<CellTrace> traces(ids.size());
    std::vector<ExperimentResult> results(ids.size());
    gNextLane = 0;
    ++gLaneEpoch;
    Span sliceSpan;
    sliceSpan.name = "harness.slice";
    sliceSpan.id = spans.newId();
    sliceSpan.parent = parentSpan;
    sliceSpan.startNs = nowNs();
    const std::vector<std::string> errors =
        pool.forEach(ids.size(), [&](size_t i) {
            traces[i].lane = currentLane();
            results[i] = runTracedCell(w.cells[ids[i]], traces[i]);
        });
    sliceSpan.durNs = nowNs() - sliceSpan.startNs;
    spans.add(sliceSpan);

    TracedSlice run;
    run.wallSec = double(sliceSpan.durNs) * 1e-9;
    totals.sliceWallSec += run.wallSec;
    Digest digest;
    for (size_t i = 0; i < ids.size(); ++i) {
        const Cell& cell = w.cells[ids[i]];
        const CellTrace& t = traces[i];
        const std::string problem =
            errors[i].empty() ? checkCell(cell, results[i]) : errors[i];
        if (!problem.empty()) {
            ++run.failed;
            out.fail("traced cell " + std::to_string(ids[i]) + ": " + problem);
        }
        digest.mix(cellDigest(results[i]));
        const double sim = cell.options.durationSec;
        totals.simSec += sim;
        for (int l = 0; l < kLayerCount; ++l) {
            totals.layerNs[l] += t.layerNs[l];
            totals.layerCalls[l] += t.layerCalls[l];
        }
        totals.platformNs += t.platformNs;
        totals.cacheHits += t.cacheHits;
        totals.cacheMisses += t.cacheMisses;
        totals.governorNs[int(cell.kind)] += t.layerNs[kGovernorLayer];
        totals.governorCalls[int(cell.kind)] += t.layerCalls[kGovernorLayer];
        totals.governorSimSec[int(cell.kind)] += sim;
        totals.cellMs.push_back(double(t.durNs) * 1e-6);
        totals.busySec += double(t.durNs) * 1e-9;

        Span cellSpan;
        cellSpan.name = "harness.cell";
        cellSpan.id = spans.newId();
        cellSpan.parent = sliceSpan.id;
        cellSpan.lane = t.lane;
        cellSpan.startNs = t.startNs;
        cellSpan.durNs = t.durNs;
        cellSpan.argName[0] = "cell";
        cellSpan.argValue[0] = double(ids[i]);
        cellSpan.argName[1] = "governor";
        cellSpan.argValue[1] = double(int(cell.kind));
        spans.add(cellSpan);
        for (Span step : t.steps) {
            step.id = spans.newId();
            step.parent = cellSpan.id;
            spans.add(step);
        }
    }
    run.digest = digest.value();
    return run;
}

/**
 * Every timed actor call reads the clock twice; about one read lands in
 * the actor's interval and one in the platform's, so each side is
 * charged @p clockNs per call less.
 */
void
reportLayers(const LayerTotals& t, double clockNs, WorkloadResult& out,
             bool tenant)
{
    const double sim = std::max(t.simSec, 1e-9);
    double layerUs[kLayerCount];
    double actorUs = 0.0;
    uint64_t calls = 0;
    for (int l = 0; l < kLayerCount; ++l) {
        layerUs[l] = (double(t.layerNs[l]) -
                      clockNs * double(t.layerCalls[l])) * 1e-3;
        actorUs += double(t.layerNs[l]) * 1e-3;
        calls += t.layerCalls[l];
    }
    out.add("sim.platform_self_us",
            (double(t.platformNs) * 1e-3 - actorUs -
             clockNs * 1e-3 * double(calls)) / sim);
    out.add("rapl.firmware_us", layerUs[kRaplLayer] / sim);
    out.add("rapl.calls", double(t.layerCalls[kRaplLayer]) / sim);
    static const char* const kGovernorMetric[5] = {
        "governor.rapl_us", "governor.soft_dvfs_us",
        "governor.soft_modeling_us", "governor.soft_decision_us",
        "governor.pupil_us"};
    for (int k = 0; k < 5; ++k) {
        if (t.governorSimSec[k] > 0.0)
            out.add(kGovernorMetric[k],
                    (double(t.governorNs[k]) -
                     clockNs * double(t.governorCalls[k])) *
                        1e-3 / t.governorSimSec[k]);
    }
    if (tenant) {
        out.add("load.driver_us", layerUs[kLoadLayer] / sim);
        out.add("load.calls", double(t.layerCalls[kLoadLayer]) / sim);
    }
    const uint64_t lookups = t.cacheHits + t.cacheMisses;
    out.add("sched.cache_hit_rate",
            lookups > 0 ? double(t.cacheHits) / double(lookups) : 0.0);
    out.add("sched.cache_misses", double(t.cacheMisses) / sim);
    out.addMedian("harness.cell_ms_p50", t.cellMs);
    out.addPercentile("harness.cell_ms_p95", t.cellMs, 95.0);
    out.add("harness.pool_busy_frac",
            t.busySec / (kThreads * std::max(t.sliceWallSec, 1e-9)));
}

// ----- the two drivers ----------------------------------------------------

WorkloadResult
runNodeWorkload(const char* name, NodeWorkload (*make)(const RunOptions&),
                const RunOptions& options, SpanLog& spans)
{
    const bool tenant = std::string(name) == "tenant_slo";
    WorkloadResult out;
    out.workload = name;
    out.traced = options.traced;
    HostCalibration cal;
    std::vector<double> setupSec;
    NodeWorkload w;
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (i == kSetupWarmups)
            cal.mark();
        const int64_t start = nowNs();
        NodeWorkload fresh = make(options);
        if (i >= kSetupWarmups)
            setupSec.push_back(secondsSince(start));
        w = std::move(fresh);
    }
    cal.mark();
    for (double& sec : setupSec)
        sec *= cal.factor();
    harness::SweepRunner pool = makePool();
    const int64_t start = nowNs();
    const double budgetSec = options.seconds * options.scale;
    Span root;
    root.name = name;
    root.id = spans.newId();
    root.startNs = start;

    // The run digest is FNV-1a over the pass slices' digests, traced or not.
    Digest passDigest;
    std::vector<uint64_t> passDigests;
    if (!options.traced) {
        PassScore score;
        std::vector<double> sliceRates;
        std::vector<double> cellMs;
        double passRssMb = 0.0;
        for (size_t k = 0;
             k < w.passSlices || secondsSince(start) < budgetSec; ++k) {
            const size_t slice = k % w.slices.size();
            const SliceRun run = runSlice(pool, w, slice, out);
            out.ops += w.slices[slice].size();
            out.opsFailed += run.failed;
            cal.mark();
            const double factor = cal.factor();
            sliceRates.push_back(run.simSec / (run.wallSec * factor));
            for (const double ms : run.cellMsPerSimSec)
                cellMs.push_back(ms * factor);
            // One more set-up per slice spreads the set-up samples over
            // the whole run, so a short host slowdown cannot own them.
            const int64_t setupStart = nowNs();
            const NodeWorkload again = make(options);
            setupSec.push_back(secondsSince(setupStart) * factor);
            if (k < w.passSlices) {
                for (const ExperimentResult& r : run.results)
                    score.add(r);
                passDigests.push_back(sliceDigest(run));
                passDigest.mix(passDigests.back());
                passRssMb = peakRssMb();
            } else if (slice < w.passSlices &&
                       sliceDigest(run) != passDigests[slice]) {
                out.fail("slice " + std::to_string(slice) +
                         " did not reproduce its pass digest");
            }
        }
        out.measuredSec = secondsSince(start);
        out.digest = passDigest.value();
        out.hostRefSec = cal.medianSec();
        out.addMedian("setup_s", setupSec);
        out.addMedian("sim_rate", sliceRates);
        out.addPercentile("period_ms_p95", cellMs, 95.0);
        out.add("peak_rss_mb", passRssMb);
        score.report(out, tenant);
        const double q1 = percentile(sliceRates, 25.0);
        const double q3 = percentile(sliceRates, 75.0);
        out.noiseIqrFrac = (q3 - q1) / percentile(sliceRates, 50.0);
        return out;
    }

    // Traced: each pass slice runs untraced then traced (paired, so the
    // overhead ratio sees the same host conditions), then traced slices
    // fill the rest of the budget.
    LayerTotals totals;
    Digest untraced;
    std::vector<double> overhead;
    for (size_t k = 0; k < w.passSlices || secondsSince(start) < budgetSec;
         ++k) {
        const size_t slice = k % w.slices.size();
        if (k < w.passSlices) {
            const SliceRun plain = runSlice(pool, w, slice, out);
            out.ops += w.slices[slice].size();
            out.opsFailed += plain.failed;
            untraced.mix(sliceDigest(plain));
            const TracedSlice t =
                runTracedSlice(pool, w, slice, root.id, totals, spans, out);
            out.ops += w.slices[slice].size();
            out.opsFailed += t.failed;
            if (t.digest != sliceDigest(plain))
                out.fail("traced slice " + std::to_string(slice) +
                         " differs from the same slice untraced");
            passDigest.mix(t.digest);
            passDigests.push_back(t.digest);
            overhead.push_back(100.0 * (t.wallSec / plain.wallSec - 1.0));
        } else {
            const TracedSlice t =
                runTracedSlice(pool, w, slice, root.id, totals, spans, out);
            out.ops += w.slices[slice].size();
            out.opsFailed += t.failed;
            if (slice < w.passSlices && t.digest != passDigests[slice])
                out.fail("traced slice " + std::to_string(slice) +
                         " did not reproduce its pass digest");
        }
    }
    out.measuredSec = secondsSince(start);
    root.durNs = nowNs() - start;
    spans.add(root);
    out.digest = passDigest.value();
    out.untracedDigest = untraced.value();
    reportLayers(totals, clockReadNs(), out, tenant);
    out.addMedian("trace.overhead_pct", overhead);
    return out;
}

}  // namespace

WorkloadResult
runNodeSweep(const RunOptions& options, SpanLog& spans)
{
    return runNodeWorkload("node_sweep", makeNodeSweep, options, spans);
}

WorkloadResult
runTenantSlo(const RunOptions& options, SpanLog& spans)
{
    return runNodeWorkload("tenant_slo", makeTenantSlo, options, spans);
}

}  // namespace pupil::benchmark
