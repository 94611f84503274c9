// Datacenter budget-tree workloads: cluster_fullstack (256 full-stack
// nodes on the legacy every-period control plane) and cluster_surrogate
// (16,384 nodes on the event-driven plane, 1 full-stack calibration
// source per 64 nodes, bench-side demand churn on 1% of the surrogates
// every period).
//
// One op is one simulated 1 s period. The first passPeriods periods are
// the deterministic pass (digest and fidelity outputs are taken at its
// end); the run then replays the pass on fresh trees until the time
// budget is spent, so every host sample comes from the same period range.
// The first kWarmupPeriods periods of each pass are warm-up and never
// enter a host-time statistic. Rolling node-loss windows cover the pass.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cluster/budget_tree.h"
#include "faults/schedule.h"
#include "harness/sweep.h"
#include "workload/catalog.h"

namespace pupil::benchmark {
namespace {

using cluster::BudgetTree;
using harness::GovernorKind;

constexpr int kNodesPerRack = 8;
constexpr int kSampleEvery = 64;
constexpr double kNodeBudgetWatts = 150.0;
/** Node-loss windows per run (keeps FaultSchedule scans negligible). */
constexpr int kLossWindows = 64;
/** Periods at the start of every pass left out of host statistics: the
 *  period cost ramps for about a dozen periods, then stays flat. */
constexpr int kWarmupPeriods = 15;

struct TreeSpec
{
    const char* name;
    int nodes;
    bool surrogate;
    int passPeriods;
};

/** A built tree plus the inputs that must outlive it. */
struct TreeBuild
{
    std::unique_ptr<faults::FaultSchedule> schedule;
    std::unique_ptr<BudgetTree> tree;
    /** (rack, node) of every surrogate leaf, for demand churn. */
    std::vector<std::pair<size_t, size_t>> surrogates;
    int nodes = 0;
};

TreeSpec
scaled(TreeSpec spec, double scale)
{
    const int racks = std::max(
        2, int(double(spec.nodes) * scale / kNodesPerRack + 0.5));
    spec.nodes = racks * kNodesPerRack;
    spec.passPeriods = std::max(8, int(spec.passPeriods * scale + 0.5));
    return spec;
}

/** Rolling 6 s node-loss windows, evenly spaced over the pass. */
std::string
lossSpec(const TreeSpec& spec, uint64_t seed)
{
    const int racks = spec.nodes / kNodesPerRack;
    const double spacing =
        std::max(spec.passPeriods - 10.0, 1.0) / kLossWindows;
    std::string out;
    for (int j = 0; j < kLossWindows; ++j) {
        const int rack = int(uniformAt(seed ^ 0x1055, 2 * j) * racks);
        const int node = int(uniformAt(seed ^ 0x1055, 2 * j + 1) *
                             kNodesPerRack);
        const double start = 4.0 + spacing * j;
        char entry[96];
        std::snprintf(entry, sizeof(entry), "%snode-loss,r%dn%d,%.3f,%.3f",
                      out.empty() ? "" : ";", rack, node, start, start + 6.0);
        out += entry;
    }
    return out;
}

/**
 * Catalog apps cycled node by node, every 4th node RAPL and the rest
 * PUPiL, per-node seeds derived from the run seed; then the initial
 * grant cascade (run(0) divides the budget and stops before period 1).
 */
TreeBuild
buildTree(const TreeSpec& spec, uint64_t seed)
{
    TreeBuild b;
    b.nodes = spec.nodes;
    BudgetTree::Options options;
    options.globalBudgetWatts = kNodeBudgetWatts * spec.nodes;
    options.periodSec = 1.0;
    options.threads = kThreads;
    options.hysteresisWatts = spec.surrogate ? 2.0 : 0.0;
    b.tree = std::make_unique<BudgetTree>(options);
    const auto& catalog = workload::benchmarkCatalog();
    int id = 0;
    for (int r = 0; r < spec.nodes / kNodesPerRack; ++r) {
        const size_t rack = b.tree->addRack("rack" + std::to_string(r));
        for (int n = 0; n < kNodesPerRack; ++n, ++id) {
            const std::string& app =
                catalog[size_t(id * 7) % catalog.size()].name;
            const GovernorKind kind =
                id % 4 == 3 ? GovernorKind::kRapl : GovernorKind::kPupil;
            const std::string name =
                "r" + std::to_string(r) + "n" + std::to_string(n);
            const uint64_t nodeSeed =
                harness::SweepRunner::deriveSeed(seed, size_t(id));
            if (!spec.surrogate) {
                b.tree->addNode(rack, name, harness::singleApp(app, 16), kind,
                                nodeSeed);
            } else if (id % kSampleEvery == 0) {
                const size_t i = b.tree->addNode(
                    rack, name, harness::singleApp(app, 16), kind, nodeSeed);
                b.tree->addCalibrationSource(rack, i, app, kind);
            } else {
                const size_t i =
                    b.tree->addSurrogateNode(rack, name, app, kind, nodeSeed);
                b.surrogates.emplace_back(rack, i);
            }
        }
    }
    b.schedule = std::make_unique<faults::FaultSchedule>(
        faults::FaultSchedule::parse(lossSpec(spec, seed)));
    b.tree->setFaultSchedule(b.schedule.get());
    b.tree->run(0.0);
    return b;
}

/** Move 1% of the surrogates to a new seeded utilization. */
void
churn(TreeBuild& b, uint64_t seed, int period)
{
    if (b.surrogates.empty())
        return;
    const size_t count = std::max<size_t>(1, b.surrogates.size() / 100);
    for (size_t j = 0; j < count; ++j) {
        const uint64_t draw = uint64_t(period) * count + j;
        const auto& [rack, node] = b.surrogates[size_t(
            uniformAt(seed ^ 0xC4A2, 2 * draw) * double(b.surrogates.size()))];
        b.tree->surrogateLeaf(rack, node)->setUtilization(
            0.3 + 0.7 * uniformAt(seed ^ 0xC4A2, 2 * draw + 1));
    }
}

/** Step one period and check it; returns the wall seconds of run(). */
double
stepPeriod(TreeBuild& b, uint64_t seed, int period, WorkloadResult& out)
{
    churn(b, seed, period);
    const int failuresBefore = b.tree->nodeFailures();
    const int64_t start = nowNs();
    b.tree->run(double(period));
    const double wallSec = secondsSince(start);
    const double budget = kNodeBudgetWatts * b.nodes;
    const double error = b.tree->budgetErrorWatts();
    bool ok = true;
    if (!(error <= 1e-6 * budget + 1e-9)) {
        ok = false;
        out.fail("period " + std::to_string(period) +
                 ": budget conservation error " + std::to_string(error) +
                 " W");
    }
    if (b.tree->nodeFailures() != failuresBefore) {
        ok = false;
        out.fail("period " + std::to_string(period) + ": node step threw");
    }
    ++out.ops;
    if (!ok)
        ++out.opsFailed;
    return wallSec;
}

std::vector<double>
steady(const std::vector<double>& samples, int warm)
{
    if (samples.size() <= size_t(warm))
        return {};
    return std::vector<double>(samples.begin() + warm, samples.end());
}

/** Calibrates period wall times in segments of about 1 s between
 *  reference-kernel marks (a mark per period would cost too much). */
class SegmentedWalls
{
  public:
    explicit SegmentedWalls(HostCalibration& cal) : cal_(cal) {}

    void add(double wallSec, bool keep)
    {
        pending_.emplace_back(wallSec, keep);
        pendingSec_ += wallSec;
        if (pendingSec_ >= 1.0)
            flush();
    }

    void flush()
    {
        if (pending_.empty())
            return;
        cal_.mark();
        const double factor = cal_.factor();
        for (const auto& [wall, keep] : pending_) {
            if (keep)
                calibrated_.push_back(wall * factor);
        }
        pending_.clear();
        pendingSec_ = 0.0;
    }

    const std::vector<double>& calibrated() const { return calibrated_; }

  private:
    HostCalibration& cal_;
    std::vector<std::pair<double, bool>> pending_;
    double pendingSec_ = 0.0;
    std::vector<double> calibrated_;
};

/** Per-layer totals over every traced tree of a run. */
struct TreeTotals
{
    std::vector<double> stepMs;
    std::vector<double> controlMs;
    std::vector<double> invariantUs;
    std::vector<double> digestUs;
    std::vector<double> overheadPct;
    double periods = 0.0;
    double attemptedRebalances = 0.0;
    double shifts = 0.0;
    double reportsSuppressed = 0.0;
    double sent = 0.0;
    double delivered = 0.0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    double fullStackNodeSec = 0.0;

    /** Fold in one traced tree after its pass; @p warm periods skipped. */
    void absorb(const BudgetTree& tree, int warm)
    {
        for (const double s : steady(tree.stepWallSamples(), warm))
            stepMs.push_back(1e3 * s);
        for (const double s : steady(tree.controlWallSamples(), warm))
            controlMs.push_back(1e3 * s);
        const double n = tree.periods();
        periods += n;
        // Every rack and the root may rebalance once per period; the
        // event-driven plane suppresses some of those attempts.
        attemptedRebalances += n * double(tree.rackCount() + 1) -
                               double(tree.rebalancesSuppressed());
        shifts += tree.shifts();
        reportsSuppressed += double(tree.reportsSuppressed());
        sent += double(tree.transportStats().sent);
        delivered += double(tree.transportStats().delivered);
        for (size_t r = 0; r < tree.rackCount(); ++r) {
            for (size_t i = 0; i < tree.nodeCount(r); ++i) {
                const sim::Platform* platform = tree.node(r, i).platform.get();
                if (platform == nullptr)
                    continue;
                fullStackNodeSec += n;
                cacheHits +=
                    platform->metrics().counterTotal("sched.solve_cache.hits");
                cacheMisses += platform->metrics().counterTotal(
                    "sched.solve_cache.misses");
            }
        }
    }

    void report(WorkloadResult& out) const
    {
        out.addMedian("cluster.step_ms_p50", stepMs);
        out.addPercentile("cluster.step_ms_p95", stepMs, 95.0);
        out.addMedian("cluster.control_ms_p50", controlMs);
        out.addPercentile("cluster.control_ms_p95", controlMs, 95.0);
        out.addMedian("cluster.invariant_us", invariantUs);
        out.addMedian("cluster.digest_us", digestUs);
        out.add("cluster.rebalance_useful_frac",
                shifts / std::max(1.0, attemptedRebalances));
        out.add("cluster.reports_suppressed", reportsSuppressed / periods);
        out.add("net.msgs_per_period", sent / periods);
        out.add("net.delivered_frac", delivered / std::max(1.0, sent));
        const uint64_t lookups = cacheHits + cacheMisses;
        out.add("sched.cache_hit_rate",
                lookups > 0 ? double(cacheHits) / double(lookups) : 0.0);
        out.add("sched.cache_misses",
                double(cacheMisses) / std::max(1.0, fullStackNodeSec));
        out.addMedian("trace.overhead_pct", overheadPct);
    }
};

/**
 * One traced period: run(), budgetErrorWatts() and stateDigest() each
 * timed as a child span of the period. Returns the state digest.
 */
uint64_t
tracedPeriod(TreeBuild& b, uint64_t seed, int replay, int period, int warm,
             uint32_t rootSpan, SpanLog& spans, TreeTotals& totals,
             WorkloadResult& out)
{
    Span periodSpan;
    periodSpan.name = "cluster.period";
    periodSpan.id = spans.newId();
    periodSpan.parent = rootSpan;
    periodSpan.startNs = nowNs();
    periodSpan.argName[0] = "replay";
    periodSpan.argValue[0] = replay;
    periodSpan.argName[1] = "period";
    periodSpan.argValue[1] = period;
    const double runSec = stepPeriod(b, seed, period, out);

    Span run;
    run.name = "cluster.run";
    run.id = spans.newId();
    run.parent = periodSpan.id;
    run.startNs = periodSpan.startNs;
    run.durNs = int64_t(runSec * 1e9);
    run.argName[0] = "step_ms";
    run.argValue[0] = 1e3 * b.tree->stepWallSamples().back();
    run.argName[1] = "control_ms";
    run.argValue[1] = 1e3 * b.tree->controlWallSamples().back();
    spans.add(run);

    Span invariant;
    invariant.name = "cluster.invariant";
    invariant.id = spans.newId();
    invariant.parent = periodSpan.id;
    invariant.startNs = nowNs();
    invariant.argName[0] = "error_w";
    invariant.argValue[0] = b.tree->budgetErrorWatts();
    invariant.durNs = nowNs() - invariant.startNs;
    spans.add(invariant);

    Span digest;
    digest.name = "cluster.digest";
    digest.id = spans.newId();
    digest.parent = periodSpan.id;
    digest.startNs = nowNs();
    const uint64_t hash = b.tree->stateDigest();
    digest.durNs = nowNs() - digest.startNs;
    spans.add(digest);

    periodSpan.durNs = nowNs() - periodSpan.startNs;
    spans.add(periodSpan);
    if (period > warm) {
        totals.invariantUs.push_back(double(invariant.durNs) * 1e-3);
        totals.digestUs.push_back(double(digest.durNs) * 1e-3);
        // Tracing leaves run() itself untouched; what it adds is the two
        // timed calls, measured against the same period's run().
        totals.overheadPct.push_back(
            100.0 * double(invariant.durNs + digest.durNs) * 1e-9 / runSec);
    }
    return hash;
}

WorkloadResult
runTree(const TreeSpec& fullSpec, const RunOptions& options, SpanLog& spans)
{
    const TreeSpec spec = scaled(fullSpec, options.scale);
    const int pass = spec.passPeriods;
    const int warm = std::min(kWarmupPeriods, pass / 4);
    WorkloadResult out;
    out.workload = spec.name;
    out.traced = options.traced;

    HostCalibration cal;
    std::vector<double> setupSec;
    uint64_t setupDigest = 0;
    TreeBuild b;
    for (int i = 0; i < kSetupRepeats; ++i) {
        b = TreeBuild();
        if (i == kSetupWarmups)
            cal.mark();
        const int64_t start = nowNs();
        TreeBuild fresh = buildTree(spec, options.seed);
        if (i >= kSetupWarmups)
            setupSec.push_back(secondsSince(start));
        const uint64_t digest = fresh.tree->stateDigest();
        if (i > 0 && digest != setupDigest)
            out.fail("tree setup is not deterministic");
        setupDigest = digest;
        b = std::move(fresh);
    }
    cal.mark();
    for (double& sec : setupSec)
        sec *= cal.factor();

    // The first pass runs untraced in every mode: its end state is the
    // run's digest, its second half the fidelity output.
    const int64_t start = nowNs();
    const double budgetSec = options.seconds * options.scale;
    SegmentedWalls walls(cal);
    double perfSum = 0.0;
    for (int period = 1; period <= pass; ++period) {
        walls.add(stepPeriod(b, options.seed, period, out), period > warm);
        if (period > pass / 2)
            perfSum += b.tree->aggregatePerformance() / spec.nodes;
    }
    out.digest = b.tree->stateDigest();
    // Full-stack platforms keep growing power/perf traces, so memory is
    // read at the end of the fixed pass, not after a time-dependent fill.
    const double passRssMb = peakRssMb();

    if (!options.traced) {
        // Later passes replay the same periods on a fresh tree, so every
        // sample comes from the same period range and each completed
        // replay must reproduce the pass digest. Replay builds, plus a
        // spare build about once a second, are more set-up samples: spread
        // over the whole run, a short host slowdown cannot own the median.
        int64_t lastSetupNs = nowNs();
        const auto timedBuild = [&] {
            const int64_t setupStart = nowNs();
            TreeBuild built = buildTree(spec, options.seed);
            setupSec.push_back(secondsSince(setupStart) * cal.factor());
            lastSetupNs = nowNs();
            return built;
        };
        while (secondsSince(start) < budgetSec) {
            b = TreeBuild();
            b = timedBuild();
            int period = 1;
            for (; period <= pass && secondsSince(start) < budgetSec;
                 ++period) {
                walls.add(stepPeriod(b, options.seed, period, out),
                          period > warm);
                if (secondsSince(lastSetupNs) >= 1.0)
                    timedBuild();
            }
            if (period > pass && b.tree->stateDigest() != out.digest)
                out.fail("a replayed pass did not reproduce the pass digest");
        }
        walls.flush();
        out.measuredSec = secondsSince(start);
        const std::vector<double>& steadyWalls = walls.calibrated();
        std::vector<double> rates;
        for (const double wall : steadyWalls)
            rates.push_back(spec.nodes / wall);
        out.hostRefSec = cal.medianSec();
        out.addMedian("setup_s", setupSec);
        out.addMedian("sim_rate", rates);
        out.addPercentile("period_ms_p95", steadyWalls, 95.0, 1e3);
        out.add("peak_rss_mb", passRssMb);
        out.add("perf_per_node", perfSum / (pass - pass / 2));
        out.noiseIqrFrac = (percentile(steadyWalls, 75.0) -
                            percentile(steadyWalls, 25.0)) /
                           percentile(steadyWalls, 50.0);
        return out;
    }

    // Traced: replay the pass on fresh trees with every period's run(),
    // budgetErrorWatts() and stateDigest() timed, until the budget is
    // spent. The first replay always completes and must end on the
    // untraced digest. The tree's own step/control samples and counters
    // do not depend on tracing, so the untraced pass contributes them too.
    out.untracedDigest = out.digest;
    Span root;
    root.name = spec.name;
    root.id = spans.newId();
    root.startNs = nowNs();
    TreeTotals totals;
    totals.absorb(*b.tree, warm);
    for (int replay = 1; replay == 1 || secondsSince(start) < budgetSec;
         ++replay) {
        b = TreeBuild();
        b = buildTree(spec, options.seed);
        int period = 1;
        uint64_t hash = 0;
        for (; period <= pass &&
               (replay == 1 || secondsSince(start) < budgetSec);
             ++period) {
            hash = tracedPeriod(b, options.seed, replay, period, warm,
                                root.id, spans, totals, out);
        }
        if (period > pass && hash != out.untracedDigest) {
            out.digest = hash;
            out.fail("traced replay " + std::to_string(replay) +
                     " differs from the untraced pass");
        }
        totals.absorb(*b.tree, warm);
    }
    out.measuredSec = secondsSince(start);
    root.durNs = nowNs() - root.startNs;
    spans.add(root);
    totals.report(out);
    return out;
}

}  // namespace

WorkloadResult
runClusterFullstack(const RunOptions& options, SpanLog& spans)
{
    return runTree({"cluster_fullstack", 256, false, 120}, options, spans);
}

WorkloadResult
runClusterSurrogate(const RunOptions& options, SpanLog& spans)
{
    return runTree({"cluster_surrogate", 16384, true, 120}, options, spans);
}

}  // namespace pupil::benchmark
