/** @file Tests for the decision framework: resources, ordering, walker,
 *  power distribution. */
#include <gtest/gtest.h>

#include <string>

#include "capping/oracle.h"
#include "core/decision.h"
#include "core/ordering.h"
#include "core/power_dist.h"
#include "core/resource.h"
#include "machine/power_model.h"
#include "sched/scheduler.h"
#include "workload/catalog.h"

namespace pupil::core {
namespace {

using machine::MachineConfig;

TEST(Resource, ApplyAndReadBackEverySetting)
{
    MachineConfig cfg = machine::minimalConfig();
    for (const Resource& r : platformResources(true)) {
        for (int i = 0; i < r.settings(); ++i) {
            r.apply(cfg, i);
            EXPECT_EQ(r.setting(cfg), i) << r.name();
            EXPECT_TRUE(cfg.valid()) << r.name();
        }
    }
}

TEST(Resource, PlatformSetIncludesDvfsOnlyWhenAsked)
{
    EXPECT_EQ(platformResources(true).size(), 5u);
    EXPECT_EQ(platformResources(false).size(), 4u);
    for (const Resource& r : platformResources(false))
        EXPECT_NE(r.kind(), Resource::Kind::kDvfs);
}

TEST(Resource, SettingCountsMatchTable1)
{
    for (const Resource& r : platformResources(true)) {
        switch (r.kind()) {
          case Resource::Kind::kCoresPerSocket:
            EXPECT_EQ(r.settings(), 8);
            break;
          case Resource::Kind::kSockets:
          case Resource::Kind::kHyperThreading:
          case Resource::Kind::kMemControllers:
            EXPECT_EQ(r.settings(), 2);
            break;
          case Resource::Kind::kDvfs:
            EXPECT_EQ(r.settings(), 16);
            break;
        }
    }
}

TEST(Ordering, ReproducesTable2Order)
{
    // Algorithm 2 on the calibration benchmark must yield the paper's
    // Table 2 precedence: cores > sockets > hyperthreading > memory
    // controllers, with DVFS pinned last.
    const sched::Scheduler scheduler;
    const machine::PowerModel pm;
    const OrderingReport report =
        calibrateOrdering(scheduler, pm, workload::calibrationApp());
    ASSERT_EQ(report.entries.size(), 5u);
    EXPECT_EQ(report.entries[0].resource.kind(),
              Resource::Kind::kCoresPerSocket);
    EXPECT_EQ(report.entries[1].resource.kind(), Resource::Kind::kSockets);
    EXPECT_EQ(report.entries[2].resource.kind(),
              Resource::Kind::kHyperThreading);
    EXPECT_EQ(report.entries[3].resource.kind(),
              Resource::Kind::kMemControllers);
    EXPECT_EQ(report.entries[4].resource.kind(), Resource::Kind::kDvfs);
}

TEST(Ordering, SpeedupsInPaperBallpark)
{
    const sched::Scheduler scheduler;
    const machine::PowerModel pm;
    const OrderingReport report =
        calibrateOrdering(scheduler, pm, workload::calibrationApp());
    // Paper Table 2: 7.9 / 2.0 / 1.9 / 1.8 / 3.2.
    EXPECT_NEAR(report.entries[0].maxSpeedup, 7.9, 0.4);
    EXPECT_NEAR(report.entries[1].maxSpeedup, 2.0, 0.2);
    EXPECT_NEAR(report.entries[2].maxSpeedup, 1.9, 0.15);
    EXPECT_NEAR(report.entries[3].maxSpeedup, 1.8, 0.15);
    EXPECT_NEAR(report.entries[4].maxSpeedup, 3.2, 0.3);
    for (const OrderingEntry& e : report.entries)
        EXPECT_GT(e.maxPowerup, 1.0) << e.resource.name();
}

TEST(Ordering, OrderedResourcesRespectDvfsFlag)
{
    const sched::Scheduler scheduler;
    const machine::PowerModel pm;
    const OrderingReport report =
        calibrateOrdering(scheduler, pm, workload::calibrationApp());
    EXPECT_EQ(report.orderedResources(true).size(), 5u);
    EXPECT_EQ(report.orderedResources(false).size(), 4u);
}

/**
 * Drives a DecisionWalker against the analytic steady-state model,
 * emulating a noiseless platform whose power/perf respond instantly.
 * This exercises Algorithm 1's decision logic in isolation.
 */
class WalkerHarness
{
  public:
    WalkerHarness(const workload::AppParams& app, double cap,
                  DecisionWalker::Options options)
        : app_(app), cap_(cap),
          walker_(orderedResources(options.checkPower), options)
    {
        options_ = options;
    }

    static std::vector<Resource>
    orderedResources(bool includeDvfs)
    {
        const sched::Scheduler scheduler;
        const machine::PowerModel pm;
        return calibrateOrdering(scheduler, pm, workload::calibrationApp())
            .orderedResources(includeDvfs);
    }

    /** Run the walker to convergence; returns the final configuration. */
    MachineConfig
    run(const MachineConfig& initial)
    {
        walker_.start(initial, cap_, 0.0);
        now_ = 0.0;
        while (!walker_.converged() && now_ < 600.0) {
            now_ += 0.1;
            double perf = 0.0;
            double power = 0.0;
            evaluate(walker_.config(), perf, power);
            walker_.addSample(perf, power, now_);
        }
        return walker_.config();
    }

    /** Feed a fixed (perf, power) reading every 0.1 s for @p seconds. */
    void
    hold(double perf, double power, double seconds)
    {
        const double until = now_ + seconds;
        while (now_ + 0.05 < until) {
            now_ += 0.1;
            walker_.addSample(perf, power, now_);
        }
    }

    void
    evaluate(const MachineConfig& cfg, double& perf, double& power) const
    {
        const sched::Scheduler scheduler;
        const machine::PowerModel pm;
        const std::vector<sched::AppDemand> apps = {{&app_, 32}};
        MachineConfig effective = cfg;
        if (!options_.checkPower) {
            // Hybrid mode: emulate RAPL trimming the p-state to the cap.
            for (int p = machine::DvfsTable::kTurboPState; p >= 0; --p) {
                effective.setUniformPState(p);
                const auto out =
                    scheduler.solve(effective, {1.0, 1.0}, apps);
                if (pm.totalPower(effective, out.loads) <= cap_)
                    break;
            }
        }
        const auto out = scheduler.solve(effective, {1.0, 1.0}, apps);
        perf = out.apps[0].itemsPerSec / 1e6;
        power = pm.totalPower(effective, out.loads);
    }

    const DecisionWalker& walker() const { return walker_; }

  private:
    const workload::AppParams& app_;
    double cap_;
    DecisionWalker::Options options_;
    DecisionWalker walker_;
    double now_ = 0.0;
};

DecisionWalker::Options
softOptions()
{
    DecisionWalker::Options options;
    options.windowSamples = 5;  // fast, noiseless harness
    options.checkPower = true;
    return options;
}

DecisionWalker::Options
hybridOptions()
{
    DecisionWalker::Options options;
    options.windowSamples = 5;
    options.checkPower = false;
    return options;
}

TEST(DecisionWalker, ConvergesAndRespectsCapInSoftwareMode)
{
    WalkerHarness harness(workload::findBenchmark("blackscholes"), 140.0,
                          softOptions());
    const MachineConfig final = harness.run(machine::minimalConfig());
    EXPECT_TRUE(harness.walker().converged());
    double perf = 0.0;
    double power = 0.0;
    harness.evaluate(final, perf, power);
    EXPECT_LE(power, 140.0 + 1.0);
    // Far better than the minimal start.
    double basePerf = 0.0;
    double basePower = 0.0;
    harness.evaluate(machine::minimalConfig(), basePerf, basePower);
    EXPECT_GT(perf, basePerf * 4.0);
}

TEST(DecisionWalker, RejectsHyperthreadingForX264)
{
    // The Section 2 story: the framework must discover that hyperthreads
    // hurt x264 and leave them off while raising clock speed.
    WalkerHarness harness(workload::findBenchmark("x264"), 140.0,
                          softOptions());
    const MachineConfig final = harness.run(machine::minimalConfig());
    EXPECT_FALSE(final.hyperthreading);
    EXPECT_GT(final.pstate[0], 8);
}

TEST(DecisionWalker, RestrictsKmeansToOneSocket)
{
    // Section 5.2: the framework must keep kmeans off the second socket
    // and spend the budget on clock speed instead.
    WalkerHarness harness(workload::findBenchmark("kmeans"), 140.0,
                          softOptions());
    const MachineConfig final = harness.run(machine::minimalConfig());
    EXPECT_EQ(final.sockets, 1);
    EXPECT_EQ(final.coresPerSocket, 8);
}

TEST(DecisionWalker, HybridModeNeverTouchesDvfs)
{
    WalkerHarness harness(workload::findBenchmark("swaptions"), 100.0,
                          hybridOptions());
    MachineConfig initial = machine::minimalConfig();
    initial.setUniformPState(machine::DvfsTable::kTurboPState);
    const MachineConfig final = harness.run(initial);
    // The OS p-state request is untouched (hardware owns V/f).
    EXPECT_EQ(final.pstate[0], machine::DvfsTable::kTurboPState);
    EXPECT_TRUE(harness.walker().converged());
}

TEST(DecisionWalker, BinarySearchFindsHighestSettingUnderCap)
{
    // At 60 W the DVFS binary search must stop below the top p-state.
    WalkerHarness harness(workload::findBenchmark("blackscholes"), 60.0,
                          softOptions());
    const MachineConfig final = harness.run(machine::minimalConfig());
    double perf = 0.0;
    double power = 0.0;
    harness.evaluate(final, perf, power);
    EXPECT_LE(power, 61.0);
    EXPECT_LT(final.pstate[0], machine::DvfsTable::kTurboPState);
    // One p-state higher would exceed the cap.
    MachineConfig bumped = final;
    bumped.setUniformPState(final.pstate[0] + 1);
    harness.evaluate(bumped, perf, power);
    EXPECT_GT(power, 60.0);
}

TEST(DecisionWalker, ConfigDirtyFlagIsConsumed)
{
    DecisionWalker walker(WalkerHarness::orderedResources(true),
                          softOptions());
    walker.start(machine::minimalConfig(), 140.0, 0.0);
    EXPECT_TRUE(walker.takeConfigDirty());
    EXPECT_FALSE(walker.takeConfigDirty());
}

TEST(DecisionWalker, WalkCountTracksRestarts)
{
    DecisionWalker walker(WalkerHarness::orderedResources(true),
                          softOptions());
    walker.start(machine::minimalConfig(), 140.0, 0.0);
    EXPECT_EQ(walker.walkCount(), 1);
    walker.start(machine::minimalConfig(), 140.0, 10.0);
    EXPECT_EQ(walker.walkCount(), 2);
}

TEST(DecisionWalker, MonitorReWalksOnPersistentPowerViolation)
{
    // After convergence only the meter moves: performance holds while
    // power sits over the cap. 5% over must re-trigger the walk within
    // the monitor's cooldown plus one measurement window; 2% over is
    // inside the monitor's tolerance and must not.
    const DecisionWalker::Options options = softOptions();
    const double window = 0.1 * options.windowSamples;
    for (const double overshoot : {1.05, 1.02}) {
        WalkerHarness harness(workload::findBenchmark("blackscholes"), 140.0,
                              options);
        const MachineConfig final = harness.run(machine::minimalConfig());
        ASSERT_TRUE(harness.walker().converged());
        double perf = 0.0;
        double power = 0.0;
        harness.evaluate(final, perf, power);
        harness.hold(perf, 140.0 * overshoot,
                     options.monitorCooldownSec + window);
        EXPECT_EQ(harness.walker().walkCount(), overshoot > 1.03 ? 2 : 1)
            << "power at " << overshoot << "x the cap";
    }
}

TEST(PowerDist, EvenSplitIsHalfEach)
{
    const machine::PowerModel pm;
    const auto caps = splitCap(pm, machine::maximalConfig(), 140.0,
                               PowerDistPolicy::kEvenSplit);
    EXPECT_DOUBLE_EQ(caps[0], 70.0);
    EXPECT_DOUBLE_EQ(caps[1], 70.0);
}

TEST(PowerDist, CoreProportionalSumsToCap)
{
    const machine::PowerModel pm;
    for (int cores = 1; cores <= 8; ++cores) {
        for (int sockets = 1; sockets <= 2; ++sockets) {
            MachineConfig cfg;
            cfg.coresPerSocket = cores;
            cfg.sockets = sockets;
            const auto caps = splitCap(pm, cfg, 140.0,
                                       PowerDistPolicy::kCoreProportional);
            EXPECT_NEAR(caps[0] + caps[1], 140.0, 1e-9)
                << cores << "c x " << sockets << "s";
        }
    }
}

TEST(PowerDist, AsymmetricConfigConcentratesBudget)
{
    // One active socket: it gets everything except the idle socket's keep.
    const machine::PowerModel pm;
    MachineConfig cfg;
    cfg.coresPerSocket = 8;
    cfg.sockets = 1;
    const auto caps =
        splitCap(pm, cfg, 140.0, PowerDistPolicy::kCoreProportional);
    EXPECT_GT(caps[0], 125.0);
    EXPECT_LT(caps[1], 10.0);
    EXPECT_NEAR(caps[1], pm.staticSocketPower(cfg, 1), 1e-9);
}

TEST(PowerDist, TinyCapShrinksProportionally)
{
    const machine::PowerModel pm;
    const auto caps = splitCap(pm, machine::maximalConfig(), 10.0,
                               PowerDistPolicy::kCoreProportional);
    EXPECT_NEAR(caps[0] + caps[1], 10.0, 1e-9);
    EXPECT_GT(caps[0], 0.0);
    EXPECT_GT(caps[1], 0.0);
}

TEST(PowerDist, SingleSocketTightCapKeepsIdleFloor)
{
    // Regression: under a cap too tight to cover even the active socket's
    // static power, the idle socket must still receive exactly its
    // package-sleep floor -- it physically cannot go lower, and scaling it
    // down used to strand the difference as an unenforceable share.
    const machine::PowerModel pm;
    MachineConfig cfg;
    cfg.coresPerSocket = 8;
    cfg.sockets = 1;
    const double idle = pm.staticSocketPower(cfg, 1);
    const double active = pm.staticSocketPower(cfg, 0);
    const double tightCap = 0.8 * (active + idle);
    ASSERT_LT(tightCap - idle, active);  // genuinely tight
    const auto caps =
        splitCap(pm, cfg, tightCap, PowerDistPolicy::kCoreProportional);
    EXPECT_DOUBLE_EQ(caps[1], idle);
    EXPECT_DOUBLE_EQ(caps[0], tightCap - idle);
    EXPECT_NEAR(caps[0] + caps[1], tightCap, 1e-9);
}

TEST(PowerDist, CapBelowIdleFloorsStillSumsToCap)
{
    // Even the fully degenerate case (cap below the combined idle floors)
    // must hand out shares that sum to the cap.
    const machine::PowerModel pm;
    MachineConfig cfg;
    cfg.coresPerSocket = 8;
    cfg.sockets = 1;
    const double cap = 0.5 * pm.staticSocketPower(cfg, 1);
    const auto caps =
        splitCap(pm, cfg, cap, PowerDistPolicy::kCoreProportional);
    EXPECT_NEAR(caps[0] + caps[1], cap, 1e-9);
    EXPECT_GE(caps[0], 0.0);
    EXPECT_GE(caps[1], 0.0);
}

// Property sweep: in software mode the walker's final configuration
// respects every paper cap for representative apps.
class WalkerCapSweep
    : public ::testing::TestWithParam<std::tuple<double, std::string>>
{
};

TEST_P(WalkerCapSweep, FinalConfigRespectsCap)
{
    const auto [cap, name] = GetParam();
    WalkerHarness harness(workload::findBenchmark(name), cap, softOptions());
    const MachineConfig final = harness.run(machine::minimalConfig());
    double perf = 0.0;
    double power = 0.0;
    harness.evaluate(final, perf, power);
    EXPECT_LE(power, cap + 1.0) << final.toString();
    EXPECT_TRUE(harness.walker().converged());
}

INSTANTIATE_TEST_SUITE_P(
    CapsTimesApps, WalkerCapSweep,
    ::testing::Combine(::testing::Values(60.0, 100.0, 140.0, 220.0),
                       ::testing::Values("blackscholes", "x264", "kmeans",
                                         "STREAM", "dijkstra")));

}  // namespace
}  // namespace pupil::core
