/** @file Tests for the emulated MSR file and the RAPL firmware controller. */
#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.h"
#include "rapl/msr.h"
#include "rapl/rapl.h"
#include "sim/platform.h"
#include "workload/catalog.h"

namespace pupil::rapl {
namespace {

TEST(Msr, PowerUnitRegisterMatchesSandyBridge)
{
    MsrFile msr;
    const uint64_t units = msr.read(kMsrRaplPowerUnit);
    EXPECT_EQ(units & 0xf, 3u);           // power: 1/8 W
    EXPECT_EQ((units >> 8) & 0x1f, 16u);  // energy: 2^-16 J
}

TEST(Msr, PowerLimitRoundTrips)
{
    MsrFile msr;
    PowerLimit limit;
    limit.powerWatts = 70.0;
    limit.windowSec = 0.25;
    limit.enabled = true;
    msr.setPowerLimit(limit);
    const PowerLimit decoded = msr.powerLimit();
    EXPECT_NEAR(decoded.powerWatts, 70.0, 0.125);
    EXPECT_NEAR(decoded.windowSec, 0.25, 1.0 / 1024.0);
    EXPECT_TRUE(decoded.enabled);
}

TEST(Msr, DisabledByDefault)
{
    MsrFile msr;
    EXPECT_FALSE(msr.powerLimit().enabled);
}

TEST(Msr, EnergyCounterAccumulatesSubUnitAmounts)
{
    MsrFile msr;
    // 1000 increments of 100 uJ = 0.1 J total; each increment is below
    // one energy unit (15.3 uJ resolution must not lose the remainder).
    for (int i = 0; i < 1000; ++i)
        msr.addEnergy(100e-6);
    EXPECT_NEAR(msr.energyJoules(), 0.1, 1e-3);
}

TEST(Msr, ReadOnlyRegistersIgnoreWrites)
{
    MsrFile msr;
    const uint64_t units = msr.read(kMsrRaplPowerUnit);
    msr.write(kMsrRaplPowerUnit, 0xdead);
    EXPECT_EQ(msr.read(kMsrRaplPowerUnit), units);
    msr.write(kMsrPkgEnergyStatus, 0xbeef);
    EXPECT_EQ(msr.read(kMsrPkgEnergyStatus), 0u);
}

TEST(Msr, UnknownRegisterReadsZero)
{
    MsrFile msr;
    EXPECT_EQ(msr.read(0x123), 0u);
}

class RaplControlTest : public ::testing::Test
{
  protected:
    sim::PlatformOptions
    options()
    {
        sim::PlatformOptions opts;
        opts.seed = 99;
        return opts;
    }
};

TEST_F(RaplControlTest, EnforcesCapWithinMilliseconds)
{
    // The paper's headline hardware property: caps are enforced within a
    // few hundred milliseconds, orders of magnitude faster than software.
    std::vector<sched::AppDemand> apps = {
        {&workload::findBenchmark("swaptions"), 32}};
    sim::Platform platform(options(), apps);
    platform.warmStart(machine::maximalConfig());
    RaplController rapl;
    rapl.setTotalCapEvenSplit(140.0);
    platform.addActor(&rapl);
    platform.run(5.0);

    // Steady state: at the cap (within tolerance), not wildly below.
    EXPECT_LE(platform.truePower(), 143.0);
    EXPECT_GE(platform.truePower(), 120.0);
    const double settle =
        telemetry::settlingTime(platform.powerTrace(), 140.0);
    EXPECT_LT(settle, 1.0);
    EXPECT_GT(settle, 0.01);
}

TEST_F(RaplControlTest, DeepCapFallsBackToDutyCycling)
{
    // 60 W is below the full machine's lowest p-state power; hardware must
    // engage T-state modulation (Soft-DVFS cannot do this).
    std::vector<sched::AppDemand> apps = {
        {&workload::findBenchmark("blackscholes"), 32}};
    sim::Platform platform(options(), apps);
    platform.warmStart(machine::maximalConfig());
    RaplController rapl;
    rapl.setTotalCapEvenSplit(60.0);
    platform.addActor(&rapl);
    platform.run(8.0);

    EXPECT_LE(platform.truePower(), 63.0);
    const ZoneStatus zone = rapl.zoneStatus(0);
    EXPECT_EQ(zone.clampPState, 0);
    EXPECT_LT(zone.dutyCycle, 1.0);
}

TEST_F(RaplControlTest, LooseCapLeavesTurboUnclamped)
{
    std::vector<sched::AppDemand> apps = {
        {&workload::findBenchmark("swish++"), 32}};
    sim::Platform platform(options(), apps);
    platform.warmStart(machine::maximalConfig());
    RaplController rapl;
    rapl.setTotalCapEvenSplit(220.0);
    platform.addActor(&rapl);
    platform.run(5.0);
    EXPECT_EQ(rapl.zoneStatus(0).clampPState,
              machine::DvfsTable::kTurboPState);
    EXPECT_DOUBLE_EQ(rapl.zoneStatus(0).dutyCycle, 1.0);
}

TEST_F(RaplControlTest, DisabledZoneDoesNotClamp)
{
    std::vector<sched::AppDemand> apps = {
        {&workload::findBenchmark("swaptions"), 32}};
    sim::Platform platform(options(), apps);
    platform.warmStart(machine::maximalConfig());
    RaplController rapl;  // caps never programmed
    platform.addActor(&rapl);
    platform.run(2.0);
    EXPECT_GT(platform.truePower(), 200.0);
}

TEST_F(RaplControlTest, AsymmetricSocketCaps)
{
    // PUPiL's power distribution relies on per-socket zones acting
    // independently.
    std::vector<sched::AppDemand> apps = {
        {&workload::findBenchmark("swaptions"), 32}};
    sim::Platform platform(options(), apps);
    platform.warmStart(machine::maximalConfig());
    RaplController rapl;
    rapl.setSocketCap(0, 100.0, true);
    rapl.setSocketCap(1, 40.0, true);
    platform.addActor(&rapl);
    platform.run(6.0);
    EXPECT_LE(platform.trueSocketPower(0), 103.0);
    EXPECT_LE(platform.trueSocketPower(1), 42.5);
    // Socket 0 should be running meaningfully faster than socket 1.
    const auto eff = platform.machine().effectiveConfig(platform.now());
    EXPECT_GT(eff.pstate[0], eff.pstate[1]);
}

TEST_F(RaplControlTest, EnergyStatusTracksConsumption)
{
    std::vector<sched::AppDemand> apps = {
        {&workload::findBenchmark("swaptions"), 32}};
    sim::Platform platform(options(), apps);
    platform.warmStart(machine::maximalConfig());
    RaplController rapl;
    rapl.setTotalCapEvenSplit(140.0);
    platform.addActor(&rapl);
    platform.run(10.0);
    // ~70 W per socket for ~10 s => ~700 J per package counter.
    const double joules = rapl.msr(0).energyJoules();
    EXPECT_GT(joules, 500.0);
    EXPECT_LT(joules, 1000.0);
}

TEST_F(RaplControlTest, CapChangeAtRuntimeIsFollowed)
{
    std::vector<sched::AppDemand> apps = {
        {&workload::findBenchmark("blackscholes"), 32}};
    sim::Platform platform(options(), apps);
    platform.warmStart(machine::maximalConfig());
    RaplController rapl;
    rapl.setTotalCapEvenSplit(180.0);
    platform.addActor(&rapl);
    platform.run(4.0);
    EXPECT_LE(platform.truePower(), 184.0);
    rapl.setTotalCapEvenSplit(100.0);
    platform.run(8.0);
    EXPECT_LE(platform.truePower(), 103.0);
    EXPECT_GE(platform.truePower(), 85.0);
}

// Property sweep: RAPL respects every paper cap for a range of workloads.
class RaplCapSweep
    : public ::testing::TestWithParam<std::tuple<double, std::string>>
{
};

TEST_P(RaplCapSweep, SteadyPowerWithinTolerance)
{
    const auto [cap, appName] = GetParam();
    std::vector<sched::AppDemand> apps = {
        {&workload::findBenchmark(appName), 32}};
    sim::PlatformOptions opts;
    opts.seed = 7;
    sim::Platform platform(opts, apps);
    platform.warmStart(machine::maximalConfig());
    RaplController rapl;
    rapl.setTotalCapEvenSplit(cap);
    platform.addActor(&rapl);
    platform.run(6.0);
    EXPECT_LE(platform.truePower(), cap + std::max(0.02 * cap, 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    CapsTimesApps, RaplCapSweep,
    ::testing::Combine(::testing::Values(60.0, 100.0, 140.0, 180.0, 220.0),
                       ::testing::Values("swaptions", "STREAM", "dijkstra",
                                         "x264")));

}  // namespace
}  // namespace pupil::rapl
