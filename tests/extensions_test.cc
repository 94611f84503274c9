/** @file Tests for the Pack&Cap governor, the extension baseline the
 *  paper cites (thread packing plus DVFS). */
#include <gtest/gtest.h>

#include "capping/pack_and_cap.h"
#include "capping/soft_dvfs.h"
#include "harness/experiment.h"
#include "rapl/rapl.h"
#include "sim/platform.h"

namespace pupil {
namespace {

TEST(PackAndCap, ConfigForPacksGreedily)
{
    using capping::PackAndCap;
    const auto one = PackAndCap::configFor(1, 5);
    EXPECT_EQ(one.totalContexts(), 1);
    EXPECT_EQ(one.sockets, 1);
    const auto eight = PackAndCap::configFor(8, 5);
    EXPECT_EQ(eight.totalContexts(), 8);
    EXPECT_EQ(eight.sockets, 1);
    const auto twelve = PackAndCap::configFor(12, 5);
    EXPECT_EQ(twelve.sockets, 2);
    EXPECT_FALSE(twelve.hyperthreading);
    const auto thirty = PackAndCap::configFor(30, 5);
    EXPECT_TRUE(thirty.hyperthreading);
    EXPECT_EQ(thirty.totalContexts(), 32);
    for (int k = 1; k <= 32; ++k)
        EXPECT_TRUE(PackAndCap::configFor(k, 0).valid()) << k;
}

TEST(PackAndCap, MeetsCapAndBeatsDvfsOnlyOnKmeans)
{
    // Pack & Cap's whole point: thread packing plus DVFS beats DVFS alone
    // for applications that dislike wide allocations.
    const auto apps = harness::singleApp("kmeans");
    sim::PlatformOptions options;
    options.seed = 17;

    auto run = [&](capping::Governor& governor) {
        sim::Platform platform(options, apps);
        platform.warmStart(machine::maximalConfig());
        rapl::RaplController rapl;
        governor.attachRapl(&rapl);
        governor.setCap(140.0);
        platform.addActor(&rapl);
        platform.addActor(&governor);
        platform.run(120.0);
        platform.resetStatsWindow();
        platform.run(180.0);
        return std::pair<double, double>(
            platform.energy().meanItemsPerSec(),
            platform.energy().meanPower());
    };

    capping::PackAndCap packAndCap;
    const auto [packPerf, packPower] = run(packAndCap);
    capping::SoftDvfs softDvfs;
    const auto [dvfsPerf, dvfsPower] = run(softDvfs);

    EXPECT_LE(packPower, 143.0);
    EXPECT_GT(packPerf, dvfsPerf * 1.3);
}

}  // namespace
}  // namespace pupil
