/** @file End-to-end integration tests: the paper's headline claims must
 *  hold on the simulated platform. */
#include <gtest/gtest.h>

#include "capping/oracle.h"
#include "core/pupil.h"
#include "harness/experiment.h"
#include "machine/power_model.h"
#include "sched/scheduler.h"
#include "workload/catalog.h"

namespace pupil {
namespace {

using harness::ExperimentOptions;
using harness::GovernorKind;
using harness::runExperiment;
using harness::singleApp;

ExperimentOptions
options(double cap, double duration = 150.0, double window = 60.0)
{
    ExperimentOptions opts;
    opts.capWatts = cap;
    opts.durationSec = duration;
    opts.statsWindowSec = window;
    return opts;
}

TEST(Integration, EveryGovernorRespectsTheCapInSteadyState)
{
    for (auto kind : harness::allGovernors()) {
        if (kind == GovernorKind::kSoftModeling)
            continue;  // no feedback: exempt by design (see paper 5.1)
        const auto result = runExperiment(kind, singleApp("bodytrack"),
                                          options(140.0, 90.0, 30.0));
        EXPECT_LE(result.meanPowerWatts, 143.0) << result.governor;
    }
}

TEST(Integration, TimelinessOrderingMatchesFig4)
{
    // RAPL ~ PUPiL << Soft-DVFS << Soft-Decision (paper Section 5.3).
    const auto opts = options(140.0, 120.0, 30.0);
    const auto rapl =
        runExperiment(GovernorKind::kRapl, singleApp("x264"), opts);
    const auto pupil =
        runExperiment(GovernorKind::kPupil, singleApp("x264"), opts);
    const auto dvfs =
        runExperiment(GovernorKind::kSoftDvfs, singleApp("x264"), opts);
    const auto decision =
        runExperiment(GovernorKind::kSoftDecision, singleApp("x264"), opts);

    EXPECT_LT(rapl.settlingTimeSec, 1.0);
    EXPECT_LT(pupil.settlingTimeSec, rapl.settlingTimeSec * 3.0 + 0.5);
    EXPECT_GT(dvfs.settlingTimeSec, rapl.settlingTimeSec * 2.0);
    EXPECT_GT(decision.settlingTimeSec, dvfs.settlingTimeSec * 2.0);
}

TEST(Integration, PupilBeatsRaplOnX264At140W)
{
    // The Section 2 motivational example: ~20% more throughput once the
    // multi-resource approach figures out hyperthreads hurt x264.
    const auto opts = options(140.0, 200.0, 80.0);
    const auto rapl =
        runExperiment(GovernorKind::kRapl, singleApp("x264"), opts);
    const auto pupil =
        runExperiment(GovernorKind::kPupil, singleApp("x264"), opts);
    EXPECT_GT(pupil.aggregatePerf, rapl.aggregatePerf * 1.05);
}

TEST(Integration, PupilMoreThanDoublesKmeans)
{
    // Section 5.2: for kmeans and dijkstra "the gains can be over 2x".
    const auto opts = options(140.0, 200.0, 80.0);
    const auto rapl =
        runExperiment(GovernorKind::kRapl, singleApp("kmeans"), opts);
    const auto pupil =
        runExperiment(GovernorKind::kPupil, singleApp("kmeans"), opts);
    EXPECT_GT(pupil.aggregatePerf, rapl.aggregatePerf * 2.0);
}

TEST(Integration, RaplNearOptimalForScalableApps)
{
    // Blue applications: RAPL within ~10% of optimal at 140 W (Fig. 5).
    const machine::PowerModel pm;
    const sched::Scheduler sched;
    for (const char* name : {"blackscholes", "swaptions", "btree"}) {
        const auto apps = singleApp(name);
        const auto oracle = capping::searchOptimal(sched, pm, apps, 140.0);
        const auto rapl = runExperiment(GovernorKind::kRapl, apps,
                                        options(140.0, 90.0, 40.0));
        EXPECT_GT(rapl.aggregatePerf / oracle.aggregatePerf, 0.85) << name;
    }
}

TEST(Integration, RaplFarFromOptimalForProblemApps)
{
    const machine::PowerModel pm;
    const sched::Scheduler sched;
    for (const char* name : {"kmeans", "dijkstra", "ScalParC"}) {
        const auto apps = singleApp(name);
        const auto oracle = capping::searchOptimal(sched, pm, apps, 140.0);
        const auto rapl = runExperiment(GovernorKind::kRapl, apps,
                                        options(140.0, 90.0, 40.0));
        EXPECT_LT(rapl.aggregatePerf / oracle.aggregatePerf, 0.80) << name;
    }
}

TEST(Integration, PupilNeverLosesBadlyToRapl)
{
    // Across a spread of apps and caps, PUPiL's converged throughput is at
    // least RAPL's (within noise) -- the hybrid inherits software's
    // flexibility without hardware's blind spots.
    for (const char* name : {"jacobi", "cfd", "vips", "swish++"}) {
        const auto opts = options(100.0, 200.0, 80.0);
        const auto rapl = runExperiment(GovernorKind::kRapl,
                                        singleApp(name), opts);
        const auto pupil = runExperiment(GovernorKind::kPupil,
                                         singleApp(name), opts);
        EXPECT_GT(pupil.aggregatePerf, rapl.aggregatePerf * 0.95) << name;
    }
}

TEST(Integration, ObliviousMixShowsSpinPathologyUnderRapl)
{
    // Table 6: under RAPL the oblivious spin mixes burn a large share of
    // cycles spinning; PUPiL's resource throttling plus earlier
    // completions keep both spin and runtime lower.
    const auto& mix = workload::findMix("mix8");
    const auto apps =
        harness::mixApps(mix, workload::Scenario::kOblivious);
    const machine::PowerModel pm;
    const sched::Scheduler sched;
    ExperimentOptions opts;
    opts.capWatts = 140.0;
    for (const auto& app : apps) {
        const auto oracle = capping::searchOptimal(sched, pm, {app}, 140.0);
        opts.workItems.push_back(oracle.appItemsPerSec[0] * 120.0);
    }
    const auto rapl = runExperiment(GovernorKind::kRapl, apps, opts);
    const auto pupil = runExperiment(GovernorKind::kPupil, apps, opts);

    EXPECT_GT(rapl.spinPercent, 25.0);
    // Weighted speedup: PUPiL completes the mix meaningfully faster.
    double wsRapl = 0.0;
    double wsPupil = 0.0;
    for (size_t i = 0; i < apps.size(); ++i) {
        wsRapl += 120.0 / rapl.completionTimes[i];
        wsPupil += 120.0 / pupil.completionTimes[i];
    }
    EXPECT_GT(wsPupil, wsRapl * 1.15);
}

TEST(Integration, EnergyEfficiencyFollowsPerformance)
{
    // Section 5.5: by raising performance under the same cap, PUPiL also
    // delivers more work per joule than RAPL.
    const auto opts = options(140.0, 200.0, 80.0);
    const auto rapl =
        runExperiment(GovernorKind::kRapl, singleApp("kmeans"), opts);
    const auto pupil =
        runExperiment(GovernorKind::kPupil, singleApp("kmeans"), opts);
    EXPECT_GT(pupil.perfPerJoule, rapl.perfPerJoule * 1.05);
}

TEST(Integration, DynamicCapDropIsReEnforced)
{
    // A power emergency: the cap drops mid-run; hardware re-clamps within
    // a second under PUPiL.
    std::vector<sched::AppDemand> apps = singleApp("swaptions");
    sim::PlatformOptions popts;
    popts.seed = 31;
    sim::Platform platform(popts, apps);
    platform.warmStart(machine::maximalConfig());
    rapl::RaplController rapl;
    auto pupil = harness::makeGovernor(GovernorKind::kPupil);
    pupil->attachRapl(&rapl);
    pupil->setCap(180.0);
    platform.addActor(&rapl);
    platform.addActor(pupil.get());
    platform.run(60.0);
    EXPECT_LE(platform.truePower(), 184.0);
    // Emergency: drop to 100 W through the hardware interface.
    rapl.setTotalCapEvenSplit(100.0);
    platform.run(62.0);
    EXPECT_LE(platform.truePower(), 103.0);
}

TEST(Integration, PupilReWalksAfterPersistentWorkloadChange)
{
    // A drastic, persistent workload change must re-trigger the decision
    // walk (the paper's continually-repeating observe-decide-act loop):
    // after convergence the app drops from 32 threads to 2, so measured
    // performance falls far outside the monitor's drift band while power
    // only falls -- the re-walk can come from the drift check alone.
    sim::PlatformOptions popts;
    popts.seed = 11;
    sim::Platform platform(popts, singleApp("blackscholes"));
    platform.warmStart(machine::maximalConfig());
    rapl::RaplController rapl;
    core::Pupil pupil;
    pupil.attachRapl(&rapl);
    pupil.setCap(140.0);
    platform.addActor(&rapl);
    platform.addActor(&pupil);

    platform.run(110.0);
    ASSERT_TRUE(pupil.converged());
    const int walksBefore = pupil.walker()->walkCount();
    platform.setAppThreads(0, 2);
    platform.run(220.0);
    EXPECT_GT(pupil.walker()->walkCount(), walksBefore);
}

}  // namespace
}  // namespace pupil
