#include "platform.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pupil::sim {

namespace {

util::Rng
seededRng(uint64_t seed, uint64_t stream)
{
    util::Rng root(seed);
    for (uint64_t i = 0; i < stream; ++i)
        root = root.split();
    return root.split();
}

}  // namespace

Platform::Platform(const PlatformOptions& options,
                   std::vector<sched::AppDemand> apps)
    : options_(options),
      injector_(options.faultSpec.empty()
                    ? nullptr
                    : std::make_unique<faults::FaultInjector>(
                          faults::FaultSchedule::parse(options.faultSpec),
                          seededRng(options.seed, 5).next())),
      machine_(),
      powerModel_(options.powerParams),
      scheduler_(options.mcBandwidthGBs),
      solveCache_(sched::SolveCache::envDisabled()
                      ? 0
                      : options.solveCacheCapacity),
      apps_(std::move(apps)),
      powerLag_{telemetry::FirstOrderLag(options.powerLagTau),
                telemetry::FirstOrderLag(options.powerLagTau)},
      ipsLag_(options.perfLagTau),
      bwLag_(options.perfLagTau),
      spinLag_(options.perfLagTau),
      busyLag_(options.perfLagTau),
      powerMeter_(options.powerNoise, seededRng(options.seed, 1)),
      perfMeter_(options.perfNoise, seededRng(options.seed, 2)),
      raplMeter_{telemetry::NoisySensor(options.raplNoise,
                                        seededRng(options.seed, 3)),
                 telemetry::NoisySensor(options.raplNoise,
                                        seededRng(options.seed, 4))}
{
    if (injector_ != nullptr)
        machine_.attachFaults(injector_.get());
    itemLags_.assign(apps_.size(),
                     telemetry::FirstOrderLag(options.perfLagTau));
    laggedItems_.assign(apps_.size(), 0.0);
    appItems_.assign(apps_.size(), 0.0);
    cumItems_.assign(apps_.size(), 0.0);
    workItems_.assign(apps_.size(), 0.0);
    completionTime_.assign(apps_.size(), -1.0);

    // Solo reference rates: each app alone in the maximal configuration,
    // used to normalize the aggregate performance signal.
    soloRef_.assign(apps_.size(), 1.0);
    const machine::MachineConfig maxCfg = machine::maximalConfig();
    for (size_t i = 0; i < apps_.size(); ++i) {
        if (apps_[i].threads <= 0 || apps_[i].params == nullptr)
            continue;
        const sched::SystemOutcome solo =
            scheduler_.solve(maxCfg, {1.0, 1.0}, {apps_[i]});
        soloRef_[i] = std::max(solo.apps[0].itemsPerSec, 1e-12);
    }
    resolveSteadyState();
}

void
Platform::addActor(Actor* actor)
{
    assert(!started_);
    actors_.push_back({actor, 0.0});
}

void
Platform::attachTrace(trace::Recorder* recorder)
{
    trace_ = recorder;
    if (injector_ != nullptr)
        injector_->attachTrace(recorder);
}

void
Platform::warmStart(const machine::MachineConfig& cfg)
{
    machine_.requestConfig(cfg, now_ - 1.0);
    resolveSteadyState();
    // Jump lags and observables to the new steady state (pre-run only).
    laggedTotalPower_ = 0.0;
    for (int s = 0; s < 2; ++s) {
        powerLag_[s].reset(steadySocketPower_[s]);
        laggedSocketPower_[s] = steadySocketPower_[s];
        laggedTotalPower_ += steadySocketPower_[s];
    }
    for (size_t i = 0; i < apps_.size(); ++i) {
        itemLags_[i].reset(steady_.apps[i].itemsPerSec);
        laggedItems_[i] = steady_.apps[i].itemsPerSec;
    }
    ipsLag_.reset(steady_.totalIps);
    bwLag_.reset(steady_.totalBytesPerSec);
}

void
Platform::resolveSteadyState()
{
    const machine::MachineConfig cfg = machine_.effectiveConfig(now_);
    const std::array<double, 2> duty = {machine_.dutyCycle(0, now_),
                                        machine_.dutyCycle(1, now_)};
    if (cfg == steadyCfg_ && duty == steadyDuty_ &&
        appsVersion_ == steadyAppsVersion_) {
        return;
    }
    // The cache keys app params by identity; appsVersion_ is the epoch
    // that invalidates entries whenever the app set changes.
    solveCache_.setAppsEpoch(appsVersion_);
    const bool hit =
        solveCache_.solve(scheduler_, cfg, duty, apps_, solveScratch_,
                          steady_);
    metrics_.addCounter(hit ? "sched.solve_cache.hits"
                            : "sched.solve_cache.misses");
    steadyCfg_ = cfg;
    steadyDuty_ = duty;
    steadyAppsVersion_ = appsVersion_;
    for (int s = 0; s < 2; ++s) {
        steadySocketPower_[s] =
            powerModel_.socketPower(cfg, s, steady_.loads[s], duty[s]);
    }
    // A fresh allocation is in force: the effective configuration (or its
    // duty cycle) changed and the scheduler re-placed every thread.
    trace::emit(trace_, now_, trace::EventKind::kAllocApplied,
                cfg.pstate[0], cfg.pstate[1], cfg.activeCores(0),
                cfg.activeCores(1));
    metrics_.addCounter("sched.resolves");
}

void
Platform::solveCached(const machine::MachineConfig& cfg,
                      const std::array<double, 2>& duty,
                      const std::vector<sched::AppDemand>& apps,
                      sched::SystemOutcome& out)
{
    solveCache_.setAppsEpoch(appsVersion_);
    const bool hit =
        solveCache_.solve(scheduler_, cfg, duty, apps, solveScratch_, out);
    metrics_.addCounter(hit ? "sched.solve_cache.hits"
                            : "sched.solve_cache.misses");
}

double
Platform::readPower()
{
    const double measured = powerMeter_.sample(laggedTotalPower_);
    if (injector_ == nullptr)
        return measured;
    return injector_->sensorSample(faults::SensorChannel::kPower, measured,
                                   now_);
}

double
Platform::readPerformance()
{
    double aggregate = 0.0;
    for (size_t i = 0; i < apps_.size(); ++i)
        aggregate += laggedItems_[i] / soloRef_[i];
    const double measured = perfMeter_.sample(aggregate);
    if (injector_ == nullptr)
        return measured;
    return injector_->sensorSample(faults::SensorChannel::kPerf, measured,
                                   now_);
}

double
Platform::readSocketPowerEstimate(int socket)
{
    assert(socket >= 0 && socket < 2);
    // The firmware's event-count-based estimator tracks the package's
    // electrical power essentially instantaneously; only the external
    // meter channel sees the thermal/measurement lag.
    const double measured = raplMeter_[socket].sample(
        steadySocketPower_[socket]);
    if (injector_ == nullptr)
        return measured;
    return injector_->sensorSample(socket == 0
                                       ? faults::SensorChannel::kRaplSocket0
                                       : faults::SensorChannel::kRaplSocket1,
                                   measured, now_);
}

void
Platform::setAppThreads(size_t i, int threads)
{
    assert(i < apps_.size());
    apps_[i].threads = threads;
    ++appsVersion_;
}

void
Platform::setAppWorkItems(size_t i, double items)
{
    assert(i < apps_.size());
    workItems_[i] = items;
}

void
Platform::bindAppSlot(size_t i, const workload::AppParams* params,
                      int threads, double workItems)
{
    assert(i < apps_.size());
    assert(params != nullptr && threads > 0 && workItems > 0.0);
    apps_[i].params = params;
    apps_[i].threads = threads;
    workItems_[i] = workItems;
    cumItems_[i] = 0.0;
    appItems_[i] = 0.0;
    completionTime_[i] = -1.0;
    // A fresh job starts cold; its rate lags toward steady state just
    // like the warm-up of a statically configured app.
    itemLags_[i].reset(0.0);
    laggedItems_[i] = 0.0;
    ++appsVersion_;

    // Solo reference for the normalized performance signal; member
    // buffers keep the re-solve off the heap once warm.
    soloDemand_.resize(1);
    soloDemand_[0] = apps_[i];
    scheduler_.solve(machine::maximalConfig(), {1.0, 1.0}, soloDemand_,
                     solveScratch_, soloOut_);
    soloRef_[i] = std::max(soloOut_.apps[0].itemsPerSec, 1e-12);
}

void
Platform::releaseAppSlot(size_t i)
{
    assert(i < apps_.size());
    apps_[i].threads = 0;
    workItems_[i] = 0.0;
    completionTime_[i] = -1.0;
    ++appsVersion_;
}

bool
Platform::allComplete() const
{
    for (size_t i = 0; i < apps_.size(); ++i) {
        if (workItems_[i] > 0.0 && completionTime_[i] < 0.0)
            return false;
    }
    return true;
}

void
Platform::resetStatsWindow()
{
    energy_.reset();
    counters_.reset();
    std::fill(appItems_.begin(), appItems_.end(), 0.0);
}

double
Platform::capViolationSec(double cap) const
{
    const double limit = cap + std::max(0.02 * cap, 1.0);
    double seconds = 0.0;
    for (const auto& pt : powerTrace_) {
        if (pt.value > limit)
            seconds += options_.traceResolutionSec;
    }
    return seconds;
}

void
Platform::reserveTraces(double untilSec)
{
    const size_t buckets =
        size_t(std::max(0.0, untilSec) / options_.traceResolutionSec) + 2;
    powerTrace_.reserve(buckets);
    perfTrace_.reserve(buckets);
}

void
Platform::run(double untilSec)
{
    reserveTraces(untilSec);
    if (!started_) {
        started_ = true;
        for (auto& reg : actors_) {
            reg.actor->onStart(*this);
            reg.nextDue = now_;
        }
    }
    while (now_ < untilSec - 1e-12)
        tick();
}

void
Platform::tick()
{
    const double dt = options_.tickSec;

    if (injector_ != nullptr) {
        // Publish the clock for boundaries without a time parameter (the
        // MSR file) and surface newly entered fault windows.
        injector_->setNow(now_);
        const uint64_t activated = injector_->eventsActivated();
        if (activated != injectorActivatedSeen_) {
            counters_.addFaultsInjected(activated - injectorActivatedSeen_);
            metrics_.addCounter("faults.activated",
                                activated - injectorActivatedSeen_);
        }
        injectorActivatedSeen_ = activated;
    }

    resolveSteadyState();

    // Advance lagged observables toward the steady-state solution.
    double totalPower = 0.0;
    for (int s = 0; s < 2; ++s) {
        laggedSocketPower_[s] = powerLag_[s].step(steadySocketPower_[s], dt);
        totalPower += laggedSocketPower_[s];
    }
    laggedTotalPower_ = totalPower;
    double aggregate = 0.0;
    for (size_t i = 0; i < apps_.size(); ++i) {
        laggedItems_[i] = itemLags_[i].step(steady_.apps[i].itemsPerSec, dt);
        aggregate += laggedItems_[i] / soloRef_[i];
        appItems_[i] += laggedItems_[i] * dt;
        cumItems_[i] += laggedItems_[i] * dt;
        // Finite-work apps exit once their work is done, releasing their
        // threads (and their spinning) back to the system.
        if (workItems_[i] > 0.0 && completionTime_[i] < 0.0 &&
            cumItems_[i] >= workItems_[i]) {
            completionTime_[i] = now_;
            apps_[i].threads = 0;
            ++appsVersion_;
            trace::emit(trace_, now_, trace::EventKind::kAppComplete, now_,
                        0.0, int32_t(i));
            metrics_.addCounter("sched.app_completions");
        }
    }
    const double ips = ipsLag_.step(steady_.totalIps, dt);
    const double bw = bwLag_.step(steady_.totalBytesPerSec, dt);
    double spinTarget = 0.0;
    for (const auto& app : steady_.apps)
        spinTarget += app.spinCtx;
    const double spin = spinLag_.step(spinTarget, dt);
    double busyTarget = 0.0;
    for (const auto& load : steady_.loads)
        busyTarget += load.busyPrimary + load.busySibling;
    const double busy = busyLag_.step(busyTarget, dt);

    energy_.add(laggedTotalPower_, aggregate, dt);
    counters_.add(ips, bw, spin, busy, dt);

    // Trace bucketing.
    bucketPowerSum_ += laggedTotalPower_;
    bucketPerfSum_ += aggregate;
    ++bucketCount_;
    if (now_ + dt - bucketStart_ >= options_.traceResolutionSec - 1e-12) {
        const double t = bucketStart_ + options_.traceResolutionSec / 2.0;
        powerTrace_.push_back({t, bucketPowerSum_ / bucketCount_});
        perfTrace_.push_back({t, bucketPerfSum_ / bucketCount_});
        metrics_.observe("platform.power_watts",
                         bucketPowerSum_ / bucketCount_);
        metrics_.observe("platform.perf_normalized",
                         bucketPerfSum_ / bucketCount_);
        bucketStart_ = now_ + dt;
        bucketPowerSum_ = bucketPerfSum_ = 0.0;
        bucketCount_ = 0;
    }

    // Wake due actors.
    for (auto& reg : actors_) {
        if (now_ + 1e-12 >= reg.nextDue) {
            reg.actor->onTick(*this, now_);
            reg.nextDue = now_ + std::max(reg.actor->periodSec(), dt);
        }
    }

    now_ += dt;
}

}  // namespace pupil::sim
