#include "load_driver.h"

#include <algorithm>
#include <cassert>

#include "sim/platform.h"
#include "trace/trace.h"

namespace pupil::load {

LoadDriver::LoadDriver(const Options& options, size_t firstSlot,
                       uint64_t seed)
    : options_(options),
      firstSlot_(firstSlot),
      generator_(options.spec, seed),
      queue_(options.queueCapacityPerTier),
      arbiter_(options.arbiter)
{
    options_.slots = std::max<size_t>(options_.slots, 1);
    options_.driverPeriodSec = std::max(options_.driverPeriodSec, 1e-3);
    options_.arbiterPeriodSec =
        std::max(options_.arbiterPeriodSec, options_.driverPeriodSec);
    slots_.resize(options_.slots);
    // Until the first arbitration every tier may use the whole block.
    limit_.fill(int(options_.slots));
}

int
LoadDriver::freeSlot() const
{
    for (size_t s = 0; s < slots_.size(); ++s) {
        if (!slots_[s].busy)
            return int(s);
    }
    return -1;
}

void
LoadDriver::onStart(sim::Platform& platform)
{
    (void)platform;
    assert(governor_ != nullptr &&
           "attachGovernor must be called before the run");
    nextArbiterSec_ = 0.0;
}

void
LoadDriver::reapCompletions(sim::Platform& platform, double now)
{
    for (size_t s = 0; s < slots_.size(); ++s) {
        Slot& slot = slots_[s];
        if (!slot.busy)
            continue;
        const size_t app = firstSlot_ + s;
        const double doneAt = platform.completionTime(app);
        if (doneAt < 0.0)
            continue;
        const double latency = doneAt - slot.job.arriveSec;
        const bool violated =
            tracker_.onComplete(slot.job.tier, latency, slot.job.sloSec);
        trace::emit(platform.trace(), now, trace::EventKind::kJobComplete,
                    latency, slot.job.sloSec, int32_t(slot.job.tier),
                    violated ? 1 : 0);
        platform.metrics().addCounter("load.jobs_completed");
        platform.metrics().observe("load.latency_sec", latency);
        if (violated) {
            trace::emit(platform.trace(), now,
                        trace::EventKind::kSloViolation, latency,
                        slot.job.sloSec, int32_t(slot.job.tier),
                        int32_t(app));
            platform.metrics().addCounter("load.slo_violations");
        }
        const size_t tier = size_t(slot.job.tier);
        running_[tier] = std::max(0, running_[tier] - 1);
        runningWork_[tier] =
            std::max(0.0, runningWork_[tier] - slot.job.workItems);
        platform.releaseAppSlot(app);
        slot.busy = false;
    }
}

void
LoadDriver::ingestArrivals(sim::Platform& platform, double now)
{
    while (generator_.peekArriveSec() <= now) {
        const TenantJob job = generator_.next();
        tracker_.onArrive(job.tier);
        platform.metrics().addCounter("load.jobs_arrived");
        const bool queued = queue_.push(job);
        trace::emit(platform.trace(), now, trace::EventKind::kJobArrive,
                    job.workItems, job.sloSec, int32_t(job.tier),
                    int32_t(queue_.depth(job.tier)));
        if (!queued) {
            // Open-loop shedding: a full tier ring drops the arrival,
            // which scores as a violation (the tenant was not served).
            tracker_.onDrop(job.tier);
            platform.metrics().addCounter("load.jobs_dropped");
            trace::emit(platform.trace(), now,
                        trace::EventKind::kSloViolation, 0.0, job.sloSec,
                        int32_t(job.tier), -1);
            platform.metrics().addCounter("load.slo_violations");
        }
    }
}

void
LoadDriver::arbitrate(sim::Platform& platform, double now)
{
    if (now + 1e-12 < nextArbiterSec_)
        return;
    nextArbiterSec_ = now + options_.arbiterPeriodSec;

    std::array<double, kTierCount> demand;
    for (int t = 0; t < kTierCount; ++t)
        demand[size_t(t)] =
            queue_.queuedWork(Tier(t)) + runningWork_[size_t(t)];
    grants_ = arbiter_.split(governor_->cap(), demand);

    // Grants -> per-tier concurrency limits over the slot block, by
    // largest remainder so the limits sum to the block size exactly.
    double grantSum = 0.0;
    for (const double g : grants_)
        grantSum += g;
    if (grantSum <= 0.0) {
        limit_.fill(int(options_.slots));
    } else {
        std::array<double, kTierCount> frac;
        int assigned = 0;
        for (int t = 0; t < kTierCount; ++t) {
            const double ideal =
                double(options_.slots) * grants_[size_t(t)] / grantSum;
            limit_[size_t(t)] = int(ideal);
            frac[size_t(t)] = ideal - double(limit_[size_t(t)]);
            assigned += limit_[size_t(t)];
        }
        // Leftover slots go to the largest fractional share; ties break
        // toward the higher-priority (lower-index) tier.
        while (assigned < int(options_.slots)) {
            int best = 0;
            for (int t = 1; t < kTierCount; ++t) {
                if (frac[size_t(t)] > frac[size_t(best)] + 1e-12)
                    best = t;
            }
            frac[size_t(best)] = -1.0;
            ++limit_[size_t(best)];
            ++assigned;
        }
        // A granted tier is never limited to zero slots: the floor
        // guarantee must survive quantization.
        for (int t = 0; t < kTierCount; ++t) {
            if (grants_[size_t(t)] > 0.0)
                limit_[size_t(t)] = std::max(limit_[size_t(t)], 1);
        }
    }
    telemetry::MetricsRegistry& metrics = platform.metrics();
    metrics.setGauge("load.grant.gold", grants_[0]);
    metrics.setGauge("load.grant.silver", grants_[1]);
    metrics.setGauge("load.grant.bronze", grants_[2]);
    metrics.setGauge("load.queue_depth", double(queue_.totalDepth()));
}

bool
LoadDriver::bindNext(sim::Platform& platform, double now, Tier tier)
{
    const int s = freeSlot();
    if (s < 0)
        return false;
    TenantJob job;
    if (!queue_.pop(tier, job))
        return false;
    Slot& slot = slots_[size_t(s)];
    slot.busy = true;
    slot.job = job;
    slot.startSec = now;
    platform.bindAppSlot(firstSlot_ + size_t(s), job.params, job.threads,
                         job.workItems);
    tracker_.onAdmit(tier, now - job.arriveSec);
    ++running_[size_t(tier)];
    runningWork_[size_t(tier)] += job.workItems;
    return true;
}

void
LoadDriver::admit(sim::Platform& platform, double now)
{
    // Strict pass: per-tier concurrency limits from the arbiter grants,
    // highest priority first -- under contention gold's floor translates
    // into guaranteed slots.
    for (int t = 0; t < kTierCount; ++t) {
        const Tier tier = Tier(t);
        while (running_[size_t(t)] < limit_[size_t(t)] &&
               queue_.depth(tier) > 0) {
            if (!bindNext(platform, now, tier))
                return;
        }
    }
    // Work-conserving pass: spare slots are never left idle while work
    // is queued (the limits only bite when tiers actually contend).
    for (int t = 0; t < kTierCount; ++t) {
        const Tier tier = Tier(t);
        while (queue_.depth(tier) > 0) {
            if (!bindNext(platform, now, tier))
                return;
        }
    }
}

void
LoadDriver::onTick(sim::Platform& platform, double now)
{
    reapCompletions(platform, now);
    ingestArrivals(platform, now);
    arbitrate(platform, now);
    admit(platform, now);
}

void
LoadDriver::finish(sim::Platform& platform)
{
    assert(!finished_ && "finish() must run exactly once");
    finished_ = true;
    const double now = platform.now();
    // Completions that landed between the last driver tick and the end
    // of the run still count as completions, not abandonments.
    reapCompletions(platform, now);

    // In-flight and queued jobs already past their SLO can never meet
    // it: score them as abandoned violations with their right-censored
    // latency. Jobs still inside their SLO window are left unscored (an
    // open-loop run always truncates some tail work).
    for (Slot& slot : slots_) {
        if (!slot.busy)
            continue;
        const double age = now - slot.job.arriveSec;
        if (age > slot.job.sloSec) {
            tracker_.onAbandon(slot.job.tier, age);
            trace::emit(platform.trace(), now,
                        trace::EventKind::kSloViolation, age,
                        slot.job.sloSec, int32_t(slot.job.tier), -2);
            platform.metrics().addCounter("load.slo_violations");
        }
    }
    for (int t = 0; t < kTierCount; ++t) {
        const Tier tier = Tier(t);
        TenantJob job;
        while (queue_.depth(tier) > 0 &&
               now - queue_.front(tier).arriveSec >
                   queue_.front(tier).sloSec) {
            queue_.pop(tier, job);
            tracker_.onAbandon(tier, now - job.arriveSec);
            trace::emit(platform.trace(), now,
                        trace::EventKind::kSloViolation,
                        now - job.arriveSec, job.sloSec, int32_t(tier),
                        -3);
            platform.metrics().addCounter("load.slo_violations");
        }
    }
    tracker_.publish(platform.metrics());
}

}  // namespace pupil::load
