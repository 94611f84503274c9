#include "budget_policy.h"

#include <algorithm>
#include <cmath>

namespace pupil::cluster {

// The kernels below are the ONLY implementation of the per-level grant
// arithmetic. They stream over the packed lanes in index order, with the
// exact operation sequence the original ChildBudget loops used, so the
// AoS adapters at the bottom of this file -- and therefore every pinned
// golden digest -- are bit-identical to the pre-SoA code.

void
BudgetPool::resize(size_t n)
{
    capWatts.resize(n, 0.0);
    powerWatts.resize(n, 0.0);
    maxCapWatts.resize(n, kUnboundedWatts);
    minShareWatts.resize(n, 0.0);
    online.resize(n, 0);
    weightScratch.resize(n, 0.0);
}

void
BudgetPool::assign(const std::vector<ChildBudget>& children)
{
    resize(children.size());
    for (size_t i = 0; i < children.size(); ++i) {
        capWatts[i] = children[i].capWatts;
        powerWatts[i] = children[i].powerWatts;
        maxCapWatts[i] = children[i].maxCapWatts;
        minShareWatts[i] = children[i].minShareWatts;
        online[i] = children[i].online ? 1 : 0;
    }
}

void
BudgetPool::storeCaps(std::vector<ChildBudget>& children) const
{
    for (size_t i = 0; i < children.size(); ++i) {
        children[i].capWatts = capWatts[i];
        children[i].online = online[i] != 0;
    }
}

double
onlineCapSum(const BudgetPool& pool)
{
    double sum = 0.0;
    for (size_t i = 0; i < pool.size(); ++i) {
        if (pool.online[i])
            sum += pool.capWatts[i];
    }
    return sum;
}

size_t
onlineCount(const BudgetPool& pool)
{
    size_t count = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
        if (pool.online[i])
            ++count;
    }
    return count;
}

double
conservationError(const BudgetPool& pool, double budget)
{
    double ceilingSum = 0.0;
    bool anyOnline = false;
    for (size_t i = 0; i < pool.size(); ++i) {
        if (!pool.online[i])
            continue;
        anyOnline = true;
        ceilingSum += pool.maxCapWatts[i];
    }
    if (!anyOnline)
        return 0.0;
    const double grantable = std::min(budget, ceilingSum);
    return std::abs(onlineCapSum(pool) - grantable);
}

double
clampToCeilings(BudgetPool& pool)
{
    double excess = 0.0;
    for (size_t i = 0; i < pool.size(); ++i) {
        if (!pool.online[i])
            continue;
        if (pool.capWatts[i] > pool.maxCapWatts[i]) {
            excess += pool.capWatts[i] - pool.maxCapWatts[i];
            pool.capWatts[i] = pool.maxCapWatts[i];
        }
    }
    if (excess <= 0.0)
        return 0.0;

    // Water-fill the excess into remaining ceiling headroom. One pass is
    // enough: each receiver gets at most its own room because the placed
    // total never exceeds the total room.
    double room = 0.0;
    for (size_t i = 0; i < pool.size(); ++i) {
        if (pool.online[i])
            room += pool.maxCapWatts[i] - pool.capWatts[i];
    }
    if (room <= 0.0)
        return excess;  // every online child at its ceiling: unplaceable
    const double placed = std::min(excess, room);
    for (size_t i = 0; i < pool.size(); ++i) {
        if (!pool.online[i])
            continue;
        pool.capWatts[i] +=
            placed * (pool.maxCapWatts[i] - pool.capWatts[i]) / room;
    }
    return excess - placed;
}

void
enforceFloor(BudgetPool& pool)
{
    double deficit = 0.0;
    double surplus = 0.0;
    for (size_t i = 0; i < pool.size(); ++i) {
        if (!pool.online[i])
            continue;
        if (pool.capWatts[i] < pool.minShareWatts[i])
            deficit += pool.minShareWatts[i] - pool.capWatts[i];
        else
            surplus += pool.capWatts[i] - pool.minShareWatts[i];
    }
    if (deficit <= 0.0 || surplus <= 0.0)
        return;
    // Raise the poor toward their floor, funded proportionally from the
    // children above theirs. Sum-preserving; best effort when the online
    // sum cannot cover everyone's floor.
    const double take = std::min(deficit, surplus);
    for (size_t i = 0; i < pool.size(); ++i) {
        if (!pool.online[i])
            continue;
        if (pool.capWatts[i] < pool.minShareWatts[i])
            pool.capWatts[i] +=
                (pool.minShareWatts[i] - pool.capWatts[i]) * take / deficit;
        else
            pool.capWatts[i] -=
                (pool.capWatts[i] - pool.minShareWatts[i]) * take / surplus;
    }
}

double
rebalanceBudgets(BudgetPool& pool, const BudgetPolicy& policy)
{
    // Collect headroom (cap - consumption). Donors give away a fraction
    // of their headroom; the pot is granted to children at their cap,
    // proportionally to consumption (a proxy for demand). Offline
    // children hold no budget and take no part.
    double pot = 0.0;
    pool.weightScratch.assign(pool.size(), 0.0);
    double weightSum = 0.0;
    size_t online = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
        if (!pool.online[i])
            continue;
        ++online;
        const double power = pool.powerWatts[i];
        const double headroom = pool.capWatts[i] - power;
        const bool implausible = power < policy.minPlausiblePowerWatts;
        if (!implausible &&
            headroom > policy.headroomSlackFraction * pool.capWatts[i]) {
            const double donation =
                std::min(headroom * policy.donationFraction,
                         pool.capWatts[i] - pool.minShareWatts[i]);
            if (donation > 0.0) {
                pool.capWatts[i] -= donation;
                pot += donation;
            }
        } else {
            // Constrained -- or reading an implausible ~0 (dead meter,
            // frozen child). Floor the weight so a zero measurement can
            // never starve a child of grants forever.
            pool.weightScratch[i] =
                std::max(power, std::max(pool.minShareWatts[i], 1.0));
            weightSum += pool.weightScratch[i];
        }
    }
    if (pot <= 0.0 || online == 0)
        return 0.0;
    if (weightSum <= 0.0) {
        // Nobody is constrained: return the pot evenly.
        for (size_t i = 0; i < pool.size(); ++i) {
            if (pool.online[i])
                pool.capWatts[i] += pot / double(online);
        }
    } else {
        for (size_t i = 0; i < pool.size(); ++i) {
            if (pool.weightScratch[i] > 0.0)
                pool.capWatts[i] +=
                    pot * pool.weightScratch[i] / weightSum;
        }
    }
    // A grant above a child's TDP is budget it can never draw: clamp and
    // hand the excess to children that still have ceiling headroom.
    clampToCeilings(pool);
    return pot;
}

void
reshareBudgets(BudgetPool& pool, double budget,
               const std::vector<size_t>& rejoined)
{
    for (size_t i = 0; i < pool.size(); ++i) {
        if (!pool.online[i])
            pool.capWatts[i] = 0.0;
    }
    const size_t online = onlineCount(pool);
    if (online == 0)
        return;  // whole pool dark; budget re-granted at first rejoin

    const auto isRejoined = [&](size_t i) {
        return std::find(rejoined.begin(), rejoined.end(), i) !=
               rejoined.end();
    };

    // Survivors keep their relative shares (so shifting history is
    // preserved); rejoiners start from an even share of the budget.
    const double share = budget / double(online);
    double survivorSum = 0.0;
    size_t rejoinedOnline = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
        if (!pool.online[i])
            continue;
        if (isRejoined(i))
            ++rejoinedOnline;
        else
            survivorSum += pool.capWatts[i];
    }
    if (survivorSum <= 0.0) {
        for (size_t i = 0; i < pool.size(); ++i) {
            if (pool.online[i])
                pool.capWatts[i] = share;
        }
    } else {
        const double survivorBudget =
            budget - share * double(rejoinedOnline);
        const double factor = survivorBudget / survivorSum;
        for (size_t i = 0; i < pool.size(); ++i) {
            if (!pool.online[i])
                continue;
            if (isRejoined(i))
                pool.capWatts[i] = share;
            else
                pool.capWatts[i] *= factor;
        }
    }
    // Scaling survivors down to fund a rejoiner can push one below its
    // floor; re-impose it (and the ceilings) before the caps go out.
    enforceFloor(pool);
    clampToCeilings(pool);
}

void
evenShares(BudgetPool& pool, double budget)
{
    const size_t online = onlineCount(pool);
    for (size_t i = 0; i < pool.size(); ++i)
        pool.capWatts[i] = 0.0;
    if (online == 0)
        return;
    const double share = budget / double(online);
    for (size_t i = 0; i < pool.size(); ++i) {
        if (pool.online[i])
            pool.capWatts[i] = share;
    }
    clampToCeilings(pool);
}

// ---------------------------------------------------------------------------
// ChildBudget-vector adapters.
// ---------------------------------------------------------------------------

namespace {

// One pack/run/unpack scratch per thread: the adapters are used by the
// flat PowerShifter and by tests, never on an allocation-audited path,
// but reusing the buffer still keeps the common repeated-call pattern
// allocation-free after warm-up.
thread_local BudgetPool tlsPool;

}  // namespace

double
onlineCapSum(const std::vector<ChildBudget>& children)
{
    double sum = 0.0;
    for (const ChildBudget& child : children) {
        if (child.online)
            sum += child.capWatts;
    }
    return sum;
}

double
conservationError(const std::vector<ChildBudget>& children, double budget)
{
    tlsPool.assign(children);
    return conservationError(tlsPool, budget);
}

double
clampToCeilings(std::vector<ChildBudget>& children)
{
    tlsPool.assign(children);
    const double unplaced = clampToCeilings(tlsPool);
    tlsPool.storeCaps(children);
    return unplaced;
}

double
rebalanceBudgets(std::vector<ChildBudget>& children,
                 const BudgetPolicy& policy)
{
    tlsPool.assign(children);
    const double moved = rebalanceBudgets(tlsPool, policy);
    tlsPool.storeCaps(children);
    return moved;
}

void
reshareBudgets(std::vector<ChildBudget>& children, double budget,
               const std::vector<size_t>& rejoined)
{
    tlsPool.assign(children);
    reshareBudgets(tlsPool, budget, rejoined);
    tlsPool.storeCaps(children);
}

void
evenShares(std::vector<ChildBudget>& children, double budget)
{
    tlsPool.assign(children);
    evenShares(tlsPool, budget);
    tlsPool.storeCaps(children);
}

}  // namespace pupil::cluster
