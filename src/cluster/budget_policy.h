#ifndef PUPIL_CLUSTER_BUDGET_POLICY_H_
#define PUPIL_CLUSTER_BUDGET_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pupil::cluster {

/** Ceiling sentinel for children without a TDP-class cap limit. */
inline constexpr double kUnboundedWatts = 1e18;

/**
 * One child of a budget pool, as the reallocation policy sees it: a node
 * inside a rack, or a rack under the datacenter root. The policy is pure
 * arithmetic over these records; the owners (PowerShifter, BudgetTree)
 * translate between them and their real node/rack state.
 */
struct ChildBudget
{
    /** Current grant (Watts). The policy mutates this in place. */
    double capWatts = 0.0;
    /** Measured consumption (Watts), the demand proxy. */
    double powerWatts = 0.0;
    /** TDP-class ceiling: a grant above this is watts the child can
     *  never draw (a dual-socket node cannot exceed its package TDPs). */
    double maxCapWatts = kUnboundedWatts;
    /**
     * Per-child floor: donation never takes the child below this, and
     * reshares raise it back up to it. A node's floor is the cluster's
     * minNodeCapWatts; a rack's floor is its online node count times
     * that, so a rack can always pass every node its own floor.
     */
    double minShareWatts = 0.0;
    /** Offline children hold no budget and take no part. */
    bool online = true;
};

/**
 * Struct-of-arrays view of a budget pool: the same per-child fields as
 * ChildBudget, packed one array per field so the per-level grant math
 * streams over contiguous doubles instead of hopping 40-byte records.
 * This is what BudgetTree levels hold persistently (fill caps/powers/
 * liveness in place each period, no per-call allocation); the
 * ChildBudget-vector entry points below delegate to the SoA kernels, so
 * there is exactly one implementation of the arithmetic and the two
 * representations are bit-identical by construction.
 */
struct BudgetPool
{
    std::vector<double> capWatts;
    std::vector<double> powerWatts;
    std::vector<double> maxCapWatts;
    std::vector<double> minShareWatts;
    std::vector<uint8_t> online;
    /** Kernel scratch (grant weights); sized with the pool so the
     *  steady-state rebalance path performs no allocations. */
    std::vector<double> weightScratch;

    size_t size() const { return capWatts.size(); }
    /** Resize every lane; new slots zeroed/offline, ceilings unbounded. */
    void resize(size_t n);
    /** Pack an AoS children vector (resizes as needed). */
    void assign(const std::vector<ChildBudget>& children);
    /** Unpack caps/liveness back into an AoS children vector of equal
     *  size (powers/ceilings/floors are inputs, never mutated). */
    void storeCaps(std::vector<ChildBudget>& children) const;
};

/**
 * Tuning knobs of the headroom-donation / demand-weighted-grant policy
 * (one instance per tree level; the defaults match the paper's two-node
 * shifting experiment in Section 6).
 */
struct BudgetPolicy
{
    /** Fraction of measured headroom a child donates per period. */
    double donationFraction = 0.5;
    /** Headroom below this fraction of the cap marks a child constrained. */
    double headroomSlackFraction = 0.05;
    /**
     * Measured power below this is treated as an implausible reading (a
     * dead meter, a frozen node): the child neither donates nor competes
     * on the bogus number -- it is held as constrained with a floor grant
     * weight so a ~0 reading can never starve it of budget. The modelled
     * machine idles near 11 W with a socket parked, so a sub-watt reading
     * is always a fault, not a quiet child.
     */
    double minPlausiblePowerWatts = 1.0;
};

// ---------------------------------------------------------------------------
// SoA kernels: the single implementation of the per-level arithmetic.
// ---------------------------------------------------------------------------

/** Sum of online children's caps. */
double onlineCapSum(const BudgetPool& pool);

/** Number of online children. */
size_t onlineCount(const BudgetPool& pool);

/**
 * Conservation error |sum(online caps) - budget| against the grantable
 * budget: watts above the sum of online ceilings are unplaceable (no
 * child may draw them), so the invariant every level maintains is
 *
 *     sum(online caps) == min(budget, sum(online maxCaps))
 *
 * Returns 0 when no child is online (the budget is parked, not held).
 */
double conservationError(const BudgetPool& pool, double budget);

/**
 * Clamp online children to their ceilings and redistribute the excess to
 * online children still below theirs, proportionally to remaining
 * ceiling headroom (water-filling). Returns the watts that could not be
 * placed anywhere (every online child at its ceiling); the caller parks
 * them, and conservationError() accounts for them.
 */
double clampToCeilings(BudgetPool& pool);

/**
 * Raise online children below their floor up to it, drawing the needed
 * watts from children above their floor proportionally to their excess.
 * Sum-preserving. Best effort: when the online sum cannot cover every
 * child's floor the shortfall remains on the poorest children.
 */
void enforceFloor(BudgetPool& pool);

/**
 * One reallocation pass (the paper's Section 6 shifting step, run
 * identically at every tree level): children with persistent measured
 * headroom donate a fraction of it; the pooled watts are granted to
 * constrained children proportionally to measured demand -- floored so a
 * child with an implausible ~0 reading still receives grants -- then
 * clamped to ceilings with the excess redistributed. Sum over online
 * children is preserved exactly up to unplaceable watts (returned by
 * value through conservationError afterwards).
 *
 * Returns the watts moved (0 when no child had donatable headroom).
 */
double rebalanceBudgets(BudgetPool& pool, const BudgetPolicy& policy);

/**
 * Restore sum(online caps) == budget after a membership change: children
 * listed in @p rejoined start from an even share of the budget, the
 * remaining online children keep their relative shares of the rest, and
 * the policy floor and the ceilings are re-imposed. Offline children are
 * zeroed. No-op when no child is online (the budget is re-granted at the
 * first rejoin).
 */
void reshareBudgets(BudgetPool& pool, double budget,
                    const std::vector<size_t>& rejoined);

/**
 * Even division of @p budget over online children (initial grant),
 * ceilings respected. Offline children are zeroed.
 */
void evenShares(BudgetPool& pool, double budget);

// ---------------------------------------------------------------------------
// ChildBudget-vector entry points (PowerShifter, tests): thin adapters
// that pack into a BudgetPool, run the SoA kernel, and unpack the caps.
// ---------------------------------------------------------------------------

double onlineCapSum(const std::vector<ChildBudget>& children);
double conservationError(const std::vector<ChildBudget>& children,
                         double budget);
double clampToCeilings(std::vector<ChildBudget>& children);
double rebalanceBudgets(std::vector<ChildBudget>& children,
                        const BudgetPolicy& policy);
void reshareBudgets(std::vector<ChildBudget>& children, double budget,
                    const std::vector<size_t>& rejoined);
void evenShares(std::vector<ChildBudget>& children, double budget);

}  // namespace pupil::cluster

#endif  // PUPIL_CLUSTER_BUDGET_POLICY_H_
