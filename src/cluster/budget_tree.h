#ifndef PUPIL_CLUSTER_BUDGET_TREE_H_
#define PUPIL_CLUSTER_BUDGET_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/budget_policy.h"
#include "cluster/power_shifter.h"
#include "cluster/surrogate_leaf.h"
#include "harness/sweep.h"
#include "net/fault_plane.h"
#include "net/transport.h"
#include "telemetry/metrics.h"

namespace pupil::cluster {

/**
 * A rack: one interior level of the budget tree. grantWatts and online
 * are the ROOT CONTROLLER's view of the rack -- what the root last
 * granted and whether it believes the rack is up. Under message faults
 * this view can lag the rack's own state; with faults off the two are
 * always equal at period boundaries.
 */
struct Rack
{
    std::string name;
    double grantWatts = 0.0;
    /** False while the root believes every node in the rack is offline. */
    bool online = true;
    std::vector<std::unique_ptr<Node>> nodes;
};

/**
 * Hierarchical datacenter-scale power budgeting: a budget *tree* --
 * datacenter -> rack -> node -- instead of the flat PowerShifter's
 * budget loop (the direction FastCap's bounded-per-period fair capping
 * and Subramaniam & Feng's composable subsystem/node/cluster managers
 * both point at).
 *
 * Since the control-plane extraction (DESIGN.md section 14), the three
 * endpoint roles -- the root controller, one agent per rack, one agent
 * per node -- share no state and coordinate ONLY through net::Messages
 * over a net::Transport: demand reports up, cap grants down, membership
 * announcements (node leave/join, rack dark/bright) in between. The
 * in-process LocalTransport round-trips every message through the wire
 * codec, so this object already exercises exactly the bytes a socket
 * transport would carry. With faults off the message rounds reproduce
 * the pre-extraction direct-call arithmetic bit for bit (pinned golden
 * stateDigest()s, tests/golden_trace_test.cc).
 *
 * Every interior level runs the same policy over its children
 * (budget_policy.h): measure demand, pool donated headroom, grant it
 * demand-weighted, clamp to ceilings. Leaves are full sim::Platform +
 * governor + RAPL stacks, exactly as under the flat shifter. Per period:
 *
 *  1. membership: node agents announce their liveness (scheduled
 *     node-loss windows, step-failure isolation); rack agents fold the
 *     announcements into their member view and report dark/bright + live
 *     population up; the root reshares grants across racks when rack
 *     liveness changed; changed racks re-divide and push caps;
 *  2. step: every online node platform advances one period on a bounded
 *     thread pool (PUPIL_SWEEP_THREADS / Options::threads; 1 = serial).
 *     Nodes share no mutable state, so serial and parallel stepping are
 *     byte-identical; a node that throws is isolated (marked failed,
 *     removed at the next membership round) instead of aborting the
 *     cluster;
 *  3. report: each live node agent samples its meter once and reports
 *     demand to its rack agent; rack agents report aggregates to the
 *     root;
 *  4. rebalance: each rack shifts watts among its nodes, then the root
 *     shifts grants among racks; changed rack grants are re-divided
 *     inside the rack proportionally and the caps go out in one batch
 *     of grant messages per rack.
 *
 * Ride-through under message faults (see setFaultSchedule): a
 * partitioned rack keeps enforcing -- and internally rebalancing -- its
 * last delivered grant; demand reports older than demandStaleSec age
 * into the policy's implausible-reading floor weight; duplicated and
 * reordered grants are idempotent via per-stream sequence numbers; and a
 * node agent clamps every applied grant to [minNodeCapWatts,
 * nodeTdpWatts], so no leaf ever enforces a cap outside its physical
 * envelope no matter what the network delivered.
 *
 * Budget conservation -- at every level, sum(granted caps) == what was
 * actually DELIVERED to that level (the root's global budget; a rack
 * agent's last grant view), up to watts no child's TDP can absorb -- is
 * asserted after every phase in debug builds and exported continuously
 * as the cluster.budget_error gauge (see metrics()). Measuring each
 * level against its own delivered view is what keeps the gate meaningful
 * when the network diverges the views; with faults off it reduces to the
 * pre-extraction definition.
 *
 * Event-driven mode (DESIGN.md section 15): with Options::hysteresisWatts
 * > 0 the control plane goes quiescent with the demand signal instead of
 * recomputing everything every period. A node publishes a demand report
 * only when its reading moved past the band since the last one it sent
 * (with a heartbeat at demandStaleSec/2 so suppression never ages a live
 * node into the stale-report guard); a rack re-runs its local division
 * only when some member's demand moved past the band since the division
 * it last acted on, and reports its aggregate up under the same delta
 * gate; the root re-rebalances only when some rack subtree is dirty. A
 * quiescent subtree therefore sends nothing and triggers nothing -- at
 * 50k nodes this is what turns the per-period control cost from
 * O(cluster) to O(dirty subtrees). The conservation-triggered full
 * reshare (rootMembershipAct) stays armed as the safety net, so a
 * suppressed path can never strand watts: any drift past 1e-7 of the
 * budget re-pins the grants. hysteresisWatts <= 0 is the legacy
 * everything-every-period plane, bit-identical to the pinned golden
 * digests.
 *
 * Leaves are swappable behind the LeafModel seam: full Platform +
 * governor + RAPL stacks (addNode; the pre-seam behaviour, bit for bit)
 * or calibrated O(1) surrogates (addSurrogateNode) fitted online from a
 * configurable sample of full-stack leaves (addCalibrationSource) via
 * the per-(app, governor) response tables in surrogates(). Surrogates
 * are what make 10k-50k node trees simulate faster than real time.
 *
 * Tracing: the tree emits cluster- and rack-level events (rebalances,
 * rack grants, node loss/rejoin) plus the transport's kMsgSend /
 * kMsgDrop / kPartition timeline into the attached recorder. Node
 * platforms stay untraced: a Recorder is single-owner and the leaves
 * step concurrently.
 */
class BudgetTree
{
  public:
    struct Options
    {
        double globalBudgetWatts = 3200.0;
        double periodSec = 1.0;       ///< reallocation period, every level
        double minNodeCapWatts = 30.0;
        /** Fraction of measured headroom donated per period (all levels). */
        double donationFraction = 0.5;
        /** Per-node cap ceiling (package TDPs of the modelled server). */
        double nodeTdpWatts = 270.0;
        /**
         * Demand reports older than this are stale: the receiving level
         * treats the child as reading implausibly (floor grant weight)
         * instead of trusting data the network delayed or dropped.
         * Default: 2.5 reallocation periods at the default periodSec.
         */
        double demandStaleSec = 2.5;
        /**
         * Seed of the message-fault RNG stream (drop/dup/delay Bernoulli
         * draws, reorder shuffles). A dedicated stream, so the same node
         * seeds under a different message scenario step identically.
         */
        uint64_t msgFaultSeed = 0x6d736766;
        /**
         * Worker threads for node stepping. 0 = automatic
         * (PUPIL_SWEEP_THREADS, then hardware_concurrency); 1 steps
         * serially on the calling thread. Pure speed knob: results are
         * byte-identical across thread counts.
         */
        int threads = 0;
        /**
         * Event-driven hysteresis band (Watts). > 0: demand reports,
         * rack-local divisions, and root rebalances are recomputed only
         * when the underlying demand moved past the band (see the class
         * comment); <= 0: the legacy everything-every-period control
         * plane, bit-identical to the pinned golden digests.
         */
        double hysteresisWatts = 0.0;
    };

    explicit BudgetTree(const Options& options);

    /** Add an (empty) rack. Returns its index. Call before run(). */
    size_t addRack(const std::string& name);

    /**
     * Add a node under rack @p rack running @p apps. Returns its index
     * within the rack. @p faultSpec injects node-local faults into the
     * node's own platform. When @p load is enabled the node also serves
     * open-loop tenant traffic: slots are appended after @p apps and a
     * load::LoadDriver (seeded from the node seed unless load.seed is
     * set) churns jobs through them against the node governor's live
     * cap, so arrivals and departures ride under BudgetTree grant
     * changes. Call before run().
     */
    size_t addNode(size_t rack, const std::string& name,
                   const std::vector<sched::AppDemand>& apps,
                   harness::GovernorKind kind = harness::GovernorKind::kPupil,
                   uint64_t seed = 1, const std::string& faultSpec = "",
                   const load::LoadDriver::Options& load =
                       load::LoadDriver::Options());

    /**
     * Add a surrogate node under rack @p rack: an O(1) calibrated-table
     * leaf (surrogate_leaf.h) standing in for a full platform stack
     * running @p app under @p kind. All surrogate nodes of one
     * (app, kind) cell share the cell's response model in surrogates();
     * pair them with addCalibrationSource() so sampled full-stack leaves
     * keep the shared table honest. Returns the node index within the
     * rack. Call before run().
     */
    size_t addSurrogateNode(size_t rack, const std::string& name,
                            const std::string& app,
                            harness::GovernorKind kind =
                                harness::GovernorKind::kPupil,
                            uint64_t seed = 1,
                            const SurrogateLeaf::Options& leafOptions =
                                SurrogateLeaf::Options());

    /**
     * Register full-stack node (@p rack, @p node) as a calibration
     * sample for the (app, kind) surrogate cell: once per period (before
     * the demand reports go out) its ground-truth settled power and
     * normalized perf at its enforced cap are folded into the cell's
     * response table. Ground truth draws no RNG, so registering sources
     * never perturbs a digest. Call before run().
     */
    void addCalibrationSource(size_t rack, size_t node,
                              const std::string& app,
                              harness::GovernorKind kind =
                                  harness::GovernorKind::kPupil);

    /** Per-(app, governor) surrogate response tables. */
    SurrogateLibrary& surrogates() { return surrogates_; }
    const SurrogateLibrary& surrogates() const { return surrogates_; }

    /** Node (@p rack, @p i)'s leaf as a SurrogateLeaf, or null when it
        is a full stack. Mutable: benches and property tests drive demand
        churn through SurrogateLeaf::setUtilization. */
    SurrogateLeaf* surrogateLeaf(size_t rack, size_t i)
    {
        return dynamic_cast<SurrogateLeaf*>(racks_[rack]->nodes[i]->leaf.get());
    }

    /**
     * Attach a cluster-level fault schedule; node-loss events match node
     * names, partition events match rack names, and the message kinds
     * (msg-drop/-delay/-dup/-reorder) match either end of an edge. Null
     * detaches. Not owned; must outlive run(). Targets naming a rack or
     * node that does not exist are rejected with std::invalid_argument
     * when run() starts.
     */
    void setFaultSchedule(const faults::FaultSchedule* schedule)
    {
        schedule_ = schedule;
    }

    /** Cluster/rack-level event recorder (null detaches; not owned). */
    void attachTrace(trace::Recorder* recorder);

    /** Advance every node to @p untilSec, rebalancing period by period. */
    void run(double untilSec);

    // ----- topology -------------------------------------------------------
    size_t rackCount() const { return racks_.size(); }
    size_t nodeCount(size_t rack) const { return racks_[rack]->nodes.size(); }
    size_t totalNodes() const;
    const Rack& rack(size_t i) const { return *racks_[i]; }
    const Node& node(size_t rack, size_t i) const
    {
        return *racks_[rack]->nodes[i];
    }

    // ----- budget state ---------------------------------------------------
    /** Sum of online rack grants (== global budget while any rack is up). */
    double totalGrantWatts() const;
    /** Sum of node-enforced caps over online nodes. */
    double totalCapWatts() const;
    /** Sum of ground-truth power over online nodes (harness metric). */
    double totalPowerWatts() const;
    /**
     * Aggregate normalized performance: sum over online nodes of each
     * app's rate normalized by its solo rate in the maximal
     * configuration (ground truth; the bench's throughput-under-budget).
     */
    double aggregatePerformance() const;
    /**
     * Worst conservation error across all levels right now, each level
     * measured against what was DELIVERED to it: the root's granted
     * rack caps against the global budget, and each rack agent's granted
     * node caps against its last delivered grant view. With faults off
     * this is the pre-extraction definition.
     */
    double budgetErrorWatts() const;

    /** A rack agent's last delivered grant view (0 until one arrives) --
        what the rack is actually dividing, which under partition can
        diverge from the root-side rack(i).grantWatts. */
    double rackGrantViewWatts(size_t rack) const;

    // ----- accounting -----------------------------------------------------
    /** Rack- or root-level reallocations that moved watts. */
    int shifts() const { return shifts_; }
    int lossEvents() const { return lossEvents_; }
    int rejoinEvents() const { return rejoinEvents_; }
    /** Nodes isolated after their platform threw during a step. */
    int nodeFailures() const { return nodeFailures_; }
    /** Periods executed so far. */
    int periods() const { return periods_; }

    /** Message-transport delivery accounting (sends, drops, ...). */
    const net::Transport::Stats& transportStats() const
    {
        return transport_->stats();
    }

    /**
     * Wall-clock seconds spent in the control plane (membership,
     * measurement, both rebalance levels, message rounds) -- everything
     * except node stepping. Not part of the deterministic state (never
     * feeds back into it).
     */
    double controlWallSec() const { return controlWallSec_; }
    /** Wall-clock seconds spent stepping node platforms. */
    double stepWallSec() const { return stepWallSec_; }
    /** Per-period control-plane wall seconds, one sample per executed
        period (controlWallSamples()[p] is period p). The aggregate
        controlWallSec() hides the warm-up transient; steady-state
        latency figures must come from these samples (bench/cluster_scale
        reports their post-warm-up median and p95). */
    const std::vector<double>& controlWallSamples() const
    {
        return controlWallPerPeriod_;
    }
    /** Per-period node-stepping wall seconds. */
    const std::vector<double>& stepWallSamples() const
    {
        return stepWallPerPeriod_;
    }

    /** Demand reports (node and rack level) suppressed by the hysteresis
        band -- messages the event-driven plane did not send. */
    uint64_t reportsSuppressed() const { return reportsSuppressed_; }
    /** Rack-local divisions and root rebalances skipped because every
        watched demand stayed inside the hysteresis band. */
    uint64_t rebalancesSuppressed() const { return rebalancesSuppressed_; }

    /**
     * Tree-level metrics: cluster.budget_error gauge (refreshed every
     * period), cluster.rebalances / cluster.node_loss /
     * cluster.node_rejoins / cluster.node_failures counters,
     * cluster.racks / cluster.nodes_online gauges, and the transport's
     * cluster.msgs_sent / cluster.msgs_dropped gauges.
     */
    const telemetry::MetricsRegistry& metrics() const { return metrics_; }

    /**
     * FNV-1a digest of the deterministic cluster state (per-node caps,
     * true power, accumulated items, rack grants, event counts). Equal
     * digests <=> byte-identical runs; used by the determinism checks in
     * tests and bench/cluster_scale (serial vs parallel stepping).
     */
    uint64_t stateDigest() const;

  private:
    /** The root controller's per-rack bookkeeping. */
    struct RootView
    {
        std::vector<uint32_t> grantSeqOut;    ///< root->rack grant stream
        std::vector<uint32_t> memberSeqSeen;  ///< rack->root announcements
        std::vector<uint32_t> reportSeqSeen;  ///< rack->root demand reports
        std::vector<double> demandWatts;
        std::vector<double> demandTimeSec;    ///< send time; < 0 = never
        std::vector<size_t> onlinePop;        ///< announced live population
        /** Persistent SoA policy state: filled in place each round, so
            the steady-state root path allocates nothing. */
        BudgetPool pool;
        /** Aged rack demand the root last rebalanced on (hysteresis). */
        std::vector<double> lastActedDemand;
    };

    /** One rack agent: divides its delivered grant among its members. */
    struct RackAgent
    {
        bool haveGrant = false;
        double grantViewWatts = 0.0;     ///< last delivered root grant
        uint32_t grantSeqSeen = 0;
        bool grantChanged = false;       ///< new grant view this round
        bool popChanged = false;         ///< membership moved this round
        bool dirty = false;              ///< caps changed; send at round end
        size_t onlineMembers = 0;
        uint32_t upMemberSeqOut = 0;     ///< rack->root announcement stream
        uint32_t upReportSeqOut = 0;     ///< rack->root report stream
        std::vector<bool> memberOnline;  ///< the rack's member view
        std::vector<double> grantedCapWatts;
        std::vector<uint32_t> grantSeqOut;    ///< per member
        std::vector<uint32_t> memberSeqSeen;  ///< per member
        std::vector<uint32_t> demandSeqSeen;  ///< per member
        std::vector<double> demandWatts;
        std::vector<double> demandTimeSec;    ///< send time; < 0 = never
        std::vector<size_t> rejoined;    ///< joins awaiting the re-divide
        /** Persistent SoA policy state (filled in place each round). */
        BudgetPool pool;
        /** Aged member demand this rack last divided on (hysteresis). */
        std::vector<double> lastActedDemand;
        double lastUpWatts = 0.0;   ///< aggregate demand last sent up
        double lastUpSec = -1.0;    ///< when; < 0 = never sent
    };

    /** One node agent: enforces delivered grants on its own platform. */
    struct NodeAgent
    {
        uint32_t appliedGrantSeq = 0;
        uint32_t memberSeqOut = 0;
        uint32_t reportSeqOut = 0;
        double lastReportWatts = 0.0;  ///< demand last sent (hysteresis)
        double lastReportSec = -1.0;   ///< when; < 0 = never sent
    };

    /** A full-stack node feeding a surrogate cell's response table. */
    struct CalibrationSource
    {
        size_t rack = 0;
        size_t node = 0;
        SurrogateModel* model = nullptr;
    };

    BudgetPolicy policy() const;
    /** Demand value aged by send time: stale or never-seen reads as 0. */
    double agedDemand(double watts, double sentSec) const;

    // endpoint handlers (invoked by the transport at delivery)
    void bindEndpoints();
    void onRootMessage(const net::Message& message);
    void onRackMessage(size_t rackIndex, const net::Message& message);
    void onNodeMessage(size_t rackIndex, size_t nodeIndex,
                       const net::Message& message);

    // node-agent actions
    void nodeAnnounce(size_t rackIndex, size_t nodeIndex);
    void nodeReport(size_t rackIndex, size_t nodeIndex);

    // rack-agent actions
    std::vector<ChildBudget> rackAgentChildren(size_t rackIndex) const;
    /** Pack the agent's member state into its persistent SoA pool. */
    void fillRackPool(size_t rackIndex);
    void rackAnnounceUp(size_t rackIndex);
    void rackRedivide(size_t rackIndex);
    void rackRebalanceLocal(size_t rackIndex);
    void rackReportUp(size_t rackIndex);
    void rackSendCaps(size_t rackIndex);

    // root-controller actions
    std::vector<ChildBudget> rootChildren() const;
    /** Pack the root's rack view into its persistent SoA pool. */
    void fillRootPool();
    void rootMembershipAct();
    void rootRebalance();

    // per-period phases
    void tracePartitions();
    void settleRacks();
    void membershipPhase();
    void stepNodes();
    void reportPhase();
    void rebalancePhase();
    void refreshInvariant();

    Options options_;
    std::vector<std::unique_ptr<Rack>> racks_;
    harness::SweepRunner runner_;
    const faults::FaultSchedule* schedule_ = nullptr;
    trace::Recorder* trace_ = nullptr;
    telemetry::MetricsRegistry metrics_;

    std::unique_ptr<net::LocalTransport> transport_;
    std::unique_ptr<net::MessageFaultPlane> plane_;
    RootView root_;
    std::vector<RackAgent> rackAgents_;
    std::vector<std::vector<NodeAgent>> nodeAgents_;
    std::vector<bool> rackPartitioned_;  ///< for kPartition edge traces
    std::vector<size_t> rejoinedRacks_;  ///< bright racks awaiting reshare
    bool rootLivenessChanged_ = false;
    bool rootRebalanced_ = false;

    SurrogateLibrary surrogates_;
    std::vector<CalibrationSource> calibration_;

    double now_ = 0.0;
    int shifts_ = 0;
    int lossEvents_ = 0;
    int rejoinEvents_ = 0;
    int nodeFailures_ = 0;
    int periods_ = 0;
    uint64_t reportsSuppressed_ = 0;
    uint64_t rebalancesSuppressed_ = 0;
    double controlWallSec_ = 0.0;
    double stepWallSec_ = 0.0;
    std::vector<double> controlWallPerPeriod_;
    std::vector<double> stepWallPerPeriod_;
    bool started_ = false;
};

}  // namespace pupil::cluster

#endif  // PUPIL_CLUSTER_BUDGET_TREE_H_
