#ifndef PUPIL_SCHED_SOLVE_CACHE_H_
#define PUPIL_SCHED_SOLVE_CACHE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/scheduler.h"

namespace pupil::sched {

/**
 * Bounded LRU memoization of Scheduler::solve.
 *
 * The decision walker re-measures every configuration it tries for a full
 * filter window (30 samples in the production PUPiL governor), its binary
 * search revisits settings, and a monitoring governor re-solves the same
 * steady state for minutes at a time -- the paper's "software exploration
 * cost". The solve is a pure function of (MachineConfig, duty, AppDemand
 * set), so those repeats can be answered from memory.
 *
 * Keying is *exact*: the key is a canonical byte encoding of every input
 * the solve reads -- the configuration knobs and app count packed into
 * one word, the two duty cycles (bit-pattern, never quantized), and per
 * app the thread count plus the AppParams *identity* (pointer) under an
 * owner-supplied invalidation epoch (setAppsEpoch). A hit therefore
 * returns bit-identical results to recomputing, which is what keeps
 * cached and uncached experiment runs byte-identical (the differential
 * tests pin this).
 *
 * The identity-keying contract: an AppParams object reached through the
 * cache must not be mutated in place, and its storage must not be reused
 * for different parameters, without bumping the epoch. The Platform
 * upholds this for free -- it already versions its app set (appsVersion_,
 * bumped on thread changes, slot binds and completions) and forwards
 * that version as the epoch. Standalone users (benches, tests) that
 * solve immutable catalog entries never need to touch the epoch.
 * Keying by identity instead of by value is what keeps the hit path
 * cheaper than the solve it memoizes: a 4-app key is 96 bytes, not 450.
 *
 * The structure is built for a hit path that undercuts even the cheap
 * single-app solve: entries live in a fixed slab addressed by index, the
 * LRU is an intrusive doubly-linked list of those indices (no per-node
 * heap traffic), and the index is an open-addressed, linear-probed table
 * at <= 25% load with backward-shift deletion -- no std::unordered_map
 * division-based bucketing, no std::list splice pointer chasing. Keys
 * hash two 64-bit lanes at a time (they are multiples of 8 bytes by
 * construction). Everything is sized at construction; once every slab
 * entry's key string has been through one insertion, hits, evictions,
 * and re-insertions perform zero heap allocations.
 *
 * One cache belongs to one solving thread (same ownership discipline as
 * the Platform it usually lives in); there is no internal locking.
 *
 * Capacity 0 disables memoization entirely: solve() degenerates to a
 * plain pass-through with no key building. The PUPIL_NO_SOLVE_CACHE
 * environment variable (any non-empty value) requests that mode globally
 * for debugging; honoring it is the owner's choice at construction time
 * (see envDisabled()).
 */
class SolveCache
{
  public:
    /** Default entry bound; ~1024 user configs exist, so this holds the
     *  walker's whole working set with room for duty-cycle variants. */
    static constexpr size_t kDefaultCapacity = 512;

    explicit SolveCache(size_t capacity = kDefaultCapacity);

    /** Cumulative cache activity since construction (never reset). */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
    };

    /** Whether memoization is active (capacity > 0). */
    bool enabled() const { return capacity_ > 0; }

    size_t capacity() const { return capacity_; }

    /** Entries currently held (always <= capacity()). */
    size_t size() const { return entries_.size(); }

    const Stats& stats() const { return stats_; }

    /** True when the PUPIL_NO_SOLVE_CACHE kill switch is set. */
    static bool envDisabled();

    /**
     * Declare the app-set version the next solves belong to. Entries
     * keyed under other epochs can no longer hit (they age out of the
     * LRU); bump this whenever an AppParams object that existing entries
     * were keyed on may have been mutated in place.
     */
    void setAppsEpoch(uint64_t epoch) { appsEpoch_ = epoch; }

    /**
     * Memoized solve: bit-identical to
     * scheduler.solve(cfg, duty, apps, scratch, out) in all cases.
     * Returns true when the result came from the cache.
     */
    bool solve(const Scheduler& scheduler, const machine::MachineConfig& cfg,
               const std::array<double, 2>& duty,
               const std::vector<AppDemand>& apps, SolveScratch& scratch,
               SystemOutcome& out);

    /**
     * Copy-free variant for hot read-only consumers (the walker bench,
     * model-driven search loops): returns a pointer to the cached
     * outcome, valid only until the next call on this cache. Sets
     * @p hit when non-null.
     */
    const SystemOutcome* solveRef(const Scheduler& scheduler,
                                  const machine::MachineConfig& cfg,
                                  const std::array<double, 2>& duty,
                                  const std::vector<AppDemand>& apps,
                                  SolveScratch& scratch,
                                  bool* hit = nullptr);

    /**
     * Whether the cache currently holds an entry for the tuple (testing
     * and diagnostics; does not touch recency or stats).
     */
    bool contains(const machine::MachineConfig& cfg,
                  const std::array<double, 2>& duty,
                  const std::vector<AppDemand>& apps);

    /** Drop every entry (stats are retained). */
    void clear();

  private:
    static constexpr int32_t kEmpty = -1;

    /** Slab entry; LRU links are slab indices, not pointers. */
    struct Entry
    {
        std::string key;
        SystemOutcome value;
        uint64_t hash = 0;
        int32_t prev = kEmpty;
        int32_t next = kEmpty;
    };

    /** Open-addressing slot: hash memoized for cheap probe rejection. */
    struct Slot
    {
        uint64_t hash = 0;
        int32_t entry = kEmpty;
    };

    void buildKey(const machine::MachineConfig& cfg,
                  const std::array<double, 2>& duty,
                  const std::vector<AppDemand>& apps);
    int32_t lookup() const;
    void unlink(int32_t idx);
    void linkFront(int32_t idx);
    void moveToFront(int32_t idx);
    /** Claim an entry (new or evicted LRU) for keyScratch_/keyHash_. */
    Entry& insertKeyed();
    void tableInsert(uint64_t hash, int32_t idx);
    void tableErase(const Entry& victim);
    static void copyOutcome(const SystemOutcome& from, SystemOutcome& to);

    size_t capacity_;
    std::vector<Entry> entries_;  ///< slab, reserved to capacity_
    int32_t head_ = kEmpty;       ///< most recently used
    int32_t tail_ = kEmpty;       ///< least recently used
    std::vector<Slot> table_;     ///< power-of-2, load factor <= 25%
    uint64_t tableMask_ = 0;
    std::string keyScratch_;
    uint64_t keyHash_ = 0;
    uint64_t appsEpoch_ = 0;
    SystemOutcome passThrough_;   ///< solveRef storage when disabled
    Stats stats_;
};

}  // namespace pupil::sched

#endif  // PUPIL_SCHED_SOLVE_CACHE_H_
