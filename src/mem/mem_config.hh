/**
 * @file
 * Memory-system configuration (the paper's Table 3 defaults).
 */

#ifndef PMEMSPEC_MEM_MEM_CONFIG_HH
#define PMEMSPEC_MEM_MEM_CONFIG_HH

#include <cstddef>

#include "common/types.hh"

namespace pmemspec::mem
{

/**
 * All latency/size knobs of the simulated memory system. Defaults
 * reproduce Table 3 of the paper.
 */
struct MemConfig
{
    /** Number of cores / private L1 caches. */
    unsigned numCores = 8;

    /** L1 data cache capacity (bytes) and associativity. */
    std::size_t l1Bytes = 64 * 1024;
    unsigned l1Ways = 4;
    /** L1 hit latency: 1ns tag + 1ns data. */
    Tick l1HitLatency = nsToTicks(2);

    /** Shared L2 (the LLC) capacity and associativity. */
    std::size_t llcBytes = 16 * 1024 * 1024;
    unsigned llcWays = 16;
    /** LLC hit latency: 10ns tag + 10ns data. */
    Tick llcHitLatency = nsToTicks(20);

    /** Extra per-transfer latency between private and shared caches.
     *  HOPS pays one additional bus cycle for the sticky-M bit. */
    Tick l1ToLlcExtra = 0;

    /** PM device latencies measured from Optane (Table 3). */
    Tick pmReadLatency = nsToTicks(175);
    Tick pmWriteLatency = nsToTicks(94);

    /** PM controller queue capacities. */
    unsigned pmcReadQueue = 32;
    unsigned pmcWriteQueue = 64;

    /** Independent PM banks serving requests in parallel (Optane
     *  interleaves across DIMMs and internal buffers). */
    unsigned pmBanks = 16;

    /** Decoupled persist-path latency (store queue -> PMC). */
    Tick persistPathLatency = nsToTicks(20);

    /** Per-core persist-path FIFO capacity (entries). */
    unsigned persistPathCapacity = 64;

    /** Speculation buffer entries in the PMC (Section 5.3). */
    unsigned specBufferEntries = 4;

    /**
     * Speculation window. The paper assumes the persist-paths share a
     * ring bus, so the worst case is numCores x idle path latency
     * (160ns in the main experiment). Zero means "derive from cores".
     */
    Tick speculationWindow = 0;

    /** HOPS/DPO per-core persist buffer capacity (entries). */
    unsigned persistBufferEntries = 32;

    /** Persist-buffer drain: in-flight persists per core (HOPS). */
    unsigned persistBufferDrainWidth = 4;

    /** PMC bloom filter geometry (HOPS). */
    std::size_t bloomCounters = 2048;
    unsigned bloomHashes = 3;
    /** Latency of a bloom-filter lookup charged to every PM read. */
    Tick bloomLookupLatency = nsToTicks(1);
    /** Read delay on a bloom false positive before retry. */
    Tick bloomFalsePositivePenalty = nsToTicks(20);

    /** Transport latency from an L1 writeback to PMC acceptance; the
     *  paper quotes the L1-to-PMC latency as 11ns. */
    Tick l1ToPmcLatency = nsToTicks(11);

    /**
     * Section 7 extension: number of PM controllers (blocks are
     * interleaved across them). The base design supports exactly one;
     * with several, detection only stays sound if the on-chip network
     * preserves each core's store order across controllers.
     */
    unsigned numPmcs = 1;

    /** Multi-PMC mode: does the NoC preserve per-core store order
     *  across controllers (the extension the paper proposes)? */
    bool orderedNoc = true;

    /** Unordered-NoC lane skew: lane i to controller i adds
     *  i * nocSkew of latency, which lets a core's stores to
     *  different controllers arrive out of order. */
    Tick nocSkew = nsToTicks(5);

    /** Effective speculation window (derives the ring-bus default). */
    Tick
    effectiveSpecWindow() const
    {
        if (speculationWindow != 0)
            return speculationWindow;
        return numCores * persistPathLatency;
    }
};

} // namespace pmemspec::mem

#endif // PMEMSPEC_MEM_MEM_CONFIG_HH
