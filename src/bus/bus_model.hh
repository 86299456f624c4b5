/**
 * @file
 * Bus timing models (Tables 1 and 2 of the paper).
 *
 * The evaluation never simulates a bus cycle-by-cycle; it multiplies
 * event frequencies by per-operation cycle costs.  Two models span the
 * sophistication range the paper considers:
 *
 *  - Pipelined: separate address and data paths; the bus is released
 *    during memory access.  Memory or remote-cache read: 5 cycles
 *    (1 address + 4 data words).  Write-back: 4 cycles (address rides
 *    with the first data word; the requester snarfs the data).
 *    Write-through / write-update: 1.  Directory check: 1.
 *    Invalidate: 1.
 *  - Non-pipelined: multiplexed address/data; the bus is held during
 *    the access.  Memory read: 7 (1 address + 2 memory wait + 4 data);
 *    remote-cache read: 6 (cache wait is 1); write-back: 4 (memory
 *    wait is not on the bus); write-through/update: 2; directory
 *    check: 3 (1 address + 2 directory wait), overlapped with a
 *    concurrent memory access when one exists; invalidate: 1.
 *
 * Both models derive from the fundamental operation timings of
 * Table 1, exposed as BusPrimitives so custom models can be composed.
 */

#ifndef DIRSIM_BUS_BUS_MODEL_HH
#define DIRSIM_BUS_BUS_MODEL_HH

#include <string>

namespace dirsim::bus
{

/** Table 1: timings of fundamental bus operations, in bus cycles. */
struct BusPrimitives
{
    unsigned sendAddress = 1;   //!< Send an address over the bus.
    unsigned transferWord = 1;  //!< Transfer one 32-bit data word.
    unsigned invalidate = 1;    //!< Deliver an invalidation.
    unsigned waitDirectory = 2; //!< Directory access latency.
    unsigned waitMemory = 2;    //!< Main-memory access latency.
    unsigned waitCache = 1;     //!< Remote-cache access latency.
    unsigned wordsPerBlock = 4; //!< Block size in words (16 bytes).
};

/** Table 2: per-operation bus-cycle costs for one bus organisation. */
struct BusCosts
{
    std::string name;
    /** Read a block from main memory. */
    unsigned memoryAccess = 0;
    /** Read a block from another cache. */
    unsigned cacheAccess = 0;
    /** Write a dirty block back (requester receives the data too). */
    unsigned writeBack = 0;
    /** Write one word through to memory or update a remote copy. */
    unsigned writeWord = 0;
    /** Query the directory.  Checks overlap a concurrent memory
     *  access, so the cost tables charge it only on write hits. */
    unsigned directoryCheck = 0;
    /** Deliver one invalidation (single or broadcast). */
    unsigned invalidate = 0;
    /**
     * Bare address send for a request that is answered by another
     * cache's write-back (no memory read, directory overlapped).
     */
    unsigned requestAddress = 1;
};

/** Build the pipelined-bus cost table from primitives. */
BusCosts pipelinedBus(const BusPrimitives &prim = BusPrimitives{});
/** Build the non-pipelined-bus cost table from primitives. */
BusCosts nonPipelinedBus(const BusPrimitives &prim = BusPrimitives{});

/** Both standard models, pipelined first (Figure 2's bar endpoints). */
struct BusModels
{
    BusCosts pipelined;
    BusCosts nonPipelined;
};

/** The paper's two bus models with default primitives. */
BusModels standardBuses();

} // namespace dirsim::bus

#endif // DIRSIM_BUS_BUS_MODEL_HH
