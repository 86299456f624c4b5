#include "bus/bus_model.hh"

namespace dirsim::bus
{

BusCosts
pipelinedBus(const BusPrimitives &prim)
{
    BusCosts costs;
    costs.name = "pipelined";
    // Separate address/data paths; the bus is not held during the
    // access, so wait states contribute no bus cycles.
    costs.memoryAccess =
        prim.sendAddress + prim.wordsPerBlock * prim.transferWord;
    costs.cacheAccess = costs.memoryAccess;
    // The address rides with the first data word.
    costs.writeBack = prim.wordsPerBlock * prim.transferWord;
    // Address and data issue together on the split paths.
    costs.writeWord = 1;
    costs.directoryCheck = prim.sendAddress;
    costs.invalidate = prim.invalidate;
    costs.requestAddress = prim.sendAddress;
    return costs;
}

BusCosts
nonPipelinedBus(const BusPrimitives &prim)
{
    BusCosts costs;
    costs.name = "non-pipelined";
    // Multiplexed address/data; the bus is held while memory or a
    // remote cache responds.
    costs.memoryAccess = prim.sendAddress + prim.waitMemory +
                         prim.wordsPerBlock * prim.transferWord;
    costs.cacheAccess = prim.sendAddress + prim.waitCache +
                        prim.wordsPerBlock * prim.transferWord;
    // Memory accepts the block without holding the bus afterwards
    // (interleaved memory); the requester snarfs the data meanwhile.
    costs.writeBack = prim.wordsPerBlock * prim.transferWord;
    costs.writeWord = prim.sendAddress + prim.transferWord;
    costs.directoryCheck = prim.sendAddress + prim.waitDirectory;
    costs.invalidate = prim.invalidate;
    costs.requestAddress = prim.sendAddress;
    return costs;
}

BusModels
standardBuses()
{
    return {pipelinedBus(), nonPipelinedBus()};
}

} // namespace dirsim::bus
