#include "bus/network.hh"

namespace dirsim::bus
{

unsigned
networkHops(const NetworkParams &params)
{
    unsigned hops = 0;
    unsigned reach = 1;
    while (reach < params.nNodes) {
        reach *= 2;
        ++hops;
    }
    return hops == 0 ? 1 : hops;
}

BusCosts
networkCosts(const NetworkParams &params)
{
    const unsigned hop_cycles =
        networkHops(params) * params.cyclesPerHop;
    BusCosts costs;
    costs.name = "network-n" + std::to_string(params.nNodes);
    // Request header traverses the network; the data words follow
    // pipelined behind it.
    costs.memoryAccess = hop_cycles + params.wordsPerBlock;
    costs.cacheAccess = hop_cycles + params.wordsPerBlock;
    // Write-back: header + words to the home node; the requester
    // snarfs nothing for free on a network, but the forwarded copy is
    // pipelined with the write-back, so the same occupancy is charged.
    costs.writeBack = hop_cycles + params.wordsPerBlock;
    costs.writeWord = hop_cycles + 1;
    // The directory lives with the (distributed) memory home node.
    costs.directoryCheck = hop_cycles;
    costs.invalidate = hop_cycles;
    costs.requestAddress = hop_cycles;
    return costs;
}

double
networkBroadcastCost(const NetworkParams &params)
{
    const double hop_cycles =
        static_cast<double>(networkHops(params)) * params.cyclesPerHop;
    if (params.hardwareBroadcast) {
        // One traversal of a broadcast tree.
        return hop_cycles;
    }
    // Emulated: a directed message to every other node.
    return static_cast<double>(params.nNodes - 1) * hop_cycles;
}

} // namespace dirsim::bus
