/**
 * @file
 * Tests for the bus cost models against the paper's Tables 1 and 2.
 */

#include <gtest/gtest.h>

#include "bus/bus_model.hh"

namespace
{

using namespace dirsim::bus;

TEST(BusPrimitivesTest, DefaultsMatchTable1)
{
    const BusPrimitives prim;
    EXPECT_EQ(prim.transferWord, 1u);
    EXPECT_EQ(prim.sendAddress, 1u);
    EXPECT_EQ(prim.invalidate, 1u);
    EXPECT_EQ(prim.waitDirectory, 2u);
    EXPECT_EQ(prim.waitMemory, 2u);
    EXPECT_EQ(prim.waitCache, 1u);
    EXPECT_EQ(prim.wordsPerBlock, 4u);
}

TEST(PipelinedBusTest, MatchesTable2)
{
    const BusCosts costs = pipelinedBus();
    EXPECT_EQ(costs.name, "pipelined");
    // 1 address + 4 data words; the bus is released during the access.
    EXPECT_EQ(costs.memoryAccess, 5u);
    EXPECT_EQ(costs.cacheAccess, 5u);
    // Address rides with the first data word.
    EXPECT_EQ(costs.writeBack, 4u);
    EXPECT_EQ(costs.writeWord, 1u);
    EXPECT_EQ(costs.directoryCheck, 1u);
    EXPECT_EQ(costs.invalidate, 1u);
    EXPECT_EQ(costs.requestAddress, 1u);
}

TEST(NonPipelinedBusTest, MatchesTable2)
{
    const BusCosts costs = nonPipelinedBus();
    EXPECT_EQ(costs.name, "non-pipelined");
    // 1 address + 2 memory-wait + 4 data.
    EXPECT_EQ(costs.memoryAccess, 7u);
    // Cache wait is only 1 cycle.
    EXPECT_EQ(costs.cacheAccess, 6u);
    EXPECT_EQ(costs.writeBack, 4u);
    // 1 address + 1 data word.
    EXPECT_EQ(costs.writeWord, 2u);
    // 1 address + 2 directory-wait.
    EXPECT_EQ(costs.directoryCheck, 3u);
    EXPECT_EQ(costs.invalidate, 1u);
}

TEST(BusModelsTest, StandardBusesOrdering)
{
    const BusModels buses = standardBuses();
    // Every operation is at least as expensive on the non-pipelined
    // bus.
    EXPECT_GE(buses.nonPipelined.memoryAccess,
              buses.pipelined.memoryAccess);
    EXPECT_GE(buses.nonPipelined.cacheAccess,
              buses.pipelined.cacheAccess);
    EXPECT_GE(buses.nonPipelined.writeWord, buses.pipelined.writeWord);
    EXPECT_GE(buses.nonPipelined.directoryCheck,
              buses.pipelined.directoryCheck);
}

TEST(BusModelsTest, CustomPrimitivesPropagate)
{
    BusPrimitives prim;
    prim.wordsPerBlock = 8; // 32-byte blocks
    prim.waitMemory = 4;
    const BusCosts pipe = pipelinedBus(prim);
    EXPECT_EQ(pipe.memoryAccess, 9u);
    EXPECT_EQ(pipe.writeBack, 8u);
    const BusCosts np = nonPipelinedBus(prim);
    EXPECT_EQ(np.memoryAccess, 1u + 4u + 8u);
}

TEST(BusModelsTest, WiderBusShrinksTransfers)
{
    // A hypothetical 2-words-per-cycle bus modelled by halving the
    // per-word transfer count.
    BusPrimitives prim;
    prim.wordsPerBlock = 2;
    EXPECT_LT(pipelinedBus(prim).memoryAccess,
              pipelinedBus().memoryAccess);
}

} // namespace

#include "bus/network.hh"

namespace
{

using dirsim::bus::NetworkParams;
using dirsim::bus::networkBroadcastCost;
using dirsim::bus::networkCosts;
using dirsim::bus::networkHops;

TEST(Network, HopCountIsLogarithmic)
{
    NetworkParams params;
    params.nNodes = 1;
    EXPECT_EQ(networkHops(params), 1u);
    params.nNodes = 2;
    EXPECT_EQ(networkHops(params), 1u);
    params.nNodes = 4;
    EXPECT_EQ(networkHops(params), 2u);
    params.nNodes = 16;
    EXPECT_EQ(networkHops(params), 4u);
    params.nNodes = 64;
    EXPECT_EQ(networkHops(params), 6u);
    params.nNodes = 5; // non-power-of-two rounds up
    EXPECT_EQ(networkHops(params), 3u);
}

TEST(Network, DirectedCostsScaleWithDiameter)
{
    NetworkParams small;
    small.nNodes = 4;
    NetworkParams large;
    large.nNodes = 64;
    const auto small_costs = networkCosts(small);
    const auto large_costs = networkCosts(large);
    EXPECT_LT(small_costs.invalidate, large_costs.invalidate);
    EXPECT_LT(small_costs.memoryAccess, large_costs.memoryAccess);
    // A block transfer is a header plus pipelined words.
    EXPECT_EQ(small_costs.memoryAccess,
              networkHops(small) + small.wordsPerBlock);
}

TEST(Network, BroadcastBlowsUpWithoutHardwareSupport)
{
    NetworkParams params;
    params.nNodes = 64;
    const double emulated = networkBroadcastCost(params);
    EXPECT_DOUBLE_EQ(emulated, 63.0 * networkHops(params));
    params.hardwareBroadcast = true;
    EXPECT_DOUBLE_EQ(networkBroadcastCost(params),
                     networkHops(params));
    // The gap is the paper's scaling argument in one number.
    EXPECT_GT(emulated / networkBroadcastCost(params), 30.0);
}

TEST(Network, CyclesPerHopScalesLinearly)
{
    NetworkParams one;
    one.nNodes = 16;
    NetworkParams two = one;
    two.cyclesPerHop = 2;
    EXPECT_EQ(networkCosts(two).invalidate,
              2 * networkCosts(one).invalidate);
    EXPECT_DOUBLE_EQ(networkBroadcastCost(two),
                     2.0 * networkBroadcastCost(one));
}

} // namespace
