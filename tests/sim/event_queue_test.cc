/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace bulksc {
namespace {

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.eventsFired(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(50, [&] { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanCascade)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.scheduleAfter(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(eq.now(), 9u);
    EXPECT_EQ(eq.eventsFired(), 10u);
}

TEST(EventQueue, StepFiresOneEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, SameTickRescheduleRunsAfterTickBatch)
{
    // An event firing at tick T that schedules another event at T must
    // see it run after every event already pending at T (global FIFO
    // within the tick) — the regression the wheel's batch drain must
    // not break.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(0);
        eq.schedule(5, [&] { order.push_back(2); });
        eq.scheduleAfter(0, [&] { order.push_back(3); });
    });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_EQ(eq.eventsFired(), 4u);
}

TEST(EventQueue, BeyondHorizonEventsFireInOrder)
{
    constexpr Tick kFar = EventQueue::kHorizon;
    EventQueue eq;
    std::vector<Tick> at;
    // Interleave wheel-range and far-range targets, scheduled out of
    // order; some far ticks collide so their batches must stay FIFO.
    for (Tick t : {4 * kFar, Tick{2}, 3 * kFar, kFar + 7, Tick{2},
                   3 * kFar})
        eq.schedule(t, [&, t] {
            EXPECT_EQ(eq.now(), t);
            at.push_back(t);
        });
    eq.run();
    EXPECT_EQ(at, (std::vector<Tick>{2, 2, kFar + 7, 3 * kFar,
                                     3 * kFar, 4 * kFar}));
}

TEST(EventQueue, FarBatchPrecedesWheelEventsAtTheSameTick)
{
    // An event landing at tick T from beyond the horizon was
    // necessarily scheduled before any wheel event at T (the wheel
    // only spans kHorizon ticks), so it must fire first.
    constexpr Tick kT = EventQueue::kHorizon + 100;
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(kT, [&] { order.push_back(0); }); // far at schedule time
    eq.schedule(200, [&] {
        order.push_back(-1);
        eq.schedule(kT, [&] { order.push_back(1); }); // now in wheel
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1}));
}

TEST(EventQueue, WheelWrapsAcrossManyLaps)
{
    EventQueue eq;
    constexpr Tick kStep = EventQueue::kHorizon - 1;
    int laps = 0;
    std::function<void()> next = [&] {
        EXPECT_EQ(eq.now(), static_cast<Tick>(laps) * kStep);
        if (++laps < 10)
            eq.scheduleAfter(kStep, next);
    };
    eq.schedule(0, next);
    eq.run();
    EXPECT_EQ(laps, 10);
    EXPECT_EQ(eq.now(), 9 * kStep);
}

TEST(EventQueue, StepAndRunInterleave)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 3; ++i)
        eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(EventQueue::kHorizon + 50, [&] { ++fired; });

    EXPECT_TRUE(eq.step()); // pulls the tick-10 batch, fires one
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10u);
    eq.run(15); // drains the rest of the batch, stops before 20
    EXPECT_EQ(fired, 3);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, SizeCountsWheelFarAndCurrentBatch)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.schedule(5, [] {});
    eq.schedule(40, [] {});
    eq.schedule(EventQueue::kHorizon + 5, [] {});
    EXPECT_EQ(eq.size(), 4u);
    EXPECT_FALSE(eq.empty());
    EXPECT_TRUE(eq.step()); // one of the tick-5 pair fired
    EXPECT_EQ(eq.size(), 3u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, NextEventTickTracksAllRegions)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTick(), kTickNever);
    eq.schedule(EventQueue::kHorizon + 9, [] {});
    EXPECT_EQ(eq.nextEventTick(), EventQueue::kHorizon + 9);
    eq.schedule(7, [] {});
    EXPECT_EQ(eq.nextEventTick(), 7u);
    eq.schedule(7, [] {});
    EXPECT_TRUE(eq.step()); // mid-batch: next event is still at now()
    EXPECT_EQ(eq.nextEventTick(), 7u);
    eq.run();
    EXPECT_EQ(eq.nextEventTick(), kTickNever);
}

TEST(EventQueue, PendingEventsAreDestroyedWithTheQueue)
{
    auto token = std::make_shared<int>(7);
    {
        EventQueue eq;
        eq.schedule(10, [token] {});
        eq.schedule(EventQueue::kHorizon + 10, [token] {});
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, StopHaltsTheRunLoop)
{
    // stop() from inside a handler makes run() return at the next
    // batch boundary, leaving later events pending.
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] {
        ++fired;
        eq.stop();
    });
    eq.schedule(30, [&] { ++fired; });
    eq.run();
    EXPECT_TRUE(eq.stopped());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.empty());
    // A fresh run() clears the request and drains the rest.
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StopPreservesSameTickFifo)
{
    // Events already in the tick batch being processed still fire —
    // stop is checked only between batches, so same-tick FIFO
    // ordering is never torn.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(1);
        eq.stop();
    });
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(20, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

TEST(SimObject, NameAndTick)
{
    EventQueue eq;
    SimObject obj(eq, "thing");
    EXPECT_EQ(obj.name(), "thing");
    eq.schedule(42, [] {});
    eq.run();
    EXPECT_EQ(obj.curTick(), 42u);
}

} // namespace
} // namespace bulksc
