/**
 * @file
 * Unit tests for the structured event-trace sink, its category
 * parser, and its Chrome trace_event and text renderings.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/event_trace.hh"

namespace bulksc {
namespace {

class EventTraceTest : public ::testing::Test
{
  protected:
    /** The sink EVENT_TRACE records into here, as SimObject's does
     *  in the simulator: none until a test attaches one. */
    EventTrace *traceSink() const { return sink; }

    EventTrace *sink = nullptr;
};

TEST_F(EventTraceTest, DisabledByDefault)
{
    EXPECT_EQ(traceSink(), nullptr);
    // The macro must be a no-op without a sink.
    EventTrace et(~std::uint32_t{0});
    EVENT_TRACE(TraceEventType::ChunkStart, 1, trackProc(0), 0, 0);
    EXPECT_EQ(et.recorded(), 0u);
}

TEST_F(EventTraceTest, RecordsAndCounts)
{
    EventTrace et(~std::uint32_t{0});
    sink = &et;
    EXPECT_NE(traceSink(), nullptr);

    EVENT_TRACE(TraceEventType::ChunkStart, 10, trackProc(1), 7, 1000);
    EVENT_TRACE(TraceEventType::ChunkCommit, 25, trackProc(1), 7, 990);
    EVENT_TRACE(TraceEventType::Squash, 30, trackProc(2), 8, 2,
                static_cast<std::uint8_t>(SquashCause::FalsePositive));

    EXPECT_EQ(et.recorded(), 3u);
    EXPECT_EQ(et.count(TraceEventType::ChunkStart), 1u);
    EXPECT_EQ(et.count(TraceEventType::ChunkCommit), 1u);
    EXPECT_EQ(et.count(TraceEventType::Squash), 1u);
    EXPECT_EQ(et.count(TraceEventType::ArbGrant), 0u);
    EXPECT_EQ(et.dropped(), 0u);

    std::vector<TraceEvent> evs = et.snapshot();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].type, TraceEventType::ChunkStart);
    EXPECT_EQ(evs[0].tick, 10u);
    EXPECT_EQ(evs[0].seq, 7u);
    EXPECT_EQ(evs[0].arg, 1000u);
    EXPECT_EQ(evs[2].cause,
              static_cast<std::uint8_t>(SquashCause::FalsePositive));
}

TEST_F(EventTraceTest, RingOverflowKeepsNewestAndCountsDrops)
{
    EventTrace et(~std::uint32_t{0}, 4);
    for (Tick t = 0; t < 10; ++t)
        et.record(TraceEventType::DirBounce, t, trackDir(0), t);

    EXPECT_EQ(et.recorded(), 10u);
    EXPECT_EQ(et.dropped(), 6u);
    EXPECT_EQ(et.size(), 4u);
    EXPECT_EQ(et.count(TraceEventType::DirBounce), 10u);

    // Snapshot is chronological and holds the newest events.
    std::vector<TraceEvent> evs = et.snapshot();
    ASSERT_EQ(evs.size(), 4u);
    for (std::size_t i = 0; i < evs.size(); ++i)
        EXPECT_EQ(evs[i].tick, 6 + i);
}

TEST_F(EventTraceTest, CategoryMaskFilters)
{
    EventTrace et(static_cast<std::uint32_t>(TraceCat::Squash));
    sink = &et;

    EVENT_TRACE(TraceEventType::ChunkStart, 1, trackProc(0)); // chunk
    EVENT_TRACE(TraceEventType::ArbGrant, 2, trackProc(0));   // commit
    EVENT_TRACE(TraceEventType::Squash, 3, trackProc(0));     // squash
    EVENT_TRACE(TraceEventType::ChunkSquash, 4, trackProc(0)); // squash

    EXPECT_EQ(et.recorded(), 2u);
    EXPECT_EQ(et.count(TraceEventType::ChunkStart), 0u);
    EXPECT_EQ(et.count(TraceEventType::Squash), 1u);
    EXPECT_EQ(et.count(TraceEventType::ChunkSquash), 1u);
}

TEST_F(EventTraceTest, ParseCommaSeparatedList)
{
    std::uint32_t m = 0;
    std::string err;
    ASSERT_TRUE(parseTraceCategories("chunk,squash", m, err)) << err;
    EXPECT_EQ(m, static_cast<std::uint32_t>(TraceCat::Chunk) |
                     static_cast<std::uint32_t>(TraceCat::Squash));
}

TEST_F(EventTraceTest, ParseAll)
{
    std::uint32_t m = 0;
    std::string err;
    ASSERT_TRUE(parseTraceCategories("all", m, err)) << err;
    EXPECT_EQ(m, ~std::uint32_t{0});
}

TEST_F(EventTraceTest, ParseIsCaseInsensitive)
{
    std::uint32_t m = 0;
    std::string err;
    ASSERT_TRUE(parseTraceCategories("Chunk,SQUASH", m, err)) << err;
    EXPECT_EQ(m, static_cast<std::uint32_t>(TraceCat::Chunk) |
                     static_cast<std::uint32_t>(TraceCat::Squash));
    ASSERT_TRUE(parseTraceCategories("ALL", m, err)) << err;
    EXPECT_EQ(m, ~std::uint32_t{0});
}

TEST_F(EventTraceTest, ParseSkipsEmptyTokens)
{
    std::uint32_t m = 1;
    std::string err;
    ASSERT_TRUE(parseTraceCategories(",chunk,,squash,", m, err)) << err;
    EXPECT_EQ(m, static_cast<std::uint32_t>(TraceCat::Chunk) |
                     static_cast<std::uint32_t>(TraceCat::Squash));
    ASSERT_TRUE(parseTraceCategories("", m, err)) << err;
    EXPECT_EQ(m, 0u);
}

TEST_F(EventTraceTest, ParseRejectsUnknownNames)
{
    std::uint32_t m = 0;
    std::string err;
    EXPECT_FALSE(parseTraceCategories("chunk,frobnicate", m, err));
    EXPECT_NE(err.find("unknown trace category 'frobnicate'"),
              std::string::npos)
        << err;
    // The message lists every known name.
    for (const char *name : {"chunk", "commit", "squash", "coherence",
                             "sync", "analysis", "fault", "watchdog",
                             "all"}) {
        EXPECT_NE(err.find(name), std::string::npos) << name;
    }
}

TEST_F(EventTraceTest, NamesRoundTrip)
{
    for (TraceCat c : {TraceCat::Chunk, TraceCat::Commit,
                       TraceCat::Squash, TraceCat::Coherence,
                       TraceCat::Sync, TraceCat::Analysis,
                       TraceCat::Fault, TraceCat::Watchdog}) {
        std::uint32_t m = 0;
        std::string err;
        ASSERT_TRUE(parseTraceCategories(traceCatName(c), m, err)) << err;
        EXPECT_EQ(m, static_cast<std::uint32_t>(c));
    }
}

TEST_F(EventTraceTest, WriteTextRendersRingInRecordOrder)
{
    EventTrace et(~std::uint32_t{0});
    et.record(TraceEventType::ChunkStart, 100, trackProc(0), 5, 1000);
    et.record(TraceEventType::ArbDecision, 190, trackArb(0), 0, 2, 1);
    et.record(TraceEventType::Squash, 250, trackProc(1), 6, 1,
              static_cast<std::uint8_t>(SquashCause::TrueConflict));
    et.record(TraceEventType::DirExpand, 260, trackDir(3), 0, 12);
    et.record(TraceEventType::ResendGiveUp, 270, trackProc(1), 6, 3);
    // Recorded out of tick order: the text keeps record order.
    et.record(TraceEventType::BarrierArrive, 7, trackProc(2), 0, 3);

    std::ostringstream os;
    et.writeText(os);
    EXPECT_EQ(os.str(),
              "       100: [chunk] cpu0 chunk-start seq=5 arg=1000\n"
              "       190: [commit] arbiter0 arb-decision seq=0 arg=2 "
              "cause=grant\n"
              "       250: [squash] cpu1 squash seq=6 arg=1 "
              "cause=true-conflict\n"
              "       260: [coherence] dir3 dir-expand seq=0 arg=12\n"
              "       270: [fault] cpu1 resend-give-up seq=6 arg=3\n"
              "         7: [sync] cpu2 barrier-arrive seq=0 arg=3\n");
}

TEST_F(EventTraceTest, EnableClearsPreviousContents)
{
    // Re-arming a run's tracing (System::enableTrace) replaces its
    // sink; the fresh one holds nothing of the old.
    EventTrace et(~std::uint32_t{0});
    et.record(TraceEventType::Squash, 1, trackProc(0));
    EXPECT_EQ(et.recorded(), 1u);
    et = EventTrace(~std::uint32_t{0});
    EXPECT_EQ(et.recorded(), 0u);
    EXPECT_EQ(et.size(), 0u);
}

TEST_F(EventTraceTest, TrackNames)
{
    EXPECT_EQ(trackName(trackProc(0)), "cpu0");
    EXPECT_EQ(trackName(trackProc(7)), "cpu7");
    EXPECT_EQ(trackName(trackDir(0)), "dir0");
    EXPECT_EQ(trackName(trackDir(3)), "dir3");
    EXPECT_EQ(trackName(trackArb(0)), "arbiter0");
    EXPECT_EQ(trackName(trackArb(2)), "arbiter2");
}

TEST_F(EventTraceTest, ChromeExportPairsSpansAndInstants)
{
    EventTrace et(~std::uint32_t{0});

    // Chunk 5 on cpu0: start -> commit. Chunk 6: start -> squash.
    et.record(TraceEventType::ChunkStart, 100, trackProc(0), 5, 1000);
    et.record(TraceEventType::ArbRequest, 180, trackProc(0), 5);
    et.record(TraceEventType::ArbDecision, 190, trackArb(0), 0, 0, 1);
    et.record(TraceEventType::ArbGrant, 200, trackProc(0), 5);
    et.record(TraceEventType::ChunkCommit, 200, trackProc(0), 5, 995);
    et.record(TraceEventType::ChunkStart, 210, trackProc(0), 6, 1000);
    et.record(TraceEventType::Squash, 250, trackProc(0), 6, 1,
              static_cast<std::uint8_t>(SquashCause::TrueConflict));
    et.record(TraceEventType::ChunkSquash, 250, trackProc(0), 6, 40,
              static_cast<std::uint8_t>(SquashCause::TrueConflict));
    et.record(TraceEventType::DirBounce, 260, trackDir(0), 0, 0x42);

    std::ostringstream os;
    et.writeChromeTrace(os);
    std::string out = os.str();

    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(out.find("cpu0"), std::string::npos);
    EXPECT_NE(out.find("arbiter0"), std::string::npos);
    EXPECT_NE(out.find("dir0"), std::string::npos);
    // Chunk 5 became a committed complete span of duration 100.
    EXPECT_NE(out.find("\"name\":\"chunk 5\""), std::string::npos);
    EXPECT_NE(out.find("\"dur\":100"), std::string::npos);
    EXPECT_NE(out.find("\"outcome\":\"commit\""), std::string::npos);
    // Chunk 6 closed as a squash span; the squash instants carry the
    // attributed cause.
    EXPECT_NE(out.find("\"outcome\":\"squash\""), std::string::npos);
    EXPECT_NE(out.find("true-conflict"), std::string::npos);
    // Arbitration request/grant paired into a span.
    EXPECT_NE(out.find("\"name\":\"arb 5\""), std::string::npos);
    EXPECT_NE(out.find("arb-decision (grant)"), std::string::npos);
    EXPECT_NE(out.find("\"recorded\": 9"), std::string::npos);
}

TEST_F(EventTraceTest, ChromeExportLeavesUnfinishedSpansOpen)
{
    EventTrace et(~std::uint32_t{0});
    et.record(TraceEventType::ChunkStart, 10, trackProc(3), 1, 500);
    et.record(TraceEventType::DirBounce, 90, trackDir(0), 0, 1);

    std::ostringstream os;
    et.writeChromeTrace(os);
    std::string out = os.str();
    // The live chunk extends to the last observed tick (90).
    EXPECT_NE(out.find("\"outcome\":\"open\""), std::string::npos);
    EXPECT_NE(out.find("\"dur\":80"), std::string::npos);
}

TEST_F(EventTraceTest, OverlappingChunksGetSeparateRows)
{
    EventTrace et(~std::uint32_t{0});
    // Two simultaneously-live chunks on one processor
    // (maxLiveChunks = 2): the export must not stack them on one row.
    et.record(TraceEventType::ChunkStart, 0, trackProc(0), 1, 0);
    et.record(TraceEventType::ChunkStart, 50, trackProc(0), 2, 0);
    et.record(TraceEventType::ChunkCommit, 100, trackProc(0), 1, 0);
    et.record(TraceEventType::ChunkCommit, 150, trackProc(0), 2, 0);

    std::ostringstream os;
    et.writeChromeTrace(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"tid\":0"), std::string::npos);
    EXPECT_NE(out.find("\"tid\":1"), std::string::npos);
    EXPECT_NE(out.find("chunks-0"), std::string::npos);
    EXPECT_NE(out.find("chunks-1"), std::string::npos);
}

} // namespace
} // namespace bulksc
