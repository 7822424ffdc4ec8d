// Structured tracing semantics: deterministic span ids from
// (seed, qualified path), per-(parent,name) sequence numbering, inert
// null-tracer spans, a JSON export that is a pure function of the
// trace structure under an injected clock, and the per-stage roll-up
// the bench stage tables print.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"

namespace kg::obs {
namespace {

// One scripted build: root -> {load, work, work}, with attrs, under a
// deterministic clock timeline.
std::string ScriptedTrace(uint64_t seed, uint64_t* root_id = nullptr) {
  FixedTraceClock clock;
  Tracer tracer(seed, &clock);
  Span root = tracer.Root("build");
  if (root_id != nullptr) *root_id = root.id();
  root.SetAttr("source", "unit");
  clock.Advance(0.25);
  {
    Span load = root.Child("load");
    load.SetAttr("rows", uint64_t{12});
    clock.Advance(0.5);
  }
  for (int i = 0; i < 2; ++i) {
    Span work = root.Child("work");
    clock.Advance(0.125);
  }
  root.End();
  return tracer.ToJson();
}

TEST(TracerTest, SameSeedAndStructureExportIdentically) {
  uint64_t id_a = 0, id_b = 0;
  const std::string a = ScriptedTrace(42, &id_a);
  const std::string b = ScriptedTrace(42, &id_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(id_a, id_b);
}

TEST(TracerTest, SeedChangesEverySpanId) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  uint64_t id_a = 0, id_b = 0;
  const std::string a = ScriptedTrace(42, &id_a);
  const std::string b = ScriptedTrace(43, &id_b);
  EXPECT_NE(id_a, id_b);
  EXPECT_NE(a, b);
}

TEST(TracerTest, PathsChainNameAndSequence) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  Tracer tracer(1);
  Span root = tracer.Root("build");
  EXPECT_EQ(root.path(), "/build#0");
  Span c0 = root.Child("stage");
  Span c1 = root.Child("stage");
  EXPECT_EQ(c0.path(), "/build#0/stage#0");
  EXPECT_EQ(c1.path(), "/build#0/stage#1");
  c0.End();
  c1.End();
  // A second root of the same name gets the next sequence number.
  root.End();
  Span again = tracer.Root("build");
  EXPECT_EQ(again.path(), "/build#1");
}

TEST(TracerTest, JsonNestsChildrenSortedByNameAndSeq) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  FixedTraceClock clock(2.0);
  Tracer tracer(7, &clock);
  {
    Span root = tracer.Root("build");
    // Finish children out of name order: export must sort by (name, seq).
    Span z = root.Child("zeta");
    Span a = root.Child("alpha");
    z.End();
    a.End();
  }
  const auto parsed = ParseJson(tracer.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& v = *parsed;
  EXPECT_DOUBLE_EQ(v.Find("schema_version")->number, 1.0);
  EXPECT_DOUBLE_EQ(v.Find("seed")->number, 7.0);
  EXPECT_DOUBLE_EQ(v.Find("span_count")->number, 3.0);
  ASSERT_EQ(v.Find("spans")->array.size(), 1u);
  const JsonValue& root = v.Find("spans")->array[0];
  EXPECT_EQ(root.Find("name")->string_value, "build");
  EXPECT_DOUBLE_EQ(root.Find("start_s")->number, 2.0);
  const JsonValue* children = root.Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->array.size(), 2u);
  EXPECT_EQ(children->array[0].Find("name")->string_value, "alpha");
  EXPECT_EQ(children->array[1].Find("name")->string_value, "zeta");
}

TEST(TracerTest, AttrsExportInInsertionOrderAsStrings) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  FixedTraceClock clock;
  Tracer tracer(1, &clock);
  {
    Span root = tracer.Root("r");
    root.SetAttr("text", "hello");
    root.SetAttr("count", int64_t{-4});
    root.SetAttr("total", uint64_t{9});
    root.SetAttr("ratio", 0.5, 2);
  }
  const auto parsed = ParseJson(tracer.ToJson());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* attrs = parsed->Find("spans")->array[0].Find("attrs");
  ASSERT_NE(attrs, nullptr);
  EXPECT_EQ(attrs->Find("text")->string_value, "hello");
  EXPECT_EQ(attrs->Find("count")->string_value, "-4");
  EXPECT_EQ(attrs->Find("total")->string_value, "9");
  EXPECT_EQ(attrs->Find("ratio")->string_value, "0.50");
}

TEST(TracerTest, NullTracerAndDefaultSpansAreInert) {
  Span inert = Tracer::Start(nullptr, "anything");
  EXPECT_FALSE(inert.active());
  inert.SetAttr("k", "v");
  Span child = inert.Child("sub");
  EXPECT_FALSE(child.active());
  inert.End();  // safe, no-op
  Span defaulted;
  defaulted.End();
  EXPECT_EQ(defaulted.id(), 0u);
}

TEST(TracerTest, StartWithTracerRecordsARoot) {
  Tracer tracer(1);
  {
    Span span = Tracer::Start(&tracer, "job");
#ifndef KG_OBS_NOOP
    EXPECT_TRUE(span.active());
#endif
  }
#ifndef KG_OBS_NOOP
  EXPECT_EQ(tracer.finished_spans(), 1u);
#endif
}

TEST(TracerTest, MoveTransfersOwnershipWithoutDoubleRecord) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  Tracer tracer(1);
  {
    Span a = tracer.Root("r");
    Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.active());
    a.End();  // inert moved-from span: no record
  }
  EXPECT_EQ(tracer.finished_spans(), 1u);
  // Move-assignment ends the destination span first.
  Span c = tracer.Root("r");
  c = tracer.Root("r");
  c.End();
  c.End();  // idempotent
  EXPECT_EQ(tracer.finished_spans(), 3u);
}

TEST(TracerTest, UnfinishedSpansAreNotExported) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  Tracer tracer(1);
  Span root = tracer.Root("pending");
  const auto parsed = ParseJson(tracer.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->Find("span_count")->number, 0.0);
  root.End();
  EXPECT_EQ(tracer.finished_spans(), 1u);
}

TEST(TracerTest, ClearResetsSequencesForExactReplay) {
  FixedTraceClock clock;
  Tracer tracer(5, &clock);
  auto run = [&] {
    Span root = tracer.Root("build");
    root.Child("stage").End();
    root.Child("stage").End();
  };
  run();
  const std::string first = tracer.ToJson();
  tracer.Clear();
  clock.Set(0.0);
  run();
  EXPECT_EQ(tracer.ToJson(), first);
}

TEST(TracerTest, ConcurrentUniquelyNamedChildrenExportDeterministically) {
  // The deterministic-id contract under concurrency: same-parent spans
  // created from worker threads must carry caller-unique names (the
  // "chunk@<begin>" convention); then the export is independent of
  // completion order and thread count.
  auto traced = [](size_t threads) {
    FixedTraceClock clock;
    Tracer tracer(9, &clock);
    Span root = tracer.Root("parallel");
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&root, t, threads] {
        for (size_t chunk = t; chunk < 16; chunk += threads) {
          Span span = root.Child("chunk@" + std::to_string(chunk));
          span.SetAttr("items", uint64_t{4});
        }
      });
    }
    for (std::thread& w : workers) w.join();
    root.End();
    return tracer.ToJson();
  };
  const std::string serial = traced(1);
  EXPECT_EQ(traced(2), serial);
  EXPECT_EQ(traced(8), serial);
}

// ---------------------------------------------------------------------------
// Tracer::RollUp: one row per stage name over the finished spans.

TEST(TraceRollUpTest, SumsExactSecondsCallsAndItems) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  FixedTraceClock clock;
  Tracer tracer(7, &clock);
  {
    Span parse = tracer.Root("parse");
    parse.SetAttr("items", uint64_t{10});
    clock.Advance(1.5);
  }
  {
    Span parse = tracer.Root("parse");
    parse.SetAttr("items", uint64_t{6});
    parse.SetAttr("rows", uint64_t{99});  // only "items" is summed
    clock.Advance(0.25);
  }
  const std::vector<StageRow> rows = Tracer::RollUp(&tracer);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].stage, "parse");
  EXPECT_EQ(rows[0].calls, 2u);
  EXPECT_EQ(rows[0].items, 16u);
  EXPECT_EQ(rows[0].seconds, 1.75);
  EXPECT_DOUBLE_EQ(rows[0].ItemsPerSec(), 16.0 / 1.75);
}

TEST(TraceRollUpTest, ChunkSpansFoldIntoOneRow) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  FixedTraceClock clock;
  Tracer tracer(7, &clock);
  Span root = tracer.Root("build");
  root.SetAttr("items", uint64_t{96});
  clock.Advance(0.5);
  for (int begin : {0, 32, 64}) {
    Span chunk = root.Child("chunk@" + std::to_string(begin));
    chunk.SetAttr("items", uint64_t{32});
    clock.Advance(0.125);
  }
  root.End();
  const std::vector<StageRow> rows = Tracer::RollUp(&tracer);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].stage, "build");
  EXPECT_EQ(rows[0].calls, 1u);
  EXPECT_EQ(rows[0].seconds, 0.875);
  EXPECT_EQ(rows[0].items, 96u);
  EXPECT_EQ(rows[1].stage, "chunk");
  EXPECT_EQ(rows[1].calls, 3u);
  EXPECT_EQ(rows[1].seconds, 0.375);
  EXPECT_EQ(rows[1].items, 96u);
}

TEST(TraceRollUpTest, RowsOrderByFirstStartThenName) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  FixedTraceClock clock;
  Tracer tracer(7, &clock);
  Span slow = tracer.Root("slow");  // starts first, finishes last
  clock.Set(1.0);
  tracer.Root("fast").End();
  clock.Set(2.0);
  slow.End();
  tracer.Root("zeta").End();  // ties with alpha: name decides
  tracer.Root("alpha").End();
  clock.Set(3.0);
  tracer.Root("fast").End();  // a later call keeps the row's place
  const std::vector<StageRow> rows = Tracer::RollUp(&tracer);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].stage, "slow");
  EXPECT_EQ(rows[1].stage, "fast");
  EXPECT_EQ(rows[1].calls, 2u);
  EXPECT_EQ(rows[2].stage, "alpha");
  EXPECT_EQ(rows[3].stage, "zeta");
}

TEST(TraceRollUpTest, ZeroSecondsRowReportsZeroThroughput) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  FixedTraceClock clock;
  Tracer tracer(7, &clock);
  Span instant = tracer.Root("instant");
  instant.SetAttr("items", uint64_t{100});
  instant.End();
  const std::vector<StageRow> rows = Tracer::RollUp(&tracer);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].seconds, 0.0);
  EXPECT_EQ(rows[0].items, 100u);
  EXPECT_EQ(rows[0].ItemsPerSec(), 0.0);
}

TEST(TraceRollUpTest, SpanCountsWhenItEnds) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  FixedTraceClock clock;
  Tracer tracer(7, &clock);
  Span load = tracer.Root("load");
  clock.Advance(0.5);
  EXPECT_TRUE(Tracer::RollUp(&tracer).empty());  // still open
  load.SetAttr("items", uint64_t{10});  // known only once the work is done
  load.End();
  const std::vector<StageRow> rows = Tracer::RollUp(&tracer);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].calls, 1u);
  EXPECT_EQ(rows[0].items, 10u);
  EXPECT_EQ(rows[0].seconds, 0.5);
}

TEST(TraceRollUpTest, MovedFromSpanDoesNotDoubleRecord) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  FixedTraceClock clock;
  Tracer tracer(7, &clock);
  {
    Span a = tracer.Root("stage");
    a.SetAttr("items", uint64_t{2});  // travels with the move
    Span b = std::move(a);
    a.SetAttr("items", uint64_t{50});  // NOLINT(bugprone-use-after-move)
    a.End();  // inert: no second call
    clock.Advance(0.5);
  }
  const std::vector<StageRow> rows = Tracer::RollUp(&tracer);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].stage, "stage");
  EXPECT_EQ(rows[0].calls, 1u);
  EXPECT_EQ(rows[0].items, 2u);
  EXPECT_EQ(rows[0].seconds, 0.5);
}

TEST(TraceRollUpTest, NullTracerHasNoRows) {
  EXPECT_TRUE(Tracer::RollUp(nullptr).empty());
  Span inert = Tracer::Start(nullptr, "ignored");
  inert.SetAttr("items", uint64_t{5});
  inert.End();
  EXPECT_TRUE(Tracer::RollUp(nullptr).empty());
}

TEST(TraceRollUpTest, ClearDropsEveryRow) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  FixedTraceClock clock;
  Tracer tracer(7, &clock);
  tracer.Root("a").End();
  tracer.Root("b").End();
  ASSERT_EQ(Tracer::RollUp(&tracer).size(), 2u);
  tracer.Clear();
  EXPECT_TRUE(Tracer::RollUp(&tracer).empty());
}

TEST(TraceRollUpTest, PrintRendersEveryStageRow) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  FixedTraceClock clock;
  Tracer tracer(7, &clock);
  {
    Span fit = tracer.Root("fit");
    fit.SetAttr("items", uint64_t{3000});
    clock.Advance(1.5);
  }
  tracer.Root("extract").End();
  std::ostringstream out;
  PrintStageTable(out, Tracer::RollUp(&tracer));
  const std::string table = out.str();
  for (const char* header : {"stage", "calls", "wall_s", "items", "items/s"}) {
    EXPECT_NE(table.find(header), std::string::npos) << header;
  }
  EXPECT_NE(table.find("| fit "), std::string::npos);
  EXPECT_NE(table.find("| extract "), std::string::npos);
  EXPECT_NE(table.find("1.500"), std::string::npos);
  EXPECT_NE(table.find("3,000"), std::string::npos);
  EXPECT_NE(table.find("2,000"), std::string::npos);  // items/s
  EXPECT_LT(table.find("| fit "), table.find("| extract "));
}

TEST(TraceRollUpTest, ConcurrentChunkSpansSumExactly) {
#ifdef KG_OBS_NOOP
  GTEST_SKIP() << "instrumentation compiled out under KG_OBS_NOOP";
#endif
  FixedTraceClock clock;
  Tracer tracer(7, &clock);
  Span root = tracer.Root("parallel");
  constexpr size_t kThreads = 8;
  constexpr size_t kChunks = 400;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&root, t] {
      for (size_t chunk = t; chunk < kChunks; chunk += kThreads) {
        Span span = root.Child("chunk@" + std::to_string(chunk));
        span.SetAttr("items", static_cast<uint64_t>(chunk));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  root.End();
  const std::vector<StageRow> rows = Tracer::RollUp(&tracer);
  // Every span starts at 0 here, so the name orders the rows.
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].stage, "chunk");
  EXPECT_EQ(rows[0].calls, kChunks);
  EXPECT_EQ(rows[0].items, kChunks * (kChunks - 1) / 2);
  EXPECT_EQ(rows[1].stage, "parallel");
}

}  // namespace
}  // namespace kg::obs
