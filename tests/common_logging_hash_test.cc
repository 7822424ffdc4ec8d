#include <gtest/gtest.h>

#include <thread>

#include "common/hash.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/timer.h"

namespace kg {
namespace {

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ KG_CHECK(1 == 2) << "boom"; }, "Check failed: 1 == 2");
}

TEST(LoggingDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(KG_CHECK_OK(Status::NotFound("nope")), "not_found");
}

TEST(LoggingTest, CheckPassesSilently) {
  KG_CHECK(true) << "never rendered";
  KG_CHECK_OK(Status::OK());
}

TEST(HashTest, Fnv1aIsStable) {
  // Known FNV-1a vectors: must never change across platforms/builds.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(Fnv1a64("a"), 12638187200555641996ULL);
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("acb"));
}

TEST(HashTest, HashCombineMixesOrderSensitively) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_NE(HashCombine(0, 0), 0u);
}

TEST(HashTest, PairHashUsableInContainers) {
  std::unordered_map<std::pair<int, int>, int, PairHash> map;
  map[{1, 2}] = 3;
  map[{2, 1}] = 4;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ((map[{1, 2}]), 3);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.ElapsedMillis(), 15.0);
  EXPECT_GE(timer.ElapsedSeconds(), 0.015);
  timer.Reset();
  EXPECT_LT(timer.ElapsedMillis(), 15.0);
}

}  // namespace
}  // namespace kg
