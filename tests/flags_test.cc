// Tests for the command-line flag parser used by the tpp CLI.

#include "common/flags.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/thread_pool.h"

namespace tpp {
namespace {

ParsedArgs MustParse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  Result<ParsedArgs> args =
      ParsedArgs::Parse(static_cast<int>(argv.size()), argv.data());
  TPP_CHECK(args.ok());
  return *args;
}

TEST(FlagsTest, PositionalAndFlags) {
  ParsedArgs args = MustParse({"protect", "--graph=g.edges", "--k=5"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "protect");
  EXPECT_EQ(args.GetString("graph", ""), "g.edges");
  EXPECT_EQ(*args.GetInt("k", 0), 5);
}

TEST(FlagsTest, SpaceSeparatedValues) {
  ParsedArgs args = MustParse({"--graph", "g.edges", "--k", "7"});
  EXPECT_EQ(args.GetString("graph", ""), "g.edges");
  EXPECT_EQ(*args.GetInt("k", 0), 7);
}

TEST(FlagsTest, BooleanFlags) {
  ParsedArgs args = MustParse({"--verbose", "--lazy=true", "--eager=0"});
  EXPECT_TRUE(args.GetBool("verbose"));
  EXPECT_TRUE(args.GetBool("lazy"));
  EXPECT_FALSE(args.GetBool("eager"));
  EXPECT_FALSE(args.GetBool("absent"));
  EXPECT_TRUE(args.GetBool("absent", true));
}

TEST(FlagsTest, Fallbacks) {
  ParsedArgs args = MustParse({});
  EXPECT_EQ(args.GetString("missing", "dflt"), "dflt");
  EXPECT_EQ(*args.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(*args.GetDouble("missing", 0.5), 0.5);
  EXPECT_FALSE(args.Has("missing"));
}

TEST(FlagsTest, DoubleValues) {
  ParsedArgs args = MustParse({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(*args.GetDouble("scale", 1.0), 0.25);
}

TEST(FlagsTest, BadValuesErrorOnRead) {
  ParsedArgs args = MustParse({"--k=abc"});
  EXPECT_FALSE(args.GetInt("k", 0).ok());
  EXPECT_FALSE(args.GetDouble("k", 0).ok());
  EXPECT_EQ(args.GetString("k", ""), "abc");  // raw access still works
}

TEST(FlagsTest, ParseErrors) {
  const char* dup[] = {"prog", "--k=1", "--k=2"};
  EXPECT_FALSE(ParsedArgs::Parse(3, dup).ok());
  const char* bare[] = {"prog", "--"};
  EXPECT_FALSE(ParsedArgs::Parse(2, bare).ok());
  const char* empty_key[] = {"prog", "--=v"};
  EXPECT_FALSE(ParsedArgs::Parse(2, empty_key).ok());
}

TEST(FlagsTest, UnreadFlagsReported) {
  ParsedArgs args = MustParse({"--used=1", "--unused=2"});
  (void)args.GetInt("used", 0);
  std::vector<std::string> unread = args.UnreadFlags();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "unused");
}

TEST(ThreadsFlagTest, AppliesAndResets) {
  // Explicit count wins over the automatic resolution.
  SetGlobalThreadCount(3);
  EXPECT_EQ(GlobalThreadCount(), 3);
  ParsedArgs args = MustParse({"--threads=2"});
  ASSERT_TRUE(ApplyThreadsFlag(args).ok());
  EXPECT_EQ(GlobalThreadCount(), 2);
  // 0 resets to auto, which is always at least one worker.
  ParsedArgs reset = MustParse({"--threads=0"});
  ASSERT_TRUE(ApplyThreadsFlag(reset).ok());
  EXPECT_GE(GlobalThreadCount(), 1);
}

TEST(ThreadsFlagTest, AbsentFlagLeavesSettingUntouched) {
  SetGlobalThreadCount(5);
  ParsedArgs args = MustParse({"--other=1"});
  ASSERT_TRUE(ApplyThreadsFlag(args).ok());
  EXPECT_EQ(GlobalThreadCount(), 5);
  SetGlobalThreadCount(0);  // restore auto for other tests
}

TEST(ThreadsFlagTest, BadValueErrors) {
  SetGlobalThreadCount(5);
  // Unparsable, negative, and past the pool's cap (2^32 + 1 used to
  // truncate to one worker).
  for (const char* flag : {"--threads=lots", "--threads=-2",
                           "--threads=4294967297", "--threads=257"}) {
    SCOPED_TRACE(flag);
    EXPECT_EQ(ApplyThreadsFlag(MustParse({flag})).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(GlobalThreadCount(), 5);  // the setting is untouched
  }
  // The cap itself is accepted.
  ASSERT_TRUE(ApplyThreadsFlag(MustParse({"--threads=256"})).ok());
  EXPECT_EQ(GlobalThreadCount(), ThreadPool::kMaxThreads);
  SetGlobalThreadCount(0);  // restore auto for other tests
}

TEST(FlagsTest, EmptyArgvIsFine) {
  const char* just_prog[] = {"prog"};
  Result<ParsedArgs> args = ParsedArgs::Parse(1, just_prog);
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->positional().empty());
}

}  // namespace
}  // namespace tpp
