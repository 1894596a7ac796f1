#include "util/args.hpp"

#include <gtest/gtest.h>

#include <string>

namespace wu = wakeup::util;

namespace {

wu::Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return wu::Args(static_cast<int>(v.size()), v.data());
}

}  // namespace

TEST(Args, KeyEqualsValue) {
  const auto args = parse({"prog", "--n=64", "--protocol=rpd_n"});
  EXPECT_EQ(args.get_int("n", 0), 64);
  EXPECT_EQ(args.get("protocol"), "rpd_n");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Args, KeySpaceValue) {
  const auto args = parse({"prog", "--n", "128", "--name", "abc"});
  EXPECT_EQ(args.get_int("n", 0), 128);
  EXPECT_EQ(args.get("name"), "abc");
}

TEST(Args, Flags) {
  const auto args = parse({"prog", "--trace", "--cd", "--verbose=false"});
  EXPECT_TRUE(args.get_flag("trace"));
  EXPECT_TRUE(args.get_flag("cd"));
  EXPECT_FALSE(args.get_flag("verbose"));
  EXPECT_FALSE(args.get_flag("absent"));
}

TEST(Args, FlagFollowedByOption) {
  // "--trace --n=4": trace must be a flag, not consume "--n=4".
  const auto args = parse({"prog", "--trace", "--n=4"});
  EXPECT_TRUE(args.get_flag("trace"));
  EXPECT_EQ(args.get_int("n", 0), 4);
}

TEST(Args, Positional) {
  const auto args = parse({"prog", "run", "--n=8", "extra"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "extra");
}

TEST(Args, Defaults) {
  const auto args = parse({"prog"});
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
}

TEST(Args, Doubles) {
  const auto args = parse({"prog", "--c=2.5"});
  EXPECT_DOUBLE_EQ(args.get_double("c", 0.0), 2.5);
}

TEST(Args, MalformedNumberThrows) {
  const auto args = parse({"prog", "--n=abc"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("n", 0), std::invalid_argument);
  // A number must be the whole value: a parsed prefix is not accepted.
  for (const char* text : {"--v=2e3", "--v=4x", "--v=64.5", "--v=10abc", "--v=1 ",
                           "--v=99999999999999999999"}) {
    const auto partial = parse({"prog", text});
    EXPECT_THROW((void)partial.get_int("v", 0), std::invalid_argument) << text;
  }
  for (const char* text : {"--v=2.5x", "--v=1e3e", "--v=nan", "--v=inf", "--v=-inf",
                           "--v=1e999"}) {
    const auto partial = parse({"prog", text});
    EXPECT_THROW((void)partial.get_double("v", 0), std::invalid_argument) << text;
  }
  // The message names the flag.
  try {
    (void)parse({"prog", "--seed=2e3"}).get_int("seed", 1);
    FAIL() << "--seed=2e3 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos) << e.what();
  }
  // Whole numbers still parse, signs included.
  EXPECT_EQ(parse({"prog", "--v=-12"}).get_int("v", 0), -12);
  EXPECT_DOUBLE_EQ(parse({"prog", "--v=2e3"}).get_double("v", 0), 2000.0);
}

TEST(Args, MalformedOptionThrows) {
  EXPECT_THROW(parse({"prog", "--=x"}), std::invalid_argument);
  EXPECT_THROW(parse({"prog", "--"}), std::invalid_argument);
}

TEST(Args, HasDistinguishesPresence) {
  const auto args = parse({"prog", "--present=1"});
  EXPECT_TRUE(args.has("present"));
  EXPECT_FALSE(args.has("absent"));
}
