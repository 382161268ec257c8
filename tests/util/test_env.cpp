#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

namespace encdns::util {
namespace {

constexpr const char* kVar = "ENCDNS_TEST_ENV_VAR";

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(kVar); }
  void set(const char* value) { ::setenv(kVar, value, 1); }
};

TEST_F(EnvTest, UnsetReturnsNullopt) {
  ::unsetenv(kVar);
  EXPECT_FALSE(env_string(kVar).has_value());
  EXPECT_FALSE(env_int(kVar).has_value());
  EXPECT_FALSE(env_positive_int(kVar).has_value());
  EXPECT_FALSE(env_double(kVar).has_value());
  EXPECT_FALSE(env_bool(kVar).has_value());
}

TEST_F(EnvTest, IntParsesStrictBase10) {
  set("42");
  EXPECT_EQ(env_int(kVar), 42);
  set("-7");
  EXPECT_EQ(env_int(kVar), -7);
}

TEST_F(EnvTest, IntRejectsTrailingJunk) {
  // The whole point of the shared helper: a typo must fail loudly, not
  // silently degrade to a default (ENCDNS_THREADS=fuor used to run serial).
  for (const char* bad : {"fuor", "4x", "4 ", " 4", "", "0x10", "4.0",
                          "9223372036854775808"}) {
    set(bad);
    EXPECT_THROW((void)env_int(kVar), EnvError) << "value: '" << bad << "'";
  }
}

TEST_F(EnvTest, PositiveIntRejectsZeroAndNegative) {
  set("8");
  EXPECT_EQ(env_positive_int(kVar), 8);
  set("0");
  EXPECT_THROW((void)env_positive_int(kVar), EnvError);
  set("-3");
  EXPECT_THROW((void)env_positive_int(kVar), EnvError);
}

TEST_F(EnvTest, DoubleRequiresFiniteFullConsume) {
  set("2.5");
  EXPECT_DOUBLE_EQ(env_double(kVar).value(), 2.5);
  set("1e2");
  EXPECT_DOUBLE_EQ(env_double(kVar).value(), 100.0);
  for (const char* bad : {"2.5s", "nan", "inf", "", "--1"}) {
    set(bad);
    EXPECT_THROW((void)env_double(kVar), EnvError) << "value: '" << bad << "'";
  }
}

// The string-level parsers behind env_*, also used for encdns_study's
// --seed and --deadline: nullopt instead of a silent default.
TEST(ParseText, IntIsStrictBase10) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  for (const char* bad : {"", " 4", "4 ", "4x", "abc", "0x10", "4.0",
                          "9223372036854775808"})
    EXPECT_FALSE(parse_int(bad).has_value()) << "text: '" << bad << "'";
}

TEST(ParseText, U64IsDigitsOnly) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("2019"), 2019u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  // strtoull would read "-1" as 2^64-1 and "abc" as 0.
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "12x",
                          "18446744073709551616"})
    EXPECT_FALSE(parse_u64(bad).has_value()) << "text: '" << bad << "'";
}

TEST(ParseText, DoubleIsFiniteAndFullyConsumed) {
  EXPECT_DOUBLE_EQ(parse_double("5").value(), 5.0);
  EXPECT_DOUBLE_EQ(parse_double("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(parse_double("-1.5").value(), -1.5);
  for (const char* bad : {"", "5x", " 5", "5 ", "nan", "NaN", "inf",
                          "-inf", "infinity", "1e400"})
    EXPECT_FALSE(parse_double(bad).has_value()) << "text: '" << bad << "'";
}

TEST_F(EnvTest, BoolAcceptsCanonicalSpellings) {
  for (const char* truthy : {"on", "ON", "true", "True", "1"}) {
    set(truthy);
    EXPECT_EQ(env_bool(kVar), true) << "value: '" << truthy << "'";
  }
  for (const char* falsy : {"off", "OFF", "false", "False", "0"}) {
    set(falsy);
    EXPECT_EQ(env_bool(kVar), false) << "value: '" << falsy << "'";
  }
  for (const char* bad : {"maybe", "yes pls", ""}) {
    set(bad);
    EXPECT_THROW((void)env_bool(kVar), EnvError) << "value: '" << bad << "'";
  }
}

TEST_F(EnvTest, ErrorNamesVariableAndValue) {
  set("fuor");
  try {
    (void)env_int(kVar);
    FAIL() << "expected EnvError";
  } catch (const EnvError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kVar), std::string::npos);
    EXPECT_NE(what.find("fuor"), std::string::npos);
  }
}

}  // namespace
}  // namespace encdns::util
