// Tests for src/common: Status/Result, string utilities, stopwatch,
// logging, word hashing.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/word_hash.h"

namespace aod {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad epsilon");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad epsilon");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad epsilon");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Closed("x").code(), StatusCode::kClosed);
  EXPECT_EQ(Status::Overloaded("x").code(), StatusCode::kOverloaded);
  EXPECT_EQ(Status::ShuttingDown("x").code(), StatusCode::kShuttingDown);
}

TEST(StatusCodeTest, NamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kClosed), "Closed");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOverloaded), "Overloaded");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kShuttingDown),
               "ShuttingDown");
}

// The serve layer's typed rejections: kOverloaded means "retry later",
// kShuttingDown means "fail over" — callers branch on the code, so the
// codes (and their printed names) are load-bearing API.
TEST(StatusTest, ServeRejectionsAreDistinctAndPrintable) {
  const Status overloaded = Status::Overloaded("queue full");
  const Status draining = Status::ShuttingDown("drain in progress");
  EXPECT_NE(overloaded.code(), draining.code());
  EXPECT_EQ(overloaded.ToString(), "Overloaded: queue full");
  EXPECT_EQ(draining.ToString(), "ShuttingDown: drain in progress");
}

TEST(StatusTest, StreamInsertionMatchesToString) {
  std::ostringstream code_os;
  code_os << StatusCode::kOverloaded;
  EXPECT_EQ(code_os.str(), "Overloaded");

  std::ostringstream status_os;
  status_os << Status::ShuttingDown("bye") << " / " << Status::OK();
  EXPECT_EQ(status_os.str(), "ShuttingDown: bye / OK");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("no field");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  AOD_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(QuarterEven(8).value(), 2);
  EXPECT_FALSE(QuarterEven(6).ok());
  EXPECT_FALSE(QuarterEven(3).ok());
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(SplitString("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(SplitString(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("x"), "x");
}

TEST(StringUtilTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"only"}, ","), "only");
}

TEST(StringUtilTest, ParseInt64Strict) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("  13  ").value(), 13);
  EXPECT_FALSE(ParseInt64("1.5").has_value());
  EXPECT_FALSE(ParseInt64("12abc").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").has_value());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("7").value(), 7.0);
  EXPECT_FALSE(ParseDouble("2.5x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("--3").has_value());
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("NULL", "null"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("na", "n/a"));
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(1.5, 4), "1.5");
  EXPECT_EQ(FormatDouble(2.0, 4), "2");
  EXPECT_EQ(FormatDouble(0.4444444, 2), "0.44");
}

TEST(StopwatchTest, MeasuresNonNegativeMonotoneTime) {
  Stopwatch sw;
  int64_t first = sw.ElapsedNanos();
  EXPECT_GE(first, 0);
  volatile int64_t sink = 0;  // int would overflow (UB) before 100k sums
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.ElapsedNanos(), first);
  sw.Restart();
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

TEST(LoggingTest, LevelRoundTrip) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Emitting below the level must be a no-op (and must not crash).
  AOD_LOG(kDebug) << "suppressed";
  SetLogLevel(before);
}

TEST(WordHashTest, EveryChangeInsideOneWordChangesTheHash) {
  // Lengths cover empty input, a lone tail, the lane loop, the tail-word
  // loop and a partial last word. Every byte position and several flip
  // patterns, the full byte included, must change the hash: each step is
  // a bijection in the state, so this holds for all inputs, not with
  // high probability.
  for (size_t size = 0; size <= 75; ++size) {
    std::vector<uint8_t> data(size);
    for (size_t i = 0; i < size; ++i) {
      data[i] = static_cast<uint8_t>(i * 37 + size);
    }
    const uint64_t base = HashWords(7, data.data(), size);
    for (size_t at = 0; at < size; ++at) {
      for (uint8_t flip : {0x01, 0x80, 0x5A, 0xFF}) {
        std::vector<uint8_t> bad = data;
        bad[at] ^= flip;
        EXPECT_NE(HashWords(7, bad.data(), size), base)
            << "size " << size << " offset " << at;
      }
    }
    // A different seed or length gives a different function.
    EXPECT_NE(HashWords(8, data.data(), size), base);
    if (size > 0) {
      EXPECT_NE(HashWords(7, data.data(), size - 1), base);
    }
  }
}

}  // namespace
}  // namespace aod
