#include <gtest/gtest.h>

#include <stdexcept>

#include "util/bytes.h"
#include "util/hex.h"
#include "util/stats.h"

namespace {

using ibbe::util::ByteReader;
using ibbe::util::Bytes;
using ibbe::util::ByteWriter;

TEST(Hex, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x10};
  auto hex = ibbe::util::to_hex(data);
  EXPECT_EQ(hex, "0001abff10");
  EXPECT_EQ(ibbe::util::from_hex(hex), data);
}

TEST(Hex, AcceptsPrefixAndUppercase) {
  EXPECT_EQ(ibbe::util::from_hex("0xDEADBEEF"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Hex, RejectsOddLength) {
  EXPECT_THROW(ibbe::util::from_hex("abc"), std::invalid_argument);
}

TEST(Hex, RejectsBadDigit) {
  EXPECT_THROW(ibbe::util::from_hex("zz"), std::invalid_argument);
}

TEST(Hex, EmptyIsEmpty) {
  EXPECT_TRUE(ibbe::util::from_hex("").empty());
  EXPECT_EQ(ibbe::util::to_hex({}), "");
}

TEST(ByteIo, IntegersRoundTripBigEndian) {
  ByteWriter w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789abcde);
  w.u64(0x0123456789abcdefULL);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u32(), 0x789abcdeu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.empty());
}

TEST(ByteIo, BlobAndStringRoundTrip) {
  ByteWriter w;
  w.blob(Bytes{1, 2, 3});
  w.str("hello");
  w.blob(Bytes{});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.blob(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.blob().empty());
  r.expect_end();
}

TEST(ByteIo, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0);
  EXPECT_THROW(r.u32(), ibbe::util::DeserializeError);
}

TEST(ByteIo, TruncatedBlobThrows) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow
  w.u8(1);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.blob(), ibbe::util::DeserializeError);
}

TEST(ByteIo, ExpectEndThrowsOnTrailing) {
  Bytes data{1, 2};
  ByteReader r(data);
  r.u8();
  EXPECT_THROW(r.expect_end(), ibbe::util::DeserializeError);
}

TEST(CtEqual, Basics) {
  Bytes a{1, 2, 3};
  Bytes b{1, 2, 3};
  Bytes c{1, 2, 4};
  Bytes d{1, 2};
  EXPECT_TRUE(ibbe::util::ct_equal(a, b));
  EXPECT_FALSE(ibbe::util::ct_equal(a, c));
  EXPECT_FALSE(ibbe::util::ct_equal(a, d));
  EXPECT_TRUE(ibbe::util::ct_equal({}, {}));
}

TEST(Summary, MeanMinMax) {
  ibbe::util::Summary s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_EQ(s.count(), 4u);
}

TEST(Summary, Percentile) {
  ibbe::util::Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
}

TEST(Summary, CdfIsMonotonic) {
  ibbe::util::Summary s;
  for (int i = 0; i < 57; ++i) s.add(i * 0.37);
  auto cdf = s.cdf(10);
  ASSERT_EQ(cdf.size(), 10u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Summary, ThrowsWithoutSamples) {
  ibbe::util::Summary s;
  EXPECT_THROW((void)s.mean(), std::logic_error);
  EXPECT_THROW((void)s.percentile(0.5), std::logic_error);
}

TEST(Summary, Stddev) {
  ibbe::util::Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(ByteReader, CountAcceptsPlausiblePrefixes) {
  ByteWriter w;
  w.u32(3);
  w.raw(std::vector<std::uint8_t>(12, 0xaa));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.count(4), 3u);
}

TEST(ByteReader, CountRejectsHostilePrefixBeforeAllocating) {
  // A count claiming more elements than the remaining bytes could possibly
  // encode must throw DeserializeError, not drive reserve() into bad_alloc.
  ByteWriter w;
  w.u32(0xffffffffu);
  w.raw(std::vector<std::uint8_t>(8, 0));
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.count(4), ibbe::util::DeserializeError);
}

}  // namespace
