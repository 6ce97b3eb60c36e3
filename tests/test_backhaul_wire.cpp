#include "backhaul/wire.hpp"

#include <gtest/gtest.h>

namespace alphawan {
namespace {

TEST(Wire, PrimitiveRoundTrip) {
  BufferWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.f64(-2.5);
  w.str("hello");
  BufferReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, LittleEndianLayout) {
  BufferWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.data()[0], 0x02);
  EXPECT_EQ(w.data()[1], 0x01);
}

TEST(Wire, TruncatedReadFails) {
  BufferWriter w;
  w.u16(7);
  BufferReader r(w.data());
  EXPECT_TRUE(r.u8().has_value());
  EXPECT_FALSE(r.u16().has_value());  // only 1 byte left
  EXPECT_FALSE(r.ok());
  // Latched: even a fitting read now fails.
  EXPECT_FALSE(r.u8().has_value());
}

TEST(Wire, StringWithBadLengthFails) {
  BufferWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8('x');
  BufferReader r(w.data());
  EXPECT_FALSE(r.str().has_value());
  EXPECT_FALSE(r.ok());
}

TEST(Wire, EmptyString) {
  BufferWriter w;
  w.str("");
  BufferReader r(w.data());
  EXPECT_EQ(r.str(), "");
}

}  // namespace
}  // namespace alphawan
