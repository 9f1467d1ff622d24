// BinaryWriter/BinaryReader round trips, truncation errors, and the file
// helpers the snapshot layer builds on.
#include "util/binary_io.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "temp_path.hpp"

namespace popbean {
namespace {

TEST(BinaryIoTest, ScalarsRoundTrip) {
  BinaryWriter out;
  out.u8(0xab);
  out.u16(0xbeef);
  out.u32(0xdeadbeef);
  out.u64(0x0123456789abcdefULL);
  out.i64(-42);
  out.f64(-3.25);
  const std::string bytes = out.bytes();

  BinaryReader in(bytes);
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u16(), 0xbeef);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.i64(), -42);
  EXPECT_EQ(in.f64(), -3.25);
  EXPECT_TRUE(in.at_end());
}

TEST(BinaryIoTest, IntegersAreLittleEndianOnTheWire) {
  BinaryWriter out;
  out.u32(0x01020304);
  const std::string bytes = out.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
}

TEST(BinaryIoTest, StringsAndVectorsRoundTrip) {
  BinaryWriter out;
  out.str("hello \0 world");  // literal truncates at NUL — still round-trips
  out.str("");
  out.vec_u64({1, 2, 3});
  out.vec_u64({});
  const std::string bytes = out.bytes();

  BinaryReader in(bytes);
  EXPECT_EQ(in.str(), "hello ");
  EXPECT_EQ(in.str(), "");
  EXPECT_EQ(in.vec_u64(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(in.vec_u64().empty());
  EXPECT_TRUE(in.at_end());
}

TEST(BinaryIoTest, TruncatedReadsThrow) {
  BinaryWriter out;
  out.u64(7);
  const std::string bytes = out.bytes();
  BinaryReader short_scalar(std::string_view(bytes).substr(0, 5));
  EXPECT_THROW(short_scalar.u64(), std::runtime_error);

  BinaryWriter str_out;
  str_out.str("abcdef");
  const std::string str_bytes = str_out.bytes();
  // Length prefix intact, body cut: the declared size exceeds what remains.
  BinaryReader short_str(std::string_view(str_bytes).substr(0, 10));
  EXPECT_THROW(short_str.str(), std::runtime_error);
}

TEST(BinaryIoTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  // Chaining is the same as hashing the concatenation.
  EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
}

TEST(BinaryIoTest, FileHelpersRoundTripAndCleanUpStaging) {
  const std::string path = unique_temp_path("popbean_binary_io_test", ".bin");
  const std::string payload = std::string("\x00\x01\xff binary", 9);
  write_file_atomic(path, payload);
  EXPECT_EQ(read_file_bytes(path), payload);
  // The staging file must not survive a successful write.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  // Overwrite is atomic too (no append, no residue).
  write_file_atomic(path, "second");
  EXPECT_EQ(read_file_bytes(path), "second");
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReadMissingFileThrowsWithPath) {
  try {
    read_file_bytes("/nonexistent/popbean/nope.bin");
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nope.bin"), std::string::npos);
  }
}

}  // namespace
}  // namespace popbean
