#include "data/io.h"

#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "data/generators.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(IoTest, CsvRoundTrip) {
  const auto pts = GenerateOsmLike(500, 3);
  const std::string path = TempPath("points.csv");
  ASSERT_TRUE(SavePointsCsv(path, pts));
  std::vector<Point> loaded;
  ASSERT_TRUE(LoadPointsCsv(path, &loaded));
  ASSERT_EQ(loaded.size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].x, pts[i].x);
    EXPECT_DOUBLE_EQ(loaded[i].y, pts[i].y);
  }
  std::remove(path.c_str());
}

TEST(IoTest, CsvSkipsHeadersAndSupportsSeparators) {
  const std::string path = TempPath("mixed.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("lon,lat\n", f);           // header: skipped
  std::fputs("0.25,0.75\n", f);          // comma
  std::fputs("0.5;0.5\n", f);            // semicolon
  std::fputs("0.1\t0.9\n", f);           // tab
  std::fputs("0.3 0.6\n", f);            // space
  std::fputs("# comment line\n", f);     // skipped
  std::fclose(f);

  std::vector<Point> pts;
  ASSERT_TRUE(LoadPointsCsv(path, &pts));
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_DOUBLE_EQ(pts[0].x, 0.25);
  EXPECT_DOUBLE_EQ(pts[0].y, 0.75);
  EXPECT_DOUBLE_EQ(pts[1].x, 0.5);
  EXPECT_DOUBLE_EQ(pts[2].y, 0.9);
  EXPECT_DOUBLE_EQ(pts[3].x, 0.3);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRoundTrip) {
  const auto pts = GenerateTigerLike(2000, 5);
  const std::string path = TempPath("points.bin");
  ASSERT_TRUE(SavePointsBinary(path, pts));
  std::vector<Point> loaded;
  ASSERT_TRUE(LoadPointsBinary(path, &loaded));
  ASSERT_EQ(loaded.size(), pts.size());
  for (size_t i = 0; i < pts.size(); i += 37) {
    EXPECT_DOUBLE_EQ(loaded[i].x, pts[i].x);
    EXPECT_DOUBLE_EQ(loaded[i].y, pts[i].y);
  }
  std::remove(path.c_str());
}

TEST(IoTest, MissingFilesReportFailure) {
  std::vector<Point> pts;
  EXPECT_FALSE(LoadPointsCsv("/nonexistent/nope.csv", &pts));
  EXPECT_FALSE(LoadPointsBinary("/nonexistent/nope.bin", &pts));
  EXPECT_TRUE(pts.empty());
}

TEST(IoTest, BinaryAppendsToExistingVector) {
  const auto pts = GenerateUniform(100, 7);
  const std::string path = TempPath("append.bin");
  ASSERT_TRUE(SavePointsBinary(path, pts));
  std::vector<Point> loaded = {{0.0, 0.0}};
  ASSERT_TRUE(LoadPointsBinary(path, &loaded));
  EXPECT_EQ(loaded.size(), 101u);
  std::remove(path.c_str());
}

// CRC-32 guards index-container payloads and write-behind log records.

TEST(Crc32Test, KnownVector) {
  // The standard test vector: CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, SeedChainsIncrementally) {
  const char* s = "hello, paged world";
  const uint32_t whole = Crc32(s, 18);
  const uint32_t first = Crc32(s, 7);
  EXPECT_EQ(Crc32(s + 7, 11, first), whole);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<unsigned char> buf(512);
  unsigned x = 3 * 2654435761u + 1;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  const uint32_t before = Crc32(buf.data(), buf.size());
  buf[137] ^= 0x10;
  EXPECT_NE(Crc32(buf.data(), buf.size()), before);
}

}  // namespace
}  // namespace rsmi
