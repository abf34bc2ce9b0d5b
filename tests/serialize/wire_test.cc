// Wire-container contract: primitives round-trip exactly, unknown sections
// are skipped, and every corruption mode — truncation, a flipped byte, an
// unsupported format version, a kind mismatch — is a typed recoverable
// Status, never UB or a crash.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/serialize/wire.h"

namespace bagcpd {
namespace serialize {
namespace {

std::string SampleBlob() {
  std::string blob;
  WireWriter writer(&blob);
  writer.BeginBlob(BlobKind::kDetector);
  writer.BeginSection(7);
  writer.PutU8(0xAB);
  writer.PutU32(0xDEADBEEFu);
  writer.PutU64(0x0123456789ABCDEFull);
  writer.PutF64(-1234.5e-6);
  const double values[] = {0.0, -0.0, 1.5, 1e300};
  writer.PutF64Array(values, 4);
  writer.PutString("hello wire");
  writer.EndSection();
  writer.BeginSection(9);
  writer.PutU32(42);
  writer.EndSection();
  writer.EndBlob();
  return blob;
}

TEST(WireTest, PrimitivesRoundTrip) {
  const std::string blob = SampleBlob();
  Result<WireReader> opened = OpenBlob(blob, BlobKind::kDetector);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  WireReader reader = opened.ValueOrDie();

  std::uint32_t tag = 0;
  std::string_view payload;
  ASSERT_TRUE(reader.NextSection(&tag, &payload).ok());
  EXPECT_EQ(tag, 7u);
  WireReader section(payload);
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double f64 = 0.0;
  ASSERT_TRUE(section.ReadU8(&u8).ok());
  ASSERT_TRUE(section.ReadU32(&u32).ok());
  ASSERT_TRUE(section.ReadU64(&u64).ok());
  ASSERT_TRUE(section.ReadF64(&f64).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(f64, -1234.5e-6);
  double values[4] = {};
  ASSERT_TRUE(section.ReadF64Array(values, 4).ok());
  EXPECT_EQ(values[0], 0.0);
  EXPECT_TRUE(std::signbit(values[1]));
  EXPECT_EQ(values[2], 1.5);
  EXPECT_EQ(values[3], 1e300);
  std::string_view text;
  ASSERT_TRUE(section.ReadString(&text).ok());
  EXPECT_EQ(text, "hello wire");
  EXPECT_TRUE(section.AtEnd());

  ASSERT_TRUE(reader.NextSection(&tag, &payload).ok());
  EXPECT_EQ(tag, 9u);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireTest, PeekBlobKind) {
  const std::string blob = SampleBlob();
  Result<BlobKind> kind = PeekBlobKind(blob);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(kind.ValueOrDie(), BlobKind::kDetector);
}

TEST(WireTest, KindMismatchIsInvalid) {
  const std::string blob = SampleBlob();
  const Status status = OpenBlob(blob, BlobKind::kEngineStream).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST(WireTest, EveryTruncationIsIoError) {
  const std::string blob = SampleBlob();
  // Chop the blob at every possible length: each prefix must fail with a
  // typed IoError (the CRC footer is gone or wrong, or the container is
  // smaller than its minimal size) and never crash.
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const Status status =
        OpenBlob(std::string_view(blob).substr(0, len), BlobKind::kDetector)
            .status();
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << "prefix of " << len << ": " << status.ToString();
  }
}

TEST(WireTest, EveryFlippedByteIsDetected) {
  const std::string blob = SampleBlob();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string corrupt = blob;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    const Status status = OpenBlob(corrupt, BlobKind::kDetector).status();
    // A flip lands on the magic, the version, the kind, the body, or the CRC
    // itself — all surface as a typed error, mostly the checksum.
    EXPECT_FALSE(status.ok()) << "flipped byte " << i;
    EXPECT_TRUE(status.code() == StatusCode::kIoError ||
                status.code() == StatusCode::kNotImplemented ||
                status.code() == StatusCode::kInvalidArgument)
        << "flipped byte " << i << ": " << status.ToString();
  }
}

TEST(WireTest, UnknownFormatVersionIsNotImplemented) {
  std::string blob = SampleBlob();
  // The version field sits right after the 8-byte magic (little-endian u32).
  blob[8] = 99;
  const Status status = OpenBlob(blob, BlobKind::kDetector).status();
  EXPECT_EQ(status.code(), StatusCode::kNotImplemented) << status.ToString();
}

TEST(WireTest, UnknownSectionsAreSkippable) {
  std::string blob;
  WireWriter writer(&blob);
  writer.BeginBlob(BlobKind::kEngineStream);
  writer.BeginSection(1000);  // From a hypothetical future format revision.
  writer.PutString("future payload");
  writer.EndSection();
  writer.BeginSection(3);
  writer.PutU32(5);
  writer.EndSection();
  writer.EndBlob();

  Result<WireReader> opened = OpenBlob(blob, BlobKind::kEngineStream);
  ASSERT_TRUE(opened.ok());
  WireReader reader = opened.ValueOrDie();
  std::uint32_t tag = 0;
  std::string_view payload;
  std::vector<std::uint32_t> tags;
  while (!reader.AtEnd()) {
    ASSERT_TRUE(reader.NextSection(&tag, &payload).ok());
    tags.push_back(tag);
  }
  EXPECT_EQ(tags, (std::vector<std::uint32_t>{1000, 3}));
}

TEST(WireTest, F64ArrayBoundDoesNotOverflow) {
  // 8 * n wraps to 0 for n = 2^61; the bound must still see that the 16
  // bytes cannot hold n doubles, and a rejected read writes nothing.
  const std::string bytes(16, '\x11');
  WireReader reader(bytes);
  double out[2] = {-1.0, -1.0};
  const std::size_t wrapping = std::numeric_limits<std::size_t>::max() / 8 + 1;
  EXPECT_EQ(reader.ReadF64Array(out, wrapping).code(), StatusCode::kIoError);
  EXPECT_EQ(reader.ReadF64Array(out, 3).code(), StatusCode::kIoError);
  EXPECT_EQ(out[0], -1.0);
  EXPECT_EQ(out[1], -1.0);
  EXPECT_EQ(reader.remaining(), 16u);
  EXPECT_TRUE(reader.ReadF64Array(out, 2).ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireTest, CrcMatchesKnownVector) {
  // The classic IEEE CRC-32 check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

}  // namespace
}  // namespace serialize
}  // namespace bagcpd
