#include "util/crc32.h"

#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "util/random.h"

namespace tane {
namespace {

// The textbook bitwise CRC-32 (IEEE, reflected 0xEDB88320): the reference
// the table-driven Crc32 must reproduce bit for bit.
uint32_t ReferenceCrc32(std::string_view data, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (char ch : data) {
    crc ^= static_cast<uint8_t>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

std::string RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(size, '\0');
  for (char& ch : bytes) ch = static_cast<char>(rng.NextBounded(256));
  return bytes;
}

TEST(Crc32Test, MatchesKnownVectors) {
  // Standard CRC-32 (IEEE) check values.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  const uint32_t clean = Crc32(data);
  for (size_t byte : {size_t{0}, data.size() / 2, data.size() - 1}) {
    std::string corrupt = data;
    corrupt[byte] ^= 0x01;
    EXPECT_NE(Crc32(corrupt), clean) << "flip at byte " << byte;
  }
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "partition payload bytes";
  const uint32_t whole = Crc32(data);
  const uint32_t split = Crc32(data.substr(8), Crc32(data.substr(0, 8)));
  EXPECT_EQ(split, whole);
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..64 from start offsets 0..7 cover every split between the
  // eight-byte body and the bytewise tail, from every alignment.
  const std::string buffer = RandomBytes(64 + 8, 1);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t length = 0; length <= 64; ++length) {
      const std::string_view data(buffer.data() + start, length);
      EXPECT_EQ(Crc32(data), ReferenceCrc32(data))
          << "start " << start << " length " << length;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnALargeOddBuffer) {
  const std::string data = RandomBytes((size_t{1} << 20) + 3, 2);
  EXPECT_EQ(Crc32(data), ReferenceCrc32(data));
  const std::string_view unaligned(data.data() + 5, data.size() - 5);
  EXPECT_EQ(Crc32(unaligned), ReferenceCrc32(unaligned));
}

TEST(Crc32Test, ChainedSeedsMatchReference) {
  // Chaining over any split (record pieces are checksummed this way)
  // equals the one-shot CRC, and an arbitrary seed matches the reference.
  const std::string data = RandomBytes(200, 3);
  const std::string_view view(data);
  for (size_t a : {size_t{0}, size_t{1}, size_t{7}, size_t{29}}) {
    for (size_t b : {a, a + 3, a + 8, a + 101}) {
      const uint32_t chained =
          Crc32(view.substr(b), Crc32(view.substr(a, b - a),
                                      Crc32(view.substr(0, a))));
      EXPECT_EQ(chained, Crc32(view)) << "split " << a << "/" << b;
    }
  }
  for (uint32_t seed : {1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(Crc32(view, seed), ReferenceCrc32(view, seed)) << seed;
  }
}

TEST(Crc32Test, SeedChangesResult) {
  EXPECT_NE(Crc32("abc", 0), Crc32("abc", 1));
}

}  // namespace
}  // namespace tane
