#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "common/temp_dir.hpp"
#include "common/types.hpp"

namespace mssg {
namespace {

// ---- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t state = 0;
  const auto a = splitmix64(state);
  const auto b = splitmix64(state);
  EXPECT_NE(a, b);
}

// ---- Serialization ---------------------------------------------------------

TEST(Serial, FixedWidthRoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i32(-42);
  w.put_i64(-1);
  w.put_double(3.5);
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1);
  EXPECT_DOUBLE_EQ(r.get_double(), 3.5);
  EXPECT_TRUE(r.empty());
}

TEST(Serial, VarintRoundTripBoundaries) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  ~std::uint64_t{0}};
  ByteWriter w;
  for (auto v : values) w.put_varint(v);
  const auto bytes = w.take();
  ByteReader r(bytes);
  for (auto v : values) EXPECT_EQ(r.get_varint(), v);
}

TEST(Serial, VarintEncodingIsCompact) {
  ByteWriter w;
  w.put_varint(5);
  EXPECT_EQ(w.size(), 1u);
  w.put_varint(300);
  EXPECT_EQ(w.size(), 3u);  // 1 + 2
}

TEST(Serial, StringAndVectorRoundTrip) {
  ByteWriter w;
  w.put_string("hello mssg");
  w.put_vector(std::vector<std::uint32_t>{1, 2, 3, 4});
  w.put_string("");
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.get_string(), "hello mssg");
  EXPECT_EQ(r.get_vector<std::uint32_t>(), (std::vector<std::uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(r.get_string(), "");
}

TEST(Serial, TruncatedInputThrows) {
  ByteWriter w;
  w.put_u64(12345);
  auto bytes = w.take();
  bytes.resize(4);
  ByteReader r(bytes);
  EXPECT_THROW(r.get_u64(), FormatError);
}

TEST(Serial, TruncatedVarintThrows) {
  std::vector<std::byte> bytes{std::byte{0x80}, std::byte{0x80}};
  ByteReader r(bytes);
  EXPECT_THROW(r.get_varint(), FormatError);
}

// ---- DynamicBitset ---------------------------------------------------------

TEST(Bitset, SetTestClear) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_FALSE(bits.test(0));
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_EQ(bits.count(), 3u);
  bits.clear(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(Bitset, TestAndSet) {
  DynamicBitset bits(10);
  EXPECT_FALSE(bits.test_and_set(5));
  EXPECT_TRUE(bits.test_and_set(5));
}

TEST(Bitset, OutOfRangeThrows) {
  DynamicBitset bits(10);
  EXPECT_THROW((void)bits.test(10), UsageError);
  EXPECT_THROW(bits.set(11), UsageError);
}

TEST(Bitset, ResizePreservesAndFills) {
  DynamicBitset bits(10);
  bits.set(3);
  bits.resize(100, true);
  EXPECT_TRUE(bits.test(3));
  EXPECT_FALSE(bits.test(4));
  EXPECT_TRUE(bits.test(10));
  EXPECT_TRUE(bits.test(99));
  EXPECT_EQ(bits.count(), 91u);  // 3 plus bits 10..99
}

TEST(Bitset, FindFirstSet) {
  DynamicBitset bits(200);
  EXPECT_EQ(bits.find_first_set(), 200u);
  bits.set(77);
  bits.set(150);
  EXPECT_EQ(bits.find_first_set(), 77u);
  EXPECT_EQ(bits.find_first_set(78), 150u);
  EXPECT_EQ(bits.find_first_set(151), 200u);
}

TEST(Bitset, CountMatchesReferenceOnRandomPattern) {
  DynamicBitset bits(513);
  std::set<std::size_t> reference;
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const auto pos = rng.below(513);
    bits.set(pos);
    reference.insert(pos);
  }
  EXPECT_EQ(bits.count(), reference.size());
  for (std::size_t i = 0; i < 513; ++i) {
    EXPECT_EQ(bits.test(i), reference.contains(i));
  }
}

// ---- Crc32c ----------------------------------------------------------------

std::uint32_t crc_of(const std::vector<std::uint8_t>& bytes) {
  return crc32c(std::as_bytes(std::span(bytes)));
}

// RFC 3720 appendix B.4 known answers.
TEST(Crc32c, Rfc3720KnownAnswers) {
  EXPECT_EQ(crc_of(std::vector<std::uint8_t>(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(crc_of(std::vector<std::uint8_t>(32, 0xFF)), 0x62A8AB43u);
  std::vector<std::uint8_t> ascending(32);
  std::vector<std::uint8_t> descending(32);
  for (std::uint8_t i = 0; i < 32; ++i) {
    ascending[i] = i;
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc_of(ascending), 0x46DD794Eu);
  EXPECT_EQ(crc_of(descending), 0x113FDB5Cu);
}

TEST(Crc32c, CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32c(std::as_bytes(std::span(check))), 0xE3069283u);
}

// Whichever implementation the CPU dispatch picked must agree with the
// table loop on every length around the 8-byte word loop and at every
// alignment of the start.
TEST(Crc32c, DispatchedMatchesPortable) {
  Rng rng(7);
  std::vector<std::byte> buffer(257 + 8);
  for (auto& b : buffer) b = static_cast<std::byte>(rng());
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const auto data = std::span<const std::byte>(buffer).subspan(start, len);
      ASSERT_EQ(crc32c(data), detail::crc32c_portable(data))
          << "start " << start << " length " << len;
      ASSERT_EQ(crc32c(data, 0x12345678u),
                detail::crc32c_portable(data, 0x12345678u))
          << "seeded, start " << start << " length " << len;
    }
  }
}

TEST(Crc32c, SeedChainsConcatenation) {
  Rng rng(11);
  std::vector<std::byte> buffer(300);
  for (auto& b : buffer) b = static_cast<std::byte>(rng());
  const std::span<const std::byte> all(buffer);
  for (const std::size_t split : {0, 1, 7, 8, 9, 64, 299, 300}) {
    const auto a = all.first(split);
    const auto b = all.subspan(split);
    EXPECT_EQ(crc32c(b, crc32c(a)), crc32c(all)) << "split " << split;
    EXPECT_EQ(detail::crc32c_portable(b, detail::crc32c_portable(a)),
              crc32c(all))
        << "split " << split;
  }
}

// ---- TempDir ---------------------------------------------------------------

TEST(TempDir, CreatesAndRemoves) {
  std::filesystem::path path;
  {
    TempDir dir("mssg-test");
    path = dir.path();
    EXPECT_TRUE(std::filesystem::exists(path));
    std::ofstream(path / "file.txt") << "data";
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TempDir, MoveTransfersOwnership) {
  TempDir a("mssg-test");
  const auto path = a.path();
  TempDir b = std::move(a);
  EXPECT_EQ(b.path(), path);
  EXPECT_TRUE(std::filesystem::exists(path));
}

// ---- Types -----------------------------------------------------------------

TEST(Types, EdgeComparisonAndHash) {
  EXPECT_EQ((Edge{1, 2}), (Edge{1, 2}));
  EXPECT_NE((Edge{1, 2}), (Edge{2, 1}));
  const std::hash<Edge> h;
  EXPECT_NE(h(Edge{1, 2}), h(Edge{2, 1}));
}

TEST(Types, VertexIdLimits) {
  EXPECT_EQ(kMaxVertexId, (VertexId{1} << 61) - 1);
  EXPECT_GT(kInvalidVertex, kMaxVertexId);
}

}  // namespace
}  // namespace mssg
