// Round-trip and corruption tests for the wire codec
// (common/vertex_codec.hpp).  The decoder faces payloads from the
// simulated interconnect, so every malformed buffer must throw
// FormatError — never crash, hang, or allocate unboundedly.
#include "common/vertex_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "common/error.hpp"
#include "common/serial.hpp"

namespace mssg {
namespace {

std::vector<VertexId> roundtrip(std::vector<VertexId> input,
                                WireFormat format) {
  const std::vector<std::byte> wire = encode_vertex_set(input, format);
  std::vector<VertexId> out;
  decode_vertex_set(wire, out);
  return out;
}

std::vector<VertexPair> roundtrip_pairs(std::vector<VertexPair> input,
                                        WireFormat format) {
  const std::vector<std::byte> wire = encode_pair_set(input, format);
  std::vector<VertexPair> out;
  decode_pair_set(wire, out);
  return out;
}

TEST(VertexCodec, EmptySetRoundTripsInBothFormats) {
  EXPECT_TRUE(roundtrip({}, WireFormat::kRaw).empty());
  EXPECT_TRUE(roundtrip({}, WireFormat::kDelta).empty());
  EXPECT_TRUE(roundtrip_pairs({}, WireFormat::kRaw).empty());
  EXPECT_TRUE(roundtrip_pairs({}, WireFormat::kDelta).empty());
}

TEST(VertexCodec, SingleVertexRoundTrips) {
  for (const VertexId v : {VertexId{0}, VertexId{1}, VertexId{12345},
                           std::numeric_limits<VertexId>::max()}) {
    EXPECT_EQ(roundtrip({v}, WireFormat::kRaw), std::vector<VertexId>{v});
    EXPECT_EQ(roundtrip({v}, WireFormat::kDelta), std::vector<VertexId>{v});
  }
}

TEST(VertexCodec, UnsortedInputDecodesSorted) {
  const std::vector<VertexId> expected{1, 5, 9, 100, 4096};
  const std::vector<VertexId> shuffled{100, 1, 4096, 5, 9};
  EXPECT_EQ(roundtrip(shuffled, WireFormat::kDelta), expected);
  EXPECT_EQ(roundtrip(shuffled, WireFormat::kRaw), expected);
}

TEST(VertexCodec, DuplicatesArePreservedNotDropped) {
  const std::vector<VertexId> expected{7, 7, 7, 9, 9};
  EXPECT_EQ(roundtrip({9, 7, 9, 7, 7}, WireFormat::kDelta), expected);
  EXPECT_EQ(roundtrip({9, 7, 9, 7, 7}, WireFormat::kRaw), expected);
}

TEST(VertexCodec, EncoderSortsItsArgumentInPlace) {
  std::vector<VertexId> vertices{30, 10, 20};
  (void)encode_vertex_set(vertices, WireFormat::kDelta);
  EXPECT_EQ(vertices, (std::vector<VertexId>{10, 20, 30}));
}

TEST(VertexCodec, DenseSetCompressesWellBelowRaw) {
  // owner(v) = v mod p clusters a rank's fringe: stride-p ids delta to
  // one varint byte each vs 8 raw bytes.
  std::vector<VertexId> vertices;
  for (VertexId v = 0; v < 4096; ++v) vertices.push_back(1000 + 4 * v);
  const std::size_t raw = raw_vertex_wire_bytes(vertices.size());
  const auto wire = encode_vertex_set(vertices, WireFormat::kDelta);
  EXPECT_LT(wire.size() * 4, raw);  // at least 4x smaller
  std::vector<VertexId> out;
  decode_vertex_set(wire, out);
  EXPECT_EQ(out, vertices);
}

TEST(VertexCodec, AdversarialMaxDeltaSetTakesPassthroughEscape) {
  // Spread ids so every delta needs a ~10-byte varint; the encoder must
  // fall back to the raw marker rather than expand the payload.
  std::vector<VertexId> vertices;
  const VertexId step = std::numeric_limits<VertexId>::max() / 9;
  for (int i = 0; i < 9; ++i) vertices.push_back(step * i);
  const auto wire = encode_vertex_set(vertices, WireFormat::kDelta);
  EXPECT_EQ(static_cast<std::uint8_t>(wire[0]), 0x00);  // raw marker
  EXPECT_LE(wire.size(),
            1 + 10 + raw_vertex_wire_bytes(vertices.size()));
  std::vector<VertexId> out;
  decode_vertex_set(wire, out);
  EXPECT_EQ(out, vertices);
}

TEST(VertexCodec, RandomSetsRoundTripBothFormats) {
  std::mt19937_64 rng(0x5eed);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = rng() % 200;
    std::vector<VertexId> vertices(n);
    for (auto& v : vertices) v = rng() % 1'000'000;
    std::vector<VertexId> expected = vertices;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(roundtrip(vertices, WireFormat::kDelta), expected);
    EXPECT_EQ(roundtrip(vertices, WireFormat::kRaw), expected);
  }
}

TEST(VertexCodec, PairSetsRoundTripWithSharedFirstRuns) {
  // CC label buckets look like this: many updates for the same vertex.
  std::vector<VertexPair> pairs{{5, 90}, {5, 10}, {5, 40},
                                {9, 3},  {2, 2},  {9, 1}};
  std::vector<VertexPair> expected = pairs;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(roundtrip_pairs(pairs, WireFormat::kDelta), expected);
  EXPECT_EQ(roundtrip_pairs(pairs, WireFormat::kRaw), expected);
}

TEST(VertexCodec, RandomPairSetsRoundTrip) {
  std::mt19937_64 rng(0xfeed);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = rng() % 100;
    std::vector<VertexPair> pairs(n);
    for (auto& [a, b] : pairs) {
      a = rng() % 1000;  // narrow range: forces duplicate firsts
      b = rng() % 1'000'000;
    }
    std::vector<VertexPair> expected = pairs;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(roundtrip_pairs(pairs, WireFormat::kDelta), expected);
    EXPECT_EQ(roundtrip_pairs(pairs, WireFormat::kRaw), expected);
  }
}

// ---- Linear-time pair order and one-pass encoding ---------------------------

/// The encoders as they were before the one-pass rewrite: build the whole
/// raw form, then the delta form, escaping to raw once the delta form is
/// at least as large.  The bytes the current encoders must reproduce.
std::vector<std::byte> reference_encode_vertices(std::vector<VertexId> vertices,
                                                 WireFormat format) {
  std::sort(vertices.begin(), vertices.end());
  ByteWriter raw;
  raw.put_u8(0x00);
  raw.put_varint(vertices.size());
  raw.put_bytes(std::as_bytes(std::span(vertices)));
  if (format == WireFormat::kRaw) return raw.take();
  ByteWriter delta;
  delta.put_u8(0x01);
  delta.put_varint(vertices.size());
  VertexId prev = 0;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    delta.put_varint(i == 0 ? vertices[0] : vertices[i] - prev);
    prev = vertices[i];
    if (delta.size() >= raw.size()) return raw.take();
  }
  return delta.take();
}

std::vector<std::byte> reference_encode_pairs(std::vector<VertexPair> pairs,
                                              WireFormat format) {
  std::sort(pairs.begin(), pairs.end());
  ByteWriter raw;
  raw.put_u8(0x00);
  raw.put_varint(pairs.size());
  for (const auto& [first, second] : pairs) {
    raw.put(first);
    raw.put(second);
  }
  if (format == WireFormat::kRaw) return raw.take();
  ByteWriter delta;
  delta.put_u8(0x01);
  delta.put_varint(pairs.size());
  VertexId prev_first = 0;
  VertexId prev_second = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [first, second] = pairs[i];
    if (i == 0) {
      delta.put_varint(first);
      delta.put_varint(second);
    } else {
      delta.put_varint(first - prev_first);
      delta.put_varint(first == prev_first ? second - prev_second : second);
    }
    prev_first = first;
    prev_second = second;
    if (delta.size() >= raw.size()) return raw.take();
  }
  return delta.take();
}

/// Smallest value whose LEB128 form is `bytes` long (1..10).
VertexId varint_of_length(int bytes) {
  return bytes == 1 ? 0 : VertexId{1} << (7 * (bytes - 1));
}

void expect_sort_pairs_matches(std::vector<VertexPair> pairs) {
  std::vector<VertexPair> expected = pairs;
  std::sort(expected.begin(), expected.end());
  sort_pairs(pairs);
  EXPECT_EQ(pairs, expected) << "size " << pairs.size();
}

TEST(VertexCodec, SortPairsMatchesStdSort) {
  std::mt19937_64 rng(0x50a7);
  const auto random_pairs = [&](std::size_t n, VertexId first_range,
                                VertexId second_range) {
    std::vector<VertexPair> pairs(n);
    for (auto& [a, b] : pairs) {
      a = first_range == 0 ? rng() : rng() % first_range;
      b = second_range == 0 ? rng() : rng() % second_range;
    }
    return pairs;
  };

  // Sizes on both sides of the std::sort cutoff, then random ones.
  for (const std::size_t n : {0, 1, 2, 63, 64, 65, 255, 256, 257}) {
    expect_sort_pairs_matches(random_pairs(n, 100'000, 1'000));
  }
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = rng() % 5001;
    const VertexId first_range = VertexId{1} << (rng() % 40 + 1);
    expect_sort_pairs_matches(random_pairs(n, first_range, 0));
  }

  // Heavy duplicates: whole pairs repeat many times.
  expect_sort_pairs_matches(random_pairs(3000, 3, 3));
  expect_sort_pairs_matches(random_pairs(3000, 40, 2));

  // Every first equal: the run orders by second alone.
  expect_sort_pairs_matches(random_pairs(2000, 1, 0));
  {
    auto pairs = random_pairs(2000, 1, 0);
    for (auto& pair : pairs) pair.first = 0xdeadbeefcafeULL;
    expect_sort_pairs_matches(pairs);
  }

  // A hub run far longer than the cutoff among scattered firsts.
  {
    auto pairs = random_pairs(1500, 1u << 20, 0);
    for (int i = 0; i < 700; ++i) pairs.emplace_back(4242, rng() % 50);
    std::shuffle(pairs.begin(), pairs.end(), rng);
    expect_sort_pairs_matches(pairs);
  }

  // Ids that vary in all 8 bytes, the extremes included.
  {
    auto pairs = random_pairs(4000, 0, 0);
    constexpr VertexId kMax = std::numeric_limits<VertexId>::max();
    for (const VertexId edge : {VertexId{0}, VertexId{1}, kMax - 1, kMax}) {
      pairs.emplace_back(edge, kMax);
      pairs.emplace_back(edge, 0);
      pairs.emplace_back(kMax, edge);
    }
    std::shuffle(pairs.begin(), pairs.end(), rng);
    expect_sort_pairs_matches(pairs);
  }

  // Already ordered and reverse ordered input.
  {
    auto pairs = random_pairs(3000, 1u << 16, 0);
    std::sort(pairs.begin(), pairs.end());
    expect_sort_pairs_matches(pairs);
    std::reverse(pairs.begin(), pairs.end());
    expect_sort_pairs_matches(pairs);
  }
}

TEST(VertexCodec, PairEncodingMatchesReferenceBytes) {
  const auto expect_same = [](const std::vector<VertexPair>& pairs) {
    for (const WireFormat format : {WireFormat::kRaw, WireFormat::kDelta}) {
      std::vector<VertexPair> input = pairs;
      EXPECT_EQ(encode_pair_set(input, format),
                reference_encode_pairs(pairs, format))
          << "size " << pairs.size() << " format "
          << static_cast<int>(format);
    }
  };
  expect_same({});
  expect_same({{7, 9}});
  expect_same({{std::numeric_limits<VertexId>::max(), 0}});

  std::mt19937_64 rng(0xb17e);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<VertexPair> pairs(rng() % 3000);
    const int first_bits = static_cast<int>(rng() % 64) + 1;
    const int second_bits = static_cast<int>(rng() % 64) + 1;
    for (auto& [a, b] : pairs) {
      a = rng() >> (64 - first_bits);
      b = rng() >> (64 - second_bits);
    }
    expect_same(pairs);
  }

  // Around the escape point: n pairs whose every first changes, each
  // costing 8 + 8 varint bytes against 16 raw, with the last second one
  // byte shorter, equal, or one longer — delta one byte under the raw
  // size (ships delta), equal (ships raw), one over (ships raw).
  for (const std::size_t n : {1, 4, 200}) {
    for (const int last_second_bytes : {7, 8, 9}) {
      std::vector<VertexPair> pairs;
      VertexId first = 0;
      for (std::size_t i = 0; i < n; ++i) {
        first += varint_of_length(8);
        const int bytes = i + 1 == n ? last_second_bytes : 8;
        pairs.emplace_back(first, varint_of_length(bytes));
      }
      expect_same(pairs);
      std::vector<VertexPair> input = pairs;
      const auto wire = encode_pair_set(input, WireFormat::kDelta);
      EXPECT_EQ(static_cast<std::uint8_t>(wire[0]),
                last_second_bytes < 8 ? 0x01 : 0x00);
    }
  }
}

TEST(VertexCodec, VertexEncodingMatchesReferenceBytes) {
  const auto expect_same = [](const std::vector<VertexId>& vertices) {
    for (const WireFormat format : {WireFormat::kRaw, WireFormat::kDelta}) {
      std::vector<VertexId> input = vertices;
      EXPECT_EQ(encode_vertex_set(input, format),
                reference_encode_vertices(vertices, format))
          << "size " << vertices.size() << " format "
          << static_cast<int>(format);
    }
  };
  expect_same({});
  expect_same({0});
  expect_same({std::numeric_limits<VertexId>::max()});

  std::mt19937_64 rng(0xf1a7);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<VertexId> vertices(rng() % 3000);
    const int bits = static_cast<int>(rng() % 64) + 1;
    for (auto& v : vertices) v = rng() >> (64 - bits);
    expect_same(vertices);
  }

  // Around the escape point: every delta costs 8 varint bytes against 8
  // raw, the last one 7, 8 or 9.
  for (const std::size_t n : {1, 4, 200}) {
    for (const int last_bytes : {7, 8, 9}) {
      std::vector<VertexId> vertices;
      VertexId v = 0;
      for (std::size_t i = 0; i < n; ++i) {
        v += varint_of_length(i + 1 == n ? last_bytes : 8);
        vertices.push_back(v);
      }
      expect_same(vertices);
      std::vector<VertexId> input = vertices;
      const auto wire = encode_vertex_set(input, WireFormat::kDelta);
      EXPECT_EQ(static_cast<std::uint8_t>(wire[0]),
                last_bytes < 8 ? 0x01 : 0x00);
    }
  }
}

// ---- Corrupt buffers must throw FormatError, never UB ----------------------

TEST(VertexCodec, DecodeEmptyBufferThrows) {
  std::vector<VertexId> out;
  EXPECT_THROW(decode_vertex_set({}, out), FormatError);
}

TEST(VertexCodec, DecodeUnknownMarkerThrows) {
  const std::byte bad[] = {std::byte{0x7f}, std::byte{0x00}};
  std::vector<VertexId> out;
  EXPECT_THROW(decode_vertex_set(bad, out), FormatError);
  std::vector<VertexPair> pout;
  EXPECT_THROW(decode_pair_set(bad, pout), FormatError);
}

TEST(VertexCodec, TruncatedPayloadThrows) {
  std::vector<VertexId> vertices{1, 2, 3, 1000, 100000};
  for (const auto format : {WireFormat::kRaw, WireFormat::kDelta}) {
    std::vector<VertexId> copy = vertices;
    const auto wire = encode_vertex_set(copy, format);
    std::vector<VertexId> out;
    for (std::size_t cut = 1; cut < wire.size(); ++cut) {
      EXPECT_THROW(
          decode_vertex_set(std::span(wire).first(wire.size() - cut), out),
          FormatError);
    }
  }
}

TEST(VertexCodec, TrailingBytesThrow) {
  std::vector<VertexId> vertices{4, 8, 15};
  for (const auto format : {WireFormat::kRaw, WireFormat::kDelta}) {
    std::vector<VertexId> copy = vertices;
    auto wire = encode_vertex_set(copy, format);
    wire.push_back(std::byte{0x00});
    std::vector<VertexId> out;
    EXPECT_THROW(decode_vertex_set(wire, out), FormatError);
  }
}

TEST(VertexCodec, AdversarialElementCountThrowsBeforeAllocating) {
  // marker + varint claiming ~2^63 elements, no payload behind it.  The
  // decoder must reject the count against the remaining bytes instead of
  // trying to reserve exabytes.
  ByteWriter writer;
  writer.put_u8(0x01);
  writer.put_varint(std::uint64_t{1} << 63);
  const auto wire = writer.take();
  std::vector<VertexId> out;
  EXPECT_THROW(decode_vertex_set(wire, out), FormatError);
  std::vector<VertexPair> pout;
  EXPECT_THROW(decode_pair_set(wire, pout), FormatError);
}

TEST(VertexCodec, DeltaOverflowThrows) {
  // Two max-value deltas: the running sum would wrap past 2^64.
  ByteWriter writer;
  writer.put_u8(0x01);
  writer.put_varint(2);
  writer.put_varint(std::numeric_limits<std::uint64_t>::max());
  writer.put_varint(std::numeric_limits<std::uint64_t>::max());
  const auto wire = writer.take();
  std::vector<VertexId> out;
  EXPECT_THROW(decode_vertex_set(wire, out), FormatError);
}

TEST(VertexCodec, OverlongVarintThrows) {
  ByteWriter writer;
  writer.put_u8(0x01);
  writer.put_varint(1);
  // 11 continuation bytes: more than any 64-bit varint can need.
  for (int i = 0; i < 11; ++i) writer.put_u8(0x80);
  writer.put_u8(0x01);
  const auto wire = writer.take();
  std::vector<VertexId> out;
  EXPECT_THROW(decode_vertex_set(wire, out), FormatError);
}

}  // namespace
}  // namespace mssg
