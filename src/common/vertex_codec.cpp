#include "common/vertex_codec.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "common/serial.hpp"

namespace mssg {

namespace {

constexpr std::uint8_t kMarkerRaw = 0x00;
constexpr std::uint8_t kMarkerDelta = 0x01;

/// Bytes of `v` as a LEB128 varint.
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t bytes = 1;
  for (; v >= 0x80; v >>= 7) ++bytes;
  return bytes;
}

/// Size of the raw form: marker, count, fixed-width elements.
constexpr std::size_t raw_encoded_size(std::size_t count,
                                       std::size_t element_bytes) {
  return 1 + varint_size(count) + element_bytes;
}

std::vector<std::byte> encode_raw_vertices(std::span<const VertexId> values) {
  ByteWriter raw;
  raw.put_u8(kMarkerRaw);
  raw.put_varint(values.size());
  raw.put_bytes(std::as_bytes(values));
  return raw.take();
}

std::vector<std::byte> encode_raw_pairs(std::span<const VertexPair> pairs) {
  ByteWriter raw;
  raw.put_u8(kMarkerRaw);
  raw.put_varint(pairs.size());
  for (const auto& [first, second] : pairs) {
    raw.put(first);
    raw.put(second);
  }
  return raw.take();
}

// Ranges shorter than this finish with std::sort: a 256-way counting
// pass does not pay for itself on a few dozen elements.
constexpr std::size_t kRadixCutoff = 64;

/// One American-flag pass over the byte of `.first` at `shifts[0]`, then
/// the same on each bucket with the remaining shifts.  In place: the
/// only storage is the per-level bucket bounds on the stack.
void radix_sort_pairs(VertexPair* begin, VertexPair* end,
                      std::span<const unsigned> shifts) {
  const auto n = static_cast<std::size_t>(end - begin);
  // Out of varying bytes: every first in the range is equal, and
  // std::sort orders the run by second.
  if (n < kRadixCutoff || shifts.empty()) {
    std::sort(begin, end);
    return;
  }
  const unsigned shift = shifts.front();
  const auto digit = [shift](const VertexPair& pair) {
    return static_cast<std::size_t>((pair.first >> shift) & 0xff);
  };
  std::array<std::size_t, 257> bounds{};
  for (const VertexPair* it = begin; it != end; ++it) ++bounds[digit(*it) + 1];
  for (std::size_t b = 0; b < 256; ++b) bounds[b + 1] += bounds[b];
  // next[b]: first slot of bucket b not yet holding a bucket-b pair.
  std::array<std::size_t, 256> next{};
  std::copy(bounds.begin(), bounds.end() - 1, next.begin());
  for (std::size_t b = 0; b < 256; ++b) {
    while (next[b] < bounds[b + 1]) {
      VertexPair item = begin[next[b]];
      // Follow the displacement cycle until a bucket-b pair comes back.
      for (std::size_t d = digit(item); d != b; d = digit(item)) {
        std::swap(item, begin[next[d]++]);
      }
      begin[next[b]++] = item;
    }
  }
  for (std::size_t b = 0; b < 256; ++b) {
    if (bounds[b + 1] - bounds[b] > 1) {
      radix_sort_pairs(begin + bounds[b], begin + bounds[b + 1],
                       shifts.subspan(1));
    }
  }
}

/// Shared prologue of both decoders: marker + count, with the count
/// sanity-checked against the remaining bytes (every element costs at
/// least one byte in either mode, so a count exceeding the remainder can
/// only come from a corrupt or adversarial buffer — reject it before any
/// allocation is sized from it).
std::uint8_t read_header(ByteReader& reader, std::uint64_t& count) {
  const std::uint8_t marker = reader.get_u8();
  if (marker != kMarkerRaw && marker != kMarkerDelta) {
    throw FormatError("vertex codec: unknown wire marker " +
                      std::to_string(marker));
  }
  count = reader.get_varint();
  if (count > reader.remaining()) {
    throw FormatError("vertex codec: element count " + std::to_string(count) +
                      " exceeds payload size " +
                      std::to_string(reader.remaining()));
  }
  return marker;
}

std::uint64_t checked_add(std::uint64_t base, std::uint64_t delta) {
  if (delta > std::numeric_limits<std::uint64_t>::max() - base) {
    throw FormatError("vertex codec: delta overflows 64-bit id space");
  }
  return base + delta;
}

void require_drained(const ByteReader& reader) {
  if (!reader.empty()) {
    throw FormatError("vertex codec: " + std::to_string(reader.remaining()) +
                      " trailing bytes after payload");
  }
}

}  // namespace

std::vector<std::byte> encode_vertex_set(std::vector<VertexId>& vertices,
                                         WireFormat format) {
  std::sort(vertices.begin(), vertices.end());
  if (format == WireFormat::kRaw) return encode_raw_vertices(vertices);

  const std::size_t raw_size = raw_encoded_size(
      vertices.size(), raw_vertex_wire_bytes(vertices.size()));
  ByteWriter delta;
  delta.put_u8(kMarkerDelta);
  delta.put_varint(vertices.size());
  VertexId prev = 0;
  for (const VertexId v : vertices) {
    delta.put_varint(v - prev);  // the first "delta" is v[0] itself
    prev = v;
    // At least as big as the fixed-width form: ship the escape instead.
    if (delta.size() >= raw_size) return encode_raw_vertices(vertices);
  }
  return delta.take();
}

void decode_vertex_set(std::span<const std::byte> buffer,
                       std::vector<VertexId>& out) {
  out.clear();
  ByteReader reader(buffer);
  std::uint64_t count = 0;
  const std::uint8_t marker = read_header(reader, count);
  out.reserve(count);

  if (marker == kMarkerRaw) {
    const auto bytes = reader.get_bytes(count * sizeof(VertexId));
    out.resize(count);
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  } else {
    VertexId value = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t step = reader.get_varint();
      value = i == 0 ? step : checked_add(value, step);
      out.push_back(value);
    }
  }
  require_drained(reader);
}

void sort_pairs(std::span<VertexPair> pairs) {
  // Already ordered (a combiner's folded bucket on its way to the
  // encoder): one comparison pass, which exits at the first inversion on
  // unordered input.
  if (std::is_sorted(pairs.begin(), pairs.end())) return;
  // Radix only over the bytes where some first differs from another:
  // scrambled ids are dense in 0..n-1, so that is usually two or three.
  VertexId any_bits = 0;
  VertexId all_bits = ~VertexId{0};
  for (const auto& pair : pairs) {
    any_bits |= pair.first;
    all_bits &= pair.first;
  }
  const VertexId varying = any_bits ^ all_bits;
  std::array<unsigned, sizeof(VertexId)> shifts{};
  std::size_t levels = 0;
  for (unsigned shift = 8 * (sizeof(VertexId) - 1);; shift -= 8) {
    if (((varying >> shift) & 0xff) != 0) shifts[levels++] = shift;
    if (shift == 0) break;
  }
  radix_sort_pairs(pairs.data(), pairs.data() + pairs.size(),
                   std::span(shifts.data(), levels));
}

std::vector<std::byte> encode_pair_set(std::vector<VertexPair>& pairs,
                                       WireFormat format) {
  sort_pairs(pairs);
  if (format == WireFormat::kRaw) return encode_raw_pairs(pairs);

  const std::size_t raw_size =
      raw_encoded_size(pairs.size(), raw_pair_wire_bytes(pairs.size()));
  ByteWriter delta;
  delta.put_u8(kMarkerDelta);
  delta.put_varint(pairs.size());
  // Starting from (0, 0) with a "changed first" makes the first pair's
  // two varints its plain components.
  VertexId prev_first = 0;
  VertexId prev_second = 0;
  bool first_pair = true;
  for (const auto& [first, second] : pairs) {
    delta.put_varint(first - prev_first);
    // Lexicographic order: within a run of equal firsts the seconds
    // ascend, so they delta; across a first-change the second restarts.
    const bool same_first = !first_pair && first == prev_first;
    delta.put_varint(same_first ? second - prev_second : second);
    first_pair = false;
    prev_first = first;
    prev_second = second;
    if (delta.size() >= raw_size) return encode_raw_pairs(pairs);
  }
  return delta.take();
}

void decode_pair_set(std::span<const std::byte> buffer,
                     std::vector<VertexPair>& out) {
  out.clear();
  ByteReader reader(buffer);
  std::uint64_t count = 0;
  const std::uint8_t marker = read_header(reader, count);
  out.reserve(count);

  if (marker == kMarkerRaw) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const VertexId first = reader.get<VertexId>();
      const VertexId second = reader.get<VertexId>();
      out.emplace_back(first, second);
    }
  } else {
    VertexId first = 0;
    VertexId second = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t first_step = reader.get_varint();
      const std::uint64_t second_step = reader.get_varint();
      if (i == 0) {
        first = first_step;
        second = second_step;
      } else if (first_step == 0) {
        second = checked_add(second, second_step);
      } else {
        first = checked_add(first, first_step);
        second = second_step;
      }
      out.emplace_back(first, second);
    }
  }
  require_drained(reader);
}

}  // namespace mssg
