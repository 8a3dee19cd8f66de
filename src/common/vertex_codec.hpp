// Wire codec for vertex sets and vertex-pair sets — the payloads the
// runtime ships between simulated cluster nodes (BFS fringes, pipelined
// chunks, CC label updates, the ingest edge shuffle).
//
// The thesis' BFS is communication-pattern-bound: every level ships the
// fringe to owner ranks as raw 8-byte GIDs.  Fringe vertices on one rank
// share their low bits (owner(v) = v mod p) and cluster in id space, so
// a sorted set delta-encodes into one or two LEB128 bytes per vertex —
// the GraphD/FlashGraph observation that compacting message bytes is the
// dominant comm lever for out-of-core BFS on small clusters.
//
// Layout (all varints are LEB128, see serial.hpp):
//
//   byte 0            marker: 0x00 raw passthrough, 0x01 delta-varint
//   varint            element count n
//   raw:              n fixed-width elements (8 B per vertex, 16 B per
//                     pair), sorted ascending
//   delta (sets):     varint v[0], then n-1 varint deltas v[i]-v[i-1]
//   delta (pairs):    varint first[0], varint second[0], then per pair a
//                     varint first-delta; when the first component
//                     repeats (delta 0) the second is a delta from the
//                     previous second, otherwise a full varint
//
// Both modes SORT the input in place: the wire carries (multi)sets, and
// delivering canonical ascending order on every path is what keeps the
// BFS work counters bit-for-bit identical between raw and delta wires
// (asserted by the BfsWireEquivalence suite).  Duplicates are preserved
// (delta 0), never dropped.  Pair sets are ordered by sort_pairs, a
// linear-time radix order over the (dense, scrambled) vertex ids.
//
// encode_* with kDelta writes the varint stream directly and falls back
// to the raw marker only once that stream reaches the fixed-width size
// (the passthrough escape for incompressible payloads, e.g. adversarial
// max-delta sets); the raw form is never built otherwise.  A non-empty
// set whose varint stream is exactly as long as the raw form ships raw;
// the empty set always ships the delta marker.  decode_*
// throws FormatError on truncation, unknown markers, trailing bytes,
// non-canonical element counts, and delta overflow — corrupt messages
// fail loudly, never as UB.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace mssg {

/// Wire format selector for the runtime payload codecs.
enum class WireFormat : std::uint8_t {
  kRaw = 0,    ///< sorted fixed-width elements (the ablation baseline)
  kDelta = 1,  ///< sorted + delta + LEB128 varint (default)
};

/// A (vertex, value) pair as shipped by CC label updates and the ingest
/// edge shuffle (Edge is layout-convertible).
using VertexPair = std::pair<VertexId, VertexId>;

/// Raw wire cost of a vertex set — the bytes the pre-codec runtime would
/// have shipped; the numerator of every compression counter.
[[nodiscard]] constexpr std::size_t raw_vertex_wire_bytes(std::size_t count) {
  return count * sizeof(VertexId);
}
[[nodiscard]] constexpr std::size_t raw_pair_wire_bytes(std::size_t count) {
  return count * 2 * sizeof(VertexId);
}

/// Encodes a vertex (multi)set.  Sorts `vertices` in place — the wire
/// carries sets, and the caller's bucket is dead after the send anyway.
[[nodiscard]] std::vector<std::byte> encode_vertex_set(
    std::vector<VertexId>& vertices, WireFormat format = WireFormat::kDelta);

/// Decodes into `out` (cleared first), ascending order.  Throws
/// FormatError on any malformed buffer.
void decode_vertex_set(std::span<const std::byte> buffer,
                       std::vector<VertexId>& out);

/// Sorts `pairs` in place into exactly std::sort's order (first, then
/// second).  An in-place MSD radix (American-flag) sort over the bytes of
/// `.first` that vary across the input; ranges under 64 pairs, and ranges
/// whose firsts are all equal, finish with std::sort.  Allocates nothing
/// proportional to the input; recursion depth is at most 8.
void sort_pairs(std::span<VertexPair> pairs);

/// Encodes a pair (multi)set; sorts `pairs` lexicographically in place.
[[nodiscard]] std::vector<std::byte> encode_pair_set(
    std::vector<VertexPair>& pairs, WireFormat format = WireFormat::kDelta);

void decode_pair_set(std::span<const std::byte> buffer,
                     std::vector<VertexPair>& out);

}  // namespace mssg
