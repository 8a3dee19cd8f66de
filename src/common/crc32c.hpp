// CRC32C (Castagnoli) — the checksum of the storage layer's page
// trailers and journal records.  On x86-64 the CPU is probed once at run
// time: with SSE4.2 present, crc32c() runs the CRC32 instruction eight
// bytes at a time (compiled for that target by function attribute, so
// the build needs no -msse4.2 and the binary still runs on CPUs without
// it); otherwise, and on other architectures, it runs the byte-at-a-time
// table loop `detail::crc32c_portable`.  Both compute the same function.
// The polynomial matches iSCSI/ext4, so externally written test fixtures
// can cross-check values.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MSSG_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace mssg {

namespace detail {

inline constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;  // reflected

inline constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32cPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr auto kCrc32cTable = make_crc32c_table();

/// The table loop: the fallback, and the reference tests compare the
/// dispatched path against.
inline std::uint32_t crc32c_portable(std::span<const std::byte> data,
                                     std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (const std::byte b : data) {
    crc = (crc >> 8) ^
          kCrc32cTable[(crc ^ std::to_integer<std::uint32_t>(b)) & 0xFFu];
  }
  return ~crc;
}

#if defined(MSSG_CRC32C_X86)
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_sse42(
    std::span<const std::byte> data, std::uint32_t seed) {
  std::uint64_t crc = ~seed;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
    --n;
  }
  return ~crc32;
}

/// Probed once per process; every later call is a load and a branch.
inline bool cpu_has_sse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace detail

/// One-shot CRC32C.  `seed` chains calls: crc32c(b, crc32c(a)) equals
/// crc32c(a||b).
inline std::uint32_t crc32c(std::span<const std::byte> data,
                            std::uint32_t seed = 0) {
#if defined(MSSG_CRC32C_X86)
  if (detail::cpu_has_sse42()) return detail::crc32c_sse42(data, seed);
#endif
  return detail::crc32c_portable(data, seed);
}

}  // namespace mssg

#undef MSSG_CRC32C_X86
