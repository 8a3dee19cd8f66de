#include "graphdb/metadata_store.hpp"

#include <cstring>

#include "common/error.hpp"

namespace mssg {

ExternalMetadata::ExternalMetadata(const std::filesystem::path& path,
                                   VertexId max_vertices,
                                   std::size_t cache_bytes, IoStats* stats)
    : file_(File::open(path, stats)),
      cache_(cache_bytes, stats),
      stats_(stats),
      max_vertices_(max_vertices) {
  store_id_ = cache_.register_store(
      kPageBytes,
      [this](std::uint64_t block, std::span<std::byte> out) {
        file_.read_at(block * kPageBytes, out);
      },
      [this](std::uint64_t block, std::span<const std::byte> in) {
        file_.write_at(block * kPageBytes, in);
      });
  cache_.set_store_hooks(
      store_id_,
      {[](std::uint64_t, std::span<std::byte> page) {
         page_checksum::seal(page);
       },
       // Self-repair instead of throwing: visited state is per-query
       // scratch, so a page that fails verification resets to zero —
       // its stamp (0) can never match generation_ (>= 1), so it reads
       // as fill.  The corruption is still counted.
       [this](std::uint64_t, std::span<std::byte> page) {
         using page_checksum::State;
         const State state = page_checksum::verify(page);
         if (state == State::kValid || state == State::kZero) return;
         if (stats_ != nullptr) {
           ++stats_->checksum_failures;
           if (state == State::kTorn) ++stats_->checksum_torn;
         }
         std::memset(page.data(), 0, page.size());
       },
       kUsableBytes,
       /*write_barrier=*/{}});
}

Metadata ExternalMetadata::get(VertexId v) {
  MSSG_CHECK(v < max_vertices_);
  auto handle = cache_.get(store_id_, page_of(v));
  auto data = handle.data();
  Metadata stamp;
  std::memcpy(&stamp, data.data() + kPerPage * sizeof(Metadata),
              sizeof(stamp));
  if (stamp != generation_) return fill_;
  Metadata value;
  std::memcpy(&value, data.data() + (v % kPerPage) * sizeof(Metadata),
              sizeof(value));
  return value;
}

void ExternalMetadata::set(VertexId v, Metadata value) {
  MSSG_CHECK(v < max_vertices_);
  auto handle = cache_.get(store_id_, page_of(v));
  auto data = handle.mutable_data();
  Metadata stamp;
  std::memcpy(&stamp, data.data() + kPerPage * sizeof(Metadata),
              sizeof(stamp));
  if (stamp != generation_) {
    // First touch since the last clear(): initialise the page to fill.
    for (std::size_t i = 0; i < kPerPage; ++i) {
      std::memcpy(data.data() + i * sizeof(Metadata), &fill_,
                  sizeof(Metadata));
    }
    std::memcpy(data.data() + kPerPage * sizeof(Metadata), &generation_,
                sizeof(generation_));
  }
  std::memcpy(data.data() + (v % kPerPage) * sizeof(Metadata), &value,
              sizeof(value));
}

void ExternalMetadata::clear(Metadata fill) {
  fill_ = fill;
  ++generation_;  // outdates every page's stamp — O(1) reset
}

}  // namespace mssg
