#include "graphdb/grdb/grdb.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "common/crc32c.hpp"
#include "common/serial.hpp"
#include "storage/fault_injector.hpp"

namespace mssg {

using grdb::EntryKind;

namespace {
constexpr std::uint64_t kMetaMagic = 0x4d535347'67724442ull;  // "MSSGgrDB"
// Journal tag of the grdb.meta snapshot.  Block tags are the cache keys
// (level << 48 | block); no level reaches 0xFFFF, so this can't collide.
constexpr std::uint64_t kMetaTag = ~std::uint64_t{0};
}

// ---- SubblockRef -----------------------------------------------------------

namespace {
std::uint64_t entry_at(const std::byte* subblock, std::uint64_t i) {
  std::uint64_t value;
  std::memcpy(&value, subblock + i * grdb::kEntryBytes, sizeof(value));
  return value;
}
}  // namespace

std::uint64_t GrDB::SubblockRef::get(std::uint64_t i) const {
  return entry_at(handle.data().data() + offset, i);
}

void GrDB::SubblockRef::set(std::uint64_t i, std::uint64_t value) {
  std::memcpy(handle.mutable_data().data() + offset + i * grdb::kEntryBytes,
              &value, sizeof(value));
}

std::uint64_t GrDB::SubblockView::get(std::uint64_t i) const {
  return entry_at(bytes.data(), i);
}

std::uint64_t GrDB::SubblockView::append_vertices(
    std::vector<VertexId>& out) const {
  for (std::uint64_t i = 0; i < entries(); ++i) {
    const std::uint64_t entry = get(i);
    switch (grdb::classify(entry)) {
      case EntryKind::kVertex:
        out.push_back(grdb::entry_vertex(entry));
        break;
      case EntryKind::kEmpty:
        return grdb::kEmptySlot;  // slots fill left-to-right; first empty ends it
      case EntryKind::kPointer:
        return entry;  // always the last slot
    }
  }
  return grdb::kEmptySlot;
}

// ---- Construction / persistence -------------------------------------------

GrDB::GrDB(const GraphDBConfig& config,
           std::unique_ptr<MetadataStore> metadata, GrDBOptions options)
    : GraphDB(std::move(metadata)),
      options_(std::move(options)),
      dir_(config.dir),
      cache_(config.cache_enabled ? config.cache_bytes : 0, &stats_) {
  options_.geometry.validate();
  cache_.set_miss_penalty_us(config.sim_miss_penalty_us);
  const int level_count = options_.geometry.level_count();
  levels_.resize(level_count);
  for (int l = 0; l < level_count; ++l) {
    Level& level = levels_[l];
    level.spec = options_.geometry.levels[l];
    level.store_id = cache_.register_store(
        level.spec.block_bytes,
        [this, l](std::uint64_t block, std::span<std::byte> out) {
          Level& lvl = levels_[l];
          bool present;
          {
            std::lock_guard<std::mutex> mlk(meta_mu_);
            present =
                block < lvl.initialized.size() && lvl.initialized.test(block);
          }
          if (!present) {
            // Block has never been written: every slot reads as empty.
            std::memset(out.data(), 0xFF, out.size());
            return;
          }
          const std::uint64_t n = options_.geometry.blocks_per_file(l);
          ensure_file(l, block / n)
              .read_at(lvl.spec.block_bytes * (block % n), out);
        },
        [this, l](std::uint64_t block, std::span<const std::byte> in) {
          Level& lvl = levels_[l];
          maybe_log_undo(l, block);
          // Synchronous write-back overwrites immediately; the async
          // path batches this barrier per eviction batch instead.
          if (journal_ != nullptr) journal_->undo_barrier();
          {
            std::lock_guard<std::mutex> mlk(meta_mu_);
            if (block >= lvl.initialized.size()) {
              lvl.initialized.resize(block + 1);
            }
            lvl.initialized.set(block);
          }
          const std::uint64_t n = options_.geometry.blocks_per_file(l);
          ensure_file(l, block / n)
              .write_at(lvl.spec.block_bytes * (block % n), in);
        },
        // Locator for the async engine — runs on the thread driving the
        // cache (under its mutex), so callbacks exclude each other; the
        // worker only gets a (File*, offset).
        [this, l](std::uint64_t block,
                  bool for_write) -> std::optional<AsyncTarget> {
          Level& lvl = levels_[l];
          if (for_write) {
            // Undo capture happens here, at submit time, before the
            // payload can reach the worker.
            maybe_log_undo(l, block);
            std::lock_guard<std::mutex> mlk(meta_mu_);
            if (block >= lvl.initialized.size()) {
              lvl.initialized.resize(block + 1);
            }
            lvl.initialized.set(block);
          } else {
            std::lock_guard<std::mutex> mlk(meta_mu_);
            if (block >= lvl.initialized.size() ||
                !lvl.initialized.test(block)) {
              // Never written: the sync reader resolves it as all-empty
              // without touching disk, so there is nothing to read ahead.
              return std::nullopt;
            }
          }
          const std::uint64_t n = options_.geometry.blocks_per_file(l);
          return AsyncTarget{&ensure_file(l, block / n),
                             lvl.spec.block_bytes * (block % n)};
        });
    // Integrity hooks: grDB's geometry packs sub-blocks exactly (no
    // in-page trailer slack), so checksums live in a sidecar table that
    // save_meta persists.  Seal records, verify compares.
    cache_.set_store_hooks(
        level.store_id,
        {[this, l](std::uint64_t block, std::span<std::byte> data) {
           Level& lvl = levels_[l];
           const std::uint32_t crc = crc32c(data);
           std::lock_guard<std::mutex> mlk(meta_mu_);
           if (block >= lvl.block_crc.size()) lvl.block_crc.resize(block + 1);
           lvl.block_crc[block] = crc;
         },
         [this, l](std::uint64_t block, std::span<std::byte> data) {
           const Level& lvl = levels_[l];
           const std::uint32_t crc = crc32c(data);
           {
             std::lock_guard<std::mutex> mlk(meta_mu_);
             // Only disk-backed blocks have a recorded CRC; the reader's
             // all-0xFF synthesis for uninitialized blocks never had one.
             if (block >= lvl.initialized.size() ||
                 !lvl.initialized.test(block) ||
                 block >= lvl.block_crc.size()) {
               return;
             }
             if (crc == lvl.block_crc[block]) return;
           }
           ++stats_.checksum_failures;
           throw StorageError("grDB: level " + std::to_string(l) +
                              " block " + std::to_string(block) +
                              " failed sidecar checksum");
         },
         /*usable_bytes=*/0,
         // One undo fdatasync per write-behind batch, not per block.
         [this] {
           if (journal_ != nullptr) journal_->undo_barrier();
         }});
  }
  mmap_enabled_ = config.mmap_sealed;
  snapshots_enabled_ = config.snapshots;
  // Prompt retirement: dropping the last snapshot of an epoch purges
  // the versions it pinned without waiting for the next commit.
  epochs_.set_retire_hook(
      [this](Epoch min_live) { versions_.purge(min_live); });
  if (config.async_io) cache_.enable_async_io(config.io_workers);
  if (config.journal) {
    journal_ = std::make_unique<WriteJournal>(dir_ / "grdb", &stats_,
                                              config.journal_sync_interval);
    recover(/*allow_rollback=*/true);
  }
  if (std::filesystem::exists(dir_ / "grdb.meta")) load_meta();
  // With snapshots on, readers never attempt a map themselves (freezing
  // the bitmaps must not race the writer), so map eagerly from writer
  // context whenever the store is sealed: here, and at flush end.
  if (mmap_enabled_ && snapshots_enabled_ &&
      any_data_.load(std::memory_order_relaxed)) {
    try_map_sealed();
  }
}

GrDB::~GrDB() {
  // Flush here (not in ~BlockCache) so write-backs run while the level
  // file handles are still alive.  Force the group-commit boundary: a
  // deferred group must not outlive the store.
  try {
    std::lock_guard<std::mutex> lock(write_mu_);
    flush_impl(/*force_commit=*/true);
  } catch (...) {  // NOLINT(bugprone-empty-catch) — dtor must not throw
  }
}

File& GrDB::ensure_file(int level, std::uint64_t file_index) {
  // files_mu_ orders a reader-thread cache miss creating a file against
  // flush iterating the vector; the File itself is stable once created
  // (unique_ptr moves under resize don't move the File).
  Level& lvl = levels_[level];
  std::lock_guard<std::mutex> lock(files_mu_);
  if (file_index >= lvl.files.size()) lvl.files.resize(file_index + 1);
  if (!lvl.files[file_index]) {
    const auto path = dir_ / ("level" + std::to_string(level) + "." +
                              std::to_string(file_index) + ".dat");
    lvl.files[file_index] =
        std::make_unique<File>(File::open(path, &stats_));
  }
  return *lvl.files[file_index];
}

void GrDB::maybe_log_undo(int level, std::uint64_t block) {
  if (journal_ == nullptr || in_flush_.load(std::memory_order_relaxed)) {
    return;
  }
  Level& lvl = levels_[level];
  {
    std::lock_guard<std::mutex> mlk(meta_mu_);
    const bool was_initialized =
        block < lvl.initialized.size() && lvl.initialized.test(block);
    if (!was_initialized) {
      lvl.fresh.insert(block);
      return;
    }
    if (lvl.fresh.contains(block)) return;
  }
  const std::uint64_t tag =
      (static_cast<std::uint64_t>(level) << 48) | block;
  if (journal_->undo_logged(tag)) return;
  std::vector<std::byte> old(lvl.spec.block_bytes);
  const std::uint64_t n = options_.geometry.blocks_per_file(level);
  ensure_file(level, block / n)
      .read_at(lvl.spec.block_bytes * (block % n), old);
  journal_->undo_record(tag, old);
}

void GrDB::clear_fresh() {
  std::lock_guard<std::mutex> mlk(meta_mu_);
  for (Level& level : levels_) level.fresh.clear();
}

void GrDB::sync_level_files() {
  // Snapshot the handle set under files_mu_, sync outside it: fsync can
  // take milliseconds and must not stall a reader's cache-miss
  // ensure_file for its whole duration.
  std::vector<File*> files;
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    for (Level& level : levels_) {
      for (const auto& file : level.files) {
        if (file != nullptr && file->is_open()) files.push_back(file.get());
      }
    }
  }
  for (File* file : files) file->sync();
}

void GrDB::recover(bool allow_rollback) {
  WriteJournal::Recovery rec = journal_->plan_recovery();
  if (rec.action == WriteJournal::Action::kNone) return;
  if (rec.action == WriteJournal::Action::kRollBack && !allow_rollback) {
    // Mid-life flush: the uncommitted epoch's pre-images stay armed; the
    // flush about to run supersedes it (and trims on success).
    return;
  }
  // Replay writes the level files directly — a live sealed mapping would
  // go stale (and its verified bitmap would lie).  With snapshots on the
  // mapping stays: replay only rewrites blocks the crashed epoch dirtied,
  // all of which are in cow_since_map_ (captured before their first
  // mutation), so the mapped path already declines them.
  if (!snapshots_enabled_) unmap_sealed();
  for (const WriteJournal::Record& r : rec.records) {
    if (r.tag == kMetaTag) {
      write_meta_file(r.payload);
      continue;
    }
    const int level = static_cast<int>(r.tag >> 48);
    const std::uint64_t block = r.tag & ((std::uint64_t{1} << 48) - 1);
    MSSG_CHECK(level < static_cast<int>(levels_.size()));
    MSSG_CHECK(r.payload.size() == levels_[level].spec.block_bytes);
    const std::uint64_t n = options_.geometry.blocks_per_file(level);
    ensure_file(level, block / n)
        .write_at(levels_[level].spec.block_bytes * (block % n), r.payload);
  }
  sync_level_files();
  journal_->trim();
  clear_fresh();
}

void GrDB::flush_impl(bool force_commit) {
  if (journal_ == nullptr) {
    const bool had_work = dirty_since_flush_.load(std::memory_order_relaxed);
    cache_.flush();
    if (any_data_.load(std::memory_order_relaxed)) save_meta();
    dirty_since_flush_.store(false, std::memory_order_relaxed);
    if (had_work) commit_epoch();
    rearm_mmap();
    return;
  }

  // Write-behind payloads must be on disk (and any deferred async error
  // surfaced) before dirty pages are enumerated.
  cache_.drain_pending();
  // A previous flush may have died between redo-commit and trim; finish
  // its in-place phase first so epochs never interleave.  Impossible
  // while a group is pending (deferred flushes never commit), and
  // plan_recovery() re-reads the whole journal — skipping keeps a long
  // deferred window linear instead of quadratic.
  if (!journal_->group_pending()) recover(/*allow_rollback=*/false);

  std::size_t dirty = 0;
  cache_.for_each_dirty(
      [&dirty](std::uint16_t, std::uint64_t, std::span<std::byte>) {
        ++dirty;
      });
  const bool work = dirty != 0 ||
                    dirty_since_flush_.load(std::memory_order_relaxed) ||
                    journal_->dirty_epoch();
  // A pending deferred group still needs its boundary commit even when
  // nothing new is dirty (e.g. the destructor's forced flush).
  if (!work && !journal_->group_pending()) {
    rearm_mmap();  // already sealed; a prior decline may hold retry down
    return;
  }

  // 1. Redo-log post-images of every dirty block (appending to the open
  // group's records, if any).  Bitmap and sidecar CRC are brought up to
  // date HERE, before the meta snapshot below, so a roll-forward
  // restores blocks and the metadata that makes them reachable as one
  // atomic unit.
  std::vector<std::byte> meta_bytes;
  if (work) {
    journal_->redo_begin();
    cache_.for_each_dirty(
        [this](std::uint16_t store, std::uint64_t block,
               std::span<std::byte> data) {
          Level& lvl = levels_[store];
          {
            std::lock_guard<std::mutex> mlk(meta_mu_);
            if (block >= lvl.initialized.size()) {
              lvl.initialized.resize(block + 1);
            }
            lvl.initialized.set(block);
            if (block >= lvl.block_crc.size()) {
              lvl.block_crc.resize(block + 1);
            }
            lvl.block_crc[block] = crc32c(data);
          }
          journal_->redo_record(
              (static_cast<std::uint64_t>(store) << 48) | block, data);
        });
    meta_bytes = encode_meta();
    journal_->redo_record(kMetaTag, meta_bytes);
  } else {
    meta_bytes = encode_meta();
  }
  if (!force_commit && !journal_->commit_due()) {
    // Group commit: close this flush without any fsync.  Blocks stay
    // dirty in the cache, the undo epoch and the fresh set stay armed —
    // a crash now rolls the whole group back to the last boundary
    // atomically; the boundary flush re-records whatever is still dirty
    // and commits everything at once.
    journal_->redo_defer();
    return;
  }
  // 2. This epoch's eviction writes become durable BEFORE the commit
  // record — a post-commit crash replays only the redo records.
  sync_level_files();
  // 3. Commit: the whole group is logically done from here on.
  journal_->redo_commit();
  clear_fresh();  // the group's "never committed" blocks just committed
  // 4. In-place phase (no undo capture — the redo log covers us now).
  in_flush_.store(true, std::memory_order_relaxed);
  try {
    cache_.flush();
    write_meta_file(meta_bytes);
    sync_level_files();
  } catch (...) {
    in_flush_.store(false, std::memory_order_relaxed);
    throw;
  }
  in_flush_.store(false, std::memory_order_relaxed);
  // 5. Retire the epoch.
  journal_->trim();
  dirty_since_flush_.store(false, std::memory_order_relaxed);
  // The committed boundary is the ONLY place the snapshot epoch
  // advances: a deferred (group-commit) flush returned above, so
  // snapshots can never pin a state that a crash would roll back.
  commit_epoch();
  rearm_mmap();  // everything durable, no group pending: sealed again
}

std::vector<std::byte> GrDB::encode_meta() const {
  ByteWriter writer;
  writer.put_u64(kMetaMagic);
  writer.put_u64(options_.geometry.max_file_bytes);
  writer.put_u64(max_vertex_.load(std::memory_order_relaxed));
  writer.put_u32(static_cast<std::uint32_t>(levels_.size()));
  // A reader-thread eviction can grow a bitmap / CRC table mid-encode.
  std::lock_guard<std::mutex> mlk(meta_mu_);
  for (const auto& level : levels_) {
    writer.put_u64(level.spec.entries_per_subblock);
    writer.put_u64(level.spec.block_bytes);
    writer.put_u64(level.alloc);
    writer.put_vector(level.free_list);
    // Initialized-block bitmap, as a varint extent + raw test per block.
    writer.put_varint(level.initialized.size());
    std::vector<std::uint8_t> bits((level.initialized.size() + 7) / 8, 0);
    for (std::size_t b = 0; b < level.initialized.size(); ++b) {
      if (level.initialized.test(b)) bits[b / 8] |= std::uint8_t(1u << (b % 8));
    }
    writer.put_vector(bits);
    writer.put_vector(level.block_crc);
  }
  return writer.take();
}

void GrDB::write_meta_file(std::span<const std::byte> bytes) {
  File meta = File::open(dir_ / "grdb.meta", &stats_);
  meta.truncate(0);
  meta.write_at(0, bytes);
  meta.sync();
}

void GrDB::save_meta() {
  // Non-journaled path: best-effort overwrite (a crash inside this
  // sequence is exactly what journal mode exists to survive).
  write_meta_file(encode_meta());
}

void GrDB::load_meta() {
  File meta = File::open_readonly(dir_ / "grdb.meta", &stats_);
  std::vector<std::byte> bytes(meta.size());
  meta.read_at(0, bytes);
  ByteReader reader(bytes);
  if (reader.get_u64() != kMetaMagic) {
    throw StorageError("grDB: bad meta file magic");
  }
  if (reader.get_u64() != options_.geometry.max_file_bytes) {
    throw StorageError("grDB: geometry mismatch (max file size)");
  }
  max_vertex_.store(reader.get_u64(), std::memory_order_relaxed);
  const auto level_count = reader.get_u32();
  if (level_count != levels_.size()) {
    throw StorageError("grDB: geometry mismatch (level count)");
  }
  for (auto& level : levels_) {
    if (reader.get_u64() != level.spec.entries_per_subblock ||
        reader.get_u64() != level.spec.block_bytes) {
      throw StorageError("grDB: geometry mismatch (level spec)");
    }
    level.alloc = reader.get_u64();
    level.free_list = reader.get_vector<std::uint64_t>();
    const auto extent = reader.get_varint();
    const auto bits = reader.get_vector<std::uint8_t>();
    level.initialized.resize(extent);
    for (std::uint64_t b = 0; b < extent; ++b) {
      if ((bits[b / 8] >> (b % 8)) & 1) level.initialized.set(b);
    }
    level.block_crc = reader.get_vector<std::uint32_t>();
  }
  any_data_.store(true, std::memory_order_relaxed);
}

// ---- Sub-block management --------------------------------------------------

GrDB::SubblockRef GrDB::pin_subblock(int level, std::uint64_t subblock) {
  const auto addr = grdb::locate(options_.geometry, level, subblock);
  // COW boundary: shelve the pre-image before the caller can mutate.
  capture_version(level, addr.block,
                  (static_cast<std::uint64_t>(level) << 48) | addr.block);
  SubblockRef ref;
  ref.handle = cache_.get(levels_[level].store_id, addr.block);
  ref.offset = addr.block_offset;
  ref.entries = levels_[level].spec.entries_per_subblock;
  return ref;
}

template <typename Visit>
void GrDB::read_block(int level, std::uint64_t block, const Snapshot* snap,
                      std::uint64_t reads, Visit&& visit) {
  const auto cached = [&] {
    cache_.read(levels_[level].store_id, block, visit);
  };
  if (snap != nullptr) {
    // Snapshot read.  Versions first: a block mutated after the pin MUST
    // serve its shelved pre-image (the whole block, as one capture covers
    // all its sub-blocks), whatever the live or mapped bytes say.
    stats_.txn_snapshot_reads += reads;
    const std::uint64_t key = (static_cast<std::uint64_t>(level) << 48) | block;
    const auto shelved = [&](const std::vector<std::byte>& version) {
      visit(std::span<const std::byte>(version));
    };
    if (mmap_enabled_ && mapped_active_.load(std::memory_order_acquire)) {
      if (auto version = versions_.lookup(key, snap->epoch())) {
        shelved(*version);
        return;
      }
      // Then the sealed mapping, which dodges the cache and its mutex
      // entirely (where concurrent readers win): decode in place, then
      // revalidate.  A capture that raced the decode discards it, and the
      // version path below visits again.
      const auto view = mapped_snapshot_block(level, block, key);
      if (!view.empty()) {
        visit(view);
        if (!captured_since_map(key)) return;
      }
    }
    // Else the version, or the cache frame read under the version mutex:
    // a writer's first mutation of this block this epoch (whose capture
    // needs that mutex) cannot begin mid-read.  Lock order: version, then
    // cache.
    versions_.visit(key, snap->epoch(), shelved, cached);
    return;
  }
  // Sealed zero-copy path: a sequential scan (SequentialScanScope) on a
  // mapped store reads the block in place — no cache frame.  Point
  // probes (no scope) keep the scan-resistant 2Q cache; an armed
  // FaultInjector always takes the pread path so fault indices match
  // what the crash sweeps were calibrated against.  The initialized
  // bitmap is the frozen map-time copy: identical to the live one here
  // (mutators unmap first outside snapshot mode), and safe to read
  // without the meta lock.
  if (mmap_enabled_ && SequentialScanScope::active() &&
      !FaultInjector::instance().enabled() && mapped_or_map()) {
    const DynamicBitset& init = mapped_init_[level];
    if (block < init.size() && init.test(block)) {
      const auto view = mapped_[level]->block(block);
      if (!view.empty()) {
        stats_.mmap_zero_copy_reads += reads;
        visit(view);
        return;
      }
    }
    // Uninitialized (the cache reader synthesizes all-0xFF without
    // touching disk) or unbacked: fall through to the cache.
  }
  cached();
}

template <typename Visit>
void GrDB::read_subblock(int level, std::uint64_t subblock,
                         const Snapshot* snap, Visit&& visit) {
  const auto addr = grdb::locate(options_.geometry, level, subblock);
  const std::uint64_t bytes = levels_[level].spec.subblock_bytes();
  read_block(level, addr.block, snap, 1, [&](std::span<const std::byte> block) {
    visit(SubblockView{block.subspan(addr.block_offset, bytes)});
  });
}

void GrDB::capture_version(int level, std::uint64_t block,
                           std::uint64_t key) {
  if (!snapshots_enabled_) return;
  // Unconditional while snapshots are enabled (not just while one is
  // live): a snapshot may pin mid-epoch, after mutations began.  Purge
  // keeps the cost at one epoch of pre-images when nobody reads.
  const Epoch open = epochs_.open();
  const bool captured = versions_.capture(key, open, [&] {
    // Read the current bytes through the cache: a never-written block
    // synthesizes its all-0xFF "empty" image, which is exactly the
    // pre-image a fresh block needs.
    std::vector<std::byte> image;
    cache_.read(levels_[level].store_id, block,
                [&image](std::span<const std::byte> data) {
                  image.assign(data.begin(), data.end());
                });
    return image;
  });
  if (captured) {
    ++stats_.txn_cow_pages;
    std::lock_guard<std::mutex> lk(stale_mu_);
    cow_since_map_.insert(key);
  }
}

std::span<const std::byte> GrDB::mapped_snapshot_block(int level,
                                                       std::uint64_t block,
                                                       std::uint64_t key) {
  if (captured_since_map(key)) return {};
  const DynamicBitset& init = mapped_init_[level];
  if (block >= init.size() || !init.test(block)) return {};
  return mapped_[level]->block(block);
}

bool GrDB::captured_since_map(std::uint64_t key) const {
  std::lock_guard<std::mutex> lk(stale_mu_);
  return cow_since_map_.contains(key);
}

void GrDB::commit_epoch() {
  if (!snapshots_enabled_) return;
  epochs_.advance();
  versions_.purge(epochs_.min_live());
}

SnapshotRef GrDB::begin_snapshot() {
  if (!snapshots_enabled_) return nullptr;
  // The live extent over-approximates the committed one; over-included
  // vertices resolve to their (empty) pre-image versions.
  return epochs_.pin(this, max_vertex_.load(std::memory_order_relaxed) + 1,
                     any_data_.load(std::memory_order_relaxed));
}

GraphDB::TxnState GrDB::txn_state() const {
  if (!snapshots_enabled_) return {};
  return {epochs_.current(), epochs_.live_count(), versions_.versions()};
}

bool GrDB::mapped_or_map() {
  if (mapped_active_.load(std::memory_order_acquire)) return true;
  return try_map_sealed();
}

bool GrDB::try_map_sealed() {
  std::lock_guard<std::mutex> lock(map_mu_);
  if (mapped_active_.load(std::memory_order_relaxed)) return true;
  if (!mmap_retry_) return false;
  mmap_retry_ = false;  // one attempt per epoch; flush re-arms
  // Sealed means: every block the map could serve is byte-identical on
  // disk — nothing dirty since the last full-commit flush and no journal
  // group still deferring its boundary.  (Clean cached copies of the
  // same bytes are fine.)
  const bool sealed =
      any_data_.load(std::memory_order_relaxed) &&
      !dirty_since_flush_.load(std::memory_order_relaxed) &&
      (journal_ == nullptr || !journal_->group_pending()) &&
      !FaultInjector::instance().enabled();
  if (!sealed) {
    ++stats_.mmap_fallbacks;
    return false;
  }
  // Freeze the per-level initialized bitmaps and sidecar CRCs as of this
  // seal.  Readers consult the frozen copies lock-free: unlike the live
  // tables (which a reader-thread eviction may grow mid-read), these
  // never change while the mapping is active.  With snapshots on, the
  // mapping may outlive later mutations — blocks COW'd since the seal
  // are declined via cow_since_map_ before the frozen CRC could lie.
  mapped_init_.assign(levels_.size(), {});
  mapped_crc_.assign(levels_.size(), {});
  {
    std::lock_guard<std::mutex> mlk(meta_mu_);
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      mapped_init_[l] = levels_[l].initialized;
      mapped_crc_[l] = levels_[l].block_crc;
    }
  }
  std::vector<std::unique_ptr<MappedBlockSource>> sources;
  sources.reserve(levels_.size());
  try {
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      auto source = std::make_unique<MappedBlockSource>(
          levels_[l].spec.block_bytes,
          options_.geometry.blocks_per_file(static_cast<int>(l)),
          // Mirrors the cache's verify hook exactly: same counter, same
          // error text — bit rot classifies identically on both paths.
          // read_subblock only hands the source initialized blocks, which
          // flush gave a sidecar CRC; the guard matches the hook's.
          [this, l](std::uint64_t block, std::span<const std::byte> data) {
            const std::vector<std::uint32_t>& crc = mapped_crc_[l];
            if (block >= crc.size()) return;
            if (crc32c(data) != crc[block]) {
              ++stats_.checksum_failures;
              throw StorageError("grDB: level " + std::to_string(l) +
                                 " block " + std::to_string(block) +
                                 " failed sidecar checksum");
            }
          },
          &stats_);
      // Level files are created densely (level<l>.0.dat, .1.dat, ...);
      // map every one present.
      for (std::uint64_t f = 0;; ++f) {
        const auto path = dir_ / ("level" + std::to_string(l) + "." +
                                  std::to_string(f) + ".dat");
        if (!std::filesystem::exists(path)) break;
        MappedFile file = MappedFile::map_readonly(path);
        ++stats_.mmap_maps;
        stats_.mmap_mapped_bytes += file.size();
        source->attach(f, std::move(file));
      }
      // Level 0 is the sweep extent (for_each_vertex, analytics
      // supersteps): tell readahead it is sequential.
      if (l == 0) source->advise_sequential();
      sources.push_back(std::move(source));
    }
  } catch (const Error&) {
    // Mapping is an optimization: any failure (platform without mmap
    // headroom, raced file) falls back to the pread path, silently
    // correct.
    ++stats_.mmap_fallbacks;
    return false;
  }
  mapped_ = std::move(sources);
  {
    // Everything the map serves matches the files as of this seal; later
    // COW captures re-populate the stale set.
    std::lock_guard<std::mutex> slk(stale_mu_);
    cow_since_map_.clear();
  }
  mapped_active_.store(true, std::memory_order_release);
  return true;
}

void GrDB::unmap_sealed() {
  if (!mmap_enabled_) return;
  std::lock_guard<std::mutex> lock(map_mu_);
  mmap_retry_ = false;
  if (!mapped_active_.load(std::memory_order_relaxed)) return;
  // Callers (mutations, journal replay, exclusive maintenance) run with
  // no concurrent reader — nobody holds a view into these mappings.
  mapped_active_.store(false, std::memory_order_release);
  mapped_.clear();
  mapped_init_.clear();
  mapped_crc_.clear();
  ++stats_.mmap_fallbacks;
}

void GrDB::rearm_mmap() {
  if (!mmap_enabled_) return;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    if (!mapped_active_.load(std::memory_order_relaxed)) mmap_retry_ = true;
  }
  // With snapshots on, readers never map (read_subblock only tests
  // mapped_active_, since freezing the bitmaps must not race the
  // writer): map eagerly from this writer context at every sealed
  // boundary instead.
  if (snapshots_enabled_) try_map_sealed();
}

std::uint64_t GrDB::allocate_subblock(int level) {
  MSSG_CHECK(level >= 1 && level < static_cast<int>(levels_.size()));
  Level& lvl = levels_[level];
  std::uint64_t subblock;
  if (!lvl.free_list.empty()) {
    subblock = lvl.free_list.back();
    lvl.free_list.pop_back();
  } else {
    subblock = lvl.alloc++;
  }
  // Fresh sub-blocks start all-empty (a recycled one may hold stale data).
  SubblockRef ref = pin_subblock(level, subblock);
  std::memset(ref.handle.mutable_data().data() + ref.offset, 0xFF,
              lvl.spec.subblock_bytes());
  return subblock;
}

void GrDB::release_subblock(int level, std::uint64_t subblock) {
  MSSG_CHECK(level >= 1 && level < static_cast<int>(levels_.size()));
  levels_[level].free_list.push_back(subblock);
}

// ---- Chain walking ---------------------------------------------------------

std::pair<int, std::uint64_t> GrDB::find_tail(
    VertexId v, const Snapshot* snap,
    std::vector<std::pair<int, std::uint64_t>>* track) {
  int level = 0;
  std::uint64_t subblock = v;
  while (true) {
    if (track != nullptr) track->emplace_back(level, subblock);
    std::uint64_t last = 0;
    read_subblock(level, subblock, snap, [&last](SubblockView sb) {
      last = sb.get(sb.entries() - 1);
    });
    if (grdb::classify(last) != EntryKind::kPointer) return {level, subblock};
    level = grdb::pointer_level(last);
    subblock = grdb::pointer_subblock(last);
  }
}

std::vector<std::pair<int, std::uint64_t>> GrDB::chain_of(VertexId v) {
  std::vector<std::pair<int, std::uint64_t>> chain;
  find_tail(v, active_snapshot(), &chain);
  return chain;
}

void GrDB::poke_entry(int level, std::uint64_t subblock, std::uint64_t index,
                      std::uint64_t value) {
  MSSG_CHECK(level >= 0 && level < static_cast<int>(levels_.size()));
  // Exclusive maintenance (fault-injection hook, fsck probes): the one
  // context that still unmaps in snapshot mode — callers guarantee no
  // reader is live.
  std::lock_guard<std::mutex> lock(write_mu_);
  unmap_sealed();
  SubblockRef ref = pin_subblock(level, subblock);
  MSSG_CHECK(index < ref.entries);
  ref.set(index, value);
  dirty_since_flush_.store(true, std::memory_order_relaxed);
}

std::uint64_t GrDB::allocated_subblocks(int level) const {
  MSSG_CHECK(level >= 0 && level < static_cast<int>(levels_.size()));
  if (level == 0) {
    return any_data_.load(std::memory_order_relaxed)
               ? max_vertex_.load(std::memory_order_relaxed) + 1
               : 0;
  }
  return levels_[level].alloc;
}

void GrDB::publish_metrics(MetricsSnapshot& snap) const {
  GraphDB::publish_metrics(snap);
  snap.merge(cache_.async_metrics());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const std::string prefix = "grdb.level" + std::to_string(l);
    snap.add(prefix + ".subblocks", allocated_subblocks(static_cast<int>(l)));
    snap.add(prefix + ".free", levels_[l].free_list.size());
  }
  // Page-cache residency of the live sealed mapping (mincore sampling):
  // how much of the mapped graph the OS is actually holding in memory.
  std::lock_guard<std::mutex> lock(map_mu_);
  if (mapped_active_.load(std::memory_order_relaxed)) {
    MappedFile::Residency residency;
    for (const auto& source : mapped_) residency += source->residency();
    snap.add("mmap.resident_pages", residency.resident_pages);
    snap.add("mmap.sampled_pages", residency.sampled_pages);
  }
  if (snapshots_enabled_) {
    const TxnState txn = txn_state();
    snap.add("txn.epochs_live", txn.live_snapshots);
    snap.add("txn.committed_epoch", txn.committed);
    snap.add("txn.versions_held", txn.versions);
  }
}

void GrDB::drop_os_page_cache() const {
  // Every regular file in the node directory: level files, grdb.meta,
  // and the journal.  Best-effort — a vanished file is not an error.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    try {
      File::open_readonly(entry.path()).drop_page_cache();
    } catch (const Error&) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

// ---- Reads -----------------------------------------------------------------

VertexId GrDB::chain_extent(const Snapshot* snap) const {
  if (snap != nullptr) {
    // The pinned extent over-approximates the committed one; vertices it
    // admits that were only stored after the pin resolve to their all-0xFF
    // pre-image versions, i.e. the empty set.
    return snap->nonempty() ? snap->extent() : 0;
  }
  return any_data_.load(std::memory_order_relaxed)
             ? max_vertex_.load(std::memory_order_relaxed) + 1
             : 0;
}

void GrDB::get_adjacency(VertexId v, std::vector<VertexId>& out) {
  const Snapshot* snap = active_snapshot();
  if (v >= chain_extent(snap)) return;
  int level = 0;
  std::uint64_t subblock = v;
  while (true) {
    const std::size_t mark = out.size();
    std::uint64_t next = grdb::kEmptySlot;
    read_subblock(level, subblock, snap, [&](SubblockView sb) {
      out.resize(mark);  // a redone visit replaces the discarded decode
      next = sb.append_vertices(out);
    });
    if (next == grdb::kEmptySlot) return;
    level = grdb::pointer_level(next);
    subblock = grdb::pointer_subblock(next);
  }
}

void GrDB::visit_adjacency(std::span<const VertexId> vertices,
                           const AdjacencyVisitor& fn) {
  const Snapshot* snap = active_snapshot();
  const VertexId end = chain_extent(snap);
  std::vector<std::vector<VertexId>> lists(
      std::min(kVisitWindow, vertices.size()));
  std::vector<ChainStep> steps;
  for (std::size_t base = 0; base < vertices.size(); base += kVisitWindow) {
    const auto window = vertices.subspan(
        base, std::min(kVisitWindow, vertices.size() - base));
    steps.clear();
    for (std::uint32_t slot = 0; slot < window.size(); ++slot) {
      lists[slot].clear();
      if (window[slot] < end) steps.push_back({window[slot], slot});
    }
    read_chains(steps, snap, lists);
    // No lock is held here: `fn` may call back into this store.
    for (std::uint32_t slot = 0; slot < window.size(); ++slot) {
      if (!fn(window[slot], lists[slot])) return;
    }
  }
}

void GrDB::read_chains(std::vector<ChainStep>& steps, const Snapshot* snap,
                       std::vector<std::vector<VertexId>>& lists) {
  const auto by_subblock = [](const ChainStep& a, const ChainStep& b) {
    return a.at < b.at;
  };
  std::vector<ChainStep> next;
  while (!steps.empty()) {
    // A sorted frontier's level-0 round arrives sorted.
    if (!std::is_sorted(steps.begin(), steps.end(), by_subblock)) {
      std::sort(steps.begin(), steps.end(), by_subblock);
    }
    for (std::size_t first = 0; first < steps.size();) {
      const int level = steps[first].level();
      const grdb::LevelSpec& spec = levels_[level].spec;
      const std::uint64_t k = spec.subblocks_per_block();
      const std::uint64_t bytes = spec.subblock_bytes();
      const std::uint64_t block = steps[first].subblock() / k;
      std::size_t last = first + 1;
      while (last < steps.size() && steps[last].level() == level &&
             steps[last].subblock() / k == block) {
        ++last;
      }
      const auto group = std::span(steps).subspan(first, last - first);
      for (ChainStep& step : group) step.mark = lists[step.slot].size();
      read_block(level, block, snap, group.size(),
                 [&](std::span<const std::byte> data) {
                   for (ChainStep& step : group) {
                     std::vector<VertexId>& out = lists[step.slot];
                     out.resize(step.mark);  // a redone visit starts over
                     const SubblockView sb{
                         data.subspan((step.subblock() % k) * bytes, bytes)};
                     step.next = sb.append_vertices(out);
                   }
                 });
      first = last;
    }
    next.clear();
    for (const ChainStep& step : steps) {
      if (step.next != grdb::kEmptySlot) next.push_back({step.next, step.slot});
    }
    steps.swap(next);
  }
}

void GrDB::for_each_vertex(const std::function<bool(VertexId)>& visit) {
  const Snapshot* snap = active_snapshot();
  // Over-included vertices of a pinned extent (stored after the pin) read
  // their empty pre-image and are skipped — the sweep sees exactly the
  // epoch.
  const VertexId end = chain_extent(snap);
  // The level-0 sweep is the canonical sequential scan — mapped-path
  // eligible regardless of what the caller installed.
  SequentialScanScope scan_scope;
  const std::uint64_t k = levels_[0].spec.subblocks_per_block();
  const std::uint64_t bytes = levels_[0].spec.subblock_bytes();
  std::vector<VertexId> stored;
  for (VertexId first = 0; first < end; first += k) {
    const VertexId last = std::min<VertexId>(first + k, end);
    read_block(0, first / k, snap, last - first,
               [&](std::span<const std::byte> data) {
                 stored.clear();
                 for (VertexId v = first; v < last; ++v) {
                   const SubblockView sb{data.subspan((v - first) * bytes,
                                                      bytes)};
                   if (grdb::classify(sb.get(0)) != EntryKind::kEmpty) {
                     stored.push_back(v);
                   }
                 }
               });
    // Visited outside the block's locks: visitors may re-enter the store.
    for (const VertexId v : stored) {
      if (!visit(v)) return;
    }
  }
}

void GrDB::prefetch(std::span<const VertexId> vertices) {
  if (!any_data_.load(std::memory_order_relaxed)) return;
  // Distinct level-0 blocks, ascending => file offsets ascending.
  std::vector<std::uint64_t> blocks;
  blocks.reserve(vertices.size());
  const std::uint64_t k0 = levels_[0].spec.subblocks_per_block();
  const VertexId last = max_vertex_.load(std::memory_order_relaxed);
  for (const VertexId v : vertices) {
    if (v <= last) blocks.push_back(v / k0);
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  // A scan on a mapped store reads these blocks as views: the hint goes
  // to the kernel (madvise WILLNEED) instead of the IoEngine — the
  // engine would load copies into cache frames the scan never touches.
  if (SequentialScanScope::active() &&
      mapped_active_.load(std::memory_order_acquire) &&
      !FaultInjector::instance().enabled()) {
    mapped_[0]->willneed(blocks);
    return;
  }
  if (cache_.async_enabled()) {
    // Read-ahead through the engine: the fringe's blocks load in the
    // background while the caller returns to computation.
    cache_.prefetch_async(levels_[0].store_id, blocks);
    return;
  }
  for (const std::uint64_t block : blocks) {
    cache_.read(levels_[0].store_id, block, [](std::span<const std::byte>) {});
  }
}

// ---- Writes ----------------------------------------------------------------

void GrDB::store_edges(std::span<const Edge> edges) {
  std::lock_guard<std::mutex> lock(write_mu_);
  // With snapshots on the sealed mapping STAYS mapped: pinned readers may
  // hold views into it, and every block this ingest mutates is COW'd
  // into cow_since_map_ before its bytes change, so the mapped read path
  // declines exactly the blocks that go stale.  Without snapshots the
  // classic discipline holds — mutation unmaps first.
  if (!snapshots_enabled_) unmap_sealed();
  // Batch by source: one chain walk per distinct vertex per batch.
  std::unordered_map<VertexId, std::vector<VertexId>> by_source;
  for (const auto& e : edges) {
    MSSG_CHECK(e.src <= kMaxVertexId && e.dst <= kMaxVertexId);
    by_source[e.src].push_back(e.dst);
  }
  for (const auto& [src, neighbors] : by_source) append(src, neighbors);
}

void GrDB::append(VertexId v, std::span<const VertexId> neighbors) {
  if (neighbors.empty()) return;
  any_data_.store(true, std::memory_order_relaxed);
  dirty_since_flush_.store(true, std::memory_order_relaxed);
  // write_mu_ serializes writers; the load-compare-store cannot race
  // another writer, and readers tolerate any momentary value.
  if (v > max_vertex_.load(std::memory_order_relaxed)) {
    max_vertex_.store(v, std::memory_order_relaxed);
  }
  const int last_level = static_cast<int>(levels_.size()) - 1;

  // Walk to the tail, remembering the parent sub-block for copy-up mode.
  int prev_level = -1;
  std::uint64_t prev_subblock = 0;
  int level = 0;
  std::uint64_t subblock = v;
  // The writer extends the live chain, whatever snapshot its thread holds.
  while (true) {
    std::uint64_t last = 0;
    read_subblock(level, subblock, nullptr, [&last](SubblockView sb) {
      last = sb.get(sb.entries() - 1);
    });
    if (grdb::classify(last) != EntryKind::kPointer) break;
    prev_level = level;
    prev_subblock = subblock;
    level = grdb::pointer_level(last);
    subblock = grdb::pointer_subblock(last);
  }

  SubblockRef ref = pin_subblock(level, subblock);
  std::uint64_t d = ref.entries;
  // First empty slot; d means the sub-block is completely full.
  std::uint64_t idx = 0;
  while (idx < d && grdb::classify(ref.get(idx)) != EntryKind::kEmpty) ++idx;

  std::size_t pos = 0;
  while (pos < neighbors.size()) {
    if (idx + 1 < d) {
      ref.set(idx++, grdb::make_vertex_entry(neighbors[pos++]));
      continue;
    }
    if (idx == d - 1 && pos + 1 == neighbors.size()) {
      // Exactly one neighbor left: it may occupy the final slot (a full
      // sub-block without a pointer is a valid chain tail).
      ref.set(idx++, grdb::make_vertex_entry(neighbors[pos++]));
      continue;
    }

    // The sub-block overflows.  Either link to a fresh sub-block at the
    // next level, or (copy-up mode, levels >= 1) migrate this sub-block's
    // contents up and retarget the parent pointer.
    const int next_level = std::min(level + 1, last_level);

    if (options_.growth == GrDBGrowth::kCopyUp && level >= 1 &&
        level < last_level) {
      const std::uint64_t new_subblock = allocate_subblock(next_level);
      SubblockRef new_ref =
          pin_subblock(next_level, new_subblock);
      for (std::uint64_t i = 0; i < idx; ++i) new_ref.set(i, ref.get(i));
      MSSG_CHECK(prev_level >= 0);
      SubblockRef parent =
          pin_subblock(prev_level, prev_subblock);
      parent.set(parent.entries - 1,
                 grdb::make_pointer_entry(next_level, new_subblock));
      release_subblock(level, subblock);
      level = next_level;
      subblock = new_subblock;
      ref = std::move(new_ref);
      // idx (fill count) carries over; capacity grew, so filling resumes.
      d = ref.entries;
      continue;
    }

    // Link mode (also used at level 0, which is the fixed chain root, and
    // at the maximum level, where chains extend sideways).
    std::uint64_t displaced = grdb::kEmptySlot;
    if (idx == d) displaced = ref.get(d - 1);  // full: relocate last entry
    const std::uint64_t new_subblock = allocate_subblock(next_level);
    SubblockRef new_ref =
        pin_subblock(next_level, new_subblock);
    ref.set(d - 1, grdb::make_pointer_entry(next_level, new_subblock));
    prev_level = level;
    prev_subblock = subblock;
    level = next_level;
    subblock = new_subblock;
    ref = std::move(new_ref);
    d = ref.entries;
    idx = 0;
    if (displaced != grdb::kEmptySlot) ref.set(idx++, displaced);
  }
}

// ---- Verification ----------------------------------------------------------

GrDB::VerifyReport GrDB::verify() {
  VerifyReport report;
  if (!any_data_) return report;

  const int last_level = static_cast<int>(levels_.size()) - 1;
  // Sub-blocks reachable from some chain, per level (level 0 excluded:
  // it is directly addressed, never pointed at).
  std::vector<std::unordered_set<std::uint64_t>> reachable(levels_.size());
  auto complain = [&report](std::string message) {
    if (report.errors.size() < 64) report.errors.push_back(std::move(message));
  };
  // One sub-block's raw slots, checked outside the read so complaints
  // never run under the cache mutex.
  std::vector<std::uint64_t> slots;
  const Snapshot* snap = active_snapshot();

  for (VertexId v = 0; v <= max_vertex_; ++v) {
    int level = 0;
    std::uint64_t subblock = v;
    std::size_t hops = 0;
    bool chain_counted = false;
    // Generous bound: a sound chain cannot exceed one sub-block per level
    // plus last-level extensions.
    const std::size_t hop_limit =
        levels_.size() + levels_[last_level].alloc + 1;
    while (true) {
      if (++hops > hop_limit) {
        complain("vertex " + std::to_string(v) + ": chain exceeds " +
                 std::to_string(hop_limit) + " sub-blocks (cycle?)");
        break;
      }
      try {
        read_subblock(level, subblock, snap, [&slots](SubblockView sb) {
          slots.clear();
          for (std::uint64_t i = 0; i < sb.entries(); ++i) {
            slots.push_back(sb.get(i));
          }
        });
      } catch (const Error& e) {
        // A block that cannot even be read (sidecar checksum failure,
        // I/O error) is a finding, not a reason for the fsck to die.
        complain("vertex " + std::to_string(v) + ": " + e.what());
        break;
      }
      bool saw_empty = false;
      std::uint64_t next_subblock = 0;
      int next_level = -1;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::uint64_t entry = slots[i];
        switch (grdb::classify(entry)) {
          case EntryKind::kVertex:
            if (saw_empty) {
              complain("vertex " + std::to_string(v) +
                       ": entry after empty slot at level " +
                       std::to_string(level));
            }
            ++report.entries;
            if (!chain_counted) {
              ++report.chains_checked;
              chain_counted = true;
            }
            break;
          case EntryKind::kEmpty:
            saw_empty = true;
            break;
          case EntryKind::kPointer: {
            if (i + 1 != slots.size()) {
              complain("vertex " + std::to_string(v) +
                       ": pointer not in last slot");
            }
            next_level = grdb::pointer_level(entry);
            next_subblock = grdb::pointer_subblock(entry);
            if (next_level > last_level) {
              complain("vertex " + std::to_string(v) +
                       ": pointer to level beyond geometry");
              next_level = -1;
            } else if (next_subblock >= levels_[next_level].alloc) {
              complain("vertex " + std::to_string(v) +
                       ": pointer past allocated extent of level " +
                       std::to_string(next_level));
              next_level = -1;
            } else if (!reachable[next_level].insert(next_subblock).second) {
              complain("sub-block " + std::to_string(next_subblock) +
                       " at level " + std::to_string(next_level) +
                       " reachable from two chains");
              next_level = -1;
            }
            break;
          }
        }
      }
      if (next_level < 0) break;
      level = next_level;
      subblock = next_subblock;
    }
  }

  // Free-listed sub-blocks must not be reachable.
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    for (const auto free_sb : levels_[l].free_list) {
      if (reachable[l].contains(free_sb)) {
        complain("sub-block " + std::to_string(free_sb) + " at level " +
                 std::to_string(l) + " is both free and reachable");
      }
    }
  }
  return report;
}

// ---- Defragmentation -------------------------------------------------------

namespace {
/// The optimal (copy-up) chain shape for a given degree: the level-0 root
/// links directly to the smallest single sub-block that holds the rest —
/// intermediate levels vanish, exactly what repeated copy-up produces.
/// Degrees beyond the top level extend sideways at the top level.
std::vector<int> optimal_levels(std::uint64_t degree,
                                const grdb::Geometry& geo) {
  std::vector<int> seq{0};
  const int last = geo.level_count() - 1;
  const std::uint64_t d0 = geo.levels[0].entries_per_subblock;
  if (degree <= d0) return seq;
  std::uint64_t remaining = degree - (d0 - 1);
  for (int l = 1; l <= last; ++l) {
    if (geo.levels[l].entries_per_subblock >= remaining) {
      seq.push_back(l);
      return seq;
    }
  }
  const std::uint64_t d_last = geo.levels[last].entries_per_subblock;
  while (true) {
    seq.push_back(last);
    if (remaining <= d_last) return seq;
    remaining -= d_last - 1;
  }
}
}  // namespace

std::uint64_t GrDB::defragment() {
  if (!any_data_.load(std::memory_order_relaxed)) return 0;
  // Exclusive maintenance: like poke_entry, runs with no reader live, so
  // unmapping is safe even in snapshot mode.
  std::lock_guard<std::mutex> lock(write_mu_);
  unmap_sealed();
  dirty_since_flush_.store(true, std::memory_order_relaxed);
  std::uint64_t rewritten = 0;
  std::vector<VertexId> neighbors;
  std::vector<std::pair<int, std::uint64_t>> chain;

  const VertexId last_vertex = max_vertex_.load(std::memory_order_relaxed);
  for (VertexId v = 0; v <= last_vertex; ++v) {
    chain.clear();
    find_tail(v, nullptr, &chain);
    if (chain.size() <= 1) continue;

    neighbors.clear();
    get_adjacency(v, neighbors);

    // Already optimal?  Compare the level sequences.
    const auto target = optimal_levels(neighbors.size(), options_.geometry);
    bool optimal = target.size() == chain.size();
    for (std::size_t i = 0; optimal && i < chain.size(); ++i) {
      optimal = chain[i].first == target[i];
    }
    if (optimal) continue;

    // Recycle the old chain (all but the fixed level-0 root)...
    for (std::size_t i = 1; i < chain.size(); ++i) {
      release_subblock(chain[i].first, chain[i].second);
    }

    // ...and write the compact chain along the optimal level sequence.
    std::uint64_t subblock = v;
    std::size_t pos = 0;
    for (std::size_t step = 0; step < target.size(); ++step) {
      const int level = target[step];
      SubblockRef ref = pin_subblock(level, subblock);
      const std::uint64_t d = ref.entries;
      std::memset(ref.handle.mutable_data().data() + ref.offset, 0xFF,
                  levels_[level].spec.subblock_bytes());
      if (step + 1 == target.size()) {
        const std::uint64_t remaining = neighbors.size() - pos;
        MSSG_CHECK(remaining <= d);
        for (std::uint64_t i = 0; i < remaining; ++i) {
          ref.set(i, grdb::make_vertex_entry(neighbors[pos++]));
        }
      } else {
        for (std::uint64_t i = 0; i < d - 1; ++i) {
          ref.set(i, grdb::make_vertex_entry(neighbors[pos++]));
        }
        const int next_level = target[step + 1];
        const std::uint64_t next_subblock = allocate_subblock(next_level);
        ref.set(d - 1, grdb::make_pointer_entry(next_level, next_subblock));
        subblock = next_subblock;
      }
    }
    ++rewritten;
  }
  return rewritten;
}

}  // namespace mssg
