// grDB — the thesis' novel out-of-core graph database (§3.4.1, §4.1.6).
//
// The *storage component* keeps partial adjacency lists in multi-level
// sub-block chains; the *block cache component* (storage/block_cache)
// caches whole blocks.  A vertex's adjacency list begins in its level-0
// sub-block (sub-block index == GID); when a sub-block fills, its last
// slot becomes a tagged pointer to a sub-block at a higher level.
//
// Two growth strategies from the thesis are implemented:
//  - kLink ("the sub-block at level l is left unchanged and simply
//    links"): cheap inserts, fragmented chains.
//  - kCopyUp ("all of the contents ... are moved to the new sub-block"):
//    extra copies during insertion, compact chains.
// defragment() is the offline "idle time" compaction pass that rewrites
// fragmented chains into their optimal shape and recycles sub-blocks.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bitset.hpp"
#include "graphdb/graphdb.hpp"
#include "graphdb/grdb/format.hpp"
#include "storage/block_cache.hpp"
#include "storage/file.hpp"
#include "storage/journal.hpp"
#include "storage/mapped_file.hpp"

namespace mssg {

enum class GrDBGrowth { kLink, kCopyUp };

struct GrDBOptions {
  grdb::Geometry geometry = grdb::Geometry::standard();
  GrDBGrowth growth = GrDBGrowth::kLink;
};

class GrDB final : public GraphDB {
 public:
  GrDB(const GraphDBConfig& config, std::unique_ptr<MetadataStore> metadata,
       GrDBOptions options = {});
  ~GrDB() override;

  /// Frontier vertices visit_adjacency resolves together.  A 4 KiB
  /// level-0 block holds 256 first sub-blocks, so a sorted window of 256
  /// ids covers one such block per node of the hash partition, and its
  /// chains fit a small cache.  A constant, not an option: which blocks
  /// a window pins depends only on the input.
  static constexpr std::size_t kVisitWindow = 256;

  void store_edges(std::span<const Edge> edges) override;
  void get_adjacency(VertexId v, std::vector<VertexId>& out) override;
  /// Block-grouped reader.  Each window of kVisitWindow vertices walks
  /// its chains one hop per round (level-0 sub-blocks, then the pointers
  /// they yield).  A round's sub-blocks are sorted by (level, block), and
  /// each distinct block is resolved once — shelved version, sealed
  /// mapping or cache frame — with every pending sub-block in it decoded
  /// under that one pin.  Misses are read on the calling thread: handing
  /// them to the IoEngine cost more CPU (thread hand-offs, checksums over
  /// buffers another core wrote) than the merged reads saved.
  void visit_adjacency(std::span<const VertexId> vertices,
                       const AdjacencyVisitor& fn) override;
  /// Group-commit aware: with journal_sync_interval > 1 only every n-th
  /// flush commits durably; the rest defer into the group (the
  /// destructor forces the boundary).
  void flush() override {
    std::lock_guard<std::mutex> lock(write_mu_);
    flush_impl(/*force_commit=*/false);
  }
  void finalize_ingest() override { flush(); }

  /// Pins the last committed epoch (DESIGN.md "Snapshot isolation").
  /// With `GraphDBConfig::snapshots` on, reads under a SnapshotScope
  /// holding the ref serve exactly that epoch — version pre-images
  /// first, then the sealed mapping, then the cache frame read under the
  /// version mutex — while store_edges/flush advance the next epoch
  /// concurrently.
  [[nodiscard]] SnapshotRef begin_snapshot() override;
  [[nodiscard]] TxnState txn_state() const override;

  /// Sequential sweep of the level-0 extent, one pin per level-0 block;
  /// visits vertices whose first entry is non-empty.
  void for_each_vertex(const std::function<bool(VertexId)>& visit) override;

  /// Warms the cache with the level-0 blocks of the given vertices,
  /// visiting blocks in ascending block order ("sorting the pre-fetch
  /// disk accesses by file offsets to reduce the seek overhead", §4.2).
  void prefetch(std::span<const VertexId> vertices) override;

  [[nodiscard]] std::string name() const override { return "grDB"; }
  [[nodiscard]] IoStats io_stats() const override { return stats_; }

  /// Adds per-level sub-block allocation and free-list depth counters
  /// ("grdb.level<l>.subblocks" / ".free") on top of the shared io.*
  /// set, plus mmap page-cache residency (mincore sampling) while the
  /// sealed mapping is live.
  void publish_metrics(MetricsSnapshot& snap) const override;

  /// Evicts every file in the storage directory (level files, meta,
  /// journal) from the OS page cache — see GraphDB::drop_os_page_cache.
  void drop_os_page_cache() const override;

  /// Offline compaction: rewrites every multi-sub-block chain into its
  /// optimal shape, returning freed sub-blocks to per-level free lists.
  /// Returns the number of chains rewritten.
  std::uint64_t defragment();

  /// The (level, sub-block) chain of a vertex — introspection for tests
  /// and the fragmentation ablation.
  [[nodiscard]] std::vector<std::pair<int, std::uint64_t>> chain_of(
      VertexId v);

  /// Overwrites one raw entry THROUGH the cache (so the block's sidecar
  /// CRC reseals legitimately on flush) — a fault-injection hook letting
  /// tests plant structurally invalid chains that verify() must catch.
  /// Out-of-band on-disk patching is caught earlier, by the checksum.
  void poke_entry(int level, std::uint64_t subblock, std::uint64_t index,
                  std::uint64_t value);

  /// Structural integrity report from verify().
  struct VerifyReport {
    std::uint64_t chains_checked = 0;
    std::uint64_t entries = 0;        ///< adjacency entries seen
    std::vector<std::string> errors;  ///< empty iff the instance is sound

    [[nodiscard]] bool ok() const { return errors.empty(); }
  };

  /// Walks every chain and checks the format invariants: pointer targets
  /// within the allocated extent, no sub-block reachable twice, no
  /// sub-block both reachable and on a free list, slots filled
  /// left-to-right, chain length bounded.  Read-only; the fsck of grDB.
  [[nodiscard]] VerifyReport verify();

  /// Sub-blocks ever allocated at a level (level 0 reports the touched
  /// id-space extent).
  [[nodiscard]] std::uint64_t allocated_subblocks(int level) const;

 private:
  struct Level {
    grdb::LevelSpec spec;
    std::uint16_t store_id = 0;
    std::uint64_t alloc = 0;  ///< next-unallocated sub-block (levels >= 1)
    std::vector<std::uint64_t> free_list;
    DynamicBitset initialized;  ///< blocks that exist on disk / in cache
    // Sidecar CRC32C per block (grDB's geometry packs sub-blocks exactly,
    // leaving no room for an in-page trailer); persisted in grdb.meta and
    // checked on every disk read of an initialized block.
    std::vector<std::uint32_t> block_crc;
    // Blocks first initialized in the CURRENT journal epoch: they need no
    // undo pre-image — rolling back the committed meta's initialized
    // bitmap already makes their on-disk bytes unreachable.
    std::unordered_set<std::uint64_t> fresh;
    std::vector<std::unique_ptr<File>> files;
  };

  /// A sub-block pinned for writing: the owning cache handle plus entry
  /// accessors.  Reads never pin; they go through read_subblock.
  struct SubblockRef {
    BlockHandle handle;
    std::uint64_t offset = 0;  ///< byte offset of the sub-block in block
    std::uint64_t entries = 0;

    [[nodiscard]] std::uint64_t get(std::uint64_t i) const;
    void set(std::uint64_t i, std::uint64_t value);
  };

  /// One sub-block's entries, read where its bytes already are.
  struct SubblockView {
    std::span<const std::byte> bytes;  ///< exactly the sub-block

    [[nodiscard]] std::uint64_t entries() const {
      return bytes.size() / grdb::kEntryBytes;
    }
    [[nodiscard]] std::uint64_t get(std::uint64_t i) const;
    /// Appends the vertex entries to `out` and returns the chain pointer
    /// in the last slot, or kEmptySlot where the chain ends.
    std::uint64_t append_vertices(std::vector<VertexId>& out) const;
  };

  /// One pending hop of a visit_adjacency chain walk: the next sub-block
  /// of window slot `slot`'s chain.
  struct ChainStep {
    /// The sub-block as a tagged entry: level in the tag, sub-block in
    /// the value (a level-0 id is its own entry).  Ordering by it orders
    /// by (level, sub-block), hence by (level, block).
    std::uint64_t at = 0;
    std::uint32_t slot = 0;
    std::size_t mark = 0;  ///< the slot's list length before this hop
    std::uint64_t next = grdb::kEmptySlot;  ///< pointer the hop yielded

    [[nodiscard]] int level() const { return grdb::pointer_level(at); }
    [[nodiscard]] std::uint64_t subblock() const {
      return grdb::pointer_subblock(at);
    }
  };

  /// Routes through the COW capture (pre-image shelved on the first
  /// mutation of the block per epoch) before handing out the mutable
  /// cache frame.
  SubblockRef pin_subblock(int level, std::uint64_t subblock);

  /// The one read primitive: calls `visit(std::span<const std::byte>)`
  /// on the whole block's bytes in place — a shelved pre-image, the
  /// sealed mapping, or the cache frame (BlockCache::read) — never on a
  /// copy.  `snap` is the caller's snapshot of this store (nullptr reads
  /// live state).  `reads` is how many sub-blocks the caller decodes
  /// from the block: `txn_snapshot_reads` and `mmap_zero_copy_reads`
  /// count sub-blocks, added once per block.  `visit` may run under the
  /// version and cache mutexes, so it must not call back into this
  /// store, and it may run twice for one read (a mapped snapshot decode
  /// whose revalidation fails is redone from the version path): each
  /// call must first undo whatever a previous call produced.
  template <typename Visit>
  void read_block(int level, std::uint64_t block, const Snapshot* snap,
                  std::uint64_t reads, Visit&& visit);
  /// read_block for one sub-block: `visit(SubblockView)`.
  template <typename Visit>
  void read_subblock(int level, std::uint64_t subblock, const Snapshot* snap,
                     Visit&& visit);
  /// Walks the chains in `steps` to their ends, one hop per round,
  /// appending each slot's entries to `lists[slot]` in chain order.
  void read_chains(std::vector<ChainStep>& steps, const Snapshot* snap,
                   std::vector<std::vector<VertexId>>& lists);

  /// The snapshot of this store installed on the calling thread, or
  /// nullptr (always nullptr with snapshots disabled).
  [[nodiscard]] const Snapshot* active_snapshot() const {
    return snapshots_enabled_ ? SnapshotScope::active_for(this) : nullptr;
  }
  /// One past the largest vertex id with a chain to read under `snap`
  /// (the pinned extent, or the live one); ids at or past it read as the
  /// empty set without touching storage.
  [[nodiscard]] VertexId chain_extent(const Snapshot* snap) const;
  File& ensure_file(int level, std::uint64_t file_index);
  std::uint64_t allocate_subblock(int level);
  void release_subblock(int level, std::uint64_t subblock);

  /// Appends neighbors to one vertex's chain.
  void append(VertexId v, std::span<const VertexId> neighbors);

  /// Walks to the chain tail (under `snap`, as read_subblock does).
  /// When `track` is non-null, every visited (level, subblock) is
  /// recorded (level-0 first).
  std::pair<int, std::uint64_t> find_tail(
      VertexId v, const Snapshot* snap,
      std::vector<std::pair<int, std::uint64_t>>* track);

  void load_meta();
  void save_meta();
  [[nodiscard]] std::vector<std::byte> encode_meta() const;
  void write_meta_file(std::span<const std::byte> bytes);
  void sync_level_files();
  void flush_impl(bool force_commit);
  /// Logs an undo pre-image for (level, block) if this is its first
  /// in-place overwrite of the epoch (no-op for fresh blocks, outside
  /// journal mode, and during flush's post-commit phase).
  void maybe_log_undo(int level, std::uint64_t block);
  /// Replays a pending journal epoch (ctor: both directions; flush
  /// start: committed roll-forward only).
  void recover(bool allow_rollback);
  void clear_fresh();

  /// COW capture: shelves the block's current bytes (via the cache, so
  /// a never-written block captures its all-0xFF "empty" image) as the
  /// open epoch's pre-image, once per (block, epoch).  Runs before every
  /// mutable pin while snapshots are enabled.
  void capture_version(int level, std::uint64_t block, std::uint64_t key);
  /// The sealed mapping's bytes of `block` for a snapshot read (caller
  /// checked the mapping is active), or an empty span to decline.  The
  /// block must have been initialized at map time (frozen bitmap) and
  /// never COW-captured since the map.  The caller decodes straight from
  /// the view and then must recheck captured_since_map(): a first
  /// mutation racing the decode (whose eviction or flush could rewrite
  /// the mapped file bytes) publishes its key there before it mutates,
  /// so a clean recheck proves the decode saw quiescent bytes.
  std::span<const std::byte> mapped_snapshot_block(int level,
                                                   std::uint64_t block,
                                                   std::uint64_t key);
  [[nodiscard]] bool captured_since_map(std::uint64_t key) const;
  /// Commit boundary bookkeeping: advances the epoch and purges
  /// versions no live snapshot can read.
  void commit_epoch();

  /// True when the sealed mapping is live (fast path), otherwise one
  /// map attempt per sealed epoch.
  bool mapped_or_map();
  /// Maps every level file read-only iff the store is sealed: flushed
  /// (no dirty blocks, no open journal group) and no FaultInjector
  /// armed.  One attempt per epoch — a decline counts mmap.fallbacks
  /// and stands until the next full-commit flush re-arms it.
  bool try_map_sealed();
  /// Drops the mapping before a mutation or journal replay touches the
  /// level files.  Callers run exclusively (scheduler contract: writers
  /// never overlap readers), so no live scan holds a view.
  void unmap_sealed();
  /// Re-allows a map attempt after a flush that left the store sealed.
  void rearm_mmap();

  GrDBOptions options_;
  std::filesystem::path dir_;
  IoStats stats_;
  // levels_ (the File handles) and journal_ are declared before cache_
  // so the cache — whose destructor drains the async engine and writes
  // dirty blocks back through those files, capturing undo pre-images
  // into the journal — is destroyed first.
  std::vector<Level> levels_;
  std::unique_ptr<WriteJournal> journal_;
  BlockCache cache_;
  // Relaxed atomics: with snapshots on, reader threads consult these
  // while the (write_mu_-serialized) writer mutates them; cross-thread
  // visibility of the values they guard rides on the EpochManager mutex
  // (pin happens-after advance) rather than on these loads.
  std::atomic<VertexId> max_vertex_{0};
  std::atomic<bool> any_data_{false};
  std::atomic<bool> in_flush_{false};  // post-commit phase: skip undo capture
  std::atomic<bool> dirty_since_flush_{false};

  // Serializes the mutator entry points (store_edges, flush, poke_entry,
  // defragment) against each other; readers never take it.
  std::mutex write_mu_;
  // Leaf mutex over per-level metadata a reader-thread cache callback
  // can mutate (initialized bitmap, sidecar CRCs, fresh set) while the
  // writer reads it outside the cache lock (encode_meta, map freezing).
  // Callbacks already exclude each other via the cache mutex; this only
  // orders them against those non-callback readers.
  mutable std::mutex meta_mu_;
  // Leaf mutex over the per-level files vectors: a reader-thread cache
  // miss may create a file (ensure_file) while flush iterates them.
  std::mutex files_mu_;

  // Snapshot isolation (GraphDBConfig::snapshots).
  bool snapshots_enabled_ = false;
  EpochManager epochs_;
  VersionStore<std::vector<std::byte>> versions_;  // key = level<<48 | block

  // The sealed zero-copy read path (GraphDBConfig::mmap_sealed).
  // mapped_active_ is the lock-free fast-path flag concurrent scan
  // readers check; map_mu_ serializes map/unmap/re-arm.  Without
  // snapshots, mutators run exclusively and unmap first, so no reader
  // holds a view across a transition.  With snapshots the mapping is
  // never unmapped while readers run: read_subblock serves mapped bytes
  // only for blocks frozen at map time (mapped_init_/mapped_crc_ are
  // immutable copies) and never COW-captured since (cow_since_map_), so
  // file rewrites by eviction/flush can only touch blocks the mapped
  // path already declines.
  bool mmap_enabled_ = false;
  bool mmap_retry_ = true;  // one map attempt per sealed epoch (map_mu_)
  std::atomic<bool> mapped_active_{false};
  mutable std::mutex map_mu_;
  std::vector<std::unique_ptr<MappedBlockSource>> mapped_;  // per level
  std::vector<DynamicBitset> mapped_init_;          // frozen at map time
  std::vector<std::vector<std::uint32_t>> mapped_crc_;  // frozen at map time
  mutable std::mutex stale_mu_;
  std::unordered_set<std::uint64_t> cow_since_map_;  // keys captured since map
};

}  // namespace mssg
