// Scan-resistant block cache — the thesis' "block cache component" of
// grDB, also reused as the page cache of the KVStore (BerkeleyDB
// stand-in).
//
// The cache sits above one or more *stores* (registered read/write
// callbacks with a fixed block size).  Callers pin blocks through
// BlockHandle; pinned blocks are never evicted.  Dirty blocks are
// written back on eviction and on flush().  A capacity of zero gives the
// "cache disabled" configuration of Figure 5.2: every access misses and
// every dirty unpin writes through.  Read-only callers that need a
// block's bytes only for the length of one call use read() instead of
// a handle: it visits the cached frame in place, pinning and releasing
// it under a single acquisition of the cache mutex.
//
// Replacement is 2Q-style (a simplified ARC/SLRU): a block enters the
// *probation* list on first touch and is promoted to the *protected*
// list only when re-referenced.  Eviction drains probation first, so a
// one-pass scan — a full-graph analysis walking every adjacency chunk
// once — churns through probation without displacing another query's
// re-referenced working set.  The protected list is capped at 3/4 of
// capacity; overflow demotes its LRU tail back to probation, where a
// further cold spell evicts it.  Both lists are intrusive (prev/next
// links inside each entry), so pinning and releasing a resident block
// allocates nothing.
//
// Thread-safe: the concurrent query engine runs several read-only
// analyses against one node's cache at a time.  One internal mutex
// serializes every public operation *including the store callbacks*
// (reader/writer/locator/seal/verify), which is what makes the stores'
// internal metadata (grDB level tables, pager free lists) safe under
// concurrent readers without their own locking.  Handles follow the
// usual rule: a pinned block's bytes may be read by the pinning thread
// freely; mutating handles must not be shared across threads.
//
// Per-query attribution: a query thread installs a CacheAttributionScope
// naming its CacheAttribution; every get() or read() on that thread then
// also counts a query-scoped hit or miss (summed into the attribution
// when the scope closes), giving the scheduler per-query hit ratios over
// the *shared* cache.
//
// enable_async_io() attaches a background IoEngine without weakening the
// locking rule — the owning thread resolves each block to a
// (File*, offset) via the store's Locator at submit time, so the worker
// thread only ever performs positional I/O on shared fds:
//
//  - prefetch_async() submits a sorted read batch for blocks the caller
//    will need soon; get() adopts finished buffers (or waits for the
//    in-flight one) instead of re-reading, and never reads a block twice;
//  - eviction hands dirty victims to the engine as write-behind requests,
//    keeping the disk write off the caller's critical path; a get() of a
//    block whose write is still in flight drains first, so readers can
//    never observe stale bytes.
//
// flush() and the destructor drain the engine, so the durability
// contract ("flush persists everything") is unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "storage/io_engine.hpp"
#include "storage/io_stats.hpp"

namespace mssg {

class BlockCache;

namespace detail {
struct CacheEntry {
  std::uint64_t key = 0;          // (store << 48) | block
  std::vector<std::byte> data;
  std::size_t usable = 0;  // bytes exposed through handles (0 = all);
                           // the tail holds the store's checksum trailer
  bool dirty = false;
  int pins = 0;
  // 2Q list links, valid iff resident (front = most recently used).
  CacheEntry* prev = nullptr;
  CacheEntry* next = nullptr;
  bool resident = false;
  bool in_protected = false;  // which 2Q list the links belong to
  bool hot = false;   // re-referenced: joins the protected list when it
                      // next becomes resident
  bool orphaned = false;  // cache destroyed while still pinned; the
                          // surviving handle owns (and frees) the entry
  bool prefetched = false;  // loaded by async read-ahead and not yet
                            // claimed by a get() (prefetch-hit marker)

  [[nodiscard]] std::size_t usable_size() const {
    return usable == 0 ? data.size() : usable;
  }
};

/// One 2Q list, threaded through CacheEntry::prev/next.
class LruList {
 public:
  [[nodiscard]] bool empty() const { return head_ == nullptr; }
  [[nodiscard]] CacheEntry* back() const { return tail_; }

  void push_front(CacheEntry& entry) {
    entry.prev = nullptr;
    entry.next = head_;
    (head_ != nullptr ? head_->prev : tail_) = &entry;
    head_ = &entry;
  }

  void erase(CacheEntry& entry) {
    (entry.prev != nullptr ? entry.prev->next : head_) = entry.next;
    (entry.next != nullptr ? entry.next->prev : tail_) = entry.prev;
    entry.prev = nullptr;
    entry.next = nullptr;
  }

 private:
  CacheEntry* head_ = nullptr;
  CacheEntry* tail_ = nullptr;
};
}  // namespace detail

/// Pins a cached block for the lifetime of the handle.  Writable access
/// marks the block dirty.
class BlockHandle {
 public:
  BlockHandle() = default;
  BlockHandle(const BlockHandle&) = delete;
  BlockHandle& operator=(const BlockHandle&) = delete;
  BlockHandle(BlockHandle&& other) noexcept;
  BlockHandle& operator=(BlockHandle&& other) noexcept;
  ~BlockHandle();

  [[nodiscard]] bool valid() const { return entry_ != nullptr; }

  /// Read-only view of the block contents (the store's usable prefix —
  /// a checksum trailer, when the store has one, stays hidden).
  [[nodiscard]] std::span<const std::byte> data() const {
    MSSG_CHECK(valid());
    return std::span<const std::byte>(entry_->data).first(entry_->usable_size());
  }

  /// Mutable view; marks the block dirty.  Mutating handles are
  /// single-thread only (concurrent queries are read-only).
  [[nodiscard]] std::span<std::byte> mutable_data() {
    MSSG_CHECK(valid());
    entry_->dirty = true;
    return std::span<std::byte>(entry_->data).first(entry_->usable_size());
  }

 private:
  friend class BlockCache;
  BlockHandle(BlockCache* cache, detail::CacheEntry* entry)
      : cache_(cache), entry_(entry) {}

  void release();

  BlockCache* cache_ = nullptr;
  detail::CacheEntry* entry_ = nullptr;
};

/// Where a block lives on disk, for direct positional I/O by the engine
/// worker.  The File must stay open until the cache is flushed/destroyed.
struct AsyncTarget {
  const File* file = nullptr;
  std::uint64_t offset = 0;
};

/// Per-query cache counters.  One instance is shared by all of a query's
/// rank threads (the counters are atomic), installed per thread with a
/// CacheAttributionScope.  Read it after the scopes that feed it close.
struct CacheAttribution {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};

  [[nodiscard]] double hit_ratio() const {
    const std::uint64_t h = hits.load(std::memory_order_relaxed);
    const std::uint64_t m = misses.load(std::memory_order_relaxed);
    return h + m == 0 ? 0.0 : static_cast<double>(h) / static_cast<double>(h + m);
  }
};

/// RAII: routes this thread's cache hits/misses to `attribution` (may be
/// nullptr to suspend attribution).  Nests; restores the previous scope.
/// The scope counts in plain fields only its own thread touches and adds
/// them to the shared atomics once, when it closes, so a query's rank
/// threads never contend on one cache line per pin.
class CacheAttributionScope {
 public:
  explicit CacheAttributionScope(CacheAttribution* attribution);
  CacheAttributionScope(const CacheAttributionScope&) = delete;
  CacheAttributionScope& operator=(const CacheAttributionScope&) = delete;
  ~CacheAttributionScope();

  void count(bool hit) {
    if (attribution_ != nullptr) ++(hit ? hits_ : misses_);
  }

 private:
  CacheAttribution* attribution_;
  CacheAttributionScope* prev_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

class BlockCache {
 public:
  using Reader = std::function<void(std::uint64_t block, std::span<std::byte>)>;
  using Writer =
      std::function<void(std::uint64_t block, std::span<const std::byte>)>;
  /// Resolves a block to its on-disk location — called on the OWNING
  /// thread at submit time, so it may freely mutate store metadata
  /// (create/extend files, set allocation bitmaps).  Returning nullopt
  /// means the block cannot be handled asynchronously (e.g. a grDB block
  /// that was never written reads as 0xFF without touching disk); such
  /// blocks fall back to the synchronous Reader/Writer.
  using Locator = std::function<std::optional<AsyncTarget>(
      std::uint64_t block, bool for_write)>;

  /// `capacity_bytes` bounds the total size of unpinned resident blocks;
  /// zero disables caching (write-through / read-through).
  explicit BlockCache(std::size_t capacity_bytes, IoStats* stats = nullptr)
      : capacity_bytes_(capacity_bytes), stats_(stats) {}

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Writes back all dirty blocks (draining the I/O engine first).
  /// Entries still pinned here indicate a leaked BlockHandle: each is
  /// logged, counted in `IoStats::cache_pin_leaks` (debug builds
  /// additionally assert), and handed over to its handle, which frees it
  /// on release — so a leaked handle is detected loudly instead of
  /// silently masked.
  ~BlockCache();

  /// Registers a backing store.  Returns the store id used in get().
  /// `locator` is optional; stores without one never use the async path.
  std::uint16_t register_store(std::size_t block_size, Reader reader,
                               Writer writer, Locator locator = nullptr);

  /// Simulated device latency per synchronous miss (microseconds,
  /// 0 = off) — see GraphDBConfig::sim_miss_penalty_us.  Slept with the
  /// internal mutex RELEASED, so concurrent queries overlap their
  /// stalls.  Set before concurrent use (not synchronized).
  void set_miss_penalty_us(std::uint32_t us) { miss_penalty_us_ = us; }

  /// Optional per-store integrity hooks.  `seal` runs on the full
  /// physical block right before any disk write (sync write-back and
  /// async write-behind alike); `verify` runs right after any disk read
  /// — it may throw, or repair the block in place (self-healing stores
  /// like the visited structure reset a corrupt page instead of dying).
  /// `usable_bytes` (0 = whole block) caps what BlockHandle exposes, so
  /// a trailing checksum region never leaks into store payloads.
  struct StoreHooks {
    std::function<void(std::uint64_t block, std::span<std::byte>)> seal;
    std::function<void(std::uint64_t block, std::span<std::byte>)> verify;
    std::size_t usable_bytes = 0;
    /// Durability barrier for write-behind: called once per eviction
    /// batch, after the store's Locators resolved every victim (and
    /// captured their undo pre-images) but BEFORE the payloads reach the
    /// engine.  Journaled stores fdatasync their undo log here, so a
    /// whole batch amortizes one sync instead of paying one per block.
    std::function<void()> write_barrier;
  };

  void set_store_hooks(std::uint16_t store, StoreHooks hooks);

  /// Starts the background I/O engine with `workers` lanes (idempotent;
  /// the first call wins).  No-op when the cache is disabled (capacity
  /// 0): with nothing retained between unpins there is nothing to
  /// prefetch into or write behind from.
  void enable_async_io(std::size_t workers = 1);

  [[nodiscard]] bool async_enabled() const { return engine_ != nullptr; }

  /// Submits one sorted read batch for every listed block not already
  /// cached or in flight.  Returns the number of requests issued.
  /// Requires async I/O enabled and a Locator on the store.
  std::size_t prefetch_async(std::uint16_t store,
                             std::span<const std::uint64_t> blocks);

  /// Adopts finished async requests into the cache (non-blocking).
  /// Called automatically by get()/flush(); exposed for overlap loops
  /// that want to fold in completions while waiting on something else.
  void poll_async();

  /// Fetches a block, loading it from the store on a miss.
  BlockHandle get(std::uint16_t store, std::uint64_t block);

  /// Calls `fn(std::span<const std::byte>)` on the block's usable bytes
  /// where they sit in the cache frame — no copy, no handle.  Exactly
  /// get() followed by the handle's release (same hit/miss, 2Q,
  /// attribution, prefetch-adoption and eviction transitions), but under
  /// one acquisition of the cache mutex.  `fn` runs with that mutex held:
  /// it must be short and must not call back into this cache.  (A
  /// simulated miss penalty still sleeps with the mutex released.)
  template <typename Fn>
  void read(std::uint16_t store, std::uint64_t block, Fn&& fn) {
    std::unique_lock<std::mutex> lock(mu_);
    detail::CacheEntry& entry = pin_locked(lock, store, block);
    struct Release {
      BlockCache* cache;
      detail::CacheEntry* entry;
      ~Release() { cache->unpin_locked(*entry); }
    } release{this, &entry};
    std::forward<Fn>(fn)(
        std::span<const std::byte>(entry.data).first(entry.usable_size()));
  }

  /// Like get(), but for a block the caller is about to fully
  /// initialize: the entry is zero-filled and marked dirty WITHOUT
  /// consulting the store's reader.  Fresh-extent pages must come
  /// through here — reading them could surface a previous crash's torn
  /// garbage (or trip `verify`) for bytes nobody ever committed.
  BlockHandle create(std::uint16_t store, std::uint64_t block);

  /// Visits every dirty resident block in ascending key order with its
  /// FULL physical span (trailer included) — what a journal records as
  /// redo images.  Call drain_pending() first if async write-behind may
  /// be in flight (in-flight payloads are not resident).
  void for_each_dirty(
      const std::function<void(std::uint16_t store, std::uint64_t block,
                               std::span<std::byte> data)>& fn);

  /// Drains the async engine (if any) and rethrows the first deferred
  /// write-behind error as StorageError.
  void drain_pending();

  /// Writes back all dirty blocks (keeps them resident).
  void flush();

  /// Writes back and drops every unpinned block.
  void drop_clean();

  /// Current pin count of a block (0 when not cached) — lets stores
  /// refuse operations on in-use blocks (e.g. Pager::free_page).
  [[nodiscard]] int pin_count(std::uint16_t store, std::uint64_t block) const;

  /// Drains the engine and snapshots its internal metrics
  /// (span.io.engine.batch, io.engine.queue_depth, ...) without
  /// resetting them.  Empty snapshot when async I/O is off.
  [[nodiscard]] MetricsSnapshot async_metrics() const;

  [[nodiscard]] std::size_t resident_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return resident_bytes_;
  }
  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_bytes_; }
  /// Bytes currently on the protected (re-referenced) list.
  [[nodiscard]] std::size_t protected_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return protected_bytes_;
  }

 private:
  friend class BlockHandle;

  struct Store {
    std::size_t block_size = 0;
    Reader reader;
    Writer writer;
    Locator locator;
    StoreHooks hooks;
  };

  static constexpr int kStoreShift = 48;

  /// get()'s body: looks the block up (adopting or waiting for an
  /// in-flight prefetch, loading it on a miss) and pins it.  Returns
  /// with `lock` held.
  detail::CacheEntry& pin_locked(std::unique_lock<std::mutex>& lock,
                                 std::uint16_t store, std::uint64_t block);
  void unpin(detail::CacheEntry* entry);
  /// Drops one pin; the last one makes the entry resident again (or, with
  /// caching disabled, writes it through and frees it) and evicts down
  /// to capacity.  Store errors are parked, never thrown.
  void unpin_locked(detail::CacheEntry& entry);
  void write_back(detail::CacheEntry& entry);
  void evict_to_capacity();
  /// Blocks until no async request is queued, running, or unadopted.
  void drain_async();
  void poll_async_locked();
  /// Inserts an adopted/unpinned entry at the front of its 2Q list
  /// (protected when re-referenced, probation otherwise).
  void make_resident(detail::CacheEntry& entry);
  /// Removes a resident entry from its 2Q list.
  void unlink(detail::CacheEntry& entry);
  /// Demotes the protected tail to probation until protected fits its
  /// share of capacity.
  void rebalance_protected();
  /// Throws StorageError if an async write-behind failed earlier.
  void maybe_rethrow();
  void flush_locked();
  [[nodiscard]] std::size_t usable_of(std::uint16_t store) const {
    const Store& s = stores_[store];
    return s.hooks.usable_bytes != 0 ? s.hooks.usable_bytes : s.block_size;
  }
  [[nodiscard]] std::size_t protected_capacity() const {
    return capacity_bytes_ - capacity_bytes_ / 4;  // 3/4 of capacity
  }

  std::size_t capacity_bytes_;
  IoStats* stats_;
  std::uint32_t miss_penalty_us_ = 0;
  mutable std::mutex mu_;
  std::vector<Store> stores_;
  std::unordered_map<std::uint64_t, std::unique_ptr<detail::CacheEntry>> map_;
  // 2Q lists, front = most recently used.  An unpinned resident entry
  // lives on exactly one of them (entry.in_protected says which).
  detail::LruList probation_;
  detail::LruList protected_;
  std::size_t resident_bytes_ = 0;
  std::size_t probation_bytes_ = 0;
  std::size_t protected_bytes_ = 0;
  std::unique_ptr<IoEngine> engine_;
  std::unordered_set<std::uint64_t> pending_reads_;
  // key -> in-flight write-behind count (re-eviction can stack writes).
  std::unordered_map<std::uint64_t, std::uint32_t> pending_writes_;
  // First error from an async write-behind (the worker cannot throw into
  // this thread) or from a write during handle release (a destructor
  // cannot throw at all); rethrown by get()/flush()/drain_pending().
  std::string deferred_error_;
};

}  // namespace mssg
