// Deterministic I/O accounting.  Every disk-touching layer updates an
// IoStats so experiments can report block/byte counts alongside wall
// time; counts are machine-independent, which makes the paper's "shape"
// claims checkable even when absolute timings differ.
//
// Counters are relaxed atomics: a simulated node owns its stats, but the
// concurrent query engine runs several read-only analyses against one
// node at a time, so increments can race between query threads (and the
// IoEngine completion path).  Relaxed ordering is enough — each field is
// an independent monotonic counter; cross-field snapshots are taken at
// quiescent points (after queries drain / node threads join).
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "common/metrics.hpp"

namespace mssg {

namespace detail {
/// A relaxed-by-default monotonic counter.  Keeps call sites identical to
/// the plain-uint64 days (`++c`, `c += n`, implicit reads) while making
/// cross-thread increments well-defined.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(std::uint64_t v) : value_(v) {}  // NOLINT(google-explicit-constructor)
  RelaxedCounter(const RelaxedCounter& o) : value_(o.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    value_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(std::uint64_t v) {
    value_.store(v, std::memory_order_relaxed);
    return *this;
  }

  operator std::uint64_t() const { return load(); }  // NOLINT
  [[nodiscard]] std::uint64_t load() const {
    return value_.load(std::memory_order_relaxed);
  }

  RelaxedCounter& operator+=(std::uint64_t n) {
    value_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator++() { return *this += 1; }

 private:
  std::atomic<std::uint64_t> value_{0};
};
}  // namespace detail

struct IoStats {
  detail::RelaxedCounter reads;          ///< pread calls
  detail::RelaxedCounter writes;         ///< pwrite calls
  detail::RelaxedCounter bytes_read;
  detail::RelaxedCounter bytes_written;
  detail::RelaxedCounter syncs;
  detail::RelaxedCounter cache_hits;
  detail::RelaxedCounter cache_misses;
  detail::RelaxedCounter cache_evictions;
  detail::RelaxedCounter cache_pins;  ///< block pins (get()/read() calls):
                                      ///< one cache-lock acquisition each
  detail::RelaxedCounter cache_pin_leaks;  ///< blocks still pinned when their
                                           ///< cache was destroyed (leaks)
  detail::RelaxedCounter cache_probation_hits;  ///< 2Q: hits on first-touch
                                                ///< (probation) blocks
  detail::RelaxedCounter cache_protected_hits;  ///< 2Q: hits on re-referenced
                                                ///< (protected) blocks
  detail::RelaxedCounter prefetch_issued;  ///< blocks submitted for async
                                           ///< read-ahead
  detail::RelaxedCounter prefetch_hits;    ///< get() misses avoided by a
                                           ///< prefetch
  detail::RelaxedCounter read_stalls;      ///< get() calls that had to read
                                           ///< the block synchronously
                                           ///< (blocking I/O on the caller's
                                           ///< critical path)
  detail::RelaxedCounter checksum_failures;  ///< pages whose CRC trailer /
                                             ///< sidecar CRC failed
  detail::RelaxedCounter checksum_torn;      ///< the subset attributed to a
                                             ///< torn write (vs bit rot)
  detail::RelaxedCounter journal_records;    ///< undo/redo records appended
  detail::RelaxedCounter journal_replays;    ///< records applied in recovery
  detail::RelaxedCounter journal_group_commits;  ///< redo commit records
                                                 ///< written (each retires a
                                                 ///< whole group of flushes)
  detail::RelaxedCounter journal_deferred_flushes;  ///< flushes whose fsyncs
                                                    ///< were deferred to a
                                                    ///< group-commit boundary
  detail::RelaxedCounter vectored_merges;  ///< adjacent requests fused into
                                           ///< a preadv/pwritev neighbor
                                           ///< (k-request op counts k-1)
  detail::RelaxedCounter engine_dropped_errors;  ///< async I/O errors still
                                                 ///< unpolled when their
                                                 ///< IoEngine was destroyed
  detail::RelaxedCounter mmap_maps;          ///< files mapped read-only for
                                             ///< the sealed zero-copy path
  detail::RelaxedCounter mmap_mapped_bytes;  ///< bytes covered by those maps
  detail::RelaxedCounter mmap_zero_copy_reads;  ///< sub-block reads served
                                                ///< as mapped views (no
                                                ///< cache-frame copy)
  detail::RelaxedCounter mmap_lazy_verifies;  ///< mapped blocks whose sidecar
                                              ///< checksum was paid (once,
                                              ///< on first mapped access)
  detail::RelaxedCounter mmap_fallbacks;  ///< mapped-path declines: unsealed
                                          ///< state at map time, or a
                                          ///< mutation/replay unmapping a
                                          ///< live mapping
  detail::RelaxedCounter txn_snapshot_reads;  ///< reads served from a pinned
                                              ///< epoch (COW version or
                                              ///< frozen extent) instead of
                                              ///< live state
  detail::RelaxedCounter txn_cow_pages;  ///< pre-image versions captured on
                                         ///< the first mutation of a
                                         ///< page/chunk in an epoch

  void reset() { *this = IoStats{}; }

  IoStats& operator+=(const IoStats& other) {
    reads += other.reads;
    writes += other.writes;
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    syncs += other.syncs;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_evictions += other.cache_evictions;
    cache_pins += other.cache_pins;
    cache_pin_leaks += other.cache_pin_leaks;
    cache_probation_hits += other.cache_probation_hits;
    cache_protected_hits += other.cache_protected_hits;
    prefetch_issued += other.prefetch_issued;
    prefetch_hits += other.prefetch_hits;
    read_stalls += other.read_stalls;
    checksum_failures += other.checksum_failures;
    checksum_torn += other.checksum_torn;
    journal_records += other.journal_records;
    journal_replays += other.journal_replays;
    journal_group_commits += other.journal_group_commits;
    journal_deferred_flushes += other.journal_deferred_flushes;
    vectored_merges += other.vectored_merges;
    engine_dropped_errors += other.engine_dropped_errors;
    mmap_maps += other.mmap_maps;
    mmap_mapped_bytes += other.mmap_mapped_bytes;
    mmap_zero_copy_reads += other.mmap_zero_copy_reads;
    mmap_lazy_verifies += other.mmap_lazy_verifies;
    mmap_fallbacks += other.mmap_fallbacks;
    txn_snapshot_reads += other.txn_snapshot_reads;
    txn_cow_pages += other.txn_cow_pages;
    return *this;
  }

  friend IoStats operator+(IoStats a, const IoStats& b) { return a += b; }

  friend std::ostream& operator<<(std::ostream& os, const IoStats& s) {
    return os << "reads=" << s.reads << " writes=" << s.writes
              << " bytes_read=" << s.bytes_read
              << " bytes_written=" << s.bytes_written
              << " hits=" << s.cache_hits << " misses=" << s.cache_misses
              << " evictions=" << s.cache_evictions;
  }
};

/// Adds an IoStats block to a snapshot under "<prefix>.<field>" counters.
inline void publish_io(const IoStats& s, MetricsSnapshot& snap,
                       std::string_view prefix = "io") {
  const std::string p(prefix);
  snap.add(p + ".reads", s.reads);
  snap.add(p + ".writes", s.writes);
  snap.add(p + ".bytes_read", s.bytes_read);
  snap.add(p + ".bytes_written", s.bytes_written);
  snap.add(p + ".syncs", s.syncs);
  snap.add(p + ".cache_hits", s.cache_hits);
  snap.add(p + ".cache_misses", s.cache_misses);
  snap.add(p + ".cache_evictions", s.cache_evictions);
  snap.add(p + ".cache_pins", s.cache_pins);
  snap.add(p + ".cache_pin_leaks", s.cache_pin_leaks);
  snap.add(p + ".prefetch_issued", s.prefetch_issued);
  snap.add(p + ".prefetch_hits", s.prefetch_hits);
  snap.add(p + ".read_stalls", s.read_stalls);
  snap.add(p + ".vectored_merges", s.vectored_merges);
  snap.add(p + ".engine.dropped_errors", s.engine_dropped_errors);
  // Durability counters live under a fixed "storage." prefix — their
  // names are part of the observability contract (DESIGN.md "Durability
  // & recovery") regardless of which io.* namespace a node publishes to.
  snap.add("storage.checksum_failures", s.checksum_failures);
  snap.add("storage.checksum_torn", s.checksum_torn);
  snap.add("storage.journal_records", s.journal_records);
  snap.add("storage.journal_replays", s.journal_replays);
  // Group-commit counters share the journal's fixed namespace.
  snap.add("journal.group_commits", s.journal_group_commits);
  snap.add("journal.deferred_flushes", s.journal_deferred_flushes);
  // 2Q attribution counters likewise keep fixed names (DESIGN.md
  // "Concurrent queries & the 2Q shared cache").
  snap.add("cache.qprobation_hits", s.cache_probation_hits);
  snap.add("cache.qprotected_hits", s.cache_protected_hits);
  // The sealed zero-copy read path (DESIGN.md "Sealed scans: the
  // zero-copy mmap read path") also publishes under a fixed namespace.
  snap.add("mmap.maps", s.mmap_maps);
  snap.add("mmap.mapped_bytes", s.mmap_mapped_bytes);
  snap.add("mmap.zero_copy_reads", s.mmap_zero_copy_reads);
  snap.add("mmap.lazy_verifies", s.mmap_lazy_verifies);
  snap.add("mmap.fallbacks", s.mmap_fallbacks);
  // Snapshot-isolation counters (DESIGN.md "Snapshot isolation") keep a
  // fixed "txn." namespace; backends publish txn.epochs_live alongside
  // from their EpochManager in publish_metrics.
  snap.add("txn.snapshot_reads", s.txn_snapshot_reads);
  snap.add("txn.cow_pages", s.txn_cow_pages);
}

}  // namespace mssg
