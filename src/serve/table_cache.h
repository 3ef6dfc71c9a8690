// Cross-job warm state of the discovery server.
//
// Clients of a resident server tend to re-profile the same table (new
// epsilon, new arity bound, a cleaning iteration), and the cold half of
// a small-table run is dominated by work that depends only on the table:
// decoding the submitted kTableBlock and sorting every column into its
// single-attribute base partition. This cache interns tables by a
// content digest so that state is built once and shared — a job on a
// known table starts with warm base partitions through
// DiscoveryOptions::warm_base_partitions, and a connection that uploaded
// the table may name it by digest, skipping the upload and the decode
// (server.h, "table references").
//
// Sharing is safe because everything cached is immutable after
// construction: jobs read the EncodedTable concurrently (the driver
// never mutates it) and receive *copies* of the base partitions (the
// driver's cache mutates its own copy's bookkeeping). Warm starts
// cannot change discovery output: FromColumn is deterministic, so the
// cached bases are bit-identical to what the job would have built — the
// determinism contract is preserved by construction (and pinned by
// serve_fault_test's server-vs-direct equality).
#ifndef AOD_SERVE_TABLE_CACHE_H_
#define AOD_SERVE_TABLE_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/word_hash.h"
#include "data/encoder.h"
#include "partition/stripped_partition.h"

namespace aod {
namespace serve {

/// 128-bit word-wise digest (common/word_hash.h) of the table's
/// structural content: row count, column count, and every column's name,
/// cardinality and rank array. Dictionaries are excluded on purpose —
/// discovery is pure rank arithmetic, and tables submitted through
/// kTableBlock arrive without dictionaries anyway. Rank words are read
/// in host byte order, so a client and server of different endianness
/// never match digests; a reference then only falls back to an upload.
Digest128 TableDigest(const EncodedTable& table);

class TableCache {
 public:
  struct Entry {
    /// TableDigest(*table), computed by the cache from the content.
    Digest128 digest;
    std::shared_ptr<const EncodedTable> table;
    /// Base partition per attribute, canonical (FromColumn) form.
    std::vector<std::shared_ptr<const StrippedPartition>> bases;
  };

  /// `capacity` bounds the number of resident tables; the least recently
  /// interned/hit entry is evicted beyond it (jobs still running on an
  /// evicted entry keep it alive through their shared_ptr).
  explicit TableCache(size_t capacity = 8) : capacity_(capacity) {}
  AOD_DISALLOW_COPY_AND_ASSIGN(TableCache);

  /// Returns the resident entry for a table with identical content, or
  /// builds (and caches) one from `table`. A digest hit is verified
  /// against the actual rank content before reuse — a collision must
  /// degrade to a duplicate entry, never to running a job against the
  /// wrong table.
  std::shared_ptr<const Entry> Intern(EncodedTable table);

  /// Reuses an entry the caller already holds (a resolved table
  /// reference): if it is still resident, counts a hit, refreshes its
  /// LRU position and returns true. An evicted entry returns false and
  /// counts nothing, so references never outlive the cache's bound.
  bool Reuse(const Entry& entry);

  size_t size() const;
  int64_t hits() const;
  int64_t misses() const;

  /// Test seam: invoked (outside the lock) between the missed fast-path
  /// lookup and the re-check under the second lock — the window a racing
  /// Intern of the same table can win. Lets a single-threaded test drive
  /// the race-loss hit path deterministically (the hook interns the same
  /// table, so the re-check finds it). Set before any concurrent use;
  /// never fires for the hook's own (nested) call.
  void set_race_window_hook_for_test(std::function<void()> hook);

 private:
  static bool SameContent(const EncodedTable& a, const EncodedTable& b);
  /// Moves `entry` to the LRU front; false if it is not resident.
  /// Caller holds mutex_.
  bool TouchLocked(const Entry* entry);

  const size_t capacity_;
  mutable std::mutex mutex_;
  /// Digest -> entries (a bucket holds >1 only after a collision).
  std::unordered_map<Digest128, std::vector<std::shared_ptr<const Entry>>,
                     Digest128Hash>
      entries_;
  /// LRU order of resident entries for eviction.
  std::list<const Entry*> lru_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  std::function<void()> race_window_hook_;
  bool in_race_window_hook_ = false;
};

}  // namespace serve
}  // namespace aod

#endif  // AOD_SERVE_TABLE_CACHE_H_
