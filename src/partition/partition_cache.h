// Memoizing provider of stripped partitions keyed by attribute set.
//
// The discovery framework asks for Π_X for many overlapping contexts X.
// The cache materializes level-1 partitions once, derives larger ones via
// stripped products of cached subsets, and evicts derived partitions
// against a byte budget, re-deriving on demand.
//
// Derivation is *planned*. Because every partition value is in canonical
// normal form (see StrippedPartition), Π_X has the same bytes no matter
// which subset chain produced it, so the cache is free to pick the
// cheapest one: PlanDerivation chooses, among the subsets published to
// its cost catalog, the base partition minimizing the estimated product
// cost (rows_covered as the proxy — one product reads the base's covered
// rows twice and never the single-attribute side), then extends it with
// the remaining attributes in ascending order — a loop, not a recursion,
// so deep attribute sets cannot grow the stack.
//
// Products probe rank columns. Every cache holds the full EncodedTable,
// and a product with the single attribute {a} buckets the base's rows by
// table->ranks(a) (StrippedPartition::ProductWithColumn) instead of
// reading Π_{a}. That is sound only while each resident Π_{a} is exactly
// FromColumn(table->column(a)) — preloaded ones included (row-shard
// stitched bases, warm bases, wire-decoded blocks); Preload checks it in
// debug builds. The catalog
// is updated only at deterministic points (the driver publishes the
// contexts it derived for a level once the level is validated, a shard
// runner its batch contexts between batches), so plans — and therefore
// the product counter — are identical for any thread count.
//
// Concurrency. Get() is safe to call from any number of threads — the
// driver materializes partitions on the thread pool. The key space is
// striped over independently locked shards, and each key is computed
// exactly once: the first requester installs a shared_future and computes
// outside the shard lock, later requesters copy the future under the lock
// and wait on it after releasing the lock (never wait while holding one: the
// computing thread may need another key of the same stripe). Catalog
// mutation (PublishCost, eviction) must not run concurrently with
// planner-consulting Gets; the driver calls both only between phases, a
// shard runner only between batches.
// Eviction additionally requires all futures resolved.
#ifndef AOD_PARTITION_PARTITION_CACHE_H_
#define AOD_PARTITION_PARTITION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/encoder.h"
#include "partition/attribute_set.h"
#include "partition/stripped_partition.h"

namespace aod {

/// A derivation recipe for one requested partition: start from the cached
/// Π_base and product with the single attributes of `singles` in
/// ascending order. Produced by PartitionCache::PlanDerivation; the
/// driver plans a level's missing contexts on its own thread (against the
/// catalog as the level below left it) and hands the plans to the
/// workers of its derive step.
struct DerivationPlan {
  AttributeSet base;
  std::vector<int> singles;
  /// Estimated cost in scanned rows: 2 * |singles| * cost(base). Each
  /// product reads its base's covered rows twice, and a product never
  /// grows them, so the realized cost recorded in stats never exceeds it.
  int64_t estimated_cost = 0;
};

class PartitionCache {
 public:
  /// Tag selecting wire-seeded construction: see the deferring ctor.
  struct DeferBasePartitions {};

  explicit PartitionCache(const EncodedTable* table);

  /// Constructs a cache whose single-attribute partitions are NOT built
  /// from the table: only Π_∅ is preloaded, and every Π_{a} must arrive
  /// via Preload (e.g. decoded off the shard wire) before the first Get
  /// that needs it. This is what makes shipped base partitions
  /// load-bearing for a shard runner instead of redundant recomputation.
  PartitionCache(const EncodedTable* table, DeferBasePartitions);

  /// Installs an externally produced partition (wire-decoded, typically)
  /// as the resident value for `set`, replacing any existing entry. The
  /// value must be in canonical normal form — every consumer relies on
  /// the canonical-value contract (the wire decoder enforces this). A
  /// single-attribute value must equal FromColumn of the table's column,
  /// since products probe the column in its place (AOD_DCHECK); such
  /// installs also seed the planner catalog. Must not run concurrently
  /// with Get.
  void Preload(AttributeSet set, StrippedPartition partition);

  /// Returns Π_X, computing and memoizing it if absent. Thread-safe;
  /// concurrent requests for the same key compute it once and share the
  /// result. A miss derives via PlanDerivation.
  std::shared_ptr<const StrippedPartition> Get(AttributeSet set);

  /// Get with a precomputed derivation plan, used by the driver's derive
  /// step: on a miss `plan` is executed as-is instead of consulting the
  /// catalog, so every plan of one step sees the same catalog. A null
  /// plan falls back to Get().
  std::shared_ptr<const StrippedPartition> Get(AttributeSet set,
                                               const DerivationPlan* plan);

  /// True if Π_X is currently materialized (a key mid-computation by
  /// another thread does not count yet). Thread-safe.
  bool Contains(AttributeSet set) const;

  /// Chooses the cheapest derivation of Π_X from the cost catalog:
  /// minimize estimated cost, tie-broken by larger base (fewer products)
  /// then smaller bit pattern — a pure function of (X, catalog), so plans
  /// are deterministic. The single-attribute partitions are always
  /// catalogued; the returned base is resident by the catalog invariant.
  DerivationPlan PlanDerivation(AttributeSet set) const;

  /// Publishes Π_X's realized cost (rows_covered) to the planner catalog,
  /// materializing Π_X first if needed. The driver calls this for each
  /// context it derived, once the level is validated, a shard runner for
  /// each resident context of a finished batch — the only points catalog
  /// contents change outside eviction, which keeps plans deterministic.
  void PublishCost(AttributeSet set);

  /// Evicts derived partitions (set size >= 2) until bytes_resident()
  /// fits `budget_bytes`, coldest first in deterministic (level
  /// ascending, bytes descending, bit pattern ascending) order — during
  /// the level-wise traversal, partitions below the two most recent
  /// levels are never needed as contexts again, so ascending level order
  /// reaches still-live levels only under budgets tight enough that
  /// re-deriving them on demand is the intended trade. Level-0/1 partitions are never evicted
  /// (they are the O(n·k) base data everything else derives from), so the
  /// floor is the base footprint. Evicted keys leave the catalog; a later
  /// Get re-derives through the planner. budget_bytes <= 0 means
  /// unlimited (no-op). Must not run concurrently with Get. Returns the
  /// exact number of bytes released.
  int64_t EnforceBudget(int64_t budget_bytes);

  /// Exact bytes held by all materialized partitions (CSR payload +
  /// object headers, per StrippedPartition::bytes()). Entries still being
  /// computed by another thread are counted once they resolve. Feeds the
  /// driver's memory stats and eviction decisions.
  int64_t bytes_resident() const {
    return bytes_resident_.load(std::memory_order_relaxed);
  }

  /// Number of stripped products performed (for DiscoveryStats). Plans
  /// and the per-key memoization are deterministic, so the counter is
  /// identical for any thread count — but a planned derivation may take
  /// several products for one key (base + each remaining single).
  int64_t products_computed() const {
    return products_computed_.load(std::memory_order_relaxed);
  }
  /// Keys derived, one executed plan each.
  int64_t planner_derivations() const {
    return planner_derivations_.load(std::memory_order_relaxed);
  }
  /// Summed estimated cost of executed plans, in scanned rows.
  int64_t planner_cost_estimated() const {
    return planner_cost_estimated_.load(std::memory_order_relaxed);
  }
  /// Summed realized cost of executed plans (actual rows scanned by their
  /// products), comparable against planner_cost_estimated().
  int64_t planner_cost_realized() const {
    return planner_cost_realized_.load(std::memory_order_relaxed);
  }
  /// Partitions dropped by EnforceBudget.
  int64_t partitions_evicted() const {
    return partitions_evicted_.load(std::memory_order_relaxed);
  }
  /// Number of partitions currently materialized.
  int64_t cached_count() const;

  /// The lock stripe `set` lives in; two keys with the same stripe share
  /// one map mutex.
  static size_t StripeOf(AttributeSet set) {
    return AttributeSetHash{}(set) % kShardCount;
  }

  /// Test seam: observes Get on entry (before any cache lock) and just
  /// before it blocks on a key another thread is still computing. Set it
  /// before any concurrent Get; empty (the default) costs one branch.
  enum class GetEvent { kEnter, kWaitPending };
  void set_get_hook_for_testing(
      std::function<void(GetEvent, AttributeSet)> hook) {
    get_hook_ = std::move(hook);
  }

 private:
  using PartitionPtr = std::shared_ptr<const StrippedPartition>;
  using PartitionFuture = std::shared_future<PartitionPtr>;

  /// Keys are spread over independently locked shards; striping keeps
  /// same-level materializations (distinct keys) from serializing on one
  /// map lock while same-key requests still rendezvous.
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<AttributeSet, PartitionFuture, AttributeSetHash> map;
  };
  static constexpr size_t kShardCount = 16;

  Shard& ShardFor(AttributeSet set) { return shards_[StripeOf(set)]; }
  const Shard& ShardFor(AttributeSet set) const {
    return shards_[StripeOf(set)];
  }

  /// Installs an already-resolved entry (constructor preloads).
  void PutReady(AttributeSet set, PartitionPtr value);

  /// Executes `plan` for `set`: product the base with each remaining
  /// attribute's rank column, counting estimated vs realized cost.
  PartitionPtr ExecutePlan(AttributeSet set, const DerivationPlan& plan);

  /// Scratch buffers are pooled: a computing thread borrows one for the
  /// duration of a derivation, so steady-state materialization allocates
  /// no work arrays regardless of worker count.
  std::unique_ptr<PartitionScratch> AcquireScratch();
  void ReleaseScratch(std::unique_ptr<PartitionScratch> scratch);

  const EncodedTable* table_;
  Shard shards_[kShardCount];
  std::function<void(GetEvent, AttributeSet)> get_hook_;
  std::atomic<int64_t> products_computed_{0};
  std::atomic<int64_t> planner_derivations_{0};
  std::atomic<int64_t> planner_cost_estimated_{0};
  std::atomic<int64_t> planner_cost_realized_{0};
  std::atomic<int64_t> partitions_evicted_{0};
  /// Sum of bytes() over resolved entries; incremented when a value is
  /// installed, decremented on eviction (eviction runs between phases,
  /// when every future is resolved).
  std::atomic<int64_t> bytes_resident_{0};

  /// Planner cost catalog: resident keys the planner may pick as a
  /// derivation base, with their rows_covered cost. Seeded with the
  /// single-attribute partitions; grown only through PublishCost and
  /// shrunk only by eviction, both driver-called between phases.
  mutable std::mutex catalog_mutex_;
  std::unordered_map<AttributeSet, int64_t, AttributeSetHash> catalog_;

  std::mutex scratch_mutex_;
  std::vector<std::unique_ptr<PartitionScratch>> free_scratch_;
};

}  // namespace aod

#endif  // AOD_PARTITION_PARTITION_CACHE_H_
