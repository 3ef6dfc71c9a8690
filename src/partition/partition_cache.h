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
// debug builds. The catalog changes only when a derive step installs its
// results and when eviction drops keys, so plans — and therefore the
// product counter — are identical for any thread count.
//
// Concurrency. Derive is the only way a partition of size >= 2 is built.
// It runs on one calling thread: it plans every missing key serially
// against the catalog as it stands, fans the products out over the pool
// into one slot per key, and installs the results and publishes their
// costs after the join. Workers, there and while the driver or a shard
// runner validates, only read: Find and Contains are const lookups that
// take no lock, so no key is ever pending and nothing waits. Every
// mutating call (Derive, Get, Preload, EnforceBudget) must not run
// concurrently with any other call. The one lock guards the pooled
// product scratch buffers the derive step's workers borrow.
#ifndef AOD_PARTITION_PARTITION_CACHE_H_
#define AOD_PARTITION_PARTITION_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/encoder.h"
#include "exec/parallel_for.h"
#include "partition/attribute_set.h"
#include "partition/stripped_partition.h"

namespace aod {

/// A derivation recipe for one requested partition: start from the cached
/// Π_base and product with the single attributes of `singles` in
/// ascending order. Produced by PartitionCache::PlanDerivation; Derive
/// plans every key of a step on its calling thread and hands the plans
/// to its workers.
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

  /// What one Derive call installed.
  struct DeriveReport {
    /// Keys derived and installed.
    int64_t keys = 0;
    /// Summed wall time of their derivations, in nanoseconds — the CPU
    /// the step spent in products, whatever its thread count.
    int64_t nanos = 0;
  };

  explicit PartitionCache(const EncodedTable* table);

  /// Constructs a cache whose single-attribute partitions are NOT built
  /// from the table: only Π_∅ is preloaded, and every Π_{a} must arrive
  /// via Preload (e.g. decoded off the shard wire) before the first
  /// derivation that needs it. This is what makes shipped base partitions
  /// load-bearing for a shard runner instead of redundant recomputation.
  PartitionCache(const EncodedTable* table, DeferBasePartitions);

  /// Installs an externally produced partition (wire-decoded, typically)
  /// as the resident value for `set`, replacing any existing entry. The
  /// value must be in canonical normal form — every consumer relies on
  /// the canonical-value contract (the wire decoder enforces this). A
  /// single-attribute value must equal FromColumn of the table's column,
  /// since products probe the column in its place (AOD_DCHECK); such
  /// installs also seed the planner catalog.
  void Preload(AttributeSet set, StrippedPartition partition);

  /// The derive step: derives every context of `contexts` that is not
  /// resident, ignoring duplicates and sets of size <= 1. Plans are made
  /// serially against the catalog as it stands, the products run in one
  /// ParallelFor on `pool` (inline when null) under `options`, and the
  /// results are installed and published to the catalog on the calling
  /// thread after the join. A cancelled step installs and publishes only
  /// the keys whose products finished.
  DeriveReport Derive(std::vector<AttributeSet> contexts,
                      exec::ThreadPool* pool = nullptr,
                      const exec::ParallelForOptions& options = {});

  /// Returns Π_X; a miss derives it through Derive on the calling thread
  /// (serial convenience for assembly, examples and tests).
  std::shared_ptr<const StrippedPartition> Get(AttributeSet set);

  /// Π_X if resident, else nullptr. Takes no lock: safe from any number
  /// of threads while nothing mutates the cache.
  const StrippedPartition* Find(AttributeSet set) const;

  /// True if Π_X is resident. Same rules as Find.
  bool Contains(AttributeSet set) const { return Find(set) != nullptr; }

  /// Chooses the cheapest derivation of Π_X from the cost catalog:
  /// minimize estimated cost, tie-broken by larger base (fewer products)
  /// then smaller bit pattern — a pure function of (X, catalog), so plans
  /// are deterministic. The single-attribute partitions are always
  /// catalogued; the returned base is resident by the catalog invariant.
  DerivationPlan PlanDerivation(AttributeSet set) const;

  /// Evicts derived partitions (set size >= 2) until bytes_resident()
  /// fits `budget_bytes`, coldest first in deterministic (level
  /// ascending, bytes descending, bit pattern ascending) order — during
  /// the level-wise traversal, partitions below the two most recent
  /// levels are never needed as contexts again, so ascending level order
  /// reaches still-live levels only under budgets tight enough that
  /// re-deriving them on demand is the intended trade. Level-0/1 partitions are never evicted
  /// (they are the O(n·k) base data everything else derives from), so the
  /// floor is the base footprint. Evicted keys leave the catalog; a later
  /// derive step re-derives them through the planner. budget_bytes <= 0
  /// means unlimited (no-op). Returns the exact number of bytes released.
  int64_t EnforceBudget(int64_t budget_bytes);

  /// Exact bytes held by all materialized partitions (CSR payload +
  /// object headers, per StrippedPartition::bytes()). Feeds the driver's
  /// memory stats and eviction decisions.
  int64_t bytes_resident() const { return bytes_resident_; }
  /// High-water mark of bytes_resident(), updated at every install.
  /// Bytes rise only at installs and fall only in EnforceBudget, so this
  /// is the exact residency peak.
  int64_t bytes_peak() const { return bytes_peak_; }

  /// Number of stripped products performed (for DiscoveryStats). Plans
  /// are deterministic and each key of a step is derived once, so the
  /// counter is identical for any thread count — but a planned
  /// derivation may take several products for one key (base + each
  /// remaining single).
  int64_t products_computed() const { return products_computed_; }
  /// Keys derived, one executed plan each.
  int64_t planner_derivations() const { return planner_derivations_; }
  /// Summed estimated cost of executed plans, in scanned rows.
  int64_t planner_cost_estimated() const { return planner_cost_estimated_; }
  /// Summed realized cost of executed plans (actual rows scanned by their
  /// products), comparable against planner_cost_estimated().
  int64_t planner_cost_realized() const { return planner_cost_realized_; }
  /// Partitions dropped by EnforceBudget.
  int64_t partitions_evicted() const { return partitions_evicted_; }

 private:
  using PartitionPtr = std::shared_ptr<const StrippedPartition>;

  /// One derive-step slot, written only by the worker that ran its plan.
  struct Derived {
    PartitionPtr value;  // null when the step was cancelled before it ran
    int64_t products = 0;
    int64_t realized_cost = 0;
    int64_t nanos = 0;
  };

  /// Installs a value for `set`, replacing any existing entry, and
  /// updates the residency and its peak.
  void Install(AttributeSet set, PartitionPtr value);

  /// Executes `plan`: product the resident base with each remaining
  /// attribute's rank column, counting the realized cost. Reads the cache
  /// only, so workers run it concurrently.
  Derived ExecutePlan(const DerivationPlan& plan);

  /// Scratch buffers are pooled: a computing thread borrows one for the
  /// duration of a derivation, so steady-state materialization allocates
  /// no work arrays regardless of worker count.
  std::unique_ptr<PartitionScratch> AcquireScratch();
  void ReleaseScratch(std::unique_ptr<PartitionScratch> scratch);

  const EncodedTable* table_;
  std::unordered_map<AttributeSet, PartitionPtr, AttributeSetHash> entries_;
  int64_t products_computed_ = 0;
  int64_t planner_derivations_ = 0;
  int64_t planner_cost_estimated_ = 0;
  int64_t planner_cost_realized_ = 0;
  int64_t partitions_evicted_ = 0;
  /// Sum of bytes() over entries_, and its high-water mark.
  int64_t bytes_resident_ = 0;
  int64_t bytes_peak_ = 0;

  /// Planner cost catalog: resident keys the planner may pick as a
  /// derivation base, with their rows_covered cost. Seeded with the
  /// single-attribute partitions; grown only by Derive's install and
  /// shrunk only by eviction.
  std::unordered_map<AttributeSet, int64_t, AttributeSetHash> catalog_;

  std::mutex scratch_mutex_;
  std::vector<std::unique_ptr<PartitionScratch>> free_scratch_;
};

}  // namespace aod

#endif  // AOD_PARTITION_PARTITION_CACHE_H_
