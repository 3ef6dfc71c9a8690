#include "partition/partition_cache.h"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <utility>

#include "common/macros.h"

namespace aod {

PartitionCache::PartitionCache(const EncodedTable* table,
                               DeferBasePartitions) : table_(table) {
  AOD_CHECK(table != nullptr);
  PutReady(AttributeSet(),
           std::make_shared<StrippedPartition>(
               StrippedPartition::WholeRelation(table_->num_rows())));
}

PartitionCache::PartitionCache(const EncodedTable* table)
    : PartitionCache(table, DeferBasePartitions{}) {
  for (int a = 0; a < table_->num_columns(); ++a) {
    auto partition = std::make_shared<StrippedPartition>(
        StrippedPartition::FromColumn(table_->column(a)));
    catalog_.emplace(AttributeSet().With(a), partition->rows_covered());
    PutReady(AttributeSet().With(a), std::move(partition));
  }
}

void PartitionCache::Preload(AttributeSet set, StrippedPartition partition) {
  auto value = std::make_shared<StrippedPartition>(std::move(partition));
  if (set.size() == 1) {
    // Products probe the rank column instead of this value, so a
    // preloaded Π_{a} must be exactly what that column yields.
    AOD_DCHECK(value->Serialize() ==
               StrippedPartition::FromColumn(table_->column(set.First()))
                   .Serialize());
    std::lock_guard<std::mutex> lock(catalog_mutex_);
    catalog_[set] = value->rows_covered();
  }
  PutReady(set, std::move(value));
}

void PartitionCache::PutReady(AttributeSet set, PartitionPtr value) {
  bytes_resident_.fetch_add(value->bytes(), std::memory_order_relaxed);
  std::promise<PartitionPtr> promise;
  promise.set_value(std::move(value));
  Shard& shard = ShardFor(set);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(set);
  if (it != shard.map.end()) {
    // Replacing an entry: un-count the displaced value (always resolved —
    // PutReady only ever installs resolved futures).
    bytes_resident_.fetch_sub(it->second.get()->bytes(),
                              std::memory_order_relaxed);
  }
  shard.map.insert_or_assign(set, promise.get_future().share());
}

std::shared_ptr<const StrippedPartition> PartitionCache::Get(
    AttributeSet set) {
  return Get(set, nullptr);
}

std::shared_ptr<const StrippedPartition> PartitionCache::Get(
    AttributeSet set, const DerivationPlan* plan) {
  if (get_hook_) get_hook_(GetEvent::kEnter, set);
  Shard& shard = ShardFor(set);
  std::promise<PartitionPtr> promise;
  PartitionFuture existing;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(set);
    if (it != shard.map.end()) {
      existing = it->second;
    } else {
      shard.map.emplace(set, promise.get_future().share());
    }
  }
  if (existing.valid()) {
    // Wait with the stripe unlocked: the thread computing `set` may need
    // another key of this stripe (its base or a single) and would block
    // forever behind a waiter that held the lock.
    if (get_hook_ && existing.wait_for(std::chrono::seconds(0)) !=
                         std::future_status::ready) {
      get_hook_(GetEvent::kWaitPending, set);
    }
    return existing.get();
  }
  // Level-0/1 partitions are preloaded and never evicted, so a miss is
  // always a derivable set.
  AOD_CHECK(set.size() >= 2);
  PartitionPtr value = plan != nullptr
                           ? ExecutePlan(set, *plan)
                           : ExecutePlan(set, PlanDerivation(set));
  promise.set_value(value);
  return value;
}

DerivationPlan PartitionCache::PlanDerivation(AttributeSet set) const {
  AOD_CHECK(set.size() >= 2);
  DerivationPlan best;
  // (estimated cost, products needed, base bit pattern): strict-min over
  // every catalog entry, so the choice is independent of map iteration
  // order and of anything but (set, catalog).
  std::tuple<int64_t, int, uint64_t> best_key{0, 0, 0};
  bool have_best = false;
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  for (const auto& [base, base_cost] : catalog_) {
    if (base.empty() || base == set || !set.ContainsAll(base)) continue;
    const int steps = set.Difference(base).size();
    const int64_t est = 2 * static_cast<int64_t>(steps) * base_cost;
    std::tuple<int64_t, int, uint64_t> key{est, steps, base.bits()};
    if (!have_best || key < best_key) {
      have_best = true;
      best_key = key;
      best.base = base;
      best.estimated_cost = est;
    }
  }
  // Singletons are permanently catalogued, so a base always exists.
  AOD_CHECK(have_best);
  best.singles.clear();
  set.Difference(best.base).ForEach([&](int a) { best.singles.push_back(a); });
  return best;
}

void PartitionCache::PublishCost(AttributeSet set) {
  PartitionPtr partition = Get(set);
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  catalog_[set] = partition->rows_covered();
}

PartitionCache::PartitionPtr PartitionCache::ExecutePlan(
    AttributeSet set, const DerivationPlan& plan) {
  AOD_CHECK(!plan.base.empty() && set.ContainsAll(plan.base) &&
            !plan.singles.empty());
  PartitionPtr current = Get(plan.base);
  std::unique_ptr<PartitionScratch> scratch = AcquireScratch();
  int64_t realized = 0;
  for (int a : plan.singles) {
    // The kernel probes the rank column; Π_{a} itself is never read.
    realized += 2 * current->rows_covered();
    current = std::make_shared<StrippedPartition>(
        current->ProductWithColumn(table_->column(a), scratch.get()));
    products_computed_.fetch_add(1, std::memory_order_relaxed);
  }
  ReleaseScratch(std::move(scratch));
  planner_derivations_.fetch_add(1, std::memory_order_relaxed);
  planner_cost_estimated_.fetch_add(plan.estimated_cost,
                                    std::memory_order_relaxed);
  planner_cost_realized_.fetch_add(realized, std::memory_order_relaxed);
  bytes_resident_.fetch_add(current->bytes(), std::memory_order_relaxed);
  return current;
}

bool PartitionCache::Contains(AttributeSet set) const {
  const Shard& shard = ShardFor(set);
  PartitionFuture future;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(set);
    if (it == shard.map.end()) return false;
    future = it->second;
  }
  return future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

int64_t PartitionCache::EnforceBudget(int64_t budget_bytes) {
  if (budget_bytes <= 0 || bytes_resident() <= budget_bytes) return 0;
  // Futures are resolved here (nothing derives between phases), so
  // every entry's exact size and level are available.
  struct Victim {
    int level;
    int64_t bytes;
    AttributeSet set;
  };
  std::vector<Victim> victims;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, future] : shard.map) {
      if (key.size() <= 1) continue;
      victims.push_back({key.size(), future.get()->bytes(), key});
    }
  }
  // Coldest first: lowest level — levels below the two most recent are
  // never needed as contexts again, so during the level-wise traversal
  // ascending level order reaches the live levels only under extreme
  // budgets (where on-demand re-derivation covers them). Largest bytes
  // within a level so the budget is met with the fewest evictions; bit
  // pattern as the total tie-break.
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              if (a.level != b.level) return a.level < b.level;
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return a.set.bits() < b.set.bits();
            });
  int64_t freed = 0;
  size_t evicted = 0;
  while (evicted < victims.size() &&
         bytes_resident() - freed > budget_bytes) {
    const Victim& v = victims[evicted];
    Shard& shard = ShardFor(v.set);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.map.erase(v.set);
    }
    freed += v.bytes;
    ++evicted;
  }
  if (evicted > 0) {
    std::lock_guard<std::mutex> lock(catalog_mutex_);
    for (size_t i = 0; i < evicted; ++i) catalog_.erase(victims[i].set);
  }
  partitions_evicted_.fetch_add(static_cast<int64_t>(evicted),
                                std::memory_order_relaxed);
  bytes_resident_.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

int64_t PartitionCache::cached_count() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += static_cast<int64_t>(shard.map.size());
  }
  return total;
}

std::unique_ptr<PartitionScratch> PartitionCache::AcquireScratch() {
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    if (!free_scratch_.empty()) {
      std::unique_ptr<PartitionScratch> scratch =
          std::move(free_scratch_.back());
      free_scratch_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<PartitionScratch>(table_->num_rows());
}

void PartitionCache::ReleaseScratch(std::unique_ptr<PartitionScratch> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  free_scratch_.push_back(std::move(scratch));
}

}  // namespace aod
