#include "partition/partition_cache.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"

namespace aod {

PartitionCache::PartitionCache(const EncodedTable* table,
                               DeferBasePartitions) : table_(table) {
  AOD_CHECK(table != nullptr);
  Install(AttributeSet(),
          std::make_shared<StrippedPartition>(
              StrippedPartition::WholeRelation(table_->num_rows())));
}

PartitionCache::PartitionCache(const EncodedTable* table)
    : PartitionCache(table, DeferBasePartitions{}) {
  for (int a = 0; a < table_->num_columns(); ++a) {
    auto partition = std::make_shared<StrippedPartition>(
        StrippedPartition::FromColumn(table_->column(a)));
    catalog_.emplace(AttributeSet().With(a), partition->rows_covered());
    Install(AttributeSet().With(a), std::move(partition));
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
    catalog_[set] = value->rows_covered();
  }
  Install(set, std::move(value));
}

void PartitionCache::Install(AttributeSet set, PartitionPtr value) {
  PartitionPtr& entry = entries_[set];
  // Replacing an entry: un-count the displaced value.
  if (entry != nullptr) bytes_resident_ -= entry->bytes();
  bytes_resident_ += value->bytes();
  bytes_peak_ = std::max(bytes_peak_, bytes_resident_);
  entry = std::move(value);
}

PartitionCache::DeriveReport PartitionCache::Derive(
    std::vector<AttributeSet> contexts, exec::ThreadPool* pool,
    const exec::ParallelForOptions& options) {
  // Level-0/1 partitions are preloaded and never evicted, so only sets
  // of size >= 2 are ever derived.
  std::erase_if(contexts, [](AttributeSet set) { return set.size() <= 1; });
  std::sort(contexts.begin(), contexts.end());
  contexts.erase(std::unique(contexts.begin(), contexts.end()),
                 contexts.end());
  std::erase_if(contexts, [&](AttributeSet set) { return Contains(set); });

  // Every plan sees the same catalog, and every base it names is
  // resident, so the workers below only read the cache and no two of
  // them touch the same key.
  std::vector<DerivationPlan> plans;
  plans.reserve(contexts.size());
  for (AttributeSet set : contexts) plans.push_back(PlanDerivation(set));
  std::vector<Derived> slots(contexts.size());
  exec::ParallelFor(
      pool, 0, static_cast<int64_t>(contexts.size()),
      [&](int64_t i) {
        slots[static_cast<size_t>(i)] =
            ExecutePlan(plans[static_cast<size_t>(i)]);
      },
      options);

  DeriveReport report;
  for (size_t i = 0; i < contexts.size(); ++i) {
    Derived& slot = slots[i];
    if (slot.value == nullptr) continue;
    catalog_[contexts[i]] = slot.value->rows_covered();
    Install(contexts[i], std::move(slot.value));
    products_computed_ += slot.products;
    ++planner_derivations_;
    planner_cost_estimated_ += plans[i].estimated_cost;
    planner_cost_realized_ += slot.realized_cost;
    ++report.keys;
    report.nanos += slot.nanos;
  }
  return report;
}

std::shared_ptr<const StrippedPartition> PartitionCache::Get(
    AttributeSet set) {
  auto it = entries_.find(set);
  if (it == entries_.end()) {
    AOD_CHECK(set.size() >= 2);
    Derive({set});
    it = entries_.find(set);
  }
  return it->second;
}

const StrippedPartition* PartitionCache::Find(AttributeSet set) const {
  auto it = entries_.find(set);
  return it == entries_.end() ? nullptr : it->second.get();
}

DerivationPlan PartitionCache::PlanDerivation(AttributeSet set) const {
  AOD_CHECK(set.size() >= 2);
  DerivationPlan best;
  // (estimated cost, products needed, base bit pattern): strict-min over
  // every catalog entry, so the choice is independent of map iteration
  // order and of anything but (set, catalog).
  std::tuple<int64_t, int, uint64_t> best_key{0, 0, 0};
  bool have_best = false;
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

PartitionCache::Derived PartitionCache::ExecutePlan(
    const DerivationPlan& plan) {
  AOD_CHECK(!plan.singles.empty());
  Stopwatch clock;
  const StrippedPartition* base = Find(plan.base);
  AOD_CHECK(base != nullptr);
  std::unique_ptr<PartitionScratch> scratch = AcquireScratch();
  Derived out;
  PartitionPtr current;
  for (int a : plan.singles) {
    const StrippedPartition& from = current ? *current : *base;
    // The kernel probes the rank column; Π_{a} itself is never read.
    out.realized_cost += 2 * from.rows_covered();
    current = std::make_shared<StrippedPartition>(
        from.ProductWithColumn(table_->column(a), scratch.get()));
    ++out.products;
  }
  ReleaseScratch(std::move(scratch));
  out.value = std::move(current);
  out.nanos = clock.ElapsedNanos();
  return out;
}

int64_t PartitionCache::EnforceBudget(int64_t budget_bytes) {
  if (budget_bytes <= 0 || bytes_resident() <= budget_bytes) return 0;
  struct Victim {
    int level;
    int64_t bytes;
    AttributeSet set;
  };
  std::vector<Victim> victims;
  for (const auto& [key, value] : entries_) {
    if (key.size() <= 1) continue;
    victims.push_back({key.size(), value->bytes(), key});
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
    entries_.erase(v.set);
    catalog_.erase(v.set);
    freed += v.bytes;
    ++evicted;
  }
  partitions_evicted_ += static_cast<int64_t>(evicted);
  bytes_resident_ -= freed;
  return freed;
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
