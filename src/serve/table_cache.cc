#include "serve/table_cache.h"

#include <algorithm>
#include <utility>

namespace aod {
namespace serve {

namespace {

/// Folds the table's content into one 64-bit half of the digest.
uint64_t DigestHalf(const EncodedTable& table, uint64_t seed) {
  uint64_t h = MixWord(seed, static_cast<uint64_t>(table.num_rows()));
  h = MixWord(h, static_cast<uint64_t>(table.num_columns()));
  for (int i = 0; i < table.num_columns(); ++i) {
    const EncodedColumn& col = table.column(i);
    h = MixWord(h, HashWords(h, reinterpret_cast<const uint8_t*>(
                                    col.name.data()),
                             col.name.size()));
    h = MixWord(h, static_cast<uint64_t>(col.cardinality));
    h = MixWord(h, HashWords(h, reinterpret_cast<const uint8_t*>(
                                    col.ranks.data()),
                             col.ranks.size() * sizeof(int32_t)));
  }
  return h;
}

}  // namespace

Digest128 TableDigest(const EncodedTable& table) {
  Digest128 d;
  d.lo = DigestHalf(table, 0x243F6A8885A308D3ULL);
  d.hi = DigestHalf(table, 0x13198A2E03707344ULL);
  return d;
}

bool TableCache::SameContent(const EncodedTable& a, const EncodedTable& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int i = 0; i < a.num_columns(); ++i) {
    const EncodedColumn& ca = a.column(i);
    const EncodedColumn& cb = b.column(i);
    if (ca.name != cb.name || ca.cardinality != cb.cardinality ||
        ca.ranks != cb.ranks) {
      return false;
    }
  }
  return true;
}

bool TableCache::TouchLocked(const Entry* entry) {
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (*it == entry) {
      lru_.splice(lru_.begin(), lru_, it);
      return true;
    }
  }
  return false;
}

std::shared_ptr<const TableCache::Entry> TableCache::Intern(
    EncodedTable table) {
  const Digest128 digest = TableDigest(table);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(digest);
    if (it != entries_.end()) {
      for (const auto& entry : it->second) {
        if (SameContent(*entry->table, table)) {
          ++hits_;
          TouchLocked(entry.get());
          return entry;
        }
      }
    }
  }
  // Build outside the lock — sorting every column is the expensive part,
  // and concurrent submissions of *different* tables must not serialize
  // on it. Two racing submissions of the same new table both build; the
  // second Intern below finds the first's entry and drops its own work.
  auto entry = std::make_shared<Entry>();
  entry->digest = digest;
  entry->table =
      std::make_shared<const EncodedTable>(std::move(table));
  entry->bases.reserve(entry->table->num_columns());
  for (int a = 0; a < entry->table->num_columns(); ++a) {
    entry->bases.push_back(std::make_shared<const StrippedPartition>(
        StrippedPartition::FromColumn(entry->table->column(a))));
  }
  if (race_window_hook_ && !in_race_window_hook_) {
    in_race_window_hook_ = true;
    race_window_hook_();
    in_race_window_hook_ = false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto& bucket = entries_[digest];
  for (const auto& existing : bucket) {
    if (SameContent(*existing->table, *entry->table)) {
      ++hits_;
      // A hit is a hit regardless of which path found it: without the
      // refresh, a table that is only ever re-interned through this
      // race-loss path looks idle to the LRU and gets evicted while hot.
      TouchLocked(existing.get());
      return existing;
    }
  }
  ++misses_;
  bucket.push_back(entry);
  lru_.push_front(entry.get());
  while (lru_.size() > capacity_) {
    const Entry* old = lru_.back();
    lru_.pop_back();
    auto bit = entries_.find(old->digest);
    if (bit != entries_.end()) {
      auto& vec = bit->second;
      vec.erase(std::remove_if(vec.begin(), vec.end(),
                               [old](const auto& e) {
                                 return e.get() == old;
                               }),
                vec.end());
      if (vec.empty()) entries_.erase(bit);
    }
  }
  return entry;
}

bool TableCache::Reuse(const Entry& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!TouchLocked(&entry)) return false;
  ++hits_;
  return true;
}

void TableCache::set_race_window_hook_for_test(std::function<void()> hook) {
  race_window_hook_ = std::move(hook);
}

size_t TableCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

int64_t TableCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

int64_t TableCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace serve
}  // namespace aod
