#include "od/lattice.h"

#include <algorithm>

#include "common/macros.h"

namespace aod {

LatticeNode* LatticeLevel::Find(AttributeSet set) {
  auto it = nodes_.find(set);
  return it == nodes_.end() ? nullptr : &it->second;
}

const LatticeNode* LatticeLevel::Find(AttributeSet set) const {
  auto it = nodes_.find(set);
  return it == nodes_.end() ? nullptr : &it->second;
}

void LatticeLevel::Insert(LatticeNode node) {
  AOD_CHECK_MSG(node.set.size() == level_,
                "inserting a size-%d set into level %d", node.set.size(),
                level_);
  nodes_.emplace(node.set, std::move(node));
}

void LatticeLevel::Erase(AttributeSet set) { nodes_.erase(set); }

LatticeLevel LatticeLevel::MakeFirstLevel(int num_attributes) {
  LatticeLevel level(1);
  AttributeSet full = AttributeSet::FullSet(num_attributes);
  for (int a = 0; a < num_attributes; ++a) {
    LatticeNode node;
    node.set = AttributeSet().With(a);
    node.cc.fill(full);
    level.Insert(std::move(node));
  }
  return level;
}

LatticeLevel LatticeLevel::GenerateNext() const {
  LatticeLevel next(level_ + 1);
  // Prefix blocks: two sets join iff they differ only in their largest
  // attribute. Collect sorted attribute vectors and sort lexicographically
  // so blocks are contiguous.
  std::vector<std::vector<int>> sets;
  sets.reserve(nodes_.size());
  for (const auto& [set, node] : nodes_) {
    sets.push_back(set.ToVector());
  }
  std::sort(sets.begin(), sets.end());

  for (size_t block_start = 0; block_start < sets.size();) {
    // A block shares the first (level_ - 1) attributes.
    size_t block_end = block_start + 1;
    while (block_end < sets.size() &&
           std::equal(sets[block_start].begin(),
                      sets[block_start].end() - 1,
                      sets[block_end].begin(), sets[block_end].end() - 1)) {
      ++block_end;
    }
    for (size_t i = block_start; i < block_end; ++i) {
      for (size_t j = i + 1; j < block_end; ++j) {
        AttributeSet candidate = AttributeSet::FromVector(sets[i])
                                     .Union(AttributeSet::FromVector(sets[j]));
        // Keep only if every subset of size level_ survived.
        bool all_subsets_alive = true;
        candidate.ForEach([&](int a) {
          if (Find(candidate.Without(a)) == nullptr) {
            all_subsets_alive = false;
          }
        });
        if (!all_subsets_alive) continue;
        LatticeNode node;
        node.set = candidate;
        next.Insert(std::move(node));
      }
    }
    block_start = block_end;
  }
  return next;
}

}  // namespace aod
