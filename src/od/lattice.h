// The set-based attribute lattice of the FASTOD framework (paper Sec. 3.1).
//
// Levels hold nodes keyed by attribute set. Each node carries the two
// candidate sets of FASTOD [9]:
//   - cc (C_c+): attributes still viable as OFD targets. TANE invariant:
//     A ∈ C_c+(X) iff for no B ∈ X does X\{A,B}: [] -> B hold — i.e. no
//     known constancy makes a dependency through X redundant. FD and AFD
//     discovery keep their own C+ beside it (see LatticeGroup).
//   - cs (C_s+): unordered attribute pairs {A,B} ⊆ X still viable as OC
//     candidates with context X\{A,B}.
// Nodes whose candidate sets empty out are deleted, which prunes every
// superset (next-level generation requires all subsets to survive). This
// is the mechanism behind the paper's Exp-5 observation that *approximate*
// discovery can be faster than exact discovery: AODs validate earlier
// (lower levels), so deletion cascades sooner.
#ifndef AOD_OD_LATTICE_H_
#define AOD_OD_LATTICE_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "od/dependency_kind.h"
#include "partition/attribute_set.h"

namespace aod {

/// An unordered attribute pair {a, b} with a < b, plus the OC polarity
/// class it is a candidate for (see CanonicalOc::opposite). Polarity is
/// symmetric in a and b, so the normalized a < b form loses nothing.
struct AttributePair {
  int a = -1;
  int b = -1;
  bool opposite = false;

  static AttributePair Of(int x, int y, bool opp = false) {
    return x < y ? AttributePair{x, y, opp} : AttributePair{y, x, opp};
  }
  bool operator==(const AttributePair& o) const {
    return a == o.a && b == o.b && opposite == o.opposite;
  }
  bool operator<(const AttributePair& o) const {
    if (a != o.a) return a < o.a;
    if (b != o.b) return b < o.b;
    return opposite < o.opposite;
  }
};

/// The candidate groups that share one level-wise traversal. Each group
/// prunes its own TANE candidate set C+ with its one target kind:
///   - kOdGroup: OFD targets, plus the OC pairs (the original cc/cs
///     machinery of FASTOD),
///   - kFdGroup: plain FD targets,
///   - kAfdGroup: AFD targets under the g1 threshold (g1 is monotone in
///     the LHS, so the same minimality rule is sound).
enum LatticeGroup : int { kOdGroup = 0, kFdGroup = 1, kAfdGroup = 2 };
inline constexpr int kNumLatticeGroups = 3;

/// The group each dependency kind belongs to, indexed by DependencyKind.
inline constexpr LatticeGroup kGroupOfKind[kNumDependencyKinds] = {
    kOdGroup, kOdGroup, kFdGroup, kAfdGroup};
/// The target kind of each group, indexed by LatticeGroup.
inline constexpr DependencyKind kTargetKindOfGroup[kNumLatticeGroups] = {
    DependencyKind::kOfd, DependencyKind::kFd, DependencyKind::kAfd};

/// One lattice node: the attribute set plus the candidate state of every
/// group that traverses it.
///
/// Each group keeps its own candidate set and its own liveness flag,
/// indexed by LatticeGroup; a node stays in the level while ANY enabled
/// group is alive, and each group generates candidates at a node only
/// when every subset node is alive *for that group*. That reproduces each
/// kind's standalone lattice exactly — enabling FD/AFD discovery can
/// never add or remove an OC/OFD result, and vice versa.
struct LatticeNode {
  AttributeSet set;
  /// C+(X) per group: targets A still viable for a minimal dependency
  /// through X (attributes of R, not only of X). cc[kOdGroup] is FASTOD's
  /// C_c+(X), the OFD target candidates.
  std::array<AttributeSet, kNumLatticeGroups> cc;
  /// C_s+(X): surviving OC candidate pairs, sorted ascending (OD group).
  std::vector<AttributePair> cs;
  /// Per-group liveness, written by the driver's merge and read by the
  /// next level's planning. All true by default, which keeps the virtual
  /// root node (never merged) alive for every group.
  std::array<bool, kNumLatticeGroups> alive = {true, true, true};
};

/// One level of the lattice: nodes of equal set size.
class LatticeLevel {
 public:
  using NodeMap =
      std::unordered_map<AttributeSet, LatticeNode, AttributeSetHash>;

  explicit LatticeLevel(int level) : level_(level) {}

  int level() const { return level_; }
  NodeMap& nodes() { return nodes_; }
  const NodeMap& nodes() const { return nodes_; }
  bool empty() const { return nodes_.empty(); }
  int64_t size() const { return static_cast<int64_t>(nodes_.size()); }

  LatticeNode* Find(AttributeSet set);
  const LatticeNode* Find(AttributeSet set) const;
  void Insert(LatticeNode node);
  void Erase(AttributeSet set);

  /// Builds level 1: one node per attribute, every group's cc = R
  /// (TANE's C+(∅) = R intersected over the empty set of subsets).
  static LatticeLevel MakeFirstLevel(int num_attributes);

  /// TANE's GENERATE_NEXT_LEVEL via prefix blocks: joins pairs of
  /// surviving nodes sharing their first (level-1) attributes and keeps a
  /// candidate only if all its subsets of the current size survive.
  LatticeLevel GenerateNext() const;

 private:
  int level_;
  NodeMap nodes_;
};

}  // namespace aod

#endif  // AOD_OD_LATTICE_H_
