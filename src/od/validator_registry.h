// The validator registry: one dispatch point for every dependency kind.
//
// Before the multi-kind platform, the candidate-dispatch switch lived
// twice — once in the discovery driver, once in the shard runner — and
// the two had to mirror each other exactly for sharded output to stay
// bit-identical. The registry collapses both call sites onto a single
// pure function keyed by DependencyKind: a ValidationRequest names the
// candidate (kind, context partition, target attribute or pair), the
// per-kind threshold and the algorithm/scratch environment, and the
// verdict comes back in one typed shape with a kind-appropriate error
// measure:
//
//   kind   validator                        error measure
//   ----   -------------------------------  -------------------------
//   kOc    exact / iterative / optimal AOC  removal fraction |s|/|r|
//   kOfd   exact / approx constancy         removal fraction |s|/|r|
//   kFd    exact constancy, as exact kOfd   0 (exact by definition)
//   kAfd   g1 pair counting                 g1 violating-pair fraction
//
// The dispatch is a pure function of the request, which is what lets a
// shard runner and the in-process driver produce bit-identical outcomes
// from the same candidate. CandidateValidator wraps the dispatch in the
// per-run environment both call sites need (pooled scratch, the exact
// validator's ε = 0), so neither keeps its own copy. It also cuts a
// level's candidates into validation units (FormUnits), the grain both
// call sites parallelize over: a unit is one candidate, or one OC group —
// the optimal validator's OC counts that share a context and a table key
// as sort attribute, validated in one pass (ValidateAocOptimalGroup).
#ifndef AOD_OD_VALIDATOR_REGISTRY_H_
#define AOD_OD_VALIDATOR_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "data/encoder.h"
#include "od/canonical_od.h"
#include "od/dependency_kind.h"
#include "od/discovery.h"
#include "od/lattice.h"
#include "od/validator_scratch.h"
#include "partition/stripped_partition.h"

namespace aod {

/// Everything one validation needs. `target` is the RHS attribute for
/// kOfd/kFd/kAfd; `pair` is the OC pair for kOc (its polarity rides in
/// pair.opposite). `epsilon` must already be zeroed for the exact
/// validator (CandidateValidator does this once per run).
struct ValidationRequest {
  const EncodedTable* table = nullptr;
  const StrippedPartition* context_partition = nullptr;
  DependencyKind kind = DependencyKind::kOc;
  int target = -1;
  AttributePair pair;
  /// Algorithm for the OC/OFD kinds; kFd/kAfd ignore it (exact FD is a
  /// single constancy test, AFD is always the g1 counter).
  ValidatorKind algorithm = ValidatorKind::kOptimal;
  double epsilon = 0.0;
  double afd_error = 0.05;
  int64_t table_rows = 0;
  ValidatorOptions options;
  ValidatorScratch* scratch = nullptr;
};

/// One typed verdict. `error` is the kind's own measure (see the table
/// above); `removal_size` is the rows-to-delete count every kind can
/// report (for kAfd it rides along while validity is decided by g1).
struct DependencyVerdict {
  bool valid = false;
  double error = 0.0;
  int64_t removal_size = 0;
  bool early_exit = false;
  std::vector<int32_t> removal_rows;
};

/// Validates one candidate. The caller owns partitions and scratch; the
/// function never touches shared mutable state, so concurrent calls on
/// distinct scratch instances are safe.
DependencyVerdict ValidateDependency(const ValidationRequest& request);

/// A verdict plus what every caller reports with it.
struct CandidateVerdict : DependencyVerdict {
  /// InterestingnessScore of the candidate's context partition.
  double interestingness = 0.0;
  /// CPU time of the validation alone.
  double seconds = 0.0;
};

/// One candidate of a level.
struct Candidate {
  DependencyKind kind = DependencyKind::kOc;
  AttributeSet context;
  /// RHS attribute for the target kinds (kOfd/kFd/kAfd).
  int target = -1;
  AttributePair oc_pair;
};

/// A level's candidates cut into validation units: unit u is the
/// candidate indices members[begin[u], begin[u + 1]), ascending. Units are
/// ordered by their first member.
struct ValidationUnits {
  std::vector<uint32_t> members;
  std::vector<uint32_t> begin;

  size_t size() const { return begin.size() - 1; }
  std::span<const uint32_t> Unit(size_t u) const {
    return std::span(members).subspan(begin[u], begin[u + 1] - begin[u]);
  }
};

/// The per-candidate validation routine of one discovery run, shared by
/// the in-process driver and every shard runner. It owns the request
/// template (ε zeroed for ValidatorKind::kExact) and a free list of
/// ValidatorScratch — one instance is borrowed per call, so the
/// validators do no steady-state heap allocation (an OC group unit only
/// allocates its member and outcome lists). Validate and ValidateUnit are
/// thread-safe.
class CandidateValidator {
 public:
  CandidateValidator(const EncodedTable* table, ValidatorKind algorithm,
                     double epsilon, double afd_error,
                     bool collect_removal_sets);

  /// Validates one candidate in `context`, whose partition is
  /// `partition`; `target` is the RHS of the target kinds, `pair` the OC
  /// pair.
  CandidateVerdict Validate(AttributeSet context,
                            const StrippedPartition& partition,
                            DependencyKind kind, int target,
                            AttributePair pair);

  /// Cuts `candidates` into units: each OC group (optimal validator, no
  /// removal sets; the OCs of one context whose ClassOrder::OcPrimary is
  /// the same table key) is one unit, every other candidate a unit of
  /// its own.
  ValidationUnits FormUnits(std::span<const Candidate> candidates) const;

  /// Validates one unit of `candidates` (a FormUnits unit; its members
  /// share the context whose partition is `partition`) and calls
  /// `emit(index, verdict)` once per member, in member order. A group's
  /// members split its measured time equally.
  void ValidateUnit(
      std::span<const Candidate> candidates, std::span<const uint32_t> unit,
      const StrippedPartition& partition,
      const std::function<void(uint32_t, CandidateVerdict&&)>& emit);

 private:
  std::unique_ptr<ValidatorScratch> Borrow();
  void Return(std::unique_ptr<ValidatorScratch> scratch);

  ValidationRequest template_;
  std::mutex scratch_mutex_;
  std::vector<std::unique_ptr<ValidatorScratch>> free_scratch_;
};

}  // namespace aod

#endif  // AOD_OD_VALIDATOR_REGISTRY_H_
