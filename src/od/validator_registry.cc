#include "od/validator_registry.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "od/aoc_iterative_validator.h"
#include "od/aoc_lis_validator.h"
#include "od/class_order.h"
#include "od/fd_validator.h"
#include "od/interestingness.h"
#include "od/oc_validator.h"
#include "od/ofd_validator.h"

namespace aod {
namespace {

DependencyVerdict FromOutcome(ValidationOutcome outcome) {
  DependencyVerdict verdict;
  verdict.valid = outcome.valid;
  verdict.error = outcome.approx_factor;
  verdict.removal_size = outcome.removal_size;
  verdict.early_exit = outcome.early_exit;
  verdict.removal_rows = std::move(outcome.removal_rows);
  return verdict;
}

}  // namespace

DependencyVerdict ValidateDependency(const ValidationRequest& request) {
  const EncodedTable& table = *request.table;
  const StrippedPartition& partition = *request.context_partition;
  ValidatorOptions vopts = request.options;
  switch (request.kind) {
    case DependencyKind::kOfd:
      if (request.algorithm != ValidatorKind::kExact) {
        return FromOutcome(ValidateOfdApprox(table, partition, request.target,
                                             request.epsilon,
                                             request.table_rows, vopts,
                                             request.scratch));
      }
      [[fallthrough]];
    case DependencyKind::kFd: {
      // The exact OFD X: [] -> A is the FD X -> A: one constancy test.
      DependencyVerdict verdict;
      verdict.valid = ValidateOfdExact(table, partition, request.target);
      return verdict;
    }
    case DependencyKind::kOc: {
      const AttributePair pair = request.pair;
      vopts.opposite_polarity = pair.opposite;
      switch (request.algorithm) {
        case ValidatorKind::kExact: {
          DependencyVerdict verdict;
          verdict.valid = ValidateOcExact(table, partition, pair.a, pair.b,
                                          pair.opposite, request.scratch);
          return verdict;
        }
        case ValidatorKind::kIterative:
          return FromOutcome(ValidateAocIterative(
              table, partition, pair.a, pair.b, request.epsilon,
              request.table_rows, vopts, request.scratch));
        case ValidatorKind::kOptimal:
          return FromOutcome(ValidateAocOptimal(
              table, partition, pair.a, pair.b, request.epsilon,
              request.table_rows, vopts, request.scratch));
      }
      break;
    }
    case DependencyKind::kAfd:
      return FromOutcome(ValidateAfdG1(table, partition, request.target,
                                       request.afd_error, request.table_rows,
                                       vopts, request.scratch));
  }
  return DependencyVerdict{};
}

CandidateValidator::CandidateValidator(const EncodedTable* table,
                                       ValidatorKind algorithm,
                                       double epsilon, double afd_error,
                                       bool collect_removal_sets) {
  template_.table = table;
  template_.algorithm = algorithm;
  template_.epsilon = algorithm == ValidatorKind::kExact ? 0.0 : epsilon;
  template_.afd_error = afd_error;
  template_.table_rows = table->num_rows();
  template_.options.collect_removal_set = collect_removal_sets;
}

std::unique_ptr<ValidatorScratch> CandidateValidator::Borrow() {
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    if (!free_scratch_.empty()) {
      std::unique_ptr<ValidatorScratch> scratch =
          std::move(free_scratch_.back());
      free_scratch_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<ValidatorScratch>();
}

void CandidateValidator::Return(std::unique_ptr<ValidatorScratch> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  free_scratch_.push_back(std::move(scratch));
}

CandidateVerdict CandidateValidator::Validate(
    AttributeSet context, const StrippedPartition& partition,
    DependencyKind kind, int target, AttributePair pair) {
  std::unique_ptr<ValidatorScratch> scratch = Borrow();
  ValidationRequest request = template_;
  request.context_partition = &partition;
  request.kind = kind;
  request.target = target;
  request.pair = pair;
  request.scratch = scratch.get();

  CandidateVerdict out;
  Stopwatch sw;
  static_cast<DependencyVerdict&>(out) = ValidateDependency(request);
  out.seconds = sw.ElapsedSeconds();
  Return(std::move(scratch));
  out.interestingness = InterestingnessScore(partition, context.size(),
                                             template_.table_rows);
  return out;
}

ValidationUnits CandidateValidator::FormUnits(
    std::span<const Candidate> candidates) const {
  const size_t n = candidates.size();
  // Each candidate's unit is named by its first member.
  std::vector<uint32_t> leader(n);
  for (size_t i = 0; i < n; ++i) leader[i] = static_cast<uint32_t>(i);
  if (template_.algorithm == ValidatorKind::kOptimal &&
      !template_.options.collect_removal_set) {
    const EncodedTable& table = *template_.table;
    struct Keyed {
      uint64_t context;
      int key;
      uint32_t index;
      bool operator<(const Keyed& o) const {
        if (context != o.context) return context < o.context;
        if (key != o.key) return key < o.key;
        return index < o.index;
      }
    };
    std::vector<Keyed> grouped;
    for (size_t i = 0; i < n; ++i) {
      const Candidate& c = candidates[i];
      if (c.kind != DependencyKind::kOc) continue;
      const int key = ClassOrder::OcPrimary(table, c.oc_pair.a, c.oc_pair.b);
      if (table.column(key).cardinality != table.num_rows()) continue;
      grouped.push_back({c.context.bits(), key, static_cast<uint32_t>(i)});
    }
    std::sort(grouped.begin(), grouped.end());
    for (size_t g = 1; g < grouped.size(); ++g) {
      const Keyed& prev = grouped[g - 1];
      if (grouped[g].context == prev.context && grouped[g].key == prev.key) {
        leader[grouped[g].index] = leader[prev.index];
      }
    }
  }
  // Lay the units out in order of their leaders, members ascending.
  std::vector<uint32_t> size(n, 0);
  for (uint32_t l : leader) ++size[l];
  ValidationUnits units;
  units.members.resize(n);
  std::vector<uint32_t> next(n);
  uint32_t offset = 0;
  for (size_t i = 0; i < n; ++i) {
    if (leader[i] != i) continue;
    units.begin.push_back(offset);
    next[i] = offset;
    offset += size[i];
  }
  units.begin.push_back(offset);
  for (size_t i = 0; i < n; ++i) {
    units.members[next[leader[i]]++] = static_cast<uint32_t>(i);
  }
  return units;
}

void CandidateValidator::ValidateUnit(
    std::span<const Candidate> candidates, std::span<const uint32_t> unit,
    const StrippedPartition& partition,
    const std::function<void(uint32_t, CandidateVerdict&&)>& emit) {
  if (unit.size() == 1) {
    const Candidate& c = candidates[unit[0]];
    emit(unit[0], Validate(c.context, partition, c.kind, c.target, c.oc_pair));
    return;
  }
  const size_t k = unit.size();
  std::vector<OcGroupMember> members;
  members.reserve(k);
  for (uint32_t i : unit) {
    const AttributePair& p = candidates[i].oc_pair;
    members.push_back({p.a, p.b, p.opposite});
  }
  std::vector<ValidationOutcome> outcomes(k);
  std::unique_ptr<ValidatorScratch> scratch = Borrow();
  Stopwatch sw;
  ValidateAocOptimalGroup(*template_.table, partition, members,
                          template_.epsilon, template_.table_rows,
                          template_.options.early_exit, scratch.get(),
                          outcomes);
  const double seconds = sw.ElapsedSeconds() / static_cast<double>(k);
  Return(std::move(scratch));
  const double interestingness = InterestingnessScore(
      partition, candidates[unit[0]].context.size(), template_.table_rows);
  for (size_t j = 0; j < k; ++j) {
    CandidateVerdict verdict;
    static_cast<DependencyVerdict&>(verdict) = FromOutcome(
        std::move(outcomes[j]));
    verdict.interestingness = interestingness;
    verdict.seconds = seconds;
    emit(unit[j], std::move(verdict));
  }
}

}  // namespace aod
