#include "od/validator_registry.h"

#include "common/stopwatch.h"
#include "od/aoc_iterative_validator.h"
#include "od/aoc_lis_validator.h"
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

CandidateVerdict CandidateValidator::Validate(
    AttributeSet context, const StrippedPartition& partition,
    DependencyKind kind, int target, AttributePair pair) {
  std::unique_ptr<ValidatorScratch> scratch;
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    if (!free_scratch_.empty()) {
      scratch = std::move(free_scratch_.back());
      free_scratch_.pop_back();
    }
  }
  if (scratch == nullptr) scratch = std::make_unique<ValidatorScratch>();

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
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    free_scratch_.push_back(std::move(scratch));
  }
  out.interestingness = InterestingnessScore(partition, context.size(),
                                             template_.table_rows);
  return out;
}

}  // namespace aod
