#include "od/hybrid_sampler.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "gen/random.h"
#include "od/aoc_lis_validator.h"

namespace aod {

AocSampler::AocSampler(const EncodedTable* table, SamplerConfig config)
    : table_(table), config_(config) {
  AOD_CHECK(table != nullptr);
  const int64_t n = table_->num_rows();
  in_sample_.assign(static_cast<size_t>(n), 0);
  if (n == 0) return;
  double rate = std::min(
      1.0, static_cast<double>(config_.sample_size) / static_cast<double>(n));
  Rng rng(config_.seed);
  for (int64_t r = 0; r < n; ++r) {
    if (rng.Bernoulli(rate)) {
      in_sample_[static_cast<size_t>(r)] = 1;
      ++sampled_rows_;
    }
  }
}

double AocSampler::EstimateFactor(const StrippedPartition& context_partition,
                                  int a, int b, bool opposite,
                                  ValidatorScratch* scratch) const {
  if (sampled_rows_ == 0) return 0.0;
  const ClassOrder order = ClassOrder::ForOc(*table_, a, b, opposite);

  int64_t removal = 0;
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  std::vector<int32_t>& rows = s.rows();
  for (StrippedPartition::ClassSpan cls : context_partition.classes()) {
    rows.clear();
    for (int32_t r : cls) {
      if (in_sample_[static_cast<size_t>(r)]) rows.push_back(r);
    }
    if (rows.size() < 2) continue;
    removal += ClassRemovals(order, rows, std::numeric_limits<int64_t>::max(),
                             &s);
  }
  return static_cast<double>(removal) / static_cast<double>(sampled_rows_);
}

ValidationOutcome AocSampler::Validate(
    const StrippedPartition& context_partition, int a, int b, double epsilon,
    const ValidatorOptions& options, ValidatorScratch* scratch) {
  // The sample factor underestimates e(phi) in expectation, so exceeding
  // the inflated threshold is strong evidence of invalidity.
  double estimate = EstimateFactor(context_partition, a, b,
                                   options.opposite_polarity, scratch);
  if (estimate > (1.0 + config_.reject_margin) * epsilon) {
    ++fast_rejections_;
    ValidationOutcome out;
    out.valid = false;
    out.early_exit = true;
    out.approx_factor = estimate;
    out.removal_size = static_cast<int64_t>(
        estimate * static_cast<double>(table_->num_rows()));
    return out;
  }
  ++full_validations_;
  return ValidateAocOptimal(*table_, context_partition, a, b, epsilon,
                            table_->num_rows(), options, scratch);
}

}  // namespace aod
