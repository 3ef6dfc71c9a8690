// The approximate functional-dependency validator.
//
// FDs are degenerate cases of the stripped-partition machinery that
// already powers OD discovery (the Desbordante FD guide in SNIPPETS.md):
// X -> A holds exactly iff every equivalence class of Π_X is constant in
// A — a refinement test that never materializes Π_{X∪{A}}, and the same
// test as the exact OFD X: [] -> A, so ValidateOfdExact serves both
// kinds — and the approximate form replaces "constant" with an error
// budget.
//
// The AFD error is Kivinen–Mannila's g1, the pair-counting measure the
// Desbordante guide thresholds on:
//
//   g1(X -> A) = |{(t,u) : t[X]=u[X] ∧ t[A]≠u[A]}| / |r|²
//
// Per context class c the violating ordered pairs are |c|² − Σ_v cnt_v²
// (cnt_v = rows of c with A-rank v). Rows in singleton classes — exactly
// the rows a stripped partition drops — contribute nothing, so iterating
// the stripped classes is not an approximation. The counts are int64:
// |c|² stays below 2^63 for any |r| < 3e9 rows, far beyond the int32 row
// ids the CSR layout can address.
//
// The verdict also carries a removal count (the g3-style "rows to delete
// until the FD holds", Σ_c (|c| − max_v cnt_v)) computed in the same
// frequency pass — it rides along for observability and removal-set
// collection, while validity is decided by g1 alone.
#ifndef AOD_OD_FD_VALIDATOR_H_
#define AOD_OD_FD_VALIDATOR_H_

#include "data/encoder.h"
#include "od/canonical_od.h"
#include "od/validator_scratch.h"
#include "partition/stripped_partition.h"

namespace aod {

/// Approximate FD under g1. Valid iff g1 <= max_g1_error; the outcome's
/// approx_factor carries the exact g1 value (0 when table_rows == 0).
/// Early exit: counting stops as soon as the violating-pair count
/// exceeds floor(max_g1_error * |r|²) — the verdict is then invalid with
/// early_exit set and approx_factor a lower bound, mirroring the OFD/OC
/// validators' early-exit contract. removal_rows is filled (rows outside
/// each class's most frequent A-value) only when
/// options.collect_removal_set is set, which also disables early exit
/// upstream.
ValidationOutcome ValidateAfdG1(const EncodedTable& table,
                                const StrippedPartition& context_partition,
                                int a, double max_g1_error,
                                int64_t table_rows,
                                const ValidatorOptions& options,
                                ValidatorScratch* scratch = nullptr);

}  // namespace aod

#endif  // AOD_OD_FD_VALIDATOR_H_
