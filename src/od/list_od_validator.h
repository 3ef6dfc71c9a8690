// Validation of list-based ODs and OCs, exact and approximate.
//
// Implements the Sec. 3.3 extension (and its footnote 1): the LIS-based
// validator generalizes to list-based dependencies by sorting tuples in
// ascending lexicographic order of X and breaking ties with the
// *descending* (OD) or *ascending* (OC) lexicographic order of Y, then
// removing the complement of a longest non-decreasing subsequence of the
// Y-projection (tuples over Y compared lexicographically). The tuples of
// X and of Y are rank-encoded densely in lexicographic order, which turns
// the list dependency into a canonical one over the whole relation; the
// canonical validators then run on the two rank columns.
#ifndef AOD_OD_LIST_OD_VALIDATOR_H_
#define AOD_OD_LIST_OD_VALIDATOR_H_

#include "data/encoder.h"
#include "od/canonical_od.h"
#include "od/list_od.h"
#include "od/validator_scratch.h"

namespace aod {

/// True iff r |= lhs -> rhs exactly (Def. 2.2). `scratch` (optional)
/// pools the sort buffers across calls.
bool ValidateListOdExact(const EncodedTable& table, const ListOd& od,
                         ValidatorScratch* scratch = nullptr);

/// True iff lhs ~ rhs exactly (Def. 2.3: XY <-> YX).
bool ValidateListOcExact(const EncodedTable& table, const ListOd& od,
                         ValidatorScratch* scratch = nullptr);

/// Approximate list-based OD validation with a minimal removal set. The
/// full set is always measured: `options.early_exit` and
/// `options.opposite_polarity` do not apply to list dependencies.
ValidationOutcome ValidateListOdApprox(const EncodedTable& table,
                                       const ListOd& od, double epsilon,
                                       const ValidatorOptions& options = {},
                                       ValidatorScratch* scratch = nullptr);

/// Approximate list-based OC validation with a minimal removal set.
ValidationOutcome ValidateListOcApprox(const EncodedTable& table,
                                       const ListOd& od, double epsilon,
                                       const ValidatorOptions& options = {},
                                       ValidatorScratch* scratch = nullptr);

}  // namespace aod

#endif  // AOD_OD_LIST_OD_VALIDATOR_H_
