#include "od/repair.h"

#include <utility>

#include "algo/lnds.h"
#include "common/macros.h"
#include "od/class_order.h"

namespace aod {

std::string CellRepair::ToString(const EncodedTable& table) const {
  std::string out = "row " + std::to_string(row) + ": " +
                    table.name(attribute) + " = " + current.ToString() +
                    " should lie in ";
  out += low.is_null() ? "(-inf" : "[" + low.ToString();
  out += ", ";
  out += high.is_null() ? "+inf)" : high.ToString() + "]";
  return out;
}

std::string RepairPlan::ToString(const EncodedTable& table,
                                 size_t max_items) const {
  std::string out =
      "repairs for " + oc.ToString(table) + " (" +
      std::to_string(repairs.size()) + " suspect cells):\n";
  for (size_t i = 0; i < repairs.size() && i < max_items; ++i) {
    out += "  " + repairs[i].ToString(table) + "\n";
  }
  if (repairs.size() > max_items) {
    out += "  ... (" + std::to_string(repairs.size() - max_items) +
           " more)\n";
  }
  return out;
}

RepairPlan SuggestOcRepairs(const EncodedTable& table,
                            const StrippedPartition& context_partition,
                            const CanonicalOc& oc) {
  const auto& ranks_b = table.ranks(oc.b);
  const EncodedColumn& col_b = table.column(oc.b);
  const ClassOrder order(table, oc.a, oc.b,
                         {.opposite = oc.opposite, .row_ids = true});

  RepairPlan plan;
  plan.oc = oc;
  ValidatorScratch s;
  const std::vector<int32_t>& rows = s.rows();
  for (StrippedPartition::ClassSpan cls : context_partition.classes()) {
    order.Sort(cls, &s);
    std::vector<int32_t> kept = LndsIndices(s.projection());
    // Walk removed positions; bracket each with the nearest kept
    // neighbours (kept is ascending).
    size_t k = 0;
    for (int32_t pos = 0; pos < static_cast<int32_t>(rows.size()); ++pos) {
      if (k < kept.size() && kept[k] == pos) {
        ++k;
        continue;
      }
      CellRepair repair;
      repair.row = rows[static_cast<size_t>(pos)];
      repair.attribute = oc.b;
      repair.current =
          col_b.Decode(ranks_b[static_cast<size_t>(repair.row)]);
      // Nearest kept neighbour below is kept[k-1], above is kept[k].
      int32_t low_rank = -1;
      int32_t high_rank = -1;
      if (k > 0) {
        low_rank = ranks_b[static_cast<size_t>(
            rows[static_cast<size_t>(kept[k - 1])])];
      }
      if (k < kept.size()) {
        high_rank = ranks_b[static_cast<size_t>(
            rows[static_cast<size_t>(kept[k])])];
      }
      if (oc.opposite) std::swap(low_rank, high_rank);
      repair.low = low_rank < 0 ? Value::Null() : col_b.Decode(low_rank);
      repair.high = high_rank < 0 ? Value::Null() : col_b.Decode(high_rank);
      plan.repairs.push_back(std::move(repair));
    }
  }
  return plan;
}

}  // namespace aod
