#include "partition/stripped_partition.h"

#include <algorithm>
#include <bit>

#include "algo/radix_sort.h"
#include "common/endian.h"
#include "common/macros.h"

namespace aod {

StrippedPartition StrippedPartition::FromColumn(const EncodedColumn& column) {
  const int64_t n = static_cast<int64_t>(column.ranks.size());
  std::vector<int32_t> counts(static_cast<size_t>(column.cardinality), 0);
  for (int32_t r : column.ranks) ++counts[static_cast<size_t>(r)];

  StrippedPartition out;
  int64_t total = 0;
  int64_t num_classes = 0;
  for (int32_t v = 0; v < column.cardinality; ++v) {
    if (counts[static_cast<size_t>(v)] >= 2) {
      total += counts[static_cast<size_t>(v)];
      ++num_classes;
    }
  }
  if (num_classes == 0) return out;

  // Counting sort in canonical class order: a surviving rank gets its
  // slot range when its first (= smallest) row is scanned, so classes end
  // up ordered by smallest row id with rows ascending inside — not in
  // rank order, which would depend on the encoding rather than the value.
  out.rows_covered_ = total;
  out.row_ids_.resize(static_cast<size_t>(total));
  out.class_offsets_.reserve(static_cast<size_t>(num_classes) + 1);
  out.class_offsets_.push_back(0);
  std::vector<int32_t> start(static_cast<size_t>(column.cardinality), -1);
  int32_t cursor = 0;
  for (int64_t t = 0; t < n; ++t) {
    const int32_t r = column.ranks[static_cast<size_t>(t)];
    if (counts[static_cast<size_t>(r)] < 2) continue;
    int32_t& s = start[static_cast<size_t>(r)];
    if (s < 0) {
      s = cursor;
      cursor += counts[static_cast<size_t>(r)];
      out.class_offsets_.push_back(cursor);
    }
    out.row_ids_[static_cast<size_t>(s++)] = static_cast<int32_t>(t);
  }
  return out;
}

StrippedPartition StrippedPartition::WholeRelation(int64_t num_rows) {
  StrippedPartition out;
  if (num_rows >= 2) {
    out.row_ids_.resize(static_cast<size_t>(num_rows));
    for (int64_t t = 0; t < num_rows; ++t) {
      out.row_ids_[static_cast<size_t>(t)] = static_cast<int32_t>(t);
    }
    out.class_offsets_ = {0, static_cast<int32_t>(num_rows)};
    out.rows_covered_ = num_rows;
  }
  return out;
}

StrippedPartition StrippedPartition::FromClasses(
    std::vector<std::vector<int32_t>> classes) {
  StrippedPartition out;
  int64_t total = 0;
  int64_t kept = 0;
  for (const auto& cls : classes) {
    if (cls.size() >= 2) {
      total += static_cast<int64_t>(cls.size());
      ++kept;
    }
  }
  if (kept == 0) return out;
  out.row_ids_.reserve(static_cast<size_t>(total));
  out.class_offsets_.reserve(static_cast<size_t>(kept) + 1);
  out.class_offsets_.push_back(0);
  for (const auto& cls : classes) {
    if (cls.size() < 2) continue;
    out.row_ids_.insert(out.row_ids_.end(), cls.begin(), cls.end());
    out.class_offsets_.push_back(static_cast<int32_t>(out.row_ids_.size()));
  }
  out.rows_covered_ = total;
  return out;
}

StrippedPartition StrippedPartition::FromCsr(
    std::vector<int32_t> row_ids, std::vector<int32_t> class_offsets) {
  StrippedPartition out;
  if (row_ids.empty()) {
    AOD_CHECK_MSG(class_offsets.empty() ||
                      (class_offsets.size() == 1 && class_offsets[0] == 0),
                  "FromCsr: offsets without rows");
    return out;
  }
  AOD_CHECK_MSG(class_offsets.size() >= 2 && class_offsets.front() == 0 &&
                    class_offsets.back() == static_cast<int32_t>(row_ids.size()),
                "FromCsr: offsets do not delimit the row arena");
  for (size_t c = 1; c < class_offsets.size(); ++c) {
    AOD_CHECK_MSG(class_offsets[c] >= class_offsets[c - 1] + 2,
                  "FromCsr: class of size < 2 in stripped partition");
  }
  out.rows_covered_ = static_cast<int64_t>(row_ids.size());
  out.row_ids_ = std::move(row_ids);
  out.class_offsets_ = std::move(class_offsets);
  AOD_CHECK_MSG(out.IsCanonical(), "FromCsr: not in canonical normal form");
  return out;
}

template <bool kSkipUnlabeled>
StrippedPartition StrippedPartition::ProbeProduct(const int32_t* keys,
                                                  int64_t key_count,
                                                  PartitionScratch& s) const {
  s.EnsureKeyCapacity(key_count);
  const int64_t base_classes = num_classes();
  const int64_t epoch0 = s.ReserveEpochs(2 * base_classes);
  std::vector<int64_t>& bucket = s.buckets();
  std::vector<int32_t>& touched = s.touched();
  std::vector<int32_t>& offsets = s.offsets_tmp();
  std::vector<int32_t>& staging = s.rows_tmp(rows_covered_);
  offsets.clear();
  offsets.push_back(0);
  int64_t out_rows = 0;
  for (int64_t c = 0; c < base_classes; ++c) {
    const ClassSpan rows = cls(c);
    if (rows.size() == 2) {
      // Two-row classes, common at deep levels, need no buckets: the
      // class survives iff both keys match.
      const int32_t k = keys[rows[0]];
      if (k == keys[rows[1]] && (!kSkipUnlabeled || k >= 0)) {
        staging[static_cast<size_t>(out_rows)] = rows[0];
        staging[static_cast<size_t>(out_rows) + 1] = rows[1];
        out_rows += 2;
        offsets.push_back(static_cast<int32_t>(out_rows));
      }
      continue;
    }
    // Count: each key's bucket size within this class, logging keys in
    // first-touch order. The class's rows ascend, so that is the order of
    // the buckets' first rows.
    const int64_t count_epoch = epoch0 + 2 * c;
    const int64_t count_stamp = count_epoch << 32;
    const int64_t slot_stamp = (count_epoch + 1) << 32;
    touched.clear();
    for (int32_t t : rows) {
      const int32_t k = keys[t];
      if constexpr (kSkipUnlabeled) {
        if (k < 0) continue;
      }
      int64_t v = bucket[static_cast<size_t>(k)];
      if ((v >> 32) != count_epoch) {
        v = count_stamp;
        touched.push_back(k);
      }
      bucket[static_cast<size_t>(k)] = v + 1;
    }
    // Surviving (>= 2 row) buckets get their output slots in first-touch
    // order, re-stamped under the slot epoch; size-1 buckets keep the
    // count epoch and so drop out of the scatter.
    bool any_survivor = false;
    for (int32_t k : touched) {
      const int64_t n = bucket[static_cast<size_t>(k)] & 0xffffffff;
      if (n >= 2) {
        bucket[static_cast<size_t>(k)] = slot_stamp | out_rows;
        out_rows += n;
        offsets.push_back(static_cast<int32_t>(out_rows));
        any_survivor = true;
      }
    }
    if (!any_survivor) continue;
    // Scatter: a second scan of the same (still cache-hot) rows writes each
    // surviving bucket's rows into place, ascending.
    for (int32_t t : rows) {
      const int32_t k = keys[t];
      if constexpr (kSkipUnlabeled) {
        if (k < 0) continue;
      }
      const int64_t v = bucket[static_cast<size_t>(k)];
      if ((v >> 32) == count_epoch + 1) {
        staging[static_cast<size_t>(v & 0xffffffff)] = t;
        bucket[static_cast<size_t>(k)] = v + 1;
      }
    }
  }

  StrippedPartition out;
  out.rows_covered_ = out_rows;
  if (out_rows == 0) return out;
  // Canonical normal form: classes ordered by smallest contained row id.
  // Each staged class's rows already ascend, so its first row is its
  // minimum and only the class order needs fixing. Classes ascend within
  // each base class but not across base classes; first rows are distinct,
  // so a radix sort on them alone yields the one canonical order.
  const int64_t emitted = static_cast<int64_t>(offsets.size()) - 1;
  const auto first_row = [&](int64_t c) {
    return staging[static_cast<size_t>(offsets[static_cast<size_t>(c)])];
  };
  bool in_order = true;
  for (int64_t c = 1; c < emitted; ++c) {
    if (first_row(c - 1) > first_row(c)) {
      in_order = false;
      break;
    }
  }
  out.class_offsets_.reserve(offsets.size());
  out.row_ids_.reserve(static_cast<size_t>(out_rows));
  if (in_order) {
    out.class_offsets_.assign(offsets.begin(), offsets.end());
    out.row_ids_.assign(staging.begin(),
                        staging.begin() + static_cast<ptrdiff_t>(out_rows));
    return out;
  }
  // Keys are (first row << 32) | class index; the sort reads only the
  // row bits in use, in 11-bit digits (two passes up to 4M rows).
  std::vector<uint64_t>& order = s.order_keys();
  order.resize(static_cast<size_t>(emitted));
  uint32_t max_first = 0;
  for (int64_t c = 0; c < emitted; ++c) {
    const uint32_t f = static_cast<uint32_t>(first_row(c));
    max_first = std::max(max_first, f);
    order[static_cast<size_t>(c)] =
        (static_cast<uint64_t>(f) << 32) | static_cast<uint64_t>(c);
  }
  RadixSort<11>(order, s.order_keys_tmp(), 32,
                32 + std::bit_width(max_first));
  out.class_offsets_.push_back(0);
  for (uint64_t key : order) {
    const size_t c = static_cast<size_t>(key & 0xffffffff);
    out.row_ids_.insert(out.row_ids_.end(), staging.begin() + offsets[c],
                        staging.begin() + offsets[c + 1]);
    out.class_offsets_.push_back(static_cast<int32_t>(out.row_ids_.size()));
  }
  return out;
}

StrippedPartition StrippedPartition::ProductWithColumn(
    const EncodedColumn& column, PartitionScratch* scratch) const {
  const int64_t num_rows = static_cast<int64_t>(column.ranks.size());
  PartitionScratch local_scratch(num_rows);
  PartitionScratch& s = scratch == nullptr ? local_scratch : *scratch;
  return ProbeProduct<false>(column.ranks.data(), column.cardinality, s);
}

StrippedPartition StrippedPartition::Product(const StrippedPartition& other,
                                             int64_t num_rows,
                                             PartitionScratch* scratch) const {
  PartitionScratch local_scratch(num_rows);
  PartitionScratch& s = scratch == nullptr ? local_scratch : *scratch;
  AOD_CHECK_MSG(s.num_rows() >= num_rows,
                "scratch sized for %lld rows, table has %lld",
                static_cast<long long>(s.num_rows()),
                static_cast<long long>(num_rows));
  std::vector<int32_t>& class_of = s.class_of();
  const int64_t other_classes = other.num_classes();
  for (int64_t k = 0; k < other_classes; ++k) {
    for (int32_t t : other.cls(k)) {
      class_of[static_cast<size_t>(t)] = static_cast<int32_t>(k);
    }
  }
  StrippedPartition out =
      ProbeProduct<true>(class_of.data(), other_classes, s);
  for (int32_t t : other.row_ids_) class_of[static_cast<size_t>(t)] = -1;
  return out;
}

void StrippedPartition::Normalize() {
  const int64_t n = num_classes();
  if (n == 0) return;
  for (int64_t c = 0; c < n; ++c) {
    std::sort(row_ids_.begin() + class_offsets_[static_cast<size_t>(c)],
              row_ids_.begin() + class_offsets_[static_cast<size_t>(c) + 1]);
  }
  std::vector<int32_t> order(static_cast<size_t>(n));
  for (int64_t c = 0; c < n; ++c) order[static_cast<size_t>(c)] =
      static_cast<int32_t>(c);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return row_ids_[static_cast<size_t>(class_offsets_[static_cast<size_t>(a)])] <
           row_ids_[static_cast<size_t>(class_offsets_[static_cast<size_t>(b)])];
  });
  std::vector<int32_t> rows;
  rows.reserve(row_ids_.size());
  std::vector<int32_t> offsets;
  offsets.reserve(static_cast<size_t>(n) + 1);
  offsets.push_back(0);
  for (int32_t c : order) {
    rows.insert(rows.end(),
                row_ids_.begin() + class_offsets_[static_cast<size_t>(c)],
                row_ids_.begin() + class_offsets_[static_cast<size_t>(c) + 1]);
    offsets.push_back(static_cast<int32_t>(rows.size()));
  }
  row_ids_ = std::move(rows);
  class_offsets_ = std::move(offsets);
}

bool StrippedPartition::IsCanonical() const {
  int32_t prev_first = -1;
  for (int64_t c = 0; c < num_classes(); ++c) {
    ClassSpan rows = cls(c);
    for (size_t i = 1; i < rows.size(); ++i) {
      if (rows[i - 1] >= rows[i]) return false;
    }
    if (rows[0] <= prev_first) return false;
    prev_first = rows[0];
  }
  return true;
}

void StrippedPartition::SerializeTo(std::vector<uint8_t>* out) const {
  using endian::AppendI32;
  using endian::AppendU64;
  AppendU64(out, static_cast<uint64_t>(num_classes()));
  AppendU64(out, static_cast<uint64_t>(row_ids_.size()));
  for (int32_t v : class_offsets_) AppendI32(out, v);
  for (int32_t v : row_ids_) AppendI32(out, v);
}

Result<StrippedPartition> StrippedPartition::Deserialize(const uint8_t* data,
                                                         size_t size,
                                                         int64_t num_rows,
                                                         size_t* consumed) {
  using endian::ReadI32;
  using endian::ReadU64;
  size_t pos = 0;
  uint64_t classes = 0;
  uint64_t rows = 0;
  if (!ReadU64(data, size, &pos, &classes) ||
      !ReadU64(data, size, &pos, &rows)) {
    return Status::ParseError("partition header truncated");
  }
  // Size sanity before any allocation: covered rows are bounded by the
  // table and stripped classes hold >= 2 rows each.
  if (num_rows < 0 || rows > static_cast<uint64_t>(num_rows)) {
    return Status::ParseError("partition claims more covered rows than the "
                              "table holds");
  }
  if (classes > rows / 2) {
    return Status::ParseError("partition claims more classes than 2-row "
                              "classes fit in its rows");
  }
  if ((classes == 0) != (rows == 0)) {
    return Status::ParseError("partition class/row counts inconsistent");
  }

  StrippedPartition out;
  if (classes > 0) {
    out.class_offsets_.reserve(static_cast<size_t>(classes) + 1);
    int32_t prev = 0;
    for (uint64_t c = 0; c <= classes; ++c) {
      int32_t offset = 0;
      if (!ReadI32(data, size, &pos, &offset)) {
        return Status::ParseError("partition offsets truncated");
      }
      if (c == 0 ? offset != 0 : offset < prev + 2) {
        // Offsets start at 0 and ascend by the class size (>= 2).
        return Status::ParseError("partition offsets not ascending by >= 2");
      }
      out.class_offsets_.push_back(offset);
      prev = offset;
    }
    if (static_cast<uint64_t>(prev) != rows) {
      return Status::ParseError("partition offsets do not cover its rows");
    }
  }
  out.row_ids_.reserve(static_cast<size_t>(rows));
  std::vector<uint8_t> seen(static_cast<size_t>(num_rows), 0);
  for (uint64_t r = 0; r < rows; ++r) {
    int32_t row = 0;
    if (!ReadI32(data, size, &pos, &row)) {
      return Status::ParseError("partition row ids truncated");
    }
    if (row < 0 || static_cast<int64_t>(row) >= num_rows) {
      return Status::ParseError("partition row id out of range");
    }
    if (seen[static_cast<size_t>(row)]) {
      return Status::ParseError("partition row id appears in two classes");
    }
    seen[static_cast<size_t>(row)] = 1;
    out.row_ids_.push_back(row);
  }
  out.rows_covered_ = static_cast<int64_t>(rows);
  if (!out.IsCanonical()) {
    return Status::ParseError("partition not in canonical normal form");
  }
  if (consumed != nullptr) *consumed = pos;
  return out;
}

std::string StrippedPartition::ToString() const {
  std::string out = "{";
  for (int64_t i = 0; i < num_classes(); ++i) {
    if (i > 0) out += ",";
    out += "{";
    ClassSpan c = cls(i);
    for (size_t j = 0; j < c.size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(c[j]);
    }
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace aod
