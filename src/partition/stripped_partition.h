// Stripped partitions (TANE [3], reused by FASTOD [9]).
//
// A partition Π_X groups tuples by equality on the attribute set X
// (paper Def. 2.8). The *stripped* form drops singleton classes: a class
// of one tuple can contribute neither a swap (Def. 2.5) nor a split
// (Def. 2.6), so every validator in this library is correct on the
// stripped form while the representation shrinks dramatically as contexts
// grow (at deep lattice levels almost all classes are singletons).
//
// Memory layout: CSR (compressed sparse row). All row ids live in one
// contiguous `row_ids` array; `class_offsets` (length num_classes + 1)
// delimits the classes. Two arrays per partition — not one heap block per
// class — so a partition costs exactly
//   4 * rows_covered + 4 * (num_classes + 1) bytes
// of payload, products write their output with zero per-class
// allocations, and a partition is a trivially serializable unit for the
// planned cross-shard shipping (ROADMAP). Classes are exposed as
// `std::span<const int32_t>` views into `row_ids`.
//
// Canonical normal form. Every partition this library materializes is
// *canonical*: rows ascend within each class and classes are ordered by
// their smallest contained row id. FromColumn and WholeRelation build
// canonical output directly; Product restores the form with a cheap
// class-reorder pass. Canonical partitions make the partition *value*
// (CSR bytes included) a pure function of the attribute set, independent
// of the derivation path — Π_{AB}·Π_C and Π_{BC}·Π_A yield identical
// arrays — which is what lets the cache plan derivations by cost instead
// of a fixed structural rule, and what a cross-shard reducer can hash.
#ifndef AOD_PARTITION_STRIPPED_PARTITION_H_
#define AOD_PARTITION_STRIPPED_PARTITION_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"

namespace aod {

/// Scratch buffers reused across partition products; one per discovery
/// run (or per concurrent product — see PartitionCache's pool). Holds the
/// epoch-stamped bucket array of the probe kernel, the staging arena, the
/// canonical-restore keys and (allocated on first use, by
/// Product(other) only) the tuple->class label table, so a steady-state
/// product performs no heap allocation beyond its own exactly-sized
/// output.
class PartitionScratch {
 public:
  /// `num_rows` is the table size: the largest row id + 1 any product
  /// through this scratch may see.
  explicit PartitionScratch(int64_t num_rows) : num_rows_(num_rows) {}

  int64_t num_rows() const { return num_rows_; }

  /// Row -> class label of Product(other)'s right operand; -1 marks a row
  /// in no class. Every entry is -1 between products.
  std::vector<int32_t>& class_of() {
    if (class_of_.empty()) class_of_.assign(static_cast<size_t>(num_rows_), -1);
    return class_of_;
  }

  /// Grows the bucket array to cover probe keys [0, key_count).
  void EnsureKeyCapacity(int64_t key_count) {
    if (static_cast<int64_t>(buckets_.size()) < key_count) {
      buckets_.resize(static_cast<size_t>(key_count), 0);
    }
  }

  /// Epoch-stamped bucket state, one entry per probe key, as
  /// (epoch << 32) | value. Base class k of a product owns two fresh
  /// epochs: under the first the value is the bucket's row count, under
  /// the second its next output slot. A stale entry (any older epoch)
  /// reads as "empty", so the array is never cleared between classes or
  /// between products.
  std::vector<int64_t>& buckets() { return buckets_; }
  /// First-touch log of the counting pass: the keys hit by the current
  /// base class, in first-occurrence (= output class) order.
  std::vector<int32_t>& touched() { return touched_; }
  /// Staging buffers for the product's output (copied exactly-sized into
  /// the result once the total is known).
  std::vector<int32_t>& offsets_tmp() { return offsets_tmp_; }
  std::vector<int32_t>& rows_tmp(int64_t capacity) {
    if (static_cast<int64_t>(rows_tmp_.size()) < capacity) {
      rows_tmp_.resize(static_cast<size_t>(capacity));
    }
    return rows_tmp_;
  }
  /// (first row, class index) keys of the canonical-order restore and the
  /// radix sort's second buffer.
  std::vector<uint64_t>& order_keys() { return order_keys_; }
  std::vector<uint64_t>& order_keys_tmp() { return order_keys_tmp_; }

  /// Reserves `count` fresh epochs and returns the first. Epochs fit the
  /// high 32 bits of the stamped array; on (cumulative) overflow the
  /// array is re-zeroed and the clock restarts.
  int64_t ReserveEpochs(int64_t count) {
    if (next_epoch_ + count > std::numeric_limits<int32_t>::max()) {
      std::fill(buckets_.begin(), buckets_.end(), 0);
      next_epoch_ = 1;
    }
    int64_t first = next_epoch_;
    next_epoch_ += count;
    return first;
  }

 private:
  int64_t num_rows_;
  std::vector<int32_t> class_of_;
  std::vector<int64_t> buckets_;
  std::vector<int32_t> touched_;
  std::vector<int32_t> offsets_tmp_;
  std::vector<int32_t> rows_tmp_;
  std::vector<uint64_t> order_keys_;
  std::vector<uint64_t> order_keys_tmp_;
  int64_t next_epoch_ = 1;
};

/// A stripped partition: equivalence classes of row ids, each of size >= 2,
/// stored in CSR form.
class StrippedPartition {
 public:
  /// Lightweight view of one equivalence class — points into `row_ids`.
  using ClassSpan = std::span<const int32_t>;

  StrippedPartition() = default;

  /// Partition by a single attribute, O(n). Output is canonical: classes
  /// in first-occurrence (= smallest row id) order, rows ascending.
  static StrippedPartition FromColumn(const EncodedColumn& column);

  /// Π over the empty attribute set: one class holding every tuple
  /// (stripped away entirely when the table has fewer than 2 rows).
  static StrippedPartition WholeRelation(int64_t num_rows);

  /// Builds directly from explicit classes (tests). Classes of size < 2
  /// are stripped; row ids within a class are kept in the given order —
  /// i.e. NOT normalized; call Normalize() for the canonical form.
  static StrippedPartition FromClasses(std::vector<std::vector<int32_t>> classes);

  /// Adopts an already-stripped, already-canonical CSR pair without
  /// copying (the class-stitching reducer emits canonical form by
  /// construction). `class_offsets` carries the leading 0 and one entry
  /// per class after it, or is empty alongside empty `row_ids`.
  /// Canonicality and the >= 2 class-size invariant are checked.
  static StrippedPartition FromCsr(std::vector<int32_t> row_ids,
                                   std::vector<int32_t> class_offsets);

  /// Stripped product Π_self · Π_{a}, where `column` is the rank column
  /// of the single attribute a: the partition kernel. Each class of this
  /// partition buckets its rows by rank — count under one epoch, then
  /// scatter the buckets of >= 2 rows into place under the next — so a
  /// product costs O(||self|| + C log_2048 n) for C output classes and
  /// never reads Π_{a}: a row that is a singleton in {a} falls out as a
  /// size-1 bucket. Within a base class the buckets come out ordered by
  /// first row; an LSD radix sort over (first row, class index) keys then
  /// restores canonical order across base classes (skipped when the
  /// classes are already in order). Requires this partition canonical;
  /// the output is canonical, hence a pure function of the attribute set.
  /// Work arrays live in `scratch`, which may be nullptr (a temporary one
  /// is allocated).
  StrippedPartition ProductWithColumn(const EncodedColumn& column,
                                      PartitionScratch* scratch = nullptr)
      const;

  /// Stripped product Π_self · Π_other of two canonical partitions: a
  /// thin wrapper over the same kernel. `other`'s rows are labelled with
  /// their class index in the scratch label table (rows in no class stay
  /// -1 and are skipped), the kernel probes the labels in place of ranks,
  /// and the labels are reset. Same output as ProductWithColumn when
  /// `other` = FromColumn(column). `num_rows` is the table size.
  StrippedPartition Product(const StrippedPartition& other, int64_t num_rows,
                            PartitionScratch* scratch = nullptr) const;

  /// Rewrites this partition into canonical normal form: rows ascending
  /// within each class, classes ordered by smallest contained row id.
  /// O(||Π|| log ||Π||); needed only for partitions built from explicit
  /// classes — FromColumn/WholeRelation/product output is already
  /// canonical.
  void Normalize();

  /// True iff the partition is in canonical normal form.
  bool IsCanonical() const;

  int64_t num_classes() const {
    return class_offsets_.empty()
               ? 0
               : static_cast<int64_t>(class_offsets_.size()) - 1;
  }

  /// The i-th equivalence class as a span over the row-id arena.
  ClassSpan cls(int64_t i) const {
    const size_t lo = static_cast<size_t>(class_offsets_[static_cast<size_t>(i)]);
    const size_t hi =
        static_cast<size_t>(class_offsets_[static_cast<size_t>(i) + 1]);
    return ClassSpan(row_ids_.data() + lo, hi - lo);
  }

  /// Iterable view yielding every class as a ClassSpan (range-for).
  class ClassIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ClassSpan;
    using difference_type = std::ptrdiff_t;

    ClassIterator(const StrippedPartition* p, int64_t i) : p_(p), i_(i) {}
    ClassSpan operator*() const { return p_->cls(i_); }
    ClassIterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const ClassIterator& o) const { return i_ == o.i_; }
    bool operator!=(const ClassIterator& o) const { return i_ != o.i_; }

   private:
    const StrippedPartition* p_;
    int64_t i_;
  };

  class ClassRange {
   public:
    explicit ClassRange(const StrippedPartition* p) : p_(p) {}
    ClassIterator begin() const { return ClassIterator(p_, 0); }
    ClassIterator end() const { return ClassIterator(p_, p_->num_classes()); }
    bool empty() const { return p_->num_classes() == 0; }

   private:
    const StrippedPartition* p_;
  };

  ClassRange classes() const { return ClassRange(this); }

  /// The flat row-id arena (all classes back to back) and its offsets —
  /// the wire format for shipping a partition across shards.
  const std::vector<int32_t>& row_ids() const { return row_ids_; }
  const std::vector<int32_t>& class_offsets() const { return class_offsets_; }

  /// Appends the CSR wire encoding (little-endian, fixed width) to `out`:
  /// u64 class count, u64 covered-row count, the class_offsets array,
  /// then the row_ids arena. Because every materialized partition is
  /// canonical, the encoding — like the partition value itself — is a
  /// pure function of the attribute set, so shards can compare or hash
  /// shipped partitions byte-wise.
  void SerializeTo(std::vector<uint8_t>* out) const;
  std::vector<uint8_t> Serialize() const {
    std::vector<uint8_t> out;
    SerializeTo(&out);
    return out;
  }

  /// Parses one partition from the front of [data, data + size) as
  /// written by SerializeTo. Rejects (ParseError) truncated buffers and
  /// any structurally invalid payload: offsets that do not start at 0 or
  /// do not ascend by at least 2 (stripped classes have >= 2 rows), row
  /// ids outside [0, num_rows), rows appearing in more than one class,
  /// and partitions not in canonical normal form — a decoded partition
  /// must uphold exactly the invariants a locally materialized one does,
  /// or the cross-shard determinism contract dies silently.
  /// On success `*consumed` (optional) receives the bytes read.
  static Result<StrippedPartition> Deserialize(const uint8_t* data,
                                               size_t size, int64_t num_rows,
                                               size_t* consumed = nullptr);

  /// Sum of class sizes (rows covered by non-singleton classes). Also the
  /// planner's derivation-cost proxy: a product reads exactly the covered
  /// rows of its left operand twice (count, then scatter) and never the
  /// single-attribute side, so 2 * rows_covered is what extending this
  /// partition by one more attribute costs.
  int64_t rows_covered() const { return rows_covered_; }

  /// TANE's e(Π) = ||Π|| - |Π|: the number of tuples that must change for
  /// the partition to become a set of singletons; equal partitions on X
  /// and X∪{A} (same error) certify the exact FD/OFD X: [] -> A.
  int64_t error() const { return rows_covered_ - num_classes(); }

  /// Exact heap + object footprint in bytes (feeds the cache's
  /// bytes_resident() accounting).
  int64_t bytes() const {
    return static_cast<int64_t>(sizeof(StrippedPartition)) +
           static_cast<int64_t>(row_ids_.capacity() * sizeof(int32_t)) +
           static_cast<int64_t>(class_offsets_.capacity() * sizeof(int32_t));
  }

  /// "{{0,3},{1,2,4}}" for debugging and tests.
  std::string ToString() const;

 private:
  /// The product kernel: buckets each class of this partition by
  /// keys[row] in [0, key_count); with kSkipUnlabeled, rows whose key is
  /// negative are in no bucket.
  template <bool kSkipUnlabeled>
  StrippedPartition ProbeProduct(const int32_t* keys, int64_t key_count,
                                 PartitionScratch& s) const;

  /// Row ids of all classes, concatenated in class order.
  std::vector<int32_t> row_ids_;
  /// class i occupies row_ids_[class_offsets_[i] .. class_offsets_[i+1]).
  /// Empty (not {0}) when the partition has no classes. int32 suffices:
  /// offsets are bounded by rows_covered <= num_rows < 2^31 (row ids are
  /// int32 themselves).
  std::vector<int32_t> class_offsets_;
  int64_t rows_covered_ = 0;
};

}  // namespace aod

#endif  // AOD_PARTITION_STRIPPED_PARTITION_H_
