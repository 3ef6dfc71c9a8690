// Pins the ValidatorScratch contract: once a scratch has been warmed up on
// a candidate, validating it again performs no heap allocation — also
// through CandidateValidator, whose pool must hand the warm scratch back.
//
// This binary replaces the global operator new with a counting one, which
// is why the test lives in a file of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "od/aoc_lis_validator.h"
#include "od/oc_validator.h"
#include "od/validator_registry.h"
#include "test_util.h"

namespace {
std::atomic<int64_t> g_allocations{0};

void* CountedMalloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line: a free() inlined into a caller that used `new` trips GCC's
// -Wmismatched-new-delete, which does not know `new` is replaced too.
[[gnu::noinline]] void FreeOutOfLine(void* p) noexcept { std::free(p); }
}  // namespace

// Every unaligned form is replaced, so each pointer the deletes below
// receive came from malloc (sanitizers check that pairing).
void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { FreeOutOfLine(p); }
void operator delete[](void* p) noexcept { FreeOutOfLine(p); }
void operator delete(void* p, std::size_t) noexcept { FreeOutOfLine(p); }
void operator delete[](void* p, std::size_t) noexcept { FreeOutOfLine(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  FreeOutOfLine(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  FreeOutOfLine(p);
}

namespace aod {
namespace {

/// Heap allocations performed by `fn`.
int64_t AllocationsDuring(const std::function<void()>& fn) {
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ValidatorAllocationTest, CounterSeesVectorGrowth) {
  EXPECT_GT(AllocationsDuring([] { std::vector<int32_t> v(16); }), 0);
}

TEST(ValidatorAllocationTest, WarmScratchValidatesWithoutAllocating) {
  // 3000 rows: the whole relation is one radix-sorted class, the
  // 40-valued context splits it into std::sort-sized classes.
  const EncodedTable t = testing_util::RandomEncodedTable(3000, 3, 40, 7);
  const StrippedPartition whole = StrippedPartition::WholeRelation(3000);
  const StrippedPartition by_c0 = StrippedPartition::FromColumn(t.column(0));
  ValidatorScratch scratch;
  for (const StrippedPartition* p : {&whole, &by_c0}) {
    for (bool opposite : {false, true}) {
      for (bool early_exit : {true, false}) {
        ValidatorOptions options;
        options.opposite_polarity = opposite;
        options.early_exit = early_exit;
        const std::function<void()> calls[] = {
            [&] {
              ValidateAocOptimal(t, *p, 1, 2, 0.1, 3000, options, &scratch);
            },
            [&] {
              ValidateAodOptimal(t, *p, 1, 2, 0.1, 3000, options, &scratch);
            },
            [&] { ValidateOcExact(t, *p, 1, 2, opposite, &scratch); },
        };
        for (const auto& call : calls) {
          call();  // warm-up: the scratch buffers grow here
          EXPECT_EQ(AllocationsDuring(call), 0)
              << "opposite=" << opposite << " early_exit=" << early_exit
              << " classes=" << p->num_classes();
        }
      }
    }
  }
}

TEST(ValidatorAllocationTest, CandidateValidatorReusesPooledScratch) {
  const EncodedTable t = testing_util::RandomEncodedTable(3000, 3, 40, 7);
  const StrippedPartition by_c0 = StrippedPartition::FromColumn(t.column(0));
  const AttributeSet context = AttributeSet::Of({0});
  for (ValidatorKind algorithm :
       {ValidatorKind::kOptimal, ValidatorKind::kExact}) {
    CandidateValidator validator(&t, algorithm, 0.1, 0.05,
                                 /*collect_removal_sets=*/false);
    const auto call = [&] {
      validator.Validate(context, by_c0, DependencyKind::kOc, -1,
                         AttributePair::Of(1, 2, false));
    };
    call();  // warm-up: the pool's first scratch grows here
    EXPECT_EQ(AllocationsDuring(call), 0)
        << ValidatorKindToString(algorithm);
  }
}

}  // namespace
}  // namespace aod
