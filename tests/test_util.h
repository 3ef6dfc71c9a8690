// Shared fixtures and brute-force oracles for the libaod test suite.
#ifndef AOD_TESTS_TEST_UTIL_H_
#define AOD_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "data/encoder.h"
#include "data/table.h"
#include "gen/random.h"
#include "od/discovery.h"
#include "partition/attribute_set.h"
#include "partition/stripped_partition.h"
#include "shard/channel.h"
#include "shard/supervisor.h"

namespace aod {
namespace testing_util {

/// The shard_runner_main binary sharded tests spawn, by the library's
/// own resolution rule ($AOD_SHARD_RUNNER, else beside the test binary).
/// Empty when nothing resolves.
inline std::string RunnerBinaryPath() { return shard::ResolveRunnerPath(""); }

/// The guard of every healthy-path sharded test: the run completed on
/// its runner processes — no retry, respawn, lost footer or shard
/// degraded to the coordinator. Without it a broken runner could pass
/// a bit-exactness check, because the fallback's output is identical.
inline void ExpectServedByRunners(const DiscoveryResult& result) {
  EXPECT_TRUE(result.shard_status.ok()) << result.shard_status.ToString();
  EXPECT_EQ(result.stats.shard_fallback_shards, 0);
  EXPECT_EQ(result.stats.shard_retries, 0);
  EXPECT_EQ(result.stats.shard_respawns, 0);
  EXPECT_EQ(result.stats.shard_footers_missing, 0);
}

/// Both ends of a connected local stream socket, each wrapped as a
/// SocketShardChannel — a coordinator/runner link without a process.
struct ChannelPair {
  std::unique_ptr<shard::SocketShardChannel> near;
  std::unique_ptr<shard::SocketShardChannel> far;
};

inline ChannelPair SocketChannelPair(shard::ChannelOptions options = {}) {
  int fds[2];
  AOD_CHECK(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) == 0);
  return {shard::SocketShardChannel::Adopt(fds[0], options),
          shard::SocketShardChannel::Adopt(fds[1], options)};
}

/// The paper's Table 1 (employee salaries). Column indices:
/// 0 pos, 1 exp, 2 sal, 3 taxGrp, 4 perc, 5 tax, 6 bonus.
/// Tuple t_i of the paper is row i-1.
inline Table PaperTable1() {
  Schema schema({{"pos", DataType::kString},
                 {"exp", DataType::kInt64},
                 {"sal", DataType::kInt64},
                 {"taxGrp", DataType::kString},
                 {"perc", DataType::kInt64},
                 {"tax", DataType::kDouble},
                 {"bonus", DataType::kInt64}});
  return Table::FromRows(
      std::move(schema),
      {
          // pos,  exp, sal(K), taxGrp, perc, tax(K), bonus(K)
          {"sec", int64_t{1}, int64_t{20}, "A", int64_t{10}, 2.0, int64_t{1}},
          {"sec", int64_t{3}, int64_t{25}, "A", int64_t{10}, 2.5, int64_t{1}},
          {"dev", int64_t{1}, int64_t{30}, "A", int64_t{1}, 0.3, int64_t{3}},
          {"sec", int64_t{5}, int64_t{40}, "B", int64_t{30}, 12.0, int64_t{2}},
          {"dev", int64_t{3}, int64_t{50}, "B", int64_t{3}, 1.5, int64_t{4}},
          {"dev", int64_t{5}, int64_t{55}, "B", int64_t{30}, 16.5,
           int64_t{4}},
          {"dev", int64_t{5}, int64_t{60}, "B", int64_t{3}, 1.8, int64_t{4}},
          {"dev", int64_t{-1}, int64_t{90}, "C", int64_t{8}, 7.2, int64_t{7}},
          {"dir", int64_t{8}, int64_t{200}, "C", int64_t{8}, 16.0,
           int64_t{10}},
      });
}

inline EncodedTable PaperEncoded() { return EncodeTable(PaperTable1()); }

/// Random integer table: `cols` columns, values uniform in [0, cardinality).
inline EncodedTable RandomEncodedTable(int64_t rows, int cols,
                                       int64_t cardinality, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int64_t>> columns(static_cast<size_t>(cols));
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) {
    names.push_back("c" + std::to_string(c));
    for (int64_t r = 0; r < rows; ++r) {
      columns[static_cast<size_t>(c)].push_back(
          rng.UniformInt(0, cardinality - 1));
    }
  }
  return EncodedTableFromInts(names, columns);
}

/// Definition-based partition: group rows by equality on `attrs`.
inline StrippedPartition NaivePartition(const EncodedTable& table,
                                        AttributeSet attrs) {
  std::map<std::vector<int32_t>, std::vector<int32_t>> groups;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    std::vector<int32_t> key;
    attrs.ForEach([&](int a) {
      key.push_back(table.ranks(a)[static_cast<size_t>(r)]);
    });
    groups[key].push_back(static_cast<int32_t>(r));
  }
  std::vector<std::vector<int32_t>> classes;
  for (auto& [key, rows] : groups) classes.push_back(std::move(rows));
  return StrippedPartition::FromClasses(std::move(classes));
}

/// Definition-based swap test (Def. 2.5) over a set of live rows.
inline bool HasSwapNaive(const EncodedTable& table, AttributeSet context,
                         int a, int b, const std::vector<int32_t>& rows) {
  const auto& ra = table.ranks(a);
  const auto& rb = table.ranks(b);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      int32_t s = rows[i];
      int32_t t = rows[j];
      bool same_context = true;
      context.ForEach([&](int c) {
        if (table.ranks(c)[static_cast<size_t>(s)] !=
            table.ranks(c)[static_cast<size_t>(t)]) {
          same_context = false;
        }
      });
      if (!same_context) continue;
      size_t si = static_cast<size_t>(s);
      size_t ti = static_cast<size_t>(t);
      if ((ra[si] < ra[ti] && rb[ti] < rb[si]) ||
          (ra[ti] < ra[si] && rb[si] < rb[ti])) {
        return true;
      }
    }
  }
  return false;
}

/// True iff the OC context: a ~ b holds exactly, straight from Def. 2.5.
inline bool OcHoldsNaive(const EncodedTable& table, AttributeSet context,
                         int a, int b) {
  std::vector<int32_t> all;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    all.push_back(static_cast<int32_t>(r));
  }
  return !HasSwapNaive(table, context, a, b, all);
}

/// True iff the OFD context: [] -> a holds exactly.
inline bool OfdHoldsNaive(const EncodedTable& table, AttributeSet context,
                          int a) {
  for (int64_t s = 0; s < table.num_rows(); ++s) {
    for (int64_t t = s + 1; t < table.num_rows(); ++t) {
      bool same_context = true;
      context.ForEach([&](int c) {
        if (table.ranks(c)[static_cast<size_t>(s)] !=
            table.ranks(c)[static_cast<size_t>(t)]) {
          same_context = false;
        }
      });
      if (same_context && table.ranks(a)[static_cast<size_t>(s)] !=
                              table.ranks(a)[static_cast<size_t>(t)]) {
        return false;
      }
    }
  }
  return true;
}

/// Exponential-time minimal removal set size for an AOC — the ground
/// truth of Def. 2.14. Only usable for tiny inputs (<= ~20 rows).
inline int64_t MinRemovalOcBruteForce(const EncodedTable& table,
                                      AttributeSet context, int a, int b) {
  const int64_t n = table.num_rows();
  std::vector<int32_t> all;
  for (int64_t r = 0; r < n; ++r) all.push_back(static_cast<int32_t>(r));
  // Search by increasing removal size: find the largest swap-free subset.
  for (int64_t keep = n; keep >= 0; --keep) {
    // Enumerate subsets of size `keep` via combinations.
    std::vector<bool> select(static_cast<size_t>(n), false);
    std::fill(select.begin(), select.begin() + static_cast<size_t>(keep),
              true);
    do {
      std::vector<int32_t> rows;
      for (int64_t r = 0; r < n; ++r) {
        if (select[static_cast<size_t>(r)]) {
          rows.push_back(static_cast<int32_t>(r));
        }
      }
      if (!HasSwapNaive(table, context, a, b, rows)) {
        return n - keep;
      }
    } while (std::prev_permutation(select.begin(), select.end()));
  }
  return n;
}

/// O(m^2) LNDS length oracle.
inline int64_t LndsLengthNaive(const std::vector<int32_t>& xs) {
  std::vector<int64_t> best(xs.size(), 1);
  int64_t out = xs.empty() ? 0 : 1;
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (xs[j] <= xs[i]) best[i] = std::max(best[i], best[j] + 1);
    }
    out = std::max(out, best[i]);
  }
  return out;
}

}  // namespace testing_util
}  // namespace aod

#endif  // AOD_TESTS_TEST_UTIL_H_
