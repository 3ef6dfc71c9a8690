// The AOD discovery framework (paper Sec. 3.1, Fig. 1).
//
// Level-wise traversal of the set-based attribute lattice after FASTOD
// [9,10]: at each node X the framework validates OFD candidates
// X\{A}: [] -> A and OC candidates X\{A,B}: A ~ B, prunes with the
// candidate-set axioms, and scores valid dependencies by interestingness.
// The AOC validation step is pluggable — the whole point of the paper is
// that swapping the iterative validator (Alg. 1) for the LIS-based one
// (Alg. 2) turns an impractical discovery algorithm into one on par with
// exact OD discovery, while making it complete.
#ifndef AOD_OD_DISCOVERY_H_
#define AOD_OD_DISCOVERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"
#include "od/canonical_od.h"
#include "od/dependency_kind.h"
#include "od/discovery_stats.h"
#include "od/hybrid_sampler.h"

namespace aod {

class StrippedPartition;

namespace exec {
class ThreadPool;
}  // namespace exec

namespace shard {
class ShardChannel;
}  // namespace shard

/// A snapshot of traversal progress, delivered through
/// DiscoveryOptions::progress at each completed lattice level (from the
/// serial merge phase, so callbacks never race each other). The serving
/// layer relays these as kJobStatus frames.
struct DiscoveryProgress {
  /// The lattice level that just finished merging.
  int level = 0;
  /// Nodes merged at that level.
  int64_t nodes_merged = 0;
  /// Dependency totals so far (across all completed levels).
  int64_t total_ocs = 0;
  int64_t total_ofds = 0;
  int64_t total_fds = 0;
  int64_t total_afds = 0;
};

/// Which validation algorithm drives the search.
enum class ValidatorKind {
  /// Exact OD discovery: epsilon is treated as 0 and the linear
  /// early-exit validators are used (the paper's "OD" baseline).
  kExact,
  /// AOD discovery with the greedy iterative AOC validator of [9,10]
  /// (paper Alg. 1) — the quadratic, incomplete baseline.
  kIterative,
  /// AOD discovery with the minimal, optimal LIS-based AOC validator
  /// (paper Alg. 2) — this paper's contribution.
  kOptimal,
};

const char* ValidatorKindToString(ValidatorKind kind);

/// How candidate batches reach the shard runners: always one spawned
/// shard_runner_main process per shard over localhost TCP (src/shard/,
/// "Shard transport" in ARCHITECTURE.md). The enum has this one value
/// and is kept only so existing callers (perfbench) still build; a
/// later benchmark change can drop it.
enum class ShardTransport {
  kProcess,
};

struct DiscoveryOptions {
  /// Which dependency kinds the traversal searches for. The default is
  /// the paper's OD decomposition (OC + OFD); FD/AFD ride the same
  /// level-wise traversal as independent candidate groups, so any subset
  /// of kinds yields exactly the results the single-kind runs would
  /// (see ARCHITECTURE.md, "Dependency kinds").
  DependencyKindSet kinds = DependencyKindSet::OdDefault();
  /// Approximation threshold in [0, 1] (the paper's default is 0.10).
  /// Applies to the OC/OFD kinds under the approximate validators.
  double epsilon = 0.10;
  /// g1-error threshold in [0, 1] for the AFD kind: X -> A is reported
  /// when the fraction of ordered tuple pairs agreeing on X but not on A
  /// is at most this. Independent of `epsilon` and of `validator` — AFDs
  /// are inherently approximate, so the exact-validator setting does not
  /// zero this threshold.
  double afd_error = 0.05;
  /// Keep only the top_k highest-ranked dependencies across all kinds
  /// (0 = keep everything, in merge order). When set, the result list is
  /// sorted by the deterministic interestingness ranking (score desc,
  /// then level, kind, attributes) and truncated — identical for any
  /// thread count, shard count and transport. Stats
  /// still count every discovered dependency.
  int64_t top_k = 0;
  ValidatorKind validator = ValidatorKind::kOptimal;
  /// Stop after this lattice level (0 = traverse to the top).
  int max_level = 0;
  /// Bound on the left-hand-side (context) arity of emitted candidates
  /// (0 = unbounded). An OFD at level L has |context| = L-1 and an OC
  /// has |context| = L-2, so with a bound m the traversal stops
  /// emitting OFD targets past level m+1 and OC pairs past level m+2 —
  /// a prefix-consistent subset of the unbounded run (pinned in
  /// discovery_test): every dependency with LHS arity <= m is found,
  /// with identical fields, and nothing else is. Shrinks the candidate
  /// space, the result volume and the shard wire volume in one option.
  int max_lhs_arity = 0;
  /// Abort (with partial results and timed_out set) once the run exceeds
  /// this many seconds (0 = unlimited). Mirrors the paper's 24h cap on
  /// the iterative runs.
  double time_budget_seconds = 0.0;
  /// Cooperative external cancellation: polled at exactly the seams the
  /// time budget is polled at (between candidates, between phases, in
  /// every shard-seam wait), so a cancelled run winds down as promptly
  /// as a deadline-hit run and sets DiscoveryResult::cancelled. Must be
  /// thread-safe (workers poll it concurrently) and cheap — an atomic
  /// load. The serving layer points this at the job's kill switch so a
  /// client disconnect reclaims the job's CPU mid-level. Empty = never.
  std::function<bool()> cancel;
  /// Per-level progress notifications (see DiscoveryProgress). Invoked
  /// from the driver's serial merge thread only. Empty = silent.
  std::function<void(const DiscoveryProgress&)> progress;
  /// Warm-start seam for resident services: when set (and the run is
  /// unsharded), the single-attribute base partitions are copied from
  /// this table-fingerprint-keyed cache entry instead of being re-sorted
  /// out of the columns — the expensive first step of a cold run.
  /// Indexed by attribute; must match the table (same row count and
  /// column order) and hold canonical values, which is guaranteed when
  /// it was built by StrippedPartition::FromColumn over the same
  /// EncodedTable. Borrowed; must outlive the call.
  const std::vector<std::shared_ptr<const StrippedPartition>>*
      warm_base_partitions = nullptr;
  /// Materialize removal sets on discovered dependencies (costly; used by
  /// the data-cleaning example).
  bool collect_removal_sets = false;
  /// Also search the bidirectional polarity class A asc ~ B desc for
  /// every OC candidate (Szlichta et al. [10]). Roughly doubles the OC
  /// validation work.
  bool bidirectional = false;
  /// Worker threads for candidate validation and partition
  /// materialization (1 = serial, 0 = hardware concurrency). Candidate
  /// work within a level is embarrassingly parallel — the shared-nothing
  /// analogue of the distributed dependency discovery of Saxena et al.
  /// [8]. The dependency lists and non-timing stats are bit-identical to
  /// the serial run for any thread count (see ARCHITECTURE.md for the
  /// determinism contract). Ignored when `pool` is set.
  int num_threads = 1;
  /// Optional externally owned thread pool to run on. Passing one reuses
  /// its (already warm) workers across DiscoverOds calls instead of
  /// spawning threads per run; its worker count overrides num_threads.
  /// The pool is borrowed, never owned, and must outlive the call.
  exec::ThreadPool* pool = nullptr;
  /// Put the hybrid sampling fast-rejection (od/hybrid_sampler.h, the
  /// paper's future-work direction after [6]) in front of every AOC
  /// validation. Only meaningful with ValidatorKind::kOptimal. Accepted
  /// dependencies are always exactly validated; with adversarial data a
  /// borderline-valid candidate can be fast-rejected with probability
  /// decaying in sampler_config.sample_size.
  bool enable_sampling_filter = false;
  SamplerConfig sampler_config;
  /// Byte budget for materialized partitions (0 = unlimited). When the
  /// cache exceeds it at a level boundary, the coldest derived partitions
  /// are evicted in deterministic order and re-derived on demand through
  /// the planner. The level-0/1 base partitions are never evicted, so the
  /// effective floor is their footprint. With num_shards >= 1 the budget
  /// applies to each shard runner's cache, enforced after every batch.
  int64_t partition_memory_budget_bytes = 0;
  /// Number of logical shards candidate validation is distributed over
  /// (0 = unsharded in-process validation, the default). With N >= 1 the
  /// candidate space of every lattice level is split by a pure hash of
  /// the candidate's context set across N spawned shard_runner_main
  /// processes (see shard_runner_path); partitions and
  /// results cross the shard seam in the checksummed CSR wire format
  /// (src/shard/), and the deterministic key-ordered merge reduces the
  /// shard outputs. Dependency lists and all merge-side counters are
  /// bit-identical to the unsharded run for any shard count and any
  /// thread count; partition-side counters (products, resident bytes)
  /// reflect shard-local derivation and legitimately differ from the
  /// unsharded schedule (see ARCHITECTURE.md, "Sharded discovery").
  int num_shards = 0;
  /// Row-space sharding of the base-partition phase (0 = off, the
  /// default; 1..1024 = split the *rows*). Orthogonal to — and
  /// composable with — num_shards' candidate-space axis: the
  /// coordinator assigns each row shard one contiguous row range, ships
  /// only that slice of the table (O(rows / row_shards) table bytes per
  /// shard instead of O(rows)), each shard partitions its own rows
  /// locally, and the class-stitching reducer
  /// (partition/partition_stitch.h) merges the per-range fragments back
  /// into the canonical base partitions — bit-identical to the
  /// unsharded FromColumn bases, so dependency output is unchanged for
  /// any row_shards x threads combination (gated in
  /// tests/parallel_determinism_test). The stitched bases feed the
  /// unsharded driver's cache preload or, with num_shards >= 1, the
  /// candidate-space coordinator's bootstrap. Each row shard is one
  /// spawned shard_runner_main; fail-stop via
  /// DiscoveryResult::shard_status (no retry ladder — the phase is a
  /// short bounded prologue), a runner that cannot be resolved or
  /// started included.
  int row_shards = 0;
  /// Has one value, kProcess, and is not consulted: every sharded run
  /// spawns runner processes. Kept only so perfbench builds until a
  /// benchmark change drops it. The time budget is enforced between
  /// levels (runner processes validate their batch to completion), and
  /// an unrecovered shard failure aborts the run with
  /// DiscoveryResult::shard_status set instead of crashing.
  ShardTransport shard_transport = ShardTransport::kProcess;
  /// shard_runner_main binary for sharded runs (num_shards or
  /// row_shards >= 1); empty resolves to $AOD_SHARD_RUNNER, then to
  /// shard_runner_main beside the running executable.
  std::string shard_runner_path;
  /// Bound on every shard-seam connect/accept/receive, so a dead runner
  /// surfaces as a typed error instead of a hang. When a time budget is
  /// set, each wait is additionally clamped to the budget's remaining
  /// time, so a dead runner cannot overshoot a budgeted run.
  double shard_io_timeout_seconds = 300.0;
  /// Re-attempts allowed per shard per level before the shard degrades:
  /// a failed attempt is torn down, a fresh runner process is re-seeded
  /// from the coordinator's encode-once bootstrap frames and the level
  /// is re-executed; once the budget is spent, that shard's slice is
  /// validated on the coordinator's pool — directly, with no channel —
  /// for the rest of the run. 0 disables ALL supervision (retry, fallback):
  /// any shard fault is the typed fail-stop abort via
  /// DiscoveryResult::shard_status, exactly the pre-supervision
  /// behavior. Output stays bit-identical under any fault schedule that
  /// completes (src/shard/supervisor.h).
  int shard_max_retries = 2;
  /// Base backoff before a shard's first re-attempt; doubles per
  /// attempt with deterministic jitter, capped at 2s.
  double shard_retry_backoff_ms = 25.0;
  /// Test seam: wraps every coordinator-side shard channel (e.g. in the
  /// fault-injecting FlakyChannel decorator). Identity when empty.
  std::function<std::unique_ptr<shard::ShardChannel>(
      std::unique_ptr<shard::ShardChannel>)>
      shard_channel_decorator;
};

/// One discovered dependency of any kind — the unified result record of
/// the multi-kind platform (it replaced the per-kind DiscoveredOc /
/// DiscoveredOfd structs).
///
/// Field use by kind:
///   kOc          context: a ~ b (polarity in `opposite`); level =
///                |context| + 2.
///   kOfd/kFd/kAfd  RHS attribute in `a`; b = -1, opposite = false;
///                level = |context| + 1.
/// `error` is the kind's own measure: removal fraction |s|/|r| for
/// OC/OFD (0 for exact discovery), always 0 for exact FDs, and the g1
/// violating-pair fraction for AFDs.
struct DiscoveredDependency {
  DependencyKind kind = DependencyKind::kOc;
  AttributeSet context;
  int a = -1;
  int b = -1;
  bool opposite = false;
  double error = 0.0;
  int64_t removal_size = 0;
  /// Lattice level where validated.
  int level = 0;
  double interestingness = 0.0;
  std::vector<int32_t> removal_rows;

  /// Typed views for the OD kinds (CHECK-fails on a kind mismatch).
  CanonicalOc Oc() const;
  CanonicalOfd Ofd() const;

  /// "{pos}: sal ~ bonus" (OC), "{pos}: [] -> sal" (OFD),
  /// "{pos} -> sal" (FD), "{pos} ~> sal" (AFD).
  std::string ToString(const EncodedTable& table) const;
  std::string ToString() const;
};

struct DiscoveryResult {
  /// Every discovered dependency, all kinds interleaved in deterministic
  /// merge order (per level, per node key: OFDs, OCs, FDs, AFDs) — or in
  /// ranked order when DiscoveryOptions::top_k is set.
  std::vector<DiscoveredDependency> dependencies;
  DiscoveryStats stats;
  /// True when the time budget expired; results are a valid prefix of the
  /// traversal but incomplete.
  bool timed_out = false;
  /// True when DiscoveryOptions::cancel fired: the run wound down early
  /// on request. Results are the same kind of valid prefix a deadline
  /// leaves (timed_out is typically also set — the two flags share the
  /// wind-down path; `cancelled` says who pulled the trigger).
  bool cancelled = false;
  /// OK unless a shard-transport failure (runner died, frame corrupted,
  /// receive timed out, spawn failed) aborted the run. On failure the
  /// dependency list is the complete merge of every level finished
  /// before the fault — never a partially merged level.
  Status shard_status;

  /// Borrowed pointers to the dependencies of one kind, in list order.
  std::vector<const DiscoveredDependency*> OfKind(DependencyKind kind) const;
  std::vector<const DiscoveredDependency*> Ocs() const {
    return OfKind(DependencyKind::kOc);
  }
  std::vector<const DiscoveredDependency*> Ofds() const {
    return OfKind(DependencyKind::kOfd);
  }
  std::vector<const DiscoveredDependency*> Fds() const {
    return OfKind(DependencyKind::kFd);
  }
  std::vector<const DiscoveredDependency*> Afds() const {
    return OfKind(DependencyKind::kAfd);
  }
  int64_t CountOfKind(DependencyKind kind) const;

  /// Sorts the dependency list by descending interestingness (ties:
  /// lower level first, then kind, then attribute order) — the ranking
  /// step of the framework (paper Fig. 1, step 5). The key is unique per
  /// dependency, so the order is the same for any thread or shard count.
  void SortByInterestingness();

  /// Human-readable listing of the top dependencies, grouped by kind.
  std::string Summary(const EncodedTable& table, size_t max_items = 20) const;
};

/// Runs discovery over a rank-encoded table. Requires <= 64 attributes.
DiscoveryResult DiscoverOds(const EncodedTable& table,
                            const DiscoveryOptions& options = {});

}  // namespace aod

#endif  // AOD_OD_DISCOVERY_H_
