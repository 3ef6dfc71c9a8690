#include "od/discovery.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "exec/parallel_for.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "od/lattice.h"
#include "od/validator_registry.h"
#include "partition/partition_cache.h"
#include "shard/coordinator.h"
#include "shard/row_sharding.h"

namespace aod {
namespace {

/// Candidate slot order within a node, which fixes the order of its
/// dependencies in the result and the layout of the shard wire's slots:
/// OFDs, OCs, FDs, AFDs. The OFD/OC prefix is the pre-multi-kind layout.
constexpr DependencyKind kSlotOrder[] = {
    DependencyKind::kOfd, DependencyKind::kOc, DependencyKind::kFd,
    DependencyKind::kAfd};

/// The named per-kind counters of DiscoveryStats, indexed by
/// DependencyKind.
struct KindCounters {
  double DiscoveryStats::*seconds;
  int64_t DiscoveryStats::*validated;
};
constexpr KindCounters kKindCounters[kNumDependencyKinds] = {
    {&DiscoveryStats::oc_validation_seconds,
     &DiscoveryStats::oc_candidates_validated},
    {&DiscoveryStats::ofd_validation_seconds,
     &DiscoveryStats::ofd_candidates_validated},
    {&DiscoveryStats::fd_validation_seconds,
     &DiscoveryStats::fd_candidates_validated},
    {&DiscoveryStats::afd_validation_seconds,
     &DiscoveryStats::afd_candidates_validated},
};

/// The candidate lists of one lattice node, computed in the planning
/// phase from the completed level below (read-only), before any
/// validation of the current level runs.
struct NodePlan {
  /// Per group (LatticeGroup): C+(X) = ∩_{A∈X} C+(X\{A}) before this
  /// level's results, and whether every (L-1)-subset survived for the
  /// group, i.e. whether this node is part of the group's standalone
  /// lattice (consumed by the merge's liveness rule).
  std::array<AttributeSet, kNumLatticeGroups> cc;
  std::array<bool, kNumLatticeGroups> present{};
  /// Per target kind, indexed by DependencyKind (the kOc entry stays
  /// empty): targets A ∈ X ∩ cc[group], ascending, each validated in
  /// context X\{A}.
  std::array<std::vector<int>, kNumDependencyKinds> targets;
  /// OC candidate pairs surviving inheritance and constancy pruning, in
  /// deterministic generation order (lexicographic, polarity inner).
  std::vector<AttributePair> oc_pairs;
  int64_t oc_pruned = 0;
  /// First slot of this node's candidates in the level's flattened
  /// candidate array, laid out in kSlotOrder.
  size_t first_slot = 0;
  uint8_t planned = 0;

  size_t NumCandidates() const {
    size_t n = oc_pairs.size();
    for (const std::vector<int>& t : targets) n += t.size();
    return n;
  }
};

/// Outcome slot, written exclusively by the worker that claimed the
/// candidate's validation unit (or the shard fold) and read only after
/// the phase join.
struct CandidateOutcome : CandidateVerdict {
  uint8_t done = 0;
};

/// Run state threaded through the level loop. Each level goes through
/// three phases on the (optional) thread pool:
///
///   1. plan      — per node: candidate sets from the level below
///   2. validate  — per candidate: the fine-grained parallel unit
///   3. merge     — serial, in sorted key order: deterministic output
///
/// Next-level context partitions are *prefetched*, not phase-built: as a
/// node survives the merge, its partition starts deriving on the pool
/// (fire-and-forget TaskGroup task), so partition work overlaps the rest
/// of the merge and the next level's planning instead of sitting behind
/// a materialize barrier. Validators that reach a partition before its
/// prefetch finishes block on the cache's once-per-key future.
///
/// Workers in phases 1/2 and the prefetch tasks read shared state
/// (`previous`, the cache) and write only their own plan/outcome slot;
/// the merge alone mutates the lattice and the result. Combined with the
/// cache's canonical partition values and deterministic derivation plans
/// (published catalog, see partition_cache.h) this makes the dependency
/// lists and every non-timing counter bit-identical for any thread
/// count.
struct Driver {
  const EncodedTable& table;
  const DiscoveryOptions& options;
  /// The enabled kind set; the OD group (the original cc/cs machinery)
  /// covers kOc and kOfd jointly.
  DependencyKindSet kinds;
  PartitionCache cache;
  DiscoveryResult result;
  Stopwatch total_clock;
  std::atomic<bool> deadline_hit{false};
  std::atomic<bool> cancel_hit{false};

  /// Unsharded validation; with sharding each runner owns its own.
  CandidateValidator validator;
  /// Pool the run executes on: borrowed from options.pool, created for
  /// the run when only num_threads is set, or null for a serial run
  /// (one thread, including a borrowed 1-worker pool).
  std::unique_ptr<exec::ThreadPool> owned_pool;
  exec::ThreadPool* pool = nullptr;
  std::atomic<int64_t> partition_nanos{0};
  /// Fire-and-forget prefetch of next-level context partitions, forked
  /// during the merge. Declared after the pool members so it joins before
  /// the pool dies; the driver also waits explicitly before budget
  /// eviction (which needs a quiescent cache) and before final stats.
  std::unique_ptr<exec::TaskGroup> prefetch_group;
  /// Survivors of the previous level, in merge (= sorted key) order;
  /// their realized costs are published to the planner catalog at the
  /// next level's merge start.
  std::vector<AttributeSet> pending_costs;
  /// Sharded validation (options.num_shards >= 1): candidate batches go
  /// out to runner processes and results come back over the CSR wire
  /// format; the driver's own cache, validator and prefetch pipeline
  /// sit idle — partitions live shard-side. Null in unsharded runs and
  /// when coordinator setup failed (coordinator_status says why).
  std::unique_ptr<shard::ShardCoordinator> coordinator;
  Status coordinator_status;
  /// Row-shard phase products (options.row_shards >= 1): the stitched
  /// base partitions, bit-identical to FromColumn, consumed by the
  /// unsharded preload (moved out) or the candidate-space coordinator's
  /// bootstrap (borrowed for the encode, then dropped). Empty after
  /// consumption, or when the phase failed — row_shard_status says why,
  /// and Run() aborts with it as DiscoveryResult::shard_status.
  std::vector<StrippedPartition> row_bases;
  Status row_shard_status;

  Driver(const EncodedTable& t, const DiscoveryOptions& o)
      : table(t),
        options(o),
        kinds(o.kinds),
        cache(&t, PartitionCache::DeferBasePartitions{}),
        validator(&t, o.validator, o.epsilon, o.afd_error,
                  o.collect_removal_sets) {
    // Base partitions are built exactly once per run: into this cache
    // for unsharded validation, or by the coordinator (which ships them
    // to the shard caches) when sharding is on — the driver cache then
    // stays empty rather than holding a dead copy of the base footprint.
    // A warm provider (resident service, same table fingerprint) swaps
    // the per-column sort for a copy of an already-canonical value.
    // Row-space sharding runs first: the stitched bases then stand in
    // for FromColumn everywhere below. The phase is fail-stop — on any
    // transport or decode error Run() aborts before the traversal with
    // the typed status, so a half-stitched base can never be used.
    if (options.row_shards >= 1) {
      shard::ShardTransportOptions rtopts;
      rtopts.runner_path = options.shard_runner_path;
      rtopts.io_timeout_seconds = options.shard_io_timeout_seconds;
      shard::RowShardStats rstats;
      Result<std::vector<StrippedPartition>> bases =
          shard::ComputeRowShardedBases(table, options.row_shards, rtopts,
                                        &rstats);
      result.stats.row_shards_used = options.row_shards;
      result.stats.row_shard_bytes_per_shard =
          std::move(rstats.table_bytes_per_shard);
      result.stats.row_shard_bytes_shipped = rstats.bytes_shipped_total;
      result.stats.row_shard_bytes_raw =
          rstats.slice_counts.raw + rstats.fragment_counts.raw;
      result.stats.row_shard_bytes_wire =
          rstats.slice_counts.wire + rstats.fragment_counts.wire;
      if (bases.ok()) {
        row_bases = std::move(bases).value();
      } else {
        row_shard_status = bases.status();
      }
    }
    if (options.num_shards < 1 && row_shard_status.ok()) {
      const auto* warm = options.warm_base_partitions;
      const bool have_row =
          static_cast<int>(row_bases.size()) == table.num_columns();
      for (int a = 0; a < table.num_columns(); ++a) {
        const bool have_warm = warm != nullptr &&
                               static_cast<size_t>(a) < warm->size() &&
                               (*warm)[static_cast<size_t>(a)] != nullptr;
        cache.Preload(
            AttributeSet().With(a),
            have_row
                ? std::move(row_bases[static_cast<size_t>(a)])
                : (have_warm
                       ? StrippedPartition(*(*warm)[static_cast<size_t>(a)])
                       : StrippedPartition::FromColumn(table.column(a))));
      }
      row_bases.clear();
    }
    // A run on one thread is the serial run, whether or not it was
    // handed a pool: ParallelFor would run inline on a 1-worker pool, and
    // with no pool the prefetch runs inline too.
    const int threads = std::max(
        1, options.pool != nullptr ? options.pool->num_workers()
           : options.num_threads == 0
               ? exec::ThreadPool::HardwareConcurrency()
               : options.num_threads);
    if (threads > 1) {
      pool = options.pool;
      if (pool == nullptr) {
        owned_pool = std::make_unique<exec::ThreadPool>(threads);
        pool = owned_pool.get();
      }
    }
    prefetch_group = std::make_unique<exec::TaskGroup>(pool);
    result.stats.threads_used = threads;
    if (options.num_shards >= 1) {
      shard::ShardRunnerOptions ropts;
      ropts.validator = options.validator;
      ropts.epsilon = options.epsilon;
      ropts.kinds = options.kinds;
      ropts.afd_error = options.afd_error;
      ropts.collect_removal_sets = options.collect_removal_sets;
      ropts.partition_memory_budget_bytes =
          options.partition_memory_budget_bytes;
      shard::ShardTransportOptions topts;
      topts.runner_path = options.shard_runner_path;
      topts.io_timeout_seconds = options.shard_io_timeout_seconds;
      topts.channel_decorator = options.shard_channel_decorator;
      if (options.time_budget_seconds > 0) {
        // Clamp every shard-seam wait to the run budget: a dead runner
        // costs at most the remaining budget, not the full I/O timeout.
        topts.run_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options.time_budget_seconds));
      }
      if (row_shard_status.ok()) {
        Result<std::unique_ptr<shard::ShardCoordinator>> created =
            shard::ShardCoordinator::Create(
                &table, options.num_shards, ropts, topts, pool,
                row_bases.empty() ? nullptr : &row_bases);
        if (created.ok()) {
          coordinator = std::move(created).value();
        } else {
          coordinator_status = created.status();
        }
        // The bootstrap frames are encoded; the stitched copies are dead.
        row_bases.clear();
      }
      result.stats.shards_used = options.num_shards;
    }
  }

  /// Deadline flag ordering audit: relaxed suffices on both sides. The
  /// flag is monotonic (set once, never cleared) and guards no data — a
  /// reader that sees a stale `false` merely starts one more candidate,
  /// and a reader seeing `true` only *skips* work. The outcomes the merge
  /// does consume are published by ParallelFor's / the shard TaskGroup's
  /// internal join, not by this flag, so no acquire/release pairing is
  /// needed here.
  bool OverBudget() {
    if (options.time_budget_seconds > 0.0 &&
        total_clock.ElapsedSeconds() > options.time_budget_seconds) {
      deadline_hit.store(true, std::memory_order_relaxed);
    }
    // External cancellation shares the deadline's seams and wind-down
    // path exactly; cancel_hit only adds who-pulled-the-trigger
    // attribution (DiscoveryResult::cancelled). The callback is polled
    // from worker threads, so it must be thread-safe (documented on the
    // option).
    if (options.cancel && !cancel_hit.load(std::memory_order_relaxed) &&
        options.cancel()) {
      cancel_hit.store(true, std::memory_order_relaxed);
      deadline_hit.store(true, std::memory_order_relaxed);
    }
    return deadline_hit.load(std::memory_order_relaxed);
  }

  exec::ParallelForOptions PhaseOptions(int64_t grain = 1) {
    exec::ParallelForOptions opts;
    opts.grain = grain;
    opts.cancel = [this] { return OverBudget(); };
    return opts;
  }

  /// Phase 1 (parallel over nodes): candidate generation against the
  /// completed level below. Pure function of `previous`.
  NodePlan PlanNode(AttributeSet x, const LatticeLevel& previous) {
    NodePlan plan;
    plan.planned = 1;
    const int level = x.size();

    // Per-group candidate-set intersections (C+(X) = ∩_{A∈X} C+(X\{A}))
    // and per-group presence against the completed level below. A group
    // participates at X only when every (L-1)-subset is alive *for that
    // group* — each enabled group thereby walks exactly its standalone
    // lattice, so enabling one kind never perturbs another kind's
    // results (a node kept alive by the FD group alone generates no
    // extra OC/OFD candidates, and vice versa).
    for (int k = 0; k < kNumDependencyKinds; ++k) {
      if (kinds.Contains(static_cast<DependencyKind>(k))) {
        plan.present[kGroupOfKind[k]] = true;
      }
    }
    plan.cc.fill(AttributeSet::FullSet(table.num_columns()));
    x.ForEach([&](int a) {
      const LatticeNode* sub = previous.Find(x.Without(a));
      AOD_CHECK_MSG(sub != nullptr, "missing subset node at level %d",
                    level - 1);
      for (int g = 0; g < kNumLatticeGroups; ++g) {
        plan.present[g] = plan.present[g] && sub->alive[g];
        plan.cc[g] = plan.cc[g].Intersect(sub->cc[g]);
      }
    });

    // max_lhs_arity bounds the *context* size of emitted candidates: a
    // target-kind candidate (OFD/FD/AFD) at this level has |context| =
    // level-1, an OC has level-2. Everything below the cutoff is
    // generated (and pruned, and merged) exactly as in the unbounded
    // run, which is what makes the bounded result a prefix-consistent
    // subset. The bound is uniform across kinds.
    const int arity_bound = options.max_lhs_arity;
    const bool target_arity_ok = arity_bound == 0 || level - 1 <= arity_bound;

    // Target candidates of every group (OFD, FD, AFD): A ∈ X ∩ C+(X)
    // against the group's own candidate set, validated in context X\{A}.
    for (int g = 0; g < kNumLatticeGroups; ++g) {
      const DependencyKind kind = kTargetKindOfGroup[g];
      if (!plan.present[g] || !kinds.Contains(kind) || !target_arity_ok) {
        continue;
      }
      std::vector<int>& targets = plan.targets[static_cast<int>(kind)];
      x.Intersect(plan.cc[g]).ForEach([&](int a) { targets.push_back(a); });
    }

    // OC candidates, in both polarities when requested.
    if (plan.present[kOdGroup] && kinds.Contains(DependencyKind::kOc) &&
        level >= 2 &&
        (arity_bound == 0 || level - 2 <= arity_bound)) {
      std::vector<int> attrs = x.ToVector();
      for (size_t i = 0; i < attrs.size(); ++i) {
        for (size_t j = i + 1; j < attrs.size(); ++j) {
          for (int polarity = 0; polarity < (options.bidirectional ? 2 : 1);
               ++polarity) {
            AttributePair pair =
                AttributePair::Of(attrs[i], attrs[j], polarity == 1);
            // C_s+(X): the candidate must have survived in every subset
            // lacking one other attribute.
            bool inherited = true;
            if (level >= 3) {
              x.ForEach([&](int c) {
                if (c == pair.a || c == pair.b || !inherited) return;
                const LatticeNode* sub = previous.Find(x.Without(c));
                AOD_CHECK(sub != nullptr);
                if (!std::binary_search(sub->cs.begin(), sub->cs.end(),
                                        pair)) {
                  inherited = false;
                }
              });
            }
            if (!inherited) continue;

            // FASTOD's constancy-based pruning: drop {A,B} when
            // A ∉ C_c+(X\{B}) or B ∉ C_c+(X\{A}) — some OFD in the
            // context makes this OC candidate trivially true or redundant
            // with a smaller-context candidate. Constancy trivializes
            // both polarities alike.
            const LatticeNode* sub_b = previous.Find(x.Without(pair.b));
            const LatticeNode* sub_a = previous.Find(x.Without(pair.a));
            AOD_CHECK(sub_a != nullptr && sub_b != nullptr);
            if (!sub_b->cc[kOdGroup].Contains(pair.a) ||
                !sub_a->cc[kOdGroup].Contains(pair.b)) {
              ++plan.oc_pruned;
              continue;
            }
            plan.oc_pairs.push_back(pair);
          }
        }
      }
    }
    return plan;
  }

  /// Phase 2 (parallel over validation units): one candidate or one OC
  /// group, writing only its members' outcome slots. Contexts were
  /// prefetched while the level below merged, so the Get is normally a
  /// cache hit; it stays safe (and value-deterministic) either way.
  void ValidateUnit(const std::vector<Candidate>& candidates,
                    std::span<const uint32_t> unit,
                    std::vector<CandidateOutcome>& outcomes) {
    auto partition = cache.Get(candidates[unit[0]].context);
    validator.ValidateUnit(candidates, unit, *partition,
                           [&](uint32_t i, CandidateVerdict&& verdict) {
                             CandidateOutcome& out = outcomes[i];
                             static_cast<CandidateVerdict&>(out) =
                                 std::move(verdict);
                             out.done = 1;
                           });
  }

  /// Phase 3 (serial, sorted key order): folds one node's outcomes into
  /// the lattice node and the result — the only place shared state is
  /// mutated, so output order never depends on scheduling.
  void MergeNode(const AttributeSet x, const NodePlan& plan,
                 const std::vector<Candidate>& candidates,
                 std::vector<CandidateOutcome>& outcomes,
                 LatticeLevel* current) {
    const int level = x.size();
    LatticeNode* node = current->Find(x);
    node->cc = plan.cc;
    node->cs.clear();
    result.stats.oc_candidates_pruned += plan.oc_pruned;

    // Folds the outcome in the next slot into the per-kind counters and,
    // when valid, into the result; returns its validity.
    size_t slot = plan.first_slot;
    auto merge_next = [&]() {
      const Candidate& c = candidates[slot];
      CandidateOutcome& out = outcomes[slot];
      ++slot;
      const int k = static_cast<int>(c.kind);
      result.stats.*kKindCounters[k].seconds += out.seconds;
      ++(result.stats.*kKindCounters[k].validated);
      if (!out.valid) return false;
      ++result.stats.Level(level).found[k];
      DiscoveredDependency found;
      found.kind = c.kind;
      found.context = c.context;
      if (c.kind == DependencyKind::kOc) {
        found.a = c.oc_pair.a;
        found.b = c.oc_pair.b;
        found.opposite = c.oc_pair.opposite;
      } else {
        found.a = c.target;
      }
      found.error = out.error;
      found.removal_size = out.removal_size;
      found.level = level;
      found.interestingness = out.interestingness;
      found.removal_rows = std::move(out.removal_rows);
      result.dependencies.push_back(std::move(found));
      return true;
    };

    for (DependencyKind kind : kSlotOrder) {
      if (kind == DependencyKind::kOc) {
        for (AttributePair pair : plan.oc_pairs) {
          // Still open: candidates propagate upward only while invalid.
          if (!merge_next()) node->cs.push_back(pair);
        }
        std::sort(node->cs.begin(), node->cs.end());
        continue;
      }
      AttributeSet& cc = node->cc[kGroupOfKind[static_cast<int>(kind)]];
      for (int a : plan.targets[static_cast<int>(kind)]) {
        if (!merge_next()) continue;
        // TANE minimality pruning: the found X\{A} -> A is minimal; any
        // superset restatement is redundant, as is any target outside X
        // (it would have X\{A} -> A as a sub-dependency). Sound for AFDs
        // because g1 is monotone non-increasing in the LHS.
        cc = cc.Without(a).Intersect(x);
      }
    }

    // Per-group liveness: a group keeps X while it can still find
    // something through X or a superset — a target left in its C+, or an
    // open OC pair. OC without OFD has no C+ to run out, so its level-1
    // nodes must survive for the first OC pairs to exist at level 2.
    // Node deletion: nothing left for any enabled group.
    bool any_alive = false;
    for (int g = 0; g < kNumLatticeGroups; ++g) {
      const bool targets_open = kinds.Contains(kTargetKindOfGroup[g])
                                    ? !node->cc[g].empty()
                                    : level == 1;
      node->alive[g] = plan.present[g] &&
                       (targets_open || (g == kOdGroup && !node->cs.empty()));
      any_alive = any_alive || node->alive[g];
    }
    if (!any_alive) current->Erase(x);
  }

  void Run() {
    if (!row_shard_status.ok()) {
      // The row-shard phase failed before any base existed: typed
      // fail-stop, same contract as a coordinator setup failure.
      result.shard_status = row_shard_status;
      result.stats.total_seconds = total_clock.ElapsedSeconds();
      return;
    }
    if (options.num_shards >= 1 && coordinator == nullptr) {
      // Coordinator setup failed (bad runner path, spawn or connect
      // error): a typed result, not a crash — nothing ran, so the empty
      // result is the complete merge of zero levels.
      result.shard_status = coordinator_status;
      result.stats.total_seconds = total_clock.ElapsedSeconds();
      return;
    }
    const int k = table.num_columns();

    // Virtual level 0: the empty set with C+(∅) = R for every group
    // (the LatticeNode defaults leave all groups alive).
    LatticeLevel previous(0);
    {
      LatticeNode root;
      root.cc.fill(AttributeSet::FullSet(k));
      previous.Insert(std::move(root));
    }

    LatticeLevel current = LatticeLevel::MakeFirstLevel(k);
    while (!current.empty()) {
      const int level = current.level();
      // Node/level totals are recorded after the merge, per *merged*
      // node: a deadline can interrupt a level anywhere, and stats
      // counted at level entry would then claim nodes (and a level) the
      // reported result set never saw.
      AOD_LOG(kInfo) << "level " << level << ": " << current.size()
                     << " nodes, " << result.stats.TotalOcs() << " OCs so far";

      // Deterministic node order: sort keys by bit pattern.
      std::vector<AttributeSet> keys;
      keys.reserve(static_cast<size_t>(current.size()));
      for (const auto& [set, node] : current.nodes()) keys.push_back(set);
      std::sort(keys.begin(), keys.end());

      // Phase 1: plan every node against the completed level below.
      // Planning only reads `previous`, so nodes are independent; the
      // grain amortizes task overhead over the cheap per-node work.
      std::vector<NodePlan> plans(keys.size());
      Stopwatch phase_clock;
      exec::ParallelFor(
          pool, 0, static_cast<int64_t>(keys.size()),
          [&](int64_t i) {
            plans[static_cast<size_t>(i)] =
                PlanNode(keys[static_cast<size_t>(i)], previous);
          },
          PhaseOptions(/*grain=*/8));

      // Flatten candidates in deterministic (key, slot) order.
      std::vector<Candidate> candidates;
      bool planned_all = true;
      for (size_t i = 0; i < keys.size(); ++i) {
        NodePlan& plan = plans[i];
        if (!plan.planned) {
          planned_all = false;
          break;
        }
        plan.first_slot = candidates.size();
        const AttributeSet x = keys[i];
        for (DependencyKind kind : kSlotOrder) {
          if (kind == DependencyKind::kOc) {
            for (AttributePair pair : plan.oc_pairs) {
              candidates.push_back(
                  {kind, x.Without(pair.a).Without(pair.b), -1, pair});
            }
            continue;
          }
          for (int a : plan.targets[static_cast<int>(kind)]) {
            candidates.push_back({kind, x.Without(a), a, {}});
          }
        }
      }
      result.stats.candidate_wall_seconds += phase_clock.ElapsedSeconds();
      if (!planned_all) {
        result.timed_out = true;
        break;
      }

      // Phase 2: validate all candidates of the level — as stealable
      // validation units in-process (one candidate or one OC group each),
      // or shipped out as per-shard batches over the wire when sharding
      // is on, where each runner forms its own units. Either way the
      // deadline is checked between units and each outcome slot is
      // written by exactly one producer.
      std::vector<CandidateOutcome> outcomes(candidates.size());
      phase_clock.Restart();
      if (coordinator != nullptr) {
        std::vector<shard::WireCandidate> wire;
        wire.reserve(candidates.size());
        for (size_t s = 0; s < candidates.size(); ++s) {
          const Candidate& c = candidates[s];
          shard::WireCandidate w;
          w.slot = s;
          w.context_bits = c.context.bits();
          w.kind = c.kind;
          w.target = c.target;
          w.pair_a = c.oc_pair.a;
          w.pair_b = c.oc_pair.b;
          w.opposite = c.oc_pair.opposite;
          wire.push_back(w);
        }
        // Outcomes land in their slots once every shard has replied (the
        // coordinator buffers each shard's whole reply); the slot keys are
        // deterministic, so fold order never affects the merge below.
        // Slots come from (possibly separate-process) runners, so they
        // cross a trust boundary: a skewed or misbehaving runner must
        // yield a typed abort, not a CHECK crash.
        Status fold_status;
        Status st = coordinator->ValidateBatch(
            wire, [&](shard::WireOutcome o) {
              if (o.slot >= outcomes.size()) {
                if (fold_status.ok()) {
                  fold_status = Status::InvalidArgument(
                      "shard result slot " + std::to_string(o.slot) +
                      " outside the level's " +
                      std::to_string(outcomes.size()) + " candidates");
                }
                return;
              }
              // The outcome echoes its candidate's kind; a mismatch means
              // the runner validated something else than what was asked —
              // a typed abort, like any other wire corruption.
              if (o.kind != candidates[static_cast<size_t>(o.slot)].kind) {
                if (fold_status.ok()) {
                  fold_status = Status::InvalidArgument(
                      std::string("shard result slot ") +
                      std::to_string(o.slot) + " echoes kind '" +
                      DependencyKindToString(o.kind) + "' for a '" +
                      DependencyKindToString(
                          candidates[static_cast<size_t>(o.slot)].kind) +
                      "' candidate");
                }
                return;
              }
              CandidateOutcome& out = outcomes[static_cast<size_t>(o.slot)];
              out.valid = o.valid;
              out.early_exit = o.early_exit;
              out.removal_size = o.removal_size;
              out.error = o.approx_factor;
              out.removal_rows = std::move(o.removal_rows);
              out.interestingness = o.interestingness;
              out.seconds = o.seconds;
              out.done = 1;
            });
        if (st.ok() && !fold_status.ok()) st = fold_status;
        if (!st.ok()) {
          // A transport fault (runner died, corrupted frame, timeout)
          // aborts the run with a typed status. The failed level is
          // never merged — the break below skips MergeNode, discarding
          // whatever slots folded before the fault — so the reported
          // lists are the complete merge of the finished prefix, never
          // a partially merged level.
          result.shard_status = std::move(st);
          result.stats.validation_wall_seconds += phase_clock.ElapsedSeconds();
          break;
        }
      } else {
        const ValidationUnits units = validator.FormUnits(candidates);
        exec::ParallelFor(
            pool, 0, static_cast<int64_t>(units.size()),
            [&](int64_t u) {
              ValidateUnit(candidates, units.Unit(static_cast<size_t>(u)),
                           outcomes);
            },
            PhaseOptions());
      }
      result.stats.validation_wall_seconds += phase_clock.ElapsedSeconds();

      // Publish the completed level's partition costs to the planner
      // catalog before any derivation of this level's survivors is
      // planned. PublishCost resolves each partition (blocking on the
      // rare prefetch straggler), so the catalog — and every plan made
      // from it below — is a deterministic function of the traversal,
      // not of scheduling. Skipped once the deadline is hit: the catalog
      // no longer matters and publishing could trigger derivations.
      phase_clock.Restart();
      if (coordinator == nullptr && !OverBudget()) {
        for (AttributeSet key : pending_costs) cache.PublishCost(key);
      }
      pending_costs.clear();
      result.stats.partition_wall_seconds += phase_clock.ElapsedSeconds();

      // With a bounded LHS arity m the last candidates are the OC pairs
      // of level m+2 (context size m); levels past that emit nothing.
      const bool expect_next_level =
          (options.max_level == 0 || level < options.max_level) &&
          (options.max_lhs_arity == 0 || level < options.max_lhs_arity + 2) &&
          level < k;

      // Phase 3: serial merge in key order. Stop at the first node with
      // an unfinished candidate — everything before it is a complete,
      // deterministic prefix of the traversal. As each node survives,
      // its partition — a context for the next level's validation —
      // starts deriving on the pool immediately (the old materialize
      // barrier is now a prefetch pipeline overlapping the rest of the
      // merge and the next level's planning). Plans are computed here,
      // serially against the just-published catalog, and handed to the
      // tasks, so in-flight tasks never read planner state.
      phase_clock.Restart();
      int64_t merged_nodes = 0;
      // In a serial run the prefetch runs inline inside this loop; that
      // time is partition derivation, not merge, so it is moved over.
      double inline_prefetch_seconds = 0.0;
      for (size_t i = 0; i < keys.size(); ++i) {
        const NodePlan& plan = plans[i];
        const size_t total = plan.NumCandidates();
        bool complete = true;
        for (size_t s = 0; s < total; ++s) {
          if (!outcomes[plan.first_slot + s].done) {
            complete = false;
            break;
          }
        }
        if (!complete) {
          result.timed_out = true;
          break;
        }
        MergeNode(keys[i], plan, candidates, outcomes, &current);
        ++merged_nodes;
        // Level-1 partitions are preloaded; prefetch only derived levels.
        // With sharding the coordinator-side cache is idle — contexts are
        // derived by the shard that validates them — so there is nothing
        // to prefetch or to cost-publish.
        if (coordinator == nullptr && expect_next_level && level >= 2 &&
            current.Find(keys[i]) != nullptr) {
          const AttributeSet key = keys[i];
          pending_costs.push_back(key);
          DerivationPlan derivation = cache.PlanDerivation(key);
          Stopwatch run_clock;
          prefetch_group->Run(
              [this, key, derivation = std::move(derivation)] {
                if (OverBudget()) return;
                Stopwatch sw;
                cache.Get(key, &derivation);
                partition_nanos.fetch_add(sw.ElapsedNanos(),
                                          std::memory_order_relaxed);
              });
          if (pool == nullptr) {
            inline_prefetch_seconds += run_clock.ElapsedSeconds();
          }
        }
      }
      result.stats.merge_wall_seconds +=
          phase_clock.ElapsedSeconds() - inline_prefetch_seconds;
      result.stats.partition_wall_seconds += inline_prefetch_seconds;
      // Deadline-coherent totals: only merged nodes — the ones whose
      // candidates and dependencies the result actually reports — are
      // counted, and a level (or a whole run) that merged nothing leaves
      // the totals at the last completed state.
      if (merged_nodes > 0) {
        result.stats.levels_processed = level;
        result.stats.Level(level).nodes += merged_nodes;
        result.stats.nodes_processed += merged_nodes;
        if (options.progress) {
          DiscoveryProgress progress;
          progress.level = level;
          progress.nodes_merged = merged_nodes;
          for (int kind = 0; kind < kNumDependencyKinds; ++kind) {
            progress.totals[kind] =
                result.stats.Total(static_cast<DependencyKind>(kind));
          }
          options.progress(progress);
        }
      }
      if (result.timed_out) break;
      if (!expect_next_level) break;

      // Budget enforcement needs a quiescent cache (every future
      // resolved), so it pays one synchronization with the prefetch
      // pipeline; without a budget the pipeline runs uninterrupted into
      // the next level and the peak sample is merely a racy lower bound
      // (the end-of-run sample is exact).
      if (coordinator != nullptr) {
        // Shard caches enforce their own budgets batch by batch and
        // sample their own residency peaks; both fold in from the stats
        // footers at Finish — the coordinator has no object access to a
        // remote cache, so there is nothing to sample here.
      } else if (options.partition_memory_budget_bytes > 0) {
        phase_clock.Restart();
        prefetch_group->Wait();
        result.stats.partition_wall_seconds += phase_clock.ElapsedSeconds();
        result.stats.partition_bytes_peak = std::max(
            result.stats.partition_bytes_peak, cache.bytes_resident());
        result.stats.partition_bytes_evicted +=
            cache.EnforceBudget(options.partition_memory_budget_bytes);
      } else {
        result.stats.partition_bytes_peak = std::max(
            result.stats.partition_bytes_peak, cache.bytes_resident());
      }

      LatticeLevel next = current.GenerateNext();
      previous = std::move(current);
      current = std::move(next);
    }

    {
      Stopwatch wait_clock;
      prefetch_group->Wait();
      result.stats.partition_wall_seconds += wait_clock.ElapsedSeconds();
    }
    result.stats.partition_seconds =
        static_cast<double>(partition_nanos.load(std::memory_order_relaxed)) /
        1e9;
    if (coordinator != nullptr) {
      // The shutdown handshake: every shard answers with its stats
      // footer, the single mechanism partition-side counters cross the
      // seam by.
      Status finish = coordinator->Finish();
      if (result.shard_status.ok() && !finish.ok()) {
        result.shard_status = std::move(finish);
      }
      const shard::ShardStatsFooter footers = coordinator->FooterTotals();
      result.stats.partition_seconds = footers.partition_seconds;
      result.stats.partitions_computed = footers.products_computed;
      result.stats.planner_derivations = footers.planner_derivations;
      result.stats.planner_cost_estimated = footers.planner_cost_estimated;
      result.stats.planner_cost_realized = footers.planner_cost_realized;
      result.stats.partitions_evicted = footers.partitions_evicted;
      result.stats.partition_bytes_evicted = footers.partition_bytes_evicted;
      result.stats.partition_bytes_peak = std::max(
          result.stats.partition_bytes_peak, footers.partition_bytes_peak);
      result.stats.partition_bytes_final = footers.partition_bytes_final;
      result.stats.shard_bytes_shipped = coordinator->bytes_shipped_total();
      result.stats.shard_bytes_per_shard.resize(
          static_cast<size_t>(coordinator->num_shards()));
      for (int s = 0; s < coordinator->num_shards(); ++s) {
        result.stats.shard_bytes_per_shard[static_cast<size_t>(s)] =
            coordinator->bytes_shipped(s);
      }
      // Codec accounting: what crossed the wire vs. what the same run
      // would have shipped all-raw, both counted at the coordinator's
      // own encode/decode sites; after Finish(), so every frame of the
      // conversation is in.
      result.stats.shard_bytes_wire = coordinator->bytes_shipped_total();
      result.stats.shard_bytes_raw = coordinator->bytes_raw_total();
      const std::pair<shard::FrameType, const char*> kTypeNames[] = {
          {shard::FrameType::kPartitionBlock, "partition"},
          {shard::FrameType::kCandidateBatch, "candidate"},
          {shard::FrameType::kResultBatch, "result"},
          {shard::FrameType::kTableBlock, "table"},
      };
      for (const auto& [type, name] : kTypeNames) {
        const shard::CodecByteCounts counts =
            coordinator->type_byte_counts(type);
        if (counts.raw == 0 && counts.wire == 0) continue;
        result.stats.shard_frame_bytes.push_back(
            {name, counts.raw, counts.wire});
      }
    } else {
      result.stats.partitions_computed = cache.products_computed();
      result.stats.planner_derivations = cache.planner_derivations();
      result.stats.planner_cost_estimated = cache.planner_cost_estimated();
      result.stats.planner_cost_realized = cache.planner_cost_realized();
      result.stats.partitions_evicted = cache.partitions_evicted();
      result.stats.partition_bytes_peak =
          std::max(result.stats.partition_bytes_peak, cache.bytes_resident());
      result.stats.partition_bytes_final = cache.bytes_resident();
    }
    result.cancelled = cancel_hit.load(std::memory_order_relaxed);
    result.stats.total_seconds = total_clock.ElapsedSeconds();
  }
};

}  // namespace

const char* ValidatorKindToString(ValidatorKind kind) {
  switch (kind) {
    case ValidatorKind::kExact:
      return "OD (exact)";
    case ValidatorKind::kIterative:
      return "AOD (iterative)";
    case ValidatorKind::kOptimal:
      return "AOD (optimal)";
  }
  return "?";
}

CanonicalOc DiscoveredDependency::Oc() const {
  AOD_CHECK_MSG(kind == DependencyKind::kOc,
                "Oc() on a non-OC discovered dependency");
  return CanonicalOc{context, a, b, opposite};
}

CanonicalOfd DiscoveredDependency::Ofd() const {
  AOD_CHECK_MSG(kind == DependencyKind::kOfd,
                "Ofd() on a non-OFD discovered dependency");
  return CanonicalOfd{context, a};
}

namespace {

std::string DependencyString(
    const DiscoveredDependency& d,
    const std::function<std::string(int)>& name_of) {
  switch (d.kind) {
    case DependencyKind::kOc: {
      std::string rhs =
          d.opposite ? "desc(" + name_of(d.b) + ")" : name_of(d.b);
      return d.context.ToString(name_of) + ": " + name_of(d.a) + " ~ " + rhs;
    }
    case DependencyKind::kOfd:
      return d.context.ToString(name_of) + ": [] -> " + name_of(d.a);
    case DependencyKind::kFd:
      return d.context.ToString(name_of) + " -> " + name_of(d.a);
    case DependencyKind::kAfd:
      return d.context.ToString(name_of) + " ~> " + name_of(d.a);
  }
  return "?";
}

}  // namespace

std::string DiscoveredDependency::ToString(const EncodedTable& table) const {
  return DependencyString(*this,
                          [&table](int i) { return table.name(i); });
}

std::string DiscoveredDependency::ToString() const {
  return DependencyString(*this, [](int i) { return std::to_string(i); });
}

std::vector<const DiscoveredDependency*> DiscoveryResult::OfKind(
    DependencyKind kind) const {
  std::vector<const DiscoveredDependency*> out;
  for (const DiscoveredDependency& d : dependencies) {
    if (d.kind == kind) out.push_back(&d);
  }
  return out;
}

int64_t DiscoveryResult::CountOfKind(DependencyKind kind) const {
  int64_t count = 0;
  for (const DiscoveredDependency& d : dependencies) {
    if (d.kind == kind) ++count;
  }
  return count;
}

void DiscoveryResult::SortByInterestingness() {
  // One ranking across all kinds. The key is unique per dependency — a
  // (kind, context, a, b, opposite) tuple appears at most once in a run —
  // so the sorted order is fully determined by the set of results, never
  // by their arrival order. Within a kind the key restricts to the
  // pre-multi-kind per-kind keys, which keeps the ranked OC/OFD
  // sublists byte-identical to the old two-list sort.
  auto key = [](const DiscoveredDependency& d) {
    return std::make_tuple(-d.interestingness, d.level,
                           static_cast<int>(d.kind), d.context.bits(), d.a,
                           d.b, d.opposite);
  };
  std::sort(dependencies.begin(), dependencies.end(),
            [&](const DiscoveredDependency& x, const DiscoveredDependency& y) {
              return key(x) < key(y);
            });
}

std::string DiscoveryResult::Summary(const EncodedTable& table,
                                     size_t max_items) const {
  // OC and OFD sections always print (the pre-multi-kind format); FD and
  // AFD sections only when those kinds found anything.
  std::string out;
  auto section = [&](const char* title, DependencyKind kind, bool always) {
    const std::vector<const DiscoveredDependency*> deps = OfKind(kind);
    if (deps.empty() && !always) return;
    out += std::string(title) + " (" + std::to_string(deps.size()) + "):\n";
    for (size_t i = 0; i < deps.size() && i < max_items; ++i) {
      const DiscoveredDependency& d = *deps[i];
      char buf[96];
      std::snprintf(buf, sizeof(buf), "  e=%.4f score=%.4f level=%d  ",
                    d.error, d.interestingness, d.level);
      out += buf + d.ToString(table) + "\n";
    }
    if (deps.size() > max_items) {
      out += "  ... (" + std::to_string(deps.size() - max_items) + " more)\n";
    }
  };
  section("OCs", DependencyKind::kOc, /*always=*/true);
  section("OFDs", DependencyKind::kOfd, /*always=*/true);
  section("FDs", DependencyKind::kFd, /*always=*/false);
  section("AFDs", DependencyKind::kAfd, /*always=*/false);
  return out;
}

DiscoveryResult DiscoverOds(const EncodedTable& table,
                            const DiscoveryOptions& options) {
  AOD_CHECK_MSG(table.num_columns() <= AttributeSet::kMaxAttributes,
                "at most %d attributes are supported",
                AttributeSet::kMaxAttributes);
  AOD_CHECK_MSG(options.epsilon >= 0.0 && options.epsilon <= 1.0,
                "epsilon must be within [0, 1]");
  AOD_CHECK_MSG(options.kinds.IsValid() && !options.kinds.empty(),
                "kinds must name at least one known dependency kind");
  AOD_CHECK_MSG(options.afd_error >= 0.0 && options.afd_error <= 1.0,
                "afd_error must be within [0, 1]");
  AOD_CHECK_MSG(options.top_k >= 0, "top_k must be >= 0 (0 = keep all)");
  AOD_CHECK_MSG(options.num_shards >= 0 && options.num_shards <= 1024,
                "num_shards must be within [0, 1024]");
  AOD_CHECK_MSG(options.row_shards >= 0 && options.row_shards <= 1024,
                "row_shards must be within [0, 1024]");
  AOD_CHECK_MSG(options.max_lhs_arity >= 0,
                "max_lhs_arity must be >= 0 (0 = unbounded)");
  Driver driver(table, options);
  driver.Run();
  DiscoveryResult result = std::move(driver.result);
  if (options.top_k > 0) {
    // Deterministic top-k: rank everything (unique keys — see
    // SortByInterestingness), then truncate. Stats keep counting every
    // discovered dependency; only the materialized list shrinks.
    result.SortByInterestingness();
    if (static_cast<int64_t>(result.dependencies.size()) > options.top_k) {
      result.dependencies.resize(static_cast<size_t>(options.top_k));
    }
  }
  return result;
}

}  // namespace aod
