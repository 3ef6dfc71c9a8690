#include "shard/coordinator.h"

#include <chrono>
#include <utility>

#include "common/macros.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "partition/attribute_set.h"
#include "partition/stripped_partition.h"

namespace aod {
namespace shard {

ShardCoordinator::ShardCoordinator(
    const EncodedTable* table, const ShardTransportOptions& transport_options,
    exec::ThreadPool* pool)
    : table_(table), transport_(transport_options), pool_(pool) {}

Result<std::unique_ptr<ShardCoordinator>> ShardCoordinator::Create(
    const EncodedTable* table, int num_shards,
    const ShardRunnerOptions& runner_options,
    const ShardTransportOptions& transport_options, exec::ThreadPool* pool,
    const std::vector<StrippedPartition>* base_partitions) {
  AOD_CHECK(table != nullptr);
  AOD_CHECK_MSG(num_shards >= 1, "num_shards must be >= 1, got %d",
                num_shards);
  std::unique_ptr<ShardCoordinator> coordinator(
      new ShardCoordinator(table, transport_options, pool));
  AOD_RETURN_NOT_OK(
      coordinator->Init(num_shards, runner_options, base_partitions));
  return coordinator;
}

Status ShardCoordinator::Init(
    int num_shards, const ShardRunnerOptions& runner_options,
    const std::vector<StrippedPartition>* base_partitions) {
  // Everything a fresh attempt needs, encoded — and checksummed — once:
  // the same bytes bootstrap the first attempt and every respawn, so
  // re-seeding costs sends, not re-encodes.
  bootstrap_.table = table_;
  bootstrap_.runner_options = runner_options;
  bootstrap_.num_shards = num_shards;
  bootstrap_.pool_workers = pool_ != nullptr ? pool_->num_workers() : 1;
  bootstrap_.table_frame =
      EncodeTableBlock(*table_, /*compress=*/true, &bootstrap_.table_counts);
  // One kPartitionBlock per base (level-1) partition, shipped to every
  // shard as a single kBatch envelope — one syscall per seeding instead
  // of one per base. Socket sends are buffered by the channel's writer
  // thread, so even a serial coordinator cannot deadlock against an
  // unserved peer.
  const int k = table_->num_columns();
  if (base_partitions != nullptr) {
    AOD_CHECK_MSG(static_cast<int>(base_partitions->size()) == k,
                  "preloaded bases cover %d attributes, table has %d",
                  static_cast<int>(base_partitions->size()), k);
  }
  std::vector<std::vector<uint8_t>> base_frames;
  base_frames.reserve(static_cast<size_t>(k));
  for (int a = 0; a < k; ++a) {
    // Preloaded bases (the row-shard phase's stitched partitions) are
    // bit-identical to FromColumn, so the shipped frames — and every
    // attempt they seed — do not depend on which path produced them.
    base_frames.push_back(EncodePartitionBlock(
        AttributeSet().With(a),
        base_partitions != nullptr
            ? (*base_partitions)[static_cast<size_t>(a)]
            : StrippedPartition::FromColumn(table_->column(a)),
        /*compress=*/true, &bootstrap_.base_counts));
  }
  bootstrap_.base_frames = k;
  if (k == 1) {
    bootstrap_.base_shipment = std::move(base_frames[0]);
  } else if (k > 1) {
    bootstrap_.base_shipment = EncodeBatchEnvelope(base_frames);
  }

  supervisors_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    supervisors_.push_back(std::make_unique<ShardSupervisor>(
        s, &bootstrap_, &transport_, transport_.supervision, pool_));
  }
  // Started serially in shard order: attempt (and decorated-channel)
  // creation order stays deterministic, which the fault-injection tests
  // key their schedules on.
  for (auto& sup : supervisors_) {
    AOD_RETURN_NOT_OK(sup->Start());
  }
  return Status::OK();
}

ShardCoordinator::~ShardCoordinator() {
  Finish();  // best-effort when the owner did not; idempotent
}

int ShardCoordinator::ShardOf(uint64_t context_bits, int num_shards) {
  return static_cast<int>(AttributeSetHash{}(AttributeSet(context_bits)) %
                          static_cast<size_t>(num_shards));
}

Status ShardCoordinator::ValidateBatch(
    const std::vector<WireCandidate>& candidates,
    const std::function<bool()>& cancel,
    const std::function<void(WireOutcome)>& fold) {
  const int n = num_shards();
  std::vector<std::vector<WireCandidate>> batches(static_cast<size_t>(n));
  for (const WireCandidate& c : candidates) {
    batches[static_cast<size_t>(ShardOf(c.context_bits, n))].push_back(c);
  }
  // Each shard's ship/validate/receive round is one task: chunk decode
  // and (supervised) retry ladders overlap across shards, while the
  // serial shard-order fold below keeps delivery deterministic.
  std::vector<Status> statuses(batches.size());
  std::vector<std::vector<WireOutcome>> replies(batches.size());
  exec::TaskGroup group(pool_);
  for (size_t s = 0; s < batches.size(); ++s) {
    group.Run([this, s, &batches, &cancel, &statuses, &replies] {
      statuses[s] =
          supervisors_[s]->ExecuteLevel(batches[s], cancel, &replies[s]);
    });
  }
  group.Wait();
  for (const Status& st : statuses) AOD_RETURN_NOT_OK(st);
  for (std::vector<WireOutcome>& reply : replies) {
    for (WireOutcome& o : reply) fold(std::move(o));
  }
  return Status::OK();
}

Status ShardCoordinator::Finish() {
  if (finished_) return finish_status_;
  finished_ = true;

  Status result;
  const auto record = [&result](Status st) {
    if (result.ok() && !st.ok()) result = std::move(st);
  };
  // Supervised mode tolerates shutdown-path faults: the merged results
  // are already correct, and every tolerated loss is counted
  // (footers_missing). The supervisor methods themselves return OK for
  // tolerated faults, so `record` only ever sees strict-mode errors and
  // genuine supervised-mode breakage.

  // Shutdown handshake, pushed to every shard even if one fails — each
  // link must reach its terminal state before the channels close.
  for (auto& sup : supervisors_) {
    record(sup->SendShutdown());
  }
  for (auto& sup : supervisors_) {
    record(sup->CollectFooter());
  }
  for (auto& sup : supervisors_) {
    sup->CloseChannels();
  }
  // ONE reap deadline for the whole fleet: a healthy child exits after
  // answering the shutdown (or on EOF once its socket closed); a wedged
  // one — stuck without reading, so it never sees EOF — is killed once
  // the shared deadline lapses, so shutdown costs at most one I/O
  // timeout total, not one per child. Abnormal exits count in strict
  // mode only.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(transport_.io_timeout_seconds));
  for (auto& sup : supervisors_) {
    const pid_t pid = sup->ReleaseProcess();
    if (pid < 0) continue;
    const Status reaped = KillAndReap(
        pid, std::chrono::duration<double>(deadline -
                                           std::chrono::steady_clock::now())
                 .count());
    if (strict()) record(reaped);
  }
  finish_status_ = result;
  return finish_status_;
}

int64_t ShardCoordinator::bytes_shipped(int s) const {
  return supervisors_[static_cast<size_t>(s)]->bytes_shipped();
}

int64_t ShardCoordinator::bytes_shipped_total() const {
  int64_t total = 0;
  for (int s = 0; s < num_shards(); ++s) total += bytes_shipped(s);
  return total;
}

int64_t ShardCoordinator::bytes_raw_total() const {
  // Start from the observed wire volume and add back what each decode
  // site reported saving: shard footers cover the coordinator→shard
  // frames (partitions, candidates, table), the coordinator's own
  // result-chunk decodes cover the reply direction.
  const ShardStatsFooter footers = FooterTotals();
  int64_t total = bytes_shipped_total() + footers.bytes_decoded_raw -
                  footers.bytes_decoded_wire;
  const CodecByteCounts results =
      type_byte_counts(FrameType::kResultBatch);
  total += results.raw - results.wire;
  return total;
}

CodecByteCounts ShardCoordinator::type_byte_counts(FrameType type) const {
  CodecByteCounts total;
  for (const auto& sup : supervisors_) {
    total.Add(sup->type_byte_counts(type));
  }
  return total;
}

ShardStatsFooter ShardCoordinator::FooterTotals() const {
  ShardStatsFooter total;
  for (const auto& sup : supervisors_) {
    if (!sup->footer_valid()) continue;
    const ShardStatsFooter& f = sup->footer();
    total.frames_served += f.frames_served;
    total.products_computed += f.products_computed;
    total.planner_derivations += f.planner_derivations;
    total.planner_cost_estimated += f.planner_cost_estimated;
    total.planner_cost_realized += f.planner_cost_realized;
    total.partitions_evicted += f.partitions_evicted;
    total.partition_bytes_evicted += f.partition_bytes_evicted;
    total.partition_bytes_final += f.partition_bytes_final;
    total.partition_bytes_peak += f.partition_bytes_peak;
    total.bytes_decoded_raw += f.bytes_decoded_raw;
    total.bytes_decoded_wire += f.bytes_decoded_wire;
    total.partition_seconds += f.partition_seconds;
  }
  return total;
}

int64_t ShardCoordinator::shard_retries() const {
  int64_t total = 0;
  for (const auto& sup : supervisors_) total += sup->retries();
  return total;
}

int64_t ShardCoordinator::shard_respawns() const {
  int64_t total = 0;
  for (const auto& sup : supervisors_) total += sup->respawns();
  return total;
}

int64_t ShardCoordinator::fallback_shards() const {
  int64_t total = 0;
  for (const auto& sup : supervisors_) total += sup->fell_back() ? 1 : 0;
  return total;
}

int64_t ShardCoordinator::footers_missing() const {
  int64_t total = 0;
  for (const auto& sup : supervisors_) total += sup->footer_missing() ? 1 : 0;
  return total;
}

}  // namespace shard
}  // namespace aod
