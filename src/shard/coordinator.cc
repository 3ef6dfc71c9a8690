#include "shard/coordinator.h"

#include <chrono>
#include <utility>

#include "common/macros.h"
#include "exec/thread_pool.h"
#include "partition/attribute_set.h"
#include "partition/stripped_partition.h"

namespace aod {
namespace shard {

ShardCoordinator::ShardCoordinator(
    const ShardTransportOptions& transport_options)
    : transport_(transport_options) {}

Result<std::unique_ptr<ShardCoordinator>> ShardCoordinator::Create(
    const EncodedTable* table, int num_shards,
    const ShardRunnerOptions& runner_options,
    const ShardTransportOptions& transport_options, exec::ThreadPool* pool,
    const std::vector<StrippedPartition>* base_partitions) {
  AOD_CHECK(table != nullptr);
  AOD_CHECK_MSG(num_shards >= 1, "num_shards must be >= 1, got %d",
                num_shards);
  std::unique_ptr<ShardCoordinator> coordinator(
      new ShardCoordinator(transport_options));
  AOD_RETURN_NOT_OK(coordinator->Init(
      *table, num_shards, runner_options,
      pool != nullptr ? pool->num_workers() : 1, base_partitions));
  return coordinator;
}

Status ShardCoordinator::Init(
    const EncodedTable& table, int num_shards,
    const ShardRunnerOptions& runner_options, int pool_workers,
    const std::vector<StrippedPartition>* base_partitions) {
  // Everything a shard is seeded with, encoded — and checksummed — once
  // and shipped to every shard; freed when Init returns.
  ShardBootstrap bootstrap;
  bootstrap.runner_options = runner_options;
  bootstrap.num_shards = num_shards;
  bootstrap.pool_workers = pool_workers;
  bootstrap.table_frame =
      EncodeTableBlock(table, /*compress=*/true, &bootstrap.table_counts);
  // One kPartitionBlock per base (level-1) partition, each shipped to
  // every shard as its own frame. Socket sends are queued by the
  // channel's writer thread and never block, so this thread can ship
  // every shard's bootstrap — and later every shard's level batch —
  // before it reads any reply without deadlocking against a peer.
  const int k = table.num_columns();
  if (base_partitions != nullptr) {
    AOD_CHECK_MSG(static_cast<int>(base_partitions->size()) == k,
                  "preloaded bases cover %d attributes, table has %d",
                  static_cast<int>(base_partitions->size()), k);
  }
  bootstrap.base_frames.reserve(static_cast<size_t>(k));
  for (int a = 0; a < k; ++a) {
    // Preloaded bases (the row-shard phase's stitched partitions) are
    // bit-identical to FromColumn, so the shipped frames do not depend
    // on which path produced them.
    bootstrap.base_frames.push_back(EncodePartitionBlock(
        AttributeSet().With(a),
        base_partitions != nullptr
            ? (*base_partitions)[static_cast<size_t>(a)]
            : StrippedPartition::FromColumn(table.column(a)),
        /*compress=*/true, &bootstrap.base_counts));
  }

  supervisors_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    supervisors_.push_back(std::make_unique<ShardSupervisor>(s, &transport_));
  }
  // Started serially in shard order: decorated-channel creation order
  // stays deterministic, which the fault-injection tests key their
  // schedules on.
  for (auto& sup : supervisors_) {
    AOD_RETURN_NOT_OK(sup->Start(bootstrap));
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
    const std::function<void(WireOutcome)>& fold) {
  const int n = num_shards();
  std::vector<std::vector<WireCandidate>> batches(static_cast<size_t>(n));
  for (const WireCandidate& c : candidates) {
    batches[static_cast<size_t>(ShardOf(c.context_bits, n))].push_back(c);
  }
  // One level is one fan-out on this thread: every shard gets its batch
  // before any reply is awaited, so the runners validate at the same
  // time. The first error surfaces; a reply still in flight is then
  // never received here, and Finish's CollectFooter drains it ahead of
  // the footer.
  for (size_t s = 0; s < batches.size(); ++s) {
    AOD_RETURN_NOT_OK(supervisors_[s]->SendBatch(batches[s]));
  }
  std::vector<std::vector<WireOutcome>> replies(batches.size());
  for (size_t s = 0; s < batches.size(); ++s) {
    AOD_RETURN_NOT_OK(
        supervisors_[s]->ReceiveReply(batches[s].size(), &replies[s]));
  }
  // Serial shard-order fold, only once every reply decoded cleanly.
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
  // timeout total, not one per child.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(transport_.io_timeout_seconds));
  for (auto& sup : supervisors_) {
    const pid_t pid = sup->ReleaseProcess();
    if (pid < 0) continue;
    record(KillAndReap(
        pid, std::chrono::duration<double>(deadline -
                                           std::chrono::steady_clock::now())
                 .count()));
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
  // The observed wire volume plus what the codecs saved on every frame
  // the coordinator encoded or decoded (see type_byte_counts).
  int64_t total = bytes_shipped_total();
  for (const auto& sup : supervisors_) total += sup->codec_savings();
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
    total.partition_seconds += f.partition_seconds;
  }
  return total;
}

}  // namespace shard
}  // namespace aod
