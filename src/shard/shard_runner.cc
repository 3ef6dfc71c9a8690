#include "shard/shard_runner.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "exec/parallel_for.h"

namespace aod {
namespace shard {

ShardRunner::ShardRunner(int shard_id, const EncodedTable* table,
                         const ShardRunnerOptions& options,
                         exec::ThreadPool* pool)
    : shard_id_(shard_id),
      table_(table),
      options_(options),
      pool_(pool),
      cache_(table, PartitionCache::DeferBasePartitions{}),
      validator_(table, options.validator, options.epsilon,
                 options.afd_error, options.collect_removal_sets) {
  AOD_CHECK(table != nullptr);
}

void ShardRunner::Preload(AttributeSet attributes,
                          StrippedPartition partition) {
  cache_.Preload(attributes, std::move(partition));
  SampleResidency();
}

Status ShardRunner::PreloadBlock(const DecodedFrame& frame) {
  AOD_ASSIGN_OR_RETURN(auto block,
                       DecodePartitionBlock(frame, table_->num_rows()));
  Preload(block.first, std::move(block.second));
  return Status::OK();
}

void ShardRunner::SampleResidency() {
  bytes_peak_ = std::max(bytes_peak_, cache_.bytes_resident());
}

ShardStatsFooter ShardRunner::FooterStats() const {
  ShardStatsFooter footer;
  footer.shard_id = static_cast<uint32_t>(shard_id_);
  footer.products_computed = cache_.products_computed();
  footer.planner_derivations = cache_.planner_derivations();
  footer.planner_cost_estimated = cache_.planner_cost_estimated();
  footer.planner_cost_realized = cache_.planner_cost_realized();
  footer.partitions_evicted = cache_.partitions_evicted();
  footer.partition_bytes_evicted = bytes_evicted_;
  footer.partition_bytes_final = cache_.bytes_resident();
  footer.partition_bytes_peak = bytes_peak_;
  footer.partition_seconds =
      static_cast<double>(partition_nanos_.load(std::memory_order_relaxed)) /
      1e9;
  return footer;
}

std::vector<WireOutcome> ShardRunner::ValidateBatch(
    const std::vector<WireCandidate>& batch) {
  // Parallel over the batch on the runner's pool. Every outcome slot is
  // written by exactly one iteration, so the reply is in batch (=
  // ascending slot) order.
  std::vector<WireOutcome> outcomes(batch.size());
  exec::ParallelFor(pool_, 0, static_cast<int64_t>(batch.size()),
                    [&](int64_t i) {
                      ValidateOne(batch[static_cast<size_t>(i)],
                                  &outcomes[static_cast<size_t>(i)]);
                    });
  return outcomes;
}

void ShardRunner::FinishBatch(const std::vector<WireCandidate>& batch) {
  // ValidateBatch's ParallelFor has joined, so every cache future is
  // resolved — the precondition cost publishing, budget enforcement and
  // an exact residency sample need. Publishing the batch's resident
  // contexts lets the next batch's misses derive from them; the catalog
  // changes only here, between batches, so plans (and the product
  // counter) are pure functions of the validated batches, as in the
  // driver. Only resident contexts are published: publishing one that
  // is not would derive it.
  for (const WireCandidate& c : batch) {
    const AttributeSet context(c.context_bits);
    if (cache_.Contains(context)) cache_.PublishCost(context);
  }
  SampleResidency();
  if (options_.partition_memory_budget_bytes > 0) {
    bytes_evicted_ += cache_.EnforceBudget(
        options_.partition_memory_budget_bytes);
  }
}

void ShardRunner::ValidateOne(const WireCandidate& candidate,
                              WireOutcome* out) {
  const AttributeSet context(candidate.context_bits);
  std::shared_ptr<const StrippedPartition> partition;
  if (cache_.Contains(context)) {
    partition = cache_.Get(context);
  } else {
    Stopwatch derive_sw;
    partition = cache_.Get(context);
    partition_nanos_.fetch_add(derive_sw.ElapsedNanos(),
                               std::memory_order_relaxed);
  }
  CandidateVerdict verdict = validator_.Validate(
      context, *partition, candidate.kind, candidate.target,
      AttributePair{candidate.pair_a, candidate.pair_b, candidate.opposite});
  out->slot = candidate.slot;
  out->kind = candidate.kind;
  out->valid = verdict.valid;
  out->early_exit = verdict.early_exit;
  out->removal_size = verdict.removal_size;
  out->approx_factor = verdict.error;
  out->removal_rows = std::move(verdict.removal_rows);
  out->interestingness = verdict.interestingness;
  out->seconds = verdict.seconds;
}

// ------------------------------------------------------------ serve loop --

ShardServeLoop::ShardServeLoop(ShardRunner* runner, ShardChannel* channel)
    : runner_(runner), channel_(channel) {
  AOD_CHECK(runner != nullptr && channel != nullptr);
}

Status ShardServeLoop::ServeOne(bool* shutdown) {
  if (shutdown != nullptr) *shutdown = false;
  AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, channel_->Receive());
  AOD_ASSIGN_OR_RETURN(DecodedFrame frame, DecodeFrame(raw));
  ++frames_served_;
  switch (frame.type) {
    case FrameType::kPartitionBlock:
      return runner_->PreloadBlock(frame);
    case FrameType::kCandidateBatch:
      return HandleCandidateBatch(frame);
    case FrameType::kShutdown: {
      if (shutdown != nullptr) *shutdown = true;
      ShardStatsFooter footer = runner_->FooterStats();
      footer.frames_served = frames_served_;
      return channel_->Send(EncodeStatsFooter(footer));
    }
    case FrameType::kResultBatch:
    case FrameType::kTableBlock:
    case FrameType::kConfigBlock:
    case FrameType::kStatsFooter:
    case FrameType::kJobSubmit:  // serve-layer vocabulary; never shard-bound
    case FrameType::kJobStatus:
    case FrameType::kJobResultBatch:
    case FrameType::kJobError:
    case FrameType::kCancel:
    case FrameType::kPartitionFragment:  // row-shard reply; coordinator-bound
      break;
  }
  return Status::InvalidArgument("unexpected frame type on shard inbox");
}

Status ShardServeLoop::Serve() {
  for (;;) {
    bool shutdown = false;
    AOD_RETURN_NOT_OK(ServeOne(&shutdown));
    if (shutdown) return Status::OK();
  }
}

Status ShardServeLoop::HandleCandidateBatch(const DecodedFrame& frame) {
  AOD_ASSIGN_OR_RETURN(std::vector<WireCandidate> batch,
                       DecodeCandidateBatch(frame));

  // A candidate whose kind this run never enabled is a coordinator bug
  // (or a corrupted-but-checksum-valid stream), not work to skip: reject
  // the whole batch before spending any validation time on it.
  const DependencyKindSet& kinds = runner_->options().kinds;
  for (const WireCandidate& c : batch) {
    if (!kinds.Contains(c.kind)) {
      return Status::InvalidArgument(
          "candidate batch carries kind '" +
          std::string(DependencyKindToString(c.kind)) +
          "' outside the configured set " + kinds.ToString());
    }
  }
  std::vector<WireOutcome> completed = runner_->ValidateBatch(batch);

  // Reply as chunks of at most kChunkOutcomes outcomes (last one
  // final-flagged), which bound the frame size; each chunk is one frame.
  constexpr size_t kChunkOutcomes = 512;
  size_t begin = 0;
  do {
    const size_t end = std::min(begin + kChunkOutcomes, completed.size());
    std::vector<WireOutcome> chunk(
        std::make_move_iterator(completed.begin() + begin),
        std::make_move_iterator(completed.begin() + end));
    const bool final_chunk = end == completed.size();
    AOD_RETURN_NOT_OK(channel_->Send(EncodeResultBatch(chunk, final_chunk)));
    begin = end;
  } while (begin < completed.size());
  // Publish and evict after the reply is on its way, so the
  // coordinator's wait for this level never includes eviction time.
  runner_->FinishBatch(batch);
  return Status::OK();
}

}  // namespace shard
}  // namespace aod
