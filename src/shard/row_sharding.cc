#include "shard/row_sharding.h"

#include <string>
#include <utility>

#include "common/macros.h"
#include "shard/supervisor.h"

namespace aod {
namespace shard {

std::vector<RowRange> AssignRowRanges(int64_t num_rows, int row_shards) {
  AOD_CHECK_MSG(num_rows >= 0 && row_shards >= 1,
                "row ranges need a non-negative table and >= 1 shard");
  std::vector<RowRange> ranges(static_cast<size_t>(row_shards));
  for (int s = 0; s < row_shards; ++s) {
    ranges[static_cast<size_t>(s)].begin = num_rows * s / row_shards;
    ranges[static_cast<size_t>(s)].end = num_rows * (s + 1) / row_shards;
  }
  return ranges;
}

namespace {

Status ExpectType(const DecodedFrame& frame, FrameType want,
                  const char* what) {
  if (frame.type != want) {
    return Status::ParseError(std::string("row shard expected ") + what);
  }
  return Status::OK();
}

/// Coordinator side of one shard's reply: k fragment frames (possibly
/// enveloped) for distinct attributes over exactly `range`, then the
/// stats footer. Appends each fragment to fragments[attribute] — the
/// outer per-shard loop is sequential, so per-attribute fragments
/// accumulate in ascending range order, which is what StitchPartitions
/// requires.
Status DrainShardReply(ShardChannel* from, int shard, const RowRange& range,
                       int num_columns, int64_t num_rows,
                       std::vector<std::vector<PartitionFragment>>* fragments,
                       RowShardStats* stats) {
  LogicalFrameReceiver receiver(from);
  std::vector<uint8_t> seen(static_cast<size_t>(num_columns), 0);
  for (int i = 0; i < num_columns; ++i) {
    AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, receiver.Receive());
    AOD_ASSIGN_OR_RETURN(DecodedFrame frame, DecodeFrame(raw));
    AOD_RETURN_NOT_OK(
        ExpectType(frame, FrameType::kPartitionFragment, "a fragment"));
    AOD_ASSIGN_OR_RETURN(
        PartitionFragment fragment,
        DecodePartitionFragment(frame, num_rows, &stats->fragment_counts));
    if (fragment.row_begin != range.begin || fragment.row_end != range.end) {
      return Status::ParseError("fragment range disagrees with the shard's "
                                "assignment");
    }
    if (fragment.attribute < 0 || fragment.attribute >= num_columns) {
      return Status::ParseError("fragment for an attribute the table lacks");
    }
    if (seen[static_cast<size_t>(fragment.attribute)]) {
      return Status::ParseError("duplicate fragment for one attribute");
    }
    seen[static_cast<size_t>(fragment.attribute)] = 1;
    (*fragments)[static_cast<size_t>(fragment.attribute)].push_back(
        std::move(fragment));
  }
  AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, receiver.Receive());
  AOD_ASSIGN_OR_RETURN(DecodedFrame frame, DecodeFrame(raw));
  AOD_RETURN_NOT_OK(
      ExpectType(frame, FrameType::kStatsFooter, "the stats footer"));
  AOD_ASSIGN_OR_RETURN(ShardStatsFooter footer, DecodeStatsFooter(frame));
  if (footer.shard_id != static_cast<uint32_t>(shard)) {
    return Status::ParseError("stats footer from the wrong row shard");
  }
  // The runner served config + table + shutdown; a different count means
  // the conversation desynchronized somewhere upstream.
  if (footer.frames_served != 3) {
    return Status::ParseError("row shard served an unexpected frame count");
  }
  return Status::OK();
}

}  // namespace

Status ServeRowShardAfterConfig(const WireRunnerConfig& config,
                                ShardChannel* channel) {
  if (config.row_end <= config.row_begin) {
    return Status::InvalidArgument("config carries no row range");
  }
  CodecByteCounts decoded;
  AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> table_raw, channel->Receive());
  AOD_ASSIGN_OR_RETURN(DecodedFrame table_frame, DecodeFrame(table_raw));
  AOD_RETURN_NOT_OK(
      ExpectType(table_frame, FrameType::kTableBlock, "a table slice"));
  AOD_ASSIGN_OR_RETURN(WireTableSlice slice,
                       DecodeTableSlice(table_frame, &decoded));
  if (slice.row_offset != config.row_begin ||
      slice.row_offset + slice.table.num_rows() != config.row_end ||
      slice.total_rows < config.row_end) {
    return Status::ParseError("table slice disagrees with the configured "
                              "row range");
  }

  const int k = slice.table.num_columns();
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(static_cast<size_t>(k));
  CodecByteCounts encoded;
  for (int a = 0; a < k; ++a) {
    frames.push_back(EncodePartitionFragment(
        FragmentFromSlice(slice.table.column(a), slice.row_offset, a),
        /*compress=*/true, &encoded));
  }
  if (frames.size() == 1) {
    AOD_RETURN_NOT_OK(channel->Send(std::move(frames[0])));
  } else if (frames.size() > 1) {
    AOD_RETURN_NOT_OK(channel->Send(EncodeBatchEnvelope(frames)));
  }

  AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> shutdown_raw, channel->Receive());
  AOD_ASSIGN_OR_RETURN(DecodedFrame shutdown_frame, DecodeFrame(shutdown_raw));
  AOD_RETURN_NOT_OK(
      ExpectType(shutdown_frame, FrameType::kShutdown, "the shutdown"));

  ShardStatsFooter footer;
  footer.shard_id = config.shard_id;
  footer.attempt_id = config.attempt_id;
  footer.frames_served = 3;  // config + table slice + shutdown
  footer.bytes_decoded_raw = decoded.raw;
  footer.bytes_decoded_wire = decoded.wire;
  return channel->Send(EncodeStatsFooter(footer));
}

Result<std::vector<StrippedPartition>> ComputeRowShardedBases(
    const EncodedTable& table, int row_shards,
    const ShardTransportOptions& transport, RowShardStats* stats) {
  AOD_CHECK_MSG(row_shards >= 1, "row sharding needs >= 1 shard");
  const int64_t num_rows = table.num_rows();
  const int k = table.num_columns();
  RowShardStats local;
  RowShardStats* st = stats != nullptr ? stats : &local;
  st->row_shards = row_shards;
  st->table_bytes_per_shard.assign(static_cast<size_t>(row_shards), 0);

  ChannelOptions copts;
  copts.max_frame_bytes = transport.max_frame_bytes;
  copts.receive_timeout_seconds = transport.io_timeout_seconds;

  const std::vector<RowRange> ranges = AssignRowRanges(num_rows, row_shards);
  std::vector<std::vector<PartitionFragment>> fragments(
      static_cast<size_t>(k));
  for (auto& per_attr : fragments) {
    per_attr.reserve(static_cast<size_t>(row_shards));
  }

  for (int s = 0; s < row_shards; ++s) {
    const RowRange& range = ranges[static_cast<size_t>(s)];
    if (range.begin == range.end) {
      // Nothing to partition; synthesize the empty fragments locally so
      // the stitch still sees a contiguous tiling.
      for (int a = 0; a < k; ++a) {
        fragments[static_cast<size_t>(a)].push_back(
            FragmentFromColumn(table.column(a), range.begin, range.end, a));
      }
      continue;
    }

    WireRunnerConfig config;
    config.shard_id = static_cast<uint32_t>(s);
    config.row_begin = range.begin;
    config.row_end = range.end;
    std::vector<uint8_t> config_frame = EncodeConfigBlock(config);
    std::vector<uint8_t> slice_frame = EncodeTableSlice(
        table, range.begin, range.end, /*compress=*/true, &st->slice_counts);
    st->table_bytes_per_shard[static_cast<size_t>(s)] =
        static_cast<int64_t>(slice_frame.size());

    AOD_ASSIGN_OR_RETURN(
        SpawnedRunner runner,
        SpawnRunner(transport.runner_path, transport.io_timeout_seconds,
                    copts));
    // Run the conversation, then reap unconditionally — an error path
    // must not leak the child.
    ShardChannel* channel = runner.channel.get();
    Status conversation = [&]() -> Status {
      AOD_RETURN_NOT_OK(channel->Send(std::move(config_frame)));
      AOD_RETURN_NOT_OK(channel->Send(std::move(slice_frame)));
      AOD_RETURN_NOT_OK(channel->Send(EncodeShutdown()));
      AOD_RETURN_NOT_OK(
          DrainShardReply(channel, s, range, k, num_rows, &fragments, st));
      st->bytes_shipped_total +=
          channel->bytes_sent() + channel->bytes_received();
      return Status::OK();
    }();
    channel->Close();
    KillAndReap(runner.pid, transport.io_timeout_seconds);
    AOD_RETURN_NOT_OK(conversation);
  }

  std::vector<StrippedPartition> bases;
  bases.reserve(static_cast<size_t>(k));
  for (int a = 0; a < k; ++a) {
    AOD_ASSIGN_OR_RETURN(
        StrippedPartition base,
        StitchPartitions(fragments[static_cast<size_t>(a)], num_rows));
    bases.push_back(std::move(base));
  }
  return bases;
}

}  // namespace shard
}  // namespace aod
