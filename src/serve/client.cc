#include "serve/client.h"

#include <algorithm>
#include <utility>

#include "od/result_io.h"
#include "serve/table_cache.h"
#include "shard/wire.h"

namespace aod {
namespace serve {

using shard::DecodedFrame;
using shard::FrameType;

DiscoveryClient::DiscoveryClient(
    std::unique_ptr<shard::SocketShardChannel> channel)
    : channel_(std::move(channel)) {}

Result<std::unique_ptr<DiscoveryClient>> DiscoveryClient::Connect(
    const std::string& host, uint16_t port, const Options& options) {
  shard::ChannelOptions copts;
  copts.max_frame_bytes = options.max_frame_bytes;
  copts.receive_timeout_seconds = options.io_timeout_seconds;
  AOD_ASSIGN_OR_RETURN(
      std::unique_ptr<shard::SocketShardChannel> channel,
      shard::SocketShardChannel::Connect(host, port,
                                         options.connect_timeout_seconds,
                                         copts));
  return std::unique_ptr<DiscoveryClient>(
      new DiscoveryClient(std::move(channel)));
}

Result<uint64_t> DiscoveryClient::Submit(const EncodedTable& table,
                                         const DiscoveryOptions& options,
                                         double deadline_seconds) {
  WireJobSubmit submit;
  submit.options = WireJobOptionsFrom(options);
  submit.options.deadline_seconds = deadline_seconds;
  const Digest128 digest = TableDigest(table);
  auto held = std::find(acked_tables_.begin(), acked_tables_.end(), digest);
  if (held != acked_tables_.end()) {
    submit.table_ref = digest;
    Result<uint64_t> job = SendSubmit(submit);
    if (job.ok() || job.status().code() != StatusCode::kNotFound) return job;
    // The server no longer resolves it (evicted): upload once instead.
    held->reset();
    submit.table_ref.reset();
  }
  submit.table_frame = shard::EncodeTableBlock(table);
  Result<uint64_t> job = SendSubmit(submit);
  if (job.ok()) RememberTable(digest);
  return job;
}

void DiscoveryClient::RememberTable(const Digest128& digest) {
  acked_tables_[next_acked_slot_] = digest;
  next_acked_slot_ = (next_acked_slot_ + 1) % acked_tables_.size();
}

Result<uint64_t> DiscoveryClient::SendSubmit(WireJobSubmit submit) {
  submit.request_id = next_request_id_++;
  AOD_RETURN_NOT_OK(channel_->Send(EncodeJobSubmit(submit)));

  // The ack (or rejection) for this request_id; frames belonging to
  // jobs already in flight are folded into their own buffers.
  for (;;) {
    AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, channel_->Receive());
    AOD_ASSIGN_OR_RETURN(DecodedFrame frame, shard::DecodeFrame(raw));
    switch (frame.type) {
      case FrameType::kJobStatus: {
        AOD_ASSIGN_OR_RETURN(WireJobStatus status, DecodeJobStatus(frame));
        if (status.request_id == submit.request_id) return status.job_id;
        break;  // progress of another job; droppable here
      }
      case FrameType::kJobError: {
        AOD_ASSIGN_OR_RETURN(WireJobError error, DecodeJobError(frame));
        if (error.request_id == submit.request_id || error.job_id == 0) {
          return error.status;
        }
        break;
      }
      case FrameType::kJobResultBatch:
        AOD_RETURN_NOT_OK(FoldResultChunk(frame));
        break;
      default:
        return Status::ParseError("unexpected frame type from server");
    }
  }
}

Status DiscoveryClient::FoldResultChunk(const DecodedFrame& frame) {
  AOD_ASSIGN_OR_RETURN(WireJobResultChunk chunk, DecodeJobResultChunk(frame));
  auto& blob = partial_[chunk.job_id];
  blob.insert(blob.end(), chunk.blob_bytes.begin(), chunk.blob_bytes.end());
  if (chunk.final_chunk) {
    AOD_ASSIGN_OR_RETURN(DiscoveryResult result, DeserializeResult(blob));
    partial_.erase(chunk.job_id);
    done_.emplace(chunk.job_id, std::move(result));
  }
  return Status::OK();
}

Result<DiscoveryResult> DiscoveryClient::Await(
    uint64_t job_id, std::function<void(const WireJobStatus&)> progress) {
  for (;;) {
    auto it = done_.find(job_id);
    if (it != done_.end()) {
      DiscoveryResult result = std::move(it->second);
      done_.erase(it);
      return result;
    }
    AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, channel_->Receive());
    AOD_ASSIGN_OR_RETURN(DecodedFrame frame, shard::DecodeFrame(raw));
    switch (frame.type) {
      case FrameType::kJobStatus: {
        AOD_ASSIGN_OR_RETURN(WireJobStatus status, DecodeJobStatus(frame));
        if (status.job_id == job_id && progress) progress(status);
        break;
      }
      case FrameType::kJobError: {
        AOD_ASSIGN_OR_RETURN(WireJobError error, DecodeJobError(frame));
        if (error.job_id == job_id || error.job_id == 0) {
          return error.status;
        }
        break;
      }
      case FrameType::kJobResultBatch:
        AOD_RETURN_NOT_OK(FoldResultChunk(frame));
        break;
      default:
        return Status::ParseError("unexpected frame type from server");
    }
  }
}

Status DiscoveryClient::Cancel(uint64_t job_id) {
  return channel_->Send(EncodeCancel(job_id));
}

Result<WireJobStatus> DiscoveryClient::Query(uint64_t job_id) {
  WireJobStatus query;
  query.job_id = job_id;
  AOD_RETURN_NOT_OK(channel_->Send(EncodeJobStatus(query)));
  for (;;) {
    AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, channel_->Receive());
    AOD_ASSIGN_OR_RETURN(DecodedFrame frame, shard::DecodeFrame(raw));
    switch (frame.type) {
      case FrameType::kJobStatus: {
        AOD_ASSIGN_OR_RETURN(WireJobStatus status, DecodeJobStatus(frame));
        if (status.job_id == job_id) return status;
        break;
      }
      case FrameType::kJobError: {
        AOD_ASSIGN_OR_RETURN(WireJobError error, DecodeJobError(frame));
        if (error.job_id == job_id || error.job_id == 0) {
          return error.status;
        }
        break;
      }
      case FrameType::kJobResultBatch:
        AOD_RETURN_NOT_OK(FoldResultChunk(frame));
        break;
      default:
        return Status::ParseError("unexpected frame type from server");
    }
  }
}

Result<DiscoveryResult> RunRemoteDiscovery(
    const std::string& host, uint16_t port, const EncodedTable& table,
    const DiscoveryOptions& options, double deadline_seconds,
    const DiscoveryClient::Options& client_options) {
  AOD_ASSIGN_OR_RETURN(std::unique_ptr<DiscoveryClient> client,
                       DiscoveryClient::Connect(host, port, client_options));
  AOD_ASSIGN_OR_RETURN(uint64_t job_id,
                       client->Submit(table, options, deadline_seconds));
  return client->Await(job_id);
}

}  // namespace serve
}  // namespace aod
