#include "serve/serve_wire.h"

namespace aod {
namespace serve {

using shard::DecodedFrame;
using shard::FrameType;
using shard::WireReader;
using shard::WireWriter;

namespace {

Status ExpectType(const DecodedFrame& frame, FrameType want,
                  const char* what) {
  if (frame.type != want) {
    return Status::ParseError(std::string("expected ") + what + " frame");
  }
  return Status::OK();
}

}  // namespace

const char* JobStateToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

WireJobOptions WireJobOptionsFrom(const DiscoveryOptions& options) {
  WireJobOptions wire;
  wire.epsilon = options.epsilon;
  wire.validator = static_cast<uint8_t>(options.validator);
  wire.kinds = options.kinds.bits();
  wire.afd_error = options.afd_error;
  wire.top_k = options.top_k;
  wire.max_level = options.max_level;
  wire.max_lhs_arity = options.max_lhs_arity;
  wire.bidirectional = options.bidirectional;
  wire.collect_removal_sets = options.collect_removal_sets;
  wire.partition_memory_budget_bytes = options.partition_memory_budget_bytes;
  wire.deadline_seconds = options.time_budget_seconds;
  return wire;
}

DiscoveryOptions ToDiscoveryOptions(const WireJobOptions& wire) {
  DiscoveryOptions options;
  options.epsilon = wire.epsilon;
  options.validator = static_cast<ValidatorKind>(wire.validator);
  options.kinds = DependencyKindSet(wire.kinds);
  options.afd_error = wire.afd_error;
  options.top_k = wire.top_k;
  options.max_level = wire.max_level;
  options.max_lhs_arity = wire.max_lhs_arity;
  options.bidirectional = wire.bidirectional;
  options.collect_removal_sets = wire.collect_removal_sets;
  options.partition_memory_budget_bytes = wire.partition_memory_budget_bytes;
  options.time_budget_seconds = wire.deadline_seconds;
  return options;
}

std::vector<uint8_t> EncodeJobSubmit(const WireJobSubmit& submit) {
  WireWriter w;
  w.PutU64(submit.request_id);
  const WireJobOptions& o = submit.options;
  w.PutDouble(o.epsilon);
  w.PutU8(o.validator);
  w.PutU32(o.kinds);
  w.PutDouble(o.afd_error);
  w.PutVarintI64(o.top_k);
  w.PutI32(o.max_level);
  w.PutI32(o.max_lhs_arity);
  w.PutU8(o.bidirectional ? 1 : 0);
  w.PutU8(o.collect_removal_sets ? 1 : 0);
  w.PutVarintI64(o.partition_memory_budget_bytes);
  w.PutDouble(o.deadline_seconds);
  if (submit.table_ref.has_value()) {
    w.PutU8(kTableSourceReference);
    w.PutU64(submit.table_ref->lo);
    w.PutU64(submit.table_ref->hi);
  } else {
    w.PutU8(kTableSourceInline);
    w.PutVarint(submit.table_frame.size());
    w.PutBytes(submit.table_frame.data(), submit.table_frame.size());
  }
  return w.SealFrame(FrameType::kJobSubmit);
}

Result<WireJobSubmit> DecodeJobSubmit(const DecodedFrame& frame) {
  AOD_RETURN_NOT_OK(ExpectType(frame, FrameType::kJobSubmit, "job submit"));
  WireReader r(frame.payload, frame.size);
  WireJobSubmit submit;
  AOD_RETURN_NOT_OK(r.GetU64(&submit.request_id));
  WireJobOptions& o = submit.options;
  AOD_RETURN_NOT_OK(r.GetDouble(&o.epsilon));
  AOD_RETURN_NOT_OK(r.GetU8(&o.validator));
  if (o.validator > 2) {
    return Status::ParseError("job submit: unknown validator kind");
  }
  AOD_RETURN_NOT_OK(r.GetU32(&o.kinds));
  if (o.kinds == 0 || !DependencyKindSet(o.kinds).IsValid()) {
    return Status::ParseError(
        "job submit: dependency-kind set invalid (bits " +
        std::to_string(o.kinds) + ")");
  }
  AOD_RETURN_NOT_OK(r.GetDouble(&o.afd_error));
  if (!(o.afd_error >= 0.0 && o.afd_error <= 1.0)) {
    return Status::ParseError("job submit: afd_error outside [0, 1]");
  }
  AOD_RETURN_NOT_OK(r.GetVarintI64(&o.top_k));
  if (o.top_k < 0) {
    return Status::ParseError("job submit: negative top_k");
  }
  AOD_RETURN_NOT_OK(r.GetI32(&o.max_level));
  AOD_RETURN_NOT_OK(r.GetI32(&o.max_lhs_arity));
  uint8_t flag = 0;
  AOD_RETURN_NOT_OK(r.GetU8(&flag));
  o.bidirectional = flag != 0;
  AOD_RETURN_NOT_OK(r.GetU8(&flag));
  o.collect_removal_sets = flag != 0;
  AOD_RETURN_NOT_OK(r.GetVarintI64(&o.partition_memory_budget_bytes));
  AOD_RETURN_NOT_OK(r.GetDouble(&o.deadline_seconds));
  if (!(o.epsilon >= 0.0 && o.epsilon <= 1.0)) {
    return Status::ParseError("job submit: epsilon outside [0, 1]");
  }
  uint8_t source = 0;
  AOD_RETURN_NOT_OK(r.GetU8(&source));
  if (source == kTableSourceReference) {
    Digest128 digest;
    AOD_RETURN_NOT_OK(r.GetU64(&digest.lo));
    AOD_RETURN_NOT_OK(r.GetU64(&digest.hi));
    AOD_RETURN_NOT_OK(r.ExpectEnd());
    submit.table_ref = digest;
    return submit;
  }
  if (source != kTableSourceInline) {
    return Status::ParseError("job submit: unknown table source " +
                              std::to_string(source));
  }
  uint64_t table_bytes = 0;
  AOD_RETURN_NOT_OK(r.GetVarint(&table_bytes));
  if (table_bytes != r.remaining()) {
    return Status::ParseError(
        "job submit: table frame length disagrees with payload");
  }
  submit.table_frame.assign(r.cursor(), r.cursor() + table_bytes);
  return submit;
}

std::vector<uint8_t> EncodeJobStatus(const WireJobStatus& status) {
  WireWriter w;
  w.PutU64(status.job_id);
  w.PutU64(status.request_id);
  w.PutU8(static_cast<uint8_t>(status.state));
  w.PutI32(status.queue_position);
  w.PutI32(status.level);
  for (int64_t total : status.totals) w.PutVarintI64(total);
  return w.SealFrame(FrameType::kJobStatus);
}

Result<WireJobStatus> DecodeJobStatus(const DecodedFrame& frame) {
  AOD_RETURN_NOT_OK(ExpectType(frame, FrameType::kJobStatus, "job status"));
  WireReader r(frame.payload, frame.size);
  WireJobStatus status;
  AOD_RETURN_NOT_OK(r.GetU64(&status.job_id));
  AOD_RETURN_NOT_OK(r.GetU64(&status.request_id));
  uint8_t state = 0;
  AOD_RETURN_NOT_OK(r.GetU8(&state));
  if (state > static_cast<uint8_t>(JobState::kFailed)) {
    return Status::ParseError("job status: unknown state");
  }
  status.state = static_cast<JobState>(state);
  AOD_RETURN_NOT_OK(r.GetI32(&status.queue_position));
  AOD_RETURN_NOT_OK(r.GetI32(&status.level));
  for (int64_t& total : status.totals) {
    AOD_RETURN_NOT_OK(r.GetVarintI64(&total));
    if (total < 0) {
      return Status::ParseError("job status: negative dependency count");
    }
  }
  AOD_RETURN_NOT_OK(r.ExpectEnd());
  return status;
}

std::vector<uint8_t> EncodeJobError(const WireJobError& error) {
  WireWriter w;
  w.PutU64(error.job_id);
  w.PutU64(error.request_id);
  w.PutU8(static_cast<uint8_t>(error.status.code()));
  w.PutString(error.status.message());
  return w.SealFrame(FrameType::kJobError);
}

Result<WireJobError> DecodeJobError(const DecodedFrame& frame) {
  AOD_RETURN_NOT_OK(ExpectType(frame, FrameType::kJobError, "job error"));
  WireReader r(frame.payload, frame.size);
  WireJobError error;
  AOD_RETURN_NOT_OK(r.GetU64(&error.job_id));
  AOD_RETURN_NOT_OK(r.GetU64(&error.request_id));
  uint8_t code = 0;
  AOD_RETURN_NOT_OK(r.GetU8(&code));
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kShuttingDown)) {
    // An OK job error is a protocol contradiction, not a quiet success.
    return Status::ParseError("job error: bad status code");
  }
  std::string message;
  AOD_RETURN_NOT_OK(r.GetString(&message));
  AOD_RETURN_NOT_OK(r.ExpectEnd());
  error.status = Status(static_cast<StatusCode>(code), std::move(message));
  return error;
}

std::vector<uint8_t> EncodeJobResultChunk(const WireJobResultChunk& chunk) {
  WireWriter w;
  w.PutU64(chunk.job_id);
  w.PutU8(chunk.final_chunk ? shard::kResultFlagFinalChunk : 0);
  w.PutVarint(chunk.blob_bytes.size());
  w.PutBytes(chunk.blob_bytes.data(), chunk.blob_bytes.size());
  return w.SealFrame(FrameType::kJobResultBatch);
}

Result<WireJobResultChunk> DecodeJobResultChunk(const DecodedFrame& frame) {
  AOD_RETURN_NOT_OK(
      ExpectType(frame, FrameType::kJobResultBatch, "job result"));
  WireReader r(frame.payload, frame.size);
  WireJobResultChunk chunk;
  AOD_RETURN_NOT_OK(r.GetU64(&chunk.job_id));
  uint8_t flags = 0;
  AOD_RETURN_NOT_OK(r.GetU8(&flags));
  if ((flags & ~shard::kResultFlagFinalChunk) != 0) {
    return Status::ParseError("job result: unknown flag bits");
  }
  chunk.final_chunk = (flags & shard::kResultFlagFinalChunk) != 0;
  uint64_t blob_bytes = 0;
  AOD_RETURN_NOT_OK(r.GetVarint(&blob_bytes));
  if (blob_bytes != r.remaining()) {
    return Status::ParseError(
        "job result: chunk length disagrees with payload");
  }
  chunk.blob_bytes.assign(r.cursor(), r.cursor() + blob_bytes);
  return chunk;
}

std::vector<uint8_t> EncodeCancel(uint64_t job_id) {
  WireWriter w;
  w.PutU64(job_id);
  return w.SealFrame(FrameType::kCancel);
}

Result<uint64_t> DecodeCancel(const DecodedFrame& frame) {
  AOD_RETURN_NOT_OK(ExpectType(frame, FrameType::kCancel, "cancel"));
  WireReader r(frame.payload, frame.size);
  uint64_t job_id = 0;
  AOD_RETURN_NOT_OK(r.GetU64(&job_id));
  AOD_RETURN_NOT_OK(r.ExpectEnd());
  return job_id;
}

}  // namespace serve
}  // namespace aod
