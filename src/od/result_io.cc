#include "od/result_io.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "shard/wire.h"

namespace aod {
namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ContextArray(const AttributeSet& context,
                         const EncodedTable& table) {
  std::string out = "[";
  bool first = true;
  context.ForEach([&](int a) {
    if (!first) out += ", ";
    out += "\"" + JsonEscape(table.name(a)) + "\"";
    first = false;
  });
  out += "]";
  return out;
}

std::string CsvEscapeField(const std::string& s) {
  if (s.find(',') == std::string::npos &&
      s.find('"') == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

std::string ResultToJson(const DiscoveryResult& result,
                         const EncodedTable& table) {
  std::ostringstream out;
  // One record for an OC pair; target kinds (OFD/FD/AFD) share the
  // rhs-only shape below.
  auto pair_record = [&](const DiscoveredDependency& d, bool last) {
    out << "    {\"context\": " << ContextArray(d.context, table)
        << ", \"lhs\": \"" << JsonEscape(table.name(d.a)) << "\", \"rhs\": \""
        << JsonEscape(table.name(d.b)) << "\", \"polarity\": \""
        << (d.opposite ? "opposite" : "same")
        << "\", \"factor\": " << FormatDouble(d.error, 6)
        << ", \"removal\": " << d.removal_size << ", \"level\": " << d.level
        << ", \"score\": " << FormatDouble(d.interestingness, 6) << "}"
        << (last ? "" : ",") << "\n";
  };
  auto target_record = [&](const DiscoveredDependency& d, bool last) {
    out << "    {\"context\": " << ContextArray(d.context, table)
        << ", \"rhs\": \"" << JsonEscape(table.name(d.a))
        << "\", \"factor\": " << FormatDouble(d.error, 6)
        << ", \"removal\": " << d.removal_size << ", \"level\": " << d.level
        << ", \"score\": " << FormatDouble(d.interestingness, 6) << "}"
        << (last ? "" : ",") << "\n";
  };
  const auto ocs = result.Ocs();
  const auto ofds = result.Ofds();
  const auto fds = result.Fds();
  const auto afds = result.Afds();
  out << "{\n  \"ocs\": [\n";
  for (size_t i = 0; i < ocs.size(); ++i) {
    pair_record(*ocs[i], i + 1 == ocs.size());
  }
  out << "  ],\n  \"ofds\": [\n";
  for (size_t i = 0; i < ofds.size(); ++i) {
    target_record(*ofds[i], i + 1 == ofds.size());
  }
  out << "  ],\n";
  // FD/AFD sections appear only when those kinds produced results, so an
  // oc+ofd run (the default) emits the document PR 8 clients parse.
  if (!fds.empty()) {
    out << "  \"fds\": [\n";
    for (size_t i = 0; i < fds.size(); ++i) {
      target_record(*fds[i], i + 1 == fds.size());
    }
    out << "  ],\n";
  }
  if (!afds.empty()) {
    out << "  \"afds\": [\n";
    for (size_t i = 0; i < afds.size(); ++i) {
      target_record(*afds[i], i + 1 == afds.size());
    }
    out << "  ],\n";
  }
  const bool fd_kinds_ran = result.stats.fd_candidates_validated +
                                result.stats.afd_candidates_validated >
                            0;
  out << "  \"stats\": {\n"
      << "    \"total_seconds\": "
      << FormatDouble(result.stats.total_seconds, 6) << ",\n"
      << "    \"oc_validation_seconds\": "
      << FormatDouble(result.stats.oc_validation_seconds, 6) << ",\n"
      << "    \"ofd_validation_seconds\": "
      << FormatDouble(result.stats.ofd_validation_seconds, 6) << ",\n";
  if (fd_kinds_ran) {
    out << "    \"fd_validation_seconds\": "
        << FormatDouble(result.stats.fd_validation_seconds, 6) << ",\n"
        << "    \"afd_validation_seconds\": "
        << FormatDouble(result.stats.afd_validation_seconds, 6) << ",\n";
  }
  out << "    \"oc_candidates_validated\": "
      << result.stats.oc_candidates_validated << ",\n"
      << "    \"ofd_candidates_validated\": "
      << result.stats.ofd_candidates_validated << ",\n";
  if (fd_kinds_ran) {
    out << "    \"fd_candidates_validated\": "
        << result.stats.fd_candidates_validated << ",\n"
        << "    \"afd_candidates_validated\": "
        << result.stats.afd_candidates_validated << ",\n";
  }
  out << "    \"oc_candidates_pruned\": "
      << result.stats.oc_candidates_pruned << ",\n"
      << "    \"nodes_processed\": " << result.stats.nodes_processed
      << ",\n"
      << "    \"levels_processed\": " << result.stats.levels_processed
      << ",\n"
      << "    \"timed_out\": " << (result.timed_out ? "true" : "false")
      << "\n  }\n}\n";
  return out.str();
}

std::string ResultToCsv(const DiscoveryResult& result,
                        const EncodedTable& table) {
  std::ostringstream out;
  out << "kind,context,lhs,rhs,polarity,factor,removal,level,score\n";
  auto context_string = [&table](const AttributeSet& context) {
    std::vector<std::string> names;
    context.ForEach([&](int a) { names.push_back(table.name(a)); });
    return JoinStrings(names, "|");
  };
  auto target_row = [&](const char* kind, const DiscoveredDependency& d) {
    out << kind << "," << CsvEscapeField(context_string(d.context)) << ",,"
        << CsvEscapeField(table.name(d.a)) << ",,"
        << FormatDouble(d.error, 6) << "," << d.removal_size << ","
        << d.level << "," << FormatDouble(d.interestingness, 6) << "\n";
  };
  // Kind-grouped row order (all OCs, then OFDs, FDs, AFDs) — the PR 8
  // layout, with the new kinds appended.
  for (const DiscoveredDependency* d : result.Ocs()) {
    out << "oc," << CsvEscapeField(context_string(d->context)) << ","
        << CsvEscapeField(table.name(d->a)) << ","
        << CsvEscapeField(table.name(d->b)) << ","
        << (d->opposite ? "opposite" : "same") << ","
        << FormatDouble(d->error, 6) << "," << d->removal_size << ","
        << d->level << "," << FormatDouble(d->interestingness, 6) << "\n";
  }
  for (const DiscoveredDependency* d : result.Ofds()) target_row("ofd", *d);
  for (const DiscoveredDependency* d : result.Fds()) target_row("fd", *d);
  for (const DiscoveredDependency* d : result.Afds()) target_row("afd", *d);
  return out.str();
}

Status WriteStringToFile(const std::string& path,
                         const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << content;
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

namespace {

/// Bump on any layout change; the decoder rejects everything else. The
/// blob is an internal interchange format (server <-> client of the same
/// build lineage), so there is no cross-version decode path.
///
/// Version 2: the per-kind OC/OFD record lists became one unified list of
/// kind-tagged DiscoveredDependency records, and DiscoveryStats gained
/// the FD/AFD counter block.
/// Version 3: DiscoveryStats lost its backup-attempt win/loss counters.
/// Version 4: the row-shard counters (row_shards_used and its byte
/// accounting) are carried too.
/// Version 5: the four shard supervision counters are gone; sharded runs
/// are fail-stop.
/// Version 6: the five per-level vectors became one list of per-level
/// records, each its node count and then its found count per kind.
constexpr uint16_t kResultBlobVersion = 6;

void PutStats(shard::WireWriter& w, const DiscoveryStats& s) {
  w.PutDouble(s.total_seconds);
  w.PutDouble(s.oc_validation_seconds);
  w.PutDouble(s.ofd_validation_seconds);
  w.PutDouble(s.fd_validation_seconds);
  w.PutDouble(s.afd_validation_seconds);
  w.PutDouble(s.partition_seconds);
  w.PutDouble(s.candidate_wall_seconds);
  w.PutDouble(s.validation_wall_seconds);
  w.PutDouble(s.partition_wall_seconds);
  w.PutDouble(s.merge_wall_seconds);
  w.PutVarintI64(s.threads_used);
  w.PutVarintI64(s.shards_used);
  w.PutVarintI64(s.shard_bytes_shipped);
  w.PutVarint(s.shard_bytes_per_shard.size());
  for (int64_t b : s.shard_bytes_per_shard) w.PutVarintI64(b);
  w.PutVarintI64(s.shard_bytes_raw);
  w.PutVarintI64(s.shard_bytes_wire);
  w.PutVarint(s.shard_frame_bytes.size());
  for (const auto& fb : s.shard_frame_bytes) {
    w.PutString(fb.frame_type);
    w.PutVarintI64(fb.bytes_raw);
    w.PutVarintI64(fb.bytes_wire);
  }
  w.PutVarintI64(s.row_shards_used);
  w.PutVarint(s.row_shard_bytes_per_shard.size());
  for (int64_t b : s.row_shard_bytes_per_shard) w.PutVarintI64(b);
  w.PutVarintI64(s.row_shard_bytes_shipped);
  w.PutVarintI64(s.row_shard_bytes_raw);
  w.PutVarintI64(s.row_shard_bytes_wire);
  w.PutVarintI64(s.partition_bytes_peak);
  w.PutVarintI64(s.partition_bytes_evicted);
  w.PutVarintI64(s.partition_bytes_final);
  w.PutVarintI64(s.planner_derivations);
  w.PutVarintI64(s.planner_cost_estimated);
  w.PutVarintI64(s.planner_cost_realized);
  w.PutVarintI64(s.partitions_evicted);
  w.PutVarintI64(s.oc_candidates_validated);
  w.PutVarintI64(s.ofd_candidates_validated);
  w.PutVarintI64(s.fd_candidates_validated);
  w.PutVarintI64(s.afd_candidates_validated);
  w.PutVarintI64(s.oc_candidates_pruned);
  w.PutVarintI64(s.nodes_processed);
  w.PutVarintI64(s.partitions_computed);
  w.PutVarintI64(s.levels_processed);
  w.PutVarint(s.levels.size());
  for (const LevelStats& level : s.levels) {
    w.PutVarintI64(level.nodes);
    for (int64_t found : level.found) w.PutVarintI64(found);
  }
}

Status GetI64Vector(shard::WireReader& r, std::vector<int64_t>* out) {
  uint64_t count = 0;
  AOD_RETURN_NOT_OK(r.GetVarint(&count));
  // Each element costs at least one payload byte; a count beyond the
  // remaining bytes is structurally impossible, so reject it before
  // any allocation.
  if (count > r.remaining()) {
    return Status::ParseError("result blob: vector count exceeds payload");
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    int64_t v = 0;
    AOD_RETURN_NOT_OK(r.GetVarintI64(&v));
    out->push_back(v);
  }
  return Status::OK();
}

Status GetStats(shard::WireReader& r, DiscoveryStats* s) {
  AOD_RETURN_NOT_OK(r.GetDouble(&s->total_seconds));
  AOD_RETURN_NOT_OK(r.GetDouble(&s->oc_validation_seconds));
  AOD_RETURN_NOT_OK(r.GetDouble(&s->ofd_validation_seconds));
  AOD_RETURN_NOT_OK(r.GetDouble(&s->fd_validation_seconds));
  AOD_RETURN_NOT_OK(r.GetDouble(&s->afd_validation_seconds));
  AOD_RETURN_NOT_OK(r.GetDouble(&s->partition_seconds));
  AOD_RETURN_NOT_OK(r.GetDouble(&s->candidate_wall_seconds));
  AOD_RETURN_NOT_OK(r.GetDouble(&s->validation_wall_seconds));
  AOD_RETURN_NOT_OK(r.GetDouble(&s->partition_wall_seconds));
  AOD_RETURN_NOT_OK(r.GetDouble(&s->merge_wall_seconds));
  int64_t v = 0;
  AOD_RETURN_NOT_OK(r.GetVarintI64(&v));
  s->threads_used = static_cast<int>(v);
  AOD_RETURN_NOT_OK(r.GetVarintI64(&v));
  s->shards_used = static_cast<int>(v);
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->shard_bytes_shipped));
  AOD_RETURN_NOT_OK(GetI64Vector(r, &s->shard_bytes_per_shard));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->shard_bytes_raw));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->shard_bytes_wire));
  uint64_t frame_count = 0;
  AOD_RETURN_NOT_OK(r.GetVarint(&frame_count));
  if (frame_count > r.remaining()) {
    return Status::ParseError("result blob: frame-bytes count exceeds payload");
  }
  s->shard_frame_bytes.clear();
  s->shard_frame_bytes.reserve(frame_count);
  for (uint64_t i = 0; i < frame_count; ++i) {
    DiscoveryStats::FrameTypeBytes fb;
    AOD_RETURN_NOT_OK(r.GetString(&fb.frame_type));
    AOD_RETURN_NOT_OK(r.GetVarintI64(&fb.bytes_raw));
    AOD_RETURN_NOT_OK(r.GetVarintI64(&fb.bytes_wire));
    s->shard_frame_bytes.push_back(std::move(fb));
  }
  AOD_RETURN_NOT_OK(r.GetVarintI64(&v));
  s->row_shards_used = static_cast<int>(v);
  AOD_RETURN_NOT_OK(GetI64Vector(r, &s->row_shard_bytes_per_shard));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->row_shard_bytes_shipped));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->row_shard_bytes_raw));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->row_shard_bytes_wire));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->partition_bytes_peak));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->partition_bytes_evicted));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->partition_bytes_final));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->planner_derivations));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->planner_cost_estimated));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->planner_cost_realized));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->partitions_evicted));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->oc_candidates_validated));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->ofd_candidates_validated));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->fd_candidates_validated));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->afd_candidates_validated));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->oc_candidates_pruned));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->nodes_processed));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&s->partitions_computed));
  AOD_RETURN_NOT_OK(r.GetVarintI64(&v));
  s->levels_processed = static_cast<int>(v);
  uint64_t levels = 0;
  AOD_RETURN_NOT_OK(r.GetVarint(&levels));
  // A record is 1 + kNumDependencyKinds varints of at least one byte.
  if (levels > r.remaining() / (1 + kNumDependencyKinds)) {
    return Status::ParseError("result blob: level count exceeds payload");
  }
  s->levels.assign(levels, LevelStats{});
  for (LevelStats& level : s->levels) {
    AOD_RETURN_NOT_OK(r.GetVarintI64(&level.nodes));
    for (int64_t& found : level.found) {
      AOD_RETURN_NOT_OK(r.GetVarintI64(&found));
    }
  }
  return Status::OK();
}

Status CheckAttribute(int a, const char* what) {
  if (a < 0 || a >= AttributeSet::kMaxAttributes) {
    return Status::ParseError(std::string("result blob: ") + what +
                              " attribute out of range");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> SerializeResult(const DiscoveryResult& result) {
  shard::WireWriter w;
  w.PutU16(kResultBlobVersion);
  w.PutVarint(result.dependencies.size());
  for (const auto& d : result.dependencies) {
    w.PutU8(static_cast<uint8_t>(d.kind));
    w.PutVarint(d.context.bits());
    w.PutVarintI64(d.a);
    w.PutVarintI64(d.b);
    w.PutU8(d.opposite ? 1 : 0);
    w.PutDouble(d.error);
    w.PutVarintI64(d.removal_size);
    w.PutVarintI64(d.level);
    w.PutDouble(d.interestingness);
    w.PutI32Array(d.removal_rows);
  }
  PutStats(w, result.stats);
  w.PutU8(result.timed_out ? 1 : 0);
  w.PutU8(result.cancelled ? 1 : 0);
  w.PutU8(static_cast<uint8_t>(result.shard_status.code()));
  w.PutString(result.shard_status.message());
  return w.payload();
}

Result<DiscoveryResult> DeserializeResult(const uint8_t* data, size_t size) {
  shard::WireReader r(data, size);
  uint16_t version = 0;
  AOD_RETURN_NOT_OK(r.GetU16(&version));
  if (version != kResultBlobVersion) {
    return Status::ParseError("result blob: unsupported version " +
                              std::to_string(version));
  }
  DiscoveryResult result;
  uint64_t count = 0;
  AOD_RETURN_NOT_OK(r.GetVarint(&count));
  if (count > r.remaining()) {
    return Status::ParseError(
        "result blob: dependency count exceeds payload");
  }
  result.dependencies.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    DiscoveredDependency d;
    uint8_t kind = 0;
    uint64_t bits = 0;
    int64_t v = 0;
    AOD_RETURN_NOT_OK(r.GetU8(&kind));
    if (kind >= kNumDependencyKinds) {
      return Status::ParseError("result blob: unknown dependency kind id " +
                                std::to_string(kind));
    }
    d.kind = static_cast<DependencyKind>(kind);
    AOD_RETURN_NOT_OK(r.GetVarint(&bits));
    d.context = AttributeSet(bits);
    AOD_RETURN_NOT_OK(r.GetVarintI64(&v));
    d.a = static_cast<int>(v);
    AOD_RETURN_NOT_OK(r.GetVarintI64(&v));
    d.b = static_cast<int>(v);
    uint8_t opposite = 0;
    AOD_RETURN_NOT_OK(r.GetU8(&opposite));
    if (opposite > 1) {
      return Status::ParseError("result blob: bad polarity flag");
    }
    d.opposite = opposite != 0;
    // The pair fields are meaningful only for the OC kind; a target-kind
    // record carrying them is a forgery, not a benign extra.
    if (d.kind == DependencyKind::kOc) {
      AOD_RETURN_NOT_OK(CheckAttribute(d.a, "OC lhs"));
      AOD_RETURN_NOT_OK(CheckAttribute(d.b, "OC rhs"));
    } else {
      AOD_RETURN_NOT_OK(CheckAttribute(d.a, "target"));
      if (d.b != -1 || d.opposite) {
        return Status::ParseError(
            "result blob: target-kind record carries OC pair fields");
      }
    }
    AOD_RETURN_NOT_OK(r.GetDouble(&d.error));
    AOD_RETURN_NOT_OK(r.GetVarintI64(&d.removal_size));
    AOD_RETURN_NOT_OK(r.GetVarintI64(&v));
    d.level = static_cast<int>(v);
    AOD_RETURN_NOT_OK(r.GetDouble(&d.interestingness));
    AOD_RETURN_NOT_OK(r.GetI32Array(&d.removal_rows));
    result.dependencies.push_back(std::move(d));
  }
  AOD_RETURN_NOT_OK(GetStats(r, &result.stats));
  uint8_t flag = 0;
  AOD_RETURN_NOT_OK(r.GetU8(&flag));
  result.timed_out = flag != 0;
  AOD_RETURN_NOT_OK(r.GetU8(&flag));
  result.cancelled = flag != 0;
  uint8_t code = 0;
  AOD_RETURN_NOT_OK(r.GetU8(&code));
  if (code > static_cast<uint8_t>(StatusCode::kShuttingDown)) {
    return Status::ParseError("result blob: unknown status code");
  }
  std::string message;
  AOD_RETURN_NOT_OK(r.GetString(&message));
  result.shard_status = Status(static_cast<StatusCode>(code),
                               std::move(message));
  AOD_RETURN_NOT_OK(r.ExpectEnd());
  return result;
}

Result<DiscoveryResult> DeserializeResult(const std::vector<uint8_t>& bytes) {
  return DeserializeResult(bytes.data(), bytes.size());
}

}  // namespace aod
