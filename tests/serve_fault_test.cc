// The acceptance gate of the serving layer: a DiscoveryServer under a
// storm of hostile clients must keep answering the healthy one —
// bit-identically to direct DiscoverOds — and leak nothing.
//
// The fault matrix, straight from the robustness contract in
// src/serve/server.h:
//
//   * client crash at each protocol stage (connect / mid-header /
//     post-submit / mid-result) — the abandoned jobs are cancelled and
//     reclaimed;
//   * malformed, oversized and desynced frames at every interesting
//     byte offset — each fails only its own connection, with a typed
//     error where the stream still permits one;
//   * job flood past the admission bounds — typed kOverloaded, never
//     queue growth; a drained server answers kShuttingDown;
//   * a slowloris connection that never completes a frame — dropped by
//     the idle timeout, not held forever;
//   * SIGTERM mid-job against the real discovery_serve binary — drains,
//     delivers, exits 0.
//
// Every test ends on the same two invariants: a healthy round trip
// still fingerprints equal to the direct run, and Shutdown leaves zero
// jobs, connections and fds behind.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "gen/flight_generator.h"
#include "od/discovery.h"
#include "od/result_io.h"
#include "serve/client.h"
#include "serve/scheduler.h"
#include "serve/serve_wire.h"
#include "serve/server.h"
#include "serve/table_cache.h"
#include "shard/wire.h"
#include "test_util.h"

namespace aod {
namespace {

using serve::DiscoveryClient;
using serve::DiscoveryServer;
using serve::JobState;
using serve::ServerOptions;
using serve::ServerStats;

void AppendDouble(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a,", v);  // exact hex fingerprint
  *out += buf;
}

/// Byte-exact serialization of both dependency lists with every payload
/// field — "bit-identical to direct DiscoverOds" made testable (same
/// discipline as shard_process_e2e_test).
std::string OutputFingerprint(const DiscoveryResult& result) {
  std::string out;
  for (const DiscoveredDependency& d : result.dependencies) {
    out += std::to_string(static_cast<int>(d.kind)) + "," +
           std::to_string(d.context.bits()) + "," + std::to_string(d.a) +
           "," + std::to_string(d.b) + "," + (d.opposite ? "1," : "0,");
    AppendDouble(&out, d.error);
    out += std::to_string(d.removal_size) + "," + std::to_string(d.level) +
           ",";
    AppendDouble(&out, d.interestingness);
    for (int32_t r : d.removal_rows) out += std::to_string(r) + ",";
    out += ';';
  }
  return out;
}

DiscoveryOptions SmallJobOptions() {
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  return options;
}

/// A table big enough that discovery reliably runs for several seconds
/// (measured: ~5s single-threaded) — the canvas for cancel, deadline
/// and disconnect races. Tests never let it run to completion.
EncodedTable SlowTable() {
  return EncodeTable(GenerateFlightTable(20000, 10, 3));
}

DiscoveryOptions SlowJobOptions() {
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.validator = ValidatorKind::kIterative;
  return options;
}

std::unique_ptr<DiscoveryServer> StartServer(ServerOptions options) {
  Result<std::unique_ptr<DiscoveryServer>> server =
      DiscoveryServer::Start(options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return server.ok() ? std::move(*server) : nullptr;
}

/// A plain TCP connection for byte-level fault injection — what a
/// buggy, hostile or crashed client looks like on the wire.
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void RawSend(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return;  // the server may already have dropped us
    sent += static_cast<size_t>(n);
  }
}

/// True once the server closed its end (recv sees EOF/reset) within
/// `timeout_seconds`.
bool WaitForPeerClose(int fd, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  char buf[256];
  while (std::chrono::steady_clock::now() < deadline) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

bool WaitForZeroJobs(DiscoveryServer* server, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (server->active_jobs() == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return server->active_jobs() == 0;
}

int OpenFdCount() {
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

/// One healthy round trip against `server`, asserted bit-identical to
/// the direct run. The workhorse invariant: whatever fault storm a test
/// raises, this must still pass afterwards (and during).
void ExpectHealthyRoundTrip(DiscoveryServer* server,
                            const EncodedTable& table,
                            const DiscoveryOptions& options) {
  DiscoveryResult direct = DiscoverOds(table, options);
  Result<DiscoveryResult> remote = serve::RunRemoteDiscovery(
      "127.0.0.1", server->port(), table, options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_FALSE(remote->cancelled);
  EXPECT_EQ(OutputFingerprint(*remote), OutputFingerprint(direct));
}

/// Re-seals `frame`'s payload after `edit` changes it, so the checksum
/// is valid and only the payload layout is wrong.
std::vector<uint8_t> ResealPayload(
    const std::vector<uint8_t>& frame,
    const std::function<void(std::vector<uint8_t>*)>& edit) {
  std::vector<uint8_t> payload(frame.begin() + shard::kFrameHeaderBytes,
                               frame.end());
  edit(&payload);
  shard::WireWriter writer;
  writer.PutBytes(payload.data(), payload.size());
  return writer.SealFrame(shard::FrameType::kJobSubmit);
}

/// A reference-form submit naming `digest`.
std::vector<uint8_t> ReferenceSubmitFrame(uint64_t request_id,
                                          const Digest128& digest) {
  serve::WireJobSubmit submit;
  submit.request_id = request_id;
  submit.options = serve::WireJobOptionsFrom(SmallJobOptions());
  submit.table_ref = digest;
  return EncodeJobSubmit(submit);
}

// ------------------------------------------------------ wire codecs --

TEST(ServeWireTest, JobSubmitRoundTrip) {
  serve::WireJobSubmit submit;
  submit.request_id = 42;
  submit.options.epsilon = 0.25;
  submit.options.validator = 1;
  submit.options.bidirectional = true;
  submit.options.collect_removal_sets = true;
  submit.options.max_level = 3;
  submit.options.deadline_seconds = 7.5;
  submit.options.kinds = DependencyKindSet::All().bits();
  submit.options.afd_error = 0.05;
  submit.options.top_k = 12;
  submit.table_frame = shard::EncodeTableBlock(testing_util::PaperEncoded());

  std::vector<uint8_t> frame = EncodeJobSubmit(submit);
  Result<shard::DecodedFrame> decoded = shard::DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  Result<serve::WireJobSubmit> back = serve::DecodeJobSubmit(*decoded);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, 42u);
  EXPECT_EQ(back->options.epsilon, 0.25);
  EXPECT_EQ(back->options.validator, 1);
  EXPECT_TRUE(back->options.bidirectional);
  EXPECT_TRUE(back->options.collect_removal_sets);
  EXPECT_EQ(back->options.max_level, 3);
  EXPECT_EQ(back->options.deadline_seconds, 7.5);
  EXPECT_EQ(back->options.kinds, DependencyKindSet::All().bits());
  EXPECT_EQ(back->options.afd_error, 0.05);
  EXPECT_EQ(back->options.top_k, 12);
  EXPECT_EQ(back->table_frame, submit.table_frame);

  EXPECT_FALSE(back->table_ref.has_value());

  // The nested table frame is itself decodable.
  Result<shard::DecodedFrame> inner = shard::DecodeFrame(back->table_frame);
  ASSERT_TRUE(inner.ok());
  Result<EncodedTable> table = shard::DecodeTableBlock(*inner);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 9);

  // The reference form carries the 16-byte digest and no table bytes.
  serve::WireJobSubmit by_ref = submit;
  by_ref.table_ref = serve::TableDigest(testing_util::PaperEncoded());
  const std::vector<uint8_t> ref_frame = EncodeJobSubmit(by_ref);
  EXPECT_LT(ref_frame.size(), frame.size() - submit.table_frame.size() + 17);
  Result<shard::DecodedFrame> ref_decoded = shard::DecodeFrame(ref_frame);
  ASSERT_TRUE(ref_decoded.ok());
  Result<serve::WireJobSubmit> ref_back =
      serve::DecodeJobSubmit(*ref_decoded);
  ASSERT_TRUE(ref_back.ok()) << ref_back.status().ToString();
  EXPECT_EQ(ref_back->request_id, 42u);
  EXPECT_EQ(ref_back->options.epsilon, 0.25);
  EXPECT_EQ(ref_back->options.top_k, 12);
  ASSERT_TRUE(ref_back->table_ref.has_value());
  EXPECT_EQ(*ref_back->table_ref, *by_ref.table_ref);
  EXPECT_TRUE(ref_back->table_frame.empty());

  // The digest depends on content, not on the object: an equal table
  // digests equal, a one-rank change digests differently.
  const EncodedTable paper = testing_util::PaperEncoded();
  EXPECT_EQ(serve::TableDigest(paper), *by_ref.table_ref);
  std::vector<EncodedColumn> columns;
  for (int i = 0; i < paper.num_columns(); ++i) {
    columns.push_back(paper.column(i));
  }
  columns[0].ranks[0] = columns[0].ranks[0] == 0 ? 1 : 0;
  EXPECT_NE(serve::TableDigest(EncodedTable(columns, paper.num_rows())),
            *by_ref.table_ref);
}

TEST(ServeWireTest, StatusErrorResultCancelRoundTrips) {
  serve::WireJobStatus status;
  status.job_id = 7;
  status.request_id = 9;
  status.state = JobState::kRunning;
  status.queue_position = -1;
  status.level = 3;
  status.totals = {11, 2, 6, 4};
  {
    // DecodedFrame views the encoded bytes, so they must outlive it.
    const std::vector<uint8_t> bytes = EncodeJobStatus(status);
    Result<shard::DecodedFrame> f = shard::DecodeFrame(bytes);
    ASSERT_TRUE(f.ok());
    Result<serve::WireJobStatus> back = serve::DecodeJobStatus(*f);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->job_id, 7u);
    EXPECT_EQ(back->state, JobState::kRunning);
    EXPECT_EQ(back->level, 3);
    EXPECT_EQ(back->totals, status.totals);
  }
  serve::WireJobError error;
  error.job_id = 0;
  error.request_id = 5;
  error.status = Status::Overloaded("queue full");
  {
    const std::vector<uint8_t> bytes = EncodeJobError(error);
    Result<shard::DecodedFrame> f = shard::DecodeFrame(bytes);
    ASSERT_TRUE(f.ok());
    Result<serve::WireJobError> back = serve::DecodeJobError(*f);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->status.code(), StatusCode::kOverloaded);
    EXPECT_EQ(back->request_id, 5u);
  }
  serve::WireJobResultChunk chunk;
  chunk.job_id = 3;
  chunk.final_chunk = false;
  chunk.blob_bytes = {1, 2, 3, 4, 5};
  {
    const std::vector<uint8_t> bytes = EncodeJobResultChunk(chunk);
    Result<shard::DecodedFrame> f = shard::DecodeFrame(bytes);
    ASSERT_TRUE(f.ok());
    Result<serve::WireJobResultChunk> back =
        serve::DecodeJobResultChunk(*f);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->job_id, 3u);
    EXPECT_FALSE(back->final_chunk);
    EXPECT_EQ(back->blob_bytes, chunk.blob_bytes);
  }
  {
    const std::vector<uint8_t> bytes = serve::EncodeCancel(99);
    Result<shard::DecodedFrame> f = shard::DecodeFrame(bytes);
    ASSERT_TRUE(f.ok());
    Result<uint64_t> id = serve::DecodeCancel(*f);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 99u);
  }
}

TEST(ServeWireTest, DecodersRejectStructuralViolations) {
  // A status frame with an out-of-range state byte.
  serve::WireJobStatus status;
  status.state = JobState::kQueued;
  std::vector<uint8_t> frame = EncodeJobStatus(status);
  // The state byte is in the payload; find and corrupt it by rebuilding
  // through the writer instead of guessing offsets.
  {
    shard::WireWriter writer;
    writer.PutU64(1);
    writer.PutU64(0);
    writer.PutU8(250);  // no such JobState
    writer.PutI32(-1);
    writer.PutI32(0);
    writer.PutI64(0);
    writer.PutI64(0);
    std::vector<uint8_t> bad = writer.SealFrame(shard::FrameType::kJobStatus);
    Result<shard::DecodedFrame> f = shard::DecodeFrame(bad);
    ASSERT_TRUE(f.ok());
    EXPECT_FALSE(serve::DecodeJobStatus(*f).ok());
  }
  // Negative dependency counts are range-checked at decode — one case
  // per counter, since each travels as its own signed varint.
  for (int which = 0; which < 4; ++which) {
    shard::WireWriter writer;
    writer.PutU64(1);
    writer.PutU64(0);
    writer.PutU8(static_cast<uint8_t>(JobState::kRunning));
    writer.PutI32(-1);
    writer.PutI32(2);
    writer.PutVarintI64(which == 0 ? -1 : 3);  // totals[kOc]
    writer.PutVarintI64(which == 1 ? -1 : 3);  // totals[kOfd]
    writer.PutVarintI64(which == 2 ? -1 : 3);  // totals[kFd]
    writer.PutVarintI64(which == 3 ? -1 : 3);  // totals[kAfd]
    std::vector<uint8_t> bad = writer.SealFrame(shard::FrameType::kJobStatus);
    Result<shard::DecodedFrame> f = shard::DecodeFrame(bad);
    ASSERT_TRUE(f.ok());
    Result<serve::WireJobStatus> r = serve::DecodeJobStatus(*f);
    ASSERT_FALSE(r.ok()) << "negative counter " << which << " decoded";
    EXPECT_NE(r.status().message().find("negative dependency count"),
              std::string::npos)
        << r.status().ToString();
  }
  // An error frame claiming StatusCode::kOk is not an error.
  {
    shard::WireWriter writer;
    writer.PutU64(1);
    writer.PutU64(1);
    writer.PutU8(0);  // kOk
    writer.PutString("fine");
    std::vector<uint8_t> bad = writer.SealFrame(shard::FrameType::kJobError);
    Result<shard::DecodedFrame> f = shard::DecodeFrame(bad);
    ASSERT_TRUE(f.ok());
    EXPECT_FALSE(serve::DecodeJobError(*f).ok());
  }
  // Type confusion: a sealed status frame fed to the submit decoder.
  {
    Result<shard::DecodedFrame> f = shard::DecodeFrame(frame);
    ASSERT_TRUE(f.ok());
    EXPECT_FALSE(serve::DecodeJobSubmit(*f).ok());
  }
  // The wire-v4 job fields are range-checked at decode: an empty or
  // unknown kind set, an out-of-range AFD threshold and a negative
  // top_k are each typed submit rejections.
  auto expect_submit_rejected = [](serve::WireJobOptions options,
                                   const std::string& want) {
    serve::WireJobSubmit submit;
    submit.request_id = 1;
    submit.options = options;
    submit.table_frame =
        shard::EncodeTableBlock(testing_util::PaperEncoded());
    const std::vector<uint8_t> bytes = serve::EncodeJobSubmit(submit);
    Result<shard::DecodedFrame> f = shard::DecodeFrame(bytes);
    ASSERT_TRUE(f.ok());
    Result<serve::WireJobSubmit> r = serve::DecodeJobSubmit(*f);
    ASSERT_FALSE(r.ok()) << "decoded despite " << want;
    EXPECT_NE(r.status().message().find(want), std::string::npos)
        << r.status().ToString();
  };
  {
    serve::WireJobOptions bad;
    bad.kinds = 0;
    expect_submit_rejected(bad, "dependency-kind set invalid (bits 0)");
  }
  {
    serve::WireJobOptions bad;
    bad.kinds = DependencyKindSet::All().bits() | 0x40;
    expect_submit_rejected(bad, "dependency-kind set invalid");
  }
  {
    serve::WireJobOptions bad;
    bad.afd_error = 2.5;
    expect_submit_rejected(bad, "afd_error outside [0, 1]");
  }
  {
    serve::WireJobOptions bad;
    bad.top_k = -3;
    expect_submit_rejected(bad, "negative top_k");
  }
  // The wire-v10 table source: an unknown source byte, a digest cut
  // short, and bytes trailing a reference are each typed rejections.
  const std::vector<uint8_t> by_ref =
      ReferenceSubmitFrame(1, serve::TableDigest(testing_util::PaperEncoded()));
  auto expect_payload_rejected =
      [&](const std::function<void(std::vector<uint8_t>*)>& edit,
          const std::string& want) {
        const std::vector<uint8_t> bad = ResealPayload(by_ref, edit);
        Result<shard::DecodedFrame> f = shard::DecodeFrame(bad);
        ASSERT_TRUE(f.ok());
        Result<serve::WireJobSubmit> r = serve::DecodeJobSubmit(*f);
        ASSERT_FALSE(r.ok()) << "decoded despite " << want;
        EXPECT_NE(r.status().message().find(want), std::string::npos)
            << r.status().ToString();
      };
  expect_payload_rejected(
      [](std::vector<uint8_t>* p) { (*p)[p->size() - 17] = 7; },
      "unknown table source 7");
  expect_payload_rejected([](std::vector<uint8_t>* p) { p->pop_back(); },
                          "truncated");
  expect_payload_rejected(
      [](std::vector<uint8_t>* p) { p->resize(p->size() - 9); },
      "truncated");
  expect_payload_rejected([](std::vector<uint8_t>* p) { p->push_back(0); },
                          "trailing bytes");
  // A submit sealed at wire v9 (before the table source existed) fails
  // the version check before its payload is read.
  {
    std::vector<uint8_t> v9 = by_ref;
    v9[4] = 9;
    v9[5] = 0;
    Result<shard::DecodedFrame> f = shard::DecodeFrame(v9);
    ASSERT_FALSE(f.ok());
    EXPECT_NE(f.status().message().find("unsupported wire version 9"),
              std::string::npos)
        << f.status().ToString();
  }
}

TEST(ServeWireTest, TruncationAndCorruptionNeverMisparse) {
  // The reference form: every truncation fails frame or payload
  // validation, and every single-byte flip fails the frame itself — a
  // flip changes one checksummed word, which WireChecksum always sees.
  {
    const std::vector<uint8_t> frame = ReferenceSubmitFrame(
        1, serve::TableDigest(testing_util::PaperEncoded()));
    for (size_t len = 0; len < frame.size(); ++len) {
      std::vector<uint8_t> cut(frame.begin(), frame.begin() + len);
      Result<shard::DecodedFrame> f = shard::DecodeFrame(cut);
      if (!f.ok()) continue;
      EXPECT_FALSE(serve::DecodeJobSubmit(*f).ok()) << "at length " << len;
    }
    for (size_t at = 0; at < frame.size(); ++at) {
      std::vector<uint8_t> bad = frame;
      bad[at] ^= 0x5A;
      EXPECT_FALSE(shard::DecodeFrame(bad).ok())
          << "undetected corruption at offset " << at;
    }
  }

  serve::WireJobSubmit submit;
  submit.request_id = 1;
  submit.table_frame = shard::EncodeTableBlock(testing_util::PaperEncoded());
  const std::vector<uint8_t> frame = EncodeJobSubmit(submit);

  // Every truncation either fails frame validation or payload decode —
  // never a crash, never a bogus success.
  for (size_t len = 0; len < frame.size(); ++len) {
    std::vector<uint8_t> cut(frame.begin(), frame.begin() + len);
    Result<shard::DecodedFrame> f = shard::DecodeFrame(cut);
    if (!f.ok()) continue;
    EXPECT_FALSE(serve::DecodeJobSubmit(*f).ok()) << "at length " << len;
  }
  // Single-byte corruption: the checksum (or a validation rule) catches
  // every flip. Stride keeps the loop cheap; the offsets still cover
  // header, options and nested-table regions.
  for (size_t at = 0; at < frame.size(); at += 7) {
    std::vector<uint8_t> bad = frame;
    bad[at] ^= 0x5A;
    Result<shard::DecodedFrame> f = shard::DecodeFrame(bad);
    if (!f.ok()) continue;
    Result<serve::WireJobSubmit> decoded = serve::DecodeJobSubmit(*f);
    if (!decoded.ok()) continue;
    // A flip that survives both layers must be confined to the nested
    // table bytes, whose own frame checksum rejects it downstream.
    Result<shard::DecodedFrame> inner =
        shard::DecodeFrame(decoded->table_frame);
    if (inner.ok()) {
      EXPECT_FALSE(shard::DecodeTableBlock(*inner).ok())
          << "undetected corruption at offset " << at;
    }
  }
}

// ------------------------------------------- the healthy round trip --

TEST(ServeFaultTest, RemoteMatchesDirectDiscoveryBitExactly) {
  std::unique_ptr<DiscoveryServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);

  EncodedTable paper = testing_util::PaperEncoded();
  ExpectHealthyRoundTrip(server.get(), paper, SmallJobOptions());

  // A second option shape (bidirectional, exact validator) and a second
  // table — the protocol must not privilege one configuration.
  DiscoveryOptions bidi;
  bidi.epsilon = 0.05;
  bidi.bidirectional = true;
  bidi.validator = ValidatorKind::kExact;
  ExpectHealthyRoundTrip(server.get(), paper, bidi);

  EncodedTable random = testing_util::RandomEncodedTable(200, 5, 4, 17);
  ExpectHealthyRoundTrip(server.get(), random, SmallJobOptions());

  // A mixed-kind, ranked job: all four kinds plus top-k travel through
  // kJobSubmit and the result blob carries FD/AFD records back.
  DiscoveryOptions mixed = SmallJobOptions();
  mixed.kinds = DependencyKindSet::All();
  mixed.afd_error = 0.05;
  mixed.top_k = 10;
  ExpectHealthyRoundTrip(server.get(), random, mixed);
  {
    DiscoveryOptions unranked = mixed;
    unranked.top_k = 0;
    Result<DiscoveryResult> full = serve::RunRemoteDiscovery(
        "127.0.0.1", server->port(), random, unranked);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_GT(full->CountOfKind(DependencyKind::kFd) +
                  full->CountOfKind(DependencyKind::kAfd),
              0);
    Result<DiscoveryResult> ranked = serve::RunRemoteDiscovery(
        "127.0.0.1", server->port(), random, mixed);
    ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
    EXPECT_LE(ranked->dependencies.size(), 10u);
  }

  server->Shutdown();
  EXPECT_EQ(server->active_jobs(), 0);
  EXPECT_EQ(server->active_connections(), 0);
}

TEST(ServeFaultTest, TableCacheWarmsAcrossJobsWithoutChangingOutput) {
  std::unique_ptr<DiscoveryServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);

  EncodedTable paper = testing_util::PaperEncoded();
  DiscoveryResult direct = DiscoverOds(paper, SmallJobOptions());

  std::string first, second;
  for (int round = 0; round < 2; ++round) {
    Result<DiscoveryResult> remote = serve::RunRemoteDiscovery(
        "127.0.0.1", server->port(), paper, SmallJobOptions());
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    (round == 0 ? first : second) = OutputFingerprint(*remote);
  }
  EXPECT_EQ(first, OutputFingerprint(direct));
  EXPECT_EQ(second, first) << "warm start changed the output";

  ServerStats stats = server->stats();
  EXPECT_EQ(stats.table_cache_misses, 1);
  EXPECT_GE(stats.table_cache_hits, 1);
  server->Shutdown();
}

// ------------------------------------------------- table references --
//
// A resubmitted table travels as its digest, resolved only on the
// connection that uploaded it. Every path below (resolved, unknown on
// this connection, evicted) must return results bit-identical to direct
// DiscoverOds, and the counters must say which path ran.

std::unique_ptr<DiscoveryClient> ConnectClient(DiscoveryServer* server) {
  Result<std::unique_ptr<DiscoveryClient>> client =
      DiscoveryClient::Connect("127.0.0.1", server->port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return client.ok() ? std::move(*client) : nullptr;
}

/// Submit + Await on `client`, asserted bit-identical to the direct run.
void ExpectClientJobMatchesDirect(DiscoveryClient* client,
                                  const EncodedTable& table,
                                  const DiscoveryOptions& options) {
  Result<uint64_t> job = client->Submit(table, options);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  Result<DiscoveryResult> remote = client->Await(*job);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(OutputFingerprint(*remote),
            OutputFingerprint(DiscoverOds(table, options)));
}

TEST(ServeFaultTest, TableRefResubmitsResolveOnTheirConnection) {
  std::unique_ptr<DiscoveryServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);
  std::unique_ptr<DiscoveryClient> client = ConnectClient(server.get());
  ASSERT_NE(client, nullptr);

  // One upload, then two references with different job options: a
  // reference selects the table only, never the job.
  const EncodedTable table = testing_util::RandomEncodedTable(300, 5, 6, 23);
  DiscoveryOptions bidi = SmallJobOptions();
  bidi.bidirectional = true;
  DiscoveryOptions mixed = SmallJobOptions();
  mixed.kinds = DependencyKindSet::All();
  for (const DiscoveryOptions& options : {SmallJobOptions(), bidi, mixed}) {
    ExpectClientJobMatchesDirect(client.get(), table, options);
  }

  ServerStats stats = server->stats();
  EXPECT_EQ(stats.table_refs_resolved, 2);
  EXPECT_EQ(stats.table_refs_unknown, 0);
  EXPECT_EQ(stats.table_cache_misses, 1);
  // A resolved reference reuses the resident table: it counts as a hit.
  EXPECT_EQ(stats.table_cache_hits, 2);
  EXPECT_EQ(stats.frames_rejected, 0);
  server->Shutdown();
}

TEST(ServeFaultTest, TableRefFromAnotherConnectionIsUnknownHere) {
  std::unique_ptr<DiscoveryServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);
  const EncodedTable table = testing_util::RandomEncodedTable(300, 5, 6, 29);

  std::unique_ptr<DiscoveryClient> uploader = ConnectClient(server.get());
  ASSERT_NE(uploader, nullptr);
  ExpectClientJobMatchesDirect(uploader.get(), table, SmallJobOptions());

  // The second connection names the same digest without having uploaded
  // it: the server refuses the reference, and Submit resends the block.
  std::unique_ptr<DiscoveryClient> other = ConnectClient(server.get());
  ASSERT_NE(other, nullptr);
  other->AssumeTableAckedForTest(serve::TableDigest(table));
  ExpectClientJobMatchesDirect(other.get(), table, SmallJobOptions());

  ServerStats stats = server->stats();
  EXPECT_EQ(stats.table_refs_unknown, 1);
  EXPECT_EQ(stats.table_refs_resolved, 0);
  // The resent block found the resident table after a content check.
  EXPECT_EQ(stats.table_cache_misses, 1);
  EXPECT_EQ(stats.table_cache_hits, 1);
  EXPECT_EQ(stats.frames_rejected, 0);

  // The upload registered the digest on the second connection too.
  ExpectClientJobMatchesDirect(other.get(), table, SmallJobOptions());
  EXPECT_EQ(server->stats().table_refs_resolved, 1);
  server->Shutdown();
}

TEST(ServeFaultTest, TableRefEvictedTableFallsBackToUpload) {
  ServerOptions options;
  options.table_cache_capacity = 1;
  std::unique_ptr<DiscoveryServer> server = StartServer(options);
  ASSERT_NE(server, nullptr);
  std::unique_ptr<DiscoveryClient> client = ConnectClient(server.get());
  ASSERT_NE(client, nullptr);

  const EncodedTable t1 = testing_util::RandomEncodedTable(300, 5, 6, 31);
  const EncodedTable t2 = testing_util::RandomEncodedTable(300, 5, 6, 37);
  ExpectClientJobMatchesDirect(client.get(), t1, SmallJobOptions());
  ExpectClientJobMatchesDirect(client.get(), t2, SmallJobOptions());
  ExpectClientJobMatchesDirect(client.get(), t1, SmallJobOptions());

  ServerStats stats = server->stats();
  EXPECT_EQ(stats.table_refs_unknown, 1);
  EXPECT_EQ(stats.table_refs_resolved, 0);
  EXPECT_EQ(stats.table_cache_misses, 3);
  EXPECT_EQ(stats.table_cache_hits, 0);
  server->Shutdown();
}

TEST(ServeFaultTest, TableRefEvictedByAnotherConnectionFallsBack) {
  // The connection still lists its reference, but another connection's
  // upload evicted the table from the cache: the weak reference either
  // expired or points at a table no longer resident, and both are
  // unknown.
  ServerOptions options;
  options.table_cache_capacity = 1;
  std::unique_ptr<DiscoveryServer> server = StartServer(options);
  ASSERT_NE(server, nullptr);
  std::unique_ptr<DiscoveryClient> a = ConnectClient(server.get());
  std::unique_ptr<DiscoveryClient> b = ConnectClient(server.get());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  const EncodedTable t1 = testing_util::RandomEncodedTable(300, 5, 6, 41);
  const EncodedTable t2 = testing_util::RandomEncodedTable(300, 5, 6, 43);
  ExpectClientJobMatchesDirect(a.get(), t1, SmallJobOptions());
  ExpectClientJobMatchesDirect(b.get(), t2, SmallJobOptions());
  ExpectClientJobMatchesDirect(a.get(), t1, SmallJobOptions());

  ServerStats stats = server->stats();
  EXPECT_EQ(stats.table_refs_unknown, 1);
  EXPECT_EQ(stats.table_refs_resolved, 0);
  EXPECT_EQ(stats.table_cache_misses, 3);
  server->Shutdown();
}

TEST(ServeFaultTest, TableRefUnknownDigestGetsTypedNotFoundConnectionStays) {
  std::unique_ptr<DiscoveryServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);
  const EncodedTable paper = testing_util::PaperEncoded();

  shard::ChannelOptions copts;
  copts.receive_timeout_seconds = 30.0;
  Result<std::unique_ptr<shard::SocketShardChannel>> channel =
      shard::SocketShardChannel::Connect("127.0.0.1", server->port(), 10.0,
                                         copts);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  const int64_t rejected_before = server->stats().frames_rejected;

  // A hand-built reference to a table this connection never uploaded.
  ASSERT_TRUE(
      (*channel)->Send(ReferenceSubmitFrame(77, serve::TableDigest(paper)))
          .ok());
  {
    Result<std::vector<uint8_t>> raw = (*channel)->Receive();
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    Result<shard::DecodedFrame> f = shard::DecodeFrame(*raw);
    ASSERT_TRUE(f.ok());
    ASSERT_EQ(f->type, shard::FrameType::kJobError);
    Result<serve::WireJobError> error = serve::DecodeJobError(*f);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->status.code(), StatusCode::kNotFound);
    EXPECT_EQ(error->request_id, 77u);
    EXPECT_EQ(error->job_id, 0u);
  }
  EXPECT_EQ(server->stats().frames_rejected, rejected_before);
  EXPECT_EQ(server->stats().table_refs_unknown, 1);

  // The same connection then runs a full job.
  serve::WireJobSubmit submit;
  submit.request_id = 78;
  submit.options = serve::WireJobOptionsFrom(SmallJobOptions());
  submit.table_frame = shard::EncodeTableBlock(paper);
  ASSERT_TRUE((*channel)->Send(EncodeJobSubmit(submit)).ok());
  uint64_t job_id = 0;
  std::vector<uint8_t> blob;
  for (bool final_chunk = false; !final_chunk;) {
    Result<std::vector<uint8_t>> raw = (*channel)->Receive();
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    Result<shard::DecodedFrame> f = shard::DecodeFrame(*raw);
    ASSERT_TRUE(f.ok());
    if (f->type == shard::FrameType::kJobStatus) {
      Result<serve::WireJobStatus> status = serve::DecodeJobStatus(*f);
      ASSERT_TRUE(status.ok());
      if (status->request_id == 78u) job_id = status->job_id;
      continue;
    }
    ASSERT_EQ(f->type, shard::FrameType::kJobResultBatch);
    Result<serve::WireJobResultChunk> chunk = serve::DecodeJobResultChunk(*f);
    ASSERT_TRUE(chunk.ok());
    ASSERT_NE(job_id, 0u) << "result before the ack";
    EXPECT_EQ(chunk->job_id, job_id);
    blob.insert(blob.end(), chunk->blob_bytes.begin(),
                chunk->blob_bytes.end());
    final_chunk = chunk->final_chunk;
  }
  Result<DiscoveryResult> remote = DeserializeResult(blob);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(OutputFingerprint(*remote),
            OutputFingerprint(DiscoverOds(paper, SmallJobOptions())));
  EXPECT_EQ(server->stats().frames_rejected, rejected_before);
  (*channel)->Close();
  server->Shutdown();
}

TEST(ServeFaultTest, MixedKindProgressCarriesFdAndAfdCounts) {
  // Regression: progress frames used to carry only the OC/OFD totals, so
  // a mixed-kind job (whose discoveries are mostly FDs and AFDs) looked
  // idle to a watching client. The last per-level progress frame must
  // agree with the terminal result for all four kinds.
  std::unique_ptr<DiscoveryServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);

  EncodedTable table = testing_util::RandomEncodedTable(200, 5, 4, 17);
  DiscoveryOptions mixed = SmallJobOptions();
  mixed.kinds = DependencyKindSet::All();
  mixed.afd_error = 0.05;
  DiscoveryResult direct = DiscoverOds(table, mixed);
  ASSERT_GT(direct.CountOfKind(DependencyKind::kFd) +
                direct.CountOfKind(DependencyKind::kAfd),
            0);

  Result<std::unique_ptr<DiscoveryClient>> client =
      DiscoveryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<uint64_t> job = (*client)->Submit(table, mixed);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  serve::WireJobStatus last;
  int progress_frames = 0;
  Result<DiscoveryResult> remote =
      (*client)->Await(*job, [&](const serve::WireJobStatus& s) {
        last = s;
        ++progress_frames;
      });
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_GT(progress_frames, 0);
  for (int k = 0; k < kNumDependencyKinds; ++k) {
    EXPECT_EQ(last.totals[k],
              direct.CountOfKind(static_cast<DependencyKind>(k)));
  }
  server->Shutdown();
}

// ----------------------------------------------- scheduler map growth --

TEST(ServeFaultTest, OverloadProbesFromFreshClientsDoNotGrowSchedulerState) {
  // Regression: Submit used operator[] on the per-client inflight map,
  // so every rejected probe default-inserted a zero entry — churning
  // client ids (each connection gets a fresh one) grew server state
  // without bound on an overloaded server. find() must leave the map
  // untouched for rejections.
  exec::ThreadPool pool(2);
  serve::TableCache cache;
  serve::JobScheduler::Options options;
  options.max_queue_depth = 1;
  options.max_running_jobs = 1;
  options.max_job_seconds = 30.0;
  options.pool = &pool;
  serve::JobScheduler scheduler(options);

  std::shared_ptr<const serve::TableCache::Entry> slow =
      cache.Intern(SlowTable());
  auto make_job = [&](uint64_t client_id) {
    auto job = std::make_shared<serve::ServeJob>();
    job->client_id = client_id;
    job->table = slow;
    job->options = SlowJobOptions();
    return job;
  };

  Result<uint64_t> first = scheduler.Submit(make_job(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Wait until the first job leaves the queue for its executor, then
  // park a second one in the (depth-1) queue to hold it full.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scheduler.QueuePosition(*first) != -1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(scheduler.QueuePosition(*first), -1);
  Result<uint64_t> second = scheduler.Submit(make_job(1));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(scheduler.inflight_clients(), 1u);

  for (uint64_t probe = 100; probe < 150; ++probe) {
    Result<uint64_t> rejected = scheduler.Submit(make_job(probe));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
  }
  EXPECT_EQ(scheduler.inflight_clients(), 1u)
      << "rejected probes grew the admission map";
  EXPECT_EQ(scheduler.jobs_rejected(), 50);

  scheduler.Cancel(*first);
  scheduler.Cancel(*second);
  scheduler.Shutdown();
  EXPECT_EQ(scheduler.active_jobs(), 0);
  EXPECT_EQ(scheduler.inflight_clients(), 0u);
}

// ------------------------------------------------- table-cache LRU --

TEST(TableCacheTest, RaceLossHitRefreshesLruRecency) {
  // Regression: the second-lock re-check (the path a thread takes after
  // losing the build race for a new table) returned the winner's entry
  // without touching the LRU list — a table only ever re-interned
  // through that path looked idle and was evicted while hot. The test
  // seam drives the race deterministically: the hook interns X (and two
  // fillers) in the window between the outer Intern's missed fast-path
  // lookup and its re-check, so the outer call takes the race-loss hit
  // path exactly.
  serve::TableCache cache(/*capacity=*/3);
  EncodedTable x = testing_util::RandomEncodedTable(40, 3, 4, 1);
  EncodedTable a = testing_util::RandomEncodedTable(40, 3, 4, 2);
  EncodedTable b = testing_util::RandomEncodedTable(40, 3, 4, 3);
  EncodedTable c = testing_util::RandomEncodedTable(40, 3, 4, 4);

  bool hook_ran = false;
  cache.set_race_window_hook_for_test([&] {
    cache.Intern(x);  // the racing winner: inserts X first
    cache.Intern(a);
    cache.Intern(b);  // LRU now [B, A, X] — X is the eviction candidate
    hook_ran = true;
  });
  std::shared_ptr<const serve::TableCache::Entry> entry = cache.Intern(x);
  cache.set_race_window_hook_for_test(nullptr);
  ASSERT_TRUE(hook_ran);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.hits(), 1);    // the race-loss hit
  EXPECT_EQ(cache.misses(), 3);  // the hook's three inserts

  // The race-loss hit refreshed X to the front, so the next insert must
  // evict A — the true least-recently-used entry — not X.
  cache.Intern(c);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.hits(), 1);
  std::shared_ptr<const serve::TableCache::Entry> again = cache.Intern(x);
  EXPECT_EQ(cache.hits(), 2) << "X was evicted despite its race-loss hit";
  EXPECT_EQ(again.get(), entry.get());
  cache.Intern(a);
  EXPECT_EQ(cache.misses(), 5) << "A survived, so something else was evicted";
}

TEST(TableCacheTest, ReuseCountsHitsOnlyForResidentEntries) {
  // A resolved table reference goes through Reuse: a resident entry is a
  // hit and moves to the LRU front; an evicted one is refused even while
  // the caller still holds it, so references respect the cache bound.
  serve::TableCache cache(/*capacity=*/2);
  std::shared_ptr<const serve::TableCache::Entry> x =
      cache.Intern(testing_util::RandomEncodedTable(40, 3, 4, 1));
  std::shared_ptr<const serve::TableCache::Entry> a =
      cache.Intern(testing_util::RandomEncodedTable(40, 3, 4, 2));
  EXPECT_EQ(x->digest,
            serve::TableDigest(testing_util::RandomEncodedTable(40, 3, 4, 1)));
  EXPECT_TRUE(cache.Reuse(*x));  // LRU now [X, A]
  EXPECT_EQ(cache.hits(), 1);
  cache.Intern(testing_util::RandomEncodedTable(40, 3, 4, 3));  // evicts A
  EXPECT_FALSE(cache.Reuse(*a));
  EXPECT_TRUE(cache.Reuse(*x));
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 3);
}

// ------------------------------------------------- hostile framing --

TEST(ServeFaultTest, MalformedFramesFailOnlyTheirOwnConnection) {
  std::unique_ptr<DiscoveryServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);

  serve::WireJobSubmit submit;
  submit.request_id = 1;
  submit.table_frame = shard::EncodeTableBlock(testing_util::PaperEncoded());
  const std::vector<uint8_t> valid = EncodeJobSubmit(submit);

  // A client-sent frame of the retired type 8 (the batch envelope of
  // wire versions 2-8, wrapping a valid submit), sealed at the current
  // version: the server rejects exactly that frame and drops exactly
  // that connection, while a client connected alongside keeps working.
  {
    Result<std::unique_ptr<DiscoveryClient>> bystander =
        DiscoveryClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(bystander.ok()) << bystander.status().ToString();
    const int64_t rejected_before = server->stats().frames_rejected;
    shard::WireWriter writer;
    writer.PutU32(1);
    writer.PutU64(valid.size());
    writer.PutBytes(valid.data(), valid.size());
    const std::vector<uint8_t> retired = writer.SealFrame(
        static_cast<shard::FrameType>(shard::kRetiredFrameTypeBatch));
    int fd = RawConnect(server->port());
    ASSERT_GE(fd, 0);
    RawSend(fd, retired.data(), retired.size());
    EXPECT_TRUE(WaitForPeerClose(fd, 10.0));
    ::close(fd);
    EXPECT_EQ(server->stats().frames_rejected, rejected_before + 1);

    Result<uint64_t> job =
        (*bystander)->Submit(testing_util::PaperEncoded(), SmallJobOptions());
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    Result<DiscoveryResult> remote = (*bystander)->Await(*job);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(OutputFingerprint(*remote),
              OutputFingerprint(
                  DiscoverOds(testing_util::PaperEncoded(), SmallJobOptions())));
  }

  // Each hostile payload goes down its own fresh connection; the server
  // must shed that connection (typed error where the stream allows)
  // and keep serving everyone else.
  std::vector<std::vector<uint8_t>> attacks;
  attacks.push_back({0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0,
                     0, 0, 0, 0, 0, 0, 0, 0,
                     0, 0, 0, 0, 0, 0, 0, 0});  // bad magic
  {
    std::vector<uint8_t> wrong_version = valid;
    wrong_version[4] ^= 0xFF;  // version field
    attacks.push_back(wrong_version);
  }
  {
    std::vector<uint8_t> bad_checksum = valid;
    bad_checksum.back() ^= 0x01;  // payload byte; checksum now stale
    attacks.push_back(bad_checksum);
  }
  {
    // Declared size far past the server's frame bound.
    std::vector<uint8_t> oversize = valid;
    uint64_t huge = 1ULL << 40;
    std::memcpy(oversize.data() + 8, &huge, sizeof(huge));
    attacks.push_back(oversize);
  }
  {
    // A frame type the serve dispatcher must refuse.
    shard::WireWriter writer;
    writer.PutU64(0);
    attacks.push_back(writer.SealFrame(shard::FrameType::kStatsFooter));
  }
  // Truncations of the valid submit at representative offsets (header
  // prefix, header boundary, mid-payload), each followed by an abrupt
  // close — EOF mid-frame.
  for (size_t len : {size_t{3}, size_t{23}, size_t{24},
                     valid.size() / 2, valid.size() - 1}) {
    attacks.emplace_back(valid.begin(), valid.begin() + len);
  }

  for (const std::vector<uint8_t>& attack : attacks) {
    int fd = RawConnect(server->port());
    ASSERT_GE(fd, 0);
    RawSend(fd, attack.data(), attack.size());
    ::close(fd);
  }

  // The healthy client neither notices nor inherits any desync.
  ExpectHealthyRoundTrip(server.get(), testing_util::PaperEncoded(),
                         SmallJobOptions());

  EXPECT_TRUE(WaitForZeroJobs(server.get(), 10.0));
  server->Shutdown();
  ServerStats stats = server->stats();
  EXPECT_GE(stats.frames_rejected, 1);
  EXPECT_EQ(server->active_jobs(), 0);
  EXPECT_EQ(server->active_connections(), 0);
}

TEST(ServeFaultTest, ClientCrashAtEachProtocolStageLeaksNothing) {
  ServerOptions options;
  options.max_job_seconds = 15.0;
  std::unique_ptr<DiscoveryServer> server = StartServer(options);
  ASSERT_NE(server, nullptr);

  serve::WireJobSubmit submit;
  submit.request_id = 1;
  submit.table_frame = shard::EncodeTableBlock(testing_util::PaperEncoded());
  const std::vector<uint8_t> valid = EncodeJobSubmit(submit);

  // Stage 1: connect, vanish.
  {
    int fd = RawConnect(server->port());
    ASSERT_GE(fd, 0);
    ::close(fd);
  }
  // Stage 2: half a header, vanish.
  {
    int fd = RawConnect(server->port());
    ASSERT_GE(fd, 0);
    RawSend(fd, valid.data(), 11);
    ::close(fd);
  }
  // Stage 3: full submission, vanish before reading the ack. The job
  // may be admitted; its results stream into a dead socket and the
  // server must cancel and reclaim it.
  {
    int fd = RawConnect(server->port());
    ASSERT_GE(fd, 0);
    RawSend(fd, valid.data(), valid.size());
    ::close(fd);
  }
  // Stage 4: submission + a cancel for a job that may not exist, vanish.
  {
    int fd = RawConnect(server->port());
    ASSERT_GE(fd, 0);
    RawSend(fd, valid.data(), valid.size());
    std::vector<uint8_t> cancel = serve::EncodeCancel(12345);
    RawSend(fd, cancel.data(), cancel.size());
    ::close(fd);
  }

  ExpectHealthyRoundTrip(server.get(), testing_util::PaperEncoded(),
                         SmallJobOptions());
  EXPECT_TRUE(WaitForZeroJobs(server.get(), 20.0));
  server->Shutdown();
  EXPECT_EQ(server->active_jobs(), 0);
  EXPECT_EQ(server->active_connections(), 0);
}

TEST(ServeFaultTest, DisconnectOfRunningJobCancelsIt) {
  ServerOptions options;
  options.max_job_seconds = 60.0;
  std::unique_ptr<DiscoveryServer> server = StartServer(options);
  ASSERT_NE(server, nullptr);

  EncodedTable slow = SlowTable();
  {
    Result<std::unique_ptr<DiscoveryClient>> client =
        DiscoveryClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    Result<uint64_t> job = (*client)->Submit(slow, SlowJobOptions());
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    // Give the job a moment to leave the queue, then kill the client
    // abruptly (destructor closes the socket — the TCP view of kill -9).
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  // The disconnect must cancel the job well before its natural end.
  EXPECT_TRUE(WaitForZeroJobs(server.get(), 15.0))
      << "abandoned job still running";
  EXPECT_GE(server->stats().connections_dropped, 1);

  ExpectHealthyRoundTrip(server.get(), testing_util::PaperEncoded(),
                         SmallJobOptions());
  server->Shutdown();
}

// --------------------------------------------------- admission caps --

TEST(ServeFaultTest, JobFloodGetsTypedOverloadNotQueueGrowth) {
  ServerOptions options;
  options.max_queue_depth = 1;
  options.max_running_jobs = 1;
  options.max_inflight_per_client = 8;  // the queue bound trips first
  options.max_job_seconds = 30.0;
  std::unique_ptr<DiscoveryServer> server = StartServer(options);
  ASSERT_NE(server, nullptr);

  EncodedTable slow = SlowTable();
  std::vector<std::unique_ptr<DiscoveryClient>> clients;
  std::vector<uint64_t> admitted;
  int overloaded = 0;
  for (int i = 0; i < 6; ++i) {
    Result<std::unique_ptr<DiscoveryClient>> client =
        DiscoveryClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok());
    Result<uint64_t> job = (*client)->Submit(slow, SlowJobOptions());
    if (job.ok()) {
      admitted.push_back(*job);
      clients.push_back(std::move(*client));
    } else {
      EXPECT_EQ(job.status().code(), StatusCode::kOverloaded)
          << job.status().ToString();
      ++overloaded;
    }
  }
  // 1 running + 1 queued fit; the flood beyond them is shed.
  EXPECT_GE(overloaded, 1);
  EXPECT_LE(admitted.size(), 2u);
  EXPECT_GE(server->stats().jobs_rejected, overloaded);

  // Every admitted job still resolves (cancelled counts as resolved).
  for (size_t i = 0; i < clients.size(); ++i) {
    ASSERT_TRUE(clients[i]->Cancel(admitted[i]).ok());
    Result<DiscoveryResult> result = clients[i]->Await(admitted[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_TRUE(WaitForZeroJobs(server.get(), 10.0));
  server->Shutdown();
  EXPECT_EQ(server->active_jobs(), 0);
}

TEST(ServeFaultTest, PerClientInflightCapSheds) {
  ServerOptions options;
  options.max_queue_depth = 16;
  options.max_running_jobs = 1;
  options.max_inflight_per_client = 2;
  options.max_job_seconds = 30.0;
  std::unique_ptr<DiscoveryServer> server = StartServer(options);
  ASSERT_NE(server, nullptr);

  Result<std::unique_ptr<DiscoveryClient>> client =
      DiscoveryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  EncodedTable slow = SlowTable();
  std::vector<uint64_t> admitted;
  for (int i = 0; i < 2; ++i) {
    Result<uint64_t> job = (*client)->Submit(slow, SlowJobOptions());
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    admitted.push_back(*job);
  }
  Result<uint64_t> third = (*client)->Submit(slow, SlowJobOptions());
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kOverloaded);

  // A different client is not penalized by the first one's appetite.
  Result<std::unique_ptr<DiscoveryClient>> other =
      DiscoveryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(other.ok());
  Result<uint64_t> others_job =
      (*other)->Submit(testing_util::PaperEncoded(), SmallJobOptions());
  EXPECT_TRUE(others_job.ok()) << others_job.status().ToString();

  for (uint64_t id : admitted) ASSERT_TRUE((*client)->Cancel(id).ok());
  for (uint64_t id : admitted) {
    Result<DiscoveryResult> result = (*client)->Await(id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  if (others_job.ok()) {
    Result<DiscoveryResult> result = (*other)->Await(*others_job);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_TRUE(WaitForZeroJobs(server.get(), 10.0));
  server->Shutdown();
}

// ------------------------------------------- cancel and deadlines --

TEST(ServeFaultTest, CancelResolvesWithCancelledFlag) {
  ServerOptions options;
  options.max_job_seconds = 60.0;
  std::unique_ptr<DiscoveryServer> server = StartServer(options);
  ASSERT_NE(server, nullptr);

  Result<std::unique_ptr<DiscoveryClient>> client =
      DiscoveryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  Result<uint64_t> job = (*client)->Submit(SlowTable(), SlowJobOptions());
  ASSERT_TRUE(job.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE((*client)->Cancel(*job).ok());

  Result<DiscoveryResult> result = (*client)->Await(*job);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->cancelled) << "slow job finished before the cancel "
                                    "landed — table not slow enough";
  EXPECT_TRUE(WaitForZeroJobs(server.get(), 5.0));
  server->Shutdown();
}

TEST(ServeFaultTest, DeadlineResolvesPartialNotError) {
  std::unique_ptr<DiscoveryServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);

  Result<DiscoveryResult> result = serve::RunRemoteDiscovery(
      "127.0.0.1", server->port(), SlowTable(), SlowJobOptions(),
      /*deadline_seconds=*/0.3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->timed_out);
  server->Shutdown();
}

TEST(ServeFaultTest, ServerSideJobCapBoundsEveryJob) {
  ServerOptions options;
  options.max_job_seconds = 0.3;  // tighter than any client ask
  std::unique_ptr<DiscoveryServer> server = StartServer(options);
  ASSERT_NE(server, nullptr);

  const auto start = std::chrono::steady_clock::now();
  Result<DiscoveryResult> result = serve::RunRemoteDiscovery(
      "127.0.0.1", server->port(), SlowTable(), SlowJobOptions(),
      /*deadline_seconds=*/3600.0);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->timed_out);
  EXPECT_LT(elapsed, 30.0);
  server->Shutdown();
}

// ------------------------------------------------- drain and SIGTERM --

TEST(ServeFaultTest, DrainRefusesNewJobsButDeliversInFlight) {
  ServerOptions options;
  options.max_job_seconds = 1.0;
  std::unique_ptr<DiscoveryServer> server = StartServer(options);
  ASSERT_NE(server, nullptr);

  Result<std::unique_ptr<DiscoveryClient>> client =
      DiscoveryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  Result<uint64_t> job = (*client)->Submit(SlowTable(), SlowJobOptions());
  ASSERT_TRUE(job.ok());

  server->RequestDrain();
  EXPECT_TRUE(server->draining());

  Result<uint64_t> late = (*client)->Submit(testing_util::PaperEncoded(),
                                            SmallJobOptions());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kShuttingDown);

  // The in-flight job still resolves through its deadline.
  Result<DiscoveryResult> result = (*client)->Await(*job);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  server->Shutdown();
  EXPECT_EQ(server->active_jobs(), 0);
}

std::string ServeBinaryPath() {
  if (const char* env = std::getenv("AOD_DISCOVERY_SERVE")) return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  const std::string sibling =
      (std::filesystem::path(buf).parent_path() / "discovery_serve")
          .string();
  return std::filesystem::exists(sibling) ? sibling : "";
}

TEST(ServeFaultTest, SigtermMidJobDrainsDeliversAndExitsZero) {
  const std::string binary = ServeBinaryPath();
  if (binary.empty()) {
    GTEST_SKIP() << "discovery_serve not found next to the test binary";
  }

  // Spawn the real daemon and read its bound port from the banner.
  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(binary.c_str(), binary.c_str(), "--port=0",
            "--max-job-seconds=1.5", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out_pipe[1]);

  std::string banner;
  char c;
  while (banner.find('\n') == std::string::npos &&
         ::read(out_pipe[0], &c, 1) == 1) {
    banner.push_back(c);
  }
  const size_t colon = banner.rfind(":");
  ASSERT_NE(colon, std::string::npos) << "no banner: " << banner;
  const uint16_t port =
      static_cast<uint16_t>(std::atoi(banner.c_str() + colon + 1));
  ASSERT_GT(port, 0) << banner;

  // A slow job is mid-flight when SIGTERM lands; the daemon must drain
  // — the job resolves through its 1.5s cap and the result reaches us.
  Result<std::unique_ptr<DiscoveryClient>> client =
      DiscoveryClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<uint64_t> job = (*client)->Submit(SlowTable(), SlowJobOptions());
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);

  Result<DiscoveryResult> result = (*client)->Await(*job);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->timed_out || result->cancelled ||
              !result->dependencies.empty());

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::close(out_pipe[0]);
}

// ----------------------------------------------- slow readers/writers --

TEST(ServeFaultTest, SlowlorisConnectionIsDroppedByIdleTimeout) {
  ServerOptions options;
  options.idle_timeout_seconds = 0.4;
  std::unique_ptr<DiscoveryServer> server = StartServer(options);
  ASSERT_NE(server, nullptr);

  // Three bytes of header, then silence — never a complete frame.
  int fd = RawConnect(server->port());
  ASSERT_GE(fd, 0);
  const uint8_t dribble[3] = {0x57, 0x44, 0x4F};
  RawSend(fd, dribble, sizeof(dribble));

  EXPECT_TRUE(WaitForPeerClose(fd, 8.0)) << "slowloris held its grip";
  ::close(fd);

  // The timeout shed the parasite, not the service. (The healthy
  // client's await must outpace the same idle timeout, so this job is
  // small.)
  ExpectHealthyRoundTrip(server.get(), testing_util::PaperEncoded(),
                         SmallJobOptions());
  server->Shutdown();
  EXPECT_GE(server->stats().connections_dropped, 1);
}

// ------------------------------------------------------- leak check --

TEST(ServeFaultTest, StormThenShutdownLeaksNoFdsJobsOrConnections) {
  const int fds_before = OpenFdCount();
  {
    ServerOptions options;
    options.max_job_seconds = 5.0;
    options.max_queue_depth = 2;
    std::unique_ptr<DiscoveryServer> server = StartServer(options);
    ASSERT_NE(server, nullptr);

    // A small storm: crashes, garbage, a healthy job, a flood.
    for (int i = 0; i < 3; ++i) {
      int fd = RawConnect(server->port());
      if (fd >= 0) {
        const uint8_t junk[] = {1, 2, 3};
        RawSend(fd, junk, sizeof(junk));
        ::close(fd);
      }
    }
    ExpectHealthyRoundTrip(server.get(), testing_util::PaperEncoded(),
                           SmallJobOptions());
    EXPECT_TRUE(WaitForZeroJobs(server.get(), 10.0));
    server->Shutdown();
    EXPECT_EQ(server->active_jobs(), 0);
    EXPECT_EQ(server->active_connections(), 0);
  }
  // Everything the server and its clients opened is closed again.
  const int fds_after = OpenFdCount();
  EXPECT_EQ(fds_after, fds_before);
}

}  // namespace
}  // namespace aod
