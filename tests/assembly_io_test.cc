// Tests for OD assembly (canonical parts -> ODs, paper Sec. 2.2/2.3) and
// result serialization (JSON / CSV).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "data/csv_parser.h"
#include "gen/flight_generator.h"
#include "od/aoc_lis_validator.h"
#include "od/discovery.h"
#include "od/od_assembly.h"
#include "od/result_io.h"
#include "partition/partition_cache.h"
#include "shard/wire.h"
#include "test_util.h"

namespace aod {
namespace {

// ------------------------------------------------------------ assembly --

TEST(OdAssemblyTest, PaperSalOrdersTaxGrp) {
  // {}: sal ~ taxGrp plus {sal}: [] -> taxGrp compose into
  // {}: sal -> taxGrp (Example 2.4's OD).
  EncodedTable t = testing_util::PaperEncoded();
  DiscoveryOptions options;
  options.validator = ValidatorKind::kExact;
  DiscoveryResult result = DiscoverOds(t, options);
  PartitionCache cache(&t);
  auto ods = AssembleOds(t, result, 0.0, &cache);
  int sal = t.ColumnIndex("sal");
  int tax_grp = t.ColumnIndex("taxGrp");
  bool found = std::any_of(ods.begin(), ods.end(), [&](const DiscoveredOd& d) {
    return d.context.empty() && d.a == sal && d.b == tax_grp;
  });
  EXPECT_TRUE(found);
  // The converse direction must be absent (taxGrp does not order sal).
  bool converse = std::any_of(
      ods.begin(), ods.end(), [&](const DiscoveredOd& d) {
        return d.context.empty() && d.a == tax_grp && d.b == sal;
      });
  EXPECT_FALSE(converse);
}

TEST(OdAssemblyTest, AssembledFactorsAreExactOdFactors) {
  Table raw = GenerateFlightTable(2000, 8, 42);
  EncodedTable t = EncodeTable(raw);
  DiscoveryOptions options;
  options.epsilon = 0.12;
  DiscoveryResult result = DiscoverOds(t, options);
  PartitionCache cache(&t);
  auto ods = AssembleOds(t, result, options.epsilon, &cache);
  ValidatorOptions full;
  full.early_exit = false;
  for (const auto& od : ods) {
    EXPECT_LE(od.approx_factor, options.epsilon + 1e-9);
    // Re-validation from scratch agrees.
    auto partition = cache.Get(od.context);
    ValidationOutcome check = ValidateAodOptimal(
        t, *partition, od.a, od.b, 1.0, t.num_rows(), full);
    EXPECT_NEAR(check.approx_factor, od.approx_factor, 1e-12)
        << od.ToString(t);
    // The OD factor can exceed either part's factor, never undershoot
    // the OC part (removing splits can only cost more).
    EXPECT_GE(od.approx_factor - 1e-12, 0.0);
    EXPECT_GE(od.approx_factor + 1e-9, od.oc_factor);
  }
}

TEST(OdAssemblyTest, PartsValidButOdInvalidIsFiltered) {
  // Construct: OC {}: a ~ b holds with small factor, OFD {a}: [] -> b
  // holds with small factor, but the OD {}: a -> b needs more removals
  // than eps allows (paper Sec. 2.3's caveat).
  // a has classes of size 2 with b split inside (split errors), plus a
  // couple of swap errors across classes.
  EncodedTable t = EncodedTableFromInts(
      {"a", "b"},
      {{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}, {0, 1, 2, 3, 4, 5, 6, 7, 9, 8}});
  // OC factor: ties broken by b, sequence non-decreasing -> 0 swaps.
  // OFD {a}: every class has two distinct b values -> removal 5 (e=0.5).
  // OD: must fix every split: removal 5 (e=0.5).
  DiscoveryOptions options;
  options.epsilon = 0.5;
  DiscoveryResult result = DiscoverOds(t, options);
  PartitionCache cache(&t);
  // At eps = 0.5 the OD passes...
  auto ods_loose = AssembleOds(t, result, 0.5, &cache);
  bool found = std::any_of(
      ods_loose.begin(), ods_loose.end(),
      [&](const DiscoveredOd& d) { return d.a == 0 && d.b == 1; });
  EXPECT_TRUE(found);
  // ...but at eps = 0.3 the composition must be rejected even though the
  // OC part alone (factor 0) passes.
  auto ods_tight = AssembleOds(t, result, 0.3, &cache);
  for (const auto& d : ods_tight) {
    EXPECT_FALSE(d.a == 0 && d.b == 1) << d.approx_factor;
  }
}

TEST(OdAssemblyTest, OppositePolarityOcsDoNotCompose) {
  EncodedTable t = EncodedTableFromInts(
      {"a", "b"}, {{1, 2, 3, 4}, {8, 6, 4, 2}});
  DiscoveryOptions options;
  options.epsilon = 0.0;
  options.bidirectional = true;
  DiscoveryResult result = DiscoverOds(t, options);
  PartitionCache cache(&t);
  auto ods = AssembleOds(t, result, 0.0, &cache);
  for (const auto& d : ods) {
    // a ~ desc(b) holds but must not be emitted as an OD.
    EXPECT_FALSE(d.context.empty() && ((d.a == 0 && d.b == 1) ||
                                       (d.a == 1 && d.b == 0)));
  }
}

// ---------------------------------------------------------------- JSON --

TEST(ResultIoTest, JsonContainsDependenciesAndStats) {
  EncodedTable t = testing_util::PaperEncoded();
  DiscoveryOptions options;
  options.epsilon = 0.2;
  DiscoveryResult result = DiscoverOds(t, options);
  std::string json = ResultToJson(result, t);
  EXPECT_NE(json.find("\"ocs\""), std::string::npos);
  EXPECT_NE(json.find("\"ofds\""), std::string::npos);
  EXPECT_NE(json.find("\"stats\""), std::string::npos);
  EXPECT_NE(json.find("\"sal\""), std::string::npos);
  EXPECT_NE(json.find("\"timed_out\": false"), std::string::npos);
  // Balanced braces/brackets as a cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ResultIoTest, JsonEscapesSpecialCharacters) {
  // A column name with a quote must not break the document.
  Schema schema({{"we\"ird", DataType::kInt64}, {"b", DataType::kInt64}});
  Table raw(std::move(schema));
  raw.AppendRow({Value(int64_t{1}), Value(int64_t{1})});
  raw.AppendRow({Value(int64_t{2}), Value(int64_t{2})});
  EncodedTable t = EncodeTable(raw);
  DiscoveryResult result = DiscoverOds(t, {});
  std::string json = ResultToJson(result, t);
  EXPECT_NE(json.find("we\\\"ird"), std::string::npos);
}

TEST(ResultIoTest, CsvHasOneRowPerDependency) {
  EncodedTable t = testing_util::PaperEncoded();
  DiscoveryOptions options;
  options.epsilon = 0.2;
  DiscoveryResult result = DiscoverOds(t, options);
  std::string csv = ResultToCsv(result, t);
  int64_t lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines,
            1 + static_cast<int64_t>(result.dependencies.size()));
  // Round-trips through our own CSV parser.
  auto parsed = ParseCsv(csv).value();
  EXPECT_EQ(parsed.num_rows(),
            static_cast<int64_t>(result.dependencies.size()));
  EXPECT_EQ(parsed.num_columns(), 9);
}

// ------------------------------------------------------- binary blob --

TEST(ResultIoTest, BinaryBlobRoundTripIsLossless) {
  // A real result with removal sets, then every field that does NOT
  // come out of a local fault-free run forced to a non-default value:
  // per-shard and row-shard byte accounting, a
  // non-OK shard_status and both terminal flags. The blob must carry all
  // of it.
  EncodedTable t = testing_util::PaperEncoded();
  DiscoveryOptions options;
  options.epsilon = 0.2;
  options.collect_removal_sets = true;
  DiscoveryResult result = DiscoverOds(t, options);
  ASSERT_GT(result.CountOfKind(DependencyKind::kOc), 0);

  result.stats.shards_used = 3;
  result.stats.shard_bytes_shipped = 123456;
  result.stats.shard_bytes_per_shard = {1000, 20000, 102456};
  result.stats.shard_bytes_raw = 200000;
  result.stats.shard_bytes_wire = 123456;
  result.stats.shard_frame_bytes = {{"partition", 5000, 2500},
                                    {"result", 800, 700}};
  result.stats.row_shards_used = 2;
  result.stats.row_shard_bytes_per_shard = {7000, 7100};
  result.stats.row_shard_bytes_shipped = 14100;
  result.stats.row_shard_bytes_raw = 30000;
  result.stats.row_shard_bytes_wire = 14100;
  result.timed_out = true;
  result.cancelled = true;
  result.shard_status = Status::IoError("shard 2 never came back");

  std::vector<uint8_t> blob = SerializeResult(result);
  Result<DiscoveryResult> back = DeserializeResult(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  ASSERT_EQ(back->dependencies.size(), result.dependencies.size());
  for (size_t i = 0; i < result.dependencies.size(); ++i) {
    const DiscoveredDependency& want = result.dependencies[i];
    const DiscoveredDependency& got = back->dependencies[i];
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.context, want.context);
    EXPECT_EQ(got.a, want.a);
    EXPECT_EQ(got.b, want.b);
    EXPECT_EQ(got.opposite, want.opposite);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.removal_size, want.removal_size);
    EXPECT_EQ(got.level, want.level);
    EXPECT_EQ(got.interestingness, want.interestingness);
    EXPECT_EQ(got.removal_rows, want.removal_rows);
  }
  const DiscoveryStats& s = back->stats;
  EXPECT_EQ(s.shards_used, 3);
  EXPECT_EQ(s.shard_bytes_shipped, 123456);
  EXPECT_EQ(s.shard_bytes_per_shard, result.stats.shard_bytes_per_shard);
  EXPECT_EQ(s.shard_bytes_raw, 200000);
  EXPECT_EQ(s.shard_bytes_wire, 123456);
  ASSERT_EQ(s.shard_frame_bytes.size(), 2u);
  EXPECT_EQ(s.shard_frame_bytes[0].frame_type, "partition");
  EXPECT_EQ(s.shard_frame_bytes[0].bytes_raw, 5000);
  EXPECT_EQ(s.shard_frame_bytes[1].bytes_wire, 700);
  EXPECT_EQ(s.row_shards_used, 2);
  EXPECT_EQ(s.row_shard_bytes_per_shard,
            result.stats.row_shard_bytes_per_shard);
  EXPECT_EQ(s.row_shard_bytes_shipped, 14100);
  EXPECT_EQ(s.row_shard_bytes_raw, 30000);
  EXPECT_EQ(s.row_shard_bytes_wire, 14100);
  EXPECT_EQ(s.nodes_processed, result.stats.nodes_processed);
  EXPECT_EQ(s.levels, result.stats.levels);
  EXPECT_TRUE(back->timed_out);
  EXPECT_TRUE(back->cancelled);
  EXPECT_EQ(back->shard_status.code(), StatusCode::kIoError);
  EXPECT_EQ(back->shard_status.message(), "shard 2 never came back");

  // Serializing the deserialized result reproduces the exact bytes —
  // the strongest form of losslessness.
  EXPECT_EQ(SerializeResult(*back), blob);
}

TEST(ResultIoTest, BinaryBlobRejectsTruncationAndCorruption) {
  EncodedTable t = testing_util::PaperEncoded();
  DiscoveryOptions options;
  options.collect_removal_sets = true;
  DiscoveryResult result = DiscoverOds(t, options);
  const std::vector<uint8_t> blob = SerializeResult(result);

  // Every truncation is a clean ParseError, never a crash or a
  // misparse into a different result.
  for (size_t len = 0; len < blob.size(); ++len) {
    Result<DiscoveryResult> r = DeserializeResult(blob.data(), len);
    EXPECT_FALSE(r.ok()) << "truncation at " << len << " parsed";
  }
  // Trailing garbage is rejected too (ExpectEnd).
  std::vector<uint8_t> padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(DeserializeResult(padded).ok());
  // A wrong version byte is rejected before anything else is read.
  std::vector<uint8_t> wrong_version = blob;
  wrong_version[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeResult(wrong_version).ok());
}

TEST(ResultIoTest, BinaryBlobWithPreviousVersionIsRejectedTyped) {
  // Version 5 blobs carry five per-level vectors where v6 carries one
  // list of level records; a v6 decoder must refuse one outright (typed
  // ParseError) rather than read its per-level block in the wrong shape.
  EncodedTable t = testing_util::PaperEncoded();
  std::vector<uint8_t> blob = SerializeResult(DiscoverOds(t, {}));
  ASSERT_GE(blob.size(), 2u);
  blob[0] = 5;  // the version is the leading little-endian u16
  blob[1] = 0;
  Result<DiscoveryResult> r = DeserializeResult(blob);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("version 5"), std::string::npos)
      << r.status().ToString();
}

TEST(ResultIoTest, BinaryBlobRejectsALevelCountBeyondThePayload) {
  // The level count is checked against the bytes left before anything
  // is allocated: a forged count is a typed ParseError.
  // An empty result ends in its level count (one zero byte) and an
  // 11-byte tail (two flags, the status code, an empty message).
  const std::vector<uint8_t> blob = SerializeResult(DiscoveryResult{});
  const size_t count_at = blob.size() - 12;
  ASSERT_EQ(blob[count_at], 0);
  shard::WireWriter count;
  count.PutVarint(uint64_t{1} << 40);
  std::vector<uint8_t> forged(blob.begin(), blob.begin() + count_at);
  forged.insert(forged.end(), count.payload().begin(), count.payload().end());
  forged.insert(forged.end(), blob.begin() + count_at + 1, blob.end());
  Result<DiscoveryResult> r = DeserializeResult(forged);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("level count exceeds payload"),
            std::string::npos)
      << r.status().ToString();
}

TEST(ResultIoTest, BinaryBlobRoundTripsMixedKindRecords) {
  // A run with all four kinds enabled produces a blob holding OC, OFD,
  // FD and AFD records side by side; the round trip must preserve the
  // kind tags and every per-record field.
  EncodedTable t = testing_util::PaperEncoded();
  DiscoveryOptions options;
  options.epsilon = 0.2;
  options.kinds = DependencyKindSet::All();
  options.afd_error = 0.1;
  options.collect_removal_sets = true;
  DiscoveryResult result = DiscoverOds(t, options);
  ASSERT_GT(result.CountOfKind(DependencyKind::kFd), 0);
  ASSERT_GT(result.CountOfKind(DependencyKind::kAfd), 0);
  ASSERT_GT(result.CountOfKind(DependencyKind::kOc), 0);

  std::vector<uint8_t> blob = SerializeResult(result);
  Result<DiscoveryResult> back = DeserializeResult(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->dependencies.size(), result.dependencies.size());
  for (size_t i = 0; i < result.dependencies.size(); ++i) {
    const DiscoveredDependency& want = result.dependencies[i];
    const DiscoveredDependency& got = back->dependencies[i];
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.context, want.context);
    EXPECT_EQ(got.a, want.a);
    EXPECT_EQ(got.b, want.b);
    EXPECT_EQ(got.opposite, want.opposite);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.removal_size, want.removal_size);
    EXPECT_EQ(got.level, want.level);
    EXPECT_EQ(got.interestingness, want.interestingness);
    EXPECT_EQ(got.removal_rows, want.removal_rows);
  }
  EXPECT_EQ(back->stats.fd_candidates_validated,
            result.stats.fd_candidates_validated);
  EXPECT_EQ(back->stats.afd_candidates_validated,
            result.stats.afd_candidates_validated);
  EXPECT_EQ(back->stats.levels, result.stats.levels);
  EXPECT_EQ(SerializeResult(*back), blob);
}

TEST(ResultIoTest, BinaryBlobRejectsBadKindsAndForgedFields) {
  // One hand-built FD record; every scalar small enough that each varint
  // is a single byte, so the record layout after the u16 version and the
  // one-byte count varint is fixed:
  //   [3] kind  [4] context  [5] a  [6] b  [7] polarity ...
  auto make_result = [] {
    DiscoveryResult r;
    DiscoveredDependency d;
    d.kind = DependencyKind::kFd;
    d.context = AttributeSet::Of({0});
    d.a = 1;
    d.b = -1;
    d.opposite = false;
    d.error = 0.0;
    d.removal_size = 0;
    d.level = 2;
    d.interestingness = 0.5;
    r.dependencies.push_back(d);
    return r;
  };
  const std::vector<uint8_t> blob = SerializeResult(make_result());
  ASSERT_TRUE(DeserializeResult(blob).ok());

  // An unknown kind id is a typed ParseError naming the id.
  std::vector<uint8_t> bad_kind = blob;
  bad_kind[3] = 9;
  Result<DiscoveryResult> r = DeserializeResult(bad_kind);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown dependency kind id 9"),
            std::string::npos)
      << r.status().ToString();

  // A polarity byte other than 0/1 is rejected, not coerced to bool.
  std::vector<uint8_t> bad_polarity = blob;
  bad_polarity[7] = 2;
  r = DeserializeResult(bad_polarity);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bad polarity flag"),
            std::string::npos)
      << r.status().ToString();

  // A target-kind record smuggling OC pair fields is a forgery: either a
  // real rhs attribute or a polarity bit must be refused.
  {
    DiscoveryResult forged = make_result();
    forged.dependencies[0].b = 0;
    r = DeserializeResult(SerializeResult(forged));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(
        r.status().message().find("target-kind record carries OC pair"),
        std::string::npos)
        << r.status().ToString();
  }
  {
    DiscoveryResult forged = make_result();
    forged.dependencies[0].opposite = true;
    r = DeserializeResult(SerializeResult(forged));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(
        r.status().message().find("target-kind record carries OC pair"),
        std::string::npos)
        << r.status().ToString();
  }

  // Attribute indices outside the schema range are rejected for both the
  // OC pair fields and a target-kind's target.
  {
    DiscoveryResult forged = make_result();
    forged.dependencies[0].kind = DependencyKind::kOc;
    forged.dependencies[0].a = AttributeSet::kMaxAttributes;
    forged.dependencies[0].b = 0;
    r = DeserializeResult(SerializeResult(forged));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("OC lhs attribute out of range"),
              std::string::npos)
        << r.status().ToString();
  }
  {
    DiscoveryResult forged = make_result();
    forged.dependencies[0].a = -5;
    r = DeserializeResult(SerializeResult(forged));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("target attribute out of range"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(ResultIoTest, WriteStringToFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/aod_result_io_test.json";
  ASSERT_TRUE(WriteStringToFile(path, "{\"x\": 1}\n").ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"x\": 1}\n");
  EXPECT_FALSE(WriteStringToFile("/nonexistent/dir/file", "x").ok());
}

}  // namespace
}  // namespace aod
