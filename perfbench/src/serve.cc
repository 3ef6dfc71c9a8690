// The serve-mix workload: two closed-loop clients against an in-process
// DiscoveryServer with a two-thread pool on loopback.
//
// One operation is one job, timed from Submit until Await returns the
// result. Jobs are a seeded mix over blocks of eight: seven jobs on two
// hot flight tables profiled again and again (TableCache hits) and one on
// a fresh flight table (a miss); epsilon in {0.05, 0.10, 0.15}; two jobs
// in eight also search the bidirectional polarity. Every block has the
// same composition, so the middle half and the p90 job fall in the same
// kinds of job for every seed.
//
// Jobs validate the level-2 OCs (every pair A ~ B over the whole relation,
// DiscoveryOptions::max_level = 2). Deeper jobs request derived partitions
// from the PartitionCache on the server's pool and so meet the
// PartitionCache::Get deadlock (ROADMAP blocker): full-lattice OC/OFD
// flight jobs hung in 2 of 3 ten-second runs with a two-thread pool, and
// in 2 of 3 fifty-second runs with a one-thread pool, while level-2 OC
// jobs, which only read the preloaded partitions, ran 3050 jobs without a
// hang. Restore the full lattice once the deadlock is fixed.
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "data/csv_parser.h"
#include "gen/flight_generator.h"
#include "gen/random.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace aod {
namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kPoolThreads = 2;
/// Rows of the hot tables, and the range fresh tables draw from.
constexpr int64_t kHotRows = 20000;
constexpr int64_t kMinFreshRows = 15000;
constexpr int64_t kMaxFreshRows = 30000;
constexpr double kEpsilons[] = {0.05, 0.10, 0.15};
/// Jobs per block, and how many of them are bidirectional. One job per
/// block runs on a fresh table.
constexpr int kBlock = 8;
constexpr int kBidirectionalPerBlock = 2;
/// Jobs per second of window the input pool is sized for (well above the
/// measured rate, so the window, not the pool, ends the run).
constexpr double kMaxJobsPerSecond = 30.0;

struct JobSpec {
  int table = 0;  // 0, 1: hot tables; 2+: fresh tables
  int epsilon = 1;
  bool bidirectional = false;
};

class ServeMix : public Workload {
 public:
  explicit ServeMix(const Config& config) : config_(config) {
    max_jobs_ = static_cast<int64_t>(config.seconds * kMaxJobsPerSecond) + 20;
  }

  void Generate() override {
    Rng rng(config_.seed * 0x9e3779b97f4a7c15ULL + 11);
    std::vector<JobSpec> block(kBlock);
    while (static_cast<int64_t>(jobs_.size()) < max_jobs_) {
      for (int slot = 0; slot < kBlock; ++slot) {
        JobSpec& job = block[static_cast<size_t>(slot)];
        job.table = slot == 0 ? 2 + fresh_count_++ : slot % 2;
        job.epsilon = static_cast<int>(rng.UniformInt(0, 2));
        job.bidirectional = slot >= kBlock - kBidirectionalPerBlock;
      }
      for (int slot = kBlock - 1; slot > 0; --slot) {
        std::swap(block[static_cast<size_t>(slot)],
                  block[static_cast<size_t>(rng.UniformInt(0, slot))]);
      }
      jobs_.insert(jobs_.end(), block.begin(), block.end());
    }
    for (int t = 0; t < 2 + fresh_count_; ++t) {
      const int64_t rows =
          t < 2 ? ScaledRows(config_, kHotRows)
                : rng.UniformInt(ScaledRows(config_, kMinFreshRows),
                                 ScaledRows(config_, kMaxFreshRows));
      Table table = GenerateFlightTable(rows, 10, config_.seed * 1000 + t);
      if (t == 0) csv_ = WriteCsv(table);
      tables_.push_back(EncodeTable(table));
    }
  }

  Fingerprint Reference(int64_t key) override {
    auto it = references_.find(key);
    if (it == references_.end()) {
      const JobSpec job = SpecOf(key);
      DiscoveryOptions options = Options(job);
      options.num_threads = 1;
      it = references_
               .emplace(key, FingerprintOf(DiscoverOds(TableOf(job), options)))
               .first;
    }
    return it->second;
  }

  OpRecord SetUp() override {
    serve::ServerOptions options;
    options.num_threads = kPoolThreads;
    options.max_running_jobs = kClients;
    Result<std::unique_ptr<serve::DiscoveryServer>> server =
        serve::DiscoveryServer::Start(options);
    OpRecord record;
    if (!server.ok()) {
      record.error = "server start: " + server.status().ToString();
      return record;
    }
    server_ = std::move(*server);
    for (int c = 0; c < kClients; ++c) {
      Result<std::unique_ptr<serve::DiscoveryClient>> client =
          serve::DiscoveryClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        record.error = "connect: " + client.status().ToString();
        return record;
      }
      clients_.push_back(std::move(*client));
    }
    return RunJob(0, JobSpec{}, false);
  }

  int workers() const override { return kClients; }
  int64_t max_ops() const override { return max_jobs_; }

  OpRecord Run(int worker, int64_t index, bool traced) override {
    return RunJob(worker, jobs_[static_cast<size_t>(index)], traced);
  }

  void TearDown() override {
    clients_.clear();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
  }

  void PerLayer(const std::vector<OpRecord>& traced,
                LayerValues* values) override {
    AddDiscoveryLayers(traced, values);
    // The serving cost: each job's latency minus a direct DiscoverOds of
    // the same job on a pool as wide as the server's.
    std::map<int64_t, double> direct_s;
    std::vector<double> submit, await, overhead;
    for (const OpRecord& r : traced) {
      submit.push_back(r.submit_s);
      await.push_back(r.await_s);
      auto it = direct_s.find(r.reference);
      if (it == direct_s.end()) {
        const JobSpec job = SpecOf(r.reference);
        DiscoveryOptions options = Options(job);
        options.num_threads = kPoolThreads;
        Span span("direct_discover", true);
        DiscoverOds(TableOf(job), options);
        it = direct_s.emplace(r.reference, span.Seconds()).first;
      }
      overhead.push_back(r.seconds - it->second);
    }
    (*values)["serve.submit_s"] = Median(submit);
    (*values)["serve.await_s"] = Median(await);
    (*values)["serve.overhead_s"] = Median(overhead);
    if (server_ != nullptr) {
      const serve::ServerStats stats = server_->stats();
      const int64_t lookups = stats.table_cache_hits + stats.table_cache_misses;
      (*values)["serve.table_cache_hit_ratio"] =
          lookups > 0 ? static_cast<double>(stats.table_cache_hits) /
                            static_cast<double>(lookups)
                      : 0.0;
      (*values)["serve.jobs_rejected"] = static_cast<double>(stats.jobs_rejected);
      (*values)["serve.frames_rejected"] =
          static_cast<double>(stats.frames_rejected);
    }
    AddReplays(tables_[0], 0.10, config_.seed, values);
    AddIngestReplay(csv_, values);
  }

  Shape shape() const override {
    Shape s;
    char rows[64];
    std::snprintf(rows, sizeof(rows), "%lld hot, %lld-%lld fresh",
                  static_cast<long long>(ScaledRows(config_, kHotRows)),
                  static_cast<long long>(ScaledRows(config_, kMinFreshRows)),
                  static_cast<long long>(ScaledRows(config_, kMaxFreshRows)));
    s.rows = rows;
    s.attributes = 10;
    s.threads = "2 pool threads + 2 client connections";
    return s;
  }

 private:
  static DiscoveryOptions Options(const JobSpec& job) {
    DiscoveryOptions options;
    options.kinds = *DependencyKindSet::Parse("oc");
    options.validator = ValidatorKind::kOptimal;
    options.epsilon = kEpsilons[job.epsilon];
    options.max_level = 2;
    options.bidirectional = job.bidirectional;
    return options;
  }

  const EncodedTable& TableOf(const JobSpec& job) const {
    return tables_[static_cast<size_t>(job.table)];
  }

  static int64_t KeyOf(const JobSpec& job) {
    return (static_cast<int64_t>(job.table) * 3 + job.epsilon) * 2 +
           (job.bidirectional ? 1 : 0);
  }
  static JobSpec SpecOf(int64_t key) {
    JobSpec job;
    job.bidirectional = key % 2 == 1;
    job.epsilon = static_cast<int>((key / 2) % 3);
    job.table = static_cast<int>(key / 6);
    return job;
  }

  OpRecord RunJob(int client, const JobSpec& job, bool traced) {
    OpRecord record;
    record.traced = traced;
    record.reference = KeyOf(job);
    serve::DiscoveryClient* c = clients_[static_cast<size_t>(client)].get();
    const EncodedTable& table = TableOf(job);
    Span op("operation", traced);
    record.span = op.id();
    Span submit("submit", traced, op.id());
    Result<uint64_t> id = c->Submit(table, Options(job));
    submit.End();
    if (!id.ok()) {
      record.error = "rejected: " + id.status().ToString();
      return record;
    }
    Span await("await", traced, op.id());
    Result<DiscoveryResult> result = c->Await(*id);
    if (result.ok()) AttachStats(&await, result->stats);
    await.End();
    op.End();
    record.seconds = op.Seconds();
    record.submit_s = submit.Seconds();
    record.await_s = await.Seconds();
    if (!result.ok()) {
      record.error = "await: " + result.status().ToString();
      return record;
    }
    record.error = RunFailure(*result);
    record.fingerprint = FingerprintOf(*result);
    record.stats = result->stats;
    return record;
  }

  const Config config_;
  int64_t max_jobs_ = 0;
  int fresh_count_ = 0;
  std::vector<JobSpec> jobs_;
  std::vector<EncodedTable> tables_;
  std::string csv_;
  std::map<int64_t, Fingerprint> references_;
  std::unique_ptr<serve::DiscoveryServer> server_;
  std::vector<std::unique_ptr<serve::DiscoveryClient>> clients_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMix(const Config& config) {
  return std::make_unique<ServeMix>(config);
}

}  // namespace perfbench
}  // namespace aod
