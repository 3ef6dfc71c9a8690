// The standalone shard-runner process: speaks the shard wire protocol
// over localhost TCP (--connect=HOST:PORT) or stdin/stdout (--stdio),
// bootstraps its config and rank-encoded table off the wire, validates
// candidate batches, and ends with the stats-footer handshake. Spawned
// by the discovery driver for every sharded run (num_shards or
// row_shards >= 1); see src/shard/runner_main.h.
#include "shard/runner_main.h"

int main(int argc, char** argv) {
  return aod::shard::ShardRunnerMain(argc, argv);
}
