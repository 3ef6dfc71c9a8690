// The standalone shard-runner process entry point.
//
// shard_runner_main (examples/) is a thin wrapper around
// ShardRunnerMain: connect to the coordinator over localhost TCP,
// bootstrap from the wire — a kConfigBlock, then a kTableBlock carrying
// the rank-encoded columns — and serve frames until the
// kShutdown/kStatsFooter handshake ends the conversation.
// Everything the runner knows arrived over the wire; the process never
// opens a data file, which is exactly what makes the seam honest:
// promoting a shard off-box is a transport choice, not a code change.
//
// Usage:
//   shard_runner_main --connect=HOST:PORT [--timeout=SECONDS]
//
// Exit codes: 0 orderly shutdown, 1 usage error (the usage line goes to
// stderr), 2 transport/bootstrap failure, 3 serve-loop failure.
#ifndef AOD_SHARD_RUNNER_MAIN_H_
#define AOD_SHARD_RUNNER_MAIN_H_

namespace aod {
namespace shard {

int ShardRunnerMain(int argc, char** argv);

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_RUNNER_MAIN_H_
