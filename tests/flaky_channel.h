// Fault-injecting ShardChannel decorator for transport tests.
//
// Wraps any ShardChannel and, after `trigger_after` cleanly forwarded
// frames in the faulted direction, injects exactly one fault:
//
//   kTornWrite    Send forwards only a prefix of the frame — on a byte
//                 stream the peer then misframes the bytes that follow;
//   kShortRead    Receive truncates the delivered frame;
//   kCorruptByte  Receive flips one payload byte;
//   kDropFrame    Send silently discards the frame (the peer sees
//                 nothing — the *timeout* path, not the decode path).
//
// In pass-through mode (kNone, the default) the decorator is perfectly
// transparent, which is itself a tested property: the full sharded
// determinism contract must hold with a pass-through FlakyChannel
// wrapped around every coordinator endpoint
// (tests/parallel_determinism_test.cc).
#ifndef AOD_TESTS_FLAKY_CHANNEL_H_
#define AOD_TESTS_FLAKY_CHANNEL_H_

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "shard/channel.h"

namespace aod {
namespace testing_util {

class FlakyChannel final : public shard::ShardChannel {
 public:
  enum class Fault {
    kNone,
    kTornWrite,
    kShortRead,
    kCorruptByte,
    kDropFrame,
  };

  struct Plan {
    Fault fault = Fault::kNone;
    /// Frames forwarded cleanly (in the faulted direction) before the
    /// fault fires; the fault fires once.
    int trigger_after = 0;
    /// Shared across decorated channels so a fleet of links injects one
    /// fault total, wherever it lands first. Optional.
    std::atomic<int>* shared_budget = nullptr;
  };

  FlakyChannel(std::unique_ptr<shard::ShardChannel> inner, Plan plan)
      : inner_(std::move(inner)), plan_(plan) {}

  Status Send(std::vector<uint8_t> frame) override {
    if (Due(Fault::kTornWrite)) {
      frame.resize(frame.size() / 2);
      return inner_->Send(std::move(frame));
    }
    if (Due(Fault::kDropFrame)) {
      return Status::OK();  // accepted, never delivered
    }
    return inner_->Send(std::move(frame));
  }

  Result<std::vector<uint8_t>> Receive() override {
    Result<std::vector<uint8_t>> frame = inner_->Receive();
    if (!frame.ok()) return frame;
    if (Due(Fault::kShortRead)) {
      frame->resize(frame->size() / 2);
    } else if (Due(Fault::kCorruptByte)) {
      if (!frame->empty()) frame->back() ^= 0x5a;
    }
    return frame;
  }

  void Close() override { inner_->Close(); }
  int64_t bytes_sent() const override { return inner_->bytes_sent(); }
  int64_t bytes_received() const override { return inner_->bytes_received(); }

  shard::ShardChannel* inner() { return inner_.get(); }

 private:
  /// True exactly once: when `fault` is armed and trigger_after clean
  /// frames in its direction have passed (and the shared budget, if
  /// any, has not been spent by a sibling).
  bool Due(Fault fault) {
    if (plan_.fault != fault) return false;
    if (fired_) return false;
    if (plan_.shared_budget != nullptr && plan_.shared_budget->load() <= 0) {
      return false;
    }
    if (clean_count_++ < plan_.trigger_after) return false;
    if (plan_.shared_budget != nullptr) {
      if (plan_.shared_budget->fetch_sub(1) <= 0) return false;
    }
    fired_ = true;
    return true;
  }

  std::unique_ptr<shard::ShardChannel> inner_;
  const Plan plan_;
  int clean_count_ = 0;
  bool fired_ = false;
};

}  // namespace testing_util
}  // namespace aod

#endif  // AOD_TESTS_FLAKY_CHANNEL_H_
