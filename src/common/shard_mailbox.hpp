// Cross-shard message port for the channel-sharded engine (DESIGN.md §14).
//
// In sharded execution every memory channel owns its own EventQueue and the
// CPU hierarchy owns another; events may only be *scheduled* on the queue
// they will run on. Work that crosses a channel boundary — an LLC miss
// entering a channel, a read completion returning to the CPU side — is
// therefore expressed as a message posted through this interface instead of
// a direct scheduleAt on a foreign queue. The engine buffers messages until
// the window whose span covers their due tick and only then materializes
// them on the destination queue via scheduleStamped, under the EventStamp
// minted at post time — so the merge position of a message is fixed by its
// sender, not by delivery timing, and the execution order is independent of
// the shard count and of worker scheduling.
//
// It is the controllers' one way out of their channel; ShardDifferentialGrid
// and the golden reports at --shards 2 and nChannels hold its order.
#pragma once

#include <cstdint>

#include "common/event_queue.hpp"
#include "common/inline_function.hpp"
#include "common/types.hpp"

namespace mb {

class ShardMailbox {
 public:
  virtual ~ShardMailbox() = default;

  /// Channel → CPU: deliver a read's data to the requester at `due`. `st`
  /// was minted by the *channel* queue (EventQueue::issueStamp) and orders
  /// the delivery among all CPU-side events. `cb` is the request's original
  /// completion callback; the engine invokes it as cb(due) on the CPU queue.
  virtual void postCompletion(ChannelId fromChannel, Tick due,
                              const EventStamp& st,
                              InlineFunction<void(Tick)> cb) = 0;

  /// CPU → channel: admit an LLC miss into `toChannel` at `due`. `st` was
  /// minted by the CPU queue; the payload is plain data so the engine can
  /// buffer and serialize it (checkpoints can land between post and
  /// delivery).
  virtual void postEnqueue(ChannelId toChannel, Tick due, const EventStamp& st,
                           std::uint64_t lineAddr, CoreId core,
                           bool isWrite) = 0;
};

}  // namespace mb
