// Event re-materialization for checkpoint restore.
//
// The EventQueue holds closures, which cannot travel through a snapshot.
// Instead, every component that keeps events in flight reifies them as
// plain state (tick, payload, and the EventStamp the live queue assigned),
// and after all sections are loaded each component's reschedule() re-arms
// them via EventQueue::scheduleStamped under their original stamps: the
// stamp *is* the merge position, so the order components re-arm in is
// irrelevant for event ordering. Bitwise restore-equivalence tests pin the
// result.
#pragma once

#include "ckpt/serialize.hpp"
#include "common/event_queue.hpp"

namespace mb::ckpt {

/// Stamp serialization shared by every component that reifies pending
/// events (fixed 40-byte little-endian layout; part of MBCKPT1 v2).
inline void saveStamp(Writer& w, const EventStamp& st) {
  w.i64(st.schedTick);
  w.i32(st.srcShard);
  w.u64(st.counter);
  w.i64(st.parentSchedTick);
  w.i32(st.parentShard);
  w.u64(st.parentCounter);
}

inline EventStamp loadStamp(Reader& r) {
  EventStamp st;
  st.schedTick = r.i64();
  st.srcShard = r.i32();
  st.counter = r.u64();
  st.parentSchedTick = r.i64();
  st.parentShard = r.i32();
  st.parentCounter = r.u64();
  return st;
}

}  // namespace mb::ckpt
