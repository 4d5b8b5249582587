// Channel-ownership and determinism annotations, read by `mbstatic det`.
//
// The channel-sharded engine (DESIGN.md §14) gives every memory channel
// its own event queue and advances channels in bounded time windows.
// That is only safe if the components a channel owns are *channel-local*
// (no shared mutable state with other channels) and *deterministic* (no
// hash-order, pointer-value, clock or hidden-global dependence). These
// macros mark that contract in the source so `mbstatic det` verifies it
// mechanically — they all expand to nothing and never change generated
// code; the analysis recognizes them lexically, in code or in comments.
//
//   class MB_CHANNEL_LOCAL MemoryController { ... };
//     The type is owned by exactly one channel shard. Its state may only be
//     touched from that channel's execution context, and it may not
//     reference an MB_CROSS_CHANNEL type except through a declared
//     interface (below). `mbstatic det` reports MB-DET-006 for undeclared
//     references, scanning both the class body and out-of-class member
//     definitions (Type::method).
//
//   class MB_CROSS_CHANNEL EventQueue { ... };
//     The type is shared across channel shards (the global event queue,
//     the CPU hierarchy above the LLC miss stream, run-wide sinks). The
//     sharded engine either buffers channel-local access to it (the shard
//     mailbox) or keeps that access on a single thread.
//
//   MB_CHANNEL_IFACE(EventQueue)
//     Placed inside a channel-local type (or in its implementation file):
//     declares that this type intentionally references the named
//     cross-channel type. Declared interfaces form the machine-checked
//     ownership map (`mbstatic det --ownership --json`): the seams the
//     sharded engine buffers or keeps on one thread.
//
//   MB_DET_ALLOW(MB-DET-0xx, "reason")
//     Suppresses a determinism finding on the same or the next source line.
//     The reason is mandatory (an empty/missing reason is itself reported,
//     MB-DET-007) and every suppression is listed in the analysis output,
//     so intentional exceptions stay auditable.
//
//   MB_DET_ALLOW_FILE(MB-DET-0xx, "reason")
//     File-scoped variant for sanctioned files (e.g. a wall-clock-timing
//     harness) where per-line suppressions would drown the code.
//
// Snapshot-completeness annotations, read by `mbstatic snap` (same no-op,
// lexically-recognized contract; registry: DESIGN.md §"Snapshot
// completeness analysis"):
//
//   MB_SNAP_TRANSIENT(member_, "reason")
//     Placed in a class that has a save(Writer&)/load(Reader&) pair:
//     declares that the named data member is intentionally NOT serialized —
//     it is scratch state, a cache rebuilt on load, or derived from
//     serialized members. The reason is mandatory (MB-SNP-007 otherwise);
//     an annotation naming a member that IS written by save() is reported
//     as unused (MB-SNP-008) so stale declarations cannot linger.
//
//   MB_SNAP_ALLOW(MB-SNP-0xx, "reason")
//     Suppresses a snapshot finding on the same or the next source line,
//     reason mandatory, every use listed in the analysis output.
//
//   MB_SNAP_ALLOW_FILE(MB-SNP-0xx, "reason")
//     File-scoped variant.
#pragma once

#define MB_CHANNEL_LOCAL
#define MB_CROSS_CHANNEL
#define MB_CHANNEL_IFACE(Type)
#define MB_DET_ALLOW(code, reason)
#define MB_DET_ALLOW_FILE(code, reason)
#define MB_SNAP_TRANSIENT(member, reason)
#define MB_SNAP_ALLOW(code, reason)
#define MB_SNAP_ALLOW_FILE(code, reason)
