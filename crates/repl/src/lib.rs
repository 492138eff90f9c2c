//! # troll-repl — log-shipping replication for durable worlds
//!
//! The paper's object bases are deterministic trace machines: a world
//! *is* its committed occurrence log, and replaying that log through
//! the engine is the semantics, not an approximation of it. That makes
//! replication almost free — the `spec.troll` + WAL pair a primary
//! already writes is a complete, shippable description of a running
//! world, and a follower that re-appends the same canonical-codec
//! records builds a **byte-identical** log of its own.
//!
//! The pieces:
//!
//! * a **primary** is any `troll serve --durable` server — it answers
//!   `repl-spec` / `repl-worlds` / `repl-poll` on the same newline-JSON
//!   protocol clients use, shipping hex-encoded raw WAL frames (only
//!   *durable* records: nothing a crash could still take back) and,
//!   when the asked-for history was pruned by compaction, the newest
//!   snapshot for catch-up;
//! * a **follower** ([`run_follow`], the `troll follow` command) tails
//!   every world and replays each record into a
//!   [`troll_serve::Replica`]: `troll-serve`'s own world registry in a
//!   read-only role. Its worlds are durable served worlds, so each
//!   replayed step is recorded through the follower's own
//!   [`troll_store::Store`] exactly as a served write is (same codec →
//!   same bytes);
//! * with a listen address, the follower answers on the **same serve
//!   readiness loop** as a primary, in the read-only role: `open` and
//!   `submit-event` are refused, while `query-attr` / `query-view`,
//!   `stats`, `repl-spec`, `repl-worlds` and `repl-poll` are served —
//!   so a follower can itself be tailed (a cascading follower);
//! * **promotion** is a no-op by construction: the follower directory
//!   is a valid `--durable` root, so when the primary dies, pointing
//!   `troll serve --durable <dir>` (or `troll recover`) at it resumes
//!   from every record the primary ever acknowledged *to the
//!   follower's knowledge* — the follower can lag the primary's tail,
//!   but never holds a wrong or torn prefix.
//!
//! Observability lands in the replica's serve registry: `repl.polls`,
//! `repl.records_applied`, `repl.snapshots_installed`, `repl.worlds`
//! beside the `serve.*` counters; the global `stats` reply carries
//! `records_applied=`, `snapshots_installed=` and `polls=`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod follower;

pub use follower::{run_follow, FollowError, FollowOptions, FollowSummary};
