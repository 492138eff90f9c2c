//! `troll-serve`: one process hosting many independent TROLL worlds.
//!
//! A hand-rolled non-blocking TCP server (epoll on Linux, no external
//! dependencies — see [`poll`]) speaking a newline-delimited JSON
//! protocol ([`proto`]): `open`, `submit-event`, `query-attr`,
//! `query-view`, `stats`, `metrics`, `shutdown`. A registry maps world ids to
//! engines; submissions multiplex onto a worker pool that runs each
//! world's requests in arrival order on one worker at a time
//! ([`server`]): script lines step the world through
//! [`troll_runtime::script::run_command`], queries read it through
//! [`troll_runtime::script::query`]. With `--durable`, every
//! world gets its own [`troll_store`] directory (WAL + snapshots) and
//! recovers on reopen. A log-shipping follower hosts its replayed
//! worlds in the same registry and answers through the same loop in a
//! read-only role ([`Replica`]).
//!
//! The response `text` for a script line is byte-for-byte what
//! `troll animate` prints for the same line — the server is
//! observationally a remote animator, times N worlds.
//!
//! [`selftest`] is a zero-dependency load driver used by
//! `troll serve --selftest` and CI.

#![deny(unsafe_code)] // except the epoll syscall shims in `poll`
#![warn(missing_docs)]

pub mod json;
pub mod poll;
pub mod proto;
pub mod selftest;
pub mod server;

pub use proto::{Request, Response, MAX_LINE};
pub use selftest::{run_load, LoadConfig, LoadReport};
pub use server::{ReplCounters, Replica, ServeOptions, ServeSummary, Server, SpawnedServer};
