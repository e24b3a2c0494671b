//! Discrete-event simulation engine for the WiFi queueing testbed.
//!
//! This crate provides the three primitives every other crate builds on:
//!
//! - [`time::Nanos`] — integer-nanosecond virtual time,
//! - [`event::EventQueue`] — a deterministic, cancellable event queue,
//! - [`rng::SimRng`] — seeded randomness with workload-oriented helpers.
//!
//! The engine is deliberately unopinionated about *what* is being simulated:
//! the 802.11 world model lives in `wifiq-mac`, which owns an
//! `EventQueue<Event>` and dispatches on a domain event enum. Keeping the
//! engine this small makes its correctness obvious, which matters because a
//! subtly non-deterministic queue would invalidate every experiment result
//! built on top of it.

pub mod event;
pub mod rng;
pub mod time;

pub use event::{EventId, EventQueue};
pub use rng::SimRng;
pub use time::Nanos;
