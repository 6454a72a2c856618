//! # eslurm-simclock
//!
//! The deterministic discrete-event simulation (DES) core used by every
//! other crate in the ESlurm reproduction: a virtual clock ([`SimTime`] /
//! [`SimSpan`]), one total-ordered event queue ([`KeyedQueue`]), and seeded
//! random streams ([`rng`]).
//!
//! Determinism contract: given the same master seed and configuration, every
//! simulation built on this crate produces identical output, because
//! (a) every event carries a unique [`EventKey`] `(time, lane, seq)` that
//! breaks ties on virtual time, and (b) each stochastic component owns an
//! independent derived RNG stream.
//!
//! The sharded DES keys node-created events by their creator so the order
//! is shard-count-invariant; a single-queue driver (the backfill
//! scheduler) stamps every event with [`EventKey::system`] and one running
//! sequence number, which pops them by `(time, push order)`. See [`keyed`].

pub mod keyed;
pub mod rng;
pub mod time;

pub use keyed::{EventKey, KeyedQueue, SYSTEM_LANE};
pub use time::{SimSpan, SimTime};
