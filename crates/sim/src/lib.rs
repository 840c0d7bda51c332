//! Deterministic discrete-event simulation kernel.
//!
//! The paper evaluates TerraDir "in a TerraDir simulated environment"
//! (§4.1); this crate is that substrate, rebuilt as a small, reusable DES
//! kernel:
//!
//! - [`Calendar`]: the pending-event set — a binary heap ordered by
//!   `(time, sequence)` so same-time events fire in schedule order, which
//!   makes every run bit-reproducible ([`calendar`]).
//! - [`Engine`]: the clock plus scheduling API ([`engine`]).
//! - [`series`]: a fixed-width time-binned event counter for the per-second
//!   curves in Figs. 3, 4 and 8, with a rolling-window smoother for Fig. 6's
//!   "max load averaged over 11 s" view.
//! - [`histogram`]: a fixed-bucket histogram with quantiles for latency
//!   reporting.
//!
//! The kernel is payload-generic: the protocol crate instantiates
//! `Engine<Event>` with its own event enum and runs its own dispatch loop
//! (`while let Some(ev) = engine.pop() { … }`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calendar;
pub mod engine;
pub mod histogram;
pub mod series;

pub use calendar::Calendar;
pub use engine::Engine;
pub use histogram::Histogram;
pub use series::{rolling_mean, BinnedCounter};
