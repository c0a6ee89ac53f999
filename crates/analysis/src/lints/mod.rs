//! The individual lint passes.

pub mod address;
pub mod determinism;
pub mod doc_drift;
pub mod faults;
pub mod hotpath;
pub mod injection;
pub mod mutation;
pub mod panic_hygiene;
pub mod protocol;
mod transitions;
