//! Finite state machine substrate for the GSpecPal reproduction.
//!
//! This crate provides everything the paper's framework consumes from "an FSM
//! library": dense-table [`Dfa`]s, Thompson-style [`Nfa`]s, subset-construction
//! determinization, partition-refinement minimization, byte-class alphabet
//! compression, offline profiling (state frequencies and the convergence
//! metric used by the scheme selector), the frequency-based DFA
//! transformation of §IV-B, and the FSM combinators used to build the synthetic workload suite.
//!
//! The FSM model follows the paper's §II-A: a tuple `(Q, Σ, q0, δ, F)` where
//! `δ` is a total transition function stored as a dense table. All machines
//! here consume raw bytes; an embedded [`ByteClasses`] map compresses the
//! 256-symbol alphabet down to its equivalence classes so the table stride is
//! only as wide as the machine can actually distinguish.

#![warn(missing_docs)]

pub mod classes;
pub mod combinators;
pub mod dfa;
pub mod equivalence;
pub mod examples;
pub mod minimize;
pub mod nfa;
pub mod profile;
pub mod random;
pub mod render;
pub mod subset;
pub mod transform;

pub use classes::ByteClasses;
pub use dfa::{Dfa, DfaBuilder, StateId};
pub use nfa::{Nfa, NfaBuilder};
pub use profile::{ConvergenceProfile, FrequencyProfile};
pub use transform::TransformedDfa;

/// Errors produced while constructing or transforming machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsmError {
    /// A transition referenced a state id that does not exist.
    InvalidState {
        /// The offending state id.
        state: StateId,
        /// How many states the machine actually has.
        n_states: u32,
    },
    /// A transition referenced a symbol class outside the alphabet.
    InvalidClass {
        /// The offending class id.
        class: u16,
        /// How many classes the alphabet actually has.
        n_classes: u16,
    },
    /// The machine has no states.
    Empty,
    /// Determinization exceeded the configured state budget.
    TooManyStates {
        /// The state budget that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for FsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsmError::InvalidState { state, n_states } => {
                write!(f, "invalid state id {state} (machine has {n_states} states)")
            }
            FsmError::InvalidClass { class, n_classes } => {
                write!(f, "invalid symbol class {class} (alphabet has {n_classes} classes)")
            }
            FsmError::Empty => write!(f, "machine has no states"),
            FsmError::TooManyStates { limit } => {
                write!(f, "determinization exceeded the state budget of {limit}")
            }
        }
    }
}

impl std::error::Error for FsmError {}
