//! Synthetic multiprogrammed workload generation.
//!
//! The generator substitutes for the paper's unavailable ATUM VAX traces.
//! It reproduces the stream *properties* the evaluation depends on:
//!
//! * per-CPU multiprogramming with a context-switch schedule (Table 5's
//!   switch counts; frequent for *abaqus*, rare for *thor*/*pops*),
//! * instruction streams with sequential fetch, loops and Zipf-popular
//!   procedure calls,
//! * procedure-call *write bursts* — each call saves 6–16 registers with
//!   consecutive stack writes (the phenomenon behind Tables 1–3),
//! * stack / global / heap data references with tunable temporal and
//!   spatial locality, plus a slowly drifting heap working set so the
//!   second-level cache sees capacity misses,
//! * a shared read-write segment touched by every CPU (coherence traffic),
//!   reachable through *two* virtual aliases per process and mapped at
//!   *different* virtual addresses in different processes — both intra- and
//!   cross-address-space synonyms,
//! * exact reference-mix calibration: deterministic credit controllers hold
//!   the instruction/data and read/write mixes to the configured targets.
//!
//! Everything is driven by seeded [`rand::rngs::StdRng`] streams: the same
//! [`WorkloadConfig`] always yields the identical trace.

mod engine;
mod generator;
mod zipf;

pub use engine::{CallBurstWeights, ProcessEngine, ProcessLayout};
pub use generator::{
    generate, generate_with_report, try_generate, try_generate_with_report, GenerationReport,
};
pub use zipf::Zipf;

use core::fmt;

use serde::{Deserialize, Serialize};
use vrcache_mem::page::PageSize;

/// Errors from validating synthesis parameters.
///
/// Returned by the fallible constructors ([`Zipf::new`],
/// [`CallBurstWeights::new`], [`ProcessEngine::new`]) and generation
/// entry points ([`try_generate`], [`try_generate_with_report`],
/// [`WorkloadConfig::try_scaled`]); the panicking convenience wrappers
/// ([`generate`], [`WorkloadConfig::scaled`]) surface the same
/// conditions as documented panics.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SynthConfigError {
    /// A Zipf sampler was asked for zero items.
    ZipfNoItems,
    /// A Zipf exponent was negative or non-finite.
    ZipfBadTheta(f64),
    /// The writes-per-call distribution was empty or all-zero-weight.
    EmptyBurstWeights,
    /// `cpus` was zero.
    ZeroCpus,
    /// `processes_per_cpu` was zero.
    ZeroProcesses,
    /// `cpus × processes_per_cpu` (the value carried) exceeds 65535, the
    /// number of nonzero ASIDs: ASID 0 is the kernel's.
    TooManyProcesses(u32),
    /// `total_refs` was zero.
    ZeroRefs,
    /// `p_shared > 0` but `shared_pages == 0`.
    SharedPagesZero,
    /// A volume scale factor was not finite and positive.
    BadScaleFactor(f64),
}

impl fmt::Display for SynthConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthConfigError::ZipfNoItems => write!(f, "zipf needs at least one item"),
            SynthConfigError::ZipfBadTheta(t) => {
                write!(f, "zipf theta must be finite and >= 0, got {t}")
            }
            SynthConfigError::EmptyBurstWeights => {
                write!(f, "call burst weights must not all be zero")
            }
            SynthConfigError::ZeroCpus => write!(f, "need at least one cpu"),
            SynthConfigError::ZeroProcesses => write!(f, "need at least one process per cpu"),
            SynthConfigError::TooManyProcesses(n) => write!(
                f,
                "cpus x processes_per_cpu = {n} exceeds the 65535 nonzero ASIDs"
            ),
            SynthConfigError::ZeroRefs => write!(f, "need at least one reference"),
            SynthConfigError::SharedPagesZero => {
                write!(f, "shared accesses configured but shared_pages is zero")
            }
            SynthConfigError::BadScaleFactor(x) => {
                write!(f, "scale factor must be positive, got {x}")
            }
        }
    }
}

impl std::error::Error for SynthConfigError {}

/// Full parameterization of a synthetic workload.
///
/// # Example
///
/// ```
/// use vrcache_trace::synth::{generate, WorkloadConfig};
///
/// let mut cfg = WorkloadConfig::default();
/// cfg.cpus = 2;
/// cfg.total_refs = 10_000;
/// let trace = generate(&cfg);
/// assert_eq!(trace.summary().total_refs, 10_000);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Trace name used in reports.
    pub name: String,
    /// Number of processors.
    pub cpus: u16,
    /// Processes multiprogrammed on each processor.
    pub processes_per_cpu: u16,
    /// Total memory references to emit across all CPUs.
    pub total_refs: u64,
    /// Total context switches to schedule across all CPUs.
    pub context_switches: u64,
    /// RNG seed; equal seeds yield identical traces.
    pub seed: u64,
    /// Page size used for translations.
    pub page_size: PageSize,

    // ---- reference mix (Table 5 calibration) ----
    /// Expected data references per instruction fetch.
    pub data_per_instr: f64,
    /// Fraction of data references that are writes.
    pub write_frac: f64,

    // ---- instruction stream ----
    /// Functions per process.
    pub code_funcs: u32,
    /// Bytes per function.
    pub func_bytes: u64,
    /// Probability per instruction of a procedure call.
    pub p_call: f64,
    /// Probability per instruction of a short backward loop branch.
    pub p_loop: f64,
    /// Maximum backward loop distance, in instructions.
    pub loop_len_max: u32,
    /// Zipf exponent for callee popularity.
    pub func_zipf_s: f64,

    // ---- data stream ----
    /// Number of hot global words (Zipf-accessed).
    pub hot_words: u32,
    /// Zipf exponent for the hot global set.
    pub hot_zipf_s: f64,
    /// Heap region size in pages.
    pub heap_pages: u32,
    /// Heap working-set window size in pages.
    pub working_set_pages: u32,
    /// Heap data references between one-page window drifts.
    pub drift_period: u64,
    /// Probability that a heap reference stays near the previous one (the
    /// hot-pointer / array-walk locality of real programs); the remainder
    /// jump uniformly within the working-set window.
    pub heap_repeat: f64,
    /// Probability that a data reference targets the stack region.
    pub p_stack: f64,
    /// Probability that a data reference targets the hot global set
    /// (remainder after stack/shared goes to the heap window).
    pub p_global: f64,

    // ---- sharing & synonyms ----
    /// Probability that a data reference targets the shared segment.
    pub p_shared: f64,
    /// Shared segment size in pages.
    pub shared_pages: u32,
    /// Zipf exponent over shared words.
    pub shared_zipf_s: f64,
    /// Probability that a shared access goes through the secondary
    /// (synonym) alias instead of the primary mapping.
    pub p_synonym_alias: f64,
    /// Writes-per-procedure-call distribution as `(writes, weight)` pairs;
    /// `None` uses the paper's Table 1 shape.
    pub call_burst_weights: Option<Vec<(u32, u64)>>,
}

impl Default for WorkloadConfig {
    /// A moderate 4-CPU workload; presets override the calibrated fields.
    fn default() -> Self {
        WorkloadConfig {
            name: "default".to_string(),
            cpus: 4,
            processes_per_cpu: 2,
            total_refs: 100_000,
            context_switches: 0,
            seed: 0xC0FFEE,
            page_size: PageSize::SIZE_4K,
            data_per_instr: 1.0,
            write_frac: 0.2,
            code_funcs: 96,
            func_bytes: 8 * 1024,
            p_call: 0.006,
            p_loop: 0.12,
            loop_len_max: 24,
            func_zipf_s: 0.85,
            hot_words: 2048,
            hot_zipf_s: 0.9,
            heap_pages: 512,
            working_set_pages: 24,
            drift_period: 2_000,
            heap_repeat: 0.85,
            p_stack: 0.30,
            p_global: 0.38,
            p_shared: 0.04,
            shared_pages: 16,
            shared_zipf_s: 0.7,
            p_synonym_alias: 0.10,
            call_burst_weights: None,
        }
    }
}

impl WorkloadConfig {
    /// Scales the trace volume (references and context switches) by
    /// `factor`, keeping the mix and locality parameters fixed. Useful for
    /// fast tests (`factor < 1`).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive; see
    /// [`try_scaled`](Self::try_scaled) for the fallible form.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        self.try_scaled(factor).expect("valid scale factor")
    }

    /// Fallible form of [`scaled`](Self::scaled).
    ///
    /// # Errors
    ///
    /// Returns [`SynthConfigError::BadScaleFactor`] if `factor` is not
    /// finite and positive.
    pub fn try_scaled(mut self, factor: f64) -> Result<Self, SynthConfigError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(SynthConfigError::BadScaleFactor(factor));
        }
        self.total_refs = ((self.total_refs as f64 * factor).round() as u64).max(1);
        self.context_switches = (self.context_switches as f64 * factor).round() as u64;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = WorkloadConfig::default();
        assert!(c.cpus > 0);
        assert!(c.write_frac > 0.0 && c.write_frac < 1.0);
        assert!(c.p_stack + c.p_global + c.p_shared < 1.0);
    }

    #[test]
    fn scaling_shrinks_volume() {
        let c = WorkloadConfig {
            total_refs: 1000,
            context_switches: 100,
            ..WorkloadConfig::default()
        }
        .scaled(0.1);
        assert_eq!(c.total_refs, 100);
        assert_eq!(c.context_switches, 10);
    }

    #[test]
    fn scaling_never_reaches_zero_refs() {
        let c = WorkloadConfig {
            total_refs: 10,
            ..WorkloadConfig::default()
        }
        .scaled(0.001);
        assert_eq!(c.total_refs, 1);
    }

    #[test]
    fn bad_scale_factors_are_typed_errors() {
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                WorkloadConfig::default().try_scaled(bad),
                Err(SynthConfigError::BadScaleFactor(_))
            ));
        }
    }

    #[test]
    fn error_display_names_the_field() {
        assert!(SynthConfigError::ZeroCpus.to_string().contains("cpu"));
        assert!(SynthConfigError::BadScaleFactor(-2.0)
            .to_string()
            .contains("-2"));
        assert!(SynthConfigError::ZipfBadTheta(f64::NAN)
            .to_string()
            .contains("theta"));
    }
}
