//! # exa-tune — cost-model-guided autotuner for the performance knobs
//!
//! The paper's readiness arc is dominated by per-hardware re-tuning:
//! block sizes, launch parameters and pipeline depths were re-searched
//! for every device generation (Ginkgo's HIP port and CRK-HACC's SYCL
//! port both report work-group re-tuning as a central porting cost).
//! This crate is that search, reproduced for the simulator's own knobs —
//! the two performance settings whose best value actually differs
//! between configurations:
//!
//! | knob key        | frozen | consumer                          |
//! |-----------------|--------|-----------------------------------|
//! | `fft.gather`    | 0      | executed FFT repartition strategy |
//! | `fft.overlap_k` | 4      | `DistFft3d` pipeline depth        |
//!
//! Every other performance setting is a plain constant next to its
//! consumer (GEMM blocking, fusion fan-in, map block clamp, scheduler
//! task chunks), or is worked out by the code itself (`auto_shards`
//! sizes the serve cache from the thread count, and the executed FFT
//! hands each rank's whole part to `fft_batch` in one call).
//!
//! The tuner pipeline is **enumerate → cost-prune → executed-confirm →
//! persist** (DESIGN.md §14):
//!
//! 1. *enumerate* the candidate values per (app, machine) pair;
//! 2. *cost-prune* with a deterministic cost model (virtual time from the
//!    machine model, or a counted host-operation model);
//! 3. *confirm* survivors with short executed micro-runs — median-of-N
//!    wall clock is recorded, but the **winner is selected only by the
//!    deterministic metric**, so the same seed yields a byte-identical
//!    [`TunedTable`] at any `EXA_THREADS`;
//! 4. *persist* winners to `TUNED.json`, which consumers read at
//!    construction time — env-overridable per knob
//!    (`EXA_TUNE_FFT_GATHER=1`), falling back to the frozen constants
//!    when absent.
//!
//! Bad configuration fails loudly: a malformed `TUNED.json`, an
//! `EXA_TUNED` path that does not exist and an unparsable `EXA_TUNE_*`
//! value all panic with a message naming the file or the variable. Only
//! a missing `./TUNED.json` means the frozen constants.
//!
//! Every tuned code path is bit-identical to its frozen twin on all
//! physics outputs — the knobs only reorder *independent* work (gather
//! order) or reshape the costed pipeline, never a floating-point
//! reduction.

mod table;
mod tuner;

pub use table::{knob, knob_i64, tuned, TunedTable, TUNED_FILE};
pub use tuner::{ConfirmOutcome, KnobReport, KnobSpec, Probe, TuneReport, Tuner};
