//! Diagnosis: causal evidence, suspect-cone algebra, shared test
//! logic, and per-error attribution.
//!
//! The paper's debug loop (§3.1) is one evidence-accumulation process
//! — detect, localize, confirm, correct — regardless of how many
//! errors are live. This module is structured around that fact:
//!
//! * [`evidence`] — **the shared causal-evidence layer**.
//!   [`EvidenceBase`] owns the (net, window)-keyed verdict cache
//!   (divergence-onset bounds per net), the per-output alibi tables
//!   of the detection sweep, causal-[`ObservationWindow`] computation,
//!   and screening exonerations, behind a narrow query API
//!   (`clean_through` / `diverged_by` / `verdict` / `prune_cone` /
//!   `order_suspects`). Both the serial single-error path
//!   ([`crate::session::DebugSession::run`]) and the concurrent
//!   scheduler read and write the same layer, so serial localization
//!   gets causal windows, alibi pruning and free PO-onset seeding —
//!   no pruning or window logic exists anywhere else;
//! * [`cone`] — [`SuspectCone`], a normalized bitset algebra
//!   (union / intersect / subtract, fanin-cone construction) over the
//!   netlist DAG; the vocabulary everything else is written in;
//! * [`partition`] — [`ConePartition`] splits `k` overlapping cones
//!   into disjoint per-error *exclusive* regions plus a *shared
//!   core*, classifying where observations are unambiguous;
//! * [`attribution`] — [`ResponseSignature`]s (which patterns each
//!   output fails on) cluster failing outputs into per-error
//!   footprints ([`cluster_failures`]), each carrying a
//!   `[0, first_fail]` observation window; [`FaultAttribution`]
//!   fault-simulates candidate sites under a complement error model
//!   to assign blame when cones intersect;
//! * [`scheduler`] — [`MultiErrorScheduler`], a thin orchestrator
//!   over the evidence base: one
//!   [`crate::strategy::LocalizationStrategy`] per error, all tap
//!   requests merged into deduplicated physical batches, every
//!   request first checked against the evidence (cache-served rounds
//!   cost zero physical ECOs), and the shared core *screened* first —
//!   one tap batch on only its frontier records windowed,
//!   latency-aware exonerations for the whole core.
//!   [`merge_fsm_clusters`] folds the several clusters one FSM error
//!   fans out into back into a single track, a decision *deferred*
//!   until the discriminating screening evidence (the dominating
//!   state register's own onset, see [`fsm_merge_witnesses`]) is in
//!   the evidence base.
//!
//! The session-level entry points are
//! [`crate::session::DebugSession::run`] (one error, same evidence
//! layer) and [`crate::session::DebugSession::run_concurrent`]
//! (planted errors); [`crate::session::DebugSession::run_campaign`]
//! plants random distinct errors and routes through the same
//! scheduler whenever it is asked for more than one.
//!
//! # Protocol assumptions
//!
//! Failing outputs are clustered by *(response signature, fanin
//! cone)*: one cluster per distinguishable error footprint. Each
//! cluster is localized under a single-error-per-cluster assumption —
//! when two errors hide in one cluster's cone (e.g. a single-output
//! design), localization converges on the temporally dominant one
//! and the remainder is caught by the corrective re-emulation, as in
//! the sequential protocol. Divergences in a shared core are credited
//! conservatively to every requesting cluster; the
//! [`FaultAttribution`] engine scores which cluster's candidates best
//! explain them and the session reports the verdicts as
//! [`crate::session::DebugEvent::Attribution`] events.

pub mod attribution;
pub mod cone;
pub mod evidence;
pub mod partition;
pub mod scheduler;

pub use attribution::{
    cluster_failures, collect_responses, FailureCluster, FaultAttribution, ResponseMatrix,
    ResponseSignature,
};
pub use cone::SuspectCone;
pub use evidence::{EvidenceBase, EvidenceStats, ObservationWindow};
pub use partition::{ConePartition, Ownership};
pub use scheduler::{
    fsm_merge_witnesses, merge_fsm_clusters, Ambiguity, MultiErrorScheduler, RoundPlan,
};
