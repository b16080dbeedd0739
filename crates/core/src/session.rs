//! Session-oriented debugging: one object that drives detect →
//! localize → confirm → correct through a pluggable physical flow and
//! localization strategy (paper §3.1 steps 9–22).
//!
//! [`DebugSession`] drives the whole iteration:
//!
//! * three entry points: [`DebugSession::run`] debugs one planted
//!   error (serial localization), [`DebugSession::run_concurrent`]
//!   several at once (the multi-error scheduler), and
//!   [`DebugSession::run_campaign`] plants one random error per seed
//!   and hands them to one of the two;
//! * detection, §4.1 confirmation and correction are one method each,
//!   shared by both paths, and every phase region goes through one
//!   helper that emits its span and per-phase counters;
//! * the physical re-implementation behind every ECO is a
//!   [`ReimplFlow`], so the same campaign can be priced through the
//!   tiled flow or any Figure 5 baseline;
//! * localization is a [`LocalizationStrategy`], so linear batching
//!   and binary-search bisection are interchangeable;
//! * all causal knowledge — tap onsets, windows, alibi pruning,
//!   screening exonerations — lives in one
//!   [`crate::diagnosis::evidence::EvidenceBase`] shared by the
//!   serial and concurrent paths, fed by a single observation entry
//!   point ([`sim::emulate::net_first_divergences`]);
//! * progress is emitted as a typed [`DebugEvent`] stream;
//! * effort is recorded per phase in an [`EffortLedger`] that
//!   [`crate::report::DebugReport`] and the bench bins consume;
//! * the simulation, placement and routing work every sweep and ECO
//!   returns is summed per session and emitted once into the attached
//!   metrics registry, so concurrent sessions never see each other's
//!   work.

use std::collections::HashMap;

use netlist::{CellId, NetId, Netlist};
use obs::{MetricsRegistry, Tracer, TrackId};
use place::PlaceEngine;
use sim::emulate::Mismatch;
use sim::inject::InjectedError;
use sim::patterns::PatternGen;
use sim::testlogic::{insert_control_point, insert_observation_tap};
use sim::{GoldenTrace, SimWork};

use crate::diagnosis::attribution::po_pairs;
use crate::diagnosis::scheduler::Ambiguity;
use crate::diagnosis::{
    cluster_failures, collect_responses, fsm_merge_witnesses, merge_fsm_clusters, EvidenceBase,
    FailureCluster, FaultAttribution, MultiErrorScheduler, ResponseMatrix, ResponseSignature,
    SuspectCone,
};
use crate::eco_flow::EcoPhysicalOutcome;
use crate::effort::{CadEffort, EffortLedger, Phase};
use crate::error::TilingError;
use crate::flow::TiledDesign;
use crate::flows::{ReimplFlow, TiledFlow};
use crate::strategy::{LinearBatches, LocalizationStrategy};

/// How the session generates stimulus vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PatternSpec {
    /// Exhaustive for narrow designs (≤ 10 inputs), 512 LFSR vectors
    /// otherwise — the paper-shaped default.
    #[default]
    Auto,
    /// All `2^width` vectors (panics above 24 inputs).
    Exhaustive,
    /// `count` LFSR vectors.
    Lfsr {
        /// Number of vectors.
        count: usize,
    },
    /// `count` uniform random vectors.
    Random {
        /// Number of vectors.
        count: usize,
    },
}

impl PatternSpec {
    /// Instantiates the generator for a netlist's input width.
    pub fn generate(self, nl: &Netlist, seed: u64) -> PatternGen {
        let width = nl.primary_inputs().len();
        match self {
            PatternSpec::Auto => {
                if width <= 10 {
                    PatternGen::exhaustive(width)
                } else {
                    PatternGen::lfsr(width, 512, seed)
                }
            }
            PatternSpec::Exhaustive => PatternGen::exhaustive(width),
            PatternSpec::Lfsr { count } => PatternGen::lfsr(width, count, seed),
            PatternSpec::Random { count } => PatternGen::random(width, count, seed),
        }
    }
}

/// Progress notifications emitted by [`DebugSession`].
#[derive(Debug, Clone)]
pub enum DebugEvent {
    /// A campaign planted (or was handed) an error to hunt.
    ErrorInjected {
        /// Iteration index within the campaign.
        iteration: usize,
        /// The buggy cell.
        cell: CellId,
    },
    /// Detection emulation found a primary-output divergence.
    Detected {
        /// Stimulus index that exposed the bug.
        pattern_index: usize,
        /// Name of the diverging output.
        output_name: String,
    },
    /// Detection emulation found no divergence (clean design).
    CleanDesign,
    /// The structural suspect cone was computed.
    SuspectsComputed {
        /// Raw structural suspects.
        structural: usize,
        /// Suspects surviving the DUT-liveness/LUT filter.
        candidates: usize,
    },
    /// One observation-tap ECO was performed.
    TapEco {
        /// Cells tapped by this ECO.
        cells: Vec<CellId>,
        /// Physical effort of the ECO.
        effort: CadEffort,
    },
    /// Re-emulation verdicts for the last tap ECO.
    Observed {
        /// Tapped cells whose nets diverged.
        diverging: Vec<CellId>,
    },
    /// Localization converged (or gave up).
    Localized {
        /// The identified error site.
        cell: Option<CellId>,
    },
    /// The §4.1 control-point confirmation ran.
    Confirmed {
        /// The suspect that was force-overridden.
        cell: CellId,
        /// Whether forcing it to golden values fixed the outputs.
        confirmed: bool,
    },
    /// The corrective ECO was applied and checked.
    Corrected {
        /// Whether the DUT now matches the golden model.
        repaired: bool,
    },
    /// Multi-error diagnosis partitioned the overlapping suspect
    /// cones into ownership regions (see [`crate::diagnosis`]).
    ConeSplit {
        /// Number of concurrent error clusters.
        clusters: usize,
        /// Suspects owned exclusively by each cluster.
        exclusive: Vec<usize>,
        /// Suspects implicated by two or more clusters.
        shared: usize,
    },
    /// Fault-simulation attribution scored an ambiguous shared-core
    /// divergence against every implicated cluster's footprint.
    Attribution {
        /// The diverging tapped cell whose blame was ambiguous.
        cell: CellId,
        /// The cluster whose observed footprint best matches a fault
        /// simulated at the cell.
        cluster: usize,
        /// Jaccard match score in `[0, 1]`.
        score: f64,
    },
}

/// Result of one debugging iteration.
#[derive(Debug, Clone)]
pub struct DebugOutcome {
    /// The detected divergence (None if the DUT already matched).
    pub mismatch: Option<Mismatch>,
    /// Size of the initial structural suspect set.
    pub initial_suspects: usize,
    /// The cell the localization loop identified.
    pub localized: Option<CellId>,
    /// Observation taps inserted during localization.
    pub taps_inserted: usize,
    /// Whether the corrective ECO made the DUT match the golden model.
    pub repaired: bool,
    /// Total CAD effort across all ECOs of the iteration.
    pub effort: CadEffort,
    /// Tiles cleared across all ECOs (with multiplicity).
    pub tiles_cleared: usize,
    /// Physical ECOs performed (tap batches + confirmation + the
    /// correction). A non-tiled flow pays one full re-place-and-route
    /// per ECO.
    pub ecos: usize,
    /// Whether the localized cell was confirmed via a control point
    /// (forcing its output to golden values makes the DUT match).
    pub confirmed_by_control: bool,
    /// Per-phase effort breakdown (detect/localize/confirm/correct).
    pub ledger: EffortLedger,
    /// Name of the localization strategy that ran.
    pub strategy: &'static str,
    /// Name of the physical flow that ran.
    pub flow: &'static str,
}

impl DebugOutcome {
    /// An empty row: nothing detected, localized or spent yet.
    fn new(strategy: &'static str, flow: &'static str) -> Self {
        Self {
            mismatch: None,
            initial_suspects: 0,
            localized: None,
            taps_inserted: 0,
            repaired: false,
            effort: CadEffort::default(),
            tiles_cleared: 0,
            ecos: 0,
            confirmed_by_control: false,
            ledger: EffortLedger::default(),
            strategy,
            flow,
        }
    }

    /// Merges `ledger` into the row's ledger and re-derives the flat
    /// effort counters from the sum.
    fn absorb(&mut self, ledger: &EffortLedger) {
        self.ledger.merge(ledger);
        self.effort = self.ledger.total();
        self.tiles_cleared = self.ledger.total_tiles_cleared();
        self.ecos = self.ledger.total_ecos();
    }
}

/// Aggregate result of a multi-error campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignOutcome {
    /// Per-iteration outcomes, in order.
    pub iterations: Vec<DebugOutcome>,
    /// Merged per-phase ledger across all iterations.
    pub ledger: EffortLedger,
}

impl CampaignOutcome {
    /// Whether every iteration ended with a matching DUT.
    pub fn all_repaired(&self) -> bool {
        self.iterations.iter().all(|o| o.repaired)
    }

    /// Total CAD effort across the campaign.
    pub fn total_effort(&self) -> CadEffort {
        self.ledger.total()
    }
}

/// Result of one error cluster within a concurrent multi-error
/// diagnosis (see [`DebugSession::run_concurrent`]).
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Golden primary-output cells presenting this failure footprint.
    pub outputs: Vec<CellId>,
    /// The stimulus patterns those outputs fail on.
    pub signature: ResponseSignature,
    /// The cluster's observation window: every suspect prune and tap
    /// verdict for this cluster was evaluated over patterns
    /// `[0, window]`, its earliest observed failure.
    pub window: usize,
    /// Structural suspect-cone size (before the live-LUT filter).
    pub cone_size: usize,
    /// Candidate suspects surviving the live-LUT filter.
    pub candidates: usize,
    /// Suspects no other cluster's cone implicates (the cluster's
    /// exclusive ownership region).
    pub exclusive_size: usize,
    /// The localized error site, if the cluster's strategy converged.
    pub localized: Option<CellId>,
    /// Whether the §4.1 control point confirmed the site. The check
    /// compares only this cluster's outputs — other live errors keep
    /// the rest of the design diverging.
    pub confirmed_by_control: bool,
    /// Index into [`ConcurrentOutcome::planted`] of the error this
    /// cluster was matched to (exact localized-cell agreement first,
    /// then cone containment).
    pub matched_error: Option<usize>,
    /// Taps this cluster's strategy requested. Requests deduplicate
    /// across clusters before insertion, so the sum over clusters
    /// exceeds the campaign's physical tap count whenever cones
    /// overlap — that difference is the sharing win.
    pub taps_requested: usize,
    /// This cluster's share of the campaign effort: tap ECOs split
    /// proportionally to requested taps, the corrective ECO evenly.
    pub ledger: EffortLedger,
    /// Whether this cluster's outputs match golden after correction.
    pub repaired: bool,
}

/// Aggregate result of a concurrent multi-error diagnosis.
#[derive(Debug, Clone)]
pub struct ConcurrentOutcome {
    /// Per-cluster results, in failure-footprint discovery order.
    /// Empty when the sweep detected no divergence at all.
    pub clusters: Vec<ClusterOutcome>,
    /// Scheduler rounds executed (each round advances every live
    /// cluster through one shared set of tap batches).
    pub rounds: usize,
    /// Observation taps physically inserted (post-deduplication).
    pub taps_inserted: usize,
    /// Physical ECOs performed across all phases.
    pub ecos: usize,
    /// Suspects implicated by two or more clusters.
    pub shared_core_cells: usize,
    /// Global per-phase effort (phases sum to the campaign total; the
    /// per-cluster ledgers apportion exactly this).
    pub ledger: EffortLedger,
    /// Whether the whole DUT matches the golden model at the end.
    pub repaired: bool,
    /// The planted error sites, in the order
    /// [`ClusterOutcome::matched_error`] indexes them.
    pub planted: Vec<CellId>,
    /// Name of the localization strategy driving every cluster.
    pub strategy: &'static str,
    /// Name of the physical flow that ran.
    pub flow: &'static str,
}

impl ConcurrentOutcome {
    /// The localized error sites, in cluster order, omitting clusters
    /// that failed to converge.
    pub fn localized_cells(&self) -> Vec<CellId> {
        self.clusters.iter().filter_map(|c| c.localized).collect()
    }

    /// Total CAD effort across the campaign.
    pub fn total_effort(&self) -> CadEffort {
        self.ledger.total()
    }

    /// Taps requested across all clusters before deduplication.
    pub fn taps_requested(&self) -> usize {
        self.clusters.iter().map(|c| c.taps_requested).sum()
    }
}

/// Why a sweep may read the session's golden trace: every entry point
/// runs the pre-flight first.
const TRACED: &str = "the pre-flight builds the golden trace";

/// Boxed progress callback (see [`DebugSession::on_event`]). `Send`
/// so a whole configured session can cross to a fleet worker thread.
type EventCallback<'a> = Box<dyn FnMut(&DebugEvent) + Send + 'a>;

/// A configured debugging session over one tiled design.
///
/// Built with [`DebugSession::new`] plus the builder methods, then run
/// with [`run`](DebugSession::run) (one planted error),
/// [`run_concurrent`](DebugSession::run_concurrent) (several planted
/// errors at once) or [`run_campaign`](DebugSession::run_campaign)
/// (plants one random error per seed, then runs one of the two).
///
/// ```no_run
/// use sim::inject::random_error;
/// use synth::PaperDesign;
/// use tiling::flows::TiledFlow;
/// use tiling::session::DebugSession;
/// use tiling::strategy::BinarySearch;
/// use tiling::{implement, TilingOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let b = PaperDesign::NineSym.generate()?;
/// let mut td = implement(b.netlist, b.hierarchy, TilingOptions::default())?;
/// let golden = td.netlist.clone();
/// let error = random_error(&mut td.netlist, 7)?;
/// let outcome = DebugSession::new(&mut td, &golden)
///     .strategy(BinarySearch::new())
///     .flow(TiledFlow::default())
///     .seed(42)
///     .on_event(|e| eprintln!("{e:?}"))
///     .run(&error)?;
/// assert!(outcome.repaired);
/// println!("{}", outcome.ledger);
/// # Ok(())
/// # }
/// ```
pub struct DebugSession<'a> {
    td: &'a mut TiledDesign,
    golden: &'a Netlist,
    strategy: Box<dyn LocalizationStrategy + 'a>,
    flow: Box<dyn ReimplFlow + 'a>,
    patterns: PatternSpec,
    seed: u64,
    confirm_with_control: bool,
    on_event: Option<EventCallback<'a>>,
    metrics: Option<&'a MetricsRegistry>,
    trace: Option<(&'a Tracer, TrackId)>,
    /// The golden model's response to the session's stimulus, built
    /// once by the pre-flight; every sweep compares against it.
    golden_trace: Option<GoldenTrace>,
    /// Topological rank of every golden cell (the suspect-ordering
    /// tie-break), built by the pre-flight beside the trace.
    rank: HashMap<CellId, usize>,
    work: SessionWork,
}

impl<'a> DebugSession<'a> {
    /// A session with the paper-shaped defaults: [`LinearBatches`]
    /// localization through the [`TiledFlow`], auto patterns, seed 0,
    /// control-point confirmation on.
    pub fn new(td: &'a mut TiledDesign, golden: &'a Netlist) -> Self {
        Self {
            td,
            golden,
            strategy: Box::new(LinearBatches::default()),
            flow: Box::new(TiledFlow::default()),
            patterns: PatternSpec::Auto,
            seed: 0,
            confirm_with_control: true,
            on_event: None,
            metrics: None,
            trace: None,
            golden_trace: None,
            rank: HashMap::new(),
            work: SessionWork::default(),
        }
    }

    /// Swaps the localization strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: impl LocalizationStrategy + 'a) -> Self {
        self.strategy = Box::new(strategy);
        self
    }

    /// Swaps the physical re-implementation flow.
    #[must_use]
    pub fn flow(mut self, flow: impl ReimplFlow + 'a) -> Self {
        self.flow = Box::new(flow);
        self
    }

    /// [`strategy`](Self::strategy) for callers that picked the
    /// strategy at runtime (the `debugd` request decoder).
    #[must_use]
    pub fn strategy_boxed(mut self, strategy: Box<dyn LocalizationStrategy + 'a>) -> Self {
        self.strategy = strategy;
        self
    }

    /// [`flow`](Self::flow) for callers that picked the flow at
    /// runtime (the `debugd` request decoder).
    #[must_use]
    pub fn flow_boxed(mut self, flow: Box<dyn ReimplFlow + 'a>) -> Self {
        self.flow = flow;
        self
    }

    /// Swaps the stimulus specification.
    #[must_use]
    pub fn patterns(mut self, patterns: PatternSpec) -> Self {
        self.patterns = patterns;
        self
    }

    /// Sets the stimulus seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables/disables the §4.1 control-point confirmation ECO.
    #[must_use]
    pub fn confirm_with_control(mut self, enabled: bool) -> Self {
        self.confirm_with_control = enabled;
        self
    }

    /// Registers a progress-event callback.
    #[must_use]
    pub fn on_event(mut self, callback: impl FnMut(&DebugEvent) + Send + 'a) -> Self {
        self.on_event = Some(Box::new(callback));
        self
    }

    /// Attaches a metrics registry: the session records its
    /// deterministic per-phase effort counters
    /// (`session_phase_*_total{phase=…}`) and evidence-layer counters
    /// (`evidence_*_total`) into it as it runs, and its summed
    /// simulation, placement and routing work (`sim_*_total`,
    /// `place_*_total`, `route_nets_ripped_total`) once, when the
    /// session is dropped.
    #[must_use]
    pub fn metrics(mut self, registry: &'a MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attaches a tracer track: the session emits one span per phase
    /// region (detect / localize / confirm / correct) onto it, each
    /// carrying wall-clock bounds *and* the region's deterministic
    /// effort-unit delta, so span totals reconcile exactly with the
    /// [`EffortLedger`].
    #[must_use]
    pub fn trace(mut self, tracer: &'a Tracer, track: TrackId) -> Self {
        self.trace = Some((tracer, track));
        self
    }

    fn emit(&mut self, event: DebugEvent) {
        if let Some(cb) = self.on_event.as_mut() {
            cb(&event);
        }
    }

    /// Wall-clock start marker for a traced region (0 when untraced).
    fn span_begin(&self) -> u64 {
        self.trace.map(|(t, _)| t.now_us()).unwrap_or(0)
    }

    /// Runs `body` as one `phase` region. When the body succeeds, emits
    /// a trace span whose effort units are the region's ledger delta
    /// for `phase`, and bumps the deterministic per-phase counters by
    /// the same delta. Every charge to a phase happens inside exactly
    /// one region of that phase's name, so per-phase span sums equal
    /// the ledger exactly. Regions nest — the serial path confirms
    /// inside its localize region — and the inner span closes first.
    fn phase<T>(
        &mut self,
        phase: Phase,
        ledger: &mut EffortLedger,
        body: impl FnOnce(&mut Self, &mut EffortLedger) -> Result<T, TilingError>,
    ) -> Result<T, TilingError> {
        let start_us = self.span_begin();
        let b = *ledger.phase(phase);
        let out = body(self, ledger)?;
        let a = ledger.phase(phase);
        let units = a.effort.total() - b.effort.total();
        if let Some((tracer, track)) = self.trace {
            tracer.complete(track, phase.name(), "phase", start_us, units);
        }
        if let Some(reg) = self.metrics {
            let labels = [("phase", phase.name())];
            reg.counter_add("session_phase_effort_units_total", &labels, units);
            reg.counter_add(
                "session_phase_place_moves_total",
                &labels,
                a.effort.place_moves - b.effort.place_moves,
            );
            reg.counter_add(
                "session_phase_route_expansions_total",
                &labels,
                a.effort.route_expansions - b.effort.route_expansions,
            );
            reg.counter_add(
                "session_phase_ecos_total",
                &labels,
                (a.ecos - b.ecos) as u64,
            );
            reg.counter_add(
                "session_phase_tiles_cleared_total",
                &labels,
                (a.tiles_cleared - b.tiles_cleared) as u64,
            );
        }
        Ok(out)
    }

    /// Scrapes one finished [`EvidenceBase`]'s counters into the
    /// registry. Each evidence base is scraped exactly once, so
    /// `counter_add` with the absolute stats is a correct delta.
    fn record_evidence(&mut self, evidence: &EvidenceBase) {
        if let Some(reg) = self.metrics {
            let s = evidence.stats();
            reg.counter_add("evidence_verdict_cache_hits_total", &[], s.verdict_hits);
            reg.counter_add("evidence_verdict_cache_misses_total", &[], s.verdict_misses);
            reg.counter_add("evidence_onset_clamps_total", &[], s.onset_clamps);
            reg.counter_add("evidence_exonerations_total", &[], s.exonerations);
            reg.counter_add("evidence_window_shrinks_total", &[], s.window_shrinks);
        }
    }

    /// One ECO through the session flow, its placement and routing
    /// work summed into the session's.
    fn reimplement(
        &mut self,
        seeds: &[CellId],
        added: &[CellId],
    ) -> Result<EcoPhysicalOutcome, TilingError> {
        let phys = self.flow.reimplement(self.td, seeds, added)?;
        self.work.add_eco(&phys);
        Ok(phys)
    }

    /// The pre-flight, run once per session before any entry point
    /// touches the design. First the DRC: a structurally broken DUT
    /// (cyclic, multi-driven, dangling routes, …) gets a typed
    /// [`TilingError::Drc`] instead of a panic or livelock deep in
    /// simulation or the flow. Findings — warnings included — land in
    /// the metrics registry as `drc_findings_total{rule=…}`. Then the
    /// session's one golden simulation: the [`GoldenTrace`] every
    /// sweep compares the DUT against, and the golden cells'
    /// topological rank. A traced session gets one `preflight` span
    /// covering all of it.
    fn preflight(&mut self) -> Result<(), TilingError> {
        if self.golden_trace.is_some() {
            return Ok(());
        }
        let t0 = self.span_begin();
        let result = crate::preflight::preflight(self.td);
        let findings: &[drc::Finding] = match &result {
            Ok(findings) | Err(TilingError::Drc { findings }) => findings,
            Err(_) => &[],
        };
        if let Some(reg) = self.metrics {
            drc::record_findings(reg, findings);
        }
        let count = findings.len() as u64;
        let result = result.and_then(|_| {
            let patterns = self.patterns.generate(self.golden, self.seed);
            let trace = GoldenTrace::new(self.golden, patterns, &mut self.work.sim)?;
            Ok((trace, self.golden.topo_order()?))
        });
        if let Some((tracer, track)) = self.trace {
            tracer.complete(track, "preflight", "drc", t0, count);
        }
        let (trace, order) = result?;
        self.rank = order.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        self.golden_trace = Some(trace);
        Ok(())
    }

    /// Runs one full detect → localize → confirm → correct iteration
    /// for a planted error already present in the DUT netlist. An error
    /// the detection sweep does not expose is repaired at the netlist
    /// level and reported as `mismatch: None`, repaired.
    ///
    /// Serial localization runs through the same
    /// [`crate::diagnosis::evidence`] layer as the concurrent path:
    /// detection is one full response sweep whose per-output onsets
    /// seed the [`EvidenceBase`] for free, the suspect cone (the
    /// intersection of the failing outputs' fanin cones) is pruned
    /// causally — alibi by latency-aware clean prefixes instead of
    /// the old whole-cone passing-split, which collapsed to nearly
    /// nothing on FSM designs where every output shares the state
    /// cone — and every tap is measured once as its exact divergence
    /// onset and read back under the cluster's causal
    /// [`crate::diagnosis::ObservationWindow`].
    ///
    /// # Errors
    ///
    /// Propagates netlist/placement/routing failures from the flow.
    pub fn run(&mut self, error: &InjectedError) -> Result<DebugOutcome, TilingError> {
        self.preflight()?;
        let errors = std::slice::from_ref(error);
        let mut outcome = DebugOutcome::new(self.strategy.name(), self.flow.name());
        let mut ledger = EffortLedger::default();
        let Some(matrix) = self.detect(errors, &mut ledger)? else {
            outcome.repaired = true; // nothing left to do
            return Ok(outcome);
        };
        // (The per-cluster `Detected` events are emitted by the
        // shared diagnosis pipeline below.)
        outcome.mismatch = Some(matrix_mismatch(self.golden, &matrix)?);

        // ---- Localization (steps 16–21) -------------------------------
        // The same cluster → defer-merge → prune pipeline as the
        // concurrent path, over the same evidence layer: every
        // failing-output cluster is pruned within its own causal
        // window, the strategies read tap verdicts from the shared
        // evidence base, and detection's PO onsets answer their first
        // questions for free. Under the single-error hypothesis every
        // cluster is observing the *same* error, so the clusters are
        // *alternative views* of it rather than concurrent work:
        // attempt them one at a time, cheapest pruned cone first, and
        // stop at the first site the §4.1 control point confirms —
        // evidence accumulated by one attempt (every measured onset)
        // carries over to the next for free.
        self.phase(Phase::Localize, &mut ledger, |s, ledger| {
            let (mut evidence, clusters, witness_taps, _) = s.screened_clusters(&matrix, ledger)?;
            outcome.taps_inserted = witness_taps;
            // The sharpest single-error view comes first: the
            // *intersection* of every failing output's cone (the site
            // must lie in all of them), judged at the global earliest
            // failure. On wide combinational designs this is a small,
            // deep set that one strategy pass settles. When causal
            // alibis prune it to nothing (the FSM regime: one early
            // mismatch alibis everything through value masking), the
            // per-cluster views below recover — each cluster's own
            // window keeps its cone honest.
            let mut tracks = Vec::with_capacity(clusters.len() + 1);
            if clusters.len() > 1 {
                tracks.push(s.cluster_track(&evidence, &serial_cluster(s.golden, &matrix))?);
            }
            let mut cluster_tracks = Vec::with_capacity(clusters.len());
            for cl in &clusters {
                cluster_tracks.push(s.cluster_track(&evidence, cl)?);
            }
            cluster_tracks.sort_by_key(|(_, suspects)| suspects.len());
            tracks.extend(cluster_tracks);
            // Distinct suspects across the views (the views overlap —
            // the joint cone is a subset of every cluster cone).
            outcome.initial_suspects = tracks
                .iter()
                .flat_map(|(_, suspects)| suspects.iter().copied())
                .collect::<SuspectCone>()
                .len();

            // Bounded arbitration: a single error that several
            // independent views localize to *different, unconfirmable*
            // cells is masked beyond PO-evidence localization — burning
            // a strategy pass per remaining cluster cannot fix that, so
            // the hunt stops after a few views and reports the best
            // unconfirmed site (correction still repairs, exactly as
            // when a strategy itself comes back empty).
            const MAX_SERIAL_VIEWS: usize = 4;
            let mut tried: Vec<CellId> = Vec::new();
            let mut attempts = 0usize;
            for (window, suspects) in tracks {
                if suspects.is_empty() {
                    continue;
                }
                if attempts >= MAX_SERIAL_VIEWS {
                    break;
                }
                attempts += 1;
                let mut scheduler = MultiErrorScheduler::new(LinearBatches::DEFAULT_BATCH);
                scheduler.add_error(s.golden, &suspects, window, s.strategy.fresh());
                let stats = s.run_tap_rounds(&mut scheduler, &mut evidence, ledger, &mut [])?;
                outcome.taps_inserted += stats.taps_inserted;
                let Some(site) = scheduler.localized()[0] else {
                    continue;
                };
                s.emit(DebugEvent::Localized { cell: Some(site) });
                if outcome.localized.is_none() {
                    outcome.localized = Some(site);
                }
                if !s.confirm_with_control {
                    outcome.localized = Some(site);
                    break;
                }
                if tried.contains(&site) {
                    continue;
                }
                tried.push(site);
                // Force the suspect's output to the golden value: if
                // the DUT then matches on *every* output, the error is
                // contained in that cell — and the hunt is over. An
                // unconfirmed site sends the search on to the next
                // cluster's view of the failure.
                if s.confirm(site, None, ledger)?.0 {
                    outcome.localized = Some(site);
                    outcome.confirmed_by_control = true;
                    break;
                }
            }
            if outcome.localized.is_none() {
                s.emit(DebugEvent::Localized { cell: None });
            }
            s.record_evidence(&evidence);
            Ok(())
        })?;

        outcome.repaired = self.correct(errors, &mut ledger)?.0;
        outcome.absorb(&ledger);
        Ok(outcome)
    }

    /// Plants one random error per seed — all at once, in distinct
    /// cells, each announced by a [`DebugEvent::ErrorInjected`] — and
    /// debugs them, returning one [`DebugOutcome`] row per seed.
    ///
    /// One seed is the paper's protocol: plant, then
    /// [`run`](Self::run) to repair. More than one seed is diagnosed
    /// through [`run_concurrent`](Self::run_concurrent), so one batch
    /// of observation taps — and one corrective ECO — serves every live
    /// error; the result is then adapted back into per-error rows.
    /// Errors no cluster was matched to report `mismatch: None`, like
    /// an undetected single error, and unmatched clusters' effort is
    /// folded into the rows of errors their cones contain, so the
    /// per-iteration ledgers sum to [`CampaignOutcome::ledger`] either
    /// way. No seeds plant nothing and sweep nothing: the outcome is
    /// empty.
    ///
    /// # Errors
    ///
    /// Propagates injection and flow failures.
    pub fn run_campaign(&mut self, seeds: &[u64]) -> Result<CampaignOutcome, TilingError> {
        self.preflight()?;
        let errors = sim::inject::random_distinct_errors(&mut self.td.netlist, seeds)?;
        for (iteration, error) in errors.iter().enumerate() {
            self.emit(DebugEvent::ErrorInjected {
                iteration,
                cell: error.cell,
            });
        }
        let conc = match errors.as_slice() {
            [] => return Ok(CampaignOutcome::default()),
            [error] => {
                let row = self.run(error)?;
                return Ok(CampaignOutcome {
                    ledger: row.ledger,
                    iterations: vec![row],
                });
            }
            _ => self.run_concurrent(&errors)?,
        };
        let pos = self.golden.primary_outputs();
        let mut iterations = Vec::with_capacity(conc.planted.len());
        for i in 0..conc.planted.len() {
            let mut row = DebugOutcome::new(conc.strategy, conc.flow);
            match conc.clusters.iter().find(|c| c.matched_error == Some(i)) {
                Some(c) => {
                    row.mismatch =
                        Some(synthesized_mismatch(self.golden, &pos, &conc.clusters, c)?);
                    row.initial_suspects = c.cone_size;
                    row.localized = c.localized;
                    row.taps_inserted = c.taps_requested;
                    row.repaired = c.repaired;
                    row.confirmed_by_control = c.confirmed_by_control;
                    row.absorb(&c.ledger);
                }
                // Unmatched errors were still repaired by the shared
                // corrective ECO (or at the netlist level, if nothing
                // was detected at all).
                None => row.repaired = conc.repaired,
            }
            iterations.push(row);
        }
        // Unmatched clusters (a footprint no planted error claimed —
        // e.g. one FSM error fanning out into several cones) still
        // spent real effort. Fold each into the row of an error its
        // cone contains, so per-iteration ledgers keep summing to the
        // campaign ledger exactly as with one seed.
        for cl in conc.clusters.iter().filter(|c| c.matched_error.is_none()) {
            let cone = SuspectCone::fanin(self.golden, &cl.outputs);
            let i = conc
                .planted
                .iter()
                .position(|&cell| cone.contains(cell))
                .unwrap_or(0);
            iterations[i].absorb(&cl.ledger);
            iterations[i].taps_inserted += cl.taps_requested;
        }
        Ok(CampaignOutcome {
            iterations,
            ledger: conc.ledger,
        })
    }

    /// Diagnoses several already-planted errors *simultaneously*:
    /// detect once (a full response sweep), cluster the failing
    /// outputs into per-error footprints, localize every cluster
    /// concurrently through shared observation-tap batches, confirm
    /// each site against its own outputs, and repair everything with
    /// one corrective ECO. Errors the sweep does not expose are
    /// repaired at the netlist level.
    ///
    /// This is the multi-error counterpart of [`run`](Self::run) —
    /// the capability the single-error paper protocol lacks. The
    /// machinery lives in [`crate::diagnosis`]; progress is reported
    /// through the usual [`DebugEvent`] stream plus the multi-error
    /// [`DebugEvent::ConeSplit`] and [`DebugEvent::Attribution`]
    /// variants, and effort is attributed per error in
    /// [`ClusterOutcome::ledger`] rows that apportion the global
    /// ledger exactly.
    ///
    /// # Errors
    ///
    /// Propagates netlist/placement/routing failures from the flow.
    pub fn run_concurrent(
        &mut self,
        errors: &[InjectedError],
    ) -> Result<ConcurrentOutcome, TilingError> {
        self.preflight()?;
        let mut outcome = ConcurrentOutcome {
            clusters: Vec::new(),
            rounds: 0,
            taps_inserted: 0,
            ecos: 0,
            shared_core_cells: 0,
            ledger: EffortLedger::default(),
            repaired: false,
            planted: errors.iter().map(|e| e.cell).collect(),
            strategy: self.strategy.name(),
            flow: self.flow.name(),
        };
        let Some(matrix) = self.detect(errors, &mut outcome.ledger)? else {
            outcome.repaired = true;
            return Ok(outcome);
        };

        // ---- Shared diagnosis pipeline --------------------------------
        // Build the evidence base, tap the deferred-merge witnesses,
        // fold FSM fan-out clusters, prune every cluster's cone within
        // its causal window, register one strategy track per cluster,
        // drive the physical tap rounds to completion, then attribute
        // ambiguous shared-core divergences. Returns each cluster's
        // cone for matching clusters to planted errors.
        let cones = self.phase(Phase::Localize, &mut outcome.ledger, |s, ledger| {
            let (mut evidence, clusters, witness_taps, merge_screen) =
                s.screened_clusters(&matrix, ledger)?;
            let n = clusters.len();
            let mut scheduler = MultiErrorScheduler::new(LinearBatches::DEFAULT_BATCH);
            let mut candidates = Vec::with_capacity(n);
            for cl in &clusters {
                let (window, suspects) = s.cluster_track(&evidence, cl)?;
                candidates.push(suspects.len());
                scheduler.add_error(s.golden, &suspects, window, s.strategy.fresh());
            }
            let exclusive = scheduler.partition().exclusive_sizes();
            outcome.shared_core_cells = scheduler.partition().shared.len();
            s.emit(DebugEvent::ConeSplit {
                clusters: n,
                exclusive: exclusive.clone(),
                shared: outcome.shared_core_cells,
            });

            // The merge-screening taps served every (final) cluster
            // equally; apportion them now that the cluster count is
            // known.
            let mut ledgers = vec![EffortLedger::default(); n];
            for &(effort, tiles) in &merge_screen {
                split_charge(&mut ledgers, Phase::Localize, effort, tiles, &vec![1; n]);
            }
            let stats = s.run_tap_rounds(&mut scheduler, &mut evidence, ledger, &mut ledgers)?;
            s.record_evidence(&evidence);
            outcome.rounds = stats.rounds;
            outcome.taps_inserted = witness_taps + stats.taps_inserted;
            let localized = scheduler.localized();
            let mut cones = Vec::with_capacity(n);
            for (k, cl) in clusters.into_iter().enumerate() {
                outcome.clusters.push(ClusterOutcome {
                    cone_size: cl.cone.len(),
                    outputs: cl.outputs,
                    signature: cl.signature,
                    window: cl.window,
                    candidates: candidates[k],
                    exclusive_size: exclusive[k],
                    localized: localized[k],
                    confirmed_by_control: false,
                    matched_error: None,
                    taps_requested: scheduler.taps_requested(k),
                    ledger: ledgers[k],
                    repaired: false,
                });
                cones.push(cl.cone);
            }

            // Score each ambiguous shared-core divergence against every
            // implicated cluster's observed footprint; report the best
            // match.
            let mut blamed = Vec::new();
            if !stats.ambiguities.is_empty() {
                let trace = s.golden_trace.as_ref().expect(TRACED);
                let mut attribution = FaultAttribution::new(s.golden, trace)?;
                // Prime the whole ambiguity set up front: sequential
                // designs fault-simulate 64 candidate machines per
                // packed stream pass instead of one hypothesis netlist
                // each.
                let amb_cells: Vec<CellId> = stats.ambiguities.iter().map(|a| a.cell).collect();
                attribution.prime(&amb_cells)?;
                s.work.sim += attribution.work();
                let pos = s.golden.primary_outputs();
                let failing_masks: Vec<Vec<bool>> = outcome
                    .clusters
                    .iter()
                    .map(|cl| pos.iter().map(|p| cl.outputs.contains(p)).collect())
                    .collect();
                for amb in &stats.ambiguities {
                    let mut best: Option<(usize, f64)> = None;
                    for &t in &amb.tracks {
                        let score = attribution.blame_score(amb.cell, &failing_masks[t])?;
                        if best.is_none_or(|(_, bs)| score > bs) {
                            best = Some((t, score));
                        }
                    }
                    if let Some((cluster, score)) = best {
                        blamed.push(DebugEvent::Attribution {
                            cell: amb.cell,
                            cluster,
                            score,
                        });
                    }
                }
            }
            for event in blamed {
                s.emit(event);
            }
            for &cell in &localized {
                s.emit(DebugEvent::Localized { cell });
            }
            Ok(cones)
        })?;

        // ---- Per-cluster confirmation (§4.1) --------------------------
        if self.confirm_with_control {
            for c in &mut outcome.clusters {
                if let Some(site) = c.localized {
                    let (ok, effort, tiles) =
                        self.confirm(site, Some(&c.outputs), &mut outcome.ledger)?;
                    c.ledger.charge(Phase::Confirm, effort, tiles);
                    c.confirmed_by_control = ok;
                }
            }
        }

        // ---- One corrective ECO for every error -----------------------
        let (repaired, effort, tiles) = self.correct(errors, &mut outcome.ledger)?;
        outcome.repaired = repaired;
        let even = vec![1; outcome.clusters.len()];
        let ledgers = outcome.clusters.iter_mut().map(|c| &mut c.ledger);
        split_charge(ledgers, Phase::Correct, effort, tiles, &even);

        // ---- Attribution: match clusters to planted errors ------------
        // Exact localized-cell agreement first, then cone containment.
        let mut claimed = vec![false; errors.len()];
        for exact in [true, false] {
            for (c, cone) in outcome.clusters.iter_mut().zip(&cones) {
                let fits = |e: &InjectedError| {
                    if exact {
                        c.localized == Some(e.cell)
                    } else {
                        cone.contains(e.cell)
                    }
                };
                if c.matched_error.is_some() {
                    continue;
                }
                if let Some(i) = (0..errors.len()).find(|&i| !claimed[i] && fits(&errors[i])) {
                    c.matched_error = Some(i);
                    claimed[i] = true;
                }
            }
        }
        for c in &mut outcome.clusters {
            c.repaired = self.outputs_match(Some(&c.outputs))?;
        }
        outcome.ecos = outcome.ledger.total_ecos();
        Ok(outcome)
    }

    /// Detection (steps 10, 21): one full response sweep of the DUT
    /// against the golden trace, as one detect region. Returns the
    /// sweep when any output failed. A clean sweep emits
    /// [`DebugEvent::CleanDesign`] and repairs `errors` at the netlist
    /// level only — a LUT-function restore moves nothing — as the
    /// corrective ECO would have, so no caller keeps a latent bug in a
    /// DUT reported repaired.
    fn detect(
        &mut self,
        errors: &[InjectedError],
        ledger: &mut EffortLedger,
    ) -> Result<Option<ResponseMatrix>, TilingError> {
        let matrix = self.phase(Phase::Detect, ledger, |s, _| {
            let trace = s.golden_trace.as_ref().expect(TRACED);
            Ok(collect_responses(
                s.golden,
                trace,
                &s.td.netlist,
                &mut s.work.sim,
            )?)
        })?;
        if !matrix.failing().is_empty() {
            return Ok(Some(matrix));
        }
        self.emit(DebugEvent::CleanDesign);
        self.repair(errors)?;
        Ok(None)
    }

    /// Restores every error's original LUT function at the netlist
    /// level. Returns the sorted, distinct error cells.
    fn repair(&mut self, errors: &[InjectedError]) -> Result<Vec<CellId>, TilingError> {
        let mut cells = Vec::with_capacity(errors.len());
        for error in errors {
            netlist::eco::apply(&mut self.td.netlist, &sim::inject::repair_op(error))?;
            cells.push(error.cell);
        }
        cells.sort_unstable();
        cells.dedup();
        Ok(cells)
    }

    /// The §4.1 controllability confirmation, as one confirm region:
    /// inserts a control point on the suspect's output net (an ECO
    /// through the session flow), then re-emulates with the override
    /// enabled and driven to the golden value every cycle. *Confirmed*
    /// means the compared outputs — all of them, or just the `outputs`
    /// subset a multi-error session passes — then match the golden
    /// model. Charges `ledger`, emits [`DebugEvent::Confirmed`] and
    /// returns `(confirmed, effort, tiles cleared)` for the caller's
    /// cluster ledger.
    ///
    /// Like observation taps, the control point is *retired* at the
    /// netlist level afterwards (the physical cleanup folds into the
    /// correction ECO that follows), so successive campaign
    /// iterations start from an uninstrumented DUT.
    fn confirm(
        &mut self,
        suspect: CellId,
        outputs: Option<&[CellId]>,
        ledger: &mut EffortLedger,
    ) -> Result<(bool, CadEffort, usize), TilingError> {
        let checked = self.phase(Phase::Confirm, ledger, |s, ledger| {
            let net = s.td.netlist.cell_output(suspect)?;
            // Control points add primary-input *nets* whose names
            // outlive retirement (removing a cell frees its name; a
            // dead net keeps its), so every insertion needs a fresh
            // namespace — confirm runs once per error in a concurrent
            // session and once per view in a serial one.
            let base = unique_cp_name(&s.td.netlist, suspect);
            let cp = insert_control_point(&mut s.td.netlist, net, &base)?;
            let phys = match s.reimplement(&[suspect], &cp.report.added) {
                Ok(phys) => phys,
                Err(e) => {
                    // The flow restored placement/routing; retire the
                    // control point too so the netlist matches and the
                    // caller can retry on a consistent design.
                    s.retire_control_point(&cp, net)?;
                    return Err(e);
                }
            };
            // DUT inputs: golden pattern, then [force_val, force_en]
            // (the two new PIs append to the input order); the packed
            // sweep drives force_val with the golden trace's words for
            // `net` over the first 256 patterns.
            let pairs = s.po_pairs_for(outputs)?;
            let trace = s.golden_trace.as_ref().expect(TRACED);
            let confirmed = sim::emulate::forced_outputs_equivalent(
                trace,
                &s.td.netlist,
                net,
                &pairs,
                256,
                &mut s.work.sim,
            )?;
            s.retire_control_point(&cp, net)?;
            let tiles = phys.affected.tiles.len();
            ledger.charge(Phase::Confirm, phys.effort, tiles);
            Ok((confirmed, phys.effort, tiles))
        })?;
        self.emit(DebugEvent::Confirmed {
            cell: suspect,
            confirmed: checked.0,
        });
        Ok(checked)
    }

    /// Correction (steps 11–15, 17–21), as one correct region: repairs
    /// every error, runs one ECO seeded with the sorted distinct error
    /// cells (for a LUT-function repair, exactly the cells the edit
    /// touches), and re-emulates. Charges `ledger`, emits
    /// [`DebugEvent::Corrected`] and returns `(repaired, effort, tiles
    /// cleared)` for the caller's cluster ledgers.
    fn correct(
        &mut self,
        errors: &[InjectedError],
        ledger: &mut EffortLedger,
    ) -> Result<(bool, CadEffort, usize), TilingError> {
        self.phase(Phase::Correct, ledger, |s, ledger| {
            let seeds = s.repair(errors)?;
            let phys = s.reimplement(&seeds, &[])?;
            let tiles = phys.affected.tiles.len();
            ledger.charge(Phase::Correct, phys.effort, tiles);
            // Confirmation emulation: observation taps were already
            // retired per batch, but the DUT may still carry extra PIs
            // (the §4.1 control point's force inputs and mux), so
            // compare by pairing the golden primary outputs with their
            // same-named DUT cells.
            let repaired = s.outputs_match(None)?;
            s.emit(DebugEvent::Corrected { repaired });
            Ok((repaired, phys.effort, tiles))
        })
    }

    /// Builds the [`EvidenceBase`] from a failing detection sweep,
    /// taps the deferred-merge witness registers, and folds the FSM
    /// fan-out clusters. Returns `(evidence, merged clusters, witness
    /// taps inserted, per-ECO witness charges)`.
    ///
    /// One FSM error fans out into several clusters (same failure
    /// onset, different output cones, a dominating state register
    /// behind all of them) — but so do several independent same-onset
    /// errors behind a shared sequential trunk, a case the old
    /// pre-registration merge conflated (it intersected both sites
    /// away and localized nothing). The merge decision is therefore
    /// *deferred* until screening evidence exists: one tap batch on
    /// the witness registers measures whether the trunk actually
    /// carried the corruption, and only then are clusters folded. The
    /// measurements stay in the evidence base, so later rounds reuse
    /// them free.
    #[allow(clippy::type_complexity)]
    fn screened_clusters(
        &mut self,
        matrix: &ResponseMatrix,
        ledger: &mut EffortLedger,
    ) -> Result<
        (
            EvidenceBase,
            Vec<FailureCluster>,
            usize,
            Vec<(CadEffort, usize)>,
        ),
        TilingError,
    > {
        let raw_clusters = cluster_failures(self.golden, matrix);
        // The detection sweep seeds every PO driver's exact divergence
        // onset into the evidence base for free, and its per-output
        // onset/depth tables are built once and shared by every
        // cluster.
        let mut evidence = EvidenceBase::from_sweep(self.golden, matrix);
        let witnesses: Vec<CellId> = fsm_merge_witnesses(self.golden, &raw_clusters)
            .into_iter()
            .filter(|&c| !evidence.exact(c))
            .collect();
        let mut merge_screen: Vec<(CadEffort, usize)> = Vec::new();
        let mut taps_inserted = 0usize;
        for (eco_no, batch) in witnesses.chunks(LinearBatches::DEFAULT_BATCH).enumerate() {
            let (onsets, effort, tiles) = self.measure_batch(batch, eco_no)?;
            taps_inserted += batch.len();
            ledger.charge(Phase::Localize, effort, tiles);
            merge_screen.push((effort, tiles));
            for (&cell, &onset) in batch.iter().zip(&onsets) {
                evidence.record(cell, onset);
            }
        }
        let clusters = merge_fsm_clusters(self.golden, raw_clusters, &evidence);
        Ok((evidence, clusters, taps_inserted, merge_screen))
    }

    /// One cluster's localization inputs: its causal
    /// [`crate::diagnosis::ObservationWindow`] and its pruned,
    /// live-LUT-filtered, temporally-ordered suspect list. Emits the
    /// cluster's [`DebugEvent::Detected`] /
    /// [`DebugEvent::SuspectsComputed`] pair.
    ///
    /// Pruning is windowed per cluster: everything a cluster's error
    /// can teach us already happened by the cluster's first failing
    /// pattern, so a cell is pruned when it could not have reached
    /// the cluster's outputs in time, or when another output was
    /// still clean at the pattern the cell's wavefront would earliest
    /// have reached it — even if a slower error diverges that output
    /// later in the sweep (see [`EvidenceBase::prune_cone`]). The
    /// causal window judges each suspect at the cluster's window
    /// minus its FF distance to the cluster's outputs, and the same
    /// depths order suspects temporally (FF-deepest first).
    fn cluster_track(
        &mut self,
        evidence: &EvidenceBase,
        cl: &FailureCluster,
    ) -> Result<(crate::diagnosis::ObservationWindow, Vec<CellId>), TilingError> {
        self.emit(DebugEvent::Detected {
            pattern_index: cl.window,
            output_name: self.golden.cell(cl.outputs[0])?.name.clone(),
        });
        let window = evidence.causal_window(cl);
        let live_lut = |c: CellId| {
            self.td
                .netlist
                .cell(c)
                .map(|cell| cell.lut_function().is_some())
                .unwrap_or(false)
        };
        let mut suspects: Vec<CellId> = evidence
            .prune_cone(&cl.cone, &window)
            .iter()
            .filter(|&c| live_lut(c))
            .collect();
        if suspects.is_empty() {
            // The prune's alibi direction is heuristic — value
            // masking can hide a wavefront from the "clean" output
            // that vouched the alibi — while "this cluster's
            // divergence has a cause inside its cone" is ground
            // truth. An empty suspect list therefore proves the
            // alibi misfired (seen on merged FSM clusters whose
            // earliest member onset shrinks the window); retry with
            // only the exact causal-feasibility direction.
            suspects = cl
                .cone
                .iter()
                .filter(|&c| window.feasible(c) && live_lut(c))
                .collect();
        }
        let rank = &self.rank;
        evidence.order_suspects(&window, &mut suspects, |c| {
            rank.get(&c).copied().unwrap_or(usize::MAX)
        });
        self.emit(DebugEvent::SuspectsComputed {
            structural: cl.cone.len(),
            candidates: suspects.len(),
        });
        Ok((window, suspects))
    }

    /// Inserts observation taps on every cell of `batch` (one real
    /// ECO through the session flow), measures each tapped net's
    /// exact divergence onset over the whole sweep —
    /// [`sim::emulate::net_first_divergences`], the single
    /// observation entry point for serial and concurrent localization
    /// alike — then retires the taps again (visibility instruments
    /// are temporary, and pads are scarce; the physical cleanup folds
    /// into the next ECO's re-implementation). Emits the
    /// [`DebugEvent::TapEco`] / [`DebugEvent::Observed`] pair and
    /// returns `(onsets, effort, tiles cleared)`.
    fn measure_batch(
        &mut self,
        batch: &[CellId],
        eco_no: usize,
    ) -> Result<(Vec<Option<usize>>, CadEffort, usize), TilingError> {
        let mut added = Vec::new();
        let mut nets: Vec<NetId> = Vec::with_capacity(batch.len());
        for &cell in batch {
            let net = self.td.netlist.cell_output(cell)?;
            let name = format!("dbg{eco_no}_{}", cell.index());
            let rep = insert_observation_tap(&mut self.td.netlist, net, &name, false)?;
            added.extend(rep.added.iter().copied());
            nets.push(net);
        }
        let removals: Vec<netlist::EcoOp> = added
            .iter()
            .map(|&cell| netlist::EcoOp::RemoveCell { cell })
            .collect();
        let phys = match self.reimplement(batch, &added) {
            Ok(phys) => phys,
            Err(e) => {
                // The flow restored placement/routing; retire the
                // just-inserted taps too so the netlist matches and
                // the caller can retry on a consistent design.
                netlist::eco::apply_all(&mut self.td.netlist, &removals)?;
                return Err(e);
            }
        };
        self.emit(DebugEvent::TapEco {
            cells: batch.to_vec(),
            effort: phys.effort,
        });
        let trace = self.golden_trace.as_ref().expect(TRACED);
        let onsets = sim::emulate::net_first_divergences(
            trace,
            &self.td.netlist,
            &nets,
            &mut self.work.sim,
        )?;
        self.emit(DebugEvent::Observed {
            diverging: batch
                .iter()
                .zip(&onsets)
                .filter(|(_, onset)| onset.is_some())
                .map(|(&cell, _)| cell)
                .collect(),
        });
        netlist::eco::apply_all(&mut self.td.netlist, &removals)?;
        Ok((onsets, phys.effort, phys.affected.tiles.len()))
    }

    /// The shared physical localization loop: alternates the
    /// scheduler's evidence-aware round planning with real tap ECOs
    /// ([`measure_batch`](Self::measure_batch)) until every track is
    /// done. Used verbatim by the serial path (one track) and the
    /// concurrent path (one track per cluster, `per_track` ledgers
    /// apportioning each shared ECO).
    fn run_tap_rounds(
        &mut self,
        scheduler: &mut MultiErrorScheduler,
        evidence: &mut EvidenceBase,
        ledger: &mut EffortLedger,
        per_track: &mut [EffortLedger],
    ) -> Result<RoundStats, TilingError> {
        let n = scheduler.tracks();
        let mut stats = RoundStats::default();
        let mut eco_no = 1000; // distinct namespace from merge screening
        while let Some(plan) = scheduler.plan_round(evidence) {
            stats.rounds += 1;
            let mut verdicts: HashMap<CellId, Option<usize>> = HashMap::new();
            for batch in &plan.batches {
                // A screening batch serves every track equally (no
                // track requested it; it rules the shared core in or
                // out for all of them at frontier cost).
                let weights: Vec<usize> = if per_track.is_empty() {
                    Vec::new()
                } else if plan.screening {
                    vec![1; n]
                } else {
                    (0..n)
                        .map(|k| {
                            scheduler
                                .requested(k)
                                .iter()
                                .filter(|c| batch.contains(c))
                                .count()
                        })
                        .collect()
                };
                let (onsets, effort, tiles) = self.measure_batch(batch, eco_no)?;
                eco_no += 1;
                stats.taps_inserted += batch.len();
                ledger.charge(Phase::Localize, effort, tiles);
                if !per_track.is_empty() {
                    split_charge(&mut *per_track, Phase::Localize, effort, tiles, &weights);
                }
                for (&cell, &onset) in batch.iter().zip(&onsets) {
                    verdicts.insert(cell, onset);
                }
            }
            stats
                .ambiguities
                .extend(scheduler.record_round(evidence, &verdicts));
        }
        Ok(stats)
    }

    /// Golden↔DUT primary-output index pairs, optionally restricted
    /// to a subset of golden PO cells (a cluster's outputs).
    fn po_pairs_for(&self, outputs: Option<&[CellId]>) -> Result<Vec<(usize, usize)>, TilingError> {
        let mut pairs = po_pairs(self.golden, &self.td.netlist)?;
        if let Some(subset) = outputs {
            let gpos = self.golden.primary_outputs();
            pairs.retain(|&(gk, _)| subset.contains(&gpos[gk]));
        }
        Ok(pairs)
    }

    /// Retires a control point: rewires the mux's sinks back to the
    /// original net, then removes the mux and its two force PIs.
    fn retire_control_point(
        &mut self,
        cp: &sim::testlogic::ControlPoint,
        net: NetId,
    ) -> Result<(), TilingError> {
        let mux_net = self.td.netlist.cell_output(cp.mux)?;
        let sinks = self.td.netlist.net(mux_net)?.sinks.clone();
        for s in &sinks {
            self.td.netlist.set_pin(s.cell, s.pin, net)?;
        }
        let removals: Vec<netlist::EcoOp> = [cp.mux, cp.force_value, cp.force_enable]
            .iter()
            .map(|&cell| netlist::EcoOp::RemoveCell { cell })
            .collect();
        netlist::eco::apply_all(&mut self.td.netlist, &removals)?;
        Ok(())
    }

    /// Re-emulates and checks that the *original* primary outputs now
    /// match (the DUT has extra PIs/POs from debug instrumentation,
    /// so a plain output-vector compare would be misaligned). With
    /// `Some(subset)` only those golden PO cells are compared — how a
    /// multi-error session judges one cluster while others stay live.
    fn outputs_match(&mut self, outputs: Option<&[CellId]>) -> Result<bool, TilingError> {
        // The DUT may have grown extra PIs (control points); the
        // packed sweep drives them inactive.
        let pairs = self.po_pairs_for(outputs)?;
        let trace = self.golden_trace.as_ref().expect(TRACED);
        Ok(sim::emulate::outputs_equivalent(
            trace,
            &self.td.netlist,
            &pairs,
            &mut self.work.sim,
        )?)
    }
}

impl Drop for DebugSession<'_> {
    /// Emits the session's summed work exactly once, whichever entry
    /// points ran and whether they returned an error. A session
    /// dropped by a panic emits nothing: the registry panics on a
    /// poisoned lock, and a panic during unwinding aborts.
    fn drop(&mut self) {
        if let Some(reg) = self.metrics.filter(|_| !std::thread::panicking()) {
            self.work.record(reg);
        }
    }
}

/// The simulation, placement and routing work a session's calls
/// returned, summed beside its [`EffortLedger`]. Simulation work is
/// deliberately *not* a ledger charge: a charge counts an ECO.
#[derive(Debug, Default)]
struct SessionWork {
    sim: SimWork,
    moves_annealing: u64,
    moves_analytical: u64,
    cg_iterations: u64,
    ripped_incremental: u64,
    ripped_full: u64,
}

impl SessionWork {
    /// Sums one ECO's placement and routing work.
    fn add_eco(&mut self, phys: &EcoPhysicalOutcome) {
        match phys.place_engine {
            PlaceEngine::Annealing => self.moves_annealing += phys.effort.place_moves,
            PlaceEngine::Analytical => self.moves_analytical += phys.effort.place_moves,
        }
        self.cg_iterations += phys.cg_iterations;
        let ripped = phys.rerouted_nets as u64;
        if phys.incremental_routing {
            self.ripped_incremental += ripped;
        } else {
            self.ripped_full += ripped;
        }
    }

    /// Adds the totals to the registry's work counters (every series,
    /// zeros included, so the families are always present).
    fn record(&self, reg: &MetricsRegistry) {
        reg.counter_add("sim_sweeps_total", &[], self.sim.sweeps);
        reg.counter_add("sim_net_words_total", &[], self.sim.net_words);
        reg.counter_add("sim_lanes_loaded_total", &[], self.sim.lanes_loaded);
        for (engine, moves) in [
            (PlaceEngine::Annealing, self.moves_annealing),
            (PlaceEngine::Analytical, self.moves_analytical),
        ] {
            reg.counter_add(
                "place_moves_evaluated_total",
                &[("engine", engine.label())],
                moves,
            );
        }
        reg.counter_add("place_cg_iterations_total", &[], self.cg_iterations);
        for (mode, ripped) in [
            ("incremental", self.ripped_incremental),
            ("full", self.ripped_full),
        ] {
            reg.counter_add("route_nets_ripped_total", &[("mode", mode)], ripped);
        }
    }
}

// Compile-time `Send` regression gate (static_assertions-style): the
// campaign fleet (`debugd`, `parallel::scope`) moves sessions, their
// evidence, and whole tiled designs across worker threads. A change
// that makes any of these `!Send` — an `Rc` slipping into a cone, a
// non-`Send` trait object behind a session box — must fail *this
// compile*, not deadlock or refuse to build the fleet three crates
// downstream.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TiledDesign>();
    assert_send::<crate::flow::TilingOptions>();
    assert_send::<DebugSession<'static>>();
    assert_send::<EvidenceBase>();
    assert_send::<MultiErrorScheduler>();
    assert_send::<FaultAttribution<'static>>();
    assert_send::<Box<dyn LocalizationStrategy>>();
    assert_send::<Box<dyn ReimplFlow>>();
    assert_send::<DebugEvent>();
    assert_send::<DebugOutcome>();
    assert_send::<CampaignOutcome>();
    assert_send::<ConcurrentOutcome>();
    assert_send::<crate::report::DebugReport>();
    assert_send::<TilingError>();
};

/// What the shared tap-round loop accumulated.
#[derive(Debug, Default)]
struct RoundStats {
    /// Scheduler rounds executed.
    rounds: usize,
    /// Observation taps physically inserted (post-deduplication).
    taps_inserted: usize,
    /// Shared-core divergences more than one cone-and-window explains.
    ambiguities: Vec<Ambiguity>,
}

/// Reconstructs the classic first-mismatch record from a full
/// response sweep: the earliest failing pattern across all outputs,
/// with `output_ok` read off the signatures at that pattern. Pattern
/// indices are directly comparable with every other consumer of the
/// same sweep.
fn matrix_mismatch(golden: &Netlist, matrix: &ResponseMatrix) -> Result<Mismatch, TilingError> {
    let sigs = &matrix.signatures;
    let first = sigs
        .iter()
        .filter_map(ResponseSignature::first_failing)
        .min()
        .unwrap_or(0);
    let output_ok = sigs.iter().map(|s| !s.contains(first)).collect();
    mismatch_at(golden, &matrix.outputs, first, output_ok)
}

/// The first-mismatch record at `pattern_index`, given which golden
/// primary outputs (`pos`, PO order) still matched there.
fn mismatch_at(
    golden: &Netlist,
    pos: &[CellId],
    pattern_index: usize,
    output_ok: Vec<bool>,
) -> Result<Mismatch, TilingError> {
    let output_index = output_ok.iter().position(|&ok| !ok).unwrap_or(0);
    Ok(Mismatch {
        pattern_index,
        output_index,
        output_name: golden.cell(pos[output_index])?.name.clone(),
        output_ok,
    })
}

/// The serial path's sharpest one-cluster view of a failing sweep:
/// all failing outputs, the union of their signatures, the
/// *intersection* of their fanin cones (under the single-error
/// hypothesis the site lies in every failing output's fanin),
/// windowed at the earliest observed failure.
fn serial_cluster(golden: &Netlist, matrix: &ResponseMatrix) -> FailureCluster {
    let failing = matrix.failing();
    let mut outputs = Vec::with_capacity(failing.len());
    let mut signature = ResponseSignature::default();
    let mut cone: Option<SuspectCone> = None;
    for &k in &failing {
        let po = matrix.outputs[k];
        outputs.push(po);
        signature.union_with(&matrix.signatures[k]);
        let po_cone = SuspectCone::fanin(golden, &[po]);
        cone = Some(match cone {
            Some(mut c) => {
                c.intersect_with(&po_cone);
                c
            }
            None => po_cone,
        });
    }
    let window = signature.first_failing().unwrap_or(0);
    FailureCluster {
        outputs,
        signature,
        cone: cone.unwrap_or_default(),
        window,
    }
}

/// First `cp{suspect}_{k}` namespace whose control-point pieces are
/// all unclaimed in `nl` (see the comment at the insertion site).
fn unique_cp_name(nl: &Netlist, suspect: CellId) -> String {
    let mut k = 0usize;
    loop {
        let name = format!("cp{}_{k}", suspect.index());
        if nl.find_net(&format!("{name}_force_val")).is_none()
            && nl.find_net(&format!("{name}_force_en")).is_none()
            && nl.find_cell(&format!("{name}_ctl_mux")).is_none()
        {
            return name;
        }
        k += 1;
    }
}

/// Reconstructs a [`Mismatch`] for one cluster of a concurrent
/// diagnosis (the compat shape `run_campaign` rows report): the
/// cluster's earliest failing pattern, with `output_ok` rebuilt from
/// every cluster's signature at that pattern.
fn synthesized_mismatch(
    golden: &Netlist,
    pos: &[CellId],
    clusters: &[ClusterOutcome],
    cluster: &ClusterOutcome,
) -> Result<Mismatch, TilingError> {
    let first = cluster.signature.first_failing().unwrap_or(0);
    let output_ok = pos
        .iter()
        .map(|po| {
            let failed =
                |cl: &ClusterOutcome| cl.outputs.contains(po) && cl.signature.contains(first);
            !clusters.iter().any(failed)
        })
        .collect();
    mismatch_at(golden, pos, first, output_ok)
}

/// Splits `total` proportionally to `weights`, exactly: shares sum to
/// `total`, with the remainder dealt one unit at a time to the
/// lowest-index participating entries.
fn apportion(total: u64, weights: &[usize]) -> Vec<u64> {
    let w: u64 = weights.iter().map(|&x| x as u64).sum();
    if w == 0 {
        return vec![0; weights.len()];
    }
    let mut shares: Vec<u64> = weights.iter().map(|&x| total * x as u64 / w).collect();
    let mut rem = total - shares.iter().sum::<u64>();
    let mut k = 0usize;
    while rem > 0 {
        let i = k % weights.len();
        if weights[i] > 0 {
            shares[i] += 1;
            rem -= 1;
        }
        k += 1;
    }
    shares
}

/// Charges one shared physical ECO against the per-cluster ledgers:
/// effort and tiles apportioned by `weights` (taps each cluster had
/// in the batch), the ECO itself counted for every participant —
/// which is exactly why the per-cluster ECO counts sum to *more* than
/// the physical count when batches are shared.
fn split_charge<'l>(
    ledgers: impl IntoIterator<Item = &'l mut EffortLedger>,
    phase: Phase,
    effort: CadEffort,
    tiles: usize,
    weights: &[usize],
) {
    let moves = apportion(effort.place_moves, weights);
    let exps = apportion(effort.route_expansions, weights);
    let tls = apportion(tiles as u64, weights);
    for (k, ledger) in ledgers.into_iter().enumerate() {
        if weights[k] == 0 {
            continue;
        }
        ledger.charge(
            phase,
            CadEffort {
                place_moves: moves[k],
                route_expansions: exps[k],
            },
            tls[k] as usize,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{implement, TilingOptions};
    use crate::strategy::BinarySearch;
    use sim::inject::random_error;
    use synth::PaperDesign;

    #[test]
    fn session_with_binary_search_repairs_9sym() {
        let bundle = PaperDesign::NineSym.generate().unwrap();
        let golden = bundle.netlist.clone();
        let mut td = implement(bundle.netlist, bundle.hierarchy, TilingOptions::fast(9)).unwrap();
        let err = random_error(&mut td.netlist, 4321).unwrap();
        let mut events = Vec::new();
        let out = DebugSession::new(&mut td, &golden)
            .strategy(BinarySearch::new())
            .seed(42)
            .on_event(|e| events.push(format!("{e:?}")))
            .run(&err)
            .unwrap();
        assert!(out.mismatch.is_some());
        assert!(out.repaired);
        assert_eq!(out.strategy, "binary_search");
        assert_eq!(out.flow, "tiled");
        assert!(td.routing.is_feasible());
        // The event stream traces the whole iteration.
        assert!(events.iter().any(|e| e.contains("Detected")));
        assert!(events.iter().any(|e| e.contains("TapEco")));
        assert!(events.iter().any(|e| e.contains("Corrected")));
        // Ledger phases reconcile with the flat counters.
        assert_eq!(out.effort, out.ledger.total());
        assert_eq!(out.ecos, out.ledger.total_ecos());
        assert!(out.ledger.phase(Phase::Localize).ecos >= 1);
        assert_eq!(out.ledger.phase(Phase::Correct).ecos, 1);
    }

    /// An 8-LUT backbone fanning into two 4-LUT branches, each ending
    /// in its own output — two overlapping suspect cones.
    fn backbone_bundle() -> (Netlist, netlist::Hierarchy, Vec<CellId>, Vec<CellId>) {
        let mut nl = Netlist::new("bb");
        let pi = nl.add_input("a").unwrap();
        let mut net = nl.cell_output(pi).unwrap();
        for k in 0..8 {
            let c = nl
                .add_lut(format!("bb{k}"), netlist::TruthTable::not(), &[net])
                .unwrap();
            net = nl.cell_output(c).unwrap();
        }
        let mut branches = Vec::new();
        for b in 0..2 {
            let mut bnet = net;
            let mut cells = Vec::new();
            for k in 0..4 {
                let c = nl
                    .add_lut(format!("br{b}_{k}"), netlist::TruthTable::not(), &[bnet])
                    .unwrap();
                bnet = nl.cell_output(c).unwrap();
                cells.push(c);
            }
            nl.add_output(format!("y{b}"), bnet).unwrap();
            branches.push(cells);
        }
        let hier = netlist::Hierarchy::new("bb");
        let (b0, b1) = (branches.remove(0), branches.remove(0));
        (nl, hier, b0, b1)
    }

    #[test]
    fn concurrent_diagnosis_repairs_two_overlapping_errors() {
        let (nl, hier, b0, b1) = backbone_bundle();
        let mut td = implement(nl, hier, TilingOptions::fast(21)).unwrap();
        let golden = td.netlist.clone();
        let e0 = sim::inject::inject(
            &mut td.netlist,
            b0[2],
            sim::inject::DesignErrorKind::Complement,
        )
        .unwrap();
        let e1 = sim::inject::inject(
            &mut td.netlist,
            b1[2],
            sim::inject::DesignErrorKind::Complement,
        )
        .unwrap();
        let mut events = Vec::new();
        let out = DebugSession::new(&mut td, &golden)
            .seed(5)
            .on_event(|e| events.push(format!("{e:?}")))
            .run_concurrent(&[e0, e1])
            .unwrap();
        assert!(out.repaired);
        assert!(td.routing.is_feasible());
        assert_eq!(out.clusters.len(), 2, "one cluster per failing output");
        // Both errors localized to the exact planted cells and matched.
        let mut found = out.localized_cells();
        found.sort_unstable();
        let mut planted = vec![b0[2], b1[2]];
        planted.sort_unstable();
        assert_eq!(found, planted);
        for (k, c) in out.clusters.iter().enumerate() {
            assert!(c.matched_error.is_some(), "cluster {k} unmatched");
            assert!(c.repaired, "cluster {k} outputs still diverge");
            assert!(c.confirmed_by_control, "cluster {k} unconfirmed");
            assert_eq!(c.exclusive_size, 4, "branch is the exclusive region");
        }
        // The 8 backbone LUTs are the shared core.
        assert_eq!(out.shared_core_cells, 8);
        // Per-cluster ledgers apportion the global ledger exactly.
        let split: u64 = out.clusters.iter().map(|c| c.ledger.total().total()).sum();
        assert_eq!(split, out.ledger.total().total());
        // Sharing: requested taps exceed physically inserted taps.
        assert!(out.taps_requested() > out.taps_inserted);
        assert_eq!(out.ecos, out.ledger.total_ecos());
        assert!(events.iter().any(|e| e.contains("ConeSplit")));
        assert!(events.iter().any(|e| e.contains("Corrected")));
        // The DUT really is clean.
        assert!(is_clean(&golden, &td.netlist, 5));
    }

    #[test]
    fn campaign_repairs_successive_errors() {
        let bundle = PaperDesign::NineSym.generate().unwrap();
        let golden = bundle.netlist.clone();
        let mut td = implement(bundle.netlist, bundle.hierarchy, TilingOptions::fast(11)).unwrap();
        let campaign = DebugSession::new(&mut td, &golden)
            .seed(7)
            .run_campaign(&[1001, 2002])
            .unwrap();
        assert_eq!(campaign.iterations.len(), 2);
        assert!(campaign.all_repaired());
        assert!(campaign.total_effort().total() > 0);
        assert!(td.routing.is_feasible());
        // The DUT really is clean at the end.
        assert!(
            is_clean(&golden, &td.netlist, 7),
            "campaign left a live bug behind"
        );
    }

    /// Whether `dut`'s original outputs match `golden` on a session's
    /// default stimulus for `seed`.
    fn is_clean(golden: &Netlist, dut: &Netlist, seed: u64) -> bool {
        let w = &mut SimWork::default();
        let pats = PatternSpec::Auto.generate(golden, seed);
        let trace = GoldenTrace::new(golden, pats, w).unwrap();
        let pairs = po_pairs(golden, dut).unwrap();
        sim::emulate::outputs_equivalent(&trace, dut, &pairs, w).unwrap()
    }
}
