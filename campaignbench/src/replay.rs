//! The traced pass: every served campaign replayed through a traced
//! `DebugSession`, checked against the service, and split by layer.

use std::sync::Arc;

use debugd::campaign::event_json;
use debugd::ArtifactStore;
use obs::{MetricsRegistry, MetricsSnapshot, Tracer};
use tiling::effort::Phase;
use tiling::report::DebugReport;
use tiling::session::DebugSession;

use crate::oracle;
use crate::probe::{self, LayerTimes, Probe, ProbeCounts, TimedFlow, TimedStrategy};
use crate::service::{events_digest, workers, Served};
use crate::workloads::Workload;

/// One campaign replayed through a traced `DebugSession`.
pub struct Replayed {
    /// Design name.
    pub design: &'static str,
    /// Flow name.
    pub flow: &'static str,
    /// Error budget.
    pub errors: usize,
    /// Whether the report claims every planted error repaired and the
    /// scalar oracle confirms it.
    pub repaired: bool,
    /// Campaign wall time.
    pub wall_s: f64,
    /// Wall time of the same region in an untraced run of the same
    /// request just before, when one was asked for.
    pub untraced_s: Option<f64>,
    /// Campaign time by layer.
    pub layers: LayerTimes,
    /// Decorator counts.
    pub counts: ProbeCounts,
    /// Effort units the flow decorator saw.
    pub flow_units: u64,
    /// `confirm` spans, and how many of them lie inside a `localize`
    /// span.
    pub confirms: (usize, usize),
}

/// Replays `served` through `DebugSession`, configured the way
/// `debugd::campaign::run_campaign_observed` configures it plus the
/// timing decorators, and checks each campaign against the service's
/// status, report and event stream, the scalar oracle, and the span
/// accounting. The first `det_n` campaigns record into `det_registry`.
/// Spans are copied to `export`, one track per campaign. With
/// `untraced_baseline`, each request also runs once without tracer or
/// decorators, timed over the same region, before the traced run for
/// even-numbered campaigns and after it for odd ones (so neither side
/// always gets the warm caches). Fleet campaigns replay a round at a
/// time on the pool width the service used. A failed check lands in
/// `problems` and drops the campaign from the result.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    w: Workload,
    store: &ArtifactStore,
    served: &[Served],
    det_n: usize,
    det_registry: &MetricsRegistry,
    export: &Tracer,
    untraced_baseline: bool,
    problems: &mut Vec<String>,
) -> Vec<Replayed> {
    let other_registry = MetricsRegistry::new();
    let chunk = if w.is_fleet() { w.round_len() } else { 1 };
    let mut out = Vec::with_capacity(served.len());
    for (c, group) in served.chunks(chunk).enumerate() {
        let jobs: Vec<(usize, &Served)> = group
            .iter()
            .enumerate()
            .map(|(i, s)| (c * chunk + i, s))
            .collect();
        let results = parallel::map(workers(w), jobs, |(i, s)| {
            let registry = if i < det_n {
                det_registry
            } else {
                &other_registry
            };
            let baseline = untraced_baseline.then_some(i % 2 == 0);
            replay_one(store, s, registry, export, baseline)
        });
        for r in results {
            match r {
                Ok(r) => out.push(r),
                Err(e) => problems.push(e),
            }
        }
    }
    out
}

/// Wall time of one campaign run exactly as the service runs it
/// (`run_campaign_observed` with a registry and no tracer), over the
/// region the traced replay times: from the working copy's clone to
/// the merged report.
fn untraced_seconds(
    artifact: &debugd::DesignArtifact,
    req: &debugd::CampaignRequest,
) -> Result<f64, String> {
    let registry = MetricsRegistry::new();
    let mut events: Vec<String> = Vec::new();
    let t = std::time::Instant::now();
    let mut td = artifact.td.clone();
    let outcome = DebugSession::new(&mut td, &artifact.golden)
        .strategy_boxed(req.strategy.instantiate())
        .flow_boxed(req.flow.instantiate())
        .patterns(req.patterns.to_spec(req.pattern_count))
        .seed(req.seed)
        .confirm_with_control(req.confirm_with_control)
        .on_event(|e| {
            let seq = events.len();
            events.push(event_json(seq, e));
        })
        .metrics(&registry)
        .run_campaign(&req.error_seeds);
    let report = outcome.map(|c| DebugReport::from_outcomes(&c.iterations));
    let secs = t.elapsed().as_secs_f64();
    report.map_err(|e| format!("{}: untraced replay: {e}", req.id))?;
    Ok(secs)
}

/// `baseline_first` times an untraced run of the same request before
/// (`Some(true)`) or after (`Some(false)`) the traced one, or none.
fn replay_one(
    store: &ArtifactStore,
    served: &Served,
    registry: &MetricsRegistry,
    export: &Tracer,
    baseline_first: Option<bool>,
) -> Result<Replayed, String> {
    let req = &served.req;
    let id = &req.id;
    let artifact = store.get_or_build(req).map_err(|e| format!("{id}: {e}"))?;
    let mut untraced_s = None;
    if baseline_first == Some(true) {
        untraced_s = Some(untraced_seconds(&artifact, req)?);
    }
    // A tracer per campaign keeps span accounting linear in the run;
    // its spans are copied to the run-wide export afterwards.
    let tracer = Arc::new(Tracer::new());
    let track = tracer.track(&format!("campaign {id}"));
    let probe = Probe::new(Arc::clone(&tracer), track);
    let mut events: Vec<String> = Vec::new();
    let offset_us = export.now_us();
    let c0 = tracer.now_us();
    let mut td = artifact.td.clone();
    let outcome = DebugSession::new(&mut td, &artifact.golden)
        .strategy_boxed(Box::new(TimedStrategy::new(
            req.strategy.instantiate(),
            Arc::clone(&probe),
        )))
        .flow_boxed(Box::new(TimedFlow::new(
            req.flow.instantiate(),
            Arc::clone(&probe),
        )))
        .patterns(req.patterns.to_spec(req.pattern_count))
        .seed(req.seed)
        .confirm_with_control(req.confirm_with_control)
        .on_event(|e| {
            let seq = events.len();
            events.push(event_json(seq, e));
        })
        .metrics(registry)
        .trace(&tracer, track)
        .run_campaign(&req.error_seeds);
    let report = outcome
        .as_ref()
        .ok()
        .map(|c| DebugReport::from_outcomes(&c.iterations));
    let c1 = tracer.now_us();
    let spans = tracer.spans();
    if baseline_first == Some(false) {
        untraced_s = Some(untraced_seconds(&artifact, req)?);
    }

    let etrack = export.track(&format!("campaign {id}"));
    export.add_span_at(
        etrack,
        &format!("campaign {id}"),
        "campaign",
        offset_us,
        c1 - c0,
        report.as_ref().map_or(0, |r| r.ledger.total().total()),
    );
    for s in &spans {
        export.add_span_at(
            etrack,
            &s.name,
            &s.cat,
            offset_us + s.start_us.saturating_sub(c0),
            s.dur_us,
            s.effort_units,
        );
    }

    // Equality with the untraced service run.
    let status = if outcome.is_ok() {
        "completed"
    } else {
        "failed"
    };
    if status != served.status.name() {
        return Err(format!(
            "{id}: traced status {status}, service status {}",
            served.status.name()
        ));
    }
    if report != served.report {
        return Err(format!(
            "{id}: traced report differs from the service report"
        ));
    }
    if events_digest(&events) != served.events {
        return Err(format!(
            "{id}: traced event stream differs from the service's"
        ));
    }
    // The scalar oracle on the repaired design, outside the timed
    // region.
    let mut repaired = false;
    if let Some(report) = &report {
        let patterns = req
            .patterns
            .to_spec(req.pattern_count)
            .generate(&artifact.golden, req.seed);
        let equivalent = oracle::scalar_equivalent(&artifact.golden, &td.netlist, patterns)
            .map_err(|e| format!("{id}: oracle: {e}"))?;
        let claimed = report.repaired == report.iterations;
        if equivalent != claimed {
            return Err(format!(
                "{id}: report claims repaired={claimed}, scalar oracle says equivalent={equivalent}"
            ));
        }
        repaired = claimed;
    }
    // Span accounting on the tracer's microsecond clock: every span
    // lies inside the campaign, two independent splits agree, and the
    // layers add up to the campaign exactly.
    if let Some(s) = spans
        .iter()
        .find(|s| s.start_us < c0 || s.start_us + s.dur_us > c1)
    {
        return Err(format!(
            "{id}: {} span {} lies outside the campaign",
            s.cat, s.name
        ));
    }
    let layers = probe::self_times(&spans, c0, c1);
    let tree = probe::tree_self_times(&spans, c0, c1).map_err(|e| format!("{id}: {e}"))?;
    if tree != layers || layers.total() != c1 - c0 {
        return Err(format!(
            "{id}: layer self times {layers:?} (span tree: {tree:?}) do not split the \
             campaign's {} us",
            c1 - c0
        ));
    }
    // Every effort unit the flow reports is charged to the ledger.
    let flow_units: u64 = spans
        .iter()
        .filter(|s| s.cat == probe::CAT_FLOWS)
        .map(|s| s.effort_units)
        .sum();
    if let Some(report) = &report {
        if flow_units != report.ledger.total().total() {
            return Err(format!(
                "{id}: flow spans carry {flow_units} effort units, the ledger {}",
                report.ledger.total().total()
            ));
        }
    }
    Ok(Replayed {
        design: req.design.name(),
        flow: req.flow.name(),
        errors: req.error_seeds.len(),
        repaired,
        wall_s: (c1 - c0) as f64 * 1e-6,
        untraced_s,
        layers,
        counts: probe.counts(),
        flow_units,
        confirms: probe::nested_confirms(&spans),
    })
}

/// Checks that the registry series the session records — per-phase
/// effort, ECOs and tiles, and the evidence counters — are identical
/// between the service's deterministic prefix and its traced replay.
pub fn compare_registries(
    service: &MetricsSnapshot,
    traced: &MetricsSnapshot,
    problems: &mut Vec<String>,
) {
    let mut series: Vec<(String, Vec<(&str, &str)>)> = Vec::new();
    for ph in Phase::ALL {
        for what in [
            "effort_units",
            "place_moves",
            "route_expansions",
            "ecos",
            "tiles_cleared",
        ] {
            series.push((
                format!("session_phase_{what}_total"),
                vec![("phase", ph.name())],
            ));
        }
    }
    for what in [
        "verdict_cache_hits",
        "verdict_cache_misses",
        "onset_clamps",
        "exonerations",
        "window_shrinks",
    ] {
        series.push((format!("evidence_{what}_total"), Vec::new()));
    }
    for (name, labels) in series {
        let (a, b) = (
            service.value_u64(&name, &labels),
            traced.value_u64(&name, &labels),
        );
        if a != b {
            problems.push(format!("{name}{labels:?}: service {a}, traced replay {b}"));
        }
    }
}
