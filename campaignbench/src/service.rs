//! The measured side: cold set-ups, and the closed loop that runs a
//! workload's requests through the `debugd` service API.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use debugd::campaign::{failure_result, run_campaign_observed};
use debugd::{run_batch_observed, ArtifactStore, CampaignRequest, CampaignStatus};
use obs::{MetricsRegistry, MetricsSnapshot, Tracer};
use tiling::report::DebugReport;

use crate::hostspeed::HostSpeed;
use crate::workloads::Workload;

/// Probe readings taken before and after each fleet batch: a batch
/// lasts seconds, so a single reading either side would be too few.
const FLEET_READINGS: usize = 16;

/// Pool width of a workload: the host's cores for the fleet, one
/// client otherwise.
pub fn workers(w: Workload) -> usize {
    if w.is_fleet() {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        1
    }
}

/// One cold set-up through the service API: a fresh store builds every
/// artifact the workload uses (synth generate + implement), then each
/// gets the DRC pre-flight. Returns the store and the seconds taken.
pub fn setup_store(w: Workload) -> Result<(ArtifactStore, f64), String> {
    let t = Instant::now();
    let store = ArtifactStore::new();
    for &design in w.designs() {
        let artifact = store
            .get_or_build(&Workload::setup_request(design))
            .map_err(|e| format!("set-up of {design}: {e}"))?;
        tiling::preflight(&artifact.td).map_err(|e| format!("pre-flight of {design}: {e}"))?;
    }
    Ok((store, t.elapsed().as_secs_f64()))
}

/// Set-up split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    /// `PaperDesign::generate` seconds.
    pub generate_s: f64,
    /// `tiling::implement` seconds.
    pub implement_s: f64,
    /// `tiling::preflight` seconds.
    pub preflight_s: f64,
    /// Pre-flight findings, warnings included.
    pub findings: usize,
}

/// The same set-up as [`setup_store`] from direct timed calls to each
/// layer, with the options the store implements with.
pub fn setup_layers(w: Workload) -> Result<SetupLayers, String> {
    let mut out = SetupLayers::default();
    for &design in w.designs() {
        let req = Workload::setup_request(design);
        let t = Instant::now();
        let bundle = design.generate().map_err(|e| e.to_string())?;
        out.generate_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let td = tiling::implement(
            bundle.netlist,
            bundle.hierarchy,
            debugd::artifacts::implement_options(design, req.target_tiles, req.impl_seed),
        )
        .map_err(|e| format!("implement {design}: {e}"))?;
        out.implement_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let found = tiling::preflight(&td).map_err(|e| format!("pre-flight of {design}: {e}"))?;
        out.preflight_s += t.elapsed().as_secs_f64();
        out.findings += found.len();
    }
    Ok(out)
}

/// A digest of a campaign's event stream, so the loop keeps a number
/// per campaign rather than the stream itself (which would inflate
/// the benchmark's own memory and with it `peak_rss_mb`).
pub fn events_digest(events: &[String]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    events.hash(&mut h);
    h.finish()
}

/// One campaign the service ran in the measured loop.
pub struct Served {
    /// The request.
    pub req: CampaignRequest,
    /// How it ended.
    pub status: CampaignStatus,
    /// The service's report (completed campaigns only).
    pub report: Option<DebugReport>,
    /// [`events_digest`] of the service's event stream.
    pub events: u64,
    /// Service latency as measured, from submission to result: timed
    /// by the client for single-client workloads; for the fleet, from
    /// the batch's submission to the end of the service's own span for
    /// the campaign, so it includes the time queued behind others.
    pub wall_s: f64,
    /// [`Served::wall_s`] scaled to the quiet reference host.
    pub latency_s: f64,
}

/// What one measured loop produced.
pub struct ServiceRun {
    /// Every campaign, in request order.
    pub served: Vec<Served>,
    /// Time of the timed steps (campaigns, or fleet batches), summed
    /// as measured.
    pub raw_service_s: f64,
    /// The same, each step scaled to the quiet reference host.
    pub service_s: f64,
    /// Length of the deterministic prefix.
    pub det_n: usize,
    /// Registry snapshot after exactly the deterministic prefix.
    pub det_snapshot: MetricsSnapshot,
    /// Worker busy time over worker wall time.
    pub utilization: f64,
    /// Pool steals.
    pub steals: usize,
    /// Pool queue high-water mark.
    pub peak_queued: usize,
}

/// The measured closed loop: runs whole rounds until `budget_s` has
/// passed and at least `min_n` campaigns and the deterministic prefix
/// are done. Stopping on a round boundary keeps the template mix of
/// every run the same.
///
/// Single-client workloads time `get_or_build` + `run_campaign_observed`
/// per request, with the metrics registry the service's batch path also
/// attaches and no tracer. The fleet runs one `run_batch_observed` per
/// round; a campaign's latency runs from the batch's submission to the
/// end of the service's own span for it, so those batches carry a
/// tracer (a few spans per campaign).
///
/// `speed` is read between timed steps — once after a campaign,
/// [`FLEET_READINGS`] times around a batch — and every step's time is
/// scaled by the readings around it.
pub fn serve(
    w: Workload,
    store: &ArtifactStore,
    seed: u64,
    budget_s: f64,
    min_n: usize,
    speed: &mut HostSpeed,
) -> ServiceRun {
    let det_n = w.det_campaigns(budget_s);
    let round = w.round_len();
    let workers = workers(w);
    let mut stream = w.stream(seed);
    let registry = MetricsRegistry::new();
    let mut det_snapshot = None;
    let mut served: Vec<Served> = Vec::new();
    let (mut busy_s, mut steals, mut peak_queued) = (0.0, 0, 0);
    // Per timed step: where it lies on the probe's clock, its measured
    // time, and the served campaigns it covers.
    let mut steps: Vec<(f64, f64, f64, std::ops::Range<usize>)> = Vec::new();
    let readings = if w.is_fleet() { FLEET_READINGS } else { 1 };
    speed.read(readings);
    let t0 = Instant::now();
    loop {
        let first = served.len();
        let from = speed.now();
        let step_s;
        if w.is_fleet() {
            let batch = stream.next_round();
            let tracer = Tracer::new();
            let outcome = run_batch_observed(store, &batch, workers, &registry, Some(&tracer));
            let spans: BTreeMap<String, u64> = tracer
                .spans()
                .into_iter()
                .filter(|s| s.cat == "campaign")
                .map(|s| (s.name, s.start_us + s.dur_us))
                .collect();
            let t = &outcome.telemetry;
            step_s = t.wall.as_secs_f64();
            busy_s += t.worker_utilization * t.wall.as_secs_f64() * t.workers as f64;
            steals += t.steals;
            peak_queued = peak_queued.max(t.peak_queued);
            for (req, result) in batch.into_iter().zip(outcome.results) {
                let us = spans
                    .get(&format!("campaign {}", req.id))
                    .copied()
                    .unwrap_or(0);
                served.push(Served {
                    req,
                    status: result.status,
                    report: result.report,
                    events: events_digest(&result.events),
                    wall_s: us as f64 * 1e-6,
                    latency_s: 0.0,
                });
            }
        } else {
            let req = stream.next_request();
            let t = Instant::now();
            let result = match store.get_or_build(&req) {
                Ok(artifact) => run_campaign_observed(&artifact, &req, Some(&registry), None),
                Err(e) => failure_result(&req, CampaignStatus::Failed(e.to_string()), Vec::new()),
            };
            step_s = t.elapsed().as_secs_f64();
            busy_s += step_s;
            served.push(Served {
                req,
                status: result.status,
                report: result.report,
                events: events_digest(&result.events),
                wall_s: step_s,
                latency_s: 0.0,
            });
        }
        steps.push((from, speed.now(), step_s, first..served.len()));
        speed.read(readings);
        if served.len() == det_n {
            det_snapshot = Some(registry.snapshot());
        }
        if served.len().is_multiple_of(round)
            && served.len() >= det_n.max(min_n)
            && t0.elapsed().as_secs_f64() >= budget_s
        {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (mut raw_service_s, mut service_s) = (0.0, 0.0);
    for (from, to, step_s, range) in steps {
        raw_service_s += step_s;
        service_s += speed.scale(step_s, from, to);
        for s in &mut served[range] {
            s.latency_s = speed.scale(s.wall_s, from, to);
        }
    }
    ServiceRun {
        served,
        raw_service_s,
        service_s,
        det_n,
        det_snapshot: det_snapshot.expect("the deterministic prefix is a whole number of rounds"),
        utilization: busy_s / (wall_s * workers as f64),
        steals,
        peak_queued,
    }
}
