//! `campaignbench` — debug campaigns end to end through the `debugd`
//! service API, and a traced pass that splits campaign time by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path campaignbench/Cargo.toml -- \
//!     --workload seq-tiled --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracer on the
//! measured path, then replays every [`ORACLE_EVERY`]th round through
//! the session API to check the service's outputs. `--trace 1` runs the
//! service loop for a quarter of the time, replays every campaign it
//! served through a traced `DebugSession`, and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object and everything else goes to standard error; a failed check
//! exits 1. See `README.md`.

mod hostspeed;
mod oracle;
mod probe;
mod replay;
mod service;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use debugd::{ArtifactStore, CampaignStatus};
use obs::{MetricsRegistry, Tracer};
use tiling::effort::Phase;

use hostspeed::HostSpeed;
use probe::{Layer, LayerTimes, ProbeCounts};
use replay::Replayed;
use service::Served;
use workloads::Workload;

/// Cold set-ups per run; the set-up metrics are their minima. The
/// `--trace 0` pass runs half of them before the measured loop and half
/// after it, so they sample the host at two moments.
const SETUP_REPS: usize = 8;
/// Host-speed probe readings before and after each timed set-up.
const SETUP_READINGS: usize = 16;
/// The `--trace 0` pass oracle-checks round 0 and every
/// `ORACLE_EVERY`th round after it.
const ORACLE_EVERY: usize = 8;
/// Campaigns the tail percentile must leave beyond it. Twenty rather
/// than ten puts the tail of a 200-campaign run at about p90, where its
/// seed-to-seed spread is smallest, while runs of a thousand or more
/// reach the p95 cap.
const TAIL_BEYOND: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SeqTiled,
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?;
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "campaignbench: refusing to measure a debug build (place-and-route is 10-20x \
             slower there); build with --release"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            return ExitCode::from(2);
        }
    };
    print_host();
    eprintln!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        traced_mode(&args)
    } else {
        untraced_mode(&args)
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            return ExitCode::from(1);
        }
    };
    for problem in &out.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    eprintln!("{:<30} {:>18}  unit", "metric", "value");
    for m in &out.metrics {
        eprintln!("{:<30} {:>18.6}  {}", m.name, m.value, m.unit);
    }
    println!("{}", out.to_json());
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ---------------------------------------------------------------- output

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Output {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Failed correctness, equality or accounting checks; any entry
    /// makes the run incorrect.
    problems: Vec<String>,
}

impl Output {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts attempted and failed campaigns; every campaign that did
    /// not complete is also a problem.
    fn count(&mut self, served: &[Served]) {
        self.attempted = served.len();
        for s in served
            .iter()
            .filter(|s| s.status != CampaignStatus::Completed)
        {
            self.failed += 1;
            self.problems.push(format!("{}: {:?}", s.req.id, s.status));
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// FNV-1a over the selected metrics, printed so two runs of one
    /// seed can be compared at a glance.
    fn digest(&self, select: impl Fn(&Metric) -> bool) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for m in self.metrics.iter().filter(|m| select(m)) {
            for b in format!("{}={};", m.name, m.value).bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

fn print_host() {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    eprintln!(
        "host: nproc {nproc}, cpu {cpu}, commit {}, build release",
        commit()
    );
}

/// The checked-out commit, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let sha = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head,
    };
    match sha.trim() {
        "" => "unknown (not a git checkout)".into(),
        s => s.to_string(),
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One cold set-up through the service API, between host-speed
/// readings. Returns the store and records the set-up's place on the
/// probe's clock and its measured seconds in `spans`, to be scaled to
/// the quiet reference host (see [`hostspeed`]) once the probe has read
/// past it.
fn timed_setup(
    w: Workload,
    speed: &mut HostSpeed,
    spans: &mut Vec<(f64, f64, f64)>,
) -> Result<ArtifactStore, String> {
    speed.read(SETUP_READINGS);
    let from = speed.now();
    let (store, secs) = service::setup_store(w)?;
    spans.push((from, speed.now(), secs));
    speed.read(SETUP_READINGS);
    Ok(store)
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail latency: the highest nearest-rank percentile with at least
/// [`TAIL_BEYOND`] samples above it, capped at p95, as `(value,
/// percentile)`; none until it lies above the median. Without the cap
/// a thousand-campaign run would report its twentieth-slowest campaign,
/// which one heavy campaign more or less moves by a quarter.
fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len().checked_sub(TAIL_BEYOND.max(v.len() / 20))?;
    (2 * rank > v.len()).then(|| (v[rank - 1], 100.0 * rank as f64 / v.len() as f64))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---------------------------------------------------------------- modes

/// End-to-end metrics, measured with no tracer on the measured path.
fn untraced_mode(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    let mut speed = HostSpeed::new();
    let mut setup_spans = Vec::with_capacity(SETUP_REPS);
    let mut store = None;
    for _ in 0..SETUP_REPS / 2 {
        store = Some(timed_setup(w, &mut speed, &mut setup_spans)?);
    }
    let store = store.expect("at least one set-up");
    let run = service::serve(
        w,
        &store,
        args.seed,
        args.seconds,
        2 * TAIL_BEYOND + 1,
        &mut speed,
    );
    let mut out = Output::default();
    out.count(&run.served);

    // Check the service's outputs: replay a sample of whole rounds
    // through the session API against the scalar oracle. Not timed.
    let round = w.round_len();
    let mut replayed = Vec::new();
    for start in (0..run.served.len()).step_by(ORACLE_EVERY * round) {
        replayed.extend(replay::replay(
            w,
            &store,
            &run.served[start..start + round],
            0,
            &MetricsRegistry::new(),
            &Tracer::new(),
            false,
            &mut out.problems,
        ));
    }
    let peak_rss = peak_rss_mb();
    drop(store);
    for _ in SETUP_REPS / 2..SETUP_REPS {
        timed_setup(w, &mut speed, &mut setup_spans)?;
    }
    let setups: Vec<f64> = setup_spans
        .iter()
        .map(|&(from, to, secs)| speed.scale(secs, from, to))
        .collect();
    let raw_setups: Vec<f64> = setup_spans.iter().map(|s| s.2).collect();

    let n = run.served.len() as f64;
    let latencies: Vec<f64> = run.served.iter().map(|s| s.latency_s).collect();
    let raw: Vec<f64> = run.served.iter().map(|s| s.wall_s).collect();
    let (tail_s, tail_pct) = tail(&latencies).ok_or_else(|| {
        format!("{n} campaigns are too few for a tail with {TAIL_BEYOND} beyond it")
    })?;
    let completed = run.served.len() - out.failed;
    let checked = (round * run.served.len().div_ceil(ORACLE_EVERY * round)) as f64;
    let repaired = replayed.iter().filter(|r| r.repaired).count();
    let det: Vec<_> = run.served[..run.det_n]
        .iter()
        .filter_map(|s| s.report.as_ref())
        .collect();
    let det_n = run.det_n as f64;
    let det_ecos: usize = det.iter().map(|r| r.ledger.total_ecos()).sum();
    let det_units: u64 = det.iter().map(|r| r.ledger.total().total()).sum();
    out.push("setup_s", min(&setups), "s");
    out.push("campaign_p50_s", median(&latencies), "s");
    out.push("campaign_tail_s", tail_s, "s");
    out.push("campaigns_per_s", completed as f64 / run.service_s, "1/s");
    out.push("repaired_frac", repaired as f64 / checked, "ratio");
    out.push("ecos_per_campaign", det_ecos as f64 / det_n, "count");
    out.push("pnr_effort_per_campaign", det_units as f64 / det_n, "units");
    out.push("peak_rss_mb", peak_rss, "MB");
    eprintln!(
        "campaign_p50_s and campaign_tail_s (p{tail_pct:.1}) over {} campaigns; \
         repaired_frac over the {checked} oracle-checked campaigns; failed_frac {}; \
         set-ups {setups:?}",
        run.served.len(),
        out.failed as f64 / n
    );
    eprintln!(
        "as measured, before scaling to the quiet reference host: campaign_p50_s {:.6}, \
         campaign_tail_s {:.6}, campaigns_per_s {:.4}, setup_s {:.6}; host-speed probe \
         median {:.1} us over the run (reference {:.1} us)",
        median(&raw),
        tail(&raw).map_or(0.0, |t| t.0),
        completed as f64 / run.raw_service_s,
        min(&raw_setups),
        speed.median_probe_s() * 1e6,
        hostspeed::REFERENCE_PROBE_S * 1e6
    );
    eprintln!(
        "deterministic digest {:016x} (ecos and effort over the first {} campaigns)",
        out.digest(|m| m.name == "ecos_per_campaign" || m.name == "pnr_effort_per_campaign"),
        run.det_n
    );
    Ok(out)
}

/// Per-layer metrics from the traced replay of a shorter service loop.
fn traced_mode(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        setup.push(service::setup_layers(w)?);
    }
    let (store, _) = service::setup_store(w)?;
    // A quarter of the budget: the loop plus its untraced and traced
    // replays then take less time than an untraced run.
    let run = service::serve(
        w,
        &store,
        args.seed,
        args.seconds / 4.0,
        1,
        &mut HostSpeed::new(),
    );
    let (builds, hits) = store.stats();
    let mut out = Output::default();
    out.count(&run.served);

    let det_registry = MetricsRegistry::new();
    let export = Tracer::new();
    let replayed = replay::replay(
        w,
        &store,
        &run.served,
        run.det_n,
        &det_registry,
        &export,
        true,
        &mut out.problems,
    );
    let snap = det_registry.snapshot();
    replay::compare_registries(&run.det_snapshot, &snap, &mut out.problems);
    let base =
        obs::artifact_base(&format!("campaignbench-{}", w.name())).map_err(|e| e.to_string())?;
    let path = format!("{}.trace.json", base.display());
    std::fs::write(&path, export.to_chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "chrome trace of {} campaigns written to {path}",
        replayed.len()
    );

    // Counts over the deterministic prefix (a campaign that failed its
    // replay is already a problem), times over every replayed campaign.
    let dn = run.det_n as f64;
    let mut det = ProbeCounts::default();
    for r in replayed.iter().take(run.det_n) {
        det.add(&r.counts);
    }
    let mut layers = LayerTimes::default();
    let (mut traced_s, mut untraced_s, mut flow_units) = (0.0, 0.0, 0);
    for r in &replayed {
        layers.add(&r.layers);
        traced_s += r.wall_s;
        untraced_s += r.untraced_s.unwrap_or(0.0);
        flow_units += r.flow_units;
    }
    let n = replayed.len().max(1) as f64;
    let evidence = |what: &str| snap.value_u64(&format!("evidence_{what}_total"), &[]) as f64;
    let setup_min =
        |f: fn(&service::SetupLayers) -> f64| min(&setup.iter().map(f).collect::<Vec<_>>());

    out.push("synth.generate_s", setup_min(|s| s.generate_s), "s");
    out.push("tiling.implement_s", setup_min(|s| s.implement_s), "s");
    out.push("drc.preflight_s", setup_min(|s| s.preflight_s), "s");
    out.push("drc.findings", setup[0].findings as f64, "count");
    out.push("flows.eco_calls", det.eco_calls as f64 / dn, "count");
    out.push(
        "flows.eco_place_moves",
        det.place_moves as f64 / dn,
        "count",
    );
    out.push(
        "flows.eco_route_expansions",
        det.route_expansions as f64 / dn,
        "count",
    );
    out.push(
        "flows.eco_rerouted_nets",
        det.rerouted_nets as f64 / dn,
        "count",
    );
    out.push(
        "flows.eco_replaced_cells",
        det.replaced_cells as f64 / dn,
        "count",
    );
    out.push(
        "flows.eco_tiles_cleared",
        det.tiles_cleared as f64 / dn,
        "count",
    );
    out.push(
        "flows.eco_confined_ratio",
        ratio(det.eco_confined as f64, det.eco_calls as f64),
        "ratio",
    );
    out.push(
        "flows.eco_us_per_unit",
        ratio(layers.get(Layer::Flows) as f64, flow_units as f64),
        "us/unit",
    );
    for layer in Layer::ALL {
        out.push(layer.metric(), layers.get(layer) as f64 * 1e-6 / n, "s");
    }
    for (ph, name) in [
        (Phase::Detect, "session.detect_effort"),
        (Phase::Localize, "session.localize_effort"),
        (Phase::Confirm, "session.confirm_effort"),
        (Phase::Correct, "session.correct_effort"),
    ] {
        let units = snap.value_u64("session_phase_effort_units_total", &[("phase", ph.name())]);
        out.push(name, units as f64 / dn, "units");
    }
    out.push("strategy.rounds", det.strategy_rounds as f64 / dn, "count");
    out.push("strategy.taps", det.strategy_taps as f64 / dn, "count");
    out.push(
        "diagnosis.verdict_hit_ratio",
        ratio(
            evidence("verdict_cache_hits"),
            evidence("verdict_cache_hits") + evidence("verdict_cache_misses"),
        ),
        "ratio",
    );
    out.push(
        "diagnosis.window_shrinks",
        evidence("window_shrinks") / dn,
        "count",
    );
    out.push(
        "diagnosis.exonerations",
        evidence("exonerations") / dn,
        "count",
    );
    out.push("debugd.artifact_builds", builds as f64, "count");
    out.push("debugd.artifact_hits", hits as f64, "count");
    out.push("parallel.utilization", run.utilization, "ratio");
    out.push("parallel.steals", run.steals as f64, "count");
    out.push("parallel.peak_queued", run.peak_queued as f64, "count");
    out.push("trace.campaign_s", traced_s / n, "s");
    out.push(
        "trace.overhead_frac",
        ratio(traced_s, untraced_s) - 1.0,
        "ratio",
    );

    eprintln!(
        "deterministic digest {:016x} (counts over the first {} campaigns; {} replayed)",
        out.digest(is_count),
        run.det_n,
        replayed.len()
    );
    print_layer_table(&replayed);
    Ok(out)
}

/// The per-layer metrics that count work over the deterministic prefix.
fn is_count(m: &Metric) -> bool {
    ["flows.", "strategy.", "diagnosis.", "session."]
        .iter()
        .any(|p| m.name.starts_with(p))
        && !["s", "us/unit"].contains(&m.unit)
}

/// Where campaign time goes, per design, flow and error budget: the
/// answer to "which layer dominates a styr campaign".
fn print_layer_table(replayed: &[Replayed]) {
    let mut groups: BTreeMap<(&str, &str, usize), (usize, LayerTimes)> = BTreeMap::new();
    for r in replayed {
        let g = groups.entry((r.design, r.flow, r.errors)).or_default();
        g.0 += 1;
        g.1.add(&r.layers);
    }
    let mut header = format!(
        "{:<6} {:<12} {:>2} {:>5} {:>9}",
        "design", "flow", "k", "n", "mean_ms"
    );
    for layer in Layer::ALL {
        header.push_str(&format!(" {:>10}", layer.short()));
    }
    eprintln!("share of campaign wall time by layer (self time, %):");
    eprintln!("{header}  dominant");
    for ((design, flow, k), (n, t)) in &groups {
        let total = t.total().max(1) as f64;
        let mut line = format!(
            "{design:<6} {flow:<12} {k:>2} {n:>5} {:>9.2}",
            t.total() as f64 / 1e3 / *n as f64
        );
        for layer in Layer::ALL {
            line.push_str(&format!(" {:>10.1}", 100.0 * t.get(layer) as f64 / total));
        }
        let dominant = Layer::ALL
            .into_iter()
            .max_by_key(|&l| t.get(l))
            .map_or("-", Layer::metric);
        eprintln!("{line}  {dominant}");
    }
    let mut by_k: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for r in replayed {
        let e = by_k.entry(r.errors).or_default();
        e.0 += r.confirms.0;
        e.1 += r.confirms.1;
    }
    for (k, (confirms, nested)) in by_k {
        eprintln!(
            "k={k}: {nested} of {confirms} confirm spans lie inside a localize span \
             (counted once by the union accounting)"
        );
    }
}
