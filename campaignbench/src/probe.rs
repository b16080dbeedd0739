//! Timing decorators around the session's public plug-in traits, and
//! the span accounting that turns one campaign's spans into per-layer
//! self times.
//!
//! The decorators and the session's own phase spans write to the same
//! [`Tracer`] track, so every interval is on one microsecond clock.

use std::sync::{Arc, Mutex};

use netlist::{CellId, Netlist};
use obs::{SpanRecord, Tracer, TrackId};
use tiling::diagnosis::{EvidenceBase, ObservationWindow};
use tiling::flows::ReimplFlow;
use tiling::strategy::LocalizationStrategy;
use tiling::{EcoPhysicalOutcome, TiledDesign, TilingError};

/// Span category of the flow decorator's spans.
pub const CAT_FLOWS: &str = "flows";
/// Span category of the strategy decorator's spans.
pub const CAT_STRATEGY: &str = "strategy";

/// Deterministic counts one campaign's decorators observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// `ReimplFlow::reimplement` calls.
    pub eco_calls: u64,
    /// ... of which stayed confined to the affected tiles.
    pub eco_confined: u64,
    /// Placer moves the flow reported.
    pub place_moves: u64,
    /// Router expansions the flow reported.
    pub route_expansions: u64,
    /// Nets re-routed.
    pub rerouted_nets: u64,
    /// Cells re-placed.
    pub replaced_cells: u64,
    /// Tiles cleared.
    pub tiles_cleared: u64,
    /// Non-empty `next_taps` answers (strategy rounds).
    pub strategy_rounds: u64,
    /// Cells the strategies asked to tap.
    pub strategy_taps: u64,
}

impl ProbeCounts {
    /// Element-wise sum.
    pub fn add(&mut self, o: &ProbeCounts) {
        self.eco_calls += o.eco_calls;
        self.eco_confined += o.eco_confined;
        self.place_moves += o.place_moves;
        self.route_expansions += o.route_expansions;
        self.rerouted_nets += o.rerouted_nets;
        self.replaced_cells += o.replaced_cells;
        self.tiles_cleared += o.tiles_cleared;
        self.strategy_rounds += o.strategy_rounds;
        self.strategy_taps += o.strategy_taps;
    }
}

/// One campaign's probe: where its decorators record spans and counts.
#[derive(Debug)]
pub struct Probe {
    tracer: Arc<Tracer>,
    track: TrackId,
    counts: Mutex<ProbeCounts>,
}

impl Probe {
    /// A probe writing spans onto `track`.
    pub fn new(tracer: Arc<Tracer>, track: TrackId) -> Arc<Self> {
        Arc::new(Self {
            tracer,
            track,
            counts: Mutex::new(ProbeCounts::default()),
        })
    }

    /// The counts recorded so far.
    pub fn counts(&self) -> ProbeCounts {
        *self.counts.lock().expect("probe counts poisoned")
    }

    fn update(&self, f: impl FnOnce(&mut ProbeCounts)) {
        f(&mut self.counts.lock().expect("probe counts poisoned"));
    }

    fn timed<R>(&self, name: &str, cat: &str, f: impl FnOnce() -> R) -> R {
        let t0 = self.tracer.now_us();
        let r = f();
        self.tracer.complete(self.track, name, cat, t0, 0);
        r
    }
}

/// [`ReimplFlow`] decorator: one span per ECO plus the outcome's counts.
pub struct TimedFlow {
    inner: Box<dyn ReimplFlow>,
    probe: Arc<Probe>,
}

impl TimedFlow {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ReimplFlow>, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl ReimplFlow for TimedFlow {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reimplement(
        &mut self,
        td: &mut TiledDesign,
        seeds: &[CellId],
        added: &[CellId],
    ) -> Result<EcoPhysicalOutcome, TilingError> {
        let t0 = self.probe.tracer.now_us();
        let result = self.inner.reimplement(td, seeds, added);
        let units = result.as_ref().map_or(0, |o| o.effort.total());
        self.probe
            .tracer
            .complete(self.probe.track, "eco", CAT_FLOWS, t0, units);
        if let Ok(o) = &result {
            self.probe.update(|c| {
                c.eco_calls += 1;
                c.eco_confined += u64::from(o.confined);
                c.place_moves += o.effort.place_moves;
                c.route_expansions += o.effort.route_expansions;
                c.rerouted_nets += o.rerouted_nets as u64;
                c.replaced_cells += o.replaced_cells as u64;
                c.tiles_cleared += o.affected.tiles.len() as u64;
            });
        }
        result
    }
}

/// [`LocalizationStrategy`] decorator: one span per call that does
/// work, plus round and tap counts. `fresh` hands out decorated
/// instances, so the per-error strategies the scheduler clones from
/// the session's prototype are timed too.
pub struct TimedStrategy {
    inner: Box<dyn LocalizationStrategy>,
    probe: Arc<Probe>,
}

impl TimedStrategy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn LocalizationStrategy>, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl LocalizationStrategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fresh(&self) -> Box<dyn LocalizationStrategy> {
        Box::new(TimedStrategy::new(
            self.inner.fresh(),
            Arc::clone(&self.probe),
        ))
    }

    fn begin(&mut self, golden: &Netlist, suspects: &[CellId]) {
        let inner = &mut self.inner;
        self.probe.timed("begin", CAT_STRATEGY, || {
            inner.begin(golden, suspects);
        });
    }

    fn next_taps(&mut self) -> Vec<CellId> {
        let inner = &mut self.inner;
        let taps = self
            .probe
            .timed("next_taps", CAT_STRATEGY, || inner.next_taps());
        if !taps.is_empty() {
            self.probe.update(|c| {
                c.strategy_rounds += 1;
                c.strategy_taps += taps.len() as u64;
            });
        }
        taps
    }

    fn observe(&mut self, evidence: &EvidenceBase, window: &ObservationWindow) {
        let inner = &mut self.inner;
        self.probe.timed("observe", CAT_STRATEGY, || {
            inner.observe(evidence, window);
        });
    }

    fn localized(&self) -> Option<CellId> {
        self.inner.localized()
    }
}

/// The layers a campaign's wall time is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The session's per-campaign DRC pre-flight span.
    Preflight,
    /// Self time of `detect` phase spans.
    Detect,
    /// Self time of `localize` phase spans.
    Localize,
    /// Self time of `confirm` phase spans.
    Confirm,
    /// Self time of `correct` phase spans.
    Correct,
    /// Time inside `ReimplFlow` calls.
    Flows,
    /// Time inside `LocalizationStrategy` calls.
    Strategy,
    /// Campaign time no span covers.
    Unspanned,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Preflight,
        Layer::Detect,
        Layer::Localize,
        Layer::Confirm,
        Layer::Correct,
        Layer::Flows,
        Layer::Strategy,
        Layer::Unspanned,
    ];

    /// The per-layer metric name.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Preflight => "session.preflight_s",
            Layer::Detect => "session.detect_s",
            Layer::Localize => "session.localize_s",
            Layer::Confirm => "session.confirm_s",
            Layer::Correct => "session.correct_s",
            Layer::Flows => "flows.eco_s",
            Layer::Strategy => "strategy.s",
            Layer::Unspanned => "session.unspanned_s",
        }
    }

    /// A short column label.
    pub fn short(self) -> &'static str {
        match self {
            Layer::Preflight => "preflight",
            Layer::Detect => "detect",
            Layer::Localize => "localize",
            Layer::Confirm => "confirm",
            Layer::Correct => "correct",
            Layer::Flows => "flows",
            Layer::Strategy => "strategy",
            Layer::Unspanned => "unspanned",
        }
    }

    fn of(span: &SpanRecord) -> Option<Layer> {
        match (span.cat.as_str(), span.name.as_str()) {
            (CAT_FLOWS, _) => Some(Layer::Flows),
            (CAT_STRATEGY, _) => Some(Layer::Strategy),
            ("drc", "preflight") => Some(Layer::Preflight),
            ("phase", "detect") => Some(Layer::Detect),
            ("phase", "localize") => Some(Layer::Localize),
            ("phase", "confirm") => Some(Layer::Confirm),
            ("phase", "correct") => Some(Layer::Correct),
            _ => None,
        }
    }

    /// Decorator spans are leaves: nothing the program times runs
    /// inside a flow or strategy call.
    fn is_leaf(self) -> bool {
        matches!(self, Layer::Flows | Layer::Strategy)
    }
}

/// Microseconds per layer for one campaign, indexed like [`Layer::ALL`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes(pub [u64; 8]);

impl LayerTimes {
    /// One layer's microseconds.
    pub fn get(&self, layer: Layer) -> u64 {
        self.0[Layer::ALL.iter().position(|&l| l == layer).expect("listed")]
    }

    /// Sum over layers (the campaign's microseconds).
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Element-wise sum.
    pub fn add(&mut self, o: &LayerTimes) {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
    }

    fn bump(&mut self, layer: Layer, us: u64) {
        self.0[Layer::ALL.iter().position(|&l| l == layer).expect("listed")] += us;
    }
}

/// Attributed spans of one campaign, with the layer they belong to,
/// clipped to the campaign interval.
fn layered(spans: &[SpanRecord], c0: u64, c1: u64) -> Vec<(Layer, u64, u64)> {
    spans
        .iter()
        .filter_map(|s| {
            let layer = Layer::of(s)?;
            let (a, b) = (s.start_us.max(c0), (s.start_us + s.dur_us).min(c1));
            (b > a).then_some((layer, a, b))
        })
        .collect()
}

/// Splits the campaign interval `[c0, c1)` into layer self times by
/// interval union. Every microsecond goes to exactly one layer: a
/// decorator span if one covers it, otherwise the innermost (latest
/// starting) session span covering it, otherwise
/// [`Layer::Unspanned`]. Nested spans — `confirm` inside `localize`
/// on the serial path — are therefore counted once.
pub fn self_times(spans: &[SpanRecord], c0: u64, c1: u64) -> LayerTimes {
    let spans = layered(spans, c0, c1);
    let mut cuts: Vec<u64> = vec![c0, c1];
    for &(_, a, b) in &spans {
        cuts.push(a);
        cuts.push(b);
    }
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = LayerTimes::default();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let covering = spans.iter().filter(|&&(_, s, e)| s <= a && e >= b);
        let owner = covering
            .max_by_key(|&&(layer, s, e)| (layer.is_leaf(), s, std::cmp::Reverse(e)))
            .map_or(Layer::Unspanned, |&(layer, _, _)| layer);
        out.bump(owner, b - a);
    }
    out
}

/// `(confirm spans, confirm spans inside a localize span)`: the serial
/// path confirms from within localization, the concurrent path after
/// it.
pub fn nested_confirms(spans: &[SpanRecord]) -> (usize, usize) {
    let phase = |name: &'static str| {
        spans
            .iter()
            .filter(move |s| s.cat == "phase" && s.name == name)
    };
    let confirms = phase("confirm").count();
    let nested = phase("confirm")
        .filter(|c| {
            phase("localize")
                .any(|l| l.start_us <= c.start_us && c.start_us + c.dur_us <= l.start_us + l.dur_us)
        })
        .count();
    (confirms, nested)
}

/// Self times computed a second way, from the span tree: each span's
/// duration minus its direct children's, and the campaign minus its
/// top-level spans. Fails when spans overlap without nesting, since
/// then no tree exists and "self time" has no single meaning.
pub fn tree_self_times(spans: &[SpanRecord], c0: u64, c1: u64) -> Result<LayerTimes, String> {
    let mut spans = layered(spans, c0, c1);
    // Parents before children: earlier start first, longer first,
    // session spans before the decorator spans they contain.
    spans.sort_by_key(|&(layer, s, e)| (s, std::cmp::Reverse(e), layer.is_leaf()));
    let mut out = LayerTimes::default();
    out.bump(Layer::Unspanned, c1 - c0);
    // Open ancestors: (layer, end).
    let mut stack: Vec<(Layer, u64)> = Vec::new();
    for &(layer, s, e) in &spans {
        while stack.last().is_some_and(|&(_, end)| end <= s) {
            stack.pop();
        }
        match stack.last() {
            Some(&(parent, end)) => {
                if e > end {
                    return Err(format!(
                        "{layer:?} span [{s}, {e}) overlaps its enclosing {parent:?} span without nesting"
                    ));
                }
                take(&mut out, parent, e - s)?;
            }
            None => take(&mut out, Layer::Unspanned, e - s)?,
        }
        out.bump(layer, e - s);
        stack.push((layer, e));
    }
    Ok(out)
}

fn take(out: &mut LayerTimes, layer: Layer, us: u64) -> Result<(), String> {
    let i = Layer::ALL.iter().position(|&l| l == layer).expect("listed");
    out.0[i] = out.0[i]
        .checked_sub(us)
        .ok_or_else(|| format!("children of a {layer:?} span outlast it"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &str, name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            track: Tracer::new().track("t"),
            name: name.into(),
            cat: cat.into(),
            start_us,
            dur_us,
            effort_units: 0,
        }
    }

    #[test]
    fn nested_confirm_is_counted_once_and_both_methods_agree() {
        let spans = vec![
            span("drc", "preflight", 0, 10),
            span("phase", "detect", 10, 20),
            span("phase", "localize", 30, 50),
            span(CAT_STRATEGY, "next_taps", 32, 2),
            span(CAT_FLOWS, "eco", 35, 10),
            span("phase", "confirm", 50, 20),
            span(CAT_FLOWS, "eco", 55, 5),
            span("phase", "correct", 80, 10),
        ];
        let t = self_times(&spans, 0, 100);
        assert_eq!(t.total(), 100);
        assert_eq!(t.get(Layer::Localize), 50 - 2 - 10 - 20);
        assert_eq!(t.get(Layer::Confirm), 20 - 5);
        assert_eq!(t.get(Layer::Flows), 15);
        assert_eq!(t.get(Layer::Unspanned), 10);
        assert_eq!(tree_self_times(&spans, 0, 100).unwrap(), t);
    }

    #[test]
    fn overlapping_spans_are_rejected() {
        let spans = vec![
            span("phase", "detect", 0, 20),
            span("phase", "localize", 10, 20),
        ];
        assert!(tree_self_times(&spans, 0, 40).is_err());
    }
}
