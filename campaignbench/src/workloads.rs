//! The workloads: which designs they implement and the request
//! stream a seed derives for them.
//!
//! Every workload is a closed loop of *rounds*. A round is the
//! workload's template list (design × strategy × flow × error budget),
//! seed-shuffled for the single-client workloads, each template stamped
//! with fresh error seeds and a fresh stimulus seed. The same `--seed`
//! therefore gives the same request sequence, and the first
//! [`Workload::det_campaigns`] requests (the deterministic prefix) are
//! the same on every run.

use debugd::{CampaignRequest, FlowKind, StrategyKind};
use synth::PaperDesign;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 9sym, c499 and c880: packed 64-lane simulation is cheap, tap
    /// ECOs through the tiled flow dominate.
    CombTiled,
    /// styr and sand: one-lane sequential simulation and diagnosis
    /// dominate.
    SeqTiled,
    /// The `fleet` bin's request mix through `run_batch` on a pool.
    FleetMixed,
}

/// One request template: everything but the seeds.
#[derive(Debug, Clone, Copy)]
struct Template {
    design: PaperDesign,
    strategy: StrategyKind,
    flow: FlowKind,
    errors: usize,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 3] = [
        Workload::CombTiled,
        Workload::SeqTiled,
        Workload::FleetMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::CombTiled => "comb-tiled",
            Self::SeqTiled => "seq-tiled",
            Self::FleetMixed => "fleet-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Designs whose artifacts set-up builds.
    pub fn designs(self) -> &'static [PaperDesign] {
        match self {
            Self::CombTiled => &[PaperDesign::NineSym, PaperDesign::C499, PaperDesign::C880],
            Self::SeqTiled => &[PaperDesign::Styr, PaperDesign::Sand],
            Self::FleetMixed => &[PaperDesign::NineSym, PaperDesign::Styr, PaperDesign::Sand],
        }
    }

    /// Whether requests go through `debugd::run_batch` on a pool
    /// (one batch per round) instead of one client calling
    /// `run_campaign` in a closed loop.
    pub fn is_fleet(self) -> bool {
        self == Self::FleetMixed
    }

    /// Whole rounds per second this workload runs at on the 2-core
    /// reference host (see `README.md`). Only sizes the deterministic
    /// prefix; nothing is timed against it.
    fn nominal_rounds_per_s(self) -> f64 {
        match self {
            Self::CombTiled => 3.5,
            Self::SeqTiled => 0.6,
            Self::FleetMixed => 0.4,
        }
    }

    /// Size of the deterministic prefix for a loop of `budget_s`
    /// seconds: the whole rounds the reference host finishes in 80%
    /// of the budget, at least two. Deterministic metrics are taken
    /// over exactly these first requests, so for a given seed and
    /// budget they repeat exactly, however fast the host is; the loop
    /// runs at least this far.
    pub fn det_campaigns(self, budget_s: f64) -> usize {
        let rounds = (0.8 * budget_s * self.nominal_rounds_per_s()).floor() as usize;
        rounds.max(2) * self.round_len()
    }

    fn templates(self) -> Vec<Template> {
        let strategies = [StrategyKind::LinearBatches, StrategyKind::BinarySearch];
        let tiled = |ks: &[usize]| {
            let mut out = Vec::new();
            for &design in self.designs() {
                for strategy in strategies {
                    for &errors in ks {
                        out.push(Template {
                            design,
                            strategy,
                            flow: FlowKind::Tiled,
                            errors,
                        });
                    }
                }
            }
            out
        };
        match self {
            Self::CombTiled => tiled(&[1, 2]),
            // Two k=1 campaigns per k=2 one: the two error budgets run
            // different code paths (serial vs concurrent) with latencies
            // 3-4x apart. An even mix puts the median where the two
            // distributions overlap thinly, and it jumps from run to
            // run; this mix puts it inside the k=1 mode.
            Self::SeqTiled => tiled(&[1, 1, 2]),
            // The `fleet` bin's mix: per design six campaigns,
            // strategies alternate, every fourth is a quick-eco
            // baseline, error budgets cycle 1/1/2.
            Self::FleetMixed => self
                .designs()
                .iter()
                .flat_map(|&design| {
                    (0..6).map(move |i| Template {
                        design,
                        strategy: strategies[i % 2],
                        flow: if i % 4 == 3 {
                            FlowKind::QuickEco
                        } else {
                            FlowKind::Tiled
                        },
                        errors: [1, 1, 2][i % 3],
                    })
                })
                .collect(),
        }
    }

    /// Templates per round.
    pub fn round_len(self) -> usize {
        self.templates().len()
    }

    /// The request the set-up step builds `design`'s artifact with.
    pub fn setup_request(design: PaperDesign) -> CampaignRequest {
        CampaignRequest {
            id: format!("setup-{}", design.name()),
            design,
            ..CampaignRequest::default()
        }
    }

    /// The workload's request stream for `seed`.
    pub fn stream(self, seed: u64) -> RequestStream {
        RequestStream {
            workload: self,
            templates: self.templates(),
            rng: SplitMix64(seed ^ 0x6361_6d70_6169_676e),
            round: Vec::new(),
            issued: 0,
        }
    }
}

/// Endless, seed-determined request sequence of one workload.
#[derive(Debug)]
pub struct RequestStream {
    workload: Workload,
    templates: Vec<Template>,
    rng: SplitMix64,
    /// The rest of the current round, next request last.
    round: Vec<Template>,
    issued: usize,
}

impl RequestStream {
    /// The next request.
    pub fn next_request(&mut self) -> CampaignRequest {
        if self.round.is_empty() {
            // Single-client rounds are shuffled (Fisher–Yates); fleet
            // rounds keep the fleet bin's request order, since its
            // queue order is part of the mix.
            self.round = self.templates.clone();
            if self.workload.is_fleet() {
                self.round.reverse();
            } else {
                for i in (1..self.round.len()).rev() {
                    let j = self.rng.below(i as u64 + 1) as usize;
                    self.round.swap(i, j);
                }
            }
        }
        let t = self.round.pop().expect("round refilled above");
        let id = format!("{}-{:05}", self.workload.name(), self.issued);
        self.issued += 1;
        CampaignRequest {
            id,
            design: t.design,
            strategy: t.strategy,
            flow: t.flow,
            seed: self.rng.below(1 << 20),
            error_seeds: (0..t.errors).map(|_| self.rng.below(1 << 30)).collect(),
            ..CampaignRequest::default()
        }
    }

    /// The next whole round (a fleet batch).
    pub fn next_round(&mut self) -> Vec<CampaignRequest> {
        (0..self.templates.len())
            .map(|_| self.next_request())
            .collect()
    }
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNG stand-ins.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
