//! Session-level integration: the four physical flows driven through
//! one `ReimplFlow` trait, binary-search localization beating linear
//! batching on a real implemented design, and the `DebugEvent`
//! stream's ordering invariants (detect ≺ localize ≺ confirm ≺
//! correct, per error) with a ledger that reconciles exactly.

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::{implement_paper_design, sim, tiling};
use netlist::TruthTable;

/// A `len`-LUT inverter chain with one PI and one PO, plus an empty
/// hierarchy — the cleanest possible deep suspect cone.
fn chain_design(len: usize) -> (netlist::Netlist, netlist::Hierarchy) {
    let mut nl = netlist::Netlist::new("chain");
    let pi = nl.add_input("a").unwrap();
    let mut net = nl.cell_output(pi).unwrap();
    for k in 0..len {
        let c = nl
            .add_lut(format!("inv{k}"), TruthTable::not(), &[net])
            .unwrap();
        net = nl.cell_output(c).unwrap();
    }
    nl.add_output("y", net).unwrap();
    let hier = netlist::Hierarchy::new("chain");
    (nl, hier)
}

/// The session-level sibling of `tiling_beats_the_baselines_on_a_small_change`:
/// the *same* planted error is debugged end-to-end (detect → localize
/// → confirm → correct) through all four flows behind
/// `&mut dyn ReimplFlow`, and the tiled flow spends the least effort.
#[test]
fn session_tiled_flow_beats_rival_flows_on_a_debug_iteration() {
    let td0 = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(201)).unwrap();
    let golden = td0.netlist.clone();

    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for flow in tiling::standard_flows() {
        let mut td = td0.clone();
        // Deterministic: the same error in every trial.
        let victim = bench_harness_victim(&td);
        let error = sim::inject::inject(
            &mut td.netlist,
            victim,
            sim::inject::DesignErrorKind::Complement,
        )
        .unwrap();
        let out = DebugSession::new(&mut td, &golden)
            .seed(9)
            .flow(flow)
            .run(&error)
            .unwrap();
        assert!(out.mismatch.is_some(), "{}: undetected", out.flow);
        assert!(out.repaired, "{}: not repaired", out.flow);
        assert!(td.routing.is_feasible(), "{}: infeasible", out.flow);
        totals.push((out.flow, out.effort.total()));
    }

    let total_of = |name: &str| {
        totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, t)| t)
            .unwrap()
    };
    let tiled = total_of("tiled");
    assert!(
        tiled < total_of("full"),
        "tiled {tiled} vs full {}",
        total_of("full")
    );
    assert!(
        tiled < total_of("quick_eco"),
        "tiled {tiled} vs quick_eco {}",
        total_of("quick_eco")
    );
    assert!(
        tiled <= total_of("incremental"),
        "tiled {tiled} vs incremental {}",
        total_of("incremental")
    );
}

fn bench_harness_victim(td: &TiledDesign) -> netlist::CellId {
    let luts: Vec<netlist::CellId> = td
        .netlist
        .cells()
        .filter(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| id)
        .collect();
    luts[luts.len() / 2]
}

/// The acceptance experiment for the `BinarySearch` strategy: on a
/// design whose suspect cone spans many tap batches, bisection
/// localizes the *identical* cell while inserting strictly fewer taps
/// and performing strictly fewer ECOs than linear batching.
#[test]
fn binary_search_beats_linear_batches_on_a_deep_cone() {
    let (nl, hier) = chain_design(96);
    let td0 = tiling::implement(nl, hier, TilingOptions::fast(202)).unwrap();
    let golden = td0.netlist.clone();
    // Error deep in the chain: linear batching must walk ~11 batches.
    let victim = golden.find_cell("inv85").unwrap();

    let run = |strategy: Box<dyn LocalizationStrategy>| {
        let mut td = td0.clone();
        let error = sim::inject::inject(
            &mut td.netlist,
            victim,
            sim::inject::DesignErrorKind::Complement,
        )
        .unwrap();
        let out = DebugSession::new(&mut td, &golden)
            .seed(3)
            .strategy(strategy)
            .run(&error)
            .unwrap();
        assert!(out.repaired, "{}: not repaired", out.strategy);
        assert!(td.routing.is_feasible());
        out
    };

    let linear = run(Box::<LinearBatches>::default());
    let binary = run(Box::new(BinarySearch::new()));

    assert_eq!(linear.localized, Some(victim), "linear missed the bug");
    assert_eq!(
        binary.localized, linear.localized,
        "strategies disagree on the error site"
    );
    assert!(
        linear.taps_inserted > LinearBatches::DEFAULT_BATCH,
        "test needs a cone spanning >= 2 tap batches, got {} taps",
        linear.taps_inserted
    );
    assert!(
        binary.taps_inserted < linear.taps_inserted,
        "binary {} taps !< linear {} taps",
        binary.taps_inserted,
        linear.taps_inserted
    );
    assert!(
        binary.ecos < linear.ecos,
        "binary {} ECOs !< linear {} ECOs",
        binary.ecos,
        linear.ecos
    );
}

/// A DUT that already matches the golden model short-circuits after
/// detection: the paper-default session (linear batches through the
/// tiled flow) reports no mismatch and a repaired design, narrates
/// only `CleanDesign`, and spends no physical effort.
#[test]
fn clean_design_short_circuits_after_detection() {
    let mut td = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(10)).unwrap();
    let golden = td.netlist.clone();
    let victim = bench_harness_victim(&td);
    let function = *td.netlist.cell(victim).unwrap().lut_function().unwrap();
    // An "error" record that does not actually corrupt the netlist.
    let fake = sim::inject::InjectedError {
        cell: victim,
        kind: sim::inject::DesignErrorKind::Complement,
        original: function,
        buggy: function,
    };
    let mut events: Vec<DebugEvent> = Vec::new();
    let out = DebugSession::new(&mut td, &golden)
        .seed(1)
        .on_event(|e| events.push(e.clone()))
        .run(&fake)
        .unwrap();
    assert!(out.mismatch.is_none());
    assert!(out.repaired);
    assert_eq!((out.strategy, out.flow), ("linear", "tiled"));
    assert_eq!((out.effort.total(), out.ecos, out.taps_inserted), (0, 0, 0));
    assert!(matches!(events.as_slice(), [DebugEvent::CleanDesign]));
}

/// Indices of the events matching `pred`, in emission order.
fn indices_of(events: &[DebugEvent], pred: impl Fn(&DebugEvent) -> bool) -> Vec<usize> {
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| pred(e))
        .map(|(i, _)| i)
        .collect()
}

/// The single-error protocol must narrate its phases in order —
/// detect ≺ suspects ≺ tap/observe pairs ≺ localized ≺ confirmed ≺
/// corrected — and the per-phase `EffortLedger` must reconcile
/// exactly with the outcome's flat counters.
#[test]
fn event_stream_respects_phase_order_and_ledger_reconciles() {
    let (nl, hier) = chain_design(24);
    let mut td = tiling::implement(nl, hier, TilingOptions::fast(204)).unwrap();
    let golden = td.netlist.clone();
    let victim = golden.find_cell("inv15").unwrap();
    let error = sim::inject::inject(
        &mut td.netlist,
        victim,
        sim::inject::DesignErrorKind::Complement,
    )
    .unwrap();
    let mut events: Vec<DebugEvent> = Vec::new();
    let out = DebugSession::new(&mut td, &golden)
        .seed(6)
        .on_event(|e| events.push(e.clone()))
        .run(&error)
        .unwrap();
    assert!(out.repaired);

    let detected = indices_of(&events, |e| matches!(e, DebugEvent::Detected { .. }));
    let suspects = indices_of(&events, |e| {
        matches!(e, DebugEvent::SuspectsComputed { .. })
    });
    let taps = indices_of(&events, |e| matches!(e, DebugEvent::TapEco { .. }));
    let observed = indices_of(&events, |e| matches!(e, DebugEvent::Observed { .. }));
    let localized = indices_of(&events, |e| matches!(e, DebugEvent::Localized { .. }));
    let confirmed = indices_of(&events, |e| matches!(e, DebugEvent::Confirmed { .. }));
    let corrected = indices_of(&events, |e| matches!(e, DebugEvent::Corrected { .. }));
    assert_eq!(detected.len(), 1);
    assert_eq!(suspects.len(), 1);
    assert_eq!(localized.len(), 1);
    assert_eq!(confirmed.len(), 1);
    assert_eq!(corrected.len(), 1);
    assert!(!taps.is_empty(), "localization must tap at least once");
    assert!(detected[0] < suspects[0], "detection precedes the cone");
    assert!(suspects[0] < taps[0], "the cone precedes localization");
    assert_eq!(taps.len(), observed.len(), "every tap ECO gets observed");
    for (t, o) in taps.iter().zip(&observed) {
        assert!(t < o, "tap ECO {t} must precede its observation {o}");
    }
    assert!(*observed.last().unwrap() < localized[0]);
    assert!(localized[0] < confirmed[0], "localize precedes confirm");
    // The paper defaults localize the planted cell, and forcing its
    // output to golden values confirms it.
    assert_eq!(out.localized, Some(victim));
    assert!(out.confirmed_by_control);
    assert!(confirmed[0] < corrected[0], "confirm precedes correct");
    assert_eq!(corrected[0], events.len() - 1, "correction concludes");

    // Ledger reconciliation: phases sum to the flat totals, and
    // detection (pure emulation) charges no physical effort.
    let phase_effort: u64 = Phase::ALL
        .iter()
        .map(|&p| out.ledger.phase(p).effort.total())
        .sum();
    assert_eq!(phase_effort, out.effort.total());
    let phase_ecos: usize = Phase::ALL.iter().map(|&p| out.ledger.phase(p).ecos).sum();
    assert_eq!(phase_ecos, out.ecos);
    assert_eq!(out.ledger.phase(Phase::Detect).effort, CadEffort::default());
    assert_eq!(taps.len(), out.ledger.phase(Phase::Localize).ecos);
}

/// The concurrent protocol keeps the same order per error: all
/// detections (one per cluster), then the cone split, then the shared
/// tap rounds, then one localization + confirmation per cluster, and
/// a single correction last; the per-cluster ledgers apportion every
/// phase of the global ledger exactly.
#[test]
fn concurrent_event_stream_orders_clusters_and_apportions_ledger() {
    // An 8-LUT backbone fanning into two 4-LUT branches.
    let mut nl = netlist::Netlist::new("bb");
    let pi = nl.add_input("a").unwrap();
    let mut net = nl.cell_output(pi).unwrap();
    for k in 0..8 {
        let c = nl
            .add_lut(format!("bb{k}"), TruthTable::not(), &[net])
            .unwrap();
        net = nl.cell_output(c).unwrap();
    }
    let mut victims = Vec::new();
    for b in 0..2 {
        let mut bnet = net;
        for k in 0..4 {
            let c = nl
                .add_lut(format!("br{b}_{k}"), TruthTable::not(), &[bnet])
                .unwrap();
            bnet = nl.cell_output(c).unwrap();
            if k == 1 {
                victims.push(c);
            }
        }
        nl.add_output(format!("y{b}"), bnet).unwrap();
    }
    let hier = netlist::Hierarchy::new("bb");
    let mut td = tiling::implement(nl, hier, TilingOptions::fast(205)).unwrap();
    let golden = td.netlist.clone();
    let errors: Vec<_> = victims
        .iter()
        .map(|&v| {
            sim::inject::inject(&mut td.netlist, v, sim::inject::DesignErrorKind::Complement)
                .unwrap()
        })
        .collect();
    let mut events: Vec<DebugEvent> = Vec::new();
    let out = DebugSession::new(&mut td, &golden)
        .seed(8)
        .on_event(|e| events.push(e.clone()))
        .run_concurrent(&errors)
        .unwrap();
    assert!(out.repaired);
    assert_eq!(out.clusters.len(), 2);

    let detected = indices_of(&events, |e| matches!(e, DebugEvent::Detected { .. }));
    let split = indices_of(&events, |e| matches!(e, DebugEvent::ConeSplit { .. }));
    let taps = indices_of(&events, |e| matches!(e, DebugEvent::TapEco { .. }));
    let localized = indices_of(&events, |e| matches!(e, DebugEvent::Localized { .. }));
    let confirmed = indices_of(&events, |e| matches!(e, DebugEvent::Confirmed { .. }));
    let corrected = indices_of(&events, |e| matches!(e, DebugEvent::Corrected { .. }));
    assert_eq!(detected.len(), 2, "one detection per cluster");
    assert_eq!(split.len(), 1, "one cone split for the campaign");
    assert_eq!(localized.len(), 2, "one localization per cluster");
    assert_eq!(confirmed.len(), 2, "one confirmation per cluster");
    assert_eq!(corrected.len(), 1, "one shared corrective ECO");
    assert!(detected.iter().all(|&d| d < split[0]));
    assert!(taps.iter().all(|&t| split[0] < t && t < localized[0]));
    assert!(localized.iter().all(|&l| l < confirmed[0]));
    assert!(confirmed.iter().all(|&c| c < corrected[0]));
    assert_eq!(corrected[0], events.len() - 1);

    // Per-phase apportioning: for every phase, the cluster ledgers
    // sum exactly to the campaign ledger (no effort lost or minted).
    for p in Phase::ALL {
        let split_effort: u64 = out
            .clusters
            .iter()
            .map(|c| c.ledger.phase(p).effort.total())
            .sum();
        assert_eq!(split_effort, out.ledger.phase(p).effort.total(), "{p}");
    }
    let phase_ecos: usize = Phase::ALL.iter().map(|&p| out.ledger.phase(p).ecos).sum();
    assert_eq!(phase_ecos, out.ecos);
}

/// An error the stimulus cannot expose is still repaired: a single
/// LFSR vector lets these planted errors escape detection, so the
/// sweep comes back clean, yet `run` and `run_campaign` (one seed and
/// two) must hand back a DUT whose every LUT function is golden's —
/// a latent bug in a DUT reported repaired would poison the next
/// campaign on it.
#[test]
fn escaped_errors_are_repaired_at_the_netlist_level() {
    const SEEDS: [u64; 2] = [2, 7];
    let td0 = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(10)).unwrap();
    let golden = td0.netlist.clone();
    fn session<'a>(td: &'a mut TiledDesign, golden: &'a netlist::Netlist) -> DebugSession<'a> {
        DebugSession::new(td, golden)
            .patterns(PatternSpec::Lfsr { count: 1 })
            .seed(3)
    }
    let assert_golden = |td: &TiledDesign| {
        for (id, cell) in golden.cells() {
            let dut = td.netlist.cell(id).unwrap().lut_function();
            assert_eq!(dut, cell.lut_function(), "cell {id} kept a planted bug");
        }
    };

    let mut td = td0.clone();
    let error = sim::inject::random_error(&mut td.netlist, SEEDS[0]).unwrap();
    assert_ne!(error.buggy, error.original, "the planted error is real");
    let out = session(&mut td, &golden).run(&error).unwrap();
    assert!(out.mismatch.is_none(), "one vector exposed the error");
    assert!(out.repaired);
    assert_golden(&td);

    for seeds in [&SEEDS[..1], &SEEDS[..]] {
        let mut planted = td0.netlist.clone();
        for e in sim::inject::random_distinct_errors(&mut planted, seeds).unwrap() {
            assert_ne!(e.buggy, e.original, "the planted error is real");
        }
        let mut td = td0.clone();
        let mut events: Vec<DebugEvent> = Vec::new();
        let campaign = session(&mut td, &golden)
            .on_event(|e| events.push(e.clone()))
            .run_campaign(seeds)
            .unwrap();
        assert!(events.iter().any(|e| matches!(e, DebugEvent::CleanDesign)));
        assert_eq!(campaign.iterations.len(), seeds.len());
        for row in &campaign.iterations {
            assert!(row.mismatch.is_none(), "one vector exposed an error");
            assert!(row.repaired);
        }
        assert_golden(&td);
    }
}
