//! Physical-implementation flow benchmark: analytical vs annealing
//! initial placement, and the four ECO re-implementation flows on the
//! same canonical change.
//!
//! Two sweeps per design:
//!
//! * **implement** — the full implement pipeline (partition, place,
//!   route, tile planning) once per placement engine. Effort is
//!   deterministic (placer moves — which for the analytical engine
//!   include its conjugate-gradient iterations — plus router
//!   expansions); final placement quality is the total bounding-box
//!   wirelength (HPWL). CI's release job gates on these rows: the
//!   analytical engine must land at >= 1.5x fewer implement effort
//!   units than pure annealing at equal-or-better HPWL.
//! * **eco** — the paper's canonical small debugging edit (one LUT's
//!   function complemented) priced by all four [`tiling::ReimplFlow`]s
//!   from the analytical implement, plus one observation-tap edit
//!   (new LUT + output pad) through the tiled flow to exercise the
//!   added-logic path. With truly incremental ECO routing the tiled
//!   flow's function-only row re-routes **zero** nets — the committed
//!   snapshot pins that down.
//!
//! Effort units and HPWL are deterministic for a given seed; wall
//! clock is not. The JSON therefore has a `deterministic` section the
//! CI freshness gate compares byte-for-byte against the committed
//! snapshot, and a `measured` section (milliseconds) that is
//! informational only — the same split `BENCH_fleet.json` uses.
//!
//! The full sweep writes **`BENCH_flow.json`** (the committed
//! cross-PR snapshot); `--quick` writes `BENCH_flow.quick.json` — the
//! mode CI's test job smoke-runs — so quick runs never clobber the
//! tracked trajectory.
//!
//! Run: `cargo run --release -p bench-harness --bin flowbench`

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use std::fmt::Write as _;
use std::time::Instant;

use bench_harness::canonical_victim;
use debugd::artifacts::implement_options;
use netlist::{CellId, TruthTable};
use place::PlaceEngine;
use synth::PaperDesign;
use tiling::{implement, standard_flows, TiledDesign, TilingError};

const SEED: u64 = 11;
const TARGET_TILES: usize = 10;

/// One implement run: a design taken through the full pipeline with
/// one placement engine.
struct ImplementRow {
    design: &'static str,
    engine: &'static str,
    place_moves: u64,
    route_expansions: u64,
    /// Total bounding-box wirelength of the final placement, the
    /// quality side of the speedup gate (formatted to one decimal so
    /// the committed snapshot compares exactly).
    hpwl: f64,
    tiles: usize,
    ms: f64,
}

/// One ECO run: a change priced by one re-implementation flow.
struct EcoRow {
    design: &'static str,
    flow: &'static str,
    /// "func" = complement one LUT (no connectivity change);
    /// "tap" = new observation LUT + output pad (added logic).
    change: &'static str,
    place_moves: u64,
    route_expansions: u64,
    rerouted_nets: usize,
    replaced_cells: usize,
    confined: bool,
    ms: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = obs::bench_flags(std::env::args()).0;
    let designs: &[PaperDesign] = if quick {
        &[PaperDesign::NineSym, PaperDesign::Styr]
    } else {
        &[
            PaperDesign::NineSym,
            PaperDesign::C499,
            PaperDesign::C880,
            PaperDesign::Styr,
            PaperDesign::Sand,
            PaperDesign::S9234,
        ]
    };

    println!("Physical flow bench: implement per engine, ECO per flow");
    let mut implement_rows: Vec<ImplementRow> = Vec::new();
    let mut eco_rows: Vec<EcoRow> = Vec::new();

    for &design in designs {
        // ----- implement: annealing vs analytical ------------------
        let mut analytical_td: Option<TiledDesign> = None;
        for engine in [PlaceEngine::Annealing, PlaceEngine::Analytical] {
            let (td, row) = implement_once(design, engine)?;
            println!(
                "{:<10} implement/{:<10} {:>9} moves {:>10} exps  hpwl {:>8.1}  {:>7.0} ms",
                row.design, row.engine, row.place_moves, row.route_expansions, row.hpwl, row.ms
            );
            implement_rows.push(row);
            if engine == PlaceEngine::Analytical {
                analytical_td = Some(td);
            }
        }
        let td = analytical_td.expect("analytical implement ran");

        // ----- eco: the canonical change through all four flows ----
        let victim = canonical_victim(&td);
        let tt = td
            .netlist
            .cell(victim)?
            .lut_function()
            .expect("victim is a lut")
            .complement();
        for mut flow in standard_flows() {
            let mut trial = td.clone();
            trial.netlist.set_lut_function(victim, tt)?;
            let t = Instant::now();
            let out = flow.reimplement(&mut trial, &[victim], &[])?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            eco_rows.push(EcoRow {
                design: design.name(),
                flow: flow.name(),
                change: "func",
                place_moves: out.effort.place_moves,
                route_expansions: out.effort.route_expansions,
                rerouted_nets: out.rerouted_nets,
                replaced_cells: out.replaced_cells,
                confined: out.confined,
                ms,
            });
        }

        // ----- eco: an observation tap through the tiled flow ------
        eco_rows.push(tap_row(design, &td, victim)?);
        for r in &eco_rows[eco_rows.len() - 5..] {
            println!(
                "{:<10} eco/{:<12} {:<4} {:>9} moves {:>10} exps {:>5} nets  {:>7.0} ms",
                r.design,
                r.flow,
                r.change,
                r.place_moves,
                r.route_expansions,
                r.rerouted_nets,
                r.ms
            );
        }
    }

    let path = if quick {
        "BENCH_flow.quick.json"
    } else {
        "BENCH_flow.json"
    };
    std::fs::write(path, render_json(quick, &implement_rows, &eco_rows))?;
    println!("machine-readable results written to {path}");
    Ok(())
}

fn implement_once(
    design: PaperDesign,
    engine: PlaceEngine,
) -> Result<(TiledDesign, ImplementRow), TilingError> {
    let bundle = design.generate()?;
    let mut opts = implement_options(design, TARGET_TILES, SEED);
    opts.placer.engine = engine;
    let t = Instant::now();
    let td = implement(bundle.netlist, bundle.hierarchy, opts)?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let hpwl = place::total_wirelength_cost(&td.netlist, &td.device, &td.placement);
    let row = ImplementRow {
        design: design.name(),
        engine: engine.label(),
        place_moves: td.initial_effort.place_moves,
        route_expansions: td.initial_effort.route_expansions,
        hpwl,
        tiles: td.plan.len(),
        ms,
    };
    Ok((td, row))
}

/// The added-logic ECO: tap the victim's output net with a new LUT
/// driving a new output pad, re-implemented by the tiled flow.
fn tap_row(
    design: PaperDesign,
    td: &TiledDesign,
    victim: CellId,
) -> Result<EcoRow, Box<dyn std::error::Error>> {
    let mut trial = td.clone();
    let net = trial.netlist.cell_output(victim)?;
    let rep = netlist::eco::apply(
        &mut trial.netlist,
        &netlist::EcoOp::AddLut {
            name: "flowbench_tap".into(),
            function: TruthTable::not(),
            inputs: vec![net],
        },
    )?;
    let obs = rep.added[0];
    let obs_net = trial.netlist.cell_output(obs)?;
    let po = trial.netlist.add_output("flowbench_tap_po", obs_net)?;
    let mut flow = tiling::TiledFlow::default();
    use tiling::ReimplFlow as _;
    let t = Instant::now();
    let out = flow.reimplement(&mut trial, &[victim], &[obs, po])?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(EcoRow {
        design: design.name(),
        flow: "tiled",
        change: "tap",
        place_moves: out.effort.place_moves,
        route_expansions: out.effort.route_expansions,
        rerouted_nets: out.rerouted_nets,
        replaced_cells: out.replaced_cells,
        confined: out.confined,
        ms,
    })
}

/// Renders the sweep as JSON (hand-rolled like the other bench bins).
/// Deterministic fields live under `"deterministic"` — CI's freshness
/// gate compares that object byte-for-byte — and wall-clock under
/// `"measured"`.
fn render_json(quick: bool, implement_rows: &[ImplementRow], eco_rows: &[EcoRow]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"flow\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"deterministic\": {\n    \"implement\": [\n");
    for (i, r) in implement_rows.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"design\": \"{}\", \"engine\": \"{}\", \"place_moves\": {}, \
             \"route_expansions\": {}, \"hpwl\": {:.1}, \"tiles\": {}}}",
            r.design, r.engine, r.place_moves, r.route_expansions, r.hpwl, r.tiles,
        );
        out.push_str(if i + 1 < implement_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("    ],\n    \"eco\": [\n");
    for (i, r) in eco_rows.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"design\": \"{}\", \"flow\": \"{}\", \"change\": \"{}\", \
             \"place_moves\": {}, \"route_expansions\": {}, \"rerouted_nets\": {}, \
             \"replaced_cells\": {}, \"confined\": {}}}",
            r.design,
            r.flow,
            r.change,
            r.place_moves,
            r.route_expansions,
            r.rerouted_nets,
            r.replaced_cells,
            r.confined,
        );
        out.push_str(if i + 1 < eco_rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("    ]\n  },\n  \"measured\": {\n    \"implement_ms\": [\n");
    for (i, r) in implement_rows.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"design\": \"{}\", \"engine\": \"{}\", \"ms\": {:.1}}}",
            r.design, r.engine, r.ms,
        );
        out.push_str(if i + 1 < implement_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("    ],\n    \"eco_ms\": [\n");
    for (i, r) in eco_rows.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"design\": \"{}\", \"flow\": \"{}\", \"change\": \"{}\", \"ms\": {:.1}}}",
            r.design, r.flow, r.change, r.ms,
        );
        out.push_str(if i + 1 < eco_rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("    ]\n  }\n}\n");
    out
}
