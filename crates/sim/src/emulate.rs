//! Golden-vs-DUT emulation with primary-output-only observability.
//!
//! Every golden-vs-DUT comparison in the repo — first-mismatch
//! detection, full response sweeps, per-net divergence onsets, §4.1
//! control-point confirmation — funnels through the one packed
//! lockstep walker in this module (`sweep_pair`): combinational
//! designs evaluate 64 patterns per topo pass
//! ([`PackedSimulator`] lanes = patterns), sequential designs run the
//! stimulus stream in one-pattern chunks (lanes can never be time
//! steps — pattern `i`'s flip-flop state depends on pattern `i-1`),
//! which keeps every onset and verdict bit-exact with the scalar
//! [`Simulator`](crate::Simulator) oracle.
//!
//! Every entry point adds the work its simulators did to a
//! caller-supplied [`SimWork`], so whoever runs a sweep — a debug
//! session, a bench — owns the count of exactly its own sweeps.

use netlist::{NetId, Netlist, NetlistError};

use crate::packed::{PackedSimulator, SimWork, LANES};
use crate::patterns::PatternGen;

/// A detected divergence between golden model and device under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Index of the stimulus vector that exposed the bug.
    pub pattern_index: usize,
    /// Clock cycle at which the divergence was observed.
    pub cycle: u64,
    /// Index of the diverging primary output (PO order).
    pub output_index: usize,
    /// Name of the diverging output cell.
    pub output_name: String,
    /// Which outputs matched (true) at the failing cycle — used by
    /// cone-intersection diagnosis.
    pub output_ok: Vec<bool>,
}

/// The one packed pattern loop behind every paired sweep.
///
/// Walks `golden` and `dut` in lockstep chunks — [`LANES`] patterns
/// per chunk for combinational designs, one per chunk for sequential
/// streams (clocking both sims between chunks, no reset) — and hands
/// each evaluated chunk to `visit(base, lane_mask, golden_sim,
/// dut_sim)`. `visit` returns `false` to stop the sweep early (the
/// clock does *not* advance past a stopped chunk, so
/// [`PackedSimulator::cycles`] reads like the scalar oracle's at the
/// moment of detection). Golden patterns are width-checked strictly;
/// the DUT may carry extra primary inputs (debug instrumentation),
/// driven inactive. Adds both simulators' work to `work` and returns
/// the number of patterns consumed.
fn sweep_pair<I, F>(
    golden: &Netlist,
    dut: &Netlist,
    patterns: I,
    work: &mut SimWork,
    mut visit: F,
) -> Result<usize, NetlistError>
where
    I: IntoIterator<Item = Vec<bool>>,
    F: FnMut(usize, u64, &PackedSimulator, &PackedSimulator) -> bool,
{
    let mut gsim = PackedSimulator::new(golden)?;
    let mut dsim = PackedSimulator::new(dut)?;
    let sequential = golden.is_sequential() || dut.is_sequential();
    let width = if sequential { 1 } else { LANES };
    let mut chunk: Vec<Vec<bool>> = Vec::with_capacity(width);
    let mut base = 0usize;
    let mut patterns = patterns.into_iter();
    loop {
        chunk.clear();
        chunk.extend(patterns.by_ref().take(width));
        if chunk.is_empty() {
            break;
        }
        let lanes = gsim.load_patterns(&chunk);
        dsim.load_patterns_padded(&chunk);
        gsim.comb_eval();
        dsim.comb_eval();
        base += chunk.len();
        if !visit(base - chunk.len(), lanes, &gsim, &dsim) {
            break;
        }
        if sequential {
            gsim.step();
            dsim.step();
        }
    }
    *work += gsim.work();
    *work += dsim.work();
    Ok(base)
}

/// Runs `patterns` through both netlists and returns the first
/// primary-output divergence, if any.
///
/// Sequential designs are clocked once per pattern *without* reset in
/// between (patterns form a stimulus stream); combinational designs
/// are evaluated 64 patterns per packed pass. Only primary outputs
/// are compared — internal nets are invisible, as on a real emulator.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
///
/// # Panics
///
/// Panics if the two netlists disagree on PI/PO counts (they must be
/// the same design, one of them buggy).
pub fn first_mismatch(
    golden: &Netlist,
    dut: &Netlist,
    patterns: PatternGen,
    work: &mut SimWork,
) -> Result<Option<Mismatch>, NetlistError> {
    let pos = golden.primary_outputs();
    assert_eq!(
        golden.primary_inputs().len(),
        dut.primary_inputs().len(),
        "PI mismatch between golden and DUT"
    );
    assert_eq!(
        pos.len(),
        dut.primary_outputs().len(),
        "PO mismatch between golden and DUT"
    );
    assert_eq!(
        patterns.width(),
        golden.primary_inputs().len(),
        "pattern width mismatch"
    );
    let mut diffs = vec![0u64; pos.len()];
    let mut hit: Option<(usize, u64, usize, Vec<bool>)> = None;
    sweep_pair(golden, dut, patterns, work, |base, lanes, gsim, dsim| {
        let mut any = 0u64;
        for (j, diff) in diffs.iter_mut().enumerate() {
            *diff = (gsim.output_word(j) ^ dsim.output_word(j)) & lanes;
            any |= *diff;
        }
        if any == 0 {
            return true;
        }
        // The earliest diverging lane is the first failing pattern.
        let lane = any.trailing_zeros();
        let output_ok: Vec<bool> = diffs.iter().map(|&d| d >> lane & 1 == 0).collect();
        let first_bad = output_ok.iter().position(|&ok| !ok).expect("some diff");
        hit = Some((base + lane as usize, gsim.cycles(), first_bad, output_ok));
        false
    })?;
    let Some((pattern_index, cycle, first_bad, output_ok)) = hit else {
        return Ok(None);
    };
    Ok(Some(Mismatch {
        pattern_index,
        cycle,
        output_index: first_bad,
        output_name: golden.cell(pos[first_bad])?.name.clone(),
        output_ok,
    }))
}

/// Windowed response capture: sweeps `patterns` through both netlists
/// and records, per watched net, the index of the **first** pattern
/// on which its value diverges from golden (`None` = clean across the
/// whole sweep).
///
/// This is the observation primitive behind windowed multi-error
/// diagnosis: a tap verdict is no longer a single "ever diverged"
/// bit but the exact onset pattern, so one physical tap can be
/// re-read under any cluster's `[0, first_fail]` observation window
/// (diverged within the window iff the onset is `<= window`).
///
/// Onsets fall out of the packed words as
/// `(golden ^ dut).trailing_zeros()` scans: on combinational designs
/// a 64-pattern chunk is one topo pass, on sequential designs the
/// stream runs one-pattern chunks exactly like [`first_mismatch`] and
/// the full-sweep detection in `tiling::diagnosis` — pattern indices
/// are therefore directly comparable across detection and
/// observation. The DUT may carry extra primary inputs (debug
/// instrumentation); they are driven inactive. The sweep stops early
/// once every watched net has diverged.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
pub fn net_first_divergences(
    golden: &Netlist,
    dut: &Netlist,
    nets: &[NetId],
    patterns: &[Vec<bool>],
    work: &mut SimWork,
) -> Result<Vec<Option<usize>>, NetlistError> {
    let mut onsets: Vec<Option<usize>> = vec![None; nets.len()];
    let mut undecided = nets.len();
    sweep_pair(
        golden,
        dut,
        patterns.iter().cloned(),
        work,
        |base, lanes, gsim, dsim| {
            for (onset, &net) in onsets.iter_mut().zip(nets) {
                if onset.is_none() {
                    let diff = (gsim.net_word(net) ^ dsim.net_word(net)) & lanes;
                    if diff != 0 {
                        *onset = Some(base + diff.trailing_zeros() as usize);
                        undecided -= 1;
                    }
                }
            }
            undecided != 0
        },
    )?;
    Ok(onsets)
}

/// Full-footprint sweep: for each `(golden PO index, DUT PO index)`
/// pair, the packed set of patterns on which the two outputs
/// diverge — `words[i]` holds bit `p % 64` of word `p / 64` set iff
/// pattern `p` failed — plus the number of patterns swept. This is
/// the word-level feed for `ResponseMatrix` signatures (which store
/// exactly this layout); unlike [`first_mismatch`] the sweep never
/// stops early, because multi-error diagnosis needs the whole
/// footprint.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
#[allow(clippy::type_complexity)]
pub fn po_divergence_words(
    golden: &Netlist,
    dut: &Netlist,
    pairs: &[(usize, usize)],
    patterns: impl IntoIterator<Item = Vec<bool>>,
    work: &mut SimWork,
) -> Result<(Vec<Vec<u64>>, usize), NetlistError> {
    let mut words: Vec<Vec<u64>> = vec![Vec::new(); pairs.len()];
    let count = sweep_pair(golden, dut, patterns, work, |base, lanes, gsim, dsim| {
        // Chunks never straddle a word boundary: combinational chunks
        // are 64-aligned, sequential chunks are single patterns.
        let (wi, shift) = (base / 64, base % 64);
        for (w, &(gk, dk)) in words.iter_mut().zip(pairs) {
            let diff = (gsim.output_word(gk) ^ dsim.output_word(dk)) & lanes;
            if diff != 0 {
                if w.len() <= wi {
                    w.resize(wi + 1, 0);
                }
                w[wi] |= diff << shift;
            }
        }
        true
    })?;
    Ok((words, count))
}

/// Whether the paired primary outputs agree on every pattern
/// (early-exits on the first diverging chunk). The DUT may carry
/// extra primary inputs; they are driven inactive.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
pub fn outputs_equivalent(
    golden: &Netlist,
    dut: &Netlist,
    pairs: &[(usize, usize)],
    patterns: impl IntoIterator<Item = Vec<bool>>,
    work: &mut SimWork,
) -> Result<bool, NetlistError> {
    let mut matched = true;
    sweep_pair(golden, dut, patterns, work, |_, lanes, gsim, dsim| {
        matched = pairs
            .iter()
            .all(|&(gk, dk)| (gsim.output_word(gk) ^ dsim.output_word(dk)) & lanes == 0);
        matched
    })?;
    Ok(matched)
}

/// §4.1 control-point confirmation sweep: the DUT's last two primary
/// inputs are a control point's `[force_val, force_en]` pair; each
/// chunk drives `force_val` with the golden model's word for
/// `forced_net` (per lane) and holds `force_en` active, then compares
/// the paired primary outputs. Returns whether every pattern matched
/// (early-exits on the first diverging chunk). Sequential designs
/// stream one-pattern chunks with both machines clocked in lockstep.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
///
/// # Panics
///
/// Panics unless the DUT has exactly two more primary inputs than the
/// golden model (the control point's force pair).
pub fn forced_outputs_equivalent(
    golden: &Netlist,
    dut: &Netlist,
    forced_net: NetId,
    pairs: &[(usize, usize)],
    patterns: impl IntoIterator<Item = Vec<bool>>,
    work: &mut SimWork,
) -> Result<bool, NetlistError> {
    let mut gsim = PackedSimulator::new(golden)?;
    let mut dsim = PackedSimulator::new(dut)?;
    assert_eq!(
        dsim.num_inputs(),
        gsim.num_inputs() + 2,
        "control point adds two PIs"
    );
    let force_val = gsim.num_inputs();
    let sequential = golden.is_sequential() || dut.is_sequential();
    let width = if sequential { 1 } else { LANES };
    let mut chunk: Vec<Vec<bool>> = Vec::with_capacity(width);
    let mut patterns = patterns.into_iter();
    let mut matched = true;
    while matched {
        chunk.clear();
        chunk.extend(patterns.by_ref().take(width));
        if chunk.is_empty() {
            break;
        }
        let lanes = gsim.load_patterns(&chunk);
        gsim.comb_eval();
        dsim.load_patterns_padded(&chunk);
        dsim.set_input_word(force_val, gsim.net_word(forced_net));
        dsim.set_input_word(force_val + 1, u64::MAX);
        dsim.comb_eval();
        matched = pairs
            .iter()
            .all(|&(gk, dk)| (gsim.output_word(gk) ^ dsim.output_word(dk)) & lanes == 0);
        if matched && sequential {
            gsim.step();
            dsim.step();
        }
    }
    *work += gsim.work();
    *work += dsim.work();
    Ok(matched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{inject, DesignErrorKind};
    use netlist::TruthTable;

    /// Two independent output cones: y0 = a AND b, y1 = a XOR c.
    fn two_cone_design() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let (na, nb, nc) = (
            nl.cell_output(a).unwrap(),
            nl.cell_output(b).unwrap(),
            nl.cell_output(c).unwrap(),
        );
        let u0 = nl.add_lut("u0", TruthTable::and(2), &[na, nb]).unwrap();
        let u1 = nl.add_lut("u1", TruthTable::xor(2), &[na, nc]).unwrap();
        nl.add_output("y0", nl.cell_output(u0).unwrap()).unwrap();
        nl.add_output("y1", nl.cell_output(u1).unwrap()).unwrap();
        nl
    }

    #[test]
    fn identical_designs_never_mismatch() {
        let nl = two_cone_design();
        let mut work = SimWork::default();
        let m = first_mismatch(&nl, &nl.clone(), PatternGen::exhaustive(3), &mut work).unwrap();
        assert_eq!(m, None);
    }

    #[test]
    fn planted_bug_is_detected_with_per_output_verdicts() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u1 = dut.find_cell("u1").unwrap();
        inject(&mut dut, u1, DesignErrorKind::Complement).unwrap();
        let mut work = SimWork::default();
        let m = first_mismatch(&golden, &dut, PatternGen::exhaustive(3), &mut work)
            .unwrap()
            .expect("complemented gate must diverge");
        assert_eq!(m.output_name, "y1");
        // Per-output verdicts at the failing cycle: y0 clean, y1 bad
        // (the raw material the diagnosis evidence layer consumes).
        assert_eq!(m.output_ok, vec![true, false]);
    }

    #[test]
    fn sequential_divergence_found_over_time() {
        // Golden: toggle FF; DUT: stuck FF (feedback buffered, not inverted).
        let build = |invert: bool| {
            let mut nl = Netlist::new("seq");
            let en = nl.add_input("en").unwrap();
            let seed = nl.add_net("seed").unwrap();
            let ff = nl.add_ff("q", false, seed).unwrap();
            let q = nl.cell_output(ff).unwrap();
            let tt = if invert {
                TruthTable::xor(2)
            } else {
                TruthTable::var(2, 1)
            };
            let f = nl
                .add_lut("f", tt, &[nl.cell_output(en).unwrap(), q])
                .unwrap();
            nl.set_pin(ff, 0, nl.cell_output(f).unwrap()).unwrap();
            nl.add_output("out", q).unwrap();
            nl
        };
        let golden = build(true); // q ^= en
        let dut = build(false); // q stays q
        let mut work = SimWork::default();
        let m = first_mismatch(&golden, &dut, PatternGen::random(1, 20, 3), &mut work).unwrap();
        assert!(m.is_some());
    }

    #[test]
    fn first_divergences_report_exact_onsets() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u0 = dut.find_cell("u0").unwrap();
        // Flip only the row a=1,b=1: u0's net diverges first on the
        // exhaustive pattern with a=b=1 (index 3); u1 never diverges.
        inject(&mut dut, u0, DesignErrorKind::FlipRow { row: 3 }).unwrap();
        let n0 = golden.cell_output(golden.find_cell("u0").unwrap()).unwrap();
        let n1 = golden.cell_output(golden.find_cell("u1").unwrap()).unwrap();
        let pats: Vec<Vec<bool>> = PatternGen::exhaustive(3).collect();
        let mut work = SimWork::default();
        let onsets = net_first_divergences(&golden, &dut, &[n0, n1], &pats, &mut work).unwrap();
        assert_eq!(onsets, vec![Some(3), None]);
    }

    #[test]
    fn single_minterm_bug_needs_the_right_pattern() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u0 = dut.find_cell("u0").unwrap();
        // Flip only the row a=1,b=1.
        inject(&mut dut, u0, DesignErrorKind::FlipRow { row: 3 }).unwrap();
        let mut work = SimWork::default();
        let m = first_mismatch(&golden, &dut, PatternGen::exhaustive(3), &mut work)
            .unwrap()
            .expect("exhaustive patterns hit every minterm");
        // The failing stimulus must have a=b=1.
        let pat = PatternGen::exhaustive(3).nth(m.pattern_index).unwrap();
        assert!(pat[0] && pat[1]);
    }

    #[test]
    fn divergence_words_carry_the_whole_footprint() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u0 = dut.find_cell("u0").unwrap();
        inject(&mut dut, u0, DesignErrorKind::FlipRow { row: 3 }).unwrap();
        let pairs = [(0, 0), (1, 1)];
        let mut work = SimWork::default();
        let (words, count) =
            po_divergence_words(&golden, &dut, &pairs, PatternGen::exhaustive(3), &mut work)
                .unwrap();
        assert_eq!(count, 8);
        // One 8-lane chunk: one topo pass per machine.
        assert_eq!((work.sweeps, work.lanes_loaded), (2, 16));
        // y0 fails exactly on the a=b=1 patterns (indices 3 and 7).
        assert_eq!(words[0], vec![(1 << 3) | (1 << 7)]);
        assert!(words[1].is_empty(), "y1 never diverges");
    }

    #[test]
    fn outputs_equivalent_detects_and_clears() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let pairs = [(0, 0), (1, 1)];
        let pats = || PatternGen::exhaustive(3);
        let w = &mut SimWork::default();
        assert!(outputs_equivalent(&golden, &dut, &pairs, pats(), w).unwrap());
        let u1 = dut.find_cell("u1").unwrap();
        inject(&mut dut, u1, DesignErrorKind::Complement).unwrap();
        assert!(!outputs_equivalent(&golden, &dut, &pairs, pats(), w).unwrap());
        // Comparing only the clean output's pair still matches.
        assert!(outputs_equivalent(&golden, &dut, &pairs[..1], pats(), w).unwrap());
    }
}
