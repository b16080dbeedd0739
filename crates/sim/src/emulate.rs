//! Golden-vs-DUT emulation with primary-output-only observability.
//!
//! The golden model never changes during a debug session, so it is
//! simulated exactly once: [`GoldenTrace::new`] runs the session's
//! stimulus through it and keeps every net's value on every pattern.
//! Every comparison after that — full response footprints, per-net
//! divergence onsets, post-ECO equivalence, §4.1 control-point
//! confirmation — walks only the DUT and reads the golden side off the
//! trace words.
//!
//! The trace build and every DUT sweep share the one chunk loop in
//! this module (`walk`): combinational designs evaluate 64 patterns per
//! topo pass ([`PackedSimulator`] lanes = patterns), sequential designs
//! run the stimulus stream in one-pattern chunks (lanes can never be
//! time steps — pattern `i`'s flip-flop state depends on pattern
//! `i-1`), which keeps every onset and verdict bit-exact with the
//! scalar [`Simulator`](crate::Simulator) oracle.
//!
//! Every entry point adds the work its simulator did to a
//! caller-supplied [`SimWork`], so whoever runs a sweep — a debug
//! session, a bench — owns the count of exactly its own sweeps.

use netlist::{NetId, Netlist, NetlistError};

use crate::packed::{PackedSimulator, SimWork, LANES};

/// A detected divergence between golden model and device under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Index of the stimulus vector that exposed the bug (on
    /// sequential designs also the clock cycle: the stimulus stream is
    /// clocked once per pattern, without reset).
    pub pattern_index: usize,
    /// Index of the diverging primary output (PO order).
    pub output_index: usize,
    /// Name of the diverging output cell.
    pub output_name: String,
    /// Which outputs matched (true) at the failing pattern.
    pub output_ok: Vec<bool>,
}

/// The golden model's response to one stimulus set, simulated once.
///
/// Owns the patterns and the golden value of every net on every
/// pattern, packed like a `ResponseSignature`: bit `p % 64` of word
/// `p / 64` is the net's value on pattern `p`. Sequential designs are
/// clocked once per pattern without reset, as in every sweep. The
/// trace costs `nets × ⌈patterns / 64⌉` words.
#[derive(Debug, Clone)]
pub struct GoldenTrace {
    patterns: Vec<Vec<bool>>,
    inputs: usize,
    sequential: bool,
    /// Words per net: `⌈patterns / 64⌉`.
    stride: usize,
    /// Net index `n`'s words start at `n * stride`.
    words: Vec<u64>,
    /// The trailing all-zero row, read for nets the golden model lacks
    /// and for dangling outputs.
    zero_row: usize,
    /// Row of each golden primary output's driving net (PO order).
    po_rows: Vec<usize>,
}

impl GoldenTrace {
    /// Simulates `golden` over `patterns` once and keeps every net's
    /// words, adding the simulation work to `work`.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures (combinational loops).
    ///
    /// # Panics
    ///
    /// Panics if a pattern's width differs from the golden PI count.
    pub fn new(
        golden: &Netlist,
        patterns: impl IntoIterator<Item = Vec<bool>>,
        work: &mut SimWork,
    ) -> Result<Self, NetlistError> {
        let patterns: Vec<Vec<bool>> = patterns.into_iter().collect();
        let inputs = golden.primary_inputs().len();
        assert!(
            patterns.iter().all(|p| p.len() == inputs),
            "pattern width mismatch"
        );
        let stride = patterns.len().div_ceil(LANES);
        let zero_row = golden.net_capacity();
        let mut words = vec![0u64; (zero_row + 1) * stride];
        let nets: Vec<NetId> = golden.nets().map(|(id, _)| id).collect();
        let seq = golden.is_sequential();
        walk(golden, &patterns, seq, None, work, |base, lanes, sim| {
            let (wi, shift) = (base / LANES, base % LANES);
            for &net in &nets {
                words[net.index() * stride + wi] |= (sim.net_word(net) & lanes) << shift;
            }
            true
        })?;
        let mut po_rows = Vec::new();
        for po in golden.primary_outputs() {
            let driver = golden.cell(po)?.inputs.first();
            po_rows.push(driver.map_or(zero_row, |n| n.index()));
        }
        Ok(Self {
            patterns,
            inputs,
            sequential: seq,
            stride,
            words,
            zero_row,
            po_rows,
        })
    }

    /// The stimulus patterns, in sweep order.
    pub fn patterns(&self) -> &[Vec<bool>] {
        &self.patterns
    }

    /// The golden words of `net` (all zero for nets the golden model
    /// lacks, such as DUT-only debug instrumentation).
    pub fn net_words(&self, net: NetId) -> &[u64] {
        self.row(net.index())
    }

    /// The golden words of primary output `index` (PO order).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range index.
    pub fn output_words(&self, index: usize) -> &[u64] {
        self.row(self.po_rows[index])
    }

    fn row(&self, row: usize) -> &[u64] {
        let start = row.min(self.zero_row) * self.stride;
        &self.words[start..start + self.stride]
    }

    /// Walks `dut` over the first `count` patterns against this trace
    /// (see [`walk`]), streaming when either machine is sequential.
    /// `force` names a control point's forced net; its `[force_val,
    /// force_en]` pair follows the golden PIs in the DUT's input order.
    fn sweep(
        &self,
        dut: &Netlist,
        count: usize,
        force: Option<NetId>,
        work: &mut SimWork,
        visit: impl FnMut(usize, u64, &PackedSimulator<'_>) -> bool,
    ) -> Result<(), NetlistError> {
        let stream = self.sequential || dut.is_sequential();
        let force = force.map(|net| (self.inputs, self.net_words(net)));
        walk(dut, &self.patterns[..count], stream, force, work, visit)
    }

    /// Whether the paired outputs match golden on every swept pattern
    /// (stops at the first diverging chunk).
    fn matches(
        &self,
        dut: &Netlist,
        pairs: &[(usize, usize)],
        count: usize,
        force: Option<NetId>,
        work: &mut SimWork,
    ) -> Result<bool, NetlistError> {
        let mut matched = true;
        self.sweep(dut, count, force, work, |base, lanes, sim| {
            matched = pairs.iter().all(|&(gk, dk)| {
                (chunk_word(self.output_words(gk), base) ^ sim.output_word(dk)) & lanes == 0
            });
            matched
        })?;
        Ok(matched)
    }
}

/// The golden word of the chunk starting at pattern `base`. Chunks
/// never straddle a word boundary: combinational chunks are 64-aligned
/// and sequential chunks are single patterns.
fn chunk_word(words: &[u64], base: usize) -> u64 {
    words[base / LANES] >> (base % LANES)
}

/// The one chunk loop behind the trace build and every DUT sweep.
///
/// Walks `nl` over `patterns` in chunks — [`LANES`] patterns per
/// chunk, or one per chunk when `stream` (clocking between chunks, no
/// reset) — and hands each evaluated chunk to `visit(base, lane_mask,
/// sim)`. `visit` returns `false` to stop the sweep early; the clock
/// does not advance past a stopped chunk. Patterns narrower than the
/// PI count drive the extra inputs (debug instrumentation) inactive.
/// `force` is a control point's `(force_val PI index, golden words of
/// the forced net)`: every chunk drives `force_val` with the golden
/// chunk word and the next PI, `force_en`, active. Adds the
/// simulator's work to `work`.
fn walk(
    nl: &Netlist,
    patterns: &[Vec<bool>],
    stream: bool,
    force: Option<(usize, &[u64])>,
    work: &mut SimWork,
    mut visit: impl FnMut(usize, u64, &PackedSimulator<'_>) -> bool,
) -> Result<(), NetlistError> {
    let mut sim = PackedSimulator::new(nl)?;
    let width = if stream { 1 } else { LANES };
    for (c, chunk) in patterns.chunks(width).enumerate() {
        let base = c * width;
        let lanes = sim.load_patterns_padded(chunk);
        if let Some((pi, golden)) = force {
            sim.set_input_word(pi, chunk_word(golden, base));
            sim.set_input_word(pi + 1, u64::MAX);
        }
        sim.comb_eval();
        if !visit(base, lanes, &sim) {
            break;
        }
        if stream {
            sim.step();
        }
    }
    *work += sim.work();
    Ok(())
}

/// Windowed response capture: sweeps the DUT and records, per watched
/// net, the index of the **first** pattern on which its value
/// diverges from golden (`None` = clean across the whole sweep).
///
/// This is the observation primitive behind windowed multi-error
/// diagnosis: a tap verdict is no longer a single "ever diverged"
/// bit but the exact onset pattern, so one physical tap can be
/// re-read under any cluster's `[0, first_fail]` observation window
/// (diverged within the window iff the onset is `<= window`).
///
/// Onsets fall out of the packed words as
/// `(golden ^ dut).trailing_zeros()` scans over the same chunks as
/// [`po_divergence_words`], so pattern indices are directly comparable
/// across detection and observation. The DUT may carry extra primary
/// inputs (debug instrumentation); they are driven inactive. The
/// sweep stops early once every watched net has diverged.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
pub fn net_first_divergences(
    trace: &GoldenTrace,
    dut: &Netlist,
    nets: &[NetId],
    work: &mut SimWork,
) -> Result<Vec<Option<usize>>, NetlistError> {
    let golden: Vec<&[u64]> = nets.iter().map(|&net| trace.net_words(net)).collect();
    let mut onsets: Vec<Option<usize>> = vec![None; nets.len()];
    let mut undecided = nets.len();
    let all = trace.patterns.len();
    trace.sweep(dut, all, None, work, |base, lanes, sim| {
        for ((onset, &net), g) in onsets.iter_mut().zip(nets).zip(&golden) {
            if onset.is_none() {
                let diff = (chunk_word(g, base) ^ sim.net_word(net)) & lanes;
                if diff != 0 {
                    *onset = Some(base + diff.trailing_zeros() as usize);
                    undecided -= 1;
                }
            }
        }
        undecided != 0
    })?;
    Ok(onsets)
}

/// Full-footprint sweep: for each `(golden PO index, DUT PO index)`
/// pair, the packed set of patterns on which the two outputs
/// diverge — `words[i]` holds bit `p % 64` of word `p / 64` set iff
/// pattern `p` failed. This is the word-level feed for
/// `ResponseMatrix` signatures (which store exactly this layout); the
/// sweep never stops early, because multi-error diagnosis needs the
/// whole footprint.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
pub fn po_divergence_words(
    trace: &GoldenTrace,
    dut: &Netlist,
    pairs: &[(usize, usize)],
    work: &mut SimWork,
) -> Result<Vec<Vec<u64>>, NetlistError> {
    let mut words: Vec<Vec<u64>> = vec![Vec::new(); pairs.len()];
    let all = trace.patterns.len();
    trace.sweep(dut, all, None, work, |base, lanes, sim| {
        let (wi, shift) = (base / LANES, base % LANES);
        for (w, &(gk, dk)) in words.iter_mut().zip(pairs) {
            let golden = chunk_word(trace.output_words(gk), base);
            let diff = (golden ^ sim.output_word(dk)) & lanes;
            if diff != 0 {
                if w.len() <= wi {
                    w.resize(wi + 1, 0);
                }
                w[wi] |= diff << shift;
            }
        }
        true
    })?;
    Ok(words)
}

/// Whether the paired primary outputs agree on every pattern
/// (early-exits on the first diverging chunk). The DUT may carry
/// extra primary inputs; they are driven inactive.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
pub fn outputs_equivalent(
    trace: &GoldenTrace,
    dut: &Netlist,
    pairs: &[(usize, usize)],
    work: &mut SimWork,
) -> Result<bool, NetlistError> {
    trace.matches(dut, pairs, trace.patterns.len(), None, work)
}

/// §4.1 control-point confirmation sweep over the first `patterns`
/// trace patterns: the DUT's last two primary inputs are a control
/// point's `[force_val, force_en]` pair; each chunk drives
/// `force_val` with the golden words of `forced_net` and holds
/// `force_en` active, then compares the paired primary outputs.
/// Returns whether every pattern matched (early-exits on the first
/// diverging chunk).
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
    trace: &GoldenTrace,
    dut: &Netlist,
    forced_net: NetId,
    pairs: &[(usize, usize)],
    patterns: usize,
    work: &mut SimWork,
) -> Result<bool, NetlistError> {
    assert_eq!(
        dut.primary_inputs().len(),
        trace.inputs + 2,
        "control point adds two PIs"
    );
    let count = patterns.min(trace.patterns.len());
    trace.matches(dut, pairs, count, Some(forced_net), work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{inject, DesignErrorKind};
    use crate::testlogic::insert_control_point;
    use crate::PatternGen;
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

    /// A toggle flip-flop `out = q`, `q ^= en` (through LUT `f`, or a
    /// buffer of `q` when `bug`), beside an unrelated `y2 = NOT en`
    /// through LUT `g`.
    fn toggle_design(bug: bool) -> Netlist {
        let mut nl = Netlist::new("seq");
        let en = nl.add_input("en").unwrap();
        let en_net = nl.cell_output(en).unwrap();
        let seed = nl.add_net("seed").unwrap();
        let ff = nl.add_ff("q", false, seed).unwrap();
        let q = nl.cell_output(ff).unwrap();
        let tt = if bug {
            TruthTable::var(2, 1)
        } else {
            TruthTable::xor(2)
        };
        let f = nl.add_lut("f", tt, &[en_net, q]).unwrap();
        nl.set_pin(ff, 0, nl.cell_output(f).unwrap()).unwrap();
        nl.add_output("out", q).unwrap();
        let g = nl.add_lut("g", TruthTable::not(), &[en_net]).unwrap();
        nl.add_output("y2", nl.cell_output(g).unwrap()).unwrap();
        nl
    }

    fn trace(golden: &Netlist, patterns: PatternGen) -> GoldenTrace {
        GoldenTrace::new(golden, patterns, &mut SimWork::default()).unwrap()
    }

    /// Whether forcing `cell`'s net to golden through a control point
    /// makes the buggy DUT's outputs match.
    fn forcing_repairs(golden: &Netlist, mut dut: Netlist, cell: &str, t: &GoldenTrace) -> bool {
        let net = dut.cell_output(dut.find_cell(cell).unwrap()).unwrap();
        insert_control_point(&mut dut, net, "cp").unwrap();
        let pairs: Vec<(usize, usize)> = (0..golden.primary_outputs().len())
            .map(|k| (k, k))
            .collect();
        let w = &mut SimWork::default();
        forced_outputs_equivalent(t, &dut, net, &pairs, t.patterns().len(), w).unwrap()
    }

    #[test]
    fn sequential_divergence_found_over_time() {
        let golden = toggle_design(false);
        let dut = toggle_design(true);
        let t = trace(&golden, PatternGen::random(1, 20, 3));
        let w = &mut SimWork::default();
        let words = po_divergence_words(&t, &dut, &[(0, 0), (1, 1)], w).unwrap();
        assert!(!words[0].is_empty(), "the stuck FF must diverge");
        assert!(words[1].is_empty(), "y2 never diverges");
        // Stream mode: one load and two topo passes per pattern.
        assert_eq!((w.sweeps, w.lanes_loaded), (40, 20));
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
        let t = trace(&golden, PatternGen::exhaustive(3));
        let mut work = SimWork::default();
        let onsets = net_first_divergences(&t, &dut, &[n0, n1], &mut work).unwrap();
        assert_eq!(onsets, vec![Some(3), None]);
    }

    #[test]
    fn divergence_words_carry_the_whole_footprint() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u0 = dut.find_cell("u0").unwrap();
        inject(&mut dut, u0, DesignErrorKind::FlipRow { row: 3 }).unwrap();
        let pairs = [(0, 0), (1, 1)];
        let mut trace_work = SimWork::default();
        let t = GoldenTrace::new(&golden, PatternGen::exhaustive(3), &mut trace_work).unwrap();
        let mut work = SimWork::default();
        let words = po_divergence_words(&t, &dut, &pairs, &mut work).unwrap();
        // One 8-lane chunk: one topo pass for the trace, one for the
        // DUT sweep.
        assert_eq!((trace_work.sweeps, trace_work.lanes_loaded), (1, 8));
        assert_eq!((work.sweeps, work.lanes_loaded), (1, 8));
        // y0 fails exactly on the a=b=1 patterns (indices 3 and 7).
        assert_eq!(words[0], vec![(1 << 3) | (1 << 7)]);
        assert!(words[1].is_empty(), "y1 never diverges");
    }

    #[test]
    fn outputs_equivalent_detects_and_clears() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let pairs = [(0, 0), (1, 1)];
        let t = trace(&golden, PatternGen::exhaustive(3));
        let w = &mut SimWork::default();
        assert!(outputs_equivalent(&t, &dut, &pairs, w).unwrap());
        let u1 = dut.find_cell("u1").unwrap();
        inject(&mut dut, u1, DesignErrorKind::Complement).unwrap();
        assert!(!outputs_equivalent(&t, &dut, &pairs, w).unwrap());
        // Comparing only the clean output's pair still matches.
        assert!(outputs_equivalent(&t, &dut, &pairs[..1], w).unwrap());
    }

    #[test]
    fn forcing_the_planted_net_to_golden_repairs_combinational_outputs() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u1 = dut.find_cell("u1").unwrap();
        inject(&mut dut, u1, DesignErrorKind::Complement).unwrap();
        let t = trace(&golden, PatternGen::exhaustive(3));
        assert!(forcing_repairs(&golden, dut.clone(), "u1", &t));
        assert!(!forcing_repairs(&golden, dut, "u0", &t));
    }

    #[test]
    fn forcing_the_planted_net_to_golden_repairs_sequential_outputs() {
        let golden = toggle_design(false);
        let dut = toggle_design(true);
        let t = trace(&golden, PatternGen::random(1, 20, 3));
        assert!(forcing_repairs(&golden, dut.clone(), "f", &t));
        assert!(!forcing_repairs(&golden, dut, "g", &t));
    }
}
