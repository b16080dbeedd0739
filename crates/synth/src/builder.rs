//! Structural netlist construction kit.
//!
//! [`NetBuilder`] wraps a [`Netlist`] plus its [`Hierarchy`] and offers
//! the datapath idioms the benchmark generators are written in: buses,
//! gates, adders, muxes, registers, and comparators. Every emitted
//! cell is assigned to the builder's *current hierarchy scope*, so the
//! generated designs carry a realistic module tree for back-annotation.

use netlist::{CellId, Hierarchy, HierarchyNodeId, NetId, Netlist, NetlistError, TruthTable};

/// Incremental builder for structural netlists.
///
/// ```
/// use synth::NetBuilder;
/// # fn main() -> Result<(), netlist::NetlistError> {
/// let mut b = NetBuilder::new("adder4");
/// let a = b.input_bus("a", 4)?;
/// let c = b.input_bus("b", 4)?;
/// let (sum, carry) = b.ripple_adder(&a, &c, None)?;
/// b.output_bus("sum", &sum)?;
/// b.output("cout", carry)?;
/// let (nl, _h) = b.finish();
/// assert_eq!(nl.primary_outputs().len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetBuilder {
    nl: Netlist,
    hier: Hierarchy,
    scope: HierarchyNodeId,
    unique: u64,
}

impl NetBuilder {
    /// Starts a new design.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let hier = Hierarchy::new(name.clone());
        let scope = hier.root();
        Self {
            nl: Netlist::new(name),
            hier,
            scope,
            unique: 0,
        }
    }

    /// Consumes the builder, returning the netlist and hierarchy.
    pub fn finish(self) -> (Netlist, Hierarchy) {
        (self.nl, self.hier)
    }

    /// Read access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Mutable access for edits the builder has no idiom for (e.g.
    /// closing multi-bit feedback loops).
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.nl
    }

    /// Enters a child of the *root* (a functional block).
    pub fn enter_block(&mut self, name: impl Into<String>) -> HierarchyNodeId {
        let root = self.hier.root();
        self.scope = self.hier.add_child(root, name);
        self.scope
    }

    /// Returns to the root scope.
    pub fn exit_to_root(&mut self) {
        self.scope = self.hier.root();
    }

    fn fresh(&mut self, stem: &str) -> String {
        self.unique += 1;
        format!("{stem}_{}", self.unique)
    }

    fn track(&mut self, cell: CellId) -> CellId {
        self.hier.assign_cell(self.scope, cell);
        cell
    }

    // ----------------------------------------------------------------
    // Ports
    // ----------------------------------------------------------------

    /// Adds one primary input and returns its net.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn input(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let id = self.nl.add_input(name)?;
        self.track(id);
        self.nl.cell_output(id)
    }

    /// Adds `width` primary inputs named `name[i]`, LSB first.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Result<Vec<NetId>, NetlistError> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// Adds one primary output consuming `net`.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) -> Result<CellId, NetlistError> {
        let id = self.nl.add_output(name, net)?;
        Ok(self.track(id))
    }

    /// Adds primary outputs `name[i]` for each net, LSB first.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn output_bus(&mut self, name: &str, nets: &[NetId]) -> Result<(), NetlistError> {
        for (i, &n) in nets.iter().enumerate() {
            self.output(format!("{name}[{i}]"), n)?;
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Combinational primitives
    // ----------------------------------------------------------------

    /// Emits a LUT computing `function` of `inputs`.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors (arity mismatch etc.).
    pub fn lut(&mut self, function: TruthTable, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        let name = self.fresh("u");
        let id = self.nl.add_lut(name, function, inputs)?;
        self.track(id);
        self.nl.cell_output(id)
    }

    /// Constant 0 or 1 (a zero-input LUT).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn constant(&mut self, value: bool) -> Result<NetId, NetlistError> {
        let tt = if value {
            TruthTable::constant1(0)
        } else {
            TruthTable::constant0(0)
        };
        self.lut(tt, &[])
    }

    /// Two-input AND.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn and2(&mut self, a: NetId, b: NetId) -> Result<NetId, NetlistError> {
        self.lut(TruthTable::and(2), &[a, b])
    }

    /// Two-input OR.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn or2(&mut self, a: NetId, b: NetId) -> Result<NetId, NetlistError> {
        self.lut(TruthTable::or(2), &[a, b])
    }

    /// Two-input XOR.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> Result<NetId, NetlistError> {
        self.lut(TruthTable::xor(2), &[a, b])
    }

    /// Inverter.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn not(&mut self, a: NetId) -> Result<NetId, NetlistError> {
        self.lut(TruthTable::not(), &[a])
    }

    /// 2:1 mux (`sel ? b : a`).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn mux2(&mut self, a: NetId, b: NetId, sel: NetId) -> Result<NetId, NetlistError> {
        self.lut(TruthTable::mux2(), &[a, b, sel])
    }

    /// Balanced XOR tree over any number of nets (≥1).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    ///
    /// # Panics
    ///
    /// Panics on an empty input slice.
    pub fn xor_tree(&mut self, nets: &[NetId]) -> Result<NetId, NetlistError> {
        assert!(!nets.is_empty(), "xor tree needs at least one input");
        let mut layer: Vec<NetId> = nets.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(4));
            for chunk in layer.chunks(4) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    next.push(self.lut(TruthTable::xor(chunk.len()), chunk)?);
                }
            }
            layer = next;
        }
        Ok(layer[0])
    }

    /// Wide AND via a tree of 4-input LUTs.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    ///
    /// # Panics
    ///
    /// Panics on an empty input slice.
    pub fn and_tree(&mut self, nets: &[NetId]) -> Result<NetId, NetlistError> {
        assert!(!nets.is_empty(), "and tree needs at least one input");
        let mut layer: Vec<NetId> = nets.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(4));
            for chunk in layer.chunks(4) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    next.push(self.lut(TruthTable::and(chunk.len()), chunk)?);
                }
            }
            layer = next;
        }
        Ok(layer[0])
    }

    /// Full adder; returns `(sum, carry_out)`.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn full_adder(
        &mut self,
        a: NetId,
        b: NetId,
        cin: NetId,
    ) -> Result<(NetId, NetId), NetlistError> {
        let sum = self.lut(TruthTable::xor(3), &[a, b, cin])?;
        let carry = self.lut(TruthTable::maj3(), &[a, b, cin])?;
        Ok((sum, carry))
    }

    /// Ripple-carry adder over two equal-width buses.
    ///
    /// Returns `(sum_bus, carry_out)`.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width or are empty.
    pub fn ripple_adder(
        &mut self,
        a: &[NetId],
        b: &[NetId],
        cin: Option<NetId>,
    ) -> Result<(Vec<NetId>, NetId), NetlistError> {
        assert_eq!(a.len(), b.len(), "adder bus width mismatch");
        assert!(!a.is_empty(), "adder needs at least one bit");
        let mut carry = match cin {
            Some(c) => c,
            None => self.constant(false)?,
        };
        let mut sum = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry)?;
            sum.push(s);
            carry = c;
        }
        Ok((sum, carry))
    }

    /// N:1 mux over a power-of-two input bus using select bits.
    ///
    /// `inputs.len()` must equal `2^select.len()`.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch.
    pub fn mux_n(&mut self, inputs: &[NetId], select: &[NetId]) -> Result<NetId, NetlistError> {
        assert_eq!(inputs.len(), 1usize << select.len(), "mux width mismatch");
        let mut layer: Vec<NetId> = inputs.to_vec();
        for &s in select {
            let mut next = Vec::with_capacity(layer.len() / 2);
            for pair in layer.chunks(2) {
                next.push(self.mux2(pair[0], pair[1], s)?);
            }
            layer = next;
        }
        Ok(layer[0])
    }

    /// Equality comparator between a bus and a constant.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn equals_const(&mut self, bus: &[NetId], value: u64) -> Result<NetId, NetlistError> {
        let mut conds = Vec::with_capacity(bus.len());
        for (i, &bit) in bus.iter().enumerate() {
            if value >> i & 1 == 1 {
                conds.push(bit);
            } else {
                conds.push(self.not(bit)?);
            }
        }
        self.and_tree(&conds)
    }

    /// Population counter: returns a `ceil(log2(n+1))`-bit count of set
    /// inputs, LSB first, built from full-adder reduction.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    ///
    /// # Panics
    ///
    /// Panics on an empty input slice.
    pub fn popcount(&mut self, bits: &[NetId]) -> Result<Vec<NetId>, NetlistError> {
        assert!(!bits.is_empty(), "popcount needs at least one input");
        // Column-compression: columns[i] holds nets of weight 2^i.
        let mut columns: Vec<Vec<NetId>> = vec![bits.to_vec()];
        loop {
            let mut changed = false;
            let mut next: Vec<Vec<NetId>> = vec![Vec::new(); columns.len() + 1];
            for (w, col) in columns.iter().enumerate() {
                let mut queue = col.clone();
                while queue.len() >= 3 {
                    let c = queue.pop().expect("len checked");
                    let b = queue.pop().expect("len checked");
                    let a = queue.pop().expect("len checked");
                    let (s, cy) = self.full_adder(a, b, c)?;
                    queue.push(s);
                    next[w + 1].push(cy);
                    changed = true;
                }
                next[w].extend(queue);
            }
            while next.last().is_some_and(Vec::is_empty) {
                next.pop();
            }
            columns = next;
            if !changed {
                break;
            }
        }
        // Any column still holding two nets needs a half-adder pass.
        loop {
            let mut pending = None;
            for (w, col) in columns.iter().enumerate() {
                if col.len() >= 2 {
                    pending = Some(w);
                    break;
                }
            }
            let Some(w) = pending else { break };
            let b = columns[w].pop().expect("len checked");
            let a = columns[w].pop().expect("len checked");
            let s = self.xor2(a, b)?;
            let c = self.and2(a, b)?;
            columns[w].push(s);
            if w + 1 >= columns.len() {
                columns.push(Vec::new());
            }
            columns[w + 1].push(c);
        }
        let mut out = Vec::with_capacity(columns.len());
        for col in &columns {
            match col.as_slice() {
                [] => out.push(self.constant(false)?),
                [one] => out.push(*one),
                _ => unreachable!("columns reduced to <= 1 net"),
            }
        }
        Ok(out)
    }

    // ----------------------------------------------------------------
    // Sequential primitives
    // ----------------------------------------------------------------

    /// D flip-flop.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn ff(&mut self, d: NetId, init: bool) -> Result<NetId, NetlistError> {
        let name = self.fresh("r");
        let id = self.nl.add_ff(name, init, d)?;
        self.track(id);
        self.nl.cell_output(id)
    }

    /// Register over a bus; returns the Q bus.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn register(&mut self, d: &[NetId], init: u64) -> Result<Vec<NetId>, NetlistError> {
        d.iter()
            .enumerate()
            .map(|(i, &n)| self.ff(n, init >> i & 1 == 1))
            .collect()
    }

    /// A flip-flop with feedback through caller-supplied logic.
    ///
    /// Creates the FF first (fed by a placeholder), hands its Q to
    /// `feedback` to compute the D input, then closes the loop.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn ff_loop(
        &mut self,
        init: bool,
        feedback: impl FnOnce(&mut Self, NetId) -> Result<NetId, NetlistError>,
    ) -> Result<NetId, NetlistError> {
        let seed_name = self.fresh("loop_seed");
        let seed = self.nl.add_net(seed_name)?;
        let ff_name = self.fresh("r");
        let ff = self.nl.add_ff(ff_name, init, seed)?;
        self.track(ff);
        let q = self.nl.cell_output(ff)?;
        let d = feedback(self, q)?;
        self.nl.set_pin(ff, 0, d)?;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_structure() {
        let mut b = NetBuilder::new("add");
        let a = b.input_bus("a", 4).unwrap();
        let c = b.input_bus("b", 4).unwrap();
        let (sum, _cout) = b.ripple_adder(&a, &c, None).unwrap();
        b.output_bus("s", &sum).unwrap();
        let (nl, _) = b.finish();
        nl.validate().unwrap();
        // 4 full adders à 2 LUTs + constant = 9 cells.
        assert_eq!(nl.num_luts(), 9);
    }

    #[test]
    fn xor_tree_reduces_with_lut4() {
        let mut b = NetBuilder::new("x");
        let ins = b.input_bus("i", 16).unwrap();
        let y = b.xor_tree(&ins).unwrap();
        b.output("y", y).unwrap();
        let (nl, _) = b.finish();
        // 16 -> 4 -> 1: five 4-input XOR LUTs.
        assert_eq!(nl.num_luts(), 5);
        assert_eq!(nl.logic_depth().unwrap(), 2);
    }

    #[test]
    fn mux_n_selects() {
        let mut b = NetBuilder::new("m");
        let ins = b.input_bus("i", 8).unwrap();
        let sel = b.input_bus("s", 3).unwrap();
        let y = b.mux_n(&ins, &sel).unwrap();
        b.output("y", y).unwrap();
        let (nl, _) = b.finish();
        nl.validate().unwrap();
        assert_eq!(nl.num_luts(), 7); // 4 + 2 + 1 mux2s
    }

    #[test]
    fn popcount_width() {
        let mut b = NetBuilder::new("p");
        let ins = b.input_bus("i", 9).unwrap();
        let cnt = b.popcount(&ins).unwrap();
        b.output_bus("c", &cnt).unwrap();
        let (nl, _) = b.finish();
        nl.validate().unwrap();
        assert_eq!(cnt.len(), 4); // 0..=9 fits in 4 bits
    }

    #[test]
    fn ff_loop_closes() {
        let mut b = NetBuilder::new("t");
        let q = b.ff_loop(false, |b, q| b.not(q)).unwrap();
        b.output("q", q).unwrap();
        let (nl, _) = b.finish();
        assert_eq!(nl.num_ffs(), 1);
        nl.topo_order().unwrap();
    }

    #[test]
    fn hierarchy_scoping() {
        let mut b = NetBuilder::new("top");
        b.enter_block("alu");
        let a = b.input("a").unwrap();
        let inv = b.not(a).unwrap();
        b.exit_to_root();
        b.output("y", inv).unwrap();
        let (nl, h) = b.finish();
        let inv_cell = nl.net(inv).unwrap().driver.unwrap();
        let node = h.node_of_cell(inv_cell).unwrap();
        assert_eq!(h.path(node).unwrap(), "top/alu");
        assert_eq!(h.functional_block_of(inv_cell), Some(node));
    }

    #[test]
    fn equals_const_matches() {
        let mut b = NetBuilder::new("eq");
        let bus = b.input_bus("v", 4).unwrap();
        let hit = b.equals_const(&bus, 0b1010).unwrap();
        b.output("hit", hit).unwrap();
        let (nl, _) = b.finish();
        nl.validate().unwrap();
    }
}
