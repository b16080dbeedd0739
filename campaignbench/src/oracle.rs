//! The correctness oracle: the scalar `sim::Simulator`, the repo's
//! differential reference, run on golden and repaired netlists.

use netlist::Netlist;
use sim::patterns::PatternGen;
use sim::Simulator;

/// Whether `dut` matches `golden` on every primary output for every
/// pattern. Ports pair by name; DUT inputs golden lacks (left-over
/// debug instrumentation) are driven low. Sequential designs take the
/// patterns as one stream, one clock per pattern, never reset —
/// exactly how the session's sweeps apply them.
///
/// # Errors
///
/// A port of the golden design missing from the DUT, or a netlist the
/// simulator cannot order.
pub fn scalar_equivalent(
    golden: &Netlist,
    dut: &Netlist,
    patterns: PatternGen,
) -> Result<bool, String> {
    let pair = |g_ports: Vec<netlist::CellId>, d_ports: Vec<netlist::CellId>| {
        g_ports
            .iter()
            .map(|&g| {
                let name = &golden.cell(g).map_err(|e| e.to_string())?.name;
                dut.find_cell(name)
                    .and_then(|d| d_ports.iter().position(|&p| p == d))
                    .ok_or_else(|| format!("port {name} missing from the repaired design"))
            })
            .collect::<Result<Vec<usize>, String>>()
    };
    let pi_map = pair(golden.primary_inputs(), dut.primary_inputs())?;
    let po_map = pair(golden.primary_outputs(), dut.primary_outputs())?;
    let mut gsim = Simulator::new(golden).map_err(|e| e.to_string())?;
    let mut dsim = Simulator::new(dut).map_err(|e| e.to_string())?;
    let mut dut_in = vec![false; dsim.num_inputs()];
    for pattern in patterns {
        for (g, &d) in pi_map.iter().enumerate() {
            dut_in[d] = pattern[g];
        }
        gsim.set_inputs(&pattern);
        dsim.set_inputs(&dut_in);
        gsim.comb_eval();
        dsim.comb_eval();
        let (gout, dout) = (gsim.outputs(), dsim.outputs());
        if po_map.iter().enumerate().any(|(g, &d)| gout[g] != dout[d]) {
            return Ok(false);
        }
        gsim.step();
        dsim.step();
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::TruthTable;

    fn inverter(tt: TruthTable) -> Netlist {
        let mut nl = Netlist::new("inv");
        let a = nl.add_input("a").unwrap();
        let u = nl.add_lut("u", tt, &[nl.cell_output(a).unwrap()]).unwrap();
        nl.add_output("y", nl.cell_output(u).unwrap()).unwrap();
        nl
    }

    #[test]
    fn detects_a_wrong_function() {
        let golden = inverter(TruthTable::not());
        assert!(scalar_equivalent(&golden, &golden.clone(), PatternGen::exhaustive(1)).unwrap());
        let buggy = inverter(TruthTable::buf());
        assert!(!scalar_equivalent(&golden, &buggy, PatternGen::exhaustive(1)).unwrap());
    }
}
