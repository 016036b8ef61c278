//! Experiment harness producing the rows of Tables 4.2, 4.3 and 4.4.

use fbt_bist::area::{circuit_area, BistHardware, CellLibrary};
use fbt_bist::cube;
use fbt_bist::scan::ScanChains;
use fbt_netlist::Netlist;

use crate::constrained::ConstrainedOutcome;
use crate::driver::{swafunc, DrivingBlock};
use crate::holding::HoldingOutcome;
use crate::{generate_constrained, improve_with_holding, FunctionalBistConfig};

/// A row of Table 4.2: benchmark circuit parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitParamsRow {
    /// Circuit name.
    pub name: String,
    /// Number of primary outputs (`NPO`).
    pub npo: usize,
    /// Number of primary inputs (`NPI` / `Nin`).
    pub npi: usize,
    /// Number of cube-specified inputs (`NSP` / `Np`, the biasing gates).
    pub nsp: usize,
    /// Number of state variables (`NSV`).
    pub nsv: usize,
}

/// Compute the Table 4.2 row for a circuit.
pub fn circuit_params(net: &Netlist) -> CircuitParamsRow {
    let c = cube::input_cube(net);
    CircuitParamsRow {
        name: net.name().to_string(),
        npo: net.num_outputs(),
        npi: net.num_inputs(),
        nsp: cube::specified_count(&c),
        nsv: net.num_dffs(),
    }
}

/// A row of Table 4.3: constrained built-in generation results.
#[derive(Debug, Clone)]
pub struct ConstrainedRow {
    /// Target circuit name.
    pub target: String,
    /// Total collapsed transition faults.
    pub num_faults: usize,
    /// Longest scan chain `Lsc`.
    pub lsc: usize,
    /// Driving block label.
    pub driver: String,
    /// Number of multi-segment sequences `Nmulti`.
    pub nmulti: usize,
    /// Most segments in a sequence `Nsegmax`.
    pub nsegmax: usize,
    /// Longest segment `Lmax`.
    pub lmax: usize,
    /// The bound `SWAfunc`, percent.
    pub swafunc_pct: f64,
    /// Selected LFSR seeds `Nseeds`.
    pub nseeds: usize,
    /// Applied tests `Ntests`.
    pub ntests: usize,
    /// Peak activity during test application, percent.
    pub swa_pct: f64,
    /// Transition fault coverage, percent.
    pub fc_pct: f64,
    /// BIST hardware area, µm².
    pub hw_area: f64,
    /// Hardware area as a percentage of the circuit area.
    pub overhead_pct: f64,
}

/// Run the full constrained experiment for one (target, driver) pair.
///
/// Computes `SWAfunc` from functional input sequences, runs the constrained
/// generation, sizes the hardware and prices it.
pub fn run_constrained_experiment(
    target: &Netlist,
    driver: &DrivingBlock,
    cfg: &FunctionalBistConfig,
) -> (ConstrainedRow, ConstrainedOutcome) {
    let lib = CellLibrary::generic_018um();
    let bound = swafunc(target, driver, cfg);
    let out = generate_constrained(target, bound, cfg);
    let params = circuit_params(target);
    let lsc = ScanChains::paper_config(params.nsv).longest();
    let hw = BistHardware::for_program(
        cfg.lfsr_width as usize,
        cfg.m,
        params.nsp,
        out.lmax().max(2),
        lsc,
        out.nsegmax().max(1),
        out.nmulti().max(1),
        0,
    );
    let hw_area = hw.area(&lib);
    let circ = circuit_area(target, &lib);
    let row = ConstrainedRow {
        target: params.name,
        num_faults: out.faults.len(),
        lsc,
        driver: driver.label().to_string(),
        nmulti: out.nmulti(),
        nsegmax: out.nsegmax(),
        lmax: out.lmax(),
        swafunc_pct: bound * 100.0,
        nseeds: out.nseeds(),
        ntests: out.tests_applied,
        swa_pct: out.peak_swa * 100.0,
        fc_pct: out.fault_coverage(),
        hw_area,
        overhead_pct: 100.0 * hw_area / circ,
    };
    (row, out)
}

/// A row of Table 4.4: built-in test generation with state holding.
#[derive(Debug, Clone)]
pub struct HoldingRow {
    /// Target circuit name.
    pub target: String,
    /// Driving block label.
    pub driver: String,
    /// Number of selected hold sets `Nh`.
    pub nh: usize,
    /// Total held state variables `Nbits`.
    pub nbits: usize,
    /// Multi-segment sequences applied during holding `Nmulti`.
    pub nmulti: usize,
    /// Most segments in a sequence `Nsegmax`.
    pub nsegmax: usize,
    /// Longest segment `Lmax`.
    pub lmax: usize,
    /// Seeds used during holding `Nseeds`.
    pub nseeds: usize,
    /// Tests applied during holding `Ntests`.
    pub ntests: usize,
    /// Peak activity during holding, percent.
    pub swa_pct: f64,
    /// Coverage improvement, percent points ("FC Imp.").
    pub fc_improvement_pct: f64,
    /// Final coverage, percent.
    pub final_fc_pct: f64,
    /// Total hardware area (base + holding), µm².
    pub hw_area: f64,
    /// Overhead percentage.
    pub overhead_pct: f64,
}

/// Run the state-holding stage on top of a constrained outcome and size the
/// combined hardware.
pub fn run_holding_experiment(
    target: &Netlist,
    driver: &DrivingBlock,
    cfg: &FunctionalBistConfig,
    base: &ConstrainedOutcome,
) -> (HoldingRow, HoldingOutcome) {
    let lib = CellLibrary::generic_018um();
    let out = improve_with_holding(target, base.swafunc, cfg, base);
    let params = circuit_params(target);
    let lsc = ScanChains::paper_config(params.nsv).longest();
    let all_seqs: Vec<&crate::MultiSegmentSequence> =
        out.sequences_per_set.iter().flatten().collect();
    let nmulti = all_seqs.len();
    let nsegmax = all_seqs.iter().map(|s| s.num_segments()).max().unwrap_or(0);
    let lmax = all_seqs
        .iter()
        .flat_map(|s| s.segments.iter().map(|g| g.len))
        .max()
        .unwrap_or(0);
    let hw = BistHardware::for_program(
        cfg.lfsr_width as usize,
        cfg.m,
        params.nsp,
        lmax.max(base.lmax()).max(2),
        lsc,
        nsegmax.max(base.nsegmax()).max(1),
        (nmulti + base.nmulti()).max(1),
        out.sets.len(),
    );
    let hw_area = hw.area(&lib);
    let circ = circuit_area(target, &lib);
    let row = HoldingRow {
        target: params.name,
        driver: driver.label().to_string(),
        nh: out.sets.len(),
        nbits: out.nbits(),
        nmulti,
        nsegmax,
        lmax,
        nseeds: out.nseeds(),
        ntests: out.tests_applied,
        swa_pct: out.peak_swa * 100.0,
        fc_improvement_pct: out.improvement(),
        final_fc_pct: out.final_coverage(),
        hw_area,
        overhead_pct: 100.0 * hw_area / circ,
    };
    (row, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::s27;

    #[test]
    fn params_row_for_s27() {
        let row = circuit_params(&s27());
        assert_eq!(row.npi, 4);
        assert_eq!(row.npo, 1);
        assert_eq!(row.nsv, 3);
        assert!(row.nsp <= row.npi);
    }

    #[test]
    fn constrained_experiment_row_is_coherent() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let (row, out) = run_constrained_experiment(&net, &DrivingBlock::Buffers, &cfg);
        assert!(row.swa_pct <= row.swafunc_pct + 1e-9);
        assert_eq!(row.ntests, out.tests_applied);
        assert!(row.fc_pct > 0.0);
        assert!(row.hw_area > 0.0);
        assert!(row.overhead_pct > 0.0);
        assert_eq!(row.driver, "buffers");
    }

    #[test]
    fn holding_experiment_extends_base() {
        let net = s27();
        let cfg = FunctionalBistConfig::smoke();
        let bound = crate::driver::swafunc(&net, &DrivingBlock::Buffers, &cfg) * 0.75;
        let base = crate::generate_constrained(&net, bound, &cfg);
        let (row, out) = run_holding_experiment(&net, &DrivingBlock::Buffers, &cfg, &base);
        assert!(row.final_fc_pct + 1e-9 >= base.fault_coverage());
        assert_eq!(row.nh, out.sets.len());
        assert!(row.swa_pct <= row_bound_pct(bound) + 1e-9);
    }

    fn row_bound_pct(bound: f64) -> f64 {
        bound * 100.0
    }
}
