//! Ablation: switching-activity bound (the paper's §4.4 metric) vs. the
//! signal-transition-pattern subset rule (§5.1 future work, \[90\]). STP is
//! strictly stronger: it also forbids signal transitions functional
//! operation never produces, trading coverage for less overtesting risk.

use fbt_bench::{pct, Scale, Table};
use fbt_core::driver::{functional_sequences, DrivingBlock};
use fbt_core::stp::StpLibrary;
use fbt_core::{
    estimate_overtesting, generate_constrained, generate_constrained_with_library,
    FunctionalBistConfig,
};
use fbt_sim::Bits;

fn main() {
    let scale = Scale::from_env();
    let cfg = scale.bist_config();
    // The functional library is sampled more sparsely than the generation
    // budget, so the SWA-bounded generator strays outside it (a measurable
    // overtesting residue) while the STP rule, by construction, cannot.
    let lib_cfg = FunctionalBistConfig {
        func_sequences: 2,
        func_len: cfg.func_len / 4,
        ..cfg.clone()
    };
    let circuits = match scale {
        Scale::Smoke => vec!["s298"],
        _ => vec!["s298", "s386", "s953"],
    };
    let mut t = Table::new(&[
        "Circuit",
        "metric",
        "bound %",
        "Nseeds",
        "Ntests",
        "SWA %",
        "FC %",
        "non-func trans %",
    ]);
    for name in circuits {
        let net = fbt_bench::circuit(scale, name);
        let seqs = functional_sequences(&net, &DrivingBlock::Buffers, &lib_cfg);
        let lib = StpLibrary::collect(&net, &Bits::zeros(net.num_dffs()), &seqs);
        let bound = fbt_sim::activity::peak_activity(&net, &Bits::zeros(net.num_dffs()), &seqs);

        let swa_out = generate_constrained(&net, bound, &cfg);
        let swa_residue = estimate_overtesting(&net, &swa_out, &cfg, &lib);
        t.row(vec![
            net.name().to_string(),
            "SWA".to_string(),
            pct(bound * 100.0),
            swa_out.nseeds().to_string(),
            swa_out.tests_applied.to_string(),
            pct(swa_out.peak_swa * 100.0),
            pct(swa_out.fault_coverage()),
            pct(swa_residue.non_functional_fraction() * 100.0),
        ]);

        let stp_out = generate_constrained_with_library(&net, bound, &lib, &cfg);
        let stp_residue = estimate_overtesting(&net, &stp_out, &cfg, &lib);
        t.row(vec![
            net.name().to_string(),
            format!("STP ({} patterns)", lib.len()),
            pct(bound * 100.0),
            stp_out.nseeds().to_string(),
            stp_out.tests_applied.to_string(),
            pct(stp_out.peak_swa * 100.0),
            pct(stp_out.fault_coverage()),
            pct(stp_residue.non_functional_fraction() * 100.0),
        ]);
    }
    t.print(&format!(
        "Ablation: deviation metric — SWA bound vs signal-transition patterns [{scale:?}]"
    ));
}
