//! Lint pre-flight projection for the generation loops.
//!
//! [`fbt_lint::PreflightEvidence`] proves some transition faults untestable
//! by construction (structurally constant or combinationally unobservable
//! lines). Such faults are undetectable under *every* test, so excluding
//! them from fault simulation cannot change which of the remaining faults
//! any candidate detects — seed selection, segment construction and the
//! full-length detection flags stay bit-identical; only the simulated fault
//! count shrinks.

use fbt_fault::TransitionFault;
use fbt_netlist::Netlist;

/// The faults worth simulating, plus their indices into the full collapsed
/// list. With the pre-flight disabled this is the identity projection.
pub(crate) fn project_active(
    net: &Netlist,
    faults: &[TransitionFault],
    enabled: bool,
) -> (Vec<TransitionFault>, Vec<usize>) {
    if !enabled {
        return (faults.to_vec(), (0..faults.len()).collect());
    }
    let evidence = fbt_lint::PreflightEvidence::analyze(net);
    let mut active = Vec::with_capacity(faults.len());
    let mut idx = Vec::with_capacity(faults.len());
    for (i, f) in faults.iter().enumerate() {
        if !evidence.transition_untestable(f.line) {
            active.push(*f);
            idx.push(i);
        }
    }
    (active, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_fault::{all_transition_faults, collapse};

    #[test]
    fn s27_projection_is_identity() {
        let net = fbt_netlist::s27();
        let faults = collapse(&net, &all_transition_faults(&net));
        let (active, idx) = project_active(&net, &faults, true);
        assert_eq!(active, faults);
        assert_eq!(idx, (0..faults.len()).collect::<Vec<_>>());
    }

    #[test]
    fn disabled_projection_is_identity() {
        let net = fbt_netlist::s27();
        let faults = collapse(&net, &all_transition_faults(&net));
        let (active, idx) = project_active(&net, &faults, false);
        assert_eq!(active, faults);
        assert_eq!(idx.len(), faults.len());
    }
}
