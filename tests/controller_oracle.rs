//! The BIST control FSM (paper Fig. 4.2, §4.4) as a cycle-accurate oracle.
//!
//! The controller gates the clocks of the TPG, the counters and the circuit
//! through a sequence of operation modes — "seed loading, shift register
//! initialization, circuit initialization, primary input sequence
//! application, and circular shifting" — so that the TPG can run while the
//! circuit's state is held (between segments) and vice versa. This model is
//! mode- and cycle-accurate; `fbt::bist::schedule::TestSchedule` is its
//! closed form, and `fbt::core::session::run_on_hardware` budgets a session
//! with it. The tests below run the FSM against both, on hand-written
//! programs and on programs the constrained method generates.

use fbt::bist::schedule::TestSchedule;
use fbt::bist::ScanChains;
use fbt::core::driver::DrivingBlock;
use fbt::core::{
    generate_constrained, run_on_hardware, swafunc, FunctionalBistConfig, TpgSeedSource,
};
use fbt::netlist::{s27, synth};

/// The controller's operation modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Scan in the sequence's initial state (`Lsc` cycles; circuit clock on
    /// in shift mode, TPG clock off).
    ScanInInit,
    /// Serially load the next LFSR seed (TPG clock on, circuit clock off —
    /// the circuit's state is held).
    SeedLoad,
    /// Fill the TPG's shift register (TPG clock on, circuit clock off).
    ShiftRegInit,
    /// Apply the primary-input segment (both clocks on, functional mode).
    Apply,
    /// Circular-shift the captured response into the MISR and restore the
    /// state (circuit clock on in shift mode).
    CircularShift,
    /// All sequences applied.
    Done,
}

/// Which clocks a mode enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockEnables {
    /// The TPG (LFSR + shift register) clock.
    pub tpg: bool,
    /// The circuit's functional clock.
    pub circuit: bool,
    /// The scan-shift clock.
    pub scan: bool,
}

impl Mode {
    /// The clock gating of this mode (paper §4.4: "the clocks for the TPG
    /// logic, the counters and the circuit are gated and controlled by a
    /// finite state machine").
    pub fn clock_enables(self) -> ClockEnables {
        match self {
            Mode::ScanInInit | Mode::CircularShift => ClockEnables {
                tpg: false,
                circuit: false,
                scan: true,
            },
            Mode::SeedLoad | Mode::ShiftRegInit => ClockEnables {
                tpg: true,
                circuit: false,
                scan: false,
            },
            Mode::Apply => ClockEnables {
                tpg: true,
                circuit: true,
                scan: false,
            },
            Mode::Done => ClockEnables {
                tpg: false,
                circuit: false,
                scan: false,
            },
        }
    }
}

/// A cycle-accurate controller for one test program.
///
/// The program is the per-sequence list of segment lengths (what a
/// `ConstrainedOutcome` exports as `segment_lengths`).
#[derive(Debug, Clone)]
pub struct Controller {
    program: Vec<Vec<usize>>,
    scan_len: usize,
    shift_reg_len: usize,
    seed_len: usize,
    // Position.
    seq: usize,
    seg: usize,
    mode: Mode,
    /// Cycles remaining in the current mode.
    remaining: usize,
    /// Total cycles elapsed.
    elapsed: usize,
}

impl Controller {
    /// Create a controller over a program.
    pub fn new(
        program: Vec<Vec<usize>>,
        scan_len: usize,
        shift_reg_len: usize,
        seed_len: usize,
    ) -> Self {
        let mut c = Controller {
            program,
            scan_len,
            shift_reg_len,
            seed_len,
            seq: 0,
            seg: 0,
            mode: Mode::Done,
            remaining: 0,
            elapsed: 0,
        };
        c.enter_sequence();
        c
    }

    fn enter_sequence(&mut self) {
        if self.seq >= self.program.len() {
            self.mode = Mode::Done;
            self.remaining = 0;
            return;
        }
        self.seg = 0;
        self.mode = Mode::ScanInInit;
        self.remaining = self.scan_len;
        if self.remaining == 0 {
            self.advance_mode();
        }
    }

    fn advance_mode(&mut self) {
        loop {
            let next = match self.mode {
                Mode::ScanInInit => Some((Mode::SeedLoad, self.seed_len)),
                Mode::SeedLoad => Some((Mode::ShiftRegInit, self.shift_reg_len)),
                Mode::ShiftRegInit => {
                    let len = self.program[self.seq][self.seg];
                    Some((Mode::Apply, len))
                }
                Mode::Apply => {
                    // One circular shift per applied test (len / 2 tests).
                    let tests = self.program[self.seq][self.seg] / 2;
                    Some((Mode::CircularShift, tests * self.scan_len))
                }
                Mode::CircularShift => {
                    self.seg += 1;
                    if self.seg < self.program[self.seq].len() {
                        Some((Mode::SeedLoad, self.seed_len))
                    } else {
                        self.seq += 1;
                        self.enter_sequence();
                        return;
                    }
                }
                Mode::Done => return,
            };
            if let Some((mode, cycles)) = next {
                self.mode = mode;
                self.remaining = cycles;
                if cycles > 0 {
                    return;
                }
                // Zero-length phases are skipped transparently.
            }
        }
    }

    /// The current mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Advance one clock cycle; returns the mode that cycle executed in, or
    /// `None` when the program has finished.
    pub fn tick(&mut self) -> Option<Mode> {
        if self.mode == Mode::Done {
            return None;
        }
        let executed = self.mode;
        self.elapsed += 1;
        self.remaining -= 1;
        if self.remaining == 0 {
            self.advance_mode();
        }
        Some(executed)
    }

    /// Run to completion, returning the total cycle count.
    pub fn run_to_completion(&mut self) -> usize {
        while self.tick().is_some() {}
        self.elapsed
    }
}

#[test]
fn controller_total_matches_the_schedule_closed_form() {
    let program = vec![vec![10, 4], vec![6]];
    let (lsc, sr, seed) = (7, 5, 32);
    let mut c = Controller::new(program.clone(), lsc, sr, seed);
    let total = c.run_to_completion();
    let sched = TestSchedule::new(lsc, sr, seed);
    assert_eq!(total, sched.total_cycles(&program));
    assert_eq!(c.mode(), Mode::Done);
}

#[test]
fn mode_order_per_segment() {
    let mut c = Controller::new(vec![vec![4]], 2, 3, 4);
    let mut modes = Vec::new();
    while let Some(m) = c.tick() {
        if modes.last() != Some(&m) {
            modes.push(m);
        }
    }
    assert_eq!(
        modes,
        vec![
            Mode::ScanInInit,
            Mode::SeedLoad,
            Mode::ShiftRegInit,
            Mode::Apply,
            Mode::CircularShift,
        ]
    );
}

#[test]
fn clock_gating_rules() {
    assert_eq!(
        Mode::Apply.clock_enables(),
        ClockEnables {
            tpg: true,
            circuit: true,
            scan: false
        }
    );
    // Seed loading holds the circuit's state: its clock is off.
    assert!(!Mode::SeedLoad.clock_enables().circuit);
    assert!(Mode::SeedLoad.clock_enables().tpg);
    assert!(Mode::CircularShift.clock_enables().scan);
}

#[test]
fn empty_program_is_immediately_done() {
    let mut c = Controller::new(vec![], 10, 5, 32);
    assert_eq!(c.mode(), Mode::Done);
    assert_eq!(c.run_to_completion(), 0);
}

#[test]
fn between_segments_no_scan_in() {
    // The second segment of a sequence starts at SeedLoad (the state is
    // held, not re-initialized) — the §4.4 point that multi-segment
    // sequences avoid storing intermediate scan-in states.
    let mut c = Controller::new(vec![vec![2, 2]], 3, 2, 4);
    let mut transitions = Vec::new();
    let mut last = None;
    while let Some(m) = c.tick() {
        if last != Some(m) {
            transitions.push(m);
            last = Some(m);
        }
    }
    let scan_ins = transitions
        .iter()
        .filter(|&&m| m == Mode::ScanInInit)
        .count();
    assert_eq!(scan_ins, 1, "one scan-in per sequence, not per segment");
    let seed_loads = transitions.iter().filter(|&&m| m == Mode::SeedLoad).count();
    assert_eq!(seed_loads, 2, "one seed load per segment");
}

#[test]
fn controller_total_matches_schedule_and_session_on_generated_programs() {
    let cases = [
        ("s27", s27(), FunctionalBistConfig::smoke()),
        (
            "s1423",
            synth::generate(&synth::find("s1423").unwrap().scaled(8)),
            FunctionalBistConfig::scaled(),
        ),
    ];
    for (name, net, cfg) in cases {
        let lsc = ScanChains::paper_config(net.num_dffs()).longest();
        let sr = TpgSeedSource::for_circuit(&net, &cfg)
            .spec
            .shift_register_len();
        let seed = cfg.lfsr_width as usize;
        let bound = swafunc(&net, &DrivingBlock::Buffers, &cfg);
        for (label, swa) in [("SWAfunc", bound), ("0.75 SWAfunc", 0.75 * bound)] {
            let out = generate_constrained(&net, swa, &cfg);
            let program = out.segment_lengths();
            let total = Controller::new(program.clone(), lsc, sr, seed).run_to_completion();
            assert_eq!(
                total,
                TestSchedule::new(lsc, sr, seed).total_cycles(&program),
                "{name} at {label}: FSM and closed form disagree"
            );
            assert_eq!(
                total,
                run_on_hardware(&net, &out, &cfg).total_cycles,
                "{name} at {label}: FSM and hardware session disagree"
            );
        }
    }
}
