//! Hotspot probe on full-size s35932: compiled vs interpreted evaluation,
//! then the per-cycle split of an 8-lane `LaneSeqSim` step (kernel
//! evaluation, toggle counting, the rest) and the cost of a one-lane
//! `SeqSim` step. Every lane's switching activity is checked against a
//! naive popcount of the node toggles, so the probe doubles as a
//! correctness smoke; no timing is asserted. Not part of the benchmark.
//!
//! ```text
//! cargo run --release -p fbt-sim --example kprof
//! ```
//!
//! The split is derived from public calls: the toggle count is a steady
//! step minus a step right after a state load (which counts no toggles),
//! and the rest is that first step minus `eval2` and the state load.
use std::time::{Duration, Instant};

use fbt_netlist::rng::Rng;
use fbt_netlist::synth;
use fbt_sim::comb;
use fbt_sim::kernel::Kernel;
use fbt_sim::lanes::LaneSeqSim;
use fbt_sim::seq::SeqSim;
use fbt_sim::Bits;

const LANES: usize = 8;
const CYCLES: usize = 2000;
const CHECKED: usize = 200;

/// Wall time of one `f(c)` for `c` in `0..CYCLES`: the fastest of five
/// batches' means, which a shared host disturbs least.
fn per_call(mut f: impl FnMut(usize)) -> Duration {
    const BATCHES: usize = 5;
    (0..BATCHES)
        .map(|b| {
            let cycles = b * CYCLES / BATCHES..(b + 1) * CYCLES / BATCHES;
            let n = cycles.len() as u32;
            let t = Instant::now();
            for c in cycles {
                f(c);
            }
            t.elapsed() / n
        })
        .min()
        .expect("at least one batch")
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let spec = synth::find("s35932").expect("catalog circuit");
    let net = synth::generate(&spec);
    let n = net.num_nodes();
    eprintln!("s35932: {n} nodes, {} gates", net.num_gates());
    let kernel = Kernel::for_netlist(&net);
    eprintln!("kernel: {} ops for {} nodes", kernel.num_ops(), n);

    let mut vals = vec![0u64; n];
    for (i, v) in vals.iter_mut().enumerate() {
        *v = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
    }
    let mut a = vals.clone();
    let interp = per_call(|_| comb::eval_packed(&net, &mut a));
    let mut b = vals.clone();
    let eval2 = per_call(|_| kernel.eval2(&mut b));
    assert_eq!(a, b, "compiled and interpreted values differ");
    eprintln!(
        "eval_packed {:.2} us, eval2 {:.2} us: {:.2}x",
        us(interp),
        us(eval2),
        interp.as_secs_f64() / eval2.as_secs_f64()
    );

    let mut rng = Rng::new(0x6B_50F);
    let mut bits = |len: usize| -> Bits { (0..len).map(|_| rng.bit()).collect() };
    let pis: Vec<Vec<Bits>> = (0..CYCLES)
        .map(|_| (0..LANES).map(|_| bits(net.num_inputs())).collect())
        .collect();
    let start = bits(net.num_dffs());

    // Correctness: replay each cycle's sources through `eval2` and compare
    // every lane's SWA with the popcount of its node toggles. Also count
    // the flip-flop words (masked to the occupied lanes) that change.
    let mut sim = LaneSeqSim::new(&net, LANES);
    sim.broadcast_state(&start);
    let mut prev: Option<Vec<u64>> = None;
    let (mut changed, mut ff_words) = (0usize, 0usize);
    let mask = (1u64 << LANES) - 1;
    for lane_pis in pis.iter().take(CHECKED) {
        let mut cur = vec![0u64; n];
        for (l, pi) in lane_pis.iter().enumerate() {
            for (i, &id) in net.inputs().iter().enumerate() {
                cur[id.index()] |= (pi.get(i) as u64) << l;
            }
        }
        for (&w, &id) in sim.state_words().iter().zip(net.dffs()) {
            cur[id.index()] = w;
        }
        kernel.eval2(&mut cur);
        sim.step(lane_pis, None);
        if let Some(prev) = &prev {
            let swa = sim.swa().expect("SWA is defined after the first cycle");
            for (l, &s) in swa.iter().enumerate() {
                let toggles = prev
                    .iter()
                    .zip(&cur)
                    .filter(|&(p, v)| ((p ^ v) >> l) & 1 == 1)
                    .count();
                assert_eq!(s, toggles as f64 / n as f64, "lane {l} SWA");
            }
            for &d in net.dffs() {
                changed += ((prev[d.index()] ^ cur[d.index()]) & mask != 0) as usize;
                ff_words += 1;
            }
        }
        prev = Some(cur);
    }
    eprintln!(
        "SWA = naive popcount on {LANES} lanes x {} cycles; {:.2} of flip-flop words change per cycle",
        CHECKED - 1,
        changed as f64 / ff_words as f64
    );

    // Timing: steady steps, steps right after a state load, state loads.
    let mut sim = LaneSeqSim::new(&net, LANES);
    sim.broadcast_state(&start);
    let step = per_call(|c| sim.step(&pis[c], None));
    let load = per_call(|_| sim.broadcast_state(&start));
    let first = per_call(|c| {
        sim.broadcast_state(&start);
        sim.step(&pis[c], None);
    });
    let first = first.saturating_sub(load);
    eprintln!(
        "{LANES}-lane step {:.2} us/cycle = eval2 {:.2} + toggle count {:.2} + rest {:.2}",
        us(step),
        us(eval2),
        us(step.saturating_sub(first)),
        us(first.saturating_sub(eval2))
    );

    let mut seq = SeqSim::new(&net, &start);
    let one = per_call(|c| {
        seq.step(&pis[c][0]);
    });
    eprintln!("SeqSim step {:.2} us/cycle", us(one));
}
