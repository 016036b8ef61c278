//! Deterministic speculative-batch seed search.
//!
//! The Chapter-4 generation loops all share one shape: draw an LFSR seed
//! from a reproducible [`Rng`] stream, do expensive per-candidate work (TPG
//! expansion, logic simulation, admissibility checking, test extraction,
//! fault simulation against the current detection flags), and *commit* the
//! candidate only if it detects new faults. The commit mutates shared state
//! (`detected`, the circuit's current state), but a **rejected** candidate
//! mutates nothing — which makes the expensive work speculatable.
//!
//! The search draws a batch of `K` candidate seeds ahead of time from the
//! same stream, evaluates them in one round against a snapshot of the
//! shared state (the engine simulates them as the lanes of one multi-lane
//! pass and fault-simulates them in one grouped call), and then consumes
//! the results serially *in draw order*:
//!
//! * a candidate whose speculative result is a reject is consumed as-is —
//!   the snapshot it was evaluated against is exactly the state the serial
//!   loop would have had, because no earlier candidate in the round
//!   committed;
//! * the **first** candidate whose result is an accept is committed, and
//!   every later candidate's result is discarded (their snapshots are now
//!   stale). Their *seeds* are pushed back onto the queue and re-evaluated
//!   against the new state in the next round, exactly as the serial loop
//!   would have drawn them next.
//!
//! Stopping conditions are re-checked before each candidate is consumed, so
//! the search consumes precisely the prefix of the seed stream the serial
//! loop would have. The outcome is therefore bit-identical to the serial
//! search for **every** batch size and thread count; speculation only
//! trades wasted evaluations for wall-clock time. A batch of one is the
//! serial loop itself, on the same round.

use std::collections::VecDeque;

use fbt_netlist::rng::Rng;

/// Tunables of the speculative seed search, carried by
/// [`crate::FunctionalBistConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Number of candidate seeds evaluated speculatively per round. `1`
    /// reproduces the serial loop with zero speculation overhead.
    pub batch: usize,
    /// Worker threads of each round's grouped fault simulation; `0`
    /// resolves to [`std::thread::available_parallelism`]. Logic
    /// simulation and admissibility run on the calling thread.
    pub threads: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            batch: 1,
            threads: 0,
        }
    }
}

impl SearchOptions {
    /// A serial search (batch of one, one thread).
    pub fn serial() -> Self {
        SearchOptions {
            batch: 1,
            threads: 1,
        }
    }

    /// A speculative search with the given batch size and automatic threads.
    pub fn speculative(batch: usize) -> Self {
        SearchOptions { batch, threads: 0 }
    }

    /// The thread count resolved against the machine.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Validate invariants.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn validate(&self) {
        assert!(self.batch >= 1, "speculation batch must be >= 1");
    }
}

/// An order-preserving queue over a [`Rng`] seed stream.
///
/// Seeds drawn for a speculative round but not consumed (their results were
/// invalidated by an earlier commit, or the search stopped) are requeued at
/// the front, so the sequence of *consumed* seeds is always a prefix of the
/// underlying stream in draw order — the determinism invariant.
#[derive(Debug, Default)]
pub(crate) struct SeedQueue {
    pending: VecDeque<u64>,
}

impl SeedQueue {
    pub(crate) fn new() -> Self {
        SeedQueue::default()
    }

    /// Take the next `n` seeds, drawing fresh ones from `rng` as needed.
    pub(crate) fn draw(&mut self, rng: &mut Rng, n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            out.push(self.pending.pop_front().unwrap_or_else(|| rng.next_u64()));
        }
        out
    }

    /// Return unconsumed seeds to the front of the queue, preserving order.
    pub(crate) fn requeue(&mut self, seeds: &[u64]) {
        for &s in seeds.iter().rev() {
            self.pending.push_front(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_queue_preserves_stream_order() {
        let mut q = SeedQueue::new();
        let mut rng = Rng::new(1);
        let batch = q.draw(&mut rng, 4);
        // Consume two, requeue the rest; the next draw must replay them.
        q.requeue(&batch[2..]);
        let next = q.draw(&mut rng, 4);
        assert_eq!(next[0], batch[2]);
        assert_eq!(next[1], batch[3]);
        // And the fresh tail continues the same stream.
        let mut reference = Rng::new(1);
        let direct: Vec<u64> = (0..6).map(|_| reference.next_u64()).collect();
        assert_eq!(&direct[..4], &batch[..]);
        assert_eq!(&direct[4..], &next[2..]);
    }

    #[test]
    fn serial_options_resolve_to_one_thread() {
        let o = SearchOptions::serial();
        assert_eq!(o.resolved_threads(), 1);
        o.validate();
        assert!(SearchOptions::speculative(16).resolved_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "batch must be >= 1")]
    fn zero_batch_rejected() {
        SearchOptions {
            batch: 0,
            threads: 1,
        }
        .validate();
    }
}
