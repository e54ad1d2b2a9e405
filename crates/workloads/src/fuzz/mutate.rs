//! Deterministic schedule mutation.
//!
//! [`MutationStream`] is a SplitMix64 generator (the same finalizer the
//! [`regemu_fpsm::DelayedScheduler`] uses for its delay hashing): cheap,
//! dependency-free and platform-stable, so the whole corpus evolution is a
//! pure function of the master seed. [`mutate`] draws from it to perturb a
//! corpus case — flip delivery decisions, splice prefixes from a donor,
//! shift/add/remove crash points (always within the fault budget), truncate
//! the workload, rewrite written values, demote writer writes to reads,
//! perturb delay ticks, reseed the fair tail.

use super::FuzzCase;
use regemu_fpsm::Time;

/// A deterministic SplitMix64 stream of mutation choices.
#[derive(Clone, Debug)]
pub(crate) struct MutationStream {
    state: u64,
}

impl MutationStream {
    /// A stream seeded from the master seed.
    pub(crate) fn new(seed: u64) -> Self {
        MutationStream { state: seed }
    }

    /// The next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next draw reduced to `0..bound` (`0` when `bound` is `0`).
    pub(crate) fn next_below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        (self.next_u64() % bound as u64) as usize
    }

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Structural limits a mutant must respect.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MutationBounds {
    /// Number of servers (crash targets are `0..n`).
    pub n: usize,
    /// Fault budget: at most `f` distinct crashed servers.
    pub f: usize,
    /// Length of the fully instantiated workload.
    pub full_workload_len: usize,
}

/// Derives a mutant of `base` — optionally splicing from `donor` — using the
/// deterministic stream.
pub(crate) fn mutate(
    base: &FuzzCase,
    donor: Option<&FuzzCase>,
    bounds: &MutationBounds,
    stream: &mut MutationStream,
) -> FuzzCase {
    let mut mutant = base.clone();
    // The crash-time horizon: delivery decisions, invocations and crash
    // events each advance the clock, so three times the schedule length
    // comfortably spans the run.
    let horizon = 3 * base.decisions.len() as u64 + 16;
    let ops = 1 + stream.next_below(2);
    for _ in 0..ops {
        apply_one(&mut mutant, donor, bounds, horizon, stream);
    }
    // Canonical order for set-like fields, so equal plans compare equal.
    mutant.crashes.sort_unstable();
    mutant.rewrites.sort_unstable_by_key(|&(idx, _)| idx);
    mutant.flips.sort_unstable();
    mutant
}

/// Applies one mutation operator, drawn from the stream.
fn apply_one(
    mutant: &mut FuzzCase,
    donor: Option<&FuzzCase>,
    bounds: &MutationBounds,
    horizon: u64,
    stream: &mut MutationStream,
) {
    match stream.next_below(10) {
        // Flip one delivery decision.
        0 => {
            if !mutant.decisions.is_empty() {
                let idx = stream.next_below(mutant.decisions.len());
                mutant.decisions[idx] = stream.next_u32();
            }
        }
        // Splice: a donor prefix followed by one of our suffixes.
        1 => {
            if let Some(donor) = donor {
                let cut_donor = stream.next_below(donor.decisions.len() + 1);
                let cut_base = stream.next_below(mutant.decisions.len() + 1);
                let mut spliced = donor.decisions[..cut_donor].to_vec();
                spliced.extend_from_slice(&mutant.decisions[cut_base..]);
                mutant.decisions = spliced;
            }
        }
        // Truncate the schedule (the fair tail finishes the run).
        2 => {
            let keep = stream.next_below(mutant.decisions.len() + 1);
            mutant.decisions.truncate(keep);
        }
        // Extend the schedule with fresh decisions.
        3 => {
            let extra = 1 + stream.next_below(8);
            for _ in 0..extra {
                let value = stream.next_u32();
                mutant.decisions.push(value);
            }
        }
        // Shift, add or remove a crash point (within the fault budget).
        4 => {
            let add = mutant.crashes.is_empty()
                || (mutant.crashes.len() < bounds.f && stream.next_below(2) == 0);
            if add && mutant.crashes.len() < bounds.f && bounds.n > mutant.crashes.len() {
                let time = 1 + stream.next_below(horizon as usize) as Time;
                let start = stream.next_below(bounds.n);
                // Linear-probe to a server not already crashed: the fault
                // budget counts distinct servers.
                let used: Vec<usize> = mutant.crashes.iter().map(|&(_, s)| s).collect();
                for offset in 0..bounds.n {
                    let server = (start + offset) % bounds.n;
                    if !used.contains(&server) {
                        mutant.crashes.push((time, server));
                        break;
                    }
                }
            } else if !mutant.crashes.is_empty() {
                let idx = stream.next_below(mutant.crashes.len());
                if stream.next_below(2) == 0 {
                    mutant.crashes.remove(idx);
                } else {
                    mutant.crashes[idx].0 = 1 + stream.next_below(horizon as usize) as Time;
                }
            }
        }
        // Re-cut the workload prefix.
        5 => {
            mutant.workload_len = 1 + stream.next_below(bounds.full_workload_len);
        }
        // Reseed the fair tail.
        6 => {
            mutant.seed = stream.next_u64();
        }
        // Rewrite a written value. The replacement encodes its op index in
        // the high bits, so rewritten values stay distinct from each other
        // and from every generated value — checkers may key on values.
        7 => {
            let idx = stream.next_below(bounds.full_workload_len);
            let value = ((idx as u64 + 1) << 32) | u64::from(stream.next_u32());
            match mutant.rewrites.iter_mut().find(|(i, _)| *i == idx) {
                Some(entry) => entry.1 = value,
                None => mutant.rewrites.push((idx, value)),
            }
        }
        // Toggle a kind flip (writer write -> read); flipping the same
        // index again undoes it.
        8 => {
            let idx = stream.next_below(bounds.full_workload_len);
            match mutant.flips.iter().position(|&i| i == idx) {
                Some(pos) => {
                    mutant.flips.remove(pos);
                }
                None => mutant.flips.push(idx),
            }
        }
        // Perturb delay ticks: set a fresh perturbation (switching the case
        // to the delayed scheduler — decisions are cleared since that mode
        // ignores them), nudge one bucket, or clear it again.
        _ => {
            if mutant.delays.is_empty() {
                let buckets = 1 + stream.next_below(8);
                mutant.delays = (0..buckets).map(|_| stream.next_u32() % 16).collect();
                mutant.decisions.clear();
            } else if stream.next_below(3) == 0 {
                mutant.delays.clear();
            } else {
                let idx = stream.next_below(mutant.delays.len());
                mutant.delays[idx] = stream.next_u32() % 16;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> FuzzCase {
        FuzzCase {
            decisions: vec![1, 2, 3, 4, 5, 6, 7, 8],
            ..FuzzCase::seed_case(4, 7)
        }
    }

    fn bounds() -> MutationBounds {
        MutationBounds {
            n: 4,
            f: 2,
            full_workload_len: 4,
        }
    }

    #[test]
    fn the_stream_is_deterministic() {
        let mut a = MutationStream::new(42);
        let mut b = MutationStream::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(MutationStream::new(1).next_u64(), {
            let mut s = MutationStream::new(1);
            s.next_u64()
        });
    }

    #[test]
    fn mutants_respect_the_fault_budget() {
        let bounds = bounds();
        let mut stream = MutationStream::new(9);
        let mut case = base();
        for _ in 0..500 {
            let mutant = mutate(&case, Some(&base()), &bounds, &mut stream);
            assert!(mutant.crashes.len() <= bounds.f, "{:?}", mutant.crashes);
            let mut servers: Vec<usize> = mutant.crashes.iter().map(|&(_, s)| s).collect();
            servers.sort_unstable();
            servers.dedup();
            assert_eq!(
                servers.len(),
                mutant.crashes.len(),
                "duplicate crash target"
            );
            assert!(servers.iter().all(|&s| s < bounds.n));
            assert!(mutant.workload_len >= 1 && mutant.workload_len <= 4);
            // Workload-op mutations stay canonical: sorted, distinct
            // in-range indices; rewritten values encode their index.
            let mut rewrite_idx: Vec<usize> = mutant.rewrites.iter().map(|&(i, _)| i).collect();
            assert!(
                rewrite_idx.windows(2).all(|w| w[0] < w[1]),
                "{rewrite_idx:?}"
            );
            rewrite_idx.retain(|&i| i < bounds.full_workload_len);
            assert_eq!(rewrite_idx.len(), mutant.rewrites.len());
            for &(idx, value) in &mutant.rewrites {
                assert_eq!(value >> 32, idx as u64 + 1);
            }
            assert!(
                mutant.flips.windows(2).all(|w| w[0] < w[1]),
                "{:?}",
                mutant.flips
            );
            assert!(mutant.flips.iter().all(|&i| i < bounds.full_workload_len));
            // Delay perturbation clears decisions when it switches modes.
            if !mutant.delays.is_empty() {
                assert!(mutant.delays.len() <= 8, "{:?}", mutant.delays);
            }
            case = mutant;
        }
    }

    #[test]
    fn mutation_is_a_pure_function_of_the_stream() {
        let bounds = bounds();
        let mut a = MutationStream::new(5);
        let mut b = MutationStream::new(5);
        for _ in 0..50 {
            let ma = mutate(&base(), Some(&base()), &bounds, &mut a);
            let mb = mutate(&base(), Some(&base()), &bounds, &mut b);
            assert_eq!(ma, mb);
        }
    }
}
