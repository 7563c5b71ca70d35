//! The benchmark's own arrival sources: a seeded generator, bursty arrival
//! schedules, and a wrapper that times every pull.

use std::cell::Cell;
use std::time::Instant;

use gspecpal_serve::{StreamArrival, TraceSource};

/// SplitMix64: the benchmark's only randomness, keyed by `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a workload-specific `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (0 when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform in `range`.
    pub fn range(&mut self, range: std::ops::Range<usize>) -> usize {
        range.start + self.below((range.end - range.start) as u64) as usize
    }

    /// `len` bytes drawn uniformly from `alphabet`.
    pub fn bytes(&mut self, alphabet: &[u8], len: usize) -> Vec<u8> {
        (0..len).map(|_| alphabet[self.below(alphabet.len() as u64) as usize]).collect()
    }
}

/// Machines in shuffled rounds: each round visits every machine once, in
/// seeded order, so every machine gets the same share of any trace and a
/// seed moves the order, not the load.
#[derive(Clone, Debug)]
pub struct Rounds {
    order: Vec<usize>,
    next: usize,
}

impl Rounds {
    /// Rounds over `machines` machines.
    pub fn new(machines: usize) -> Self {
        Rounds { order: (0..machines).collect(), next: machines }
    }

    /// The next stream's machine.
    pub fn next(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Shape of a bursty open-loop arrival schedule: bursts of `burst` streams
/// share one arrival cycle, and consecutive bursts are `0..=2 × mean_gap`
/// cycles apart. Machines come in shuffled [`Rounds`].
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Streams in the trace.
    pub streams: usize,
    /// Streams per burst.
    pub burst: std::ops::Range<usize>,
    /// Mean cycles between bursts.
    pub mean_gap: u64,
    /// Stream length in bytes.
    pub len: std::ops::Range<usize>,
    /// Machines streams are spread over.
    pub machines: usize,
}

/// Generates the arrivals of a [`Schedule`] one at a time, with payload
/// bytes drawn from `alphabet`; wrap it in `IterSource` to serve it.
pub struct BurstSource {
    rng: Rng,
    shape: Schedule,
    alphabet: &'static [u8],
    rounds: Rounds,
    emitted: usize,
    burst_left: usize,
    clock: u64,
}

impl BurstSource {
    /// The source for `shape` under `seed`.
    pub fn new(seed: u64, shape: Schedule, alphabet: &'static [u8]) -> Self {
        let rounds = Rounds::new(shape.machines);
        BurstSource {
            rng: Rng::new(seed, 0xb0b5),
            shape,
            alphabet,
            rounds,
            emitted: 0,
            burst_left: 0,
            clock: 0,
        }
    }
}

impl Iterator for BurstSource {
    type Item = StreamArrival;

    fn next(&mut self) -> Option<StreamArrival> {
        if self.emitted == self.shape.streams {
            return None;
        }
        self.emitted += 1;
        if self.burst_left == 0 {
            self.clock += self.rng.below(2 * self.shape.mean_gap + 1);
            self.burst_left = self.rng.range(self.shape.burst.clone());
        }
        self.burst_left -= 1;
        let machine = self.rounds.next(&mut self.rng);
        let len = self.rng.range(self.shape.len.clone());
        let bytes = self.rng.bytes(self.alphabet, len);
        Some(StreamArrival { arrival_cycle: self.clock, machine, bytes })
    }
}

/// Pull counters filled by a [`Timed`] source.
#[derive(Debug, Default)]
pub struct Pulls {
    /// Arrivals pulled.
    pub count: Cell<u64>,
    /// Nanoseconds spent inside pulls.
    pub ns: Cell<u64>,
    /// Allocations the pulling thread made inside pulls.
    pub allocs: Cell<u64>,
}

/// Wraps a source; when given counters, times every pull and counts its
/// allocations. Without counters it only forwards.
pub struct Timed<'a, S> {
    inner: S,
    pulls: Option<&'a Pulls>,
}

impl<'a, S: TraceSource> Timed<'a, S> {
    /// Wraps `inner`, recording into `pulls` when it is `Some`.
    pub fn new(inner: S, pulls: Option<&'a Pulls>) -> Self {
        Timed { inner, pulls }
    }
}

impl<S: TraceSource> TraceSource for Timed<'_, S> {
    fn next_arrival(&mut self) -> Option<StreamArrival> {
        let Some(p) = self.pulls else { return self.inner.next_arrival() };
        let a0 = crate::alloc::this_thread();
        let t0 = Instant::now();
        let arrival = self.inner.next_arrival();
        p.ns.set(p.ns.get() + t0.elapsed().as_nanos() as u64);
        p.allocs.set(p.allocs.get() + crate::alloc::this_thread() - a0);
        p.count.set(p.count.get() + u64::from(arrival.is_some()));
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_serve::IterSource;

    fn shape() -> Schedule {
        Schedule { streams: 200, burst: 4..9, mean_gap: 50, len: 8..40, machines: 3 }
    }

    #[test]
    fn same_seed_same_arrivals_other_seed_other_arrivals() {
        let a: Vec<_> = BurstSource::new(7, shape(), b"01").collect();
        let b: Vec<_> = BurstSource::new(7, shape(), b"01").collect();
        let c: Vec<_> = BurstSource::new(8, shape(), b"01").collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
        assert!(a.iter().all(|s| (8..40).contains(&s.bytes.len()) && s.machine < 3));
    }

    #[test]
    fn rounds_give_every_machine_the_same_share() {
        let a: Vec<_> = BurstSource::new(3, shape(), b"01").collect();
        let count = |m| a.iter().filter(|s| s.machine == m).count();
        assert_eq!((count(0), count(1), count(2)), (67, 67, 66));
    }

    #[test]
    fn timed_source_counts_every_pull() {
        let pulls = Pulls::default();
        let mut source = Timed::new(IterSource(BurstSource::new(1, shape(), b"01")), Some(&pulls));
        assert_eq!(std::iter::from_fn(|| source.next_arrival()).count(), 200);
        assert_eq!(pulls.count.get(), 200);
    }
}
