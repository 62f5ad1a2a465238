//! Deterministic address stream generators.
//!
//! Workload models drive the memory hierarchy with these streams to give
//! each code region a distinct, repeatable locality signature: sequential
//! (stride) access, uniform random access over a working set, and
//! pointer-chasing over a pseudo-random permutation (the mcf-like access
//! pattern with no spatial locality and a serialized dependence chain).
//!
//! All generators are deterministic from their construction parameters, so
//! full experiment runs are reproducible bit-for-bit.

/// A deterministic generator of data addresses.
pub trait AddressStream {
    /// Produces the next address in the stream.
    fn next_addr(&mut self) -> u64;
}

/// SplitMix64 — a tiny, high-quality deterministic PRNG used by the streams.
///
/// We use our own implementation rather than `rand` so the substrate crate
/// has no RNG dependency and streams stay stable across `rand` upgrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // simulation purposes.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Sequential access with a fixed stride over a circular working set.
///
/// # Example
///
/// ```
/// use tpcp_uarch::stream::{AddressStream, StridedStream};
///
/// let mut s = StridedStream::new(0x1000, 64, 256);
/// assert_eq!(s.next_addr(), 0x1000);
/// assert_eq!(s.next_addr(), 0x1040);
/// ```
#[derive(Debug, Clone)]
pub struct StridedStream {
    base: u64,
    stride: u64,
    working_set: u64,
    offset: u64,
}

impl StridedStream {
    /// Creates a stream starting at `base`, advancing by `stride` bytes and
    /// wrapping every `working_set` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `stride` or `working_set` is zero.
    pub fn new(base: u64, stride: u64, working_set: u64) -> Self {
        assert!(stride > 0 && working_set > 0, "zero stride or working set");
        Self {
            base,
            stride,
            working_set,
            offset: 0,
        }
    }
}

impl AddressStream for StridedStream {
    fn next_addr(&mut self) -> u64 {
        let addr = self.base + self.offset;
        self.offset = (self.offset + self.stride) % self.working_set;
        addr
    }
}

/// Uniform random access over a working set.
#[derive(Debug, Clone)]
pub struct RandomStream {
    base: u64,
    working_set: u64,
    rng: SplitMix64,
}

impl RandomStream {
    /// Creates a stream of uniform addresses in `[base, base + working_set)`.
    ///
    /// # Panics
    ///
    /// Panics if `working_set` is zero.
    pub fn new(base: u64, working_set: u64, seed: u64) -> Self {
        assert!(working_set > 0, "zero working set");
        Self {
            base,
            working_set,
            rng: SplitMix64::new(seed),
        }
    }
}

impl AddressStream for RandomStream {
    fn next_addr(&mut self) -> u64 {
        // Align to 8 bytes like a word access.
        self.base + (self.rng.below(self.working_set) & !7)
    }
}

/// Pointer chasing over a full-period permutation of node slots.
///
/// Visits every one of `n_nodes` slots exactly once per period using a
/// full-period LCG (`n_nodes` is rounded up to a power of two so
/// `next = a*cur + c mod n` has full period with `a % 4 == 1`, `c` odd).
/// Consecutive addresses are decorrelated, defeating both spatial locality
/// and stride prefetching — the behaviour of mcf's linked data structures.
#[derive(Debug, Clone)]
pub struct PointerChaseStream {
    base: u64,
    node_bytes: u64,
    n_nodes: u64,
    current: u64,
}

impl PointerChaseStream {
    /// Creates a chase over `n_nodes` nodes of `node_bytes` bytes starting
    /// at `base`. `n_nodes` is rounded up to the next power of two.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` or `node_bytes` is zero.
    pub fn new(base: u64, n_nodes: u64, node_bytes: u64) -> Self {
        assert!(n_nodes > 0 && node_bytes > 0, "zero nodes or node size");
        Self {
            base,
            node_bytes,
            n_nodes: n_nodes.next_power_of_two(),
            current: 0,
        }
    }
}

impl AddressStream for PointerChaseStream {
    fn next_addr(&mut self) -> u64 {
        let addr = self.base + self.current * self.node_bytes;
        // Full-period LCG modulo a power of two: a ≡ 1 (mod 4), c odd.
        self.current = (self
            .current
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407))
            & (self.n_nodes - 1);
        addr
    }
}

/// A weighted mixture of streams, choosing per access.
///
/// Lets a region model, say, 80% stride + 20% random-global traffic.
#[derive(Debug, Clone)]
pub struct MixedStream {
    streams: Vec<(Box<dyn AddressStreamClone>, f64)>,
    rng: SplitMix64,
}

/// Object-safe clone support for boxed streams.
pub trait AddressStreamClone: AddressStream + core::fmt::Debug {
    /// Clones into a box.
    fn clone_box(&self) -> Box<dyn AddressStreamClone>;
}

impl<T> AddressStreamClone for T
where
    T: AddressStream + Clone + core::fmt::Debug + 'static,
{
    fn clone_box(&self) -> Box<dyn AddressStreamClone> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn AddressStreamClone> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl MixedStream {
    /// Creates a mixture; weights are normalized internally.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or total weight is not positive.
    pub fn new(parts: Vec<(Box<dyn AddressStreamClone>, f64)>, seed: u64) -> Self {
        assert!(!parts.is_empty(), "mixture needs at least one stream");
        let total: f64 = parts.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0, "mixture weights must be positive");
        let streams = parts.into_iter().map(|(s, w)| (s, w / total)).collect();
        Self {
            streams,
            rng: SplitMix64::new(seed),
        }
    }
}

impl AddressStream for MixedStream {
    fn next_addr(&mut self) -> u64 {
        let mut pick = self.rng.unit_f64();
        let last = self.streams.len() - 1;
        for (i, (stream, weight)) in self.streams.iter_mut().enumerate() {
            if pick < *weight || i == last {
                return stream.next_addr();
            }
            pick -= *weight;
        }
        unreachable!("loop always returns on the last stream");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
        }
    }

    #[test]
    fn splitmix_unit_in_range() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn strided_wraps_at_working_set() {
        let mut s = StridedStream::new(100, 10, 30);
        let addrs: Vec<u64> = (0..6).map(|_| s.next_addr()).collect();
        assert_eq!(addrs, vec![100, 110, 120, 100, 110, 120]);
    }

    #[test]
    fn random_stays_in_working_set() {
        let mut s = RandomStream::new(0x10_000, 4096, 3);
        for _ in 0..1000 {
            let a = s.next_addr();
            assert!((0x10_000..0x11_000).contains(&a));
        }
    }

    #[test]
    fn pointer_chase_visits_all_nodes() {
        let mut s = PointerChaseStream::new(0, 8, 64);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..8 {
            seen.insert(s.next_addr());
        }
        assert_eq!(seen.len(), 8, "full-period permutation");
    }

    #[test]
    fn pointer_chase_is_not_sequential() {
        let mut s = PointerChaseStream::new(0, 1024, 64);
        let mut ascending = 0;
        let mut prev = s.next_addr();
        for _ in 0..1000 {
            let cur = s.next_addr();
            if cur == prev + 64 {
                ascending += 1;
            }
            prev = cur;
        }
        assert!(
            ascending < 50,
            "chase should rarely be sequential: {ascending}"
        );
    }

    #[test]
    fn mixture_draws_from_all_parts() {
        let parts: Vec<(Box<dyn AddressStreamClone>, f64)> = vec![
            (Box::new(StridedStream::new(0, 8, 64)), 0.5),
            (Box::new(StridedStream::new(1 << 30, 8, 64)), 0.5),
        ];
        let mut m = MixedStream::new(parts, 11);
        let mut low = 0;
        let mut high = 0;
        for _ in 0..1000 {
            if m.next_addr() >= 1 << 30 {
                high += 1;
            } else {
                low += 1;
            }
        }
        assert!(low > 300 && high > 300, "both parts sampled: {low}/{high}");
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_mixture_rejected() {
        MixedStream::new(vec![], 0);
    }
}
