//! Inter-region latency model.

use rand::Rng;

/// A region (data center) index; doubles as the store's replica id.
pub type Region = u16;

/// Pairwise network latency: a base RTT matrix plus multiplicative
/// jitter. Which links are cut is not latency: the simulation keeps it in
/// an `ipa_store::Links`, like every other transport.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    /// Round-trip times in milliseconds, `rtt[a][b]`.
    rtt_ms: Vec<Vec<f64>>,
    /// Uniform jitter fraction (e.g. 0.1 → ±10 %).
    jitter: f64,
}

impl LatencyModel {
    /// Build from a symmetric RTT matrix (ms).
    pub fn new(rtt_ms: Vec<Vec<f64>>, jitter: f64) -> LatencyModel {
        let n = rtt_ms.len();
        for row in &rtt_ms {
            assert_eq!(row.len(), n, "latency matrix must be square");
        }
        LatencyModel { rtt_ms, jitter }
    }

    pub fn regions(&self) -> usize {
        self.rtt_ms.len()
    }

    /// Base RTT between two regions (no jitter).
    pub fn base_rtt(&self, a: Region, b: Region) -> f64 {
        self.rtt_ms[a as usize][b as usize]
    }

    /// Sampled RTT with jitter.
    pub fn rtt(&self, a: Region, b: Region, rng: &mut impl Rng) -> f64 {
        jittered(self.base_rtt(a, b), self.jitter, rng)
    }

    /// Sampled one-way delay with jitter (half the RTT).
    pub fn one_way(&self, a: Region, b: Region, rng: &mut impl Rng) -> f64 {
        jittered(self.base_rtt(a, b) / 2.0, self.jitter, rng)
    }
}

fn jittered(base: f64, jitter: f64, rng: &mut impl Rng) -> f64 {
    if base <= 0.0 || jitter <= 0.0 {
        return base.max(0.0);
    }
    let factor = 1.0 + rng.gen_range(-jitter..jitter);
    (base * factor).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> LatencyModel {
        LatencyModel::new(
            vec![
                vec![0.5, 80.0, 80.0],
                vec![80.0, 0.5, 160.0],
                vec![80.0, 160.0, 0.5],
            ],
            0.1,
        )
    }

    #[test]
    fn base_and_jittered_rtts() {
        let m = model();
        assert_eq!(m.base_rtt(0, 1), 80.0);
        assert_eq!(m.base_rtt(1, 2), 160.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let r = m.rtt(0, 1, &mut rng);
            assert!((72.0..=88.0).contains(&r), "{r}");
            let ow = m.one_way(1, 2, &mut rng);
            assert!((72.0..=88.0).contains(&ow), "{ow}");
        }
    }

    #[test]
    fn determinism_per_seed() {
        let m = model();
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..10).map(|_| m.rtt(0, 2, &mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..10).map(|_| m.rtt(0, 2, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
