//! Shared application plumbing.

use rand::Rng;
use std::fmt;

/// The consistency configuration an application runs under (§5.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mode {
    /// Unmodified application over causal consistency (no invariant
    /// preservation).
    Causal,
    /// IPA-patched operations: extra restoring effects / compensations.
    Ipa,
    /// Indigo-style reservations.
    Indigo,
    /// Primary-forwarded strong consistency.
    Strong,
}

impl Mode {
    pub fn all() -> [Mode; 4] {
        [Mode::Causal, Mode::Ipa, Mode::Indigo, Mode::Strong]
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mode::Causal => "Causal",
            Mode::Ipa => "IPA",
            Mode::Indigo => "Indigo",
            Mode::Strong => "Strong",
        };
        f.write_str(s)
    }
}

/// Cost profile of an executed operation (drives the simulator's service
/// model): distinct objects touched and total updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpCost {
    pub objects: usize,
    pub updates: usize,
}

impl OpCost {
    pub const fn new(objects: usize, updates: usize) -> OpCost {
        OpCost { objects, updates }
    }
}

/// Pick an index in `0..n`, preferring `home`-affine entities with the
/// given probability (models the access locality that keeps Indigo's
/// reservations mostly resident).
pub fn pick_local(rng: &mut impl Rng, n: usize, regions: usize, home: u16, locality: f64) -> usize {
    assert!(n > 0);
    if regions <= 1 || rng.gen::<f64>() >= locality {
        return rng.gen_range(0..n);
    }
    // Entities are striped across regions by index.
    let local: Vec<usize> = (0..n)
        .filter(|i| (i % regions) as u16 == home % regions as u16)
        .collect();
    if local.is_empty() {
        rng.gen_range(0..n)
    } else {
        local[rng.gen_range(0..local.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn modes_display() {
        assert_eq!(Mode::Causal.to_string(), "Causal");
        assert_eq!(Mode::Ipa.to_string(), "IPA");
        assert_eq!(Mode::all().len(), 4);
    }

    #[test]
    fn locality_prefers_home_entities() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut home_hits = 0;
        let trials = 1000;
        for _ in 0..trials {
            let i = pick_local(&mut rng, 12, 3, 1, 0.9);
            if i % 3 == 1 {
                home_hits += 1;
            }
        }
        // ~0.9 + 0.1/3 ≈ 93 % expected.
        assert!(home_hits > 850, "{home_hits}");
    }

    #[test]
    fn zero_locality_is_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[pick_local(&mut rng, 3, 3, 0, 0.0)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }
}
