//! Inputs and the sequential model. Everything here is a pure function
//! of the seed: the program under test receives only what this module
//! generated, and the model says what every replica must hold afterwards.

use ipa_crdt::Val;
use ipa_store::{Key, ThreadedCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Zipfian sampler over `0..n` by inverting the precomputed CDF. Key 0
/// is the hottest under every seed, so the split of load over home
/// regions (and client threads) is the same in every run; the seed
/// changes only the sequence.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u32
    }
}

/// One generated client operation on the set at `key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Scheduled arrival in ns from the start of the run (open loop);
    /// zero in closed-loop streams.
    pub at_ns: u64,
    pub key: u32,
    pub write: bool,
}

/// `count` Zipf-keyed operations, a `read_share` of them reads.
pub fn op_stream(seed: u64, keys: usize, count: usize, read_share: f64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(keys, 0.99);
    (0..count)
        .map(|_| Op {
            at_ns: 0,
            key: zipf.sample(&mut rng),
            write: rng.gen::<f64>() >= read_share,
        })
        .collect()
}

/// Stamp Poisson arrivals at `rate` ops/s onto a stream and cut it at
/// `seconds`: exponential gaps by inversion.
pub fn poisson_arrivals(seed: u64, mut ops: Vec<Op>, rate: f64, seconds: f64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut t = 0.0f64;
    let mut kept = 0;
    for op in &mut ops {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            break;
        }
        op.at_ns = (t * 1e9) as u64;
        kept += 1;
    }
    ops.truncate(kept);
    ops
}

/// The home region of a key: every operation on it commits there, in
/// stream order, so the local state a transaction prepares against is
/// exactly the sequential model's and no remove ever misses its element.
pub fn home_region(key: u32, nodes: u16) -> u16 {
    (key % u32::from(nodes)) as u16
}

pub fn key_names(n: usize) -> Vec<Key> {
    (0..n).map(|i| Key::new(format!("k{i}"))).collect()
}

/// Sequential model of a family of add-wins sets holding integer
/// elements, each key's elements in insertion (= ascending) order.
#[derive(Clone, Debug, PartialEq)]
pub struct SetModel {
    sets: Vec<VecDeque<i64>>,
    next: Vec<i64>,
}

impl SetModel {
    pub fn new(keys: usize) -> SetModel {
        SetModel {
            sets: vec![VecDeque::new(); keys],
            next: vec![0; keys],
        }
    }

    /// Insert a fresh element (unique per key, ascending) and return it.
    pub fn add(&mut self, key: u32) -> i64 {
        let e = self.next[key as usize];
        self.next[key as usize] += 1;
        self.sets[key as usize].push_back(e);
        e
    }

    /// Drop and return the oldest element.
    pub fn remove_oldest(&mut self, key: u32) -> i64 {
        self.sets[key as usize]
            .pop_front()
            .expect("sliding window never empties")
    }

    pub fn newest(&self, key: u32) -> i64 {
        *self.sets[key as usize]
            .back()
            .expect("preloaded keys are never empty")
    }

    /// Plant a wrong element: the self-test that the check can fail.
    pub fn plant_wrong_element(&mut self) {
        let set = self
            .sets
            .iter_mut()
            .find(|s| !s.is_empty())
            .expect("a non-empty set");
        *set.back_mut().expect("non-empty") += 1_000_000;
    }

    /// Compare every key's element set at every replica with the model.
    pub fn check(&self, cluster: &ThreadedCluster, keys: &[Key]) -> Result<(), String> {
        for node in 0..cluster.len() as u16 {
            cluster.with_replica(node, |replica| {
                for (k, expected) in self.sets.iter().enumerate() {
                    let held = replica.object(&keys[k]).and_then(|o| o.as_awset());
                    let same = match held {
                        None => expected.is_empty(),
                        Some(set) => {
                            set.len() == expected.len()
                                && set
                                    .elements()
                                    .zip(expected)
                                    .all(|(have, want)| *have == Val::Int(*want))
                        }
                    };
                    if !same {
                        return Err(format!(
                            "replica {node} key {} holds {:?} elements, model expects {} ending in {:?}",
                            keys[k],
                            held.map(|s| s.len()),
                            expected.len(),
                            expected.back()
                        ));
                    }
                }
                Ok(())
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let make = |seed| poisson_arrivals(seed, op_stream(seed, 4096, 50_000, 0.5), 4_000.0, 5.0);
        let a = make(7);
        assert_eq!(a, make(7));
        assert_ne!(a, make(8));
        // ~4,000/s for 5 s, arrivals ascending, both kinds present.
        assert!((19_000..21_000).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let writes = a.iter().filter(|o| o.write).count();
        assert!((a.len() * 45 / 100..a.len() * 55 / 100).contains(&writes));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let ops = op_stream(3, 64, 20_000, 0.0);
        let mut hits = [0usize; 64];
        for o in &ops {
            hits[o.key as usize] += 1;
        }
        // Zipf(0.99) over 64 keys gives the top rank about a fifth.
        assert!(hits[0] > ops.len() / 8, "{}", hits[0]);
        assert!(hits[..8].windows(2).all(|w| w[0] > w[1]), "{hits:?}");
        assert!(hits[7] > hits[63] * 4, "{hits:?}");
        assert!(hits.iter().all(|&h| h > 0));
    }

    #[test]
    fn model_slides_a_window() {
        let mut m = SetModel::new(2);
        for _ in 0..3 {
            m.add(1);
        }
        assert_eq!(m.add(1), 3);
        assert_eq!(m.remove_oldest(1), 0);
        assert_eq!(m.newest(1), 3);
        assert_eq!(m.sets[1], [1, 2, 3]);
        assert!(m.sets[0].is_empty());
    }
}
