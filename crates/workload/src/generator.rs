//! Operation stream generation.

use rand::rngs::StdRng;
use rand::Rng;
use saad_sim::rng::{exp_sample, RngStreams, Zipf};
use saad_sim::{SimDuration, SimTime};

/// The kind of a client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Point read.
    Read,
    /// Insert of a new key.
    Insert,
    /// Update of an existing key.
    Update,
}

impl OpKind {
    /// Whether the operation mutates data (reaches the write path).
    pub fn is_write(&self) -> bool {
        matches!(self, OpKind::Insert | OpKind::Update)
    }
}

/// One client operation with its arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// Arrival time at the storage tier.
    pub at: SimTime,
    /// Operation kind.
    pub kind: OpKind,
    /// Target key.
    pub key: u64,
    /// Value payload size in bytes (0 for reads).
    pub value_size: u32,
}

/// Read/insert/update proportions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationMix {
    read: f64,
    insert: f64,
    update: f64,
}

impl OperationMix {
    /// Create a mix; proportions are normalized to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if any proportion is negative or all are zero.
    pub fn new(read: f64, insert: f64, update: f64) -> OperationMix {
        assert!(
            read >= 0.0 && insert >= 0.0 && update >= 0.0,
            "proportions must be non-negative"
        );
        let total = read + insert + update;
        assert!(total > 0.0, "at least one proportion must be positive");
        OperationMix {
            read: read / total,
            insert: insert / total,
            update: update / total,
        }
    }

    /// The paper's workload: "most requests that reach Cassandra and HBase
    /// tiers are write operations. We chose a write-intensive workload
    /// mix" — 10% reads, 45% inserts, 45% updates.
    pub fn write_heavy() -> OperationMix {
        OperationMix::new(0.10, 0.45, 0.45)
    }

    /// Fraction of operations that are reads.
    pub fn read_fraction(&self) -> f64 {
        self.read
    }

    /// Draw one operation kind.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> OpKind {
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < self.read {
            OpKind::Read
        } else if u < self.read + self.insert {
            OpKind::Insert
        } else {
            OpKind::Update
        }
    }
}

/// Key selection strategy over a `0..key_space` space.
#[derive(Debug, Clone)]
pub enum KeyChooser {
    /// Uniform over the key space.
    Uniform {
        /// Number of keys.
        key_space: u64,
    },
    /// Zipf-skewed (YCSB's default request distribution).
    Zipfian {
        /// The prepared sampler.
        zipf: Zipf,
    },
}

impl KeyChooser {
    /// Uniform chooser.
    ///
    /// # Panics
    ///
    /// Panics if `key_space == 0`.
    pub fn uniform(key_space: u64) -> KeyChooser {
        assert!(key_space > 0, "key space must be non-empty");
        KeyChooser::Uniform { key_space }
    }

    /// Zipf chooser with YCSB's default skew (θ = 0.99).
    ///
    /// # Panics
    ///
    /// Panics if `key_space == 0`.
    pub fn zipfian(key_space: usize) -> KeyChooser {
        KeyChooser::Zipfian {
            zipf: Zipf::new(key_space, 0.99),
        }
    }

    /// Draw one key.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            KeyChooser::Uniform { key_space } => rng.gen_range(0..*key_space),
            KeyChooser::Zipfian { zipf } => zipf.sample(rng) as u64,
        }
    }
}

/// Deterministic operation stream generator.
///
/// Arrivals are Poisson at `ops_per_sec` aggregate rate (the superposition
/// of the paper's 100 emulated closed-loop clients is well approximated by
/// a Poisson process at the server).
///
/// # Example
///
/// ```
/// use saad_workload::{KeyChooser, OperationMix, WorkloadGenerator};
/// use saad_sim::SimTime;
///
/// let mut gen = WorkloadGenerator::new(
///     OperationMix::write_heavy(),
///     KeyChooser::zipfian(10_000),
///     300.0, // ops/sec
///     42,
/// );
/// let ops = gen.ops_until(SimTime::from_secs(10));
/// assert!(ops.len() > 2500 && ops.len() < 3500);
/// ```
#[derive(Debug)]
pub struct WorkloadGenerator {
    mix: OperationMix,
    keys: KeyChooser,
    ops_per_sec: f64,
    mean_value_size: f64,
    rng: StdRng,
    cursor: SimTime,
}

impl WorkloadGenerator {
    /// Create a generator.
    ///
    /// # Panics
    ///
    /// Panics if `ops_per_sec` is not strictly positive.
    pub fn new(
        mix: OperationMix,
        keys: KeyChooser,
        ops_per_sec: f64,
        seed: u64,
    ) -> WorkloadGenerator {
        assert!(
            ops_per_sec > 0.0,
            "rate must be positive, got {ops_per_sec}"
        );
        WorkloadGenerator {
            mix,
            keys,
            ops_per_sec,
            mean_value_size: 1024.0, // YCSB default: 1 KB records
            rng: RngStreams::new(seed).stream("workload"),
            cursor: SimTime::ZERO,
        }
    }

    /// Change the aggregate rate mid-run (ops after the cursor use it).
    pub fn set_rate(&mut self, ops_per_sec: f64) {
        assert!(ops_per_sec > 0.0);
        self.ops_per_sec = ops_per_sec;
    }

    /// Current virtual-time cursor (arrival time of the next operation).
    pub fn cursor(&self) -> SimTime {
        self.cursor
    }

    /// Generate the next operation.
    pub fn next_op(&mut self) -> Operation {
        let gap = exp_sample(&mut self.rng, 1.0 / self.ops_per_sec);
        self.cursor += SimDuration::from_secs_f64(gap);
        let kind = self.mix.sample(&mut self.rng);
        let key = self.keys.sample(&mut self.rng);
        let value_size = if kind.is_write() {
            // Value sizes vary ±50% around the mean.
            (self.mean_value_size * self.rng.gen_range(0.5..1.5)) as u32
        } else {
            0
        };
        Operation {
            at: self.cursor,
            kind,
            key,
            value_size,
        }
    }

    /// Generate all operations arriving strictly before `end`.
    pub fn ops_until(&mut self, end: SimTime) -> Vec<Operation> {
        let mut out = Vec::new();
        loop {
            let op = self.next_op();
            if op.at >= end {
                // The overshoot op is dropped; the cursor stays past `end`,
                // preserving the renewal process across calls.
                return out;
            }
            out.push(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mix_normalizes() {
        let m = OperationMix::new(2.0, 1.0, 1.0);
        assert!((m.read_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn write_heavy_is_mostly_writes() {
        let m = OperationMix::write_heavy();
        let mut rng = StdRng::seed_from_u64(1);
        let writes = (0..10_000)
            .filter(|_| m.sample(&mut rng).is_write())
            .count();
        assert!(writes > 8500, "writes={writes}");
    }

    #[test]
    #[should_panic]
    fn all_zero_mix_rejected() {
        OperationMix::new(0.0, 0.0, 0.0);
    }

    #[test]
    fn uniform_keys_cover_space() {
        let k = KeyChooser::uniform(10);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(k.sample(&mut rng));
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn zipfian_keys_skew() {
        let k = KeyChooser::zipfian(1000);
        let mut rng = StdRng::seed_from_u64(3);
        let head = (0..10_000).filter(|_| k.sample(&mut rng) < 10).count();
        assert!(head > 2500, "head={head}");
    }

    #[test]
    fn arrivals_are_increasing_and_rate_matches() {
        let mut g = WorkloadGenerator::new(
            OperationMix::write_heavy(),
            KeyChooser::uniform(100),
            1000.0,
            5,
        );
        let ops = g.ops_until(SimTime::from_secs(5));
        for w in ops.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let rate = ops.len() as f64 / 5.0;
        assert!((rate - 1000.0).abs() < 60.0, "rate={rate}");
    }

    #[test]
    fn reads_have_no_payload() {
        let mut g = WorkloadGenerator::new(
            OperationMix::new(1.0, 0.0, 0.0),
            KeyChooser::uniform(10),
            100.0,
            7,
        );
        for _ in 0..100 {
            let op = g.next_op();
            assert_eq!(op.kind, OpKind::Read);
            assert_eq!(op.value_size, 0);
        }
    }

    #[test]
    fn writes_have_payload_near_1kb() {
        let mut g = WorkloadGenerator::new(
            OperationMix::new(0.0, 1.0, 0.0),
            KeyChooser::uniform(10),
            100.0,
            7,
        );
        let sizes: Vec<u32> = (0..1000).map(|_| g.next_op().value_size).collect();
        let mean = sizes.iter().map(|&s| s as f64).sum::<f64>() / sizes.len() as f64;
        assert!((mean - 1024.0).abs() < 100.0, "mean={mean}");
        assert!(sizes.iter().all(|&s| (512..=1536).contains(&s)));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let run = |seed| {
            let mut g = WorkloadGenerator::new(
                OperationMix::write_heavy(),
                KeyChooser::zipfian(100),
                200.0,
                seed,
            );
            g.ops_until(SimTime::from_secs(2))
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn ops_until_resumes_cleanly() {
        let mut g = WorkloadGenerator::new(
            OperationMix::write_heavy(),
            KeyChooser::uniform(10),
            500.0,
            11,
        );
        let a = g.ops_until(SimTime::from_secs(1));
        let b = g.ops_until(SimTime::from_secs(2));
        assert!(a.last().unwrap().at < SimTime::from_secs(1));
        assert!(b.first().unwrap().at >= SimTime::from_secs(1));
        assert!(b.last().unwrap().at < SimTime::from_secs(2));
    }

    #[test]
    fn rate_change_takes_effect() {
        let mut g = WorkloadGenerator::new(
            OperationMix::write_heavy(),
            KeyChooser::uniform(10),
            100.0,
            13,
        );
        let slow = g.ops_until(SimTime::from_secs(5)).len();
        g.set_rate(1000.0);
        let fast = g.ops_until(SimTime::from_secs(10)).len();
        assert!(fast > slow * 5, "slow={slow} fast={fast}");
    }
}
