//! Workload inputs as pure functions of the workload seed.
//!
//! The program under test only sees what these functions return: which
//! campaign points run and in what order, which test images score them,
//! and which link realisations carry the remote campaigns.
//!
//! Points come in *blocks* of fixed composition. A run measures whole
//! blocks in a fixed order, so the seed changes the inputs (point order,
//! images, link realisations) but not the mix of work a run measures.

/// fig5b's strike budgets, as fractions of half the target layer window.
pub const STRIKE_FRACTIONS: [f64; 5] = [0.125, 0.25, 0.5, 0.75, 1.0];

/// The blind baseline's strike count: the middle of fig5b's
/// {500, 1000, 2000, 3000, 4500}.
pub const BLIND_STRIKES: u32 = 2000;

/// `remote_campaign`'s combined loss+corruption rates.
pub const LINK_RATES: [f64; 4] = [0.0, 0.04, 0.10, 0.16];

/// Layers of the LeNet victim, in execution order.
pub const LAYERS: usize = dnn::lenet::STAGE_NAMES.len();

/// SplitMix64: a tiny, stable generator, so the inputs do not change when
/// a dependency's RNG does.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one purpose (`salt`) of one workload seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One fig5b campaign point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strike {
    /// TDC-guided strikes on layer `layer` (index into
    /// [`dnn::lenet::STAGE_NAMES`]) at budget `STRIKE_FRACTIONS[fraction]`.
    Guided { layer: usize, fraction: usize },
    /// The blind baseline: `strikes` sprayed from the start of inference.
    Blind { strikes: u32 },
}

/// The fig5b block: one guided point per layer, layer `l` at strike
/// fraction `STRIKE_FRACTIONS[l]` (a diagonal of fig5b's grid, so every
/// layer and every fraction once), plus one blind point, in seeded order.
/// Every block of a run is this one: a run repeats identical work, so
/// the median block time shrugs off a burst of contention on the host,
/// and the seed changes the inputs but not the mix of work.
pub fn fig5b_block(seed: u64) -> Vec<Strike> {
    let mut block: Vec<Strike> =
        (0..LAYERS).map(|layer| Strike::Guided { layer, fraction: layer }).collect();
    block.push(Strike::Blind { strikes: BLIND_STRIKES });
    SplitMix::new(seed, 1).shuffle(&mut block);
    block
}

/// `k` distinct indices into a set of `n` images, in seeded order.
pub fn image_subset(seed: u64, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot draw {k} distinct images from {n}");
    let mut rng = SplitMix::new(seed, 2);
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.below(n - i);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

/// One remote campaign: a link with `rate` combined loss+corruption,
/// realised from `link_seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPoint {
    /// Combined loss+corruption rate, split evenly between the two.
    pub rate: f64,
    /// Seed of the link's fault process.
    pub link_seed: u64,
}

/// Blocks of the remote sweep, which cycles through them: enough link
/// realisations that their mix is much the same for every seed.
pub const REMOTE_BLOCKS: usize = 16;

/// The remote sweep: [`REMOTE_BLOCKS`] blocks, each one campaign per rate
/// of [`LINK_RATES`] over its own seeded link, in seeded order.
pub fn remote_blocks(seed: u64) -> Vec<Vec<LinkPoint>> {
    let mut rng = SplitMix::new(seed, 3);
    (0..REMOTE_BLOCKS)
        .map(|_| {
            let mut block: Vec<LinkPoint> = LINK_RATES
                .iter()
                .map(|&rate| LinkPoint { rate, link_seed: rng.next_u64() })
                .collect();
            rng.shuffle(&mut block);
            block
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for seed in [0, 1, 2021, u64::MAX] {
            assert_eq!(fig5b_block(seed), fig5b_block(seed));
            assert_eq!(image_subset(seed, 1000, 300), image_subset(seed, 1000, 300));
            assert_eq!(remote_blocks(seed), remote_blocks(seed));
        }
    }

    #[test]
    fn different_seeds_different_inputs() {
        assert_ne!(fig5b_block(1), fig5b_block(2));
        assert_ne!(image_subset(1, 1000, 300), image_subset(2, 1000, 300));
        assert_ne!(remote_blocks(1), remote_blocks(2));
    }

    #[test]
    fn fig5b_block_holds_every_layer_and_fraction_once_plus_blind() {
        for seed in [7, 99] {
            let mut block = fig5b_block(seed);
            assert_eq!(block.len(), LAYERS + 1);
            let blind = block.iter().position(|s| matches!(s, Strike::Blind { .. }));
            assert_eq!(
                block.remove(blind.expect("one blind point")),
                Strike::Blind { strikes: BLIND_STRIKES }
            );
            let mut layers = Vec::new();
            let mut fractions = Vec::new();
            for strike in block {
                let Strike::Guided { layer, fraction } = strike else { panic!("one blind point") };
                layers.push(layer);
                fractions.push(fraction);
            }
            layers.sort_unstable();
            fractions.sort_unstable();
            assert_eq!(layers, (0..LAYERS).collect::<Vec<_>>());
            assert_eq!(fractions, (0..STRIKE_FRACTIONS.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn image_subsets_are_distinct_and_in_range() {
        let subset = image_subset(5, 1000, 300);
        let mut sorted = subset.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 300);
        assert!(sorted.iter().all(|&i| i < 1000));
    }

    #[test]
    fn remote_blocks_hold_every_rate_once() {
        let blocks = remote_blocks(3);
        assert_eq!(blocks.len(), REMOTE_BLOCKS);
        for block in &blocks {
            let mut rates: Vec<f64> = block.iter().map(|p| p.rate).collect();
            rates.sort_by(f64::total_cmp);
            assert_eq!(rates, LINK_RATES.to_vec());
        }
    }
}
