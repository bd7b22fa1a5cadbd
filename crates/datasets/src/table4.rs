//! Surrogates for the eight evaluation datasets of Table 4.
//!
//! We cannot ship Yeast/Cora/…/ACMCit, so each dataset is replaced by a
//! synthetic digraph reproducing its *statistical shape* — node/edge/label
//! counts (scaled down by `scale` to laptop size), Zipf-skewed labels, and
//! a preferential-attachment topology yielding the paper's `D⁻ ≫ D⁺`
//! in-degree skew. All efficiency/sensitivity experiments consume these
//! surrogates.

use fsim_graph::generate::{preferential, GeneratorConfig};
use fsim_graph::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One row of Table 4 (original sizes) plus the surrogate scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Dataset name as in the paper.
    pub name: &'static str,
    /// Original `|E|`.
    pub edges: usize,
    /// Original `|V|`.
    pub nodes: usize,
    /// Original `|Σ|` (ACMCit's 72K capped in the surrogate).
    pub labels: usize,
    /// Default down-scaling divisor for the surrogate.
    pub scale: usize,
}

/// The eight datasets of Table 4 in paper order.
pub const TABLE4: [DatasetSpec; 8] = [
    DatasetSpec {
        name: "Yeast",
        edges: 7_182,
        nodes: 2_361,
        labels: 13,
        scale: 5,
    },
    DatasetSpec {
        name: "Cora",
        edges: 91_500,
        nodes: 23_166,
        labels: 70,
        scale: 20,
    },
    DatasetSpec {
        name: "Wiki",
        edges: 119_882,
        nodes: 4_592,
        labels: 120,
        scale: 10,
    },
    DatasetSpec {
        name: "JDK",
        edges: 150_985,
        nodes: 6_434,
        labels: 41,
        scale: 10,
    },
    DatasetSpec {
        name: "NELL",
        edges: 154_213,
        nodes: 75_492,
        labels: 269,
        scale: 50,
    },
    DatasetSpec {
        name: "GP",
        edges: 298_564,
        nodes: 144_879,
        labels: 8,
        scale: 50,
    },
    DatasetSpec {
        name: "Amazon",
        edges: 1_788_725,
        nodes: 554_790,
        labels: 82,
        scale: 100,
    },
    DatasetSpec {
        name: "ACMCit",
        edges: 9_671_895,
        nodes: 1_462_947,
        labels: 1_000,
        scale: 200,
    },
];

impl DatasetSpec {
    /// Looks a spec up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<&'static DatasetSpec> {
        TABLE4.iter().find(|d| d.name.eq_ignore_ascii_case(name))
    }

    /// Surrogate node count at the default scale.
    pub fn scaled_nodes(&self) -> usize {
        (self.nodes / self.scale).max(50)
    }

    /// Surrogate edge count at the default scale.
    pub fn scaled_edges(&self) -> usize {
        (self.edges / self.scale).max(100)
    }

    /// Generates the surrogate graph at the default scale.
    pub fn generate(&self, seed: u64) -> Graph {
        self.generate_scaled(1.0, seed)
    }

    /// Generates the surrogate with an extra multiplier on top of the
    /// default scale (`extra > 1` makes the graph bigger).
    pub fn generate_scaled(&self, extra: f64, seed: u64) -> Graph {
        let nodes = ((self.scaled_nodes() as f64) * extra) as usize;
        let edges = ((self.scaled_edges() as f64) * extra) as usize;
        let labels = self.labels.min(nodes / 2).max(2);
        let cfg = GeneratorConfig::new(nodes.max(50), edges.max(100), labels).label_skew(0.8);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ fxhash_name(self.name));
        preferential(&cfg, &mut rng)
    }
}

fn fxhash_name(name: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = fsim_graph::hash::FxHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsim_graph::GraphStats;

    #[test]
    fn all_specs_resolve_by_name() {
        for spec in &TABLE4 {
            assert_eq!(DatasetSpec::by_name(spec.name), Some(spec));
            assert_eq!(DatasetSpec::by_name(&spec.name.to_lowercase()), Some(spec));
        }
        assert_eq!(DatasetSpec::by_name("nope"), None);
    }

    #[test]
    fn surrogates_hit_scaled_sizes() {
        let spec = DatasetSpec::by_name("Yeast").unwrap();
        let g = spec.generate(1);
        let stats = GraphStats::of(&g);
        assert_eq!(stats.nodes, spec.scaled_nodes());
        // Preferential attachment may fall slightly short of the edge target.
        assert!(stats.edges as f64 > spec.scaled_edges() as f64 * 0.8);
        assert!(stats.labels <= spec.labels);
    }

    #[test]
    fn in_degree_skew_is_reproduced() {
        // The real datasets have D⁻ ≫ D⁺ (e.g. JDK); surrogates must too.
        let spec = DatasetSpec::by_name("JDK").unwrap();
        let g = spec.generate(2);
        let stats = GraphStats::of(&g);
        assert!(
            stats.max_in_degree > 3 * stats.max_out_degree,
            "expected in-degree skew, got D+={} D-={}",
            stats.max_out_degree,
            stats.max_in_degree
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = DatasetSpec::by_name("NELL").unwrap();
        let a = spec.generate(7);
        let b = spec.generate(7);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        let c = spec.generate(8);
        assert_ne!(a.edges().collect::<Vec<_>>(), c.edges().collect::<Vec<_>>());
    }

    #[test]
    fn extra_scaling_grows_the_graph() {
        let spec = DatasetSpec::by_name("Yeast").unwrap();
        let small = spec.generate_scaled(0.5, 3);
        let big = spec.generate_scaled(2.0, 3);
        assert!(big.node_count() > small.node_count());
    }
}
