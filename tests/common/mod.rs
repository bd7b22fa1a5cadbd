//! Maps an engine configuration onto the dense reference oracle of
//! `fsim_exact::fractional`, which reads no `FsimConfig` itself.

use fsim::prelude::*;
use fsim_exact::fractional::{Mapping, Matching, Oracle, Spec, UpperBound};
use fsim_graph::{Graph, NodeId};

/// The oracle inputs one configuration describes, over two graphs that
/// share an interner.
pub struct Reference<'g> {
    g1: &'g Graph,
    g2: &'g Graph,
    cfg: FsimConfig,
    mapping: Mapping,
    label: Box<dyn Fn(NodeId, NodeId) -> f64 + 'g>,
}

impl<'g> Reference<'g> {
    /// `cfg`'s variant and matcher, or SimRank's total mapping when
    /// `simrank` is set (the engine then runs `SimRankOp`).
    pub fn new(g1: &'g Graph, g2: &'g Graph, cfg: &FsimConfig, simrank: bool) -> Self {
        let matching = match cfg.matcher {
            MatcherKind::Greedy => Matching::Greedy,
            MatcherKind::Hungarian => Matching::Exact,
        };
        let mapping = match cfg.variant {
            _ if simrank => Mapping::SimRank,
            Variant::Simple => Mapping::Simple,
            Variant::DegreePreserving => Mapping::DegreePreserving(matching),
            Variant::Bi => Mapping::Bi,
            Variant::Bijective => Mapping::Bijective(matching),
        };
        let label: Box<dyn Fn(NodeId, NodeId) -> f64 + 'g> = match cfg.label_term {
            LabelTermMode::Constant(c) => Box::new(move |_, _| c),
            LabelTermMode::Sim => {
                let prepared = cfg.label_fn.prepare(g1.interner());
                Box::new(move |x, y| prepared.sim(g1.label(x), g2.label(y)))
            }
        };
        Reference {
            g1,
            g2,
            cfg: cfg.clone(),
            mapping,
            label,
        }
    }

    /// The oracle at iterate 0, initialized by `cfg.init`.
    pub fn oracle(&self) -> Oracle<'_> {
        let cfg = &self.cfg;
        let spec = Spec {
            mapping: self.mapping,
            w_out: cfg.w_out,
            w_in: cfg.w_in,
            w_label: cfg.w_label(),
            label: &*self.label,
            theta: cfg.theta,
            upper_bound: cfg.upper_bound.map(|p| UpperBound {
                alpha: p.alpha,
                beta: p.beta,
            }),
            pin_identical: cfg.pin_identical,
        };
        let (g1, g2) = (self.g1, self.g2);
        let init = move |u: NodeId, v: NodeId| match cfg.init {
            InitScheme::LabelSim => (self.label)(u, v),
            InitScheme::Identity => f64::from(u8::from(u == v)),
            InitScheme::OutDegreeRatio => {
                let (a, b) = (g1.out_degree(u), g2.out_degree(v));
                if a.max(b) == 0 {
                    1.0
                } else {
                    a.min(b) as f64 / a.max(b) as f64
                }
            }
            InitScheme::Constant(c) => c,
        };
        Oracle::new(g1, g2, spec, init)
    }

    /// The oracle run to its own stop: the first step with `Δ < epsilon`,
    /// or the configured iteration cap. Returns it with its step count.
    pub fn converged(&self, epsilon: f64) -> (Oracle<'_>, usize) {
        let mut oracle = self.oracle();
        for k in 1..=self.cfg.effective_max_iters() {
            if oracle.step() < epsilon {
                return (oracle, k);
            }
        }
        (oracle, self.cfg.effective_max_iters())
    }
}
