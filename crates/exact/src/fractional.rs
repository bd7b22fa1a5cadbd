//! A dense reference oracle for fractional χ-simulation: the Jacobi
//! iteration of Equation 3 over the whole `|V1| × |V2|` score matrix,
//! written straight from Equations 2–3 and the mappings of Equation 7.
//!
//! The oracle knows nothing of the scoring engine: no candidate store, no
//! dependency lists, no shared row maxima and no scheduling. Each step
//! re-evaluates every maintained pair from the previous matrix. It is
//! meant for small graphs — a step costs `Σ_{(u,v)} |N(u)|·|N(v)|` — and
//! serves as the reference the engine's schedules are checked against.
//!
//! The caller supplies everything configuration-shaped ([`Spec`]): the
//! weights, the label function `L` (read both as the label term of Eq. 3
//! and, against θ, as the Remark-2 eligibility `L(x, y) ≥ θ`), the
//! mapping, the pruning and `pin_identical`, plus the initial scores.

use fsim_graph::{Graph, NodeId};

/// How an injective mapping (`dp`, `bj`) is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matching {
    /// The paper's greedy mapping: repeatedly take the heaviest remaining
    /// eligible pair, ties broken by the smaller left position, then the
    /// smaller right position.
    Greedy,
    /// The exact maximum-weight injective mapping (a bitmask dynamic
    /// program over the right set; at most 16 right neighbors).
    Exact,
}

/// The mapping operator `Mχ` with its normalizer `Ωχ` (Eq. 7, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// `s`: row maxima, `Ω = |S1|`.
    Simple,
    /// `dp`: an injective mapping, `Ω = |S1|`.
    DegreePreserving(Matching),
    /// `b`: row maxima plus column maxima, `Ω = |S1| + |S2|`.
    Bi,
    /// `bj`: an injective mapping, `Ω = √(|S1|·|S2|)`.
    Bijective(Matching),
    /// SimRank's total mapping `S1 × S2`, `Ω = |S1|·|S2|` (§4.3); it reads
    /// every pair, eligible or not, and is never vacuous.
    SimRank,
}

/// Upper-bound pruning (§3.4): a pair whose Eq.-6 bound is at most `beta`
/// is dropped and reads `alpha · ub` from then on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpperBound {
    /// The factor `α` applied to a dropped pair's bound.
    pub alpha: f64,
    /// The pruning threshold `β`.
    pub beta: f64,
}

/// Everything the oracle reads besides the graphs and the initial scores.
pub struct Spec<'a> {
    /// The mapping operator.
    pub mapping: Mapping,
    /// `w⁺`, the out-neighbor weight.
    pub w_out: f64,
    /// `w⁻`, the in-neighbor weight.
    pub w_in: f64,
    /// The label-term weight (`1 − w⁺ − w⁻` in the paper).
    pub w_label: f64,
    /// `L(x, y)` for `x ∈ V1`, `y ∈ V2`.
    pub label: &'a dyn Fn(NodeId, NodeId) -> f64,
    /// The mapping threshold θ: only pairs with `L ≥ θ` may be mapped,
    /// and for θ > 0 only they are maintained.
    pub theta: f64,
    /// Optional upper-bound pruning.
    pub upper_bound: Option<UpperBound>,
    /// Pin `FSim(u, u) = 1` for equal ids.
    pub pin_identical: bool,
}

/// The dense score matrix and the maintained set it iterates.
pub struct Oracle<'a> {
    g1: &'a Graph,
    g2: &'a Graph,
    spec: Spec<'a>,
    n2: usize,
    scores: Vec<f64>,
    maintained: Vec<bool>,
}

impl<'a> Oracle<'a> {
    /// The oracle at iterate 0. A maintained pair starts at
    /// `init(u, v)`. A pair with `L < θ` (θ > 0) is pruned and reads 0. Under
    /// upper-bound pruning, a pair with `ub ≤ β` is dropped and reads
    /// `α·ub` rounded through `f32`, the one storage choice copied from the
    /// scoring engine, which keeps its fallback constants as `f32`.
    pub fn new(
        g1: &'a Graph,
        g2: &'a Graph,
        spec: Spec<'a>,
        init: impl Fn(NodeId, NodeId) -> f64,
    ) -> Self {
        let (n1, n2) = (g1.node_count(), g2.node_count());
        let mut oracle = Oracle {
            g1,
            g2,
            spec,
            n2,
            scores: vec![0.0; n1 * n2],
            maintained: vec![false; n1 * n2],
        };
        for u in 0..n1 as NodeId {
            for v in 0..n2 as NodeId {
                let k = oracle.at(u, v);
                if oracle.spec.theta > 0.0 && (oracle.spec.label)(u, v) < oracle.spec.theta {
                    continue;
                }
                match oracle.spec.upper_bound {
                    Some(p) => {
                        let ub = oracle.upper_bound(u, v);
                        if ub > p.beta {
                            oracle.maintained[k] = true;
                            oracle.scores[k] = init(u, v);
                        } else if p.alpha > 0.0 {
                            oracle.scores[k] = (p.alpha * ub) as f32 as f64;
                        }
                    }
                    None => {
                        oracle.maintained[k] = true;
                        oracle.scores[k] = init(u, v);
                    }
                }
            }
        }
        oracle
    }

    fn at(&self, u: NodeId, v: NodeId) -> usize {
        u as usize * self.n2 + v as usize
    }

    /// The current score of `(u, v)`.
    pub fn score(&self, u: NodeId, v: NodeId) -> f64 {
        self.scores[self.at(u, v)]
    }

    /// Whether `(u, v)` is iterated (neither θ-pruned nor bound-dropped).
    pub fn is_maintained(&self, u: NodeId, v: NodeId) -> bool {
        self.maintained[self.at(u, v)]
    }

    /// One Jacobi step of Eq. 3 over every maintained pair; returns
    /// `Δ = max |FSim^k − FSim^{k−1}|` over them.
    pub fn step(&mut self) -> f64 {
        let next: Vec<f64> = (0..self.scores.len())
            .map(|k| {
                let (u, v) = ((k / self.n2) as NodeId, (k % self.n2) as NodeId);
                if self.maintained[k] {
                    self.evaluate(u, v)
                } else {
                    self.scores[k]
                }
            })
            .collect();
        let delta = next
            .iter()
            .zip(&self.scores)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        self.scores = next;
        delta
    }

    /// Eq. 3 for one pair against the current matrix (Eq. 2's terms, the
    /// label term, the clamp to `[0, 1]`).
    pub fn evaluate(&self, u: NodeId, v: NodeId) -> f64 {
        if self.spec.pin_identical && u == v {
            return 1.0;
        }
        let s = &self.spec;
        let out = self.term(self.g1.out_neighbors(u), self.g2.out_neighbors(v));
        let inn = self.term(self.g1.in_neighbors(u), self.g2.in_neighbors(v));
        (s.w_out * out + s.w_in * inn + s.w_label * (s.label)(u, v)).clamp(0.0, 1.0)
    }

    fn eligible(&self, x: NodeId, y: NodeId) -> bool {
        self.spec.mapping == Mapping::SimRank || (self.spec.label)(x, y) >= self.spec.theta
    }

    fn vacuous_and_omega(&self, len1: usize, len2: usize) -> (bool, f64) {
        match self.spec.mapping {
            Mapping::Simple | Mapping::DegreePreserving(_) => (len1 == 0, len1 as f64),
            Mapping::Bi => (len1 == 0 && len2 == 0, (len1 + len2) as f64),
            Mapping::Bijective(_) => (len1 == 0 && len2 == 0, ((len1 * len2) as f64).sqrt()),
            Mapping::SimRank => (false, (len1 * len2) as f64),
        }
    }

    /// Eq. 2's neighbor term: `1` when vacuous, else `Σ_M FSim / Ω`.
    fn term(&self, s1: &[NodeId], s2: &[NodeId]) -> f64 {
        let (vacuous, omega) = self.vacuous_and_omega(s1.len(), s2.len());
        if vacuous {
            return 1.0;
        }
        if omega <= 0.0 {
            return 0.0;
        }
        // w[i][j]: the weight of mapping S1[i] to S2[j], None if ineligible.
        let w = |i: usize, j: usize| {
            self.eligible(s1[i], s2[j])
                .then(|| self.score(s1[i], s2[j]))
        };
        let row_maxima = || {
            (0..s1.len())
                .map(|i| (0..s2.len()).filter_map(|j| w(i, j)).fold(0.0, max))
                .fold(0.0, |t, m| t + m)
        };
        let sum = match self.spec.mapping {
            Mapping::Simple => row_maxima(),
            Mapping::Bi => {
                let cols =
                    (0..s2.len()).map(|j| (0..s1.len()).filter_map(|i| w(i, j)).fold(0.0, max));
                row_maxima() + cols.fold(0.0, |t, m| t + m)
            }
            Mapping::DegreePreserving(Matching::Greedy) | Mapping::Bijective(Matching::Greedy) => {
                let mut edges: Vec<(f64, usize, usize)> = (0..s1.len())
                    .flat_map(|i| (0..s2.len()).filter_map(move |j| w(i, j).map(|x| (x, i, j))))
                    .collect();
                // Heaviest first; equal weights by smaller i, then smaller j.
                edges.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
                let (mut used1, mut used2) = (vec![false; s1.len()], vec![false; s2.len()]);
                let mut total = 0.0;
                for (x, i, j) in edges {
                    if !used1[i] && !used2[j] {
                        used1[i] = true;
                        used2[j] = true;
                        total += x;
                    }
                }
                total
            }
            Mapping::DegreePreserving(Matching::Exact) | Mapping::Bijective(Matching::Exact) => {
                assert!(
                    s2.len() <= 16,
                    "exact matching over {} right neighbors",
                    s2.len()
                );
                // best[mask]: the heaviest mapping of the rows so far onto
                // exactly the right positions in `mask`.
                let mut best = vec![f64::NEG_INFINITY; 1 << s2.len()];
                best[0] = 0.0;
                for i in 0..s1.len() {
                    let mut next = best.clone();
                    for (mask, &b) in best.iter().enumerate().filter(|(_, b)| b.is_finite()) {
                        for j in (0..s2.len()).filter(|j| mask & (1 << j) == 0) {
                            if let Some(x) = w(i, j) {
                                let m = mask | (1 << j);
                                next[m] = next[m].max(b + x);
                            }
                        }
                    }
                    best = next;
                }
                best.into_iter().fold(0.0, f64::max)
            }
            Mapping::SimRank => (0..s1.len())
                .flat_map(|i| (0..s2.len()).map(move |j| (i, j)))
                .filter_map(|(i, j)| w(i, j))
                .fold(0.0, |t, x| t + x),
        };
        sum / omega
    }

    /// The static upper bound of Eq. 6: `λ⁺ + λ⁻ + w_label·L(u, v)` with
    /// `λ = w·|M|/Ω` (`w` when vacuous), `|M|` the score-independent
    /// mapping size.
    fn upper_bound(&self, u: NodeId, v: NodeId) -> f64 {
        let lambda = |s1: &[NodeId], s2: &[NodeId], w: f64| {
            let (vacuous, omega) = self.vacuous_and_omega(s1.len(), s2.len());
            if vacuous {
                return w;
            }
            if omega <= 0.0 {
                return 0.0;
            }
            let left = s1
                .iter()
                .filter(|&&x| s2.iter().any(|&y| self.eligible(x, y)))
                .count();
            let right = s2
                .iter()
                .filter(|&&y| s1.iter().any(|&x| self.eligible(x, y)))
                .count();
            let size = match self.spec.mapping {
                Mapping::Simple => left,
                Mapping::Bi => left + right,
                Mapping::DegreePreserving(_) | Mapping::Bijective(_) => left.min(right),
                Mapping::SimRank => s1.len() * s2.len(),
            };
            w * size as f64 / omega
        };
        let s = &self.spec;
        let out = lambda(self.g1.out_neighbors(u), self.g2.out_neighbors(v), s.w_out);
        let inn = lambda(self.g1.in_neighbors(u), self.g2.in_neighbors(v), s.w_in);
        out + inn + s.w_label * (s.label)(u, v)
    }
}

/// The running maximum from `+0.0`: only a strictly greater value replaces it.
fn max(best: f64, x: f64) -> f64 {
    if x > best {
        x
    } else {
        best
    }
}
