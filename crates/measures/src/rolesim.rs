//! Native RoleSim (Jin, Lee & Hong, KDD 2011): axiomatic role similarity on
//! undirected graphs with automorphism confirmation.
//!
//! `r(u, v) = (1 − β) · max_{M} Σ_{(x,y)∈M} r(x, y) / (d(u) + d(v) − |M|) + β`
//! where `M` ranges over injective mappings between the neighborhoods. The
//! maximal matching is computed greedily (as in the original paper and in
//! FSim's `M_dp`/`M_bj`). Initialization is the degree ratio.

use crate::dense::DenseSim;
use fsim_graph::transform::undirected;
use fsim_graph::Graph;
use fsim_matching::GreedyMatcher;

/// Iterative RoleSim to a sup-norm tolerance (or `max_iters`).
pub fn rolesim(g: &Graph, beta: f64, epsilon: f64, max_iters: usize) -> DenseSim {
    assert!((0.0..1.0).contains(&beta), "beta must be in [0,1)");
    let und = undirected(g);
    let n = und.node_count();
    let mut prev = DenseSim::from_fn(n, |u, v| {
        let (a, b) = (und.out_degree(u), und.out_degree(v));
        let (lo, hi) = (a.min(b), a.max(b));
        if hi == 0 {
            1.0
        } else {
            lo as f64 / hi as f64
        }
    });
    let mut cur = DenseSim::zeros(n);
    let mut matcher = GreedyMatcher::new();
    let mut edges: Vec<(f64, u32, u32)> = Vec::new();
    for _ in 0..max_iters {
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let nu = und.out_neighbors(u);
                let nv = und.out_neighbors(v);
                if nu.is_empty() && nv.is_empty() {
                    cur.set(u, v, 1.0); // both isolated: structurally identical
                    continue;
                }
                if nu.is_empty() || nv.is_empty() {
                    cur.set(u, v, beta);
                    continue;
                }
                edges.clear();
                for (i, &x) in nu.iter().enumerate() {
                    for (j, &y) in nv.iter().enumerate() {
                        let w = prev.get(x, y);
                        if w > 0.0 {
                            edges.push((w, i as u32, j as u32));
                        }
                    }
                }
                let (wsum, msize) = matcher.assign(nu.len(), nv.len(), &edges);
                let msize = msize.max(nu.len().min(nv.len()));
                let denom = (nu.len() + nv.len() - msize) as f64;
                cur.set(u, v, (1.0 - beta) * wsum / denom + beta);
            }
        }
        let delta = cur.max_diff(&prev);
        std::mem::swap(&mut prev, &mut cur);
        if delta < epsilon {
            break;
        }
    }
    prev
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsim_graph::graph_from_parts;

    #[test]
    fn automorphic_nodes_score_one() {
        // Leaves of a star are automorphically equivalent.
        let g = graph_from_parts(&["x"; 4], &[(0, 1), (0, 2), (0, 3)]);
        let r = rolesim(&g, 0.15, 1e-9, 100);
        assert!((r.get(1, 2) - 1.0).abs() < 1e-6);
        assert!((r.get(2, 3) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn beta_is_a_floor() {
        let g = graph_from_parts(&["x"; 4], &[(0, 1), (2, 3)]);
        let r = rolesim(&g, 0.2, 1e-9, 100);
        for u in 0..4 {
            for v in 0..4 {
                assert!(r.get(u, v) >= 0.2 - 1e-9);
                assert!(r.get(u, v) <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn symmetry() {
        let g = graph_from_parts(&["x"; 5], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = rolesim(&g, 0.1, 1e-8, 100);
        for u in 0..5 {
            for v in 0..5 {
                assert!((r.get(u, v) - r.get(v, u)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn degree_mismatch_lowers_similarity() {
        // Hub (degree 4) vs leaf (degree 1).
        let g = graph_from_parts(&["x"; 6], &[(0, 1), (0, 2), (0, 3), (0, 4), (5, 1)]);
        let r = rolesim(&g, 0.15, 1e-8, 100);
        assert!(
            r.get(0, 5) < r.get(1, 2),
            "hub-vs-spoke must be less similar than leaf pair"
        );
    }

    #[test]
    fn framework_configuration_correlates() {
        // The §4.3 framework RoleSim uses the bj normalizer (geometric mean)
        // instead of the original max-style denominator, so values differ,
        // but the *ranking* of pairs must agree strongly.
        let g = graph_from_parts(
            &["x"; 7],
            &[(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
        );
        let native = rolesim(&g, 0.15, 1e-8, 100);
        let fw = fsim_core::rolesim_via_framework(&g, 0.15, 1e-8);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for u in g.nodes() {
            for v in g.nodes() {
                if u < v {
                    xs.push(native.get(u, v));
                    ys.push(fw.get(u, v).unwrap());
                }
            }
        }
        // Pearson correlation by hand.
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
        let r = cov / (vx.sqrt() * vy.sqrt());
        assert!(
            r > 0.8,
            "framework RoleSim should correlate with native, r = {r}"
        );
    }
}
