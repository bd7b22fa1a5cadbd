//! Exact maximum-weight assignment (Hungarian / Kuhn–Munkres, `O(n²m)`).
//!
//! The FSim engine uses the greedy approximation from [`crate::greedy`] in
//! production (following the paper); this exact solver backs the
//! `matching_ops` ablation bench and the tests that quantify the greedy
//! approximation gap.

/// Solves maximum-weight assignment on an `n_left × n_right` weight matrix
/// (`weights[l * n_right + r]`, all weights assumed ≥ 0) with
/// `n_left ≤ n_right`; every left vertex is assigned.
///
/// Returns `(total weight, assignment)` where `assignment[l] = r`.
///
/// # Panics
/// Panics if `n_left > n_right` or the weight slice has the wrong length.
pub fn hungarian_max_weight(n_left: usize, n_right: usize, weights: &[f64]) -> (f64, Vec<u32>) {
    assert!(
        n_left <= n_right,
        "hungarian requires n_left <= n_right (pad or transpose)"
    );
    assert_eq!(
        weights.len(),
        n_left * n_right,
        "weight matrix shape mismatch"
    );
    if n_left == 0 {
        return (0.0, Vec::new());
    }
    // Convert to min-cost: cost = max_w - w keeps costs non-negative.
    let max_w = weights.iter().cloned().fold(0.0f64, f64::max);
    let cost = |i: usize, j: usize| max_w - weights[i * n_right + j];

    let (n, m) = (n_left, n_right);
    const INF: f64 = f64::INFINITY;
    // 1-indexed potentials and matching (classic e-maxx formulation).
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1]; // p[j]: row matched to column j
    let mut way = vec![0usize; m + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=m {
                if !used[j] {
                    let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut assignment = vec![0u32; n];
    let mut total = 0.0;
    for j in 1..=m {
        if p[j] != 0 {
            assignment[p[j] - 1] = (j - 1) as u32;
            total += weights[(p[j] - 1) * n_right + (j - 1)];
        }
    }
    (total, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_textbook_instance() {
        // Optimal: 0->1 (3), 1->0 (4) = 7; greedy would take (0,0)=2? no:
        // weights: row0 = [2,3], row1 = [4,1].
        let (w, a) = hungarian_max_weight(2, 2, &[2.0, 3.0, 4.0, 1.0]);
        assert!((w - 7.0).abs() < 1e-9);
        assert_eq!(a, vec![1, 0]);
    }

    #[test]
    fn beats_greedy_on_adversarial_instance() {
        // Greedy picks 1.0 then 0.0; optimal is 0.6 + 0.6.
        let weights = [1.0, 0.6, 0.6, 0.0];
        let (w, _) = hungarian_max_weight(2, 2, &weights);
        assert!((w - 1.2).abs() < 1e-9);
    }

    #[test]
    fn rectangular_assignment() {
        // 2 left, 3 right: choose the best 2 columns.
        let weights = [0.1, 0.9, 0.5, 0.8, 0.2, 0.3];
        let (w, a) = hungarian_max_weight(2, 3, &weights);
        assert!((w - 1.7).abs() < 1e-9);
        assert_eq!(a, vec![1, 0]);
    }

    #[test]
    fn empty_and_singleton() {
        let (w, a) = hungarian_max_weight(0, 0, &[]);
        assert_eq!(w, 0.0);
        assert!(a.is_empty());
        let (w, a) = hungarian_max_weight(1, 1, &[0.42]);
        assert!((w - 0.42).abs() < 1e-12);
        assert_eq!(a, vec![0]);
    }

    #[test]
    fn assignment_is_injective() {
        let n = 6;
        let weights: Vec<f64> = (0..n * n)
            .map(|k| ((k * 37 % 101) as f64) / 101.0)
            .collect();
        let (_, a) = hungarian_max_weight(n, n, &weights);
        let mut cols = a.clone();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), n);
    }

    #[test]
    fn never_below_greedy() {
        use crate::greedy::GreedyMatcher;
        let mut gm = GreedyMatcher::new();
        // Pseudo-random deterministic matrices.
        for seed in 0..20u64 {
            let n = 5;
            let weights: Vec<f64> = (0..n * n)
                .map(|k| (((k as u64 + 1) * (seed + 3) * 2_654_435_761) % 1000) as f64 / 1000.0)
                .collect();
            let (hw, _) = hungarian_max_weight(n, n, &weights);
            let mut edges: Vec<(f64, u32, u32)> = (0..n)
                .flat_map(|l| (0..n).map(move |r| (0.0, l as u32, r as u32)))
                .collect();
            for e in edges.iter_mut() {
                e.0 = weights[(e.1 as usize) * n + e.2 as usize];
            }
            let (gw, _) = gm.assign(n, n, &edges);
            assert!(hw + 1e-9 >= gw, "hungarian {hw} below greedy {gw}");
            assert!(gw * 2.0 + 1e-9 >= hw, "greedy below 1/2-approx");
        }
    }
}
