//! The greedy matcher's integer-keyed order against the comparator it
//! replaced: descending `total_cmp` weight, ties by ascending
//! `(left, right)`. On seeded random edge lists — duplicate edges, equal
//! weights, ±0.0, negatives, NaNs of either sign, subnormals and
//! infinities, sides up to 12 — both entry points must select the same
//! pairs in the same order and return the same sum, bit for bit.

use fsim_matching::GreedyMatcher;

/// The greedy selection as it was written with a comparator sort.
fn reference(n_left: usize, n_right: usize, edges: &[(f64, u32, u32)]) -> (f64, Vec<(u32, u32)>) {
    let mut edges = edges.to_vec();
    edges.sort_unstable_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });
    let (mut used_left, mut used_right) = (vec![false; n_left], vec![false; n_right]);
    let mut sum = 0.0;
    let mut pairs = Vec::new();
    for (w, l, r) in edges {
        if used_left[l as usize] || used_right[r as usize] {
            continue;
        }
        used_left[l as usize] = true;
        used_right[r as usize] = true;
        sum += w;
        pairs.push((l, r));
    }
    (sum, pairs)
}

/// SplitMix64: a seeded, dependency-free stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A weight drawn mostly from a small pool, so equal weights are common,
/// with every special value mixed in.
fn weight(s: &mut Stream) -> f64 {
    const POOL: [f64; 16] = [
        0.0,
        -0.0,
        0.25,
        0.5,
        0.5,
        1.0,
        -0.5,
        -1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        0.1,
    ];
    match s.below(10) {
        0 => f64::from_bits(f64::NAN.to_bits() | (s.next() & 0xF)),
        1 => -f64::from_bits(f64::NAN.to_bits() | (s.next() & 0xF)),
        2 => f64::from_bits(s.next() & 0x000F_FFFF_FFFF_FFFF),
        3 => f64::from_bits(s.next()),
        _ => POOL[s.below(POOL.len())],
    }
}

fn random_edges(s: &mut Stream, n_left: usize, n_right: usize) -> Vec<(f64, u32, u32)> {
    let len = s.below(n_left * n_right * 2 + 1);
    let mut edges: Vec<(f64, u32, u32)> = (0..len)
        .map(|_| (weight(s), s.below(n_left) as u32, s.below(n_right) as u32))
        .collect();
    // Exact duplicates of earlier edges.
    for _ in 0..s.below(3) {
        if !edges.is_empty() {
            let e = edges[s.below(edges.len())];
            edges.push(e);
        }
    }
    edges
}

#[test]
fn keyed_order_matches_the_comparator_sort_bitwise() {
    let mut m = GreedyMatcher::new();
    let mut s = Stream(0x5EED);
    let mut sizes_seen = [0usize; 4];
    for case in 0..20_000 {
        let (n_left, n_right) = (1 + s.below(12), 1 + s.below(12));
        let edges = random_edges(&mut s, n_left, n_right);
        sizes_seen[edges.len().min(3)] += 1;
        let (want_sum, want_pairs) = reference(n_left, n_right, &edges);

        let (sum, pairs) = m.assign_pairs(n_left, n_right, &edges);
        assert_eq!(sum.to_bits(), want_sum.to_bits(), "case {case}: {edges:?}");
        assert_eq!(pairs, want_pairs, "case {case}: {edges:?}");

        let (sum, count) = m.assign(n_left, n_right, &edges);
        assert_eq!(sum.to_bits(), want_sum.to_bits(), "case {case}: {edges:?}");
        assert_eq!(count, want_pairs.len(), "case {case}: {edges:?}");
    }
    // The zero-, one- and two-edge shortcuts were all exercised, next to
    // the sorted path.
    assert!(sizes_seen.iter().all(|&n| n > 100), "{sizes_seen:?}");
}

#[test]
fn two_edge_lists_cover_every_conflict() {
    let mut m = GreedyMatcher::new();
    let weights = [0.5, 0.5, -0.0, 0.0, f64::NAN, -f64::NAN, 1.0];
    for &a in &weights {
        for &b in &weights {
            for (la, ra, lb, rb) in [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 1, 0)] {
                let edges = [(a, la, ra), (b, lb, rb)];
                let (want_sum, want_pairs) = reference(2, 2, &edges);
                let (sum, pairs) = m.assign_pairs(2, 2, &edges);
                assert_eq!(sum.to_bits(), want_sum.to_bits(), "{edges:?}");
                assert_eq!(pairs, want_pairs, "{edges:?}");
            }
        }
    }
}
