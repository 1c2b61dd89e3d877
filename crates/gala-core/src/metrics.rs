//! Partition-quality metrics: NMI (Strehl & Ghosh) and community summaries.

use gala_graph::Partition;

/// Normalized Mutual Information between two partitions of the same vertex
/// set, with the geometric-mean normalisation of Strehl & Ghosh (the
/// measure cited by the paper's Table 4): `NMI = I(X;Y) / √(H(X)·H(Y))`.
///
/// Returns 1.0 for identical partitions (including the degenerate
/// everything-in-one-cluster case) and 0.0 when either partition carries no
/// information while the other does.
pub fn nmi(a: &Partition, b: &Partition) -> f64 {
    assert_eq!(a.len(), b.len(), "partitions must cover the same vertices");
    let n = a.len();
    if n == 0 {
        return 1.0;
    }
    // Counts come from sorted runs and every sum runs in ascending label
    // order, so the result is the same bits on every call.
    let mut pairs: Vec<(u32, u32)> = a
        .assignment()
        .iter()
        .copied()
        .zip(b.assignment().iter().copied())
        .collect();
    pairs.sort_unstable();
    let joint = runs(&pairs);
    let ca = runs(&sorted(a));
    let cb = runs(&sorted(b));
    let n = n as f64;
    let h = |counts: &[(u32, f64)]| -> f64 {
        counts
            .iter()
            .map(|&(_, c)| {
                let p = c / n;
                -p * p.ln()
            })
            .sum()
    };
    let ha = h(&ca);
    let hb = h(&cb);
    let count =
        |counts: &[(u32, f64)], label: u32| counts[counts.partition_point(|&(l, _)| l < label)].1;
    let mut mi = 0.0;
    for &((x, y), c) in &joint {
        let pxy = c / n;
        let px = count(&ca, x) / n;
        let py = count(&cb, y) / n;
        mi += pxy * (pxy / (px * py)).ln();
    }
    if ha == 0.0 && hb == 0.0 {
        return 1.0; // both are single clusters: identical information
    }
    if ha == 0.0 || hb == 0.0 {
        return 0.0;
    }
    (mi / (ha * hb).sqrt()).clamp(0.0, 1.0)
}

/// A partition's labels in ascending order.
fn sorted(p: &Partition) -> Vec<u32> {
    let mut labels = p.assignment().to_vec();
    labels.sort_unstable();
    labels
}

/// Run-length counts `(key, count)` of a sorted slice.
fn runs<K: Copy + PartialEq>(sorted: &[K]) -> Vec<(K, f64)> {
    let mut out: Vec<(K, f64)> = Vec::new();
    for &k in sorted {
        match out.last_mut() {
            Some((last, c)) if *last == k => *c += 1.0,
            _ => out.push((k, 1.0)),
        }
    }
    out
}

/// Summary of a community assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionSummary {
    /// Number of communities.
    pub num_communities: usize,
    /// Smallest community size.
    pub min_size: usize,
    /// Largest community size.
    pub max_size: usize,
    /// Mean community size.
    pub mean_size: f64,
}

/// Computes size statistics of a partition.
pub fn summarize(p: &Partition) -> PartitionSummary {
    let sizes = p.sizes();
    let k = sizes.len();
    let min_size = sizes.values().copied().min().unwrap_or(0);
    let max_size = sizes.values().copied().max().unwrap_or(0);
    PartitionSummary {
        num_communities: k,
        min_size,
        max_size,
        mean_size: if k == 0 {
            0.0
        } else {
            p.len() as f64 / k as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmi_identical_is_one() {
        let p = Partition::from_assignment(vec![0, 0, 1, 1, 2]);
        assert!((nmi(&p, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_is_label_invariant() {
        let a = Partition::from_assignment(vec![0, 0, 1, 1]);
        let b = Partition::from_assignment(vec![7, 7, 3, 3]);
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_is_symmetric() {
        let a = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2]);
        let b = Partition::from_assignment(vec![0, 1, 1, 1, 2, 0]);
        assert!((nmi(&a, &b) - nmi(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn nmi_is_bit_reproducible() {
        // Thousands of joint cells: a sum in hash order would differ in
        // the last bits from one call to the next.
        let a = Partition::from_assignment((0..5000u32).map(|v| v % 97).collect());
        let b = Partition::from_assignment((0..5000u32).map(|v| (v * 7919) % 131).collect());
        let first = nmi(&a, &b).to_bits();
        for _ in 0..8 {
            assert_eq!(nmi(&a, &b).to_bits(), first);
        }
    }

    #[test]
    fn nmi_independent_is_low() {
        // Alternating vs. block labels over 8 vertices: low (not zero for
        // finite samples, but clearly below identical).
        let a = Partition::from_assignment(vec![0, 1, 0, 1, 0, 1, 0, 1]);
        let b = Partition::from_assignment(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let v = nmi(&a, &b);
        assert!(v < 0.05, "nmi = {v}");
    }

    #[test]
    fn nmi_degenerate_cases() {
        let one = Partition::from_assignment(vec![0, 0, 0]);
        let split = Partition::from_assignment(vec![0, 1, 2]);
        assert_eq!(nmi(&one, &one), 1.0);
        assert_eq!(nmi(&one, &split), 0.0);
        let empty = Partition::from_assignment(vec![]);
        assert_eq!(nmi(&empty, &empty), 1.0);
    }

    #[test]
    fn nmi_partial_overlap_between_zero_and_one() {
        let a = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1]);
        let b = Partition::from_assignment(vec![0, 0, 1, 1, 1, 1]);
        let v = nmi(&a, &b);
        assert!(v > 0.3 && v < 1.0, "nmi = {v}");
    }

    #[test]
    fn summary_counts() {
        let p = Partition::from_assignment(vec![0, 0, 0, 1]);
        let s = summarize(&p);
        assert_eq!(s.num_communities, 2);
        assert_eq!(s.min_size, 1);
        assert_eq!(s.max_size, 3);
        assert_eq!(s.mean_size, 2.0);
    }
}
