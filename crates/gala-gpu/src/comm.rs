//! Multi-device collectives under a ring α–β cost model — the stand-in for
//! NCCL `ncclAllReduce` / `ncclAllGather` over NVLink (paper Section 4.3).
//!
//! Every collective has a modelled time under the standard ring-algorithm
//! formulas below. AllGather and AllToAll are also *functional*: they really
//! combine the per-device buffers (the partitioned phase-2 contraction routes
//! its ghost rows through [`DeviceGroup::all_to_all`]) and return a
//! [`CommEvent`] with the bytes moved and the modelled time. AllReduce is
//! costed only, through [`DeviceGroup::all_reduce_time_us`]:
//!
//! * AllReduce: `2·(p−1)·α + 2·(p−1)/p · bytes / β`
//! * AllGather: `(p−1)·α + (p−1)/p · total_bytes / β`
//! * AllToAll: the cheaper of pairwise exchange
//!   (`(p−1)·α + total_bytes / (p·β)`) and the log-step Bruck schedule
//!   (`⌈log₂ p⌉·α + max(1, ⌈log₂ p⌉/2) · total_bytes / (p·β)`)
//!
//! where `α` is per-step latency and `β` link bandwidth. The dense/sparse
//! synchronisation trade-off the paper exploits falls straight out of these
//! formulas: dense AllReduce cost scales with the full state size, sparse
//! AllGather with the (shrinking) number of moved vertices.

/// Which collective produced a [`CommEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Concatenation leaving every device with all devices' items.
    AllGather,
    /// Personalised exchange: every device sends a distinct buffer to every
    /// other device (phase-2 cross-partition row exchange).
    AllToAll,
}

/// Record of one collective: bytes on the wire and modelled time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommEvent {
    /// The collective performed.
    pub kind: CollectiveKind,
    /// Payload bytes (logical buffer size, before ring amplification).
    pub payload_bytes: u64,
    /// Modelled wall time in microseconds.
    pub time_us: f64,
}

/// A group of simulated devices joined by NVLink-class links.
#[derive(Clone, Copy, Debug)]
pub struct DeviceGroup {
    /// Number of devices `p >= 1`.
    pub num_devices: usize,
    /// Per-step latency α in microseconds (NVLink ≈ 5 µs with NCCL setup).
    pub alpha_us: f64,
    /// Link bandwidth β in bytes per microsecond (NVLink 3 ≈ 20 GB/s
    /// effective per direction ⇒ 20 000 B/µs... we default to 25 000).
    pub bytes_per_us: f64,
}

impl DeviceGroup {
    /// A group with NVLink-like defaults.
    pub fn new(num_devices: usize) -> Self {
        assert!(num_devices >= 1, "need at least one device");
        Self {
            num_devices,
            alpha_us: 5.0,
            bytes_per_us: 25_000.0,
        }
    }

    /// Modelled time for a ring AllReduce of `bytes` per device.
    pub fn all_reduce_time_us(&self, bytes: u64) -> f64 {
        let p = self.num_devices as f64;
        if self.num_devices == 1 {
            return 0.0;
        }
        2.0 * (p - 1.0) * self.alpha_us + 2.0 * (p - 1.0) / p * bytes as f64 / self.bytes_per_us
    }

    /// Modelled time for a ring AllGather totalling `total_bytes` across
    /// devices.
    pub fn all_gather_time_us(&self, total_bytes: u64) -> f64 {
        let p = self.num_devices as f64;
        if self.num_devices == 1 {
            return 0.0;
        }
        (p - 1.0) * self.alpha_us + (p - 1.0) / p * total_bytes as f64 / self.bytes_per_us
    }

    /// Modelled time for an AllToAll moving `total_bytes` across all device
    /// pairs (self-sends excluded). Two schedules are modelled and the
    /// cheaper is charged, the selection MPI/NCCL implementations make at
    /// runtime:
    ///
    /// * pairwise exchange — `p−1` partner rounds, payload spread over the
    ///   `p` links concurrently active in each round:
    ///   `(p−1)·α + bytes/(p·β)`;
    /// * Bruck — `⌈log₂ p⌉` store-and-forward rounds for latency-bound
    ///   small messages, each round relaying half the blocks:
    ///   `⌈log₂ p⌉·α + max(1, ⌈log₂ p⌉/2)·bytes/(p·β)`.
    pub fn all_to_all_time_us(&self, total_bytes: u64) -> f64 {
        let p = self.num_devices as f64;
        if self.num_devices == 1 {
            return 0.0;
        }
        let link_us = total_bytes as f64 / (p * self.bytes_per_us);
        let pairwise = (p - 1.0) * self.alpha_us + link_us;
        let steps = p.log2().ceil();
        let bruck = steps * self.alpha_us + (steps / 2.0).max(1.0) * link_us;
        pairwise.min(bruck)
    }

    /// AllToAll: `sends[s][t]` is device `s`'s buffer destined for device
    /// `t`; slot `t` of the result holds the concatenation over senders in
    /// ascending device order (devices share the host here, so the
    /// combined buffers are returned once per destination). Self-sends are
    /// delivered but stay off the wire — only cross-device bytes are
    /// counted and costed. `item_bytes` is the wire size of one item.
    pub fn all_to_all<T: Clone>(
        &self,
        sends: &[Vec<Vec<T>>],
        item_bytes: usize,
    ) -> (Vec<Vec<T>>, CommEvent) {
        assert_eq!(sends.len(), self.num_devices, "one send row per device");
        assert!(
            sends.iter().all(|row| row.len() == self.num_devices),
            "one send buffer per destination device"
        );
        let mut received: Vec<Vec<T>> = (0..self.num_devices)
            .map(|t| Vec::with_capacity(sends.iter().map(|row| row[t].len()).sum()))
            .collect();
        let mut wire_items = 0usize;
        for (s, row) in sends.iter().enumerate() {
            for (t, buf) in row.iter().enumerate() {
                if s != t {
                    wire_items += buf.len();
                }
                received[t].extend_from_slice(buf);
            }
        }
        let payload = (wire_items * item_bytes) as u64;
        let event = CommEvent {
            kind: CollectiveKind::AllToAll,
            payload_bytes: payload,
            time_us: self.all_to_all_time_us(payload),
        };
        (received, event)
    }

    /// AllGather: concatenates each device's items; every device receives
    /// the concatenation (returned once — devices share the host here).
    /// `item_bytes` is the wire size of one item.
    pub fn all_gather<T: Clone>(
        &self,
        per_device: &[Vec<T>],
        item_bytes: usize,
    ) -> (Vec<T>, CommEvent) {
        assert_eq!(per_device.len(), self.num_devices, "one buffer per device");
        let total: usize = per_device.iter().map(|v| v.len()).sum();
        let mut out = Vec::with_capacity(total);
        for v in per_device {
            out.extend_from_slice(v);
        }
        let payload = (total * item_bytes) as u64;
        let event = CommEvent {
            kind: CollectiveKind::AllGather,
            payload_bytes: payload,
            time_us: self.all_gather_time_us(payload),
        };
        (out, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_gather_concatenates_in_device_order() {
        let g = DeviceGroup::new(2);
        let (out, ev) = g.all_gather(&[vec![1u32, 2], vec![3u32]], 4);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(ev.payload_bytes, 12);
    }

    #[test]
    fn all_to_all_routes_and_orders_by_sender() {
        let g = DeviceGroup::new(3);
        // sends[s][t]: s*10 + t tagged items, two from device 0.
        let sends = vec![
            vec![vec![0u32], vec![1, 1], vec![2]],
            vec![vec![10], vec![11], vec![12]],
            vec![vec![20], vec![21], vec![22]],
        ];
        let (recv, ev) = g.all_to_all(&sends, 4);
        assert_eq!(recv[0], vec![0, 10, 20]);
        assert_eq!(recv[1], vec![1, 1, 11, 21]);
        assert_eq!(recv[2], vec![2, 12, 22]);
        assert_eq!(ev.kind, CollectiveKind::AllToAll);
        // Diagonal (0, 11, 22) stays local: 7 of 10 items on the wire.
        assert_eq!(ev.payload_bytes, 7 * 4);
        assert!(ev.time_us > 0.0);
    }

    #[test]
    fn all_to_all_single_device_is_free() {
        let g = DeviceGroup::new(1);
        let (recv, ev) = g.all_to_all(&[vec![vec![5u8, 6]]], 1);
        assert_eq!(recv, vec![vec![5, 6]]);
        assert_eq!(ev.payload_bytes, 0);
        assert_eq!(ev.time_us, 0.0);
        assert_eq!(g.all_to_all_time_us(1_000_000), 0.0);
    }

    #[test]
    #[should_panic(expected = "one send buffer per destination")]
    fn all_to_all_rejects_ragged_send_matrix() {
        let g = DeviceGroup::new(2);
        let sends = vec![vec![vec![1u8], vec![2]], vec![vec![3]]];
        g.all_to_all(&sends, 1);
    }

    #[test]
    fn all_to_all_selects_bruck_for_small_and_pairwise_for_large() {
        let g = DeviceGroup::new(8);
        // Latency-bound: 3 Bruck steps (15 µs of α) beat 7 pairwise rounds.
        let small = g.all_to_all_time_us(1_000);
        assert!(small < (g.num_devices as f64 - 1.0) * g.alpha_us);
        assert!(small >= 3.0 * g.alpha_us);
        // Bandwidth-bound: Bruck's 1.5× relayed bytes lose to pairwise.
        let big_bytes = 100_000_000u64;
        let pairwise = 7.0 * g.alpha_us + big_bytes as f64 / (8.0 * g.bytes_per_us);
        assert_eq!(g.all_to_all_time_us(big_bytes), pairwise);
        // p = 2 degenerates to one direct exchange either way.
        let g2 = DeviceGroup::new(2);
        assert_eq!(
            g2.all_to_all_time_us(50_000),
            g2.alpha_us + 50_000.0 / (2.0 * g2.bytes_per_us)
        );
    }

    #[test]
    fn all_to_all_cheaper_than_gathering_everything() {
        // The exchange premise: shipping only cross-partition rows through
        // the p concurrently active links beats replicating the full state.
        let g = DeviceGroup::new(8);
        let ghost_bytes = 100_000u64;
        let full_bytes = 10_000_000u64;
        assert!(g.all_to_all_time_us(ghost_bytes) < g.all_gather_time_us(full_bytes) / 10.0);
    }

    #[test]
    fn single_device_costs_nothing() {
        let g = DeviceGroup::new(1);
        assert_eq!(g.all_reduce_time_us(1_000_000), 0.0);
        assert_eq!(g.all_gather_time_us(1_000_000), 0.0);
    }

    #[test]
    fn sparse_gather_beats_dense_reduce_when_few_moved() {
        // The adaptive-synchronisation premise: with few moved vertices the
        // AllGather of deltas is cheaper than the full-state AllReduce.
        let g = DeviceGroup::new(8);
        let n = 1_000_000u64;
        let moved = 10_000u64;
        let dense = g.all_reduce_time_us(n * 8);
        let sparse = g.all_gather_time_us(moved * 12);
        assert!(sparse < dense / 10.0, "sparse {sparse} vs dense {dense}");
    }

    #[test]
    fn dense_beats_sparse_when_everything_moves() {
        let g = DeviceGroup::new(8);
        let n = 1_000_000u64;
        let dense = g.all_reduce_time_us(n * 4);
        let sparse = g.all_gather_time_us(n * 12);
        assert!(dense < sparse, "dense {dense} vs sparse {sparse}");
    }
}
