//! Multi-GPU scaling demo: run phase 1 of GALA on 1–8 simulated devices and
//! watch the compute/communication trade-off and the adaptive dense→sparse
//! synchronisation switch (paper Section 4.3, Figure 10).
//!
//! ```sh
//! cargo run --release --example multi_gpu_scaling
//! ```

use gala::core::louvain::{Louvain, LouvainConfig};
use gala::core::multi_gpu::SyncMode;
use gala::prelude::{Dataset, Scale};

fn main() {
    let graph = Dataset::OR.generate(Scale::Test);
    println!(
        "orkut stand-in: {} vertices, {} edges\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    let mut base_total = 0.0;
    for devices in [1usize, 2, 4, 8] {
        let (_, r) = Louvain::new(LouvainConfig {
            devices,
            sync: SyncMode::Adaptive,
            ..LouvainConfig::default()
        })
        .run_phase1(&graph);
        if devices == 1 {
            base_total = r.total_us();
        }
        let sparse_iters = r
            .iterations
            .iter()
            .filter(|i| i.sync == Some(SyncMode::Sparse))
            .count();
        println!(
            "{devices} device(s): compute {:>8.0} us, comm {:>7.0} us, total {:>8.0} us, \
             speedup {:.2}x, sparse sync in {}/{} iterations, Q = {:.5}",
            r.compute_us(),
            r.comm_us(),
            r.total_us(),
            base_total / r.total_us(),
            sparse_iters,
            r.iterations.len(),
            r.modularity
        );
    }
    println!(
        "\nexpect: compute shrinks with devices, communication does not — the \
         paper's sublinear 2.5x average speedup at 8 GPUs."
    );
}
