//! Extension experiment: detection accuracy on the LFR benchmark.
//!
//! The standard community-detection accuracy plot (Lancichinetti &
//! Fortunato 2009, the paper's reference \[15\]): NMI against planted
//! communities as the mixing parameter `μ` sweeps from easy (0.1) to
//! past the detectability region (0.6), for every implementation in the
//! comparison matrix.
//!
//! ```text
//! cargo run --release -p gve-bench --bin lfr_accuracy
//! ```

use gve_bench::{implementations, report::Table, BenchArgs};
use gve_generate::Lfr;

fn main() {
    let args = BenchArgs::parse();
    args.install_threads();
    let n = (4000.0 * args.scale) as usize;
    let mixings = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];

    let mut table = Table::new(
        format!("LFR accuracy: NMI vs mixing parameter (n = {n}, degree 14)"),
        &[
            "mu",
            "Implementation",
            "NMI",
            "ARI",
            "Communities (found/planted)",
        ],
    );

    for &mu in &mixings {
        let lfr = Lfr::new(n, 14.0, mu).seed(args.seed).generate();
        for imp in implementations() {
            let membership = (imp.run)(&lfr.graph);
            let nmi = gve_quality::normalized_mutual_information(&membership, &lfr.labels);
            let ari = gve_quality::adjusted_rand_index(&membership, &lfr.labels);
            table.push(vec![
                format!("{mu:.1}"),
                imp.name.to_string(),
                format!("{nmi:.3}"),
                format!("{ari:.3}"),
                format!(
                    "{}/{}",
                    gve_quality::community_count(&membership),
                    lfr.communities
                ),
            ]);
        }
    }
    table.print();
    println!(
        "Expected shape: near-perfect recovery for mu <= 0.3, decay past 0.5 \
         (a property of modularity optimization, shared by all implementations)."
    );

    if let Some(csv) = &args.csv {
        table.write_csv(csv).expect("failed to write CSV");
    }
}
