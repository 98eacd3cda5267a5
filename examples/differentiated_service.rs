//! Differentiated service: an HD-video-style multimedia thread gets half
//! the machine while three best-effort threads split the rest — the
//! asymmetric VPM allocation of the paper's Figure 1b (50% / 10% / 10% /
//! 10%, with 20% left unallocated and distributed by the fairness policy).
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example differentiated_service
//! ```

use vpc::prelude::*;

fn main() {
    let budget = RunBudget { warmup: 40_000, window: 160_000 };
    println!("== Differentiated service: Figure 1b's asymmetric allocation ==\n");

    // The demanding multimedia thread is modeled by `art` (the most
    // bandwidth-hungry profile); the best-effort threads by mid-weight
    // profiles.
    let workloads = vec![
        WorkloadSpec::Spec("art"),
        WorkloadSpec::Spec("gcc"),
        WorkloadSpec::Spec("twolf"),
        WorkloadSpec::Spec("gzip"),
    ];

    // Bandwidth: 50% / 10% / 10% / 10%, 20% unallocated. Capacity: same
    // split of the 32 ways (16 / 3 / 3 / 3, 7 ways spare).
    let shares = vec![
        Share::new(1, 2).unwrap(),
        Share::new(1, 10).unwrap(),
        Share::new(1, 10).unwrap(),
        Share::new(1, 10).unwrap(),
    ];
    let cfg = CmpConfig::table1()
        .with_vpc_shares(shares.clone())
        .with_capacity(CapacityPolicy::Vpc { shares: shares.clone() });
    let m = Cell::shared(cfg, workloads.clone(), budget).run(Observe::default()).m;

    let base = CmpConfig::table1();
    println!("{:<12} {:>6} {:>8} {:>8} {:>10}", "thread", "share", "IPC", "target", "status");
    for (i, w) in workloads.iter().enumerate() {
        let target = Cell::target(&base, *w, shares[i], shares[i], budget)
            .map_or(0.0, |cell| cell.run(Observe::default()).m.ipc[0]);
        let status = if m.ipc[i] >= target * 0.95 { "QoS met" } else { "MISSED" };
        println!(
            "{:<12} {:>6} {:>8.3} {:>8.3} {:>10}",
            w.name(),
            shares[i].to_string(),
            m.ipc[i],
            target,
            status
        );
    }
    println!(
        "\nEvery thread is guaranteed its allocation; the 20% of unallocated\n\
         bandwidth is distributed by the fairness policy (earliest virtual\n\
         finish time first), so actual IPCs sit above the targets."
    );
}
