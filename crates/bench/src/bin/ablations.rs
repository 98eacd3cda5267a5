//! Ablations: reordering, capacity manager, preemption latency, work
//! conservation.

use vpc::experiments::ablations;
use vpc::prelude::*;

fn main() {
    let base = CmpConfig::table1();
    vpc_bench::figure(
        &vpc_bench::Cli::from_env(false),
        "ablations",
        "Ablations",
        |opts| ablations::run_all(&base, opts),
        None,
    );
}
