//! Ablations: reordering, capacity manager, preemption latency, work
//! conservation.

use vpc::experiments::ablations;
use vpc::prelude::*;

fn main() {
    let base = CmpConfig::table1();
    vpc_bench::figure(
        &vpc_bench::Cli::from_env(),
        "ablations",
        "Ablations",
        |opts| {
            [
                ablations::reorder(&base, opts).to_string(),
                ablations::capacity(&base, opts).to_string(),
                ablations::preemption(&base, opts).to_string(),
                ablations::memory_fq(&base, opts).to_string(),
                ablations::prefetch(&base, opts).to_string(),
                ablations::fairness_policies(&base, opts).to_string(),
                ablations::scaling(&base, opts).to_string(),
                ablations::work_conservation(&base, opts).to_string(),
            ]
            .join("\n")
        },
        None,
    );
}
