//! Figure 8: Loads + Stores under RoW-FCFS, FCFS, and VPC arbiters.

use vpc::experiments::fig8;
use vpc::prelude::*;
use vpc::report::{to_json, Fig8Report};

fn main() {
    vpc_bench::figure(
        &vpc_bench::Cli::from_env(),
        "fig8",
        "Figure 8",
        |opts| fig8::run(&CmpConfig::table1_with_threads(2), opts),
        Some(|result| to_json(&Fig8Report::from(result))),
    );
}
