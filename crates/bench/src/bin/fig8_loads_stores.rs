//! Figure 8: Loads + Stores under RoW-FCFS, FCFS, and VPC arbiters.

use vpc::experiments::fig8;
use vpc::json::to_json;
use vpc::prelude::*;

fn main() {
    vpc_bench::figure(
        &vpc_bench::Cli::from_env(false),
        "fig8",
        "Figure 8",
        |opts| fig8::run(&CmpConfig::table1_with_threads(2), opts),
        Some(to_json),
    );
}
