//! Figure 6: SPEC solo L2 utilization.

use vpc::experiments::fig6;
use vpc::json::to_json;
use vpc::prelude::*;

fn main() {
    vpc_bench::figure(
        &vpc_bench::Cli::from_env(false),
        "fig6",
        "Figure 6",
        |opts| fig6::run(&CmpConfig::table1(), opts),
        Some(to_json),
    );
}
