//! Figure 7: L2 write fraction and store gathering rate.

use vpc::experiments::fig7;
use vpc::json::to_json;
use vpc::prelude::*;

fn main() {
    vpc_bench::figure(
        &vpc_bench::Cli::from_env(false),
        "fig7",
        "Figure 7",
        |opts| fig7::run(&CmpConfig::table1(), opts),
        Some(to_json),
    );
}
