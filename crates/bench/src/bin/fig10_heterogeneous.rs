//! Headline result: heterogeneous 4-thread mixes, FCFS vs. VPC.

use vpc::experiments::fig10;
use vpc::json::to_json;
use vpc::prelude::*;

fn main() {
    vpc_bench::figure(
        &vpc_bench::Cli::from_env(false),
        "fig10",
        "Heterogeneous mixes (abstract's 14% / 25% claim)",
        |opts| fig10::run(&CmpConfig::table1(), &fig10::MIXES, opts),
        Some(to_json),
    );
}
