//! Figure 9: SPEC subject thread vs. three Stores background threads.

use vpc::experiments::fig9;
use vpc::json::to_json;
use vpc::prelude::*;
use vpc_workloads::SPEC_NAMES;

fn main() {
    vpc_bench::figure(
        &vpc_bench::Cli::from_env(false),
        "fig9",
        "Figure 9",
        |opts| fig9::run(&CmpConfig::table1(), &SPEC_NAMES, opts),
        Some(to_json),
    );
}
