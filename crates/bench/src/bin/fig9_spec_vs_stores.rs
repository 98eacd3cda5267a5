//! Figure 9: SPEC subject thread vs. three Stores background threads.

use vpc::experiments::fig9;
use vpc::prelude::*;
use vpc::report::{to_json, Fig9Report};
use vpc_workloads::SPEC_NAMES;

fn main() {
    vpc_bench::figure(
        &vpc_bench::Cli::from_env(),
        "fig9",
        "Figure 9",
        |opts| fig9::run(&CmpConfig::table1(), &SPEC_NAMES, opts),
        Some(|result| to_json(&Fig9Report::from(result))),
    );
}
