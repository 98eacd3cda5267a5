//! Figure 6: SPEC solo L2 utilization.

use vpc::experiments::fig6;
use vpc::prelude::*;
use vpc::report::{to_json, Fig6Report};

fn main() {
    vpc_bench::figure(
        &vpc_bench::Cli::from_env(),
        "fig6",
        "Figure 6",
        |opts| fig6::run(&CmpConfig::table1(), opts),
        Some(|result| to_json(&Fig6Report::from(result))),
    );
}
