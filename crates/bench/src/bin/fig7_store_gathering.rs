//! Figure 7: L2 write fraction and store gathering rate.

use vpc::experiments::fig7;
use vpc::prelude::*;
use vpc::report::{to_json, Fig7Report};

fn main() {
    vpc_bench::figure(
        &vpc_bench::Cli::from_env(),
        "fig7",
        "Figure 7",
        |opts| fig7::run(&CmpConfig::table1(), opts),
        Some(|result| to_json(&Fig7Report::from(result))),
    );
}
