//! Figure 4: timing of back-to-back reads to different cache banks.

use vpc::experiments::fig4;
use vpc::prelude::*;

fn main() {
    vpc_bench::no_flags();
    let base = CmpConfig::table1();
    vpc_bench::outln!("{}", fig4::run(&base));
}
