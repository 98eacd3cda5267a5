//! Every checked-in `results/` file from one batch: [`reproduce`] joins
//! the plans of the requested figures, runs their cells as one
//! [`run_cells`](super::run_cells) batch, and renders each figure's files.

use std::fmt;

use vpc_cache::LINE_BYTES;
use vpc_workloads::SPEC_NAMES;

use crate::config::CmpConfig;
use crate::experiments::{ablations, fig10, fig4, fig5, fig6, fig7, fig8, fig9, Plan, RunBudget};
use crate::json::{to_json, ToJson};

/// Every table and figure [`reproduce`] renders, by the stem of its files,
/// in report order: Table 1, Figures 4–10 and the ablations.
pub const FIGURES: [&str; 9] = [
    "table1",
    "fig4_timing",
    "fig5_micro_util",
    "fig6_spec_util",
    "fig7_store_gathering",
    "fig8_loads_stores",
    "fig9_spec_vs_stores",
    "fig10_heterogeneous",
    "ablations",
];

/// Runs the cells of every figure in `figures` (stems from [`FIGURES`]) at
/// `budget` as one batch on `jobs` worker threads and returns each file's
/// name and contents, in `figures` order.
///
/// At [`RunBudget::quick`] these are the goldens of `results/quick/`:
/// `<figure>.json` for Figures 5–10 and the ablations' text without its
/// header, and nothing for Table 1 and Figure 4. At any other budget they
/// are the files of `results/`: `<figure>.json` and `<figure>.txt` (the
/// header and the figure's table) for Figures 5–10, `ablations.txt`,
/// `table1.txt` and `fig4_timing.txt`.
///
/// # Panics
///
/// Panics on a name that is not in [`FIGURES`].
pub fn reproduce(
    figures: &[&'static str],
    budget: RunBudget,
    jobs: usize,
) -> Vec<(String, String)> {
    let plans = figures.iter().map(|&name| plan(name, budget)).collect();
    Plan::join(plans).run(jobs).concat()
}

/// The cells of the figure `name`, folded into its files.
fn plan(name: &'static str, budget: RunBudget) -> Plan<Vec<(String, String)>> {
    let base = CmpConfig::table1();
    let quick = budget == RunBudget::quick();
    let text = |render: fn(&CmpConfig) -> String| {
        let file = (!quick).then(|| (format!("{name}.txt"), render(&base)));
        Plan::new(Vec::new(), move |_| file.into_iter().collect())
    };
    match name {
        "table1" => text(table1),
        "fig4_timing" => text(|base| format!("{}\n", fig4::run(base))),
        "fig5_micro_util" => files(fig5::plan(&base, budget), name, "Figure 5", budget),
        "fig6_spec_util" => files(fig6::plan(&base, budget), name, "Figure 6", budget),
        "fig7_store_gathering" => {
            files(fig7::plan(&base, &SPEC_NAMES, budget), name, "Figure 7", budget)
        }
        "fig8_loads_stores" => {
            files(fig8::plan(&CmpConfig::table1_with_threads(2), budget), name, "Figure 8", budget)
        }
        "fig9_spec_vs_stores" => {
            files(fig9::plan(&base, &SPEC_NAMES, budget), name, "Figure 9", budget)
        }
        "fig10_heterogeneous" => {
            let title = "Heterogeneous mixes (abstract's 14% / 25% claim)";
            files(fig10::plan(&base, &fig10::MIXES, budget), name, title, budget)
        }
        "ablations" => ablations::plan(&base, budget).map(move |text| {
            let header = if quick { String::new() } else { header("Ablations", budget) };
            vec![(format!("{name}.txt"), format!("{header}{text}\n"))]
        }),
        _ => panic!("no figure named {name:?}; the figures are {FIGURES:?}"),
    }
}

/// A figure's JSON file and, unless the budget is the quick one, its text
/// file: the header, then the figure's table.
fn files<R: ToJson + fmt::Display + 'static>(
    plan: Plan<R>,
    name: &'static str,
    title: &'static str,
    budget: RunBudget,
) -> Plan<Vec<(String, String)>> {
    plan.map(move |result| {
        let mut files = vec![(format!("{name}.json"), format!("{}\n", to_json(&result)))];
        if budget != RunBudget::quick() {
            files.push((format!("{name}.txt"), format!("{}{result}\n", header(title, budget))));
        }
        files
    })
}

/// The two header lines of a figure's text file.
fn header(title: &str, budget: RunBudget) -> String {
    format!("== {title} ==\n(warmup {} cycles, measured {} cycles)\n", budget.warmup, budget.window)
}

/// The paper's Table 1, as the simulated `cfg` has it.
fn table1(cfg: &CmpConfig) -> String {
    let (core, l1, l2, mem) = (&cfg.core, &cfg.core.l1, &cfg.l2, &cfg.mem);
    let megabytes = (l2.total_sets * l2.ways * LINE_BYTES as usize) >> 20;
    let rows = [
        ("Processors", format!("{} processors", cfg.processors)),
        ("Reorder buffer", format!("{} instructions (20 dispatch groups x 5)", core.rob_entries)),
        ("Dispatch / retire", format!("{} / {} per cycle", core.dispatch_width, core.retire_width)),
        ("Load / store queues", format!(
            "{} entry LRQ, {} entry SRQ",
            core.lrq_entries, core.srq_entries
        )),
        ("D-cache", format!(
            "{} sets x {} ways x {LINE_BYTES} B lines, {} cycle latency, {} MSHRs, {}-entry LMQ",
            l1.sets, l1.ways, l1.latency, l1.mshrs, l1.lmq_entries
        )),
        ("L2 cache", format!(
            "{} banks, {} sets x {} ways x {LINE_BYTES} B = {megabytes} MB, tag {} cycles, data {} cycles (writes x{}), bus {} cycles",
            l2.banks, l2.total_sets, l2.ways,
            l2.tag_latency, l2.data_latency, l2.write_data_accesses, l2.bus_latency
        )),
        ("Store gathering", format!(
            "{} entries/thread, retire-at-{}, partial flush on read conflict",
            l2.sgb_entries, l2.sgb_retire_at
        )),
        ("Controller", format!(
            "{} state machines per thread per bank, round-robin selection",
            l2.sm_per_thread
        )),
        ("Memory", format!(
            "DDR2-800, {} ranks x {} banks per channel, 1 private channel/thread, closed page\n{:24}{} read + {} write buffer entries per thread",
            mem.ranks, mem.banks_per_rank, "", mem.transaction_buffer, mem.write_buffer
        )),
    ];
    let rows = rows.map(|(name, value)| format!("{name:<22}: {value}\n")).concat();
    format!("== Table 1: 2 GHz CMP System Configuration ==\n{rows}")
}
