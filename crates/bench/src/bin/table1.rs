//! Prints the simulated system configuration (the paper's Table 1).

use vpc::prelude::*;

fn main() {
    vpc_bench::no_flags();
    let cfg = CmpConfig::table1();
    println!("== Table 1: 2 GHz CMP System Configuration ==");
    println!("Processors            : {} processors", cfg.processors);
    println!(
        "Reorder buffer        : {} instructions (20 dispatch groups x 5)",
        cfg.core.rob_entries
    );
    println!(
        "Dispatch / retire     : {} / {} per cycle",
        cfg.core.dispatch_width, cfg.core.retire_width
    );
    println!(
        "Load / store queues   : {} entry LRQ, {} entry SRQ",
        cfg.core.lrq_entries, cfg.core.srq_entries
    );
    println!(
        "D-cache               : {} sets x {} ways x {} B lines, {} cycle latency, {} MSHRs, {}-entry LMQ",
        cfg.core.l1.sets, cfg.core.l1.ways, LINE_BYTES, cfg.core.l1.latency,
        cfg.core.l1.mshrs, cfg.core.l1.lmq_entries
    );
    println!(
        "L2 cache              : {} banks, {} sets x {} ways x {} B = {} MB, tag {} cycles, data {} cycles (writes x{}), bus {} cycles",
        cfg.l2.banks, cfg.l2.total_sets, cfg.l2.ways, LINE_BYTES,
        (cfg.l2.total_sets * cfg.l2.ways * LINE_BYTES as usize) >> 20,
        cfg.l2.tag_latency, cfg.l2.data_latency, cfg.l2.write_data_accesses, cfg.l2.bus_latency
    );
    println!(
        "Store gathering       : {} entries/thread, retire-at-{}, partial flush on read conflict",
        cfg.l2.sgb_entries, cfg.l2.sgb_retire_at
    );
    println!(
        "Controller            : {} state machines per thread per bank, round-robin selection",
        cfg.l2.sm_per_thread
    );
    println!(
        "Memory                : DDR2-800, {} ranks x {} banks per channel, 1 private channel/thread, closed page",
        cfg.mem.ranks, cfg.mem.banks_per_rank
    );
    println!(
        "                        {} read + {} write buffer entries per thread",
        cfg.mem.transaction_buffer, cfg.mem.write_buffer
    );
}
