//! Closed-form oracles: quantities the paper's microbenchmark figures
//! follow from Table 1 by arithmetic, checked against the simulator at
//! the quick budget unless a test says otherwise, and the VPC arbiter's
//! bandwidth bound checked against its own arithmetic. A golden pins what
//! the code did; these check that what it did is what the machine's
//! parameters imply.

use vpc::experiments::{fig4, fig5, fig8, RunBudget};
use vpc::prelude::*;

/// Largest relative gap allowed between a simulated Figure 5 or Figure 8
/// value and its derivation (an absolute gap where the derivation is 0). At the quick budget every value compared
/// there is within 0.6%: a 40k-cycle window of whole grants does not
/// divide the data arrays exactly. A model change of one more data-array
/// access per write moves fig8's Stores values by a third.
const TOLERANCE: f64 = 0.01;

fn assert_near(what: &str, got: f64, want: f64) {
    let gap = if want == 0.0 { got.abs() } else { (got - want).abs() / want };
    assert!(
        gap <= TOLERANCE,
        "{what}: simulated {got:.6}, derived {want:.6} ({:.2}% off)",
        gap * 100.0
    );
}

#[test]
fn fig8_matches_its_closed_form() {
    let base = CmpConfig::table1_with_threads(2);
    let l2 = &base.l2;
    // Both microbenchmarks retire five instructions per four memory
    // operations (one loop increment per four-way unrolled body), and
    // every memory operation is one L2 access: a Loads hit or a Stores
    // write that no other store gathers with. Alone, a thread keeps every
    // bank's data array busy: a read holds it `data_latency` cycles, a
    // write `write_data_accesses` times as long.
    let per_access = 5.0 / 4.0;
    let banks = l2.banks as f64;
    let loads_solo = banks / l2.data_latency as f64 * per_access;
    let stores_solo = banks / (l2.data_latency * l2.write_data_accesses) as f64 * per_access;
    assert_eq!((loads_solo, stores_solo), (0.3125, 0.15625), "Table 1 values");
    // FCFS gives Stores twice Loads' IPC and keeps the data arrays busy:
    // loads / loads_solo + stores / stores_solo = 1, so Stores holds 80% of
    // the data arrays. The 2:1 does not follow the write's cost: it holds
    // with three data-array accesses per write too.
    let fcfs_loads = 1.0 / (1.0 / loads_solo + 2.0 / stores_solo);

    let r = fig8::plan(&base, RunBudget::quick()).run(2);
    let row = |label: &str| r.row(label).unwrap_or_else(|| panic!("no {label} row"));
    // A bandwidth share of 100% is the solo machine.
    assert_near("Loads target at beta = 1", row("VPC 0%").loads_target, loads_solo);
    assert_near("Stores target at beta = 1", row("VPC 100%").stores_target, stores_solo);
    // VPC at beta = 1/2 gives each thread half of its solo IPC, shared or
    // on its private machine.
    let half = row("VPC 50%");
    assert_near("Loads at VPC 50%", half.loads_ipc, loads_solo / 2.0);
    assert_near("Loads target at VPC 50%", half.loads_target, loads_solo / 2.0);
    assert_near("Stores at VPC 50%", half.stores_ipc, stores_solo / 2.0);
    assert_near("Stores target at VPC 50%", half.stores_target, stores_solo / 2.0);
    let fcfs = row("FCFS");
    assert_near("Loads under FCFS", fcfs.loads_ipc, fcfs_loads);
    assert_near("Stores under FCFS", fcfs.stores_ipc, 2.0 * fcfs_loads);
    assert_near("data-array utilization under FCFS", fcfs.data_util, 1.0);
}

/// The cycles from a read's issue to its critical word on an idle Table 1
/// L2: the interconnect, the tag lookup, the data-array read and the first
/// bus beat.
fn critical_word_cycles(l2: &vpc_cache::L2Config) -> u64 {
    l2.interconnect_latency + l2.tag_latency + l2.data_latency + l2.critical_word_latency
}

#[test]
fn fig4_matches_its_closed_form() {
    let base = CmpConfig::table1();
    let want = critical_word_cycles(&base.l2);
    assert_eq!(want, 16, "Table 1 values");
    // The banks' pipelines are independent, so the read to the second
    // bank, issued in the same cycle, finishes with the first.
    let r = fig4::run(&base);
    assert_eq!((r.first_latency, r.second_latency), (want, want), "critical-word cycles");
}

#[test]
fn fig5_matches_its_closed_form() {
    let base = CmpConfig::table1();
    let (l1, l2) = (&base.core.l1, &base.l2);
    let bank_counts = [2usize, 4, 8, 16];

    // Loads keeps one read in flight per LMQ entry (a primary miss also
    // needs an MSHR; the smaller count binds). An entry comes back to the
    // core with the critical word; the core re-issues from it on the next
    // cycle, and the read reaches the bank on an odd cycle, where the
    // half-frequency L2 waits one more for its clock. The round trip is
    // the critical-word cycles plus one, rounded up to an L2 (even) cycle.
    let in_flight = l1.lmq_entries.min(l1.mshrs) as f64;
    let round_trip = (critical_word_cycles(l2) + 1).next_multiple_of(2);
    assert_eq!((in_flight, round_trip), (8.0, 18), "Table 1 values");
    // Reads per cycle: what the LMQ feeds, or what the data arrays serve.
    // A read holds a data array `data_latency` cycles, the bus
    // `bus_latency` and the tag array `tag_latency`.
    let loads = |banks: usize| {
        let banks = banks as f64;
        let rate = (banks / l2.data_latency as f64).min(in_flight / round_trip as f64);
        let busy = |cycles: u64| rate * cycles as f64 / banks;
        (busy(l2.data_latency), busy(l2.bus_latency), busy(l2.tag_latency))
    };
    let loads_data: Vec<f64> = bank_counts.iter().map(|&b| loads(b).0).collect();
    assert_eq!(loads_data, [1.0, 8.0 / 9.0, 4.0 / 9.0, 2.0 / 9.0], "Table 1 values");

    // Stores sends one write every `store_send_interval` cycles, each
    // holding a data array `write_latency` cycles (`write_data_accesses`
    // reads' worth) and a tag array `tag_latency`; a write uses no bus.
    let stores = |banks: usize| {
        let per_write = l2.write_latency() as f64;
        let data = (per_write / (base.core.store_send_interval as f64 * banks as f64)).min(1.0);
        (data, 0.0, data * l2.tag_latency as f64 / per_write)
    };
    let stores_data: Vec<f64> = bank_counts.iter().map(|&b| stores(b).0).collect();
    assert_eq!(stores_data, [1.0, 1.0, 1.0, 0.5], "Table 1 values");

    let check =
        |label: String, got: vpc_cache::L2Utilization, (data, bus, tag): (f64, f64, f64)| {
            assert_near(&format!("{label} data"), got.data_array, data);
            assert_near(&format!("{label} bus"), got.data_bus, bus);
            assert_near(&format!("{label} tag"), got.tag_array, tag);
        };
    let quick = fig5::plan(&base, RunBudget::quick()).run(2);
    for &banks in &bank_counts {
        let row = |b: &str| quick.row(b, banks).unwrap_or_else(|| panic!("no {b} {banks}B row"));
        check(format!("Loads {banks}B"), row("Loads").util, loads(banks));
        if banks <= 4 {
            check(format!("Stores {banks}B"), row("Stores").util, stores(banks));
        }
    }
    // With 8 and 16 banks the quick window still holds the cold-start
    // transient: they read 0.790 and 0.209 there. These two cells run at
    // the standard budget, where they are exact.
    for banks in [8, 16] {
        let cell = Cell::shared(
            base.clone().with_banks(banks),
            vec![WorkloadSpec::Stores],
            RunBudget::standard(),
        );
        check(format!("Stores {banks}B, standard budget"), cell.run().1.util, stores(banks));
    }
}

/// Eq. 3'–6 against §3.2's deadline bound, on a VPC arbiter driven alone.
///
/// A thread with `beta_i = k_i/8` sends only `L_i`-cycle requests: 8-cycle
/// reads or 16-cycle writes. Each grant advances its `R.S_i` by the integer
/// virtual service time `V_i = ceil(8 L_i / k_i)`, so its guaranteed rate is
/// `e_i = L_i / V_i`, which equals `beta_i` only when `k_i` divides `8 L_i`.
/// (The naive `beta_i` bound is false: 3/8 against 5/8 on 8-cycle reads
/// gives the 3/8 thread 0.3714 of the cycles over 10^5 grants, below 0.375;
/// its `e_i = 8/22` holds.) Each request finishes by its virtual finish
/// time plus one maximum service time `L_max`, so a thread backlogged since
/// cycle 0 has received `S_i(T) >= e_i (T - L_max) - L_i` cycles of service
/// at every grant completion `T`; the `- L_i` is the one request that may
/// be in flight. The shared machine and its §5.3 private target round
/// alike: `L2Config::scaled_private` scales latencies by the same
/// `Share::scaled_latency`.
///
/// `V_i` is computed here from `k_i`, not through `Share::scaled_latency`,
/// so a broken `scaled_latency` cannot agree with itself.
#[test]
fn vpc_clock_meets_its_bandwidth_bound() {
    use vpc_arbiters::{ArbRequest, Arbiter, VpcArbiter};
    use vpc_sim::check::{self, gen, Config};
    use vpc_sim::{ensure, AccessKind};

    check::forall("vpc_clock_meets_its_bandwidth_bound", Config::cases(256), |rng| {
        // 1–4 threads with nonzero k_i summing to at most 8.
        let threads = gen::range(rng, 1, 4) as usize;
        let mut k = Vec::with_capacity(threads);
        for i in 0..threads {
            let left = 8 - k.iter().sum::<u64>() - (threads - 1 - i) as u64;
            k.push(gen::range(rng, 1, left));
        }
        let kinds: Vec<AccessKind> = (0..threads).map(|_| gen::access_kind(rng)).collect();
        let service: Vec<u64> = kinds.iter().map(|k| if k.is_read() { 8 } else { 16 }).collect();
        let virt: Vec<u64> = (0..threads).map(|i| (8 * service[i]).div_ceil(k[i])).collect();
        let l_max = *service.iter().max().expect("at least one thread");
        let order =
            if rng.chance(0.5) { IntraThreadOrder::Fifo } else { IntraThreadOrder::ReadOverWrite };

        let shares: Vec<Share> = k.iter().map(|&k| Share::new(k as u32, 8).unwrap()).collect();
        let mut arb = VpcArbiter::new(threads, &shares, order);
        let mut id = 0;
        let mut send = |arb: &mut VpcArbiter, t: usize, now: u64| {
            id += 1;
            arb.enqueue(ArbRequest::new(id, ThreadId(t as u8), kinds[t], service[t]), now);
        };
        // Two requests each at cycle 0, and one more on every grant: no
        // queue ever empties, so every thread stays backlogged.
        for t in 0..threads {
            send(&mut arb, t, 0);
            send(&mut arb, t, 0);
        }
        let mut received = vec![0u64; threads];
        let mut now = 0;
        for grant in 0..3000 {
            let req = arb.select(now).expect("every queue is backlogged");
            let t = req.thread.index();
            send(&mut arb, t, now);
            now += req.service_time;
            received[t] += req.service_time;
            // S_i >= L_i (T - L_max) / V_i - L_i, in integers.
            for i in 0..threads {
                let bound = service[i] * now.saturating_sub(l_max);
                ensure!(
                    (received[i] + service[i]) * virt[i] >= bound,
                    "grant {grant}, T = {now}: thread {i} (k = {}/8, L = {}) received {} \
                     cycles, bound {:.1} (k = {k:?}, L = {service:?}, {order:?})",
                    k[i],
                    service[i],
                    received[i],
                    bound as f64 / virt[i] as f64 - service[i] as f64,
                );
            }
        }
        Ok(())
    });
}
