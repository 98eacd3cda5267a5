//! The simulated CMP: cores + shared L2 + memory, with measurement windows.

use vpc_cache::{L2Utilization, SgbStats, SharedL2};
use vpc_cpu::{Core, Workload};
use vpc_sim::{Cycle, ThreadId};
use vpc_workloads::Generator;

use crate::config::{CmpConfig, WorkloadSpec};

/// Counter baseline captured at the start of a measurement window.
#[derive(Debug, Clone)]
pub struct Snapshot {
    at: Cycle,
    retired: Vec<u64>,
    tag_busy: u64,
    data_busy: u64,
    bus_busy: u64,
    thread_data_busy: Vec<u64>,
    ports: Vec<SgbStats>,
}

/// Per-window measurements: the quantities the paper's figures plot.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Window length in processor cycles.
    pub cycles: Cycle,
    /// Instructions per cycle, per thread.
    pub ipc: Vec<f64>,
    /// Shared-resource utilization over the window.
    pub util: L2Utilization,
    /// Data-array utilization attributable to each thread (Figure 9's
    /// per-thread utilization bars).
    pub data_util_per_thread: Vec<f64>,
    /// Fraction of L2 requests that are writes, per thread (Figure 7).
    pub l2_write_frac: Vec<f64>,
    /// Store gathering rate, per thread (Figure 7).
    pub gathering_rate: Vec<f64>,
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "measured {} cycles", self.cycles)?;
        for (i, ipc) in self.ipc.iter().enumerate() {
            writeln!(
                f,
                "  T{i}: IPC {ipc:.3}, data-array share {:.1}%, L2 writes {:.0}%, gathering {:.0}%",
                self.data_util_per_thread[i] * 100.0,
                self.l2_write_frac[i] * 100.0,
                self.gathering_rate[i] * 100.0,
            )?;
        }
        write!(
            f,
            "  utilization: data {:.1}%, bus {:.1}%, tag {:.1}%",
            self.util.data_array * 100.0,
            self.util.data_bus * 100.0,
            self.util.tag_array * 100.0
        )
    }
}

/// The simulated CMP system.
#[derive(Debug)]
pub struct CmpSystem {
    cores: Vec<Core<Generator>>,
    l2: SharedL2,
    now: Cycle,
}

impl CmpSystem {
    /// Builds a system running `workloads[i]` on processor `i`.
    ///
    /// # Panics
    ///
    /// Panics as [`CmpSystem::with_workloads`] does.
    pub fn new(config: CmpConfig, workloads: &[WorkloadSpec]) -> CmpSystem {
        let workloads =
            workloads.iter().enumerate().map(|(i, w)| w.generator(ThreadId(i as u8))).collect();
        CmpSystem::with_generators(config, workloads)
    }

    /// Builds a system from already-instantiated workloads (e.g. a
    /// [`vpc_cpu::FixedTrace`] replaying a fixed op stream), one per
    /// processor. Each runs through its vtable ([`Generator::Boxed`]).
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError)'s message if
    /// [`CmpConfig::validate`] rejects `config`, and unless exactly
    /// `config.processors` workloads are given.
    pub fn with_workloads(config: CmpConfig, workloads: Vec<Box<dyn Workload>>) -> CmpSystem {
        CmpSystem::with_generators(config, workloads.into_iter().map(Generator::Boxed).collect())
    }

    fn with_generators(config: CmpConfig, workloads: Vec<Generator>) -> CmpSystem {
        if let Err(err) = config.validate() {
            panic!("{err}");
        }
        assert_eq!(workloads.len(), config.processors, "one workload per processor required");
        let cores = workloads
            .into_iter()
            .enumerate()
            .map(|(i, w)| Core::new(config.core, ThreadId(i as u8), w))
            .collect();
        let l2 = SharedL2::new(config.l2, config.mem);
        CmpSystem { cores, l2, now: 0 }
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advances the whole system by `cycles` processor cycles, ticking
    /// every core, then the L2, then delivering matured responses, once
    /// per cycle (see `DESIGN.md` §10).
    ///
    /// # Panics
    ///
    /// Panics if the end cycle `now() + cycles` overflows `u64`.
    pub fn run(&mut self, cycles: Cycle) {
        // A wrapped sum would end the run before it starts.
        let end = self.now.checked_add(cycles).unwrap_or_else(|| {
            panic!("run end cycle overflows u64: now {} + {cycles} cycles", self.now)
        });
        while self.now < end {
            for core in &mut self.cores {
                core.tick(self.now, &mut self.l2);
            }
            self.l2.tick(self.now);
            while let Some(resp) = self.l2.pop_response(self.now) {
                self.cores[resp.thread.index()].on_l2_response(resp.line, self.now);
            }
            self.now += 1;
        }
    }

    /// Captures a counter baseline for a measurement window.
    pub fn snapshot(&self) -> Snapshot {
        let (tag_busy, data_busy, bus_busy) = self.l2.busy_cycles();
        Snapshot {
            at: self.now,
            retired: self.cores.iter().map(Core::retired).collect(),
            tag_busy,
            data_busy,
            bus_busy,
            thread_data_busy: (0..self.cores.len())
                .map(|t| self.l2.thread_data_busy(ThreadId(t as u8)))
                .collect(),
            ports: (0..self.cores.len()).map(|t| self.l2.port_stats(ThreadId(t as u8))).collect(),
        }
    }

    /// Measures activity since `since` (typically taken after a warm-up
    /// run), yielding the figures' quantities.
    pub fn measure(&self, since: &Snapshot) -> Measurement {
        let cycles = self.now - since.at;
        let banks = self.l2.config().banks as u64;
        let window = (cycles * banks).max(1);
        let busy = self.l2.busy_cycles();
        let util = L2Utilization {
            tag_array: (busy.0 - since.tag_busy) as f64 / window as f64,
            data_array: (busy.1 - since.data_busy) as f64 / window as f64,
            data_bus: (busy.2 - since.bus_busy) as f64 / window as f64,
        };
        let mut ipc = Vec::new();
        let mut write_frac = Vec::new();
        let mut gathering = Vec::new();
        let mut data_util_per_thread = Vec::new();
        for (i, core) in self.cores.iter().enumerate() {
            ipc.push((core.retired() - since.retired[i]) as f64 / cycles.max(1) as f64);
            let busy = self.l2.thread_data_busy(ThreadId(i as u8)) - since.thread_data_busy[i];
            data_util_per_thread.push(busy as f64 / window as f64);
            let port = self.l2.port_stats(ThreadId(i as u8));
            let writes = port.writes_out.get() - since.ports[i].writes_out.get();
            let loads = port.loads_out.get() - since.ports[i].loads_out.get();
            let stores_in = port.stores_in.get() - since.ports[i].stores_in.get();
            let gathered = port.stores_gathered.get() - since.ports[i].stores_gathered.get();
            write_frac.push(if writes + loads == 0 {
                0.0
            } else {
                writes as f64 / (writes + loads) as f64
            });
            gathering.push(if stores_in == 0 { 0.0 } else { gathered as f64 / stores_in as f64 });
        }
        Measurement {
            cycles,
            ipc,
            util,
            data_util_per_thread,
            l2_write_frac: write_frac,
            gathering_rate: gathering,
        }
    }

    /// Convenience: warm up, then measure a window.
    pub fn run_measured(&mut self, warmup: Cycle, window: Cycle) -> Measurement {
        self.run(warmup);
        let snap = self.snapshot();
        self.run(window);
        self.measure(&snap)
    }

    /// The shared L2 (for inspection).
    pub fn l2(&self) -> &SharedL2 {
        &self.l2
    }

    /// The core running thread `thread`.
    pub fn core(&self, thread: ThreadId) -> &Core<Generator> {
        &self.cores[thread.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadSpec;

    fn quick_config(threads: usize) -> CmpConfig {
        let mut cfg = CmpConfig::table1_with_threads(threads);
        cfg.l2.total_sets = 512; // lighter for tests
        cfg
    }

    #[test]
    fn loads_alone_saturates_two_banks() {
        let cfg = quick_config(1);
        let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Loads]);
        let m = sys.run_measured(20_000, 60_000);
        assert!(
            m.util.data_array > 0.85,
            "Loads should nearly saturate 2 banks' data arrays: {:?}",
            m.util
        );
        // Figure 5: data bus utilization equals data array utilization for
        // the Loads benchmark (8-cycle read, 8-cycle line transfer).
        assert!(
            (m.util.data_array - m.util.data_bus).abs() < 0.1,
            "data bus should track data array for Loads: {:?}",
            m.util
        );
        assert!(m.ipc[0] > 0.2, "Loads IPC should approach 0.3: {}", m.ipc[0]);
    }

    #[test]
    fn stores_alone_saturates_two_banks() {
        let cfg = quick_config(1);
        let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Stores]);
        let m = sys.run_measured(20_000, 60_000);
        assert!(
            m.util.data_array > 0.85,
            "Stores should saturate 2 banks' data arrays: {:?}",
            m.util
        );
        assert!(m.gathering_rate[0] < 0.05, "Stores cannot gather (distinct lines)");
        assert!(m.l2_write_frac[0] > 0.95, "Stores is pure writes");
    }

    #[test]
    fn trace_workloads_drive_the_system() {
        use vpc_cpu::{FixedTrace, Op};
        use vpc_sim::LineAddr;
        let cfg = quick_config(1);
        let ops =
            vec![Op::Load(LineAddr(0x10)), Op::NonMem, Op::Store(LineAddr(0x20)), Op::Bubble(2)];
        let trace = FixedTrace::new("trace", ops);
        let mut sys = CmpSystem::with_workloads(cfg, vec![Box::new(trace)]);
        sys.run(20_000);
        assert!(sys.core(ThreadId(0)).retired() > 1000, "trace replays in a loop");
    }

    #[test]
    fn measurement_display_is_complete() {
        let cfg = quick_config(2);
        let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Loads, WorkloadSpec::Idle]);
        let m = sys.run_measured(2_000, 4_000);
        let text = m.to_string();
        assert!(text.contains("T0:") && text.contains("T1:"));
        assert!(text.contains("utilization"));
    }

    #[test]
    fn measurement_window_excludes_warmup() {
        let cfg = quick_config(1);
        let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Idle]);
        sys.run(1000);
        let snap = sys.snapshot();
        sys.run(1000);
        let m = sys.measure(&snap);
        assert_eq!(m.cycles, 1000);
        // Idle workload: high IPC, no L2 traffic.
        assert!(m.ipc[0] > 4.0);
        assert_eq!(m.util.data_array, 0.0);
    }

    #[test]
    #[should_panic(expected = "run end cycle overflows u64")]
    fn run_past_the_last_cycle_panics() {
        let mut sys = CmpSystem::new(quick_config(1), &[WorkloadSpec::Idle]);
        sys.run(1);
        sys.run(u64::MAX);
    }
}
