//! A shared resource guarded by an arbiter.

use vpc_sim::trace::{self, EventData, ResourceId, TraceEvent};
use vpc_sim::{Cycle, ThreadId, MAX_THREADS};

use crate::arbiter::Arbiter;
use crate::request::ArbRequest;

/// A non-preemptible, busy-until resource (tag array, data array, or data
/// bus) together with its arbiter and per-thread busy cycles — one of the
/// arbiter-plus-resource blocks of the paper's Figure 2b.
///
/// The owner enqueues requests as they become eligible and calls
/// [`ArbitratedResource::try_grant`] on every tick it is awake; at most one
/// request is granted per free period and the resource stays busy for the
/// request's service time.
///
/// ```
/// use vpc_arbiters::{ArbitratedResource, ArbRequest, FcfsArbiter};
/// use vpc_sim::{AccessKind, ThreadId};
///
/// let mut tag = ArbitratedResource::new(Box::new(FcfsArbiter::new()));
/// tag.enqueue(ArbRequest::new(1, ThreadId(0), AccessKind::Read, 4), 0);
/// let granted = tag.try_grant(0).unwrap();
/// assert_eq!(granted.id, 1);
/// tag.enqueue(ArbRequest::new(2, ThreadId(0), AccessKind::Read, 4), 1);
/// assert!(tag.try_grant(3).is_none()); // still busy until cycle 4
/// assert_eq!(tag.try_grant(4).unwrap().id, 2);
/// assert_eq!(tag.busy_cycles(), 8);
/// ```
#[derive(Debug)]
pub struct ArbitratedResource {
    arbiter: Box<dyn Arbiter>,
    /// Requests pending in `arbiter`, counted here so that a grant attempt
    /// on an empty arbiter costs no dynamic `select` call.
    pending: usize,
    busy_until: Cycle,
    per_thread_busy: [u64; MAX_THREADS],
    trace_id: Option<ResourceId>,
    /// Reused by the per-grant backlog trace report so steady-state grants
    /// allocate nothing.
    backlog_scratch: Vec<(ThreadId, Option<u64>)>,
}

impl ArbitratedResource {
    /// Wraps `arbiter` around an initially idle resource.
    pub fn new(arbiter: Box<dyn Arbiter>) -> ArbitratedResource {
        ArbitratedResource {
            arbiter,
            pending: 0,
            busy_until: 0,
            per_thread_busy: [0; MAX_THREADS],
            trace_id: None,
            backlog_scratch: Vec::new(),
        }
    }

    /// Names this resource for [`vpc_sim::trace`] observability: with an id
    /// set and a recorder installed, every grant emits a
    /// [`EventData::Grant`] (with the arbiter's virtual start/finish times)
    /// plus one [`EventData::Defer`] per thread left backlogged. Pure
    /// instrumentation — arbitration behavior is unchanged.
    pub fn set_trace_id(&mut self, id: ResourceId) {
        self.trace_id = Some(id);
    }

    /// Enters `req` into arbitration at `now`.
    #[inline]
    pub fn enqueue(&mut self, req: ArbRequest, now: Cycle) {
        self.arbiter.enqueue(req, now);
        self.pending += 1;
    }

    /// If the resource is free at `now` and a request is pending, grants it:
    /// the resource becomes busy for the request's service time and the
    /// granted request is returned so the owner can advance its state
    /// machine.
    ///
    /// Called on each resource on every awake bank tick and often a
    /// no-op, so the no-op check is inlined into the caller and only a
    /// grant pays for a call (DESIGN.md §10, "An idle poll is not a
    /// call").
    #[inline]
    pub fn try_grant(&mut self, now: Cycle) -> Option<ArbRequest> {
        if self.pending == 0 || now < self.busy_until {
            return None;
        }
        Some(self.grant(now))
    }

    /// The body of [`ArbitratedResource::try_grant`] once a request is
    /// pending and the resource is free.
    #[inline(never)]
    fn grant(&mut self, now: Cycle) -> ArbRequest {
        let req = self.arbiter.select(now).expect("an arbiter grants while requests are pending");
        self.pending -= 1;
        self.busy_until = now + req.service_time;
        self.per_thread_busy[req.thread.index()] += req.service_time;
        if let Some(resource) = self.trace_id {
            if trace::is_enabled() {
                let virt = self.arbiter.last_grant_virtual();
                trace::emit(|| TraceEvent {
                    at: now,
                    data: EventData::Grant {
                        resource,
                        thread: req.thread,
                        kind: req.kind,
                        service: req.service_time,
                        virtual_start: virt.map(|(s, _)| s),
                        virtual_finish: virt.map(|(_, f)| f),
                    },
                });
                self.backlog_scratch.clear();
                self.arbiter.backlogged_threads(&mut self.backlog_scratch);
                for &(thread, virtual_start) in &self.backlog_scratch {
                    trace::emit(|| TraceEvent {
                        at: now,
                        data: EventData::Defer { resource, thread, virtual_start },
                    });
                }
            }
        }
        req
    }

    /// Cycles the resource was busy: the service times of every grant,
    /// summed over threads.
    pub fn busy_cycles(&self) -> u64 {
        self.per_thread_busy.iter().sum()
    }

    /// Busy cycles attributable to `thread`'s requests — the per-thread
    /// utilization breakdown the paper's sharing figures plot.
    pub fn thread_busy_cycles(&self, thread: ThreadId) -> u64 {
        self.per_thread_busy[thread.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::FcfsArbiter;
    use crate::{ArbiterPolicy, IntraThreadOrder};
    use vpc_sim::check::{self, gen, Config};
    use vpc_sim::{ensure, ensure_eq, AccessKind, Share, ThreadId};

    fn req(id: u64, service: u64) -> ArbRequest {
        ArbRequest::new(id, ThreadId(0), AccessKind::Read, service)
    }

    #[test]
    fn grants_respect_busy_time() {
        let mut res = ArbitratedResource::new(Box::new(FcfsArbiter::new()));
        res.enqueue(req(1, 8), 0);
        res.enqueue(req(2, 8), 0);
        assert_eq!(res.try_grant(0).unwrap().id, 1);
        assert!(res.try_grant(4).is_none(), "busy until 8");
        assert_eq!(res.try_grant(8).unwrap().id, 2);
        assert!(res.try_grant(16).is_none(), "both requests granted");
    }

    #[test]
    fn utilization_accumulates_service_time() {
        let mut res = ArbitratedResource::new(Box::new(FcfsArbiter::new()));
        res.enqueue(req(1, 8), 0);
        res.enqueue(req(2, 16), 0);
        res.try_grant(0);
        res.try_grant(8);
        assert_eq!(res.busy_cycles(), 24);
    }

    #[test]
    fn per_thread_busy_attribution() {
        let mut res = ArbitratedResource::new(Box::new(FcfsArbiter::new()));
        res.enqueue(ArbRequest::new(1, ThreadId(0), AccessKind::Read, 8), 0);
        res.enqueue(ArbRequest::new(2, ThreadId(1), AccessKind::Write, 16), 0);
        res.try_grant(0);
        res.try_grant(8);
        assert_eq!(res.thread_busy_cycles(ThreadId(0)), 8);
        assert_eq!(res.thread_busy_cycles(ThreadId(1)), 16);
        assert_eq!(res.busy_cycles(), 24);
    }

    /// The resource's own pending count equals `Arbiter::len`, and the
    /// requests enqueued minus those granted, after every random enqueue
    /// and grant attempt, under FCFS, RoW-FCFS and VPC with RoW or FIFO
    /// buffers and some zero shares.
    #[test]
    fn pending_count_matches_arbiter_len() {
        check::forall("pending_count_matches_arbiter_len", Config::cases(64), |rng| {
            let threads = gen::range(rng, 1, 4) as usize;
            let shares = (0..threads)
                .map(|_| {
                    if rng.chance(0.3) {
                        Share::ZERO
                    } else {
                        gen::share(rng, 4 * threads as u32)
                    }
                })
                .collect();
            let order = if rng.chance(0.5) {
                IntraThreadOrder::ReadOverWrite
            } else {
                IntraThreadOrder::Fifo
            };
            let policy = match rng.below(3) {
                0 => ArbiterPolicy::Fcfs,
                1 => ArbiterPolicy::RowFcfs,
                _ => ArbiterPolicy::Vpc { shares, order },
            };
            let mut res = ArbitratedResource::new(policy.build(threads));
            let (mut enqueued, mut grants) = (0, 0);
            for now in 0..400u64 {
                for _ in 0..rng.below(3) {
                    let kind = gen::access_kind(rng);
                    let service = if kind.is_read() { 8 } else { 16 };
                    let thread = gen::thread_id(rng, threads);
                    res.enqueue(ArbRequest::new(now, thread, kind, service), now);
                    enqueued += 1;
                }
                let granted = res.try_grant(now);
                grants += usize::from(granted.is_some());
                ensure_eq!(res.pending, res.arbiter.len(), "pending count at {now}");
                ensure_eq!(res.pending, enqueued - grants, "enqueued minus granted at {now}");
                ensure!(
                    granted.is_some() || res.pending == 0 || now < res.busy_until,
                    "a free resource with pending requests granted nothing at {now}"
                );
            }
            Ok(())
        });
    }

    /// The inlined no-op check of `try_grant` changes nothing: on an empty
    /// resource, and on a busy one with a request pending.
    #[test]
    fn refused_grants_change_nothing() {
        let mut res = ArbitratedResource::new(Box::new(FcfsArbiter::new()));
        let state = |r: &ArbitratedResource| (r.pending, r.busy_until, r.busy_cycles());
        let empty = state(&res);
        assert!(res.try_grant(0).is_none());
        assert_eq!(state(&res), empty, "empty resource");
        res.enqueue(req(1, 8), 0);
        res.enqueue(req(2, 8), 0);
        assert_eq!(res.try_grant(0).unwrap().id, 1);
        let busy = state(&res);
        for now in 1..8 {
            assert!(res.try_grant(now).is_none());
            assert_eq!(state(&res), busy, "busy resource at {now}");
        }
        assert_eq!(res.try_grant(8).unwrap().id, 2);
    }
}
