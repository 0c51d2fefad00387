//! The serving loop: a deterministic simulated-clock scheduler.
//!
//! [`Server::run`] drives a discrete-event loop over one shared cluster:
//!
//! 1. **Admit** — requests whose arrival time has passed join the queue.
//! 2. **Dispatch** — the queue is ordered by the configured [`Policy`];
//!    the head leases GPUs from the [`crate::DevicePool`] (a partial grant is
//!    planned with the degraded-mode subset rule), compatible neighbours
//!    are coalesced into its launch ([`crate::coalesce`]), the batch is
//!    *functionally executed* through `scan_core::scan_on_lease` (via the
//!    shared [`PlanCache`] by default, which replays the memoized graph
//!    bit-identically for repeated shapes — see `docs/perf.md`), and the
//!    resulting graph is admitted into one shared [`FleetTimeline`] — so
//!    cross-request contention serialises exactly like intra-request
//!    contention.
//! 3. **Advance** — the clock jumps to the next arrival or completion;
//!    completions release their leases and record latency.
//!
//! Everything is bit-deterministic from the workload and the input seed:
//! the clock only takes values produced by the fleet scheduler's f64
//! arithmetic, queue orders are total, and completions are processed in
//! `(finish-time bits, launch sequence)` order.
//!
//! One window serves a *mixed-operator* workload: each request names an
//! [`OpKind`] — inclusive `Add` over `i32` (the paper's evaluation
//! workload and the default), `Max` over `f64`, segmented sum over
//! head-flag pairs, or the gated first-order recurrence over `f64` affine
//! pairs — and the dispatcher instantiates the fully typed pipeline for
//! its launch. Requests of different kinds never coalesce, and plan-cache
//! and response-memo entries are keyed by kind, so operators cannot
//! cross-contaminate. Served outputs and checksums are computed in the
//! canonical sequential reference order per tenant, so every completion
//! is bit-equal to an isolated CPU-reference run of the same request —
//! for any operator, including the non-exactly-associative float kinds
//! (see `docs/operators.md`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use devices::{DeviceModel, DevicePreset, FabricPreset};
use gpu_sim::DeviceSpec;
use interconnect::{empty_remap, Fabric, FleetTimeline, FleetTrace};
use scan_core::{
    scan_on_lease, CacheStats, PipelinePolicy, PlanCache, ProblemParams, ScanKind, ScanResult,
};
use skeletons::{
    Add, AffinePair, GatedOp, Max, ScanOp, Scannable, SegPair, SegmentedAdd, SplkTuple,
};

use crate::coalesce;
use crate::metrics::FleetMetrics;
use crate::policy::Policy;
use crate::pool::{DevicePool, PoolDevice, PoolLease};
use crate::request::{OpKind, ServeRequest};
use crate::shard::{self, Launch, ShardState};
use crate::workload::{request_stream, InputElem};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// GPUs in the shared pool.
    pub pool_gpus: usize,
    /// Queue discipline.
    pub policy: Policy,
    /// Whether compatible small scans coalesce into one launch.
    pub coalesce: bool,
    /// Seed for per-request input data (independent of the workload
    /// generator's seed so traces can be replayed with fresh data).
    pub input_seed: u64,
    /// Keep every request's full output in its completion record (tests);
    /// off for benchmarking, where the checksum suffices.
    pub keep_outputs: bool,
    /// Memoize built execution plans across launches (on by default): a
    /// launch whose shape (problem, lease, tuple, policy) has run before
    /// replays the cached graph bit-identically instead of rebuilding it.
    pub plan_cache: bool,
    /// Use the retained O(n²) reference list scheduler for fleet
    /// admissions. Benchmark baseline only — outputs are bit-identical
    /// either way, just slower.
    #[doc(hidden)]
    pub reference_timings: bool,
    /// Device generations in the pool, as `(model, count)` runs in GPU-id
    /// order. Empty (the default) = a homogeneous pool of
    /// [`ServeConfig::pool_gpus`] Tesla K80s — the paper's cluster,
    /// bit-identical to the pre-heterogeneity behavior. Non-empty runs
    /// override `pool_gpus` with their total.
    pub devices: Vec<(DevicePreset, usize)>,
    /// Named interconnect fabric the pool's GPUs sit on.
    /// [`FabricPreset::Pcie`] (the default) builds exactly the historical
    /// TSUBAME-KFC PCIe tree.
    pub fabric: FabricPreset,
}

impl ServeConfig {
    /// Defaults: one TSUBAME-KFC node (8 GPUs), coalescing on, plan cache
    /// on, outputs dropped after checksumming.
    pub fn new(policy: Policy, input_seed: u64) -> Self {
        ServeConfig {
            pool_gpus: 8,
            policy,
            coalesce: true,
            input_seed,
            keep_outputs: false,
            plan_cache: true,
            reference_timings: false,
            devices: Vec::new(),
            fabric: FabricPreset::Pcie,
        }
    }

    /// Total GPUs the configuration describes: the device runs' sum, or
    /// [`ServeConfig::pool_gpus`] for the homogeneous default.
    pub fn total_gpus(&self) -> usize {
        if self.devices.is_empty() {
            self.pool_gpus
        } else {
            self.devices.iter().map(|&(_, count)| count).sum()
        }
    }
}

/// One finished request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request as submitted.
    pub request: ServeRequest,
    /// When the dispatcher admitted its launch (≥ arrival).
    pub dispatched: f64,
    /// When its first node started executing (≥ dispatched; later when the
    /// fleet's resources were still busy).
    pub started: f64,
    /// When its launch finished.
    pub finished: f64,
    /// Members in its launch (1 = ran alone).
    pub coalesced: usize,
    /// GPUs the launch actually ran on (shared by every completion of one
    /// launch rather than cloned per member).
    pub gpus: Arc<[usize]>,
    /// FNV-1a checksum of the request's output slice, over each value's
    /// little-endian byte encoding (see [`ServedOutput`] for the per-type
    /// encodings).
    pub checksum: u64,
    /// The output slice itself, when [`ServeConfig::keep_outputs`] is set.
    pub output: Option<ServedOutput>,
}

/// One request's kept output, typed by its [`OpKind`].
///
/// Checksum byte encodings: `i32` hashes as 4 little-endian bytes, `f64`
/// as the 8 little-endian bytes of its bit pattern, a [`SegPair`] as its
/// value followed by one flag byte, an [`AffinePair`] as `a` then `b`.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedOutput {
    /// [`OpKind::AddI32`] — running wrapping sums.
    I32(Vec<i32>),
    /// [`OpKind::MaxF64`] — running maxima.
    F64(Vec<f64>),
    /// [`OpKind::SegSumI32`] — running segmented sums (flags carried
    /// through).
    SegI32(Vec<SegPair<i32>>),
    /// [`OpKind::GatedF64`] — composed affine maps; the recurrence's
    /// solution is each pair's `b` component.
    GatedF64(Vec<AffinePair<f64>>),
}

impl ServedOutput {
    /// Elements in the output.
    pub fn len(&self) -> usize {
        match self {
            ServedOutput::I32(v) => v.len(),
            ServedOutput::F64(v) => v.len(),
            ServedOutput::SegI32(v) => v.len(),
            ServedOutput::GatedF64(v) => v.len(),
        }
    }

    /// Whether the output is empty (never, for a valid request).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i32` sum-scan output, if this is an [`OpKind::AddI32`]
    /// completion.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            ServedOutput::I32(v) => Some(v),
            _ => None,
        }
    }

    /// The `f64` max-scan output, if this is an [`OpKind::MaxF64`]
    /// completion.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            ServedOutput::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The segmented-sum output, if this is an [`OpKind::SegSumI32`]
    /// completion.
    pub fn as_seg_i32(&self) -> Option<&[SegPair<i32>]> {
        match self {
            ServedOutput::SegI32(v) => Some(v),
            _ => None,
        }
    }

    /// The gated-recurrence output, if this is an [`OpKind::GatedF64`]
    /// completion.
    pub fn as_gated_f64(&self) -> Option<&[AffinePair<f64>]> {
        match self {
            ServedOutput::GatedF64(v) => Some(v),
            _ => None,
        }
    }
}

/// An element type the serving engine hosts: its tenants' deterministic
/// input stream ([`InputElem`]), how to hash an output value into the
/// response checksum, and how to box a kept output.
trait ServedElem: Scannable + InputElem {
    /// Hand the cold path this thread's pooled input buffer, cleared.
    /// Thread-local per concrete element type, so a cold launch's input
    /// generation never allocates once the buffer reaches the window's
    /// largest batch.
    fn with_buffer<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R;
    fn push(hash: u64, v: Self) -> u64;
    fn wrap(out: Vec<Self>) -> ServedOutput;
}

/// One pooled input buffer, cleared before each use. Declared per
/// concrete [`ServedElem`] impl (thread-locals cannot be generic), so each
/// element type recycles its own pool.
macro_rules! served_buffer {
    ($ty:ty) => {
        fn with_buffer<R>(f: impl FnOnce(&mut Vec<$ty>) -> R) -> R {
            thread_local! {
                static BUF: std::cell::RefCell<Vec<$ty>> =
                    const { std::cell::RefCell::new(Vec::new()) };
            }
            BUF.with(|buf| {
                let input = &mut *buf.borrow_mut();
                input.clear();
                f(input)
            })
        }
    };
}

impl ServedElem for i32 {
    served_buffer!(i32);
    fn push(hash: u64, v: i32) -> u64 {
        fnv1a_push(hash, v)
    }
    fn wrap(out: Vec<i32>) -> ServedOutput {
        ServedOutput::I32(out)
    }
}

impl ServedElem for f64 {
    served_buffer!(f64);
    fn push(hash: u64, v: f64) -> u64 {
        fnv1a_bytes(hash, &v.to_bits().to_le_bytes())
    }
    fn wrap(out: Vec<f64>) -> ServedOutput {
        ServedOutput::F64(out)
    }
}

impl ServedElem for SegPair<i32> {
    served_buffer!(SegPair<i32>);
    fn push(hash: u64, v: SegPair<i32>) -> u64 {
        fnv1a_bytes(fnv1a_push(hash, v.v), &[v.reset as u8])
    }
    fn wrap(out: Vec<SegPair<i32>>) -> ServedOutput {
        ServedOutput::SegI32(out)
    }
}

impl ServedElem for AffinePair<f64> {
    served_buffer!(AffinePair<f64>);
    fn push(hash: u64, v: AffinePair<f64>) -> u64 {
        let hash = fnv1a_bytes(hash, &v.a.to_bits().to_le_bytes());
        fnv1a_bytes(hash, &v.b.to_bits().to_le_bytes())
    }
    fn wrap(out: Vec<AffinePair<f64>>) -> ServedOutput {
        ServedOutput::GatedF64(out)
    }
}

impl Completion {
    /// Queueing + service time: `finished - arrival`.
    pub fn latency(&self) -> f64 {
        self.finished - self.request.arrival
    }

    /// Whether the request had a deadline and missed it.
    pub fn missed_deadline(&self) -> bool {
        self.request.deadline.is_some_and(|d| self.finished > d)
    }
}

/// Everything a serving window produced.
#[derive(Debug)]
pub struct ServeReport {
    /// Completions in completion order (finish time, then launch order).
    pub completions: Vec<Completion>,
    /// Number of launches (≤ requests; the gap is coalescing).
    pub launches: usize,
    /// End of the fleet schedule, seconds.
    pub makespan: f64,
    /// The whole window as one trace: every request's nodes on the shared
    /// resource timeline, phases prefixed per launch. Lazy — the fleet
    /// graph materializes only when a consumer asks for it.
    pub trace: FleetTrace,
    /// `(time, queued)` after every scheduling step, for queue-depth
    /// metrics.
    pub queue_samples: Vec<(f64, usize)>,
    /// Fleet-level metrics derived from the above.
    pub metrics: FleetMetrics,
    /// Plan-cache accounting for the window (all zeros when
    /// [`ServeConfig::plan_cache`] is off). Kept out of [`FleetMetrics`]
    /// so benchmark summaries are unchanged by caching.
    pub cache_stats: CacheStats,
}

/// Response-memo accounting: how many completions were served without
/// recomputing their output, and how many checksums are stored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponseStats {
    /// Completions whose checksum came from the memo: no reference scan,
    /// no bytes hashed — and on a plan-cache hit, no input generated
    /// either.
    pub served: u64,
    /// Distinct `(request id, shape, operator kind)` checksums stored.
    pub entries: usize,
}

#[derive(Debug, Default)]
struct ResponseMemo {
    /// `(request id, n, g, op)` → FNV-1a checksum of the request's output.
    /// Valid for the server's lifetime because `input_seed` is fixed, so
    /// the same id, shape and operator always yield the same input and
    /// output. The operator is part of the key: the same id served under
    /// two kinds has two distinct checksums.
    sums: HashMap<(usize, u32, u32, OpKind), u64, interconnect::FxBuildHasher>,
    served: u64,
}

impl ResponseMemo {
    /// `r`'s stored checksum, counted as served; `None` when `r` has not
    /// been answered before, or when outputs are kept (the memo holds
    /// checksums, not outputs).
    fn lookup(&mut self, r: &ServeRequest, keep: bool) -> Option<u64> {
        let sum = (!keep).then(|| self.sums.get(&(r.id, r.n, r.g, r.op)).copied()).flatten()?;
        self.served += 1;
        Some(sum)
    }

    fn insert(&mut self, r: &ServeRequest, sum: u64) {
        self.sums.insert((r.id, r.n, r.g, r.op), sum);
    }
}

/// One device generation the server can plan on: its pool fingerprint and
/// the lowered spec the pipeline builder costs against.
struct DeviceClass {
    name: &'static str,
    spec: DeviceSpec,
}

/// The multi-tenant scheduler.
pub struct Server {
    config: ServeConfig,
    classes: Vec<DeviceClass>,
    tuple: SplkTuple,
    fabric: Fabric,
    cache: PlanCache,
    responses: Mutex<ResponseMemo>,
}

impl Server {
    /// A server over the configured pool — by default
    /// `config.pool_gpus` simulated K80s on the paper's TSUBAME-KFC
    /// fabric (enough nodes to hold the pool); with
    /// [`ServeConfig::devices`] set, a mixed-generation pool on the
    /// configured [`ServeConfig::fabric`] preset. Every launch is planned
    /// against its lease's own generation.
    pub fn new(mut config: ServeConfig) -> Self {
        config.pool_gpus = config.total_gpus();
        assert!(config.pool_gpus >= 1);
        let fabric = config.fabric.build_for_gpus(config.pool_gpus);
        let classes = if config.devices.is_empty() {
            vec![DeviceClass { name: "tesla_k80", spec: DeviceSpec::tesla_k80() }]
        } else {
            let mut classes: Vec<DeviceClass> = Vec::new();
            for &(preset, _) in &config.devices {
                if !classes.iter().any(|c| c.name == preset.name()) {
                    classes.push(DeviceClass { name: preset.name(), spec: preset.spec() });
                }
            }
            classes
        };
        Server {
            config,
            classes,
            tuple: SplkTuple::kepler_premises(0),
            fabric,
            cache: PlanCache::new(),
            responses: Mutex::new(ResponseMemo::default()),
        }
    }

    /// The device pool the configuration describes (each serve loop gets a
    /// fresh one).
    pub(crate) fn new_pool(&self) -> DevicePool {
        if self.config.devices.is_empty() {
            DevicePool::new(self.config.pool_gpus)
        } else {
            DevicePool::heterogeneous(
                self.config
                    .devices
                    .iter()
                    .map(|&(preset, count)| {
                        let device = PoolDevice {
                            class: preset.name(),
                            throughput: preset.throughput_score(),
                        };
                        (device, count)
                    })
                    .collect(),
            )
        }
    }

    /// The lowered spec of one registered device class.
    fn spec_for(&self, class: &str) -> &DeviceSpec {
        &self
            .classes
            .iter()
            .find(|c| c.name == class)
            .expect("every leased class is registered at construction")
            .spec
    }

    /// Plan-cache accounting so far (across every window this server ran).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Response-memo accounting so far (across every window this server
    /// ran). A warmed server re-serving known request shapes skips the
    /// whole data path — see `docs/perf.md`.
    pub fn response_stats(&self) -> ResponseStats {
        let memo = self.responses.lock().expect("response memo poisoned");
        ResponseStats { served: memo.served, entries: memo.sums.len() }
    }

    /// Serve `requests` (sorted by arrival) to completion. Unsorted input
    /// is rejected as [`scan_core::ScanError::InvalidInput`].
    pub fn run(&self, requests: &[ServeRequest]) -> ScanResult<ServeReport> {
        shard::check_sorted(requests)?;
        // One shard's worth of state is the whole server here; the sharded
        // router drives N of these with the same dispatch/sample/retire
        // methods, which is what makes its 1-shard path byte-equal.
        let mut state = ShardState::new(0, self.new_pool(), self.config.reference_timings);
        let mut next = 0; // index into `requests`
        let mut now = 0.0f64;

        loop {
            while next < requests.len() && requests[next].arrival <= now {
                state.enqueue(next);
                next += 1;
            }

            self.dispatch(&mut state, requests, now, None)?;
            state.sample(now);

            // Advance the clock to the next event.
            let next_completion = state.next_finish();
            let next_arrival = (next < requests.len()).then(|| requests[next].arrival);
            now = match (next_completion, next_arrival) {
                (None, None) => {
                    assert!(state.queue.is_empty(), "idle pool with a non-empty queue");
                    break;
                }
                (Some(f), None) => f64::from_bits(f),
                (None, Some(a)) => a,
                (Some(f), Some(a)) => f64::from_bits(f).min(a),
            };

            state.retire(now);
        }

        Ok(self.report(state))
    }

    /// Dispatch in strict policy order until the queue drains or the pool
    /// runs dry. No backfilling: a head that cannot lease blocks
    /// everything behind it (see docs/serving.md). `escalate` carries the
    /// router's over-SLO-budget tenants (EDF priority escalation); the
    /// unsharded server passes `None`.
    pub(crate) fn dispatch(
        &self,
        state: &mut ShardState,
        requests: &[ServeRequest],
        now: f64,
        escalate: Option<&std::collections::BTreeSet<u8>>,
    ) -> ScanResult<()> {
        // The policy sort is loop-invariant when nothing escalates: keys
        // depend only on the requests, and removing dispatched members
        // preserves the relative order of the rest (stable sort), so the
        // queue only re-sorts after an enqueue disturbed it — bit-identical
        // head selections either way.
        if !state.queue_sorted {
            state.queue.sort_by_key(|e| self.config.policy.key(&requests[e.idx]));
            state.queue_sorted = true;
        }
        while !state.queue.is_empty() {
            if let Some(over) = escalate {
                state.queue.sort_by_key(|e| self.config.policy.key(&requests[e.idx]));
                shard::escalate_urgent(&mut state.queue, requests, over);
                // Escalation parks the queue out of policy order.
                state.queue_sorted = false;
            }
            let head = state.queue[0];
            let Some(lease) = state.pool.lease(requests[head.idx].gpus_wanted) else { break };
            let (members, g_combined) = match head.stolen_from {
                // A stolen request always launches solo: its payload is
                // crossing the steal fabric, and coalescing it with local
                // requests would couple their latencies to the transfer.
                Some(victim) => {
                    state.queue.remove(0);
                    let r = &requests[head.idx];
                    state.stolen_ids.push(r.id);
                    shard::admit_steal_transfer(
                        &mut state.fleet,
                        &lease,
                        r,
                        victim,
                        state.shard,
                        now,
                    );
                    (vec![head.idx], r.g)
                }
                None => {
                    // Stolen entries behind the head break the coalescing
                    // prefix the same way an incompatible request would.
                    let (len, g_combined) = coalesce::plan_len(
                        state
                            .queue
                            .iter()
                            .take_while(|e| e.stolen_from.is_none())
                            .map(|e| &requests[e.idx]),
                        self.config.coalesce,
                    );
                    // The coalesced members are always the queue prefix
                    // positions 0..len, so draining them preserves both the
                    // members' order and the rest of the queue's.
                    let members: Vec<usize> = state.queue.drain(..len).map(|e| e.idx).collect();
                    (members, g_combined)
                }
            };
            let launch = self.launch(
                state.launches,
                &mut state.fleet,
                lease,
                requests,
                &members,
                g_combined,
                now,
            )?;
            state.launches += 1;
            state.running.push(launch);
        }
        Ok(())
    }

    /// Finalize one serve loop's state into its report.
    pub(crate) fn report(&self, state: ShardState) -> ServeReport {
        let ShardState { fleet, completions, queue_samples, launches, pool, .. } = state;
        let makespan = fleet.makespan();
        // Busy accounting comes straight off the fleet's admission records;
        // the merged graph only materializes if a trace consumer asks.
        let stream_busy = fleet.stream_busy_seconds();
        let trace = FleetTrace::from_fleet(fleet);
        let metrics = FleetMetrics::compute(
            self.config.policy,
            self.config.pool_gpus,
            &completions,
            launches,
            makespan,
            stream_busy,
            &queue_samples,
            &pool.gpu_classes(),
        );
        ServeReport {
            completions,
            launches,
            makespan,
            trace,
            queue_samples,
            metrics,
            cache_stats: self.cache.stats(),
        }
    }

    /// Execute one (possibly coalesced) launch and admit it to the fleet:
    /// dispatch on the head's [`OpKind`] to the fully typed instantiation.
    /// Every member shares the head's kind (the coalescer never mixes).
    /// `members` are indices into `requests`.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        &self,
        seq: usize,
        fleet: &mut FleetTimeline,
        lease: PoolLease,
        requests: &[ServeRequest],
        members: &[usize],
        g_combined: u32,
        now: f64,
    ) -> ScanResult<Launch> {
        debug_assert!(members.iter().all(|&m| requests[m].op == requests[members[0]].op));
        match requests[members[0]].op {
            OpKind::AddI32 => self
                .launch_typed::<i32, _>(Add, seq, fleet, lease, requests, members, g_combined, now),
            OpKind::MaxF64 => self
                .launch_typed::<f64, _>(Max, seq, fleet, lease, requests, members, g_combined, now),
            OpKind::SegSumI32 => self.launch_typed::<SegPair<i32>, _>(
                SegmentedAdd,
                seq,
                fleet,
                lease,
                requests,
                members,
                g_combined,
                now,
            ),
            OpKind::GatedF64 => self.launch_typed::<AffinePair<f64>, _>(
                GatedOp, seq, fleet, lease, requests, members, g_combined, now,
            ),
        }
    }

    /// The typed body of [`Server::launch`].
    #[allow(clippy::too_many_arguments)]
    fn launch_typed<T: ServedElem, O: ScanOp<T>>(
        &self,
        op: O,
        seq: usize,
        fleet: &mut FleetTimeline,
        lease: PoolLease,
        requests: &[ServeRequest],
        members: &[usize],
        g_combined: u32,
        now: f64,
    ) -> ScanResult<Launch> {
        let head = &requests[members[0]];
        let problem = ProblemParams::new(head.n, g_combined);
        // Every GPU in a grant shares one generation (the pool never spans
        // them), so the launch plans against that generation's own spec —
        // and the plan-cache DeviceKey keeps generations' entries apart.
        let device = self.spec_for(lease.device_class());
        let gpu_lease = lease.to_gpu_lease();
        let policy = PipelinePolicy::default();
        let mut prefix = String::with_capacity(16);
        prefix.push('r');
        push_usize(&mut prefix, head.id);
        if members.len() > 1 {
            prefix.push('+');
            push_usize(&mut prefix, members.len() - 1);
        }
        prefix.push(':');

        // One plan consultation per launch. The key carries `T` and `O`,
        // so a hit can only come from this operator's own entries. A hit
        // needs no data path of its own: its shared graph is admitted
        // directly (zero-copy — the fleet maps resources through the hit's
        // remap table), and member responses come from the memo or are
        // computed straight off each member's input stream.
        let mut cold_plan = None;
        let hit = if self.config.plan_cache {
            match self
                .cache
                .plan::<T, O>(
                    device,
                    &self.fabric,
                    &gpu_lease,
                    problem,
                    self.tuple,
                    ScanKind::Inclusive,
                    &policy,
                )
                .into_hit()
            {
                Ok(hit) => Some(hit),
                Err(planned) => {
                    cold_plan = Some(planned);
                    None
                }
            }
        } else {
            None
        };

        // Per member: `(checksum, output if kept)`. Both paths compute the
        // member's response in canonical sequential reference order, so a
        // completion is bit-equal to an isolated CPU-reference run — and
        // hit and cold paths agree bit-for-bit, for floats included.
        let keep = self.config.keep_outputs;
        let (admission, gpus_used, outputs) = match hit {
            Some(hit) => {
                let mut memo = self.responses.lock().expect("response memo poisoned");
                // One pass over the members, no scratch buffer: a memo hit
                // is served as stored; a miss — or any member when outputs
                // are kept, since the memo holds only checksums — never
                // materializes its input, but draws its elements, scans
                // and hashes them in one loop.
                let outputs: Vec<_> = members
                    .iter()
                    .map(|&m| {
                        let m = &requests[m];
                        if let Some(sum) = memo.lookup(m, keep) {
                            return (sum, None);
                        }
                        let input = request_stream(self.config.input_seed, m.id);
                        let (sum, out) = scanned_checksum(op, m, input, keep);
                        memo.insert(m, sum);
                        (sum, out.map(T::wrap))
                    })
                    .collect();
                drop(memo);
                let admission = fleet.admit_shared(hit.graph, hit.remap, now, prefix);
                (admission, hit.gpus_used, outputs)
            }
            None => T::with_buffer(|input| -> ScanResult<_> {
                for &m in members {
                    let m = &requests[m];
                    input.extend(
                        request_stream::<T>(self.config.input_seed, m.id).take(m.total_elems()),
                    );
                }
                debug_assert_eq!(input.len(), problem.total_elems());
                let leased = match cold_plan {
                    // A cache miss runs cold and memoizes the plan as it
                    // finishes; the next launch of this shape hits, for
                    // every operator kind.
                    Some(planned) => planned.run(op, input)?,
                    None => scan_on_lease(
                        op,
                        self.tuple,
                        device,
                        &self.fabric,
                        &gpu_lease,
                        problem,
                        input,
                        ScanKind::Inclusive,
                        &policy,
                    )?,
                };
                // Responses are hashed from the reference-order scan of
                // each member's own input slice rather than from
                // `leased.data`: for the integer kinds the two are
                // bit-identical (the cache layer self-validates the
                // simulated output), and for float kinds the reference
                // order is the canonical answer the hit path reproduces.
                // On this cold path (a shape's first launch, or the plan
                // cache off) the response itself still memoizes: warm
                // members are stepped over, each cold one hashes its own
                // slice of the input.
                let mut memo = self
                    .config
                    .plan_cache
                    .then(|| self.responses.lock().expect("response memo poisoned"));
                let mut offset = 0;
                let outputs = members
                    .iter()
                    .map(|&m| {
                        let m = &requests[m];
                        let block = &input[offset..offset + m.total_elems()];
                        offset += m.total_elems();
                        if let Some(sum) = memo.as_deref_mut().and_then(|memo| memo.lookup(m, keep))
                        {
                            return (sum, None);
                        }
                        let (sum, out) = scanned_checksum(op, m, block.iter().copied(), keep);
                        if let Some(memo) = memo.as_deref_mut() {
                            memo.insert(m, sum);
                        }
                        (sum, out.map(T::wrap))
                    })
                    .collect();
                let admission =
                    fleet.admit_shared(Arc::new(leased.run.graph), empty_remap(), now, prefix);
                Ok((admission, leased.gpus_used.into(), outputs))
            })?,
        };

        let group = members.len();
        let gpus: Arc<[usize]> = gpus_used;
        let mut completions = Vec::with_capacity(group);
        for (&m, (checksum, output)) in members.iter().zip(outputs) {
            completions.push(Completion {
                dispatched: now,
                started: admission.start,
                finished: admission.finish,
                coalesced: group,
                gpus: gpus.clone(),
                checksum,
                output,
                request: requests[m].clone(),
            });
        }
        Ok(Launch { seq, lease, finish: admission.finish, completions })
    }
}

/// Inclusive-scan request `r`'s input, drawn from `input`, row by row
/// (`2^g` rows of `2^n` elements) in canonical sequential order and FNV-1a
/// the scanned values as they are produced — the same bits as
/// `fnv1a(&expected_output)` without materializing the output (unless
/// `keep` asks for it). Rows reset the accumulator, so a member's response
/// is the same alone or inside a coalesced launch.
fn scanned_checksum<T: ServedElem, O: ScanOp<T>>(
    op: O,
    r: &ServeRequest,
    mut input: impl Iterator<Item = T>,
    keep: bool,
) -> (u64, Option<Vec<T>>) {
    let problem = r.problem();
    let mut hash = FNV_OFFSET;
    let mut out = keep.then(|| Vec::with_capacity(problem.total_elems()));
    for _ in 0..problem.batch() {
        let mut acc = op.identity();
        for v in input.by_ref().take(problem.problem_size()) {
            acc = op.combine(acc, v);
            hash = T::push(hash, acc);
            if let Some(out) = out.as_mut() {
                out.push(acc);
            }
        }
    }
    (hash, out)
}

/// Append `v` in decimal — `write!("{v}")` without the formatting
/// machinery, for the per-launch admission prefix on the hot path.
fn push_usize(out: &mut String, v: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the byte encoding of the output values (see
/// [`ServedOutput`] for per-type encodings). Test-only: the serving paths
/// hash outputs incrementally through [`scanned_checksum`].
#[cfg(test)]
fn fnv1a<T: ServedElem>(values: &[T]) -> u64 {
    values.iter().fold(FNV_OFFSET, |hash, &v| T::push(hash, v))
}

fn fnv1a_push(hash: u64, v: i32) -> u64 {
    fnv1a_bytes(hash, &v.to_le_bytes())
}

fn fnv1a_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{
        request_input, request_input_f64, request_input_gated, request_input_seg, WorkloadSpec,
    };
    use scan_core::ScanError;
    use skeletons::reference_inclusive;

    fn small_workload(seed: u64, count: usize) -> Vec<ServeRequest> {
        let mut spec = WorkloadSpec::default_for(seed, count);
        spec.n_range = (10, 11);
        spec.g_range = (0, 2);
        spec.generate()
    }

    #[test]
    fn serves_a_window_to_completion() {
        let requests = small_workload(3, 12);
        let server = Server::new(ServeConfig::new(Policy::Fifo, 3));
        let report = server.run(&requests).unwrap();
        assert_eq!(report.completions.len(), 12);
        assert!(report.launches <= 12);
        assert!(report.makespan > 0.0);
        // Completion times are consistent and causal.
        for c in &report.completions {
            assert!(c.dispatched >= c.request.arrival);
            assert!(c.started >= c.dispatched);
            assert!(c.finished > c.started);
        }
        // Completion order is by finish time.
        assert!(report.completions.windows(2).all(|w| w[0].finished <= w[1].finished));
        // Every request id appears exactly once.
        let mut ids: Vec<usize> = report.completions.iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn outputs_are_correct_scans() {
        let requests = small_workload(5, 8);
        let mut config = ServeConfig::new(Policy::Sjf, 9);
        config.keep_outputs = true;
        let report = Server::new(config).run(&requests).unwrap();
        for c in &report.completions {
            let input = request_input(9, c.request.id, c.request.total_elems());
            let output = c.output.as_ref().expect("keep_outputs").as_i32().expect("i32 window");
            let n = c.request.problem().problem_size();
            for g in 0..c.request.problem().batch() {
                let expected = reference_inclusive(Add, &input[g * n..(g + 1) * n]);
                assert_eq!(&output[g * n..(g + 1) * n], &expected[..], "request {}", c.request.id);
            }
            assert_eq!(c.checksum, fnv1a(output));
        }
    }

    #[test]
    fn mixed_operator_window_serves_reference_exact_outputs() {
        // One window mixing all four kinds: every completion's output must
        // be bit-equal to an isolated CPU-reference run of its own request,
        // and per-kind checksums must never collide across kinds for the
        // same id and shape.
        let requests = {
            let mut spec = WorkloadSpec::mixed_ops_for(11, 24);
            spec.n_range = (10, 11);
            spec.g_range = (0, 2);
            spec.generate()
        };
        let kinds: std::collections::BTreeSet<&str> =
            requests.iter().map(|r| r.op.as_str()).collect();
        assert!(kinds.len() >= 3, "workload must actually mix kinds, got {kinds:?}");
        let mut config = ServeConfig::new(Policy::Fifo, 9);
        config.keep_outputs = true;
        let report = Server::new(config).run(&requests).unwrap();
        assert_eq!(report.completions.len(), 24);
        for c in &report.completions {
            let id = c.request.id;
            let len = c.request.total_elems();
            let n = c.request.problem().problem_size();
            let output = c.output.as_ref().expect("keep_outputs");
            let row_refs = |g: usize| (g * n, (g + 1) * n);
            match c.request.op {
                OpKind::AddI32 => {
                    let input = request_input(9, id, len);
                    let out = output.as_i32().unwrap();
                    for g in 0..c.request.problem().batch() {
                        let (a, b) = row_refs(g);
                        assert_eq!(&out[a..b], &reference_inclusive(Add, &input[a..b])[..]);
                    }
                    assert_eq!(c.checksum, fnv1a(out));
                }
                OpKind::MaxF64 => {
                    let input = request_input_f64(9, id, len);
                    let out = output.as_f64().unwrap();
                    for g in 0..c.request.problem().batch() {
                        let (a, b) = row_refs(g);
                        let expected = reference_inclusive(Max, &input[a..b]);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&out[a..b]), bits(&expected));
                    }
                    assert_eq!(c.checksum, fnv1a(out));
                }
                OpKind::SegSumI32 => {
                    let input = request_input_seg(9, id, len);
                    let out = output.as_seg_i32().unwrap();
                    for g in 0..c.request.problem().batch() {
                        let (a, b) = row_refs(g);
                        assert_eq!(
                            &out[a..b],
                            &reference_inclusive(SegmentedAdd, &input[a..b])[..]
                        );
                    }
                    assert_eq!(c.checksum, fnv1a(out));
                }
                OpKind::GatedF64 => {
                    let input = request_input_gated(9, id, len);
                    let out = output.as_gated_f64().unwrap();
                    for g in 0..c.request.problem().batch() {
                        let (a, b) = row_refs(g);
                        let expected = reference_inclusive(GatedOp, &input[a..b]);
                        let bits = |v: &[AffinePair<f64>]| {
                            v.iter()
                                .flat_map(|p| [p.a.to_bits(), p.b.to_bits()])
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(bits(&out[a..b]), bits(&expected));
                        // The recurrence solution x[t] matches the naive
                        // sequential loop exactly for the first row.
                        if g == 0 {
                            let mut x = 0.0f64;
                            for (p, o) in input[a..b].iter().zip(&out[a..b]) {
                                x = p.a * x + p.b;
                                assert_eq!(x.to_bits(), o.b.to_bits());
                            }
                        }
                    }
                    assert_eq!(c.checksum, fnv1a(out));
                }
            }
        }
    }

    /// Request `r`'s response computed from scratch: its materialized
    /// input, reference-scanned row by row, then FNV-1a hashed.
    fn reference_response(seed: u64, r: &ServeRequest) -> (u64, ServedOutput) {
        fn rows<T: ServedElem, O: ScanOp<T>>(op: O, input: &[T], n: usize) -> Vec<T> {
            input.chunks_exact(n).flat_map(|row| reference_inclusive(op, row)).collect()
        }
        let (id, len, n) = (r.id, r.total_elems(), r.problem().problem_size());
        match r.op {
            OpKind::AddI32 => {
                let out = rows(Add, &request_input(seed, id, len), n);
                (fnv1a(&out), ServedOutput::I32(out))
            }
            OpKind::MaxF64 => {
                let out = rows(Max, &request_input_f64(seed, id, len), n);
                (fnv1a(&out), ServedOutput::F64(out))
            }
            OpKind::SegSumI32 => {
                let out = rows(SegmentedAdd, &request_input_seg(seed, id, len), n);
                (fnv1a(&out), ServedOutput::SegI32(out))
            }
            OpKind::GatedF64 => {
                let out = rows(GatedOp, &request_input_gated(seed, id, len), n);
                (fnv1a(&out), ServedOutput::GatedF64(out))
            }
        }
    }

    #[test]
    fn plan_hit_responses_equal_the_materialized_reference() {
        // Every (n, g) in 10..=12 x 0..=3, each arriving as a coalescible
        // group: two equal-g members, then a g=1 head absorbing two g=0
        // members (so one launch's members differ in g). The first window
        // warms the plan cache; the second repeats its shapes under fresh
        // ids, so every launch hits the plan cache and misses the memo —
        // each member's response comes off the fused draw-scan-hash path.
        let window = |op: OpKind, first_id: usize| {
            let mut requests = Vec::new();
            let mut push = |t: usize, n: u32, g: u32| {
                requests.push(ServeRequest {
                    id: first_id + requests.len(),
                    arrival: t as f64 * 1e-3,
                    n,
                    g,
                    gpus_wanted: 1,
                    priority: 0,
                    tenant: 0,
                    deadline: None,
                    op,
                })
            };
            let mut t = 0;
            for n in 10..=12 {
                for g in 0..=3 {
                    push(t, n, g);
                    push(t, n, g);
                    t += 1;
                }
                push(t, n, 1);
                push(t, n, 0);
                push(t, n, 0);
                t += 1;
            }
            requests
        };
        for op in OpKind::all() {
            for keep in [false, true] {
                let mut config = ServeConfig::new(Policy::Fifo, 5);
                config.keep_outputs = keep;
                let server = Server::new(config);
                server.run(&window(op, 0)).unwrap();
                let warm = server.cache_stats();
                let report = server.run(&window(op, 1000)).unwrap();
                let stats = server.cache_stats();
                // Every kind replays its plans' schedules, the gated
                // recurrence included: a plan's graph does not depend on
                // element values, whether or not its simulated bits match
                // the reference order.
                assert_eq!(stats.misses, warm.misses, "{op}: the second window only hits");
                assert_eq!(stats.hits - warm.hits, report.launches as u64, "{op}");
                assert_eq!(server.response_stats().served, 0, "{op}: fresh ids miss the memo");
                assert_eq!(report.completions.len(), 33);
                assert!(report.completions.iter().any(|c| c.coalesced == 3), "{op}");
                for c in &report.completions {
                    let (sum, out) = reference_response(5, &c.request);
                    assert_eq!(c.checksum, sum, "{op} request {} keep={keep}", c.request.id);
                    assert_eq!(
                        c.output.as_ref(),
                        keep.then_some(&out),
                        "{op} request {}",
                        c.request.id
                    );
                }
            }
        }
    }

    #[test]
    fn plan_cache_on_and_off_serve_identical_completions() {
        let requests = WorkloadSpec::mixed_ops_for(7, 160).generate();
        let by_id = |config: ServeConfig| {
            let report = Server::new(config).run(&requests).unwrap();
            let mut completions = report.completions;
            completions.sort_by_key(|c| c.request.id);
            (completions, report.cache_stats)
        };
        let mut config = ServeConfig::new(Policy::Edf, 3);
        config.keep_outputs = true;
        let (cached, stats) = by_id(config.clone());
        config.plan_cache = false;
        let (cold, _) = by_id(config);
        assert!(stats.hits > 0, "the cache-on window must take the hit path");
        // Coalesced launches whose members differ in g are covered.
        let mixed_g = cached.iter().any(|c| {
            c.coalesced > 1
                && cached.iter().any(|o| {
                    o.dispatched.to_bits() == c.dispatched.to_bits()
                        && o.gpus == c.gpus
                        && o.request.g != c.request.g
                })
        });
        assert!(mixed_g, "window must coalesce members of different g");
        assert_eq!(cached.len(), cold.len());
        for (a, b) in cached.iter().zip(&cold) {
            assert_eq!(a.request, b.request);
            assert_eq!(a.checksum, b.checksum, "request {}", a.request.id);
            assert_eq!(a.output, b.output, "request {}", a.request.id);
            assert_eq!(a.finished.to_bits(), b.finished.to_bits(), "request {}", a.request.id);
            assert_eq!(a.coalesced, b.coalesced, "request {}", a.request.id);
        }
    }

    #[test]
    fn unsorted_requests_are_rejected_not_panicked() {
        let server = Server::new(ServeConfig::new(Policy::Fifo, 3));
        let mut requests = small_workload(3, 6);
        requests.swap(1, 4);
        assert!(matches!(server.run(&requests), Err(ScanError::InvalidInput(_))));
        // A NaN arrival is unordered against its neighbours: rejected too.
        let mut requests = small_workload(3, 6);
        requests[1].arrival = f64::NAN;
        assert!(matches!(server.run(&requests), Err(ScanError::InvalidInput(_))));
    }

    #[test]
    fn repeat_mixed_windows_hit_the_memo_per_kind() {
        let requests = {
            let mut spec = WorkloadSpec::mixed_ops_for(11, 16);
            spec.n_range = (10, 11);
            spec.g_range = (0, 1);
            spec.generate()
        };
        let server = Server::new(ServeConfig::new(Policy::Fifo, 9));
        let first = server.run(&requests).unwrap();
        let second = server.run(&requests).unwrap();
        for (a, b) in first.completions.iter().zip(&second.completions) {
            assert_eq!(a.request.id, b.request.id);
            assert_eq!(a.checksum, b.checksum);
            assert_eq!(a.finished.to_bits(), b.finished.to_bits());
        }
        assert_eq!(server.response_stats().served, 16, "warm window serves from the memo");
    }

    #[test]
    fn fleet_trace_covers_every_launch() {
        let requests = small_workload(3, 10);
        let report = Server::new(ServeConfig::new(Policy::Fifo, 3)).run(&requests).unwrap();
        let json = report.trace.chrome_trace_json();
        // Each launch's phases carry its prefix; spot-check the first
        // request appears somewhere in the fleet trace.
        assert!(json.contains("\"traceEvents\""));
        let labels = report.trace.graph().phase_labels();
        let launches_seen: std::collections::BTreeSet<&str> =
            labels.iter().filter_map(|l| l.split(':').next()).collect();
        assert_eq!(launches_seen.len(), report.launches);
    }

    #[test]
    fn repeat_windows_are_bit_identical_and_served_from_memo() {
        let requests = small_workload(3, 12);
        let server = Server::new(ServeConfig::new(Policy::Fifo, 3));
        let first = server.run(&requests).unwrap();
        assert_eq!(server.response_stats().served, 0, "a cold window computes every output");
        let second = server.run(&requests).unwrap();
        assert_eq!(first.completions.len(), second.completions.len());
        for (a, b) in first.completions.iter().zip(&second.completions) {
            assert_eq!(a.request.id, b.request.id);
            assert_eq!(a.checksum, b.checksum, "request {} checksum", a.request.id);
            assert_eq!(a.finished.to_bits(), b.finished.to_bits(), "request {}", a.request.id);
        }
        assert_eq!(first.makespan.to_bits(), second.makespan.to_bits());
        let stats = server.response_stats();
        assert_eq!(stats.entries, 12);
        assert_eq!(stats.served, 12, "a warm window serves every response from the memo");
    }

    #[test]
    fn pool_contention_queues_requests() {
        // A 1-GPU pool serialises everything: total busy time equals the
        // sum of launch times, and some request must wait.
        let mut requests = small_workload(3, 6);
        for r in &mut requests {
            r.gpus_wanted = 1;
            r.arrival = 0.0;
        }
        let mut config = ServeConfig::new(Policy::Fifo, 3);
        config.pool_gpus = 1;
        config.coalesce = false;
        let report = Server::new(config).run(&requests).unwrap();
        assert_eq!(report.launches, 6);
        let waited = report.completions.iter().filter(|c| c.dispatched > c.request.arrival).count();
        assert!(waited >= 5, "a serial pool must queue later requests");
        // Starts never overlap on the single GPU: sorted by start, each
        // starts exactly when its predecessor's stream frees up.
        let mut spans: Vec<(f64, f64)> =
            report.completions.iter().map(|c| (c.started, c.finished)).collect();
        spans.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in spans.windows(2) {
            assert!(w[1].0 >= w[0].0, "starts are ordered");
        }
    }

    #[test]
    fn coalescing_reduces_launches() {
        // Same-shape single-GPU requests arriving together must merge.
        let requests: Vec<ServeRequest> = (0..8)
            .map(|id| ServeRequest {
                id,
                arrival: 0.0,
                n: 10,
                g: 0,
                gpus_wanted: 1,
                priority: 0,
                tenant: 0,
                deadline: None,
                op: OpKind::AddI32,
            })
            .collect();
        let mut config = ServeConfig::new(Policy::Fifo, 3);
        config.pool_gpus = 2;
        let report = Server::new(config.clone()).run(&requests).unwrap();
        assert!(
            report.launches < 8,
            "8 identical requests on 2 GPUs must coalesce, got {} launches",
            report.launches
        );
        assert!(report.metrics.coalescing_ratio > 1.0);

        config.coalesce = false;
        let solo = Server::new(config).run(&requests).unwrap();
        assert_eq!(solo.launches, 8);
        assert!(
            report.makespan < solo.makespan,
            "coalescing must beat per-request launches ({} vs {})",
            report.makespan,
            solo.makespan
        );
    }

    #[test]
    fn edf_prefers_urgent_requests() {
        // Three same-size jobs at t=0 on one GPU; the last to arrive has
        // the tightest deadline. EDF runs it first, FIFO last.
        let mk = |id: usize, deadline: Option<f64>| ServeRequest {
            id,
            arrival: 0.0,
            n: 11,
            g: 1,
            gpus_wanted: 1,
            priority: 0,
            tenant: 0,
            deadline,
            op: OpKind::AddI32,
        };
        let requests = vec![mk(0, None), mk(1, None), mk(2, Some(1e-3))];
        let mut config = ServeConfig::new(Policy::Edf, 3);
        config.pool_gpus = 1;
        config.coalesce = false;
        let edf = Server::new(config.clone()).run(&requests).unwrap();
        assert_eq!(edf.completions[0].request.id, 2, "EDF serves the deadline first");
        config.policy = Policy::Fifo;
        let fifo = Server::new(config).run(&requests).unwrap();
        assert_eq!(fifo.completions[2].request.id, 2, "FIFO serves it last");
    }

    #[test]
    fn partial_lease_degrades_instead_of_waiting() {
        // One request wants 8 GPUs but the pool has 2: it runs on both.
        let requests = vec![ServeRequest {
            id: 0,
            arrival: 0.0,
            n: 12,
            g: 2,
            gpus_wanted: 8,
            priority: 0,
            tenant: 0,
            deadline: None,
            op: OpKind::AddI32,
        }];
        let mut config = ServeConfig::new(Policy::Fifo, 3);
        config.pool_gpus = 2;
        let report = Server::new(config).run(&requests).unwrap();
        assert_eq!(&*report.completions[0].gpus, &[0, 1]);
    }
}
