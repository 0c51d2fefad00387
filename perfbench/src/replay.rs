//! Layer-by-layer replay of a served window, for the traced run.
//!
//! `Server::run` and `Router::run` are timed whole: the library exposes no
//! hooks inside them (and this benchmark changes no library code). After a
//! window is served, the traced run re-executes its work one layer at a
//! time through the same public functions the serving loop calls, each
//! call inside a span:
//!
//! | span | public call |
//! |---|---|
//! | `queue.sort_coalesce` | `Policy::key` sort + `coalesce::plan_len` |
//! | `plan.lookup` | `PlanCache::plan` |
//! | `plan.build` | `PlannedLaunch::run` on a miss (graph build, gpu-sim functional simulation, self-validation) |
//! | `input.gen` | `request_input*_into` per member |
//! | `reference.scan` | sequential reference scan + FNV per member |
//! | `fleet.admit` | `FleetTimeline::admit_shared` |
//! | `report.metrics` | `FleetMetrics::compute` / `ShardedMetrics::compute` |
//!
//! Launches are recovered from the completions (members of one launch
//! share dispatch, start and finish times and the GPU list). The replay
//! leases each launch's GPUs from its own `DevicePool`, stepped the way the
//! serving loop steps its pool (leases return when their launch finishes),
//! keeps its own plan cache, warmed on the same warm-up windows as the
//! server's, and re-admits a stolen request's steal-in transfer before its
//! launch. Two checks tie the replay to the server: every replayed
//! admission must start and finish at exactly the bits the served
//! completions carry ([`ReplayCounts::admission_mismatches`]), and the
//! replay's plan-cache hits and misses per window must equal the server's
//! ([`Replay::cache_stats`]). `schedule` spans
//! (`ExecGraph::schedule` of each launch graph) measure the scheduler's
//! node rate; they are not part of the serve path, so they are left out
//! of [`SERVE_LAYERS`].

use std::collections::HashMap;
use std::sync::Arc;

use devices::FabricPreset;
use gpu_sim::{DeviceSpec, EventKind};
use interconnect::{
    empty_remap, Admission, ExecGraph, Fabric, FabricSpec, FleetTimeline, NodeMeta, Resource,
};
use scan_core::{
    CacheStats, PipelinePolicy, PlanCache, ProblemParams, ScanError, ScanKind, ScanResult,
};
use scan_serve::{coalesce, Completion, DevicePool, FleetMetrics, Policy, PoolLease, ServeRequest};
use skeletons::{ScanOp, SplkTuple};

use crate::elem::{scan_hash, visit_op, BenchElem, OpVisitor};
use crate::spans::Tracer;

/// Layers whose self time belongs to the served window; whatever the
/// window spends beyond their sum is `serve.unattributed_s`.
pub const SERVE_LAYERS: [&str; 7] = [
    "input.gen",
    "reference.scan",
    "plan.lookup",
    "plan.build",
    "fleet.admit",
    "queue.sort_coalesce",
    "report.metrics",
];

/// Counts the replay accumulates (all deterministic for a given window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Launches replayed.
    pub launches: u64,
    /// Cold plan builds (replay-cache misses).
    pub builds: u64,
    /// Elements the replayed launches scanned.
    pub elements: u64,
    /// Nodes of the scheduled launch graphs.
    pub nodes: u64,
    /// Simulated global-load transactions over the launch graphs.
    pub gld_transactions: u64,
    /// Simulated warp shuffles over the launch graphs.
    pub shuffles: u64,
    /// Simulated kernel launches over the launch graphs.
    pub kernel_launches: u64,
    /// Members whose replayed checksum differs from the served one.
    pub mismatches: u64,
    /// Launches whose replayed admission starts or finishes at other bits
    /// than the served completions, or whose replayed grant does not hold
    /// the GPUs the launch used.
    pub admission_mismatches: u64,
}

impl ReplayCounts {
    /// Add another replay's totals.
    pub fn merge(&mut self, other: &ReplayCounts) {
        self.launches += other.launches;
        self.builds += other.builds;
        self.elements += other.elements;
        self.nodes += other.nodes;
        self.gld_transactions += other.gld_transactions;
        self.shuffles += other.shuffles;
        self.kernel_launches += other.kernel_launches;
        self.mismatches += other.mismatches;
        self.admission_mismatches += other.admission_mismatches;
    }
}

/// The replay engine for one shard (or the unsharded server).
pub struct Replay {
    cache: PlanCache,
    device: DeviceSpec,
    fabric: Fabric,
    tuple: SplkTuple,
    pipeline: PipelinePolicy,
    policy: Policy,
    input_seed: u64,
    pool_gpus: usize,
    /// This shard's id: the thief end of its steal-in links.
    shard: usize,
    /// Running totals.
    pub counts: ReplayCounts,
}

impl Replay {
    /// A replay of shard `shard`, a `pool_gpus`-GPU Tesla K80 pool on the
    /// PCIe fabric, matching `ServeConfig::new`'s defaults.
    pub fn new(policy: Policy, input_seed: u64, pool_gpus: usize, shard: usize) -> Self {
        Replay {
            cache: PlanCache::new(),
            device: DeviceSpec::tesla_k80(),
            fabric: FabricPreset::Pcie.build_for_gpus(pool_gpus),
            tuple: SplkTuple::kepler_premises(0),
            pipeline: PipelinePolicy::default(),
            policy,
            input_seed,
            pool_gpus,
            shard,
            counts: ReplayCounts::default(),
        }
    }

    /// The replay's plan-cache counters, to compare with the server's.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Replay one finished window of one shard: its queue, then every
    /// launch's GPU lease, plan lookup/build, inputs, reference checksums
    /// and fleet admission, in dispatch order. `steals` maps each request
    /// the shard stole to its victim shard.
    pub fn window(
        &mut self,
        tracer: &mut Tracer,
        completions: &[Completion],
        steals: &HashMap<usize, usize>,
    ) -> ScanResult<()> {
        let launches = group_launches(completions);
        let mut arrivals: Vec<&ServeRequest> = completions.iter().map(|c| &c.request).collect();
        arrivals.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
        let mut pending = arrivals.into_iter().peekable();
        let mut queue: Vec<&ServeRequest> = Vec::new();
        let mut fleet = FleetTimeline::new();
        let mut pool = DevicePool::new(self.pool_gpus);
        let mut running: Vec<(f64, PoolLease)> = Vec::new();
        for members in &launches {
            let head = &members[0].request;
            let now = members[0].dispatched;
            // The serving loop retires every launch finishing at or before
            // `now`, returning its GPUs, before it dispatches.
            let (done, still): (Vec<_>, Vec<_>) =
                running.drain(..).partition(|(finish, _)| *finish <= now);
            running = still;
            for (_, lease) in done {
                pool.release(lease);
            }
            tracer.span("launch", Some(head.id), |t| {
                t.span("queue.sort_coalesce", Some(head.id), |_| {
                    let mut disturbed = false;
                    while let Some(r) = pending.next_if(|r| r.arrival <= now) {
                        queue.push(r);
                        disturbed = true;
                    }
                    if disturbed {
                        queue.sort_by_key(|r| self.policy.key(r));
                    }
                    if !queue.is_empty() {
                        std::hint::black_box(coalesce::plan_len(queue.iter().copied(), true));
                    }
                    queue.retain(|r| !members.iter().any(|m| m.request.id == r.id));
                });
                let Some(lease) = pool.lease(head.gpus_wanted) else {
                    self.counts.admission_mismatches += 1;
                    return Ok(());
                };
                let used = &members[0].gpus;
                if !used.iter().all(|g| lease.gpu_ids().contains(g)) {
                    self.counts.admission_mismatches += 1;
                }
                if let Some(&victim) = steals.get(&head.id) {
                    t.span("fleet.admit", Some(head.id), |_| {
                        admit_steal(&mut fleet, &lease, head, victim, self.shard, now)
                    });
                }
                let admission = visit_op(
                    head.op,
                    Launch { replay: self, tracer: t, fleet: &mut fleet, lease: &lease, members },
                )?;
                let served = (members[0].started.to_bits(), members[0].finished.to_bits());
                if (admission.start.to_bits(), admission.finish.to_bits()) != served {
                    self.counts.admission_mismatches += 1;
                }
                running.push((members[0].finished, lease));
                Ok::<_, ScanError>(())
            })?;
        }
        Ok(())
    }

    /// Re-derive the window's metrics the way the server assembles its
    /// report, timed as `report.metrics`.
    pub fn report(
        &self,
        tracer: &mut Tracer,
        completions: &[Completion],
        metrics: &FleetMetrics,
        queue_samples: &[(f64, usize)],
    ) {
        let classes = vec!["tesla_k80"; self.pool_gpus];
        let busy = metrics.gpu_busy_fraction * self.pool_gpus as f64 * metrics.makespan;
        tracer.span("report.metrics", None, |_| {
            FleetMetrics::compute(
                self.policy,
                self.pool_gpus,
                completions,
                metrics.launches,
                metrics.makespan,
                busy,
                queue_samples,
                &classes,
            )
        });
    }
}

/// The id of the steal link between a victim and a thief shard: the
/// serving layer places these far above any real cluster node id.
const STEAL_NODE_BASE: usize = 1 << 20;

/// Admit a stolen request's steal-in transfer the way the serving layer
/// does before the stolen launch: its payload crosses the inter-node link
/// while claiming the lease's streams and the victim–thief steal link.
fn admit_steal(
    fleet: &mut FleetTimeline,
    lease: &PoolLease,
    head: &ServeRequest,
    victim: usize,
    thief: usize,
    now: f64,
) -> Admission {
    let bytes = head.total_elems() * head.op.elem_bytes();
    let seconds = FabricSpec::tsubame_kfc().inter_node.transfer_time(bytes);
    let mut g = ExecGraph::new();
    let phase = g.phase("steal-in");
    let mut resources: Vec<Resource> = lease
        .gpu_ids()
        .into_iter()
        .map(|gpu| Resource::Stream { gpu, stream: lease.stream() })
        .collect();
    resources.push(Resource::ib(STEAL_NODE_BASE + victim, STEAL_NODE_BASE + thief));
    g.add_with_meta(
        phase,
        "steal-in",
        EventKind::Transfer,
        seconds,
        &[],
        &resources,
        NodeMeta::transfer(bytes as u64),
    );
    fleet.admit(&g, now, &format!("r{}<s{}:", head.id, victim))
}

/// One launch, dispatched on its operator's concrete types.
struct Launch<'r, 't, 'f, 'l, 'c> {
    replay: &'r mut Replay,
    tracer: &'t mut Tracer,
    fleet: &'f mut FleetTimeline,
    lease: &'l PoolLease,
    members: &'c [&'c Completion],
}

impl OpVisitor for Launch<'_, '_, '_, '_, '_> {
    type Out = ScanResult<Admission>;

    fn visit<T: BenchElem, O: ScanOp<T>>(self, op: O) -> ScanResult<Admission> {
        let Launch { replay, tracer, fleet, lease, members } = self;
        let head = &members[0].request;
        let batch: usize = members.iter().map(|m| 1usize << m.request.g).sum();
        let problem = ProblemParams::new(head.n, batch.trailing_zeros());
        let lease = lease.to_gpu_lease();
        let Replay { cache, device, fabric, tuple, pipeline, input_seed, counts, .. } = replay;
        let planned = tracer.span("plan.lookup", Some(head.id), |_| {
            cache.plan::<T, O>(
                device,
                fabric,
                &lease,
                problem,
                *tuple,
                ScanKind::Inclusive,
                pipeline,
            )
        });
        T::with_buffer(|input| -> ScanResult<Admission> {
            for m in members {
                let r = &m.request;
                tracer.span("input.gen", Some(r.id), |_| {
                    T::fetch_into(*input_seed, r.id, r.total_elems(), input)
                });
            }
            let (graph, remap) = match planned.into_hit() {
                Ok(hit) => (hit.graph, hit.remap),
                Err(cold) => {
                    counts.builds += 1;
                    let run = tracer.span("plan.build", Some(head.id), |_| cold.run(op, input))?;
                    (Arc::new(run.run.graph), empty_remap())
                }
            };
            let mut offset = 0;
            for m in members {
                let r = &m.request;
                let elems = r.total_elems();
                let block = &input[offset..offset + elems];
                let row = r.problem().problem_size();
                let sum = tracer.span("reference.scan", Some(r.id), |_| scan_hash(op, block, row));
                counts.mismatches += u64::from(sum != m.checksum);
                offset += elems;
            }
            let prefix = match members.len() {
                1 => format!("r{}:", head.id),
                k => format!("r{}+{}:", head.id, k - 1),
            };
            let dispatched = members[0].dispatched;
            let admission = tracer.span("fleet.admit", Some(head.id), |_| {
                fleet.admit_shared(graph.clone(), remap, dispatched, prefix)
            });
            tracer.span("schedule", Some(head.id), |_| std::hint::black_box(graph.schedule()));
            count_graph(counts, &graph);
            counts.launches += 1;
            counts.elements += problem.total_elems() as u64;
            Ok(admission)
        })
    }
}

/// Add a launch graph's node count and kernel counters to `counts`.
pub fn count_graph(counts: &mut ReplayCounts, graph: &ExecGraph) {
    counts.nodes += graph.nodes().len() as u64;
    for c in graph.nodes().iter().filter_map(|n| n.meta.counters) {
        counts.gld_transactions += c.gld_transactions;
        counts.shuffles += c.shuffles;
        counts.kernel_launches += c.launches;
    }
}

/// Recover launches from a window's completions: members of one launch
/// share dispatch, start and finish instants and one GPU list. Launches
/// come back in dispatch order, members in completion order: of launches
/// dispatched at one instant, the earlier one leased the lower GPU ids.
pub fn group_launches(completions: &[Completion]) -> Vec<Vec<&Completion>> {
    let mut index: HashMap<(u64, u64, u64, usize), usize> = HashMap::new();
    let mut launches: Vec<Vec<&Completion>> = Vec::new();
    for c in completions {
        let key = (
            c.dispatched.to_bits(),
            c.started.to_bits(),
            c.finished.to_bits(),
            Arc::as_ptr(&c.gpus) as *const usize as usize,
        );
        let slot = *index.entry(key).or_insert_with(|| {
            launches.push(Vec::new());
            launches.len() - 1
        });
        launches[slot].push(c);
    }
    launches.sort_by(|a, b| {
        a[0].dispatched.total_cmp(&b[0].dispatched).then(a[0].gpus[0].cmp(&b[0].gpus[0]))
    });
    launches
}

/// Span names and the per-layer metric each one's self time reports as.
pub const LAYER_METRICS: [(&str, &str); 9] = [
    ("input.gen", "input.gen_s"),
    ("reference.scan", "reference.scan_s"),
    ("plan.lookup", "plan.lookup_s"),
    ("plan.build", "plan.build_s"),
    ("fleet.admit", "fleet.admit_s"),
    ("queue.sort_coalesce", "queue.sort_coalesce_s"),
    ("report.metrics", "report.metrics_s"),
    ("report.trace_export", "report.trace_export_s"),
    ("schedule", "schedule_s"),
];

/// Record one window's per-layer self times, plus what the layers that
/// run inside the timed window (`inside`) leave unexplained of its
/// `window_s` wall-clock seconds.
pub fn record_layers(
    host: &mut crate::window::HostSeries,
    times: &std::collections::BTreeMap<&'static str, f64>,
    window_s: f64,
    inside: &[&str],
) {
    let time = |span: &str| times.get(span).copied().unwrap_or(0.0);
    for (span, metric) in LAYER_METRICS {
        host.push(metric, time(span));
    }
    let attributed: f64 = inside.iter().map(|s| time(s)).sum();
    host.push("serve.unattributed_s", window_s - attributed);
}

/// Record the per-layer metrics: median layer times per window (except
/// the layers in `absent`, which the workload does not have), and, over
/// the first `sim_windows` windows (whose `counts` are deterministic),
/// plan builds, the scheduler's node rate and the gpu-sim counters.
pub fn put_layers(
    out: &mut crate::Outcome,
    host: &crate::window::HostSeries,
    counts: &ReplayCounts,
    sim_windows: usize,
    absent: &[&str],
) {
    for (span, metric) in LAYER_METRICS {
        if span != "schedule" && !absent.contains(&span) {
            out.put(metric, host.median(metric), "s");
        }
    }
    out.put("serve.unattributed_s", host.median("serve.unattributed_s"), "s");
    out.put("plan.builds", counts.builds as f64, "count");
    let schedule_s = host.sum_first("schedule_s", sim_windows);
    out.put("schedule.nodes_per_s", counts.nodes as f64 / schedule_s.max(f64::MIN_POSITIVE), "1/s");
    out.put("fleet.admissions", counts.launches as f64, "count");
    let melem = counts.elements as f64 / 1e6;
    out.put("gpusim.gld_transactions_per_melem", counts.gld_transactions as f64 / melem, "1/Melem");
    out.put("gpusim.shuffles_per_melem", counts.shuffles as f64 / melem, "1/Melem");
    out.put("gpusim.kernel_launches", counts.kernel_launches as f64, "count");
    out.put("trace.overhead_frac", host.median("trace.overhead_frac"), "fraction");
}
