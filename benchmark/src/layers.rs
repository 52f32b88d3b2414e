//! The traced pass: the same inputs run in-process, with spans recorded
//! here around the calls into each crate's public functions. Nothing in
//! the program under test is switched on for it.

use std::collections::BTreeSet;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use netrs::{
    ControllerConfig, NetRsController, PlacementProblem, PlanSolveStats, Rsp, TrafficGroups,
    TrafficMatrix,
};
use netrs_kvstore::{Ring, ServerId};
use netrs_netdev::{
    Accelerator, CacheAdmission, CacheWritePolicy, HotCacheConfig, HotKeyCache, NetRsRules,
    PacketMeta,
};
use netrs_selection::{C3Selector, Feedback, ReplicaSelector};
use netrs_sim::{
    run_observed_sharded_parallel, Cluster, FaultPlan, ObsOptions, ParallelOptions, RunStats,
    Scheme, SimConfig,
};
use netrs_simcore::{Engine, EngineProfile, EventQueue, SimDuration, SimRng, SimTime, Zipf};
use netrs_topology::{FatTree, HostId, SwitchId};
use netrs_wire::{MagicField, RsnodeId};
use serde::Value;

use crate::e2e::{check_stats, run_child};
use crate::report::{self, digest, median, PassResult, Values, PER_LAYER};
use crate::workloads::{self, Inputs, Workload};
use crate::Ctx;

/// One timed interval; `parent` is the span that was open when it began.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Spans are kept in memory and written once, when the pass ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
    }

    /// Seconds of every closed span called `name`, in order.
    fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U(p as u128)),
                    ),
                    ("start_ns".into(), Value::U(s.start_ns.into())),
                    ("end_ns".into(), Value::U(s.end_ns.into())),
                ])
            })
            .collect();
        let text = serde_json::to_string(&Value::Arr(spans)).map_err(|e| e.to_string())?;
        fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

fn load_config(inputs: &Inputs) -> Result<SimConfig, String> {
    let text = fs::read_to_string(&inputs.config).map_err(|e| e.to_string())?;
    let mut cfg: SimConfig = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    if let Some(path) = &inputs.faults {
        let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
        cfg.faults = Some(FaultPlan::from_json(&text)?);
    }
    Ok(cfg)
}

/// What one in-process run leaves for the checks and the counters.
struct Traced {
    stats: RunStats,
    json: String,
    profile: Option<EngineProfile>,
    plan: Option<Rsp>,
}

/// The sequential engine, phase by phase as `netrs_sim`'s runner drives
/// it: `Cluster::new`, `prime`, `Engine::run`, `stats`, serialize, drop.
fn traced_sequential(tr: &mut Tracer, cfg: SimConfig) -> Traced {
    let run = tr.enter("sim.run");
    let s = tr.enter("sim.build");
    let cluster = Cluster::new(cfg);
    tr.exit(s);
    let mut engine = Engine::new(cluster);
    let s = tr.enter("sim.prime");
    let mut queue = std::mem::take(engine.queue_mut());
    engine.world_mut().prime(&mut queue);
    *engine.queue_mut() = queue;
    tr.exit(s);
    let s = tr.enter("sim.loop");
    engine.run();
    tr.exit(s);
    let s = tr.enter("sim.stats");
    let profile = engine.profile();
    let (now, events) = (engine.now(), engine.processed());
    let mut cluster = engine.into_world();
    cluster.flush_tracer();
    cluster.flush_control(now);
    let stats = cluster.stats(now, events);
    tr.exit(s);
    let s = tr.enter("sim.serialize");
    let json = serde_json::to_string_pretty(&stats).expect("stats serialize");
    tr.exit(s);
    let plan = cluster.current_plan().cloned();
    let s = tr.enter("sim.teardown");
    drop(cluster);
    tr.exit(s);
    tr.exit(run);
    Traced {
        stats,
        json,
        profile: Some(profile),
        plan,
    }
}

/// The windowed engine's replica mode is crate-private, so its one public
/// entry point is timed whole.
fn traced_windowed(tr: &mut Tracer, cfg: SimConfig, threads: usize) -> (Traced, Option<Vec<u64>>) {
    let run = tr.enter("sim.run");
    let par = ParallelOptions {
        threads,
        lookahead_mult: 1,
    };
    let out = run_observed_sharded_parallel(cfg, 2, par, ObsOptions::default());
    let s = tr.enter("sim.serialize");
    let json = serde_json::to_string_pretty(&out.stats).expect("stats serialize");
    tr.exit(s);
    tr.exit(run);
    let traced = Traced {
        stats: out.stats,
        json,
        profile: None,
        plan: None,
    };
    (traced, out.busy_ns)
}

/// Median nanoseconds per call of `op` over five timed batches.
fn ns_per_op(iters: u64, mut op: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters as usize {
                op(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

const RING: usize = 1024;

/// Calls into each layer's hot public functions at the workload's sizes.
/// They do not depend on the scheme, so every workload reports them.
fn layer_probes(tr: &mut Tracer, cfg: &SimConfig, iters: u64, values: &mut Values) {
    let probes = tr.enter("probes");
    let mut rng = SimRng::from_seed(cfg.seed).fork(0xBE7C);
    let servers = cfg.servers;

    let s = tr.enter("simcore.queue");
    let delays: Vec<SimDuration> = (0..RING)
        .map(|_| SimDuration::from_nanos(1 + rng.below(1_000_000)))
        .collect();
    let mut queue: EventQueue<u64> = EventQueue::new();
    for (i, &d) in delays.iter().cycle().take(700).enumerate() {
        queue.schedule_after(d, i as u64);
    }
    let per_op = ns_per_op(iters, |i| {
        let (at, ev) = queue.pop().expect("the queue stays 700 deep");
        queue.schedule_at(at + delays[i % RING], black_box(ev));
    });
    values.put("simcore.queue_ns_per_op", per_op);
    tr.exit(s);

    let s = tr.enter("topology");
    let build_ns = ns_per_op(iters, |_| {
        black_box(FatTree::new(black_box(cfg.arity)).expect("validated arity"));
    });
    values.put("topology.build_s", build_ns / 1e9);
    let topo = FatTree::new(cfg.arity).expect("validated arity");
    let routes: Vec<(HostId, SwitchId, HostId)> = (0..RING)
        .map(|_| {
            (
                HostId(rng.below(u64::from(topo.num_hosts())) as u32),
                SwitchId(rng.below(u64::from(topo.num_switches())) as u32),
                HostId(rng.below(u64::from(topo.num_hosts())) as u32),
            )
        })
        .collect();
    let per_op = ns_per_op(iters, |i| {
        let (src, via, dst) = routes[i % RING];
        black_box(topo.hops(src, dst) + topo.hops_via(src, via, dst));
    });
    values.put("topology.hops_ns", per_op);
    tr.exit(s);

    let s = tr.enter("kvstore");
    let ring_seed = rng.next_u64();
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(Ring::new(servers, cfg.vnodes, cfg.replication, ring_seed).expect("ring"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    values.put("kvstore.ring_build_s", median(&builds));
    let ring = Ring::new(servers, cfg.vnodes, cfg.replication, ring_seed).expect("ring");
    let zipf = Zipf::new(cfg.keys, cfg.zipf);
    let keys: Vec<u64> = (0..64 * RING).map(|_| zipf.sample(&mut rng)).collect();
    let per_op = ns_per_op(iters, |i| {
        black_box(ring.replicas_for_key(keys[i % keys.len()]));
    });
    values.put("kvstore.replicas_ns", per_op);
    tr.exit(s);

    let s = tr.enter("selection");
    let now = SimTime::from_nanos(1_000_000);
    let feedback = |server: ServerId| Feedback {
        server,
        queue_len: server.0 % 8,
        service_time: cfg.server.base_service_time,
        latency: cfg.server.base_service_time * 2,
    };
    let mut c3 = C3Selector::new(cfg.c3, rng.fork(1));
    for sv in (0..servers).map(ServerId) {
        c3.on_send(sv, now);
        c3.on_response(&feedback(sv), now);
    }
    let candidates: Vec<[ServerId; 3]> = (0..RING)
        .map(|_| {
            let first = rng.below(u64::from(servers)) as u32;
            [0, 1, 2].map(|k| ServerId((first + k) % servers))
        })
        .collect();
    let per_op = ns_per_op(iters, |i| {
        black_box(c3.select(&candidates[i % RING], now));
    });
    values.put("selection.c3_select_ns", per_op);
    let per_op = ns_per_op(iters, |i| {
        let sv = candidates[i % RING][0];
        c3.on_send(sv, now);
        c3.on_response(&feedback(sv), now);
    });
    values.put("selection.c3_feedback_ns", per_op);
    tr.exit(s);

    let s = tr.enter("netdev");
    let mut cache = HotKeyCache::new(HotCacheConfig {
        capacity: 1024,
        admission: CacheAdmission::Lru,
        write_policy: CacheWritePolicy::Invalidate,
    });
    let per_op = ns_per_op(iters / 8, |i| {
        let key = keys[i % keys.len()];
        if cache.lookup(key).is_none() {
            black_box(cache.admit(key, 1, ServerId(0)));
        }
    });
    values.put("netdev.cache_ns_per_op", per_op);
    let mut accel = Accelerator::new(cfg.accelerator);
    let mut handed_off = 0u64;
    let per_op = ns_per_op(iters, |_| {
        handed_off += 6_000;
        black_box(accel.schedule_selection_timed(SimTime::from_nanos(handed_off)));
    });
    values.put("netdev.accel_schedule_ns", per_op);
    // The rules a ToR plan deploys, and a request entering at its ToR.
    let clients: Vec<HostId> = (0..cfg.clients).map(HostId).collect();
    let groups = TrafficGroups::build(&topo, &clients, cfg.granularity);
    let mut controller = NetRsController::new(topo.clone(), ControllerConfig::default());
    controller.install(Rsp::tor_plan(&groups));
    let rules = controller.deploy(&groups);
    let packets: Vec<(&NetRsRules, PacketMeta)> = (0..RING)
        .map(|i| {
            let client = clients[i % clients.len()];
            let packet = PacketMeta::Request {
                rid: RsnodeId(0),
                magic: MagicField::REQUEST,
                rgid: 5,
                src_host: client.0,
                dst_host: topo.num_hosts() - 1,
            };
            (&rules[&topo.tor_of_host(client)], packet)
        })
        .collect();
    let per_op = ns_per_op(iters, |i| {
        let (rules, mut packet) = packets[i % RING];
        black_box(rules.ingress(&mut packet, true));
    });
    values.put("netdev.ingress_ns", per_op);
    tr.exit(s);
    tr.exit(probes);
}

/// Rebuilds the placement instance the run solved and times its pieces.
///
/// The host placement mirrors `netrs_sim`'s private `Core::new` through
/// `SimRng`'s public API (uniform demand, as every workload here has);
/// the returned plan is checked against the run's own, so a drift fails
/// loudly instead of timing another instance.
fn placement_probe(tr: &mut Tracer, cfg: &SimConfig) -> (Rsp, PlanSolveStats) {
    let probe = tr.enter("placement");
    let cfg = cfg.clone().finalize();
    let topo = FatTree::new(cfg.arity).expect("validated arity");
    let mut rng = SimRng::from_seed(cfg.seed).fork(0);
    let picks = rng.sample_indices(
        topo.num_hosts() as usize,
        (cfg.servers + cfg.clients) as usize,
    );
    let mut picks: Vec<HostId> = picks.into_iter().map(|h| HostId(h as u32)).collect();
    rng.shuffle(&mut picks);
    let (servers, clients) = picks.split_at(cfg.servers as usize);
    let rate = cfg.arrival_rate() / f64::from(cfg.clients);
    let rates: Vec<(HostId, f64)> = clients.iter().map(|&h| (h, rate)).collect();

    let s = tr.enter("core.problem_build");
    let groups = TrafficGroups::build(&topo, clients, cfg.granularity);
    let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, servers);
    let problem = PlacementProblem::new(&topo, &groups, &traffic, &cfg.plan);
    tr.exit(s);
    let s = tr.enter("core.greedy");
    black_box(problem.solve_greedy());
    tr.exit(s);
    let s = tr.enter("ilp.solve");
    let solved = problem.solve_with_stats(cfg.plan_solver);
    tr.exit(s);
    let s = tr.enter("core.to_ilp");
    let (model, _, _) = problem.to_ilp(&BTreeSet::new());
    tr.exit(s);
    let s = tr.enter("ilp.lp_root");
    black_box(netrs_ilp::solve_lp(&model));
    tr.exit(s);
    tr.exit(probe);
    solved
}

/// Ungated: on this VM two threads are bimodal (see README), so the probe
/// only records what they did this time.
fn threads2_probe(tr: &mut Tracer, cfg: &SimConfig, requests: u64, values: &mut Values) {
    let probe = tr.enter("simcore.threads2");
    let mut cfg = cfg.clone();
    cfg.requests = requests;
    let (mut one, mut two, mut busy_share) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        for threads in [1, 2] {
            let t = Instant::now();
            let (_, busy) = traced_windowed(tr, cfg.clone(), threads);
            let wall = t.elapsed().as_secs_f64();
            if threads == 1 {
                one.push(wall);
            } else {
                two.push(wall);
                let busy_s = busy.map_or(0.0, |b| b.iter().sum::<u64>() as f64 / 1e9);
                busy_share.push(busy_s / (2.0 * wall));
            }
        }
    }
    tr.exit(probe);
    values.put("simcore.threads2_speedup", median(&one) / median(&two));
    values.put_median("simcore.threads2_wall_s", two);
    values.put_median("simcore.threads2_busy_share", busy_share);
}

/// Runs rounds of (child for reference, the same run in-process with
/// spans) for about half of `ctx.seconds`, then the layer probes.
pub fn run(ctx: &Ctx, w: &Workload, inputs: &Inputs, dir: &Path) -> Result<PassResult, String> {
    let mut res = PassResult::default();
    let cfg = load_config(inputs)?;
    let windowed = w.name == workloads::READ_CLIRS_WINDOWED;
    let mut tr = Tracer::new();
    let mut child_walls = Vec::new();
    let mut last: Option<Traced> = None;
    // On the windowed workload, the sequential engine's loop on the same
    // config: the base the window overhead is measured against.
    let mut seq_loop_ns_per_event = Vec::new();

    let budget = Duration::from_secs(ctx.seconds) / 2;
    let started = Instant::now();
    let mut rounds = 0u32;
    loop {
        let child = run_child(
            &ctx.simulate,
            &inputs.child_args(w, false),
            &dir.join("stats.json"),
        )?;
        res.attempted += 1;
        if let Err(e) = check_stats(w, &child, inputs.requests) {
            res.failures.push(format!("{}: {e}", w.name));
            break;
        }
        child_walls.push(child.wall_s);

        let round = tr.enter("round");
        let traced = if windowed {
            let s = tr.enter("reference");
            let seq = traced_sequential(&mut tr, cfg.clone());
            tr.exit(s);
            let loop_s = *tr.seconds("sim.loop").last().expect("the reference ran");
            seq_loop_ns_per_event.push(loop_s * 1e9 / seq.stats.events as f64);
            traced_windowed(&mut tr, cfg.clone(), 1).0
        } else {
            traced_sequential(&mut tr, cfg.clone())
        };
        tr.exit(round);
        res.attempted += 1;
        // The spans decompose the run the child made only if it is the
        // same run: same bytes out.
        if traced.json != child.stdout {
            res.failures.push(format!(
                "{}: the in-process run's stats differ from the CLI's",
                w.name
            ));
        }
        res.stats_digest = digest(traced.json.as_bytes());
        last = Some(traced);
        rounds += 1;
        let elapsed = started.elapsed();
        if elapsed + elapsed / rounds > budget {
            break;
        }
    }
    let Some(traced) = last else {
        return Ok(res);
    };

    let mut values = Values::default();
    let wall_s = median(&child_walls);
    phase_metrics(
        &mut values,
        &tr,
        &traced.stats,
        wall_s,
        &seq_loop_ns_per_event,
    );
    run_counters(&mut values, &traced);
    layer_probes(&mut tr, &cfg, ctx.scale.count(200_000), &mut values);
    if cfg.scheme == Scheme::NetRsIlp {
        let (plan, solve) = placement_probe(&mut tr, &cfg);
        res.attempted += 1;
        if traced.plan.as_ref() != Some(&plan) {
            res.failures.push(
                "the placement probe solved another instance than the run: \
                 its mirror of the simulator's host placement has drifted"
                    .into(),
            );
        }
        if solve.greedy {
            res.failures
                .push("the ILP fell back to the greedy plan".into());
        }
        values.put_median("core.problem_build_s", tr.seconds("core.problem_build"));
        values.put_median("core.greedy_s", tr.seconds("core.greedy"));
        values.put("core.rsnodes", plan.rsnodes().len() as f64);
        values.put_median("ilp.solve_s", tr.seconds("ilp.solve"));
        values.put_median("ilp.lp_root_s", tr.seconds("ilp.lp_root"));
        values.put("ilp.variables", solve.variables as f64);
        values.put("ilp.constraints", solve.constraints as f64);
        values.put("ilp.lp_iterations", solve.lp_iterations as f64);
        values.put("ilp.branch_nodes", solve.branch_nodes as f64);
        values.put("ilp.objective", solve.objective);
        values.put("ilp.greedy", f64::from(u8::from(solve.greedy)));
    }
    if windowed {
        threads2_probe(&mut tr, &cfg, ctx.scale.count(300_000), &mut values);
    }

    tr.write(&dir.join("spans.json"))?;
    res.metrics = report::tabulate(&PER_LAYER, &values);
    Ok(res)
}

/// The `sim` phases and what follows from them. `seq_loop_ns_per_event`
/// is empty except on the windowed workload.
fn phase_metrics(
    values: &mut Values,
    tr: &Tracer,
    stats: &RunStats,
    wall_s: f64,
    seq_loop_ns_per_event: &[f64],
) {
    let events = stats.events as f64;
    // `sim.run` also names the reference and probe runs; the workload's
    // own are the direct children of a round.
    let run_s = tr
        .spans
        .iter()
        .filter(|s| s.name == "sim.run" && s.parent.is_some_and(|p| tr.spans[p].name == "round"))
        .map(Span::seconds)
        .collect();
    let run_s = values.put_median("sim.run_s", run_s);
    let build_s = values.put_median("sim.build_s", tr.seconds("sim.build"));
    let prime_s = values.put_median("sim.prime_s", tr.seconds("sim.prime"));
    let serialize_s = values.put_median("sim.serialize_s", tr.seconds("sim.serialize"));
    let (loop_s, phases) = if seq_loop_ns_per_event.is_empty() {
        let loop_s = values.put_median("sim.loop_s", tr.seconds("sim.loop"));
        let stats_s = values.put_median("sim.stats_s", tr.seconds("sim.stats"));
        let teardown_s = values.put_median("sim.teardown_s", tr.seconds("sim.teardown"));
        let phases = build_s + prime_s + loop_s + stats_s + serialize_s + teardown_s;
        (loop_s, phases)
    } else {
        // Build and prime are the sequential reference's; the loop is
        // what is left of the one span there is.
        let loop_s = run_s - build_s - prime_s - serialize_s;
        values.put("sim.loop_s", loop_s);
        let sequential = median(seq_loop_ns_per_event);
        let windowed = loop_s * 1e9 / events;
        values.put("simcore.window_overhead_share", 1.0 - sequential / windowed);
        (loop_s, run_s)
    };
    values.put("sim.unattributed_share", 1.0 - phases / wall_s);
    values.put("sim.tracing_overhead_share", run_s / wall_s - 1.0);
    values.put("sim.events_per_request", events / stats.issued as f64);
    values.put("sim.loop_ns_per_event", loop_s * 1e9 / events);
}

/// Counts and simulated statistics the run itself made, by layer.
fn run_counters(values: &mut Values, traced: &Traced) {
    let stats = &traced.stats;
    values.put("simcore.events", stats.events as f64);
    if let Some(p) = &traced.profile {
        values.put("simcore.queue_high_water", p.queue_high_water as f64);
    }
    if let Some(p) = &stats.parallel {
        values.put("simcore.windows", p.windows as f64);
        values.put(
            "simcore.events_per_window",
            p.events_per_window(stats.events),
        );
        values.put("simcore.mailbox_posted", p.mailbox_posted as f64);
        values.put("simcore.mailbox_late", p.mailbox_late as f64);
    }
    values.put("kvstore.server_utilization", stats.mean_server_utilization);
    values.put(
        "kvstore.write_mean_ms",
        stats.write_latency.mean.as_millis_f64(),
    );
    values.put("netdev.accel_utilization", stats.mean_accel_utilization);
    values.put(
        "netdev.selection_wait_us",
        stats.mean_selection_wait.as_micros_f64(),
    );
    if let Some(rw) = &stats.rw {
        let gets = (rw.cache_hits + rw.cache_misses).max(1);
        values.put("kvstore.writes_completed", rw.writes_completed as f64);
        values.put("netdev.cache_hit_ratio", rw.cache_hits as f64 / gets as f64);
        values.put("netdev.cache_evictions", rw.cache_evictions as f64);
        values.put("netdev.cache_invalidations", rw.cache_invalidations as f64);
        values.put("netdev.stale_reads", rw.stale_reads as f64);
    }
    if let Some(a) = &stats.availability {
        values.put("faults.timeouts", a.timeouts as f64);
        values.put("faults.retries", a.retries as f64);
        values.put("faults.copies_dropped", a.copies_dropped as f64);
    }
}
