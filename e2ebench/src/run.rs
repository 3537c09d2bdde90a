//! Set-up, the closed-loop ring and direct runs, the output checks, and
//! the metrics each run yields.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpm_crypto::drbg::Drbg;
use vtpm::{AccessHook, ManagerStatsSnapshot, MirrorIoStats};
use vtpm_ac::{AuditLog, SecurePlatform};
use workload::{CommandMix, GuestSession};

use crate::clock;
use crate::front::{next_span_id, stamp, BenchFront, Dom0, FrontStats, Span, TimedHook};

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub guests: usize,
    /// Client threads; each owns `guests / clients` guests and drives them
    /// in turn, one operation outstanding at a time.
    pub clients: usize,
    pub mix: fn() -> CommandMix,
    /// Ops completed (warm-up included) at which `peak_rss_mb` is read, so
    /// memory is compared at equal work even when a change speeds the
    /// system up.
    pub rss_at_ops: u64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "measure-1vm",
        guests: 1,
        clients: 1,
        mix: CommandMix::measurement,
        rss_at_ops: 60_000,
    },
    Workload {
        name: "attest-1vm",
        guests: 1,
        clients: 1,
        mix: CommandMix::attestation_heavy,
        rss_at_ops: 40_000,
    },
    Workload {
        name: "tenants-64",
        guests: 64,
        clients: 2,
        mix: CommandMix::light,
        rss_at_ops: 10_000,
    },
];

/// Ops of the direct run whose counter deltas give the count metrics.
const COUNT_OPS: u64 = 2_000;
/// Commands per run whose spans are kept for `--trace-out` (the ring and
/// the direct run each keep this many).
const SPAN_CMDS: u64 = 5_000;

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    Seconds(f64),
    Ops(u64),
}

impl Window {
    fn part(self, share: f64) -> Window {
        match self {
            Window::Seconds(s) => Window::Seconds(s * share),
            Window::Ops(n) => Window::Ops(((n as f64 * share) as u64).max(1)),
        }
    }
}

/// Run size: the measured window and the number of resident guests.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub window: Window,
    pub guests: usize,
}

/// One run's printed result.
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Diagnostics printed beside the metrics but left out of the result
    /// object (constants of the cost model, sample counts).
    pub notes: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty when the run is correct.
    pub failures: Vec<String>,
    /// Spans by run ("ring" / "direct"), for `--trace-out`.
    pub spans: Vec<(&'static str, Span)>,
}

impl Report {
    fn new(workload: &'static str) -> Self {
        Report {
            workload,
            metrics: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

// ---- set-up ---------------------------------------------------------------

/// A booted platform with its guests' prepared sessions. Sessions drop
/// before the platform, whose drop stops and joins every backend thread.
struct Rig {
    sessions: Vec<GuestSession<BenchFront>>,
    instances: Vec<u32>,
    sp: SecurePlatform,
}

struct SetupTimes {
    /// Own time (see [`clock`]) of the whole set-up, in seconds.
    own_s: f64,
    launch: Vec<Duration>,
    prepare: Vec<Duration>,
}

/// Boot the improved platform and launch and prepare every guest. The
/// platform's key material is fixed per workload, not drawn from the seed:
/// RSA keygen time varies several-fold with the prime search, so every
/// set-up must be the same work for the median of a run's set-ups, and
/// `setup_s` across runs, to compare. (With a key seed per set-up, one
/// measure-1vm run's set-ups ranged 0.085–0.20 s and their median jumped
/// by a fifth between runs.) Guest secrets come from the seed.
fn setup(wl: &Workload, seed: u64, guests: usize) -> Result<(Rig, SetupTimes), String> {
    let own0 = clock::own_s();
    let pseed = format!("e2e/{}/platform", wl.name);
    let sp = SecurePlatform::full(pseed.as_bytes()).map_err(|e| format!("platform boot: {e:?}"))?;
    let mut times = SetupTimes {
        own_s: 0.0,
        launch: Vec::new(),
        prepare: Vec::new(),
    };
    let mut sessions = Vec::with_capacity(guests);
    let mut instances = Vec::with_capacity(guests);
    for i in 0..guests {
        let t = Instant::now();
        let guest = sp
            .launch_guest(&format!("g{i}"))
            .map_err(|e| format!("launch g{i}: {e:?}"))?;
        times.launch.push(t.elapsed());
        instances.push(guest.instance);
        let t = Instant::now();
        let secret = format!("e2e/{seed}/guest/{i}/session");
        let mut session = GuestSession::prepare(BenchFront::new(guest.front), secret.as_bytes())
            .map_err(|e| format!("prepare g{i}: {e}"))?;
        times.prepare.push(t.elapsed());
        // Set-up traffic is not part of any measured run.
        session.client_mut().transport_mut().take_stats();
        sessions.push(session);
    }
    times.own_s = clock::own_s() - own0;
    Ok((
        Rig {
            sessions,
            instances,
            sp,
        },
        times,
    ))
}

// ---- the closed loop ------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warmup = 0,
    Plain = 1,
    Traced = 2,
}

struct Phase {
    kind: Kind,
    window: Window,
    ops_left: AtomicI64,
}

impl Phase {
    fn new(kind: Kind, window: Window) -> Self {
        let ops = match window {
            Window::Ops(n) => n as i64,
            Window::Seconds(_) => i64::MAX,
        };
        Phase {
            kind,
            window,
            ops_left: AtomicI64::new(ops),
        }
    }

    /// Claim one more op for this phase.
    fn take(&self, start: Instant) -> bool {
        match self.window {
            Window::Seconds(s) => start.elapsed().as_secs_f64() < s,
            Window::Ops(_) => self.ops_left.fetch_sub(1, Ordering::Relaxed) > 0,
        }
    }
}

/// What the client threads saw in one kind of phase.
#[derive(Default)]
struct Acc {
    ops: u64,
    failed: u64,
    op_ns: Vec<u64>,
    wall_s: f64,
    /// Own time (see [`clock`]) the phase took.
    own_s: f64,
    front: FrontStats,
}

impl Acc {
    fn op_time_ns(&self) -> u64 {
        self.op_ns.iter().sum()
    }

    fn merge(&mut self, o: Acc) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.op_ns.extend(o.op_ns);
        self.wall_s += o.wall_s;
        self.own_s += o.own_s;
        self.front.merge(o.front);
    }
}

struct Active<'a> {
    session: &'a mut GuestSession<BenchFront>,
    ops: Drbg,
}

impl Active<'_> {
    fn front(&mut self) -> &mut BenchFront {
        self.session.client_mut().transport_mut()
    }
}

/// One client's guests, driven in turn.
struct Bucket<'a> {
    guests: Vec<Active<'a>>,
    cursor: usize,
}

struct Shared {
    mix: CommandMix,
    total_ops: AtomicU64,
    rss_at_ops: u64,
    rss_kb: AtomicU64,
    span_cmds: AtomicU64,
}

/// One client thread's share of one phase: closed-loop ops over its
/// guests, in turn, until the phase ends.
fn client(bucket: &mut Bucket<'_>, phase: &Phase, sh: &Shared) -> Acc {
    let mut acc = Acc::default();
    let traced = phase.kind == Kind::Traced;
    let start = Instant::now();
    while phase.take(start) {
        bucket.cursor = (bucket.cursor + 1) % bucket.guests.len();
        let g = &mut bucket.guests[bucket.cursor];
        let op = sh.mix.sample(&mut g.ops);
        let span = if traced && sh.span_cmds.load(Ordering::Relaxed) < SPAN_CMDS {
            next_span_id()
        } else {
            0
        };
        let cmds_before = g.front().stats.cmds;
        g.front().op_span = span;
        let t0 = Instant::now();
        let ok = g.session.run(op).is_ok();
        let t1 = Instant::now();
        let dur = (t1 - t0).as_nanos() as u64;
        acc.ops += 1;
        acc.failed += u64::from(!ok);
        acc.op_ns.push(dur);
        if span != 0 {
            let cmds = g.front().stats.cmds - cmds_before;
            sh.span_cmds.fetch_add(cmds, Ordering::Relaxed);
            g.front().op_span = 0;
            acc.front.spans.push(Span {
                name: "workload.op",
                id: span,
                parent: 0,
                start_ns: stamp(t0),
                dur_ns: dur,
                domain: g.front().front.domain.0,
                seq: 0,
                label: op.name(),
            });
        }
        if sh.total_ops.fetch_add(1, Ordering::Relaxed) + 1 == sh.rss_at_ops {
            sh.rss_kb.store(vm_hwm_kb(), Ordering::Relaxed);
        }
    }
    for g in bucket.guests.iter_mut() {
        acc.front.merge(g.front().take_stats());
    }
    acc
}

struct LoopResult {
    /// Per phase, merged over client threads.
    phases: Vec<Acc>,
    rss_kb: u64,
}

/// Which way requests travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Over the ring, from the workload's client threads.
    Ring,
    /// Straight into the Dom0 layers (`BenchFront::direct`), from one
    /// client thread.
    Direct,
}

/// Drive `phases` over every guest session. Each guest draws its ops from
/// its own seeded stream, one per path. `at_phase(k)` runs before phase
/// `k` (and with `k == phases.len()` after the last) while no client
/// runs. Every phase gets fresh client threads, so the scheduler places
/// them anew each time and no one placement decides a whole run.
fn closed_loop(
    sessions: &mut [GuestSession<BenchFront>],
    wl: &Workload,
    seed: u64,
    path: Path,
    phases: &[Phase],
    at_phase: &dyn Fn(usize),
) -> LoopResult {
    let clients = if path == Path::Ring { wl.clients } else { 1 };
    let sh = Shared {
        mix: (wl.mix)(),
        total_ops: AtomicU64::new(0),
        rss_at_ops: wl.rss_at_ops,
        rss_kb: AtomicU64::new(0),
        span_cmds: AtomicU64::new(0),
    };
    let mut buckets: Vec<Bucket<'_>> = (0..clients)
        .map(|_| Bucket {
            guests: Vec::new(),
            cursor: 0,
        })
        .collect();
    for (i, session) in sessions.iter_mut().enumerate() {
        let ops = Drbg::new(format!("e2e/{seed}/guest/{i}/ops/{path:?}").as_bytes());
        buckets[i % clients].guests.push(Active { session, ops });
    }
    let mut per_phase = Vec::with_capacity(phases.len());
    for (k, phase) in phases.iter().enumerate() {
        at_phase(k);
        for g in buckets.iter_mut().flat_map(|b| b.guests.iter_mut()) {
            g.front().traced = phase.kind == Kind::Traced;
        }
        let (start, own0) = (Instant::now(), clock::own_s());
        let mut acc = std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .iter_mut()
                .map(|bucket| {
                    let sh = &sh;
                    s.spawn(move || client(bucket, phase, sh))
                })
                .collect();
            let mut acc = Acc::default();
            for h in handles {
                acc.merge(h.join().expect("client thread panicked"));
            }
            acc
        });
        acc.wall_s = start.elapsed().as_secs_f64();
        acc.own_s = clock::own_s() - own0;
        per_phase.push(acc);
    }
    at_phase(phases.len());
    let rss_kb = match sh.rss_kb.load(Ordering::Relaxed) {
        0 => vm_hwm_kb(),
        kb => kb,
    };
    LoopResult {
        phases: per_phase,
        rss_kb,
    }
}

/// Merge per-phase results by kind: `[warm-up, plain, traced]`.
fn by_kind(per_phase: Vec<Acc>, phases: &[Phase]) -> [Acc; 3] {
    let mut out: [Acc; 3] = Default::default();
    for (acc, phase) in per_phase.into_iter().zip(phases) {
        out[phase.kind as usize].merge(acc);
    }
    out
}

// ---- counters and checks --------------------------------------------------

#[derive(Clone, Copy)]
struct Snap {
    stats: ManagerStatsSnapshot,
    io: MirrorIoStats,
    audit: u64,
    clock_ns: u64,
}

fn snap(sp: &SecurePlatform) -> Snap {
    let manager = &sp.platform.manager;
    Snap {
        stats: manager.stats_snapshot(),
        io: manager.mirror_io_stats(),
        audit: sp.hook.audit.len() as u64,
        clock_ns: sp.platform.hv.clock.now_ns(),
    }
}

/// Output checks on the whole run: no refusals or mirror failures, an
/// intact audit chain, and every resident image equal to its instance.
fn final_checks(rig: &Rig, report: &mut Report) {
    let s = rig.sp.platform.manager.stats_snapshot();
    report.check(s.denied == 0, || format!("{} requests denied", s.denied));
    report.check(s.errors == 0, || {
        format!("{} requests failed before dispatch", s.errors)
    });
    report.check(s.throttled == 0, || {
        format!("{} requests throttled", s.throttled)
    });
    report.check(s.mirror_failures == 0, || {
        format!("{} mirror failures", s.mirror_failures)
    });
    let audit = &rig.sp.hook.audit;
    report.check(audit.denials() == 0, || {
        format!("{} audited denials", audit.denials())
    });
    report.check(AuditLog::verify(&audit.entries()), || {
        "audit hash chain broken".into()
    });
    let manager = &rig.sp.platform.manager;
    for &id in &rig.instances {
        let same = match (
            manager.resident_image(id),
            manager.export_instance_state(id),
        ) {
            (Ok(image), Some(state)) => image == state,
            _ => false,
        };
        report.check(same, || {
            format!("instance {id}: resident image differs from its state")
        });
    }
}

fn check_ops(report: &mut Report, what: &str, acc: &Acc) {
    report.check(acc.failed == 0, || {
        format!("{what}: {} of {} ops failed", acc.failed, acc.ops)
    });
    report.check(acc.front.refused == 0, || {
        format!("{what}: {} commands refused or lost", acc.front.refused)
    });
}

// ---- the two modes --------------------------------------------------------

/// Set-ups per run, whose median is `setup_s`: a one-guest set-up takes
/// ~0.1 s and is repeated more; a 64-guest one takes ~4 s.
fn setup_reps(guests: usize) -> u32 {
    if guests > 8 {
        3
    } else {
        11
    }
}

/// The measured window is cut into this many equal sub-windows, and the
/// end-to-end metrics are the mean over the `BEST_WINDOWS` with the
/// highest throughput: the ones least disturbed by other load on the
/// host. On a 2-vCPU host whose speed swings ~30% with its neighbours'
/// load, ten seeded runs of measure-1vm spread (IQR over median) 43% in
/// `op_p90_us` with the median of all sub-windows, 18% with the best
/// half and 12% with the best quarter. A code change slows every
/// sub-window, so it still shows.
const SUB_WINDOWS: usize = 40;
const BEST_WINDOWS: usize = SUB_WINDOWS / 4;

/// Untimed warm-up before each ring run, as a share of the window. The
/// host's wake-up path speeds up over the first seconds of ping-pong
/// traffic (one traced measure-1vm run rose from 19k to 23k ops/s over
/// its first two seconds), so the warm-up is longer than caches alone
/// would need.
const WARMUP: f64 = 0.2;

/// P T T P blocks of the traced ring run. Short alternating segments let
/// the plain and traced rates see the same host load, which is what
/// `trace.overhead_pct` needs to resolve a few percent.
const RING_BLOCKS: usize = 12;

/// The untraced run: the end-to-end metrics.
pub fn run_untraced(wl: &Workload, seed: u64, plan: Plan) -> Result<Report, String> {
    let mut report = Report::new(wl.name);
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..setup_reps(plan.guests) {
        drop(rig.take());
        let (r, times) = setup(wl, seed, plan.guests)?;
        setups.push(times.own_s);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");

    let mut phases = vec![Phase::new(Kind::Warmup, plan.window.part(WARMUP))];
    let sub = plan.window.part(1.0 / SUB_WINDOWS as f64);
    phases.extend((0..SUB_WINDOWS).map(|_| Phase::new(Kind::Plain, sub)));
    let before = snap(&rig.sp);
    let mut res = closed_loop(&mut rig.sessions, wl, seed, Path::Ring, &phases, &|_| {});
    let after = snap(&rig.sp);

    // Per sub-window: ops/s, op p50, op p90, cmd p50, cmd p90.
    let mut subs: Vec<[f64; 5]> = res.phases[1..]
        .iter_mut()
        .map(|acc| {
            acc.op_ns.sort_unstable();
            acc.front.cmd_ns.sort_unstable();
            [
                acc.ops as f64 / acc.own_s,
                band_us(&acc.op_ns, 50.0),
                band_us(&acc.op_ns, 90.0),
                band_us(&acc.front.cmd_ns, 50.0),
                band_us(&acc.front.cmd_ns, 90.0),
            ]
        })
        .collect();
    subs.sort_by(|a, b| b[0].total_cmp(&a[0]));
    let best = &subs[..BEST_WINDOWS];
    let mean = |i: usize| best.iter().map(|s| s[i]).sum::<f64>() / best.len() as f64;
    let [warm, plain, _] = &by_kind(res.phases, &phases);

    check_ops(&mut report, "ring", plain);
    check_ops(&mut report, "warm-up", warm);
    let sent = warm.front.cmds + plain.front.cmds;
    conservation(&mut report, "ring", sent, &before, &after, true);
    final_checks(&rig, &mut report);

    report.metric("ops_per_s", mean(0), "1/s");
    report.metric("op_p50_us", mean(1), "us");
    report.metric("op_p90_us", mean(2), "us");
    report.metric("cmd_p50_us", mean(3), "us");
    report.metric("cmd_p90_us", mean(4), "us");
    report.metric("setup_s", median(&mut setups), "s");
    report.metric("peak_rss_mb", res.rss_kb as f64 / 1024.0, "MB");
    report.note(
        "error_rate",
        plain.failed as f64 / plain.ops.max(1) as f64,
        "ratio",
    );
    report.note("ops_per_wall_s", plain.ops as f64 / plain.wall_s, "1/s");
    report.note("op_samples", plain.ops as f64, "count");
    report.note("cmd_samples", plain.front.cmds as f64, "count");
    report.attempted = warm.ops + plain.ops;
    report.failed = warm.failed + plain.failed;
    Ok(report)
}

/// The traced run: the per-layer metrics. A direct run (no ring) first,
/// whose first `COUNT_OPS` ops give the exactly repeatable counts, then
/// the ring run with plain and traced segments alternating.
pub fn run_traced(wl: &Workload, seed: u64, plan: Plan) -> Result<Report, String> {
    let mut report = Report::new(wl.name);
    let (mut rig, times) = setup(wl, seed, plan.guests)?;
    report.metric("vtpm.launch_guest_ms", mean_ms(&times.launch), "ms");
    report.metric("workload.prepare_ms", mean_ms(&times.prepare), "ms");

    // (b) The direct run.
    let dom0 = Dom0 {
        manager: Arc::clone(&rig.sp.platform.manager),
        hook: Arc::clone(&rig.sp.hook),
    };
    for s in rig.sessions.iter_mut() {
        s.client_mut().transport_mut().direct = Some(dom0.clone());
    }
    let count_ops = match plan.window {
        Window::Ops(n) => COUNT_OPS.min(n),
        Window::Seconds(_) => COUNT_OPS,
    };
    let phases = [
        Phase::new(Kind::Plain, Window::Ops(count_ops)),
        Phase::new(Kind::Traced, plan.window.part(0.4)),
    ];
    let snaps = std::cell::RefCell::new(Vec::new());
    let take_snap = |_k: usize| snaps.borrow_mut().push(snap(&rig.sp));
    let direct = closed_loop(
        &mut rig.sessions,
        wl,
        seed,
        Path::Direct,
        &phases,
        &take_snap,
    );
    let snaps = snaps.into_inner();
    for s in rig.sessions.iter_mut() {
        s.client_mut().transport_mut().direct = None;
    }
    let [_, counted, timed] = &by_kind(direct.phases, &phases);
    check_ops(&mut report, "direct", counted);
    check_ops(&mut report, "direct", timed);
    let (first, mid, last) = (&snaps[0], &snaps[1], &snaps[2]);
    let direct_cmds = counted.front.cmds + timed.front.cmds;
    conservation(&mut report, "direct", direct_cmds, first, last, false);

    // (a) The in-place ring run: plain and traced segments in P T T P
    // blocks, so a linear drift weighs on both alike.
    let timed_hook = Arc::new(TimedHook::new(Arc::clone(&rig.sp.hook), SPAN_CMDS));
    let plain_hook: Arc<dyn AccessHook> = rig.sp.hook.clone();
    let traced_hook: Arc<dyn AccessHook> = timed_hook.clone();
    let (p, t) = (Kind::Plain, Kind::Traced);
    let mut phases = vec![Phase::new(Kind::Warmup, plan.window.part(WARMUP))];
    for _ in 0..RING_BLOCKS {
        phases.extend(
            [p, t, t, p].map(|k| Phase::new(k, plan.window.part(0.6 / (4 * RING_BLOCKS) as f64))),
        );
    }
    let manager = Arc::clone(&rig.sp.platform.manager);
    let install = |k: usize| {
        let traced = phases.get(k).is_some_and(|p| p.kind == Kind::Traced);
        manager.set_hook(if traced {
            traced_hook.clone()
        } else {
            plain_hook.clone()
        });
    };
    let before = snap(&rig.sp);
    let ring = closed_loop(&mut rig.sessions, wl, seed, Path::Ring, &phases, &install);
    let after = snap(&rig.sp);
    // Per block: the traced segments' rate against the plain ones beside
    // them.
    let mut overhead: Vec<f64> = ring.phases[1..]
        .chunks(4)
        .zip(phases[1..].chunks(4))
        .map(|(accs, kinds)| {
            let rate = |kind| {
                let (ops, own) = accs
                    .iter()
                    .zip(kinds)
                    .filter(|(_, p)| p.kind == kind)
                    .fold((0, 0.0), |(o, t), (a, _)| (o + a.ops, t + a.own_s));
                ops as f64 / own
            };
            100.0 * (1.0 - rate(Kind::Traced) / rate(Kind::Plain))
        })
        .collect();
    let [warm, plain, traced] = &by_kind(ring.phases, &phases);
    for (what, acc) in [("warm-up", warm), ("ring", plain), ("traced ring", traced)] {
        check_ops(&mut report, what, acc);
    }
    let ring_cmds = warm.front.cmds + plain.front.cmds + traced.front.cmds;
    conservation(&mut report, "ring", ring_cmds, &before, &after, true);
    final_checks(&rig, &mut report);

    // Ring-run layers, per command of the traced segments.
    let cmds = traced.front.cmds.max(1) as f64;
    let l = &traced.front.layers;
    let per_cmd_us = |ns: u64| ns as f64 / cmds / 1e3;
    let transact_us = per_cmd_us(l.transact);
    let hook_calls = timed_hook.calls.load(Ordering::Relaxed).max(1) as f64;
    let authorize_us = timed_hook.wall_ns.load(Ordering::Relaxed) as f64 / hook_calls / 1e3;
    let mut transact = l.transact_samples.clone();
    transact.sort_unstable();
    let client_us = per_cmd_us(
        traced
            .op_time_ns()
            .saturating_sub(traced.front.transport_ns()),
    );
    report.metric("tpm.client_self_us", client_us, "us");
    report.metric("vtpm.front.build_envelope_us", per_cmd_us(l.build), "us");
    report.metric("vtpm.front.transact_envelope_us", transact_us, "us");
    report.metric(
        "vtpm.front.transact_envelope_p99_us",
        pct_us(&transact, 99.0),
        "us",
    );
    report.metric("vtpm-ac.authorize_us", authorize_us, "us");

    // Direct-run layers, per command of the timed phase.
    let dcmds = timed.front.cmds.max(1) as f64;
    let d = &timed.front.layers;
    let per_dcmd_us = |ns: u64| ns as f64 / dcmds / 1e3;
    let codec = per_dcmd_us(d.codec);
    let execute = per_dcmd_us(d.execute);
    let refresh = per_dcmd_us(d.refresh);
    report.metric("vtpm.transport.codec_us", codec, "us");
    report.metric(
        "vtpm-ac.authorize_direct_us",
        per_dcmd_us(d.authorize),
        "us",
    );
    report.metric("tpm.execute_us", execute, "us");
    report.metric("vtpm.mirror.refresh_us", refresh, "us");
    // Derived, not timed: what the in-place round trip spends beyond the
    // Dom0 work it carries.
    report.metric(
        "xen-sim.ring_wait_us",
        transact_us - (codec + authorize_us + execute + refresh),
        "us",
    );
    let op_time = timed.op_time_ns();
    let client_self = op_time.saturating_sub(timed.front.transport_ns());
    let covered = client_self + d.build + d.codec + d.authorize + d.execute + d.refresh;
    report.metric(
        "trace.coverage_pct",
        100.0 * covered as f64 / op_time.max(1) as f64,
        "%",
    );
    report.metric("trace.overhead_pct", median(&mut overhead), "%");
    let mut op_ns = plain.op_ns.clone();
    let mut cmd_ns = plain.front.cmd_ns.clone();
    op_ns.sort_unstable();
    cmd_ns.sort_unstable();
    report.metric("op_p99_us", pct_us(&op_ns, 99.0), "us");
    report.metric("cmd_p99_us", pct_us(&cmd_ns, 99.0), "us");

    // Modelled beside measured: the virtual-time constants the program
    // charges for the same requests.
    let transport_cost_ns = rig.sp.platform.manager.config().transport_cost_ns;
    report.note(
        "xen-sim.ring_modelled_us",
        2.0 * transport_cost_ns as f64 / 1e3,
        "us",
    );
    let modelled_ac = timed_hook.modelled_ns.load(Ordering::Relaxed) as f64 / hook_calls / 1e3;
    report.metric("vtpm-ac.authorize_modelled_us", modelled_ac, "us");
    let ring_fronts = [&warm.front, &plain.front, &traced.front];
    let modelled_exec: u64 = ring_fronts.iter().map(|f| f.modelled_exec_ns).sum();
    report.metric(
        "tpm.execute_modelled_us",
        modelled_exec as f64 / ring_cmds.max(1) as f64 / 1e3,
        "us",
    );
    let virt_ns = after.clock_ns - before.clock_ns;
    report.metric(
        "virt_us_per_cmd",
        virt_ns as f64 / ring_cmds.max(1) as f64 / 1e3,
        "us",
    );

    // Counts over the first `count_ops` direct ops: exactly repeatable.
    let (c, io0, io1) = (counted.front.cmds.max(1) as f64, &first.io, &mid.io);
    let updates = io1.updates - io0.updates;
    let skipped = mid.stats.mirror_skipped - first.stats.mirror_skipped;
    report.metric(
        "tpm.cmds_per_op",
        counted.front.cmds as f64 / counted.ops.max(1) as f64,
        "count",
    );
    report.metric("vtpm.mirror.updates_per_cmd", updates as f64 / c, "count");
    report.metric(
        "vtpm.mirror.pages_per_cmd",
        (io1.data_pages_written - io0.data_pages_written) as f64 / c,
        "count",
    );
    report.metric(
        "vtpm.mirror.bytes_per_cmd",
        (io1.bytes_written - io0.bytes_written) as f64 / c,
        "B",
    );
    let clean = io1.clean_updates - io0.clean_updates;
    // Zero on every workload at this commit, so printed, not a metric.
    report.note(
        "vtpm.mirror.clean_update_ratio",
        clean as f64 / updates.max(1) as f64,
        "ratio",
    );
    report.metric(
        "vtpm.manager.mirror_skipped_ratio",
        skipped as f64 / c,
        "ratio",
    );
    report.metric("vtpm-ac.audit_entries", mid.audit as f64, "count");
    report.note("direct_cmd_samples", timed.front.cmds as f64, "count");
    report.note("traced_cmd_samples", traced.front.cmds as f64, "count");

    report.attempted = counted.ops + timed.ops + warm.ops + plain.ops + traced.ops;
    report.failed = counted.failed + timed.failed + warm.failed + plain.failed + traced.failed;
    report.spans = collect_spans(timed, traced, timed_hook.take_spans());
    Ok(report)
}

/// Commands sent must equal the audit entries appended and, when the
/// requests crossed the ring, the manager's finished requests.
fn conservation(
    report: &mut Report,
    what: &str,
    sent: u64,
    before: &Snap,
    after: &Snap,
    ring: bool,
) {
    let audited = after.audit - before.audit;
    let finished = after.stats.finished - before.stats.finished;
    report.check(sent == audited, || {
        format!("{what}: {sent} commands sent, {audited} audited")
    });
    let expect = if ring { sent } else { 0 };
    report.check(finished == expect, || {
        format!("{what}: {sent} commands sent, manager finished {finished}")
    });
}

/// Label spans by run and join backend `authorize` spans to the command
/// whose envelope they checked.
fn collect_spans(direct: &Acc, ring: &Acc, hook_spans: Vec<Span>) -> Vec<(&'static str, Span)> {
    let mut out: Vec<(&'static str, Span)> = direct
        .front
        .spans
        .iter()
        .map(|s| ("direct", s.clone()))
        .collect();
    let transact: HashMap<(u32, u64), u64> = ring
        .front
        .spans
        .iter()
        .filter(|s| s.name == "vtpm.front.transact_envelope")
        .map(|s| ((s.domain, s.seq), s.id))
        .collect();
    out.extend(ring.front.spans.iter().map(|s| ("ring", s.clone())));
    for mut s in hook_spans {
        if let Some(&parent) = transact.get(&(s.domain, s.seq)) {
            s.parent = parent;
            out.push(("ring", s));
        }
    }
    out
}

// ---- small helpers ---------------------------------------------------------

/// A smoothed percentile of sorted samples, in µs: the mean of the
/// samples between the (p-5)th and (p+5)th percentiles. Op and command
/// latencies are multi-modal (each command type has its own cluster), and
/// a plain percentile that falls between two clusters jumps from one to
/// the other when the mix shifts by a fraction of a percent; the band
/// mean moves smoothly instead.
fn band_us(sorted: &[u64], p: f64) -> f64 {
    let n = sorted.len();
    let lo = ((p - 5.0) / 100.0 * n as f64).floor() as usize;
    let hi = ((p + 5.0) / 100.0 * n as f64).ceil() as usize;
    let band = &sorted[lo.min(n)..hi.min(n)];
    if band.is_empty() {
        return 0.0;
    }
    band.iter().sum::<u64>() as f64 / band.len() as f64 / 1e3
}

/// Nearest-rank percentile of sorted samples, in µs.
fn pct_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean_ms(d: &[Duration]) -> f64 {
    d.iter().map(Duration::as_secs_f64).sum::<f64>() / d.len().max(1) as f64 * 1e3
}

/// `VmHWM` of this process in kB (0 when unreadable).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
