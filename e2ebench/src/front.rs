//! The benchmark's two instrumentation seams, both outside the program:
//! a [`tpm::Transport`] over a real [`TpmFront`] and an [`AccessHook`]
//! over the shipped [`ImprovedHook`]. Every layer time is taken around a
//! public call; nothing inside the program is modified or stamped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use tpm::Transport;
use vtpm::{
    AccessDecision, AccessHook, Envelope, RequestContext, ResponseEnvelope, ResponseStatus,
    TpmFront, VtpmManager, VTPM_FAIL_RC,
};
use vtpm_ac::ImprovedHook;

/// Process-wide origin of span timestamps.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
pub fn stamp(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

/// Fresh span id (only drawn for recorded spans, so contention is nil).
pub fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One recorded span. `parent == 0` marks a root (an op).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Claimed domain and envelope sequence number: the key that joins a
    /// backend-thread `authorize` span to the command that caused it.
    pub domain: u32,
    pub seq: u64,
    /// Operation name on op spans, empty elsewhere.
    pub label: &'static str,
}

/// Per-layer wall time, summed over commands (ns).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub build: u64,
    pub transact: u64,
    pub codec: u64,
    pub authorize: u64,
    pub execute: u64,
    pub refresh: u64,
    /// Every `transact_envelope` duration, for its tail.
    pub transact_samples: Vec<u64>,
}

impl Layers {
    pub fn merge(&mut self, o: Layers) {
        self.build += o.build;
        self.transact += o.transact;
        self.codec += o.codec;
        self.authorize += o.authorize;
        self.execute += o.execute;
        self.refresh += o.refresh;
        self.transact_samples.extend(o.transact_samples);
    }
}

/// What one frontend saw since its stats were last taken.
#[derive(Debug, Default)]
pub struct FrontStats {
    /// Commands sent.
    pub cmds: u64,
    /// Commands answered with anything but `ResponseStatus::Ok`, or lost.
    pub refused: u64,
    /// Per-command latency as the guest driver sees it: envelope signing
    /// plus the round trip (ns).
    pub cmd_ns: Vec<u64>,
    /// Modelled hardware-TPM cost of the commands sent
    /// (`tpm::command_cost_ns`).
    pub modelled_exec_ns: u64,
    /// Layer split; filled only while `traced`.
    pub layers: Layers,
    /// Spans of recorded commands.
    pub spans: Vec<Span>,
}

impl FrontStats {
    /// Total time spent in the transport (ns).
    pub fn transport_ns(&self) -> u64 {
        self.cmd_ns.iter().sum()
    }

    pub fn merge(&mut self, o: FrontStats) {
        self.cmds += o.cmds;
        self.refused += o.refused;
        self.cmd_ns.extend(o.cmd_ns);
        self.modelled_exec_ns += o.modelled_exec_ns;
        self.layers.merge(o.layers);
        self.spans.extend(o.spans);
    }
}

/// The Dom0 layers the direct run calls in place of the ring.
#[derive(Clone)]
pub struct Dom0 {
    pub manager: Arc<VtpmManager>,
    pub hook: Arc<ImprovedHook>,
}

/// A guest's TPM transport: a real [`TpmFront`] whose
/// [`TpmFront::build_envelope`] and [`TpmFront::transact_envelope`] are
/// timed from outside. With `direct` set the ring is bypassed and the Dom0
/// layers are called in the order `VtpmManager::handle` calls them.
pub struct BenchFront {
    pub front: TpmFront,
    pub direct: Option<Dom0>,
    /// Split command time into layers.
    pub traced: bool,
    /// Span id of the op in progress, when its spans are being recorded.
    pub op_span: u64,
    pub stats: FrontStats,
}

impl BenchFront {
    pub fn new(front: TpmFront) -> Self {
        BenchFront {
            front,
            direct: None,
            traced: false,
            op_span: 0,
            stats: FrontStats::default(),
        }
    }

    pub fn take_stats(&mut self) -> FrontStats {
        std::mem::take(&mut self.stats)
    }

    fn span(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        t0: Instant,
        t1: Instant,
        seq: u64,
    ) {
        self.stats.spans.push(Span {
            name,
            id,
            parent,
            start_ns: stamp(t0),
            dur_ns: ns(t1 - t0),
            domain: self.front.domain.0,
            seq,
            label: "",
        });
    }

    /// The Dom0 side of one request without the ring, mirroring
    /// `VtpmManager::handle`: decode, authorize, execute + mirror refresh
    /// under the instance lock (`with_instance`), encode. `cmd_span` is
    /// the parent for layer spans (0: record none).
    fn serve_direct(&mut self, dom0: &Dom0, env: &Envelope, cmd_span: u64) -> ResponseEnvelope {
        let a = Instant::now();
        let wire = env.encode();
        let req = Envelope::decode(&wire).expect("a freshly encoded envelope decodes");
        let b = Instant::now();
        let ctx = RequestContext {
            request_id: 0,
            source_domain: self.front.domain,
            claimed_domain: req.domain,
            instance: req.instance,
            seq: req.seq,
            locality: req.locality,
            ordinal: tpm::ordinal_of(&req.command),
            tag: req.tag.as_ref(),
            command: &req.command,
        };
        let decision = dom0.hook.authorize(&ctx);
        let c = Instant::now();
        let (status, body, exec) = if decision == AccessDecision::Allow {
            let mut exec = (c, c);
            let body = dom0.manager.with_instance(req.instance, |i| {
                let t = Instant::now();
                let body = i.execute(req.locality, &req.command);
                exec = (t, Instant::now());
                body
            });
            match body {
                Some(body) => (ResponseStatus::Ok, body, exec),
                None => (ResponseStatus::NoInstance, Vec::new(), exec),
            }
        } else {
            (ResponseStatus::Denied, Vec::new(), (c, c))
        };
        let d = Instant::now();
        let out = ResponseEnvelope {
            seq: req.seq,
            status,
            body,
        }
        .encode();
        let resp = ResponseEnvelope::decode(&out).expect("a freshly encoded response decodes");
        let f = Instant::now();
        if self.traced {
            let l = &mut self.stats.layers;
            l.codec += ns(b - a) + ns(f - d);
            l.authorize += ns(c - b);
            l.execute += ns(exec.1 - exec.0);
            l.refresh += ns(d - c) - ns(exec.1 - exec.0);
            if cmd_span != 0 {
                let seq = req.seq;
                self.span("vtpm.transport.decode", next_span_id(), cmd_span, a, b, seq);
                self.span("vtpm-ac.authorize", next_span_id(), cmd_span, b, c, seq);
                let wi = next_span_id();
                self.span("vtpm.manager.with_instance", wi, cmd_span, c, d, seq);
                self.span("tpm.execute", next_span_id(), wi, exec.0, exec.1, seq);
                self.span("vtpm.transport.encode", next_span_id(), cmd_span, d, f, seq);
            }
        }
        resp
    }
}

impl Transport for BenchFront {
    fn transact(&mut self, cmd: &[u8]) -> Vec<u8> {
        let record = self.traced && self.op_span != 0;
        let cmd_span = if record { next_span_id() } else { 0 };
        let t0 = Instant::now();
        let env = self.front.build_envelope(cmd);
        let t1 = Instant::now();
        let direct = self.direct.take();
        let resp = match &direct {
            Some(dom0) => Ok(self.serve_direct(dom0, &env, cmd_span)),
            None => self.front.transact_envelope(&env),
        };
        let t2 = Instant::now();
        self.direct = direct;

        let s = &mut self.stats;
        s.cmds += 1;
        s.cmd_ns.push(ns(t2 - t0));
        s.modelled_exec_ns += tpm::ordinal_of(cmd).map(tpm::command_cost_ns).unwrap_or(0);
        if self.traced {
            s.layers.build += ns(t1 - t0);
            if self.direct.is_none() {
                s.layers.transact += ns(t2 - t1);
                s.layers.transact_samples.push(ns(t2 - t1));
            }
        }
        if record {
            let (op, seq) = (self.op_span, env.seq);
            self.span("tpm.command", cmd_span, op, t0, t2, seq);
            self.span(
                "vtpm.front.build_envelope",
                next_span_id(),
                cmd_span,
                t0,
                t1,
                seq,
            );
            if self.direct.is_none() {
                self.span(
                    "vtpm.front.transact_envelope",
                    next_span_id(),
                    cmd_span,
                    t1,
                    t2,
                    seq,
                );
            }
        }
        match resp {
            Ok(r) if r.status == ResponseStatus::Ok => r.body,
            _ => {
                self.stats.refused += 1;
                // The same synthesized TPM_FAIL reply `TpmFront` gives, so
                // the client surfaces a uniform error.
                let mut out = Vec::with_capacity(10);
                out.extend_from_slice(&0x00C4u16.to_be_bytes());
                out.extend_from_slice(&10u32.to_be_bytes());
                out.extend_from_slice(&VTPM_FAIL_RC.to_be_bytes());
                out
            }
        }
    }
}

/// An [`AccessHook`] that times the shipped hook in the backend thread.
/// It delegates `overhead_ns`, so the virtual clock advances exactly as
/// with the bare hook.
pub struct TimedHook {
    inner: Arc<ImprovedHook>,
    pub calls: AtomicU64,
    pub wall_ns: AtomicU64,
    pub modelled_ns: AtomicU64,
    span_cap: u64,
    spans: Mutex<Vec<Span>>,
}

impl TimedHook {
    pub fn new(inner: Arc<ImprovedHook>, span_cap: u64) -> Self {
        TimedHook {
            inner,
            calls: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            modelled_ns: AtomicU64::new(0),
            span_cap,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The recorded spans, parent unset: they are joined to their command
    /// by (domain, seq) at export.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"))
    }
}

impl AccessHook for TimedHook {
    fn authorize(&self, ctx: &RequestContext<'_>) -> AccessDecision {
        let t0 = Instant::now();
        let decision = self.inner.authorize(ctx);
        let t1 = Instant::now();
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        self.wall_ns.fetch_add(ns(t1 - t0), Ordering::Relaxed);
        if call < self.span_cap {
            self.spans.lock().expect("span lock poisoned").push(Span {
                name: "vtpm-ac.authorize",
                id: next_span_id(),
                parent: 0,
                start_ns: stamp(t0),
                dur_ns: ns(t1 - t0),
                domain: ctx.claimed_domain,
                seq: ctx.seq,
                label: "",
            });
        }
        decision
    }

    fn overhead_ns(&self, ctx: &RequestContext<'_>) -> u64 {
        let modelled = self.inner.overhead_ns(ctx);
        self.modelled_ns.fetch_add(modelled, Ordering::Relaxed);
        modelled
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
