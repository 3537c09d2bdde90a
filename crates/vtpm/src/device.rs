//! The split driver: `tpmfront` in the guest, `tpmback` in Dom0.
//!
//! Wire-up follows the Xen device handshake: the toolstack provisions
//! XenStore nodes for both ends; the frontend allocates ring pages from
//! its own memory, grants them to Dom0, allocates an unbound event
//! channel and publishes everything in its device directory; the backend
//! reads those nodes, maps the grants, binds the channel, and serves.
//!
//! Because the ring pages are guest memory mapped into Dom0, every
//! command and response transits dumpable RAM — the `scrub` flag (part of
//! the improved configuration) wipes consumed messages behind itself.
//!
//! Dom0 runs one tpmback service loop (`TpmBackLoop`) for every guest,
//! as the paper's manager multiplexes all of its instances: one thread
//! blocks on Dom0's fired-port queue and serves whichever ring signalled.
//! Ring service is therefore serial on that thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};
use tpm::Transport;
use xen_sim::{
    ByteRing, DomainId, Endpoint, Fired, GrantAccess, GrantRef, Hypervisor, PageRegion, Perms,
    Port, Result as XenResult, RingDir, RingFault, XenError,
};

use crate::instance::InstanceId;
use crate::manager::VtpmManager;
use crate::transport::{Envelope, ResponseEnvelope, ResponseStatus};

/// Ring pages per device.
const RING_PAGES: usize = 2;

/// Synthesized TPM error body returned when the transport/manager refuses
/// a request (TPM_FAIL).
pub const VTPM_FAIL_RC: u32 = 9;

fn backend_dir(guest: DomainId) -> String {
    format!("/local/domain/0/backend/vtpm/{}/0", guest.0)
}

fn frontend_dir(guest: DomainId) -> String {
    format!("/local/domain/{}/device/vtpm/0", guest.0)
}

/// Toolstack step: create the XenStore scaffolding binding `guest` to
/// `instance`. Dom0-only.
pub fn provision_device(
    hv: &Hypervisor,
    guest: DomainId,
    instance: InstanceId,
) -> XenResult<()> {
    let bdir = backend_dir(guest);
    hv.xs_write(DomainId::DOM0, &format!("{bdir}/frontend-id"), guest.0.to_string().as_bytes())?;
    hv.xs_write(DomainId::DOM0, &format!("{bdir}/instance"), instance.to_string().as_bytes())?;
    hv.xs_write(DomainId::DOM0, &format!("{bdir}/state"), b"2")?;
    // The guest must be able to read its backend dir (to learn the
    // instance number), as in real Xen.
    hv.xs_set_perms(
        DomainId::DOM0,
        &bdir,
        Perms { owner: DomainId::DOM0, readers: vec![guest], writers: vec![] },
    )?;
    for leaf in ["frontend-id", "instance", "state"] {
        hv.xs_set_perms(
            DomainId::DOM0,
            &format!("{bdir}/{leaf}"),
            Perms { owner: DomainId::DOM0, readers: vec![guest], writers: vec![] },
        )?;
    }
    Ok(())
}

/// The guest-side driver. Implements [`tpm::Transport`], so a
/// [`tpm::TpmClient`] inside the guest drives its vTPM exactly as it
/// would a hardware chip.
pub struct TpmFront {
    hv: Arc<Hypervisor>,
    /// The guest this frontend runs in.
    pub domain: DomainId,
    /// The instance the device is bound to (from XenStore at connect).
    pub instance: InstanceId,
    ring: ByteRing,
    port: Endpoint,
    grants: Vec<GrantRef>,
    /// AC1 credential, provisioned by the domain builder outside XenStore.
    credential: Option<Vec<u8>>,
    /// Scrub responses from the ring after reading (improved hygiene).
    pub scrub: bool,
    seq: u64,
    next_msg_id: u32,
    /// How long to wait for the backend before giving up.
    pub timeout: Duration,
}

impl TpmFront {
    /// Connect the frontend: allocate ring pages, grant them, publish the
    /// device nodes. Call after [`provision_device`].
    pub fn connect(hv: Arc<Hypervisor>, domain: DomainId) -> XenResult<Self> {
        let bdir = backend_dir(domain);
        let instance: InstanceId = hv
            .xs_read_string(domain, &format!("{bdir}/instance"))?
            .parse()
            .map_err(|_| XenError::BadImage("instance number"))?;

        let mfns = hv.alloc_pages(domain, RING_PAGES)?;
        let ring = ByteRing::new(PageRegion::new(mfns.clone()))?;
        hv.with_memory_mut(|m| ring.init(m))?;
        let mut grants = Vec::with_capacity(RING_PAGES);
        for &mfn in &mfns {
            grants.push(hv.grant(domain, DomainId::DOM0, mfn, GrantAccess::ReadWrite)?);
        }
        let port = hv.events.alloc_unbound(domain, DomainId::DOM0);

        let fdir = frontend_dir(domain);
        for (i, g) in grants.iter().enumerate() {
            hv.xs_write(domain, &format!("{fdir}/ring-ref{i}"), g.slot.to_string().as_bytes())?;
        }
        hv.xs_write(domain, &format!("{fdir}/event-channel"), port.port.to_string().as_bytes())?;
        hv.xs_write(domain, &format!("{fdir}/state"), b"3")?;

        Ok(TpmFront {
            hv,
            domain,
            instance,
            ring,
            port,
            grants,
            credential: None,
            scrub: false,
            seq: 0,
            next_msg_id: 1,
            timeout: Duration::from_secs(10),
        })
    }

    /// Install the AC1 credential (done by the domain builder in the
    /// improved configuration — never via XenStore).
    pub fn set_credential(&mut self, key: Vec<u8>) {
        self.credential = Some(key);
    }

    /// Whether a credential is installed.
    pub fn has_credential(&self) -> bool {
        self.credential.is_some()
    }

    /// Current sequence number (next request uses seq+1).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Build the envelope for `command` without sending it (attack tooling
    /// reuses this to craft variants).
    pub fn build_envelope(&mut self, command: &[u8]) -> Envelope {
        self.seq += 1;
        let e = Envelope {
            domain: self.domain.0,
            instance: self.instance,
            seq: self.seq,
            locality: 0,
            tag: None,
            command: command.to_vec(),
        };
        match &self.credential {
            Some(key) => e.sign(key),
            None => e,
        }
    }

    /// Send a pre-built envelope and await the enveloped response.
    pub fn transact_envelope(&mut self, envelope: &Envelope) -> XenResult<ResponseEnvelope> {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        let bytes = envelope.encode();
        self.hv.with_memory_mut(|m| self.ring.write_msg(m, RingDir::FrontToBack, id, &bytes))?;
        self.hv.events.notify(self.port)?;

        let deadline = std::time::Instant::now() + self.timeout;
        loop {
            let msg = self.hv.with_memory_mut(|m| {
                if self.scrub {
                    self.ring.read_msg_scrub(m, RingDir::BackToFront)
                } else {
                    self.ring.read_msg(m, RingDir::BackToFront)
                }
            })?;
            if let Some((rid, payload)) = msg {
                if rid != id {
                    // Stale response from an aborted exchange; drop it.
                    continue;
                }
                return ResponseEnvelope::decode(&payload)
                    .map_err(|_| XenError::BadImage("response envelope"));
            }
            if std::time::Instant::now() >= deadline {
                return Err(XenError::BadPort);
            }
            // Block on this domain's queue until the backend signals, then
            // re-check.
            let fired = self.hv.events.pending(self.domain, Duration::from_millis(10));
            if fired == Some(Fired::Closed(self.port)) {
                return Err(XenError::BadPort);
            }
        }
    }

    /// Tear down: revoke grants (best effort) and close the channel.
    pub fn disconnect(self) {
        let _ = self.hv.events.close(self.port);
        for g in self.grants {
            let _ = self.hv.grant_revoke(g, self.domain);
        }
    }
}

impl Transport for TpmFront {
    fn transact(&mut self, cmd: &[u8]) -> Vec<u8> {
        let envelope = self.build_envelope(cmd);
        match self.transact_envelope(&envelope) {
            Ok(resp) if resp.status == ResponseStatus::Ok => resp.body,
            _ => {
                // Synthesize a TPM error so TpmClient surfaces a uniform
                // ClientError::Tpm(VTPM_FAIL_RC).
                let mut out = Vec::with_capacity(10);
                out.extend_from_slice(&0x00C4u16.to_be_bytes());
                out.extend_from_slice(&10u32.to_be_bytes());
                out.extend_from_slice(&VTPM_FAIL_RC.to_be_bytes());
                out
            }
        }
    }
}

/// The Dom0-side driver: maps the ring, binds the channel, and forwards
/// requests into the manager.
pub struct TpmBack {
    hv: Arc<Hypervisor>,
    manager: Arc<VtpmManager>,
    /// The frontend's domain (authoritative source identity).
    pub guest: DomainId,
    ring: ByteRing,
    port: Endpoint,
    /// The frontend's ring grants, as mapped at connect (held so a
    /// revocation fault can sever them the way a dying guest would).
    grants: Vec<GrantRef>,
    /// Scrub consumed requests from the ring (improved hygiene).
    pub scrub: bool,
}

impl TpmBack {
    /// Connect to `guest`'s published frontend.
    pub fn connect(
        hv: Arc<Hypervisor>,
        manager: Arc<VtpmManager>,
        guest: DomainId,
    ) -> XenResult<Self> {
        let fdir = frontend_dir(guest);
        let mut mfns = Vec::with_capacity(RING_PAGES);
        let mut grants = Vec::with_capacity(RING_PAGES);
        for i in 0..RING_PAGES {
            let slot: u32 = hv
                .xs_read_string(DomainId::DOM0, &format!("{fdir}/ring-ref{i}"))?
                .parse()
                .map_err(|_| XenError::BadImage("ring-ref"))?;
            let gref = GrantRef { granter: guest, slot };
            mfns.push(hv.grant_map(gref, DomainId::DOM0)?);
            grants.push(gref);
        }
        let ring = ByteRing::new(PageRegion::new(mfns))?;
        let fport: u32 = hv
            .xs_read_string(DomainId::DOM0, &format!("{fdir}/event-channel"))?
            .parse()
            .map_err(|_| XenError::BadImage("event-channel"))?;
        let port =
            hv.events.bind_interdomain(DomainId::DOM0, Endpoint { domain: guest, port: fport })?;
        hv.xs_write(DomainId::DOM0, &format!("{}/state", backend_dir(guest)), b"4")?;
        Ok(TpmBack { hv, manager, guest, ring, port, grants, scrub: false })
    }

    /// Re-point this backend at a different manager — the manager
    /// crash/restart path. The ring mappings and the event channel live
    /// in the (simulated) kernel and survive a manager-process restart;
    /// only the service behind them is replaced, so the guest's frontend
    /// never reconnects. Pair with [`VtpmManager::recover`].
    pub fn rebind(&mut self, manager: Arc<VtpmManager>) {
        self.manager = manager;
    }

    /// Drain and answer every queued request; returns how many were served.
    pub fn serve_pending(&self) -> XenResult<usize> {
        let mut served = 0;
        loop {
            let msg = self.hv.with_memory_mut(|m| {
                if self.scrub {
                    self.ring.read_msg_scrub(m, RingDir::FrontToBack)
                } else {
                    self.ring.read_msg(m, RingDir::FrontToBack)
                }
            })?;
            let (id, payload) = match msg {
                Some(m) => m,
                None => break,
            };
            let fault = self.hv.take_ring_fault();
            if let Some(RingFault::RevokeGrants) = fault {
                // The guest yanked its ring grants mid-exchange (domain
                // teardown, a hostile balloon). Sever our mappings and
                // stop serving; the request is lost with the ring.
                for &gref in &self.grants {
                    let _ = self.hv.grant_unmap(gref, DomainId::DOM0);
                    let _ = self.hv.grant_revoke(gref, self.guest);
                }
                return Err(XenError::Injected("ring grants revoked"));
            }
            // The manager is told the *actual* source domain — ring
            // ownership is the one identity Dom0 can always trust.
            let response = self.manager.handle(self.guest, &payload);
            // Ring-level accounting: one exchange, payload bytes each
            // way. Recorded at the backend (not in `handle`) so direct
            // manager calls don't count phantom ring traffic.
            let (rx, tx) = (payload.len() as u64, response.len() as u64);
            self.manager.telemetry().note_ring_exchange(rx, tx);
            match fault {
                // Response lost on the ring: the command took effect but
                // the guest never hears back and will see a timeout.
                Some(RingFault::Drop) => {}
                // Response delivered twice (spurious event/requeue). The
                // frontend must drop the stale copy by message id.
                Some(RingFault::Duplicate) => {
                    for _ in 0..2 {
                        self.hv.with_memory_mut(|m| {
                            self.ring.write_msg(m, RingDir::BackToFront, id, &response)
                        })?;
                    }
                    self.hv.events.notify(self.port)?;
                }
                Some(RingFault::RevokeGrants) => unreachable!("handled above"),
                None => {
                    self.hv.with_memory_mut(|m| {
                        self.ring.write_msg(m, RingDir::BackToFront, id, &response)
                    })?;
                    self.hv.events.notify(self.port)?;
                }
            }
            served += 1;
        }
        Ok(served)
    }
}

/// How long the loop blocks on Dom0's queue before re-checking its stop
/// flag.
const LOOP_POLL: Duration = Duration::from_millis(10);

type Backends = HashMap<Port, TpmBack>;

/// Dom0's one tpmback service loop: owns every registered [`TpmBack`],
/// keyed by its Dom0 port, and serves each ring whose port fires. The
/// thread starts with the first registered backend and runs until
/// [`TpmBackLoop::shutdown`]; a later registration starts it again.
pub(crate) struct TpmBackLoop {
    hv: Arc<Hypervisor>,
    /// The loop serves a ring only while it holds this lock, so holding
    /// it pauses all ring service.
    backends: Arc<Mutex<Backends>>,
    stop: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl TpmBackLoop {
    pub(crate) fn new(hv: Arc<Hypervisor>) -> Self {
        Self {
            hv,
            backends: Arc::default(),
            stop: Arc::default(),
            thread: Mutex::new(None),
        }
    }

    /// Hand `back` to the loop, starting the loop thread if it is not
    /// running.
    pub(crate) fn register(&self, back: TpmBack) {
        let mut thread = self.thread.lock();
        self.backends.lock().insert(back.port.port, back);
        if thread.is_none() {
            self.stop.store(false, Ordering::Relaxed);
            let (hv, backends, stop) =
                (Arc::clone(&self.hv), Arc::clone(&self.backends), Arc::clone(&self.stop));
            *thread = Some(std::thread::spawn(move || serve_loop(&hv, &backends, &stop)));
        }
    }

    /// Pause ring service for as long as the guard lives. A port that
    /// fires meanwhile stays queued and is served after the guard drops.
    pub(crate) fn pause(&self) -> MutexGuard<'_, Backends> {
        self.backends.lock()
    }

    /// Stop the loop thread and drop every backend. Idempotent.
    pub(crate) fn shutdown(&self) {
        let mut thread = self.thread.lock();
        if let Some(handle) = thread.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
        self.backends.lock().clear();
    }
}

impl Drop for TpmBackLoop {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The loop body. A ring whose channel closed, whose grants were revoked,
/// or whose service failed loses its backend; every other ring is still
/// served.
fn serve_loop(hv: &Hypervisor, backends: &Mutex<Backends>, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match hv.events.pending(DomainId::DOM0, LOOP_POLL) {
            Some(Fired::Event(ep)) => {
                let mut backends = backends.lock();
                if backends.get(&ep.port).is_some_and(|back| back.serve_pending().is_err()) {
                    backends.remove(&ep.port);
                }
            }
            Some(Fired::Closed(ep)) => {
                backends.lock().remove(&ep.port);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ManagerConfig;
    use tpm::TpmClient;
    use xen_sim::DomainConfig;

    fn platform() -> (Arc<Hypervisor>, Arc<VtpmManager>) {
        let hv = Arc::new(Hypervisor::boot(4096, 16).unwrap());
        let mgr = Arc::new(
            VtpmManager::new(Arc::clone(&hv), b"device-test", ManagerConfig::default()).unwrap(),
        );
        (hv, mgr)
    }

    fn launch(
        hv: &Arc<Hypervisor>,
        mgr: &Arc<VtpmManager>,
        name: &str,
    ) -> (DomainId, TpmFront, TpmBack) {
        let guest = hv
            .create_domain(DomainId::DOM0, DomainConfig { memory_pages: 32, ..DomainConfig::small(name) })
            .unwrap();
        let instance = mgr.create_instance().unwrap();
        provision_device(hv, guest, instance).unwrap();
        let front = TpmFront::connect(Arc::clone(hv), guest).unwrap();
        let back = TpmBack::connect(Arc::clone(hv), Arc::clone(mgr), guest).unwrap();
        (guest, front, back)
    }

    /// Dom0's loop serving `backs`, so the frontend's blocking wait is
    /// exercised for real.
    fn serve(hv: &Arc<Hypervisor>, backs: impl IntoIterator<Item = TpmBack>) -> TpmBackLoop {
        let lp = TpmBackLoop::new(Arc::clone(hv));
        backs.into_iter().for_each(|b| lp.register(b));
        lp
    }

    #[test]
    fn end_to_end_startup_over_ring() {
        let (hv, mgr) = platform();
        let (_guest, mut front, back) = launch(&hv, &mgr, "g1");
        let lp = serve(&hv, [back]);

        let mut client = TpmClient::new(&mut front, b"guest-client");
        client.startup_clear().unwrap();
        let random = client.get_random(16).unwrap();
        assert_eq!(random.len(), 16);

        lp.shutdown();
        assert_eq!(mgr.stats_snapshot().handled, 2);
    }

    #[test]
    fn frontend_reads_instance_from_xenstore() {
        let (hv, mgr) = platform();
        let (_g, front, _back) = launch(&hv, &mgr, "g1");
        assert_eq!(front.instance, 1);
    }

    #[test]
    fn two_guests_two_instances() {
        let (hv, mgr) = platform();
        let (_g1, mut f1, b1) = launch(&hv, &mgr, "g1");
        let (_g2, mut f2, b2) = launch(&hv, &mgr, "g2");
        assert_ne!(f1.instance, f2.instance);
        // One loop serves both rings.
        let _lp = serve(&hv, [b1, b2]);

        let mut c1 = TpmClient::new(&mut f1, b"c1");
        let mut c2 = TpmClient::new(&mut f2, b"c2");
        c1.startup_clear().unwrap();
        c2.startup_clear().unwrap();
        // Each guest extends its own vTPM; values must be independent.
        c1.extend(0, &[1; 20]).unwrap();
        let v1 = c1.pcr_read(0).unwrap();
        let v2 = c2.pcr_read(0).unwrap();
        assert_ne!(v1, v2);
        assert_eq!(v2, [0; 20]);
    }

    #[test]
    fn ring_traffic_is_dumpable_without_scrub() {
        let (hv, mgr) = platform();
        let (_g, mut front, back) = launch(&hv, &mgr, "g1");
        // Serve synchronously (no thread) for determinism.
        let marker = vec![0xC1u8, 0x5E, 0xC2, 0xE7, 0x5E, 0xC2, 0xE7, 0x99];
        let env = front.build_envelope(&marker);
        let bytes = env.encode();
        hv.with_memory_mut(|m| front.ring.write_msg(m, RingDir::FrontToBack, 42, &bytes))
            .unwrap();
        back.serve_pending().unwrap();
        // The request bytes linger in the (guest-owned, Dom0-mapped) ring.
        let mut dump = Vec::new();
        for (_, _, page) in hv.dump_memory(DomainId::DOM0).unwrap() {
            dump.extend_from_slice(&page[..]);
        }
        assert!(dump.windows(marker.len()).any(|w| w == marker.as_slice()));
    }

    #[test]
    fn scrubbing_backend_wipes_requests() {
        let (hv, mgr) = platform();
        let (_g, mut front, mut back) = launch(&hv, &mgr, "g1");
        back.scrub = true;
        let marker = vec![0xC1u8, 0x5E, 0xC2, 0xE7, 0x5E, 0xC2, 0xE7, 0x98];
        let env = front.build_envelope(&marker);
        let bytes = env.encode();
        hv.with_memory_mut(|m| front.ring.write_msg(m, RingDir::FrontToBack, 42, &bytes))
            .unwrap();
        back.serve_pending().unwrap();
        let mut dump = Vec::new();
        for (_, _, page) in hv.dump_memory(DomainId::DOM0).unwrap() {
            dump.extend_from_slice(&page[..]);
        }
        assert!(!dump.windows(marker.len()).any(|w| w == marker.as_slice()));
    }

    #[test]
    fn tagged_envelopes_flow_through() {
        let (hv, mgr) = platform();
        let (_g, mut front, back) = launch(&hv, &mgr, "g1");
        front.set_credential(b"guest-credential".to_vec());
        assert!(front.has_credential());
        let _lp = serve(&hv, [back]);

        // StockHook ignores tags, so tagged traffic still succeeds.
        let mut client = TpmClient::new(&mut front, b"c");
        client.startup_clear().unwrap();
    }

    #[test]
    fn dropped_response_times_out_but_command_took_effect() {
        let (hv, mgr) = platform();
        let (_g, mut front, back) = launch(&hv, &mgr, "g1");
        front.timeout = Duration::from_millis(300);
        let _lp = serve(&hv, [back]);

        let mut client = TpmClient::new(&mut front, b"c");
        client.startup_clear().unwrap();

        hv.inject_ring_fault(xen_sim::RingFault::Drop);
        // The response is lost: the guest sees a failure...
        assert!(client.extend(2, &[0x42; 20]).is_err());
        // ...but the command executed before the response was dropped, so
        // the PCR moved — exactly the ambiguity a lost ring message
        // creates on real hardware.
        let v = client.pcr_read(2).unwrap();
        assert_ne!(v, [0u8; 20]);
    }

    #[test]
    fn duplicated_response_is_dropped_as_stale() {
        let (hv, mgr) = platform();
        let (_g, mut front, back) = launch(&hv, &mgr, "g1");
        let _lp = serve(&hv, [back]);

        let mut client = TpmClient::new(&mut front, b"c");
        client.startup_clear().unwrap();

        hv.inject_ring_fault(xen_sim::RingFault::Duplicate);
        client.extend(1, &[0x07; 20]).unwrap();
        // The duplicate copy lingers in the ring; the next exchange must
        // skip it by message id and still complete correctly.
        let v = client.pcr_read(1).unwrap();
        assert_ne!(v, [0u8; 20]);
        assert_eq!(v, client.pcr_read(1).unwrap());
    }

    #[test]
    fn revoked_grants_stop_the_backend() {
        let (hv, mgr) = platform();
        let (_g, mut front, back) = launch(&hv, &mgr, "g1");
        let env = front.build_envelope(&[0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1]);
        let bytes = env.encode();
        hv.with_memory_mut(|m| front.ring.write_msg(m, RingDir::FrontToBack, 7, &bytes))
            .unwrap();
        hv.inject_ring_fault(xen_sim::RingFault::RevokeGrants);
        match back.serve_pending() {
            Err(XenError::Injected(_)) => {}
            other => panic!("expected injected revocation error, got {other:?}"),
        }
        // The grants really are gone: a fresh backend cannot re-map them.
        assert!(TpmBack::connect(Arc::clone(&hv), Arc::clone(&mgr), front.domain).is_err());
    }

    #[test]
    fn rebind_survives_manager_restart() {
        let (hv, mgr) = platform();
        let (_g, mut front, back) = launch(&hv, &mgr, "g1");
        let lp = serve(&hv, [back]);
        let mut client = TpmClient::new(&mut front, b"c");
        client.startup_clear().unwrap();
        client.extend(4, &[0x33; 20]).unwrap();

        // Manager process dies; recover from Dom0 frames and re-point the
        // surviving backend at the new manager while ring service pauses.
        {
            let mut backends = lp.pause();
            drop(mgr);
            let (rec, report) =
                VtpmManager::recover(Arc::clone(&hv), b"device-test", ManagerConfig::default())
                    .unwrap();
            assert_eq!(report.resumed.len(), 1);
            let rec = Arc::new(rec);
            backends.values_mut().for_each(|b| b.rebind(Arc::clone(&rec)));
        }
        // Same frontend, same ring, same channel: the guest resumes where
        // it left off, state intact.
        let v = client.pcr_read(4).unwrap();
        assert_ne!(v, [0u8; 20]);
    }

    #[test]
    fn a_failed_ring_loses_only_its_backend() {
        let (hv, mgr) = platform();
        let (_ga, mut fa, ba) = launch(&hv, &mgr, "a");
        let (_gb, mut fb, bb) = launch(&hv, &mgr, "b");
        let lp = serve(&hv, [ba, bb]);
        fa.timeout = Duration::from_millis(200);
        hv.inject_ring_fault(xen_sim::RingFault::RevokeGrants);
        assert!(TpmClient::new(&mut fa, b"a").startup_clear().is_err());
        TpmClient::new(&mut fb, b"b").startup_clear().unwrap();
        assert_eq!(lp.pause().len(), 1, "the revoked ring's backend is gone");
        // A closed channel also drops its backend.
        fb.disconnect();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !lp.pause().is_empty() {
            assert!(std::time::Instant::now() < deadline, "closed ring still registered");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sequence_numbers_increase() {
        let (hv, mgr) = platform();
        let (_g, mut front, _back) = launch(&hv, &mgr, "g1");
        let e1 = front.build_envelope(b"a");
        let e2 = front.build_envelope(b"b");
        assert!(e2.seq > e1.seq);
    }
}
