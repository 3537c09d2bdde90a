//! Event channels: Xen's virtual-interrupt primitive. The split driver
//! signals "request produced" / "response produced" over an interdomain
//! channel; workers block on their local port.
//!
//! The simulator implements the three-step Xen dance: the backend
//! allocates an *unbound* port naming the peer, the peer *binds* to it to
//! complete the interdomain pair, and thereafter `notify` on either end
//! raises the pending flag on the other end.
//!
//! Waiting is per port, as Xen delivers an upcall only to the vCPU bound
//! to the signalled port: every port record owns its own condvar, used
//! under the table mutex. `notify` wakes only the remote port's waiter,
//! `close` only the two ends it closes, and `purge_domain` only the ports
//! it removes and their peers. A host with many idle backends therefore
//! pays one wake-up per event, not one per backend.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::domain::DomainId;
use crate::error::{Result, XenError};

/// A port number, local to a domain.
pub type Port = u32;

/// One end of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Owning domain.
    pub domain: DomainId,
    /// Port within that domain.
    pub port: Port,
}

#[derive(Debug)]
enum ChannelState {
    /// Allocated by `owner` for `peer` to bind to.
    Unbound { peer: DomainId },
    /// Fully connected to the remote endpoint.
    Bound { remote: Endpoint },
    /// Torn down.
    Closed,
}

struct PortRecord {
    state: ChannelState,
    pending: bool,
    /// Waiters blocked in [`EventChannels::wait`] on this port.
    waiter: Arc<Condvar>,
    /// Times a waiter on this port returned from its condvar.
    #[cfg(test)]
    wakes: u32,
}

impl PortRecord {
    fn new(state: ChannelState) -> Self {
        Self {
            state,
            pending: false,
            waiter: Arc::default(),
            #[cfg(test)]
            wakes: 0,
        }
    }
}

#[derive(Default)]
struct Inner {
    ports: HashMap<Endpoint, PortRecord>,
    next_port: HashMap<DomainId, Port>,
}

/// The host-wide event-channel table. Clone-able handle (Arc inside).
#[derive(Clone, Default)]
pub struct EventChannels {
    inner: Arc<Mutex<Inner>>,
}

impl EventChannels {
    /// Fresh table.
    pub fn new() -> Self {
        Self::default()
    }

    fn alloc_port(inner: &mut Inner, domain: DomainId) -> Endpoint {
        let counter = inner.next_port.entry(domain).or_insert(1);
        let port = *counter;
        *counter += 1;
        Endpoint { domain, port }
    }

    /// Allocate an unbound port on `owner` that only `peer` may bind.
    pub fn alloc_unbound(&self, owner: DomainId, peer: DomainId) -> Endpoint {
        let mut inner = self.inner.lock();
        let ep = Self::alloc_port(&mut inner, owner);
        inner.ports.insert(ep, PortRecord::new(ChannelState::Unbound { peer }));
        ep
    }

    /// `binder` connects a new local port to the remote unbound port,
    /// completing the interdomain channel. Returns the local endpoint.
    pub fn bind_interdomain(&self, binder: DomainId, remote: Endpoint) -> Result<Endpoint> {
        let mut inner = self.inner.lock();
        match inner.ports.get(&remote) {
            Some(PortRecord { state: ChannelState::Unbound { peer }, .. }) if *peer == binder => {}
            _ => return Err(XenError::BadPort),
        }
        let local = Self::alloc_port(&mut inner, binder);
        inner.ports.insert(local, PortRecord::new(ChannelState::Bound { remote }));
        let rec = inner.ports.get_mut(&remote).expect("checked above");
        rec.state = ChannelState::Bound { remote: local };
        Ok(local)
    }

    /// Raise the event on the *other* end of `local`'s channel.
    pub fn notify(&self, local: Endpoint) -> Result<()> {
        let mut inner = self.inner.lock();
        let remote = match inner.ports.get(&local) {
            Some(PortRecord { state: ChannelState::Bound { remote }, .. }) => *remote,
            _ => return Err(XenError::BadPort),
        };
        let rec = inner.ports.get_mut(&remote).ok_or(XenError::BadPort)?;
        rec.pending = true;
        let waiter = Arc::clone(&rec.waiter);
        drop(inner);
        waiter.notify_all();
        Ok(())
    }

    /// Consume the pending flag on `local`, returning whether it was set.
    pub fn poll(&self, local: Endpoint) -> Result<bool> {
        let mut inner = self.inner.lock();
        let rec = inner.ports.get_mut(&local).ok_or(XenError::BadPort)?;
        let was = rec.pending;
        rec.pending = false;
        Ok(was)
    }

    /// Block until an event is pending on `local` (consuming it), or until
    /// `timeout` elapses. Returns whether an event arrived.
    pub fn wait(&self, local: Endpoint, timeout: Duration) -> Result<bool> {
        let mut inner = self.inner.lock();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let rec = inner.ports.get_mut(&local).ok_or(XenError::BadPort)?;
            if rec.pending {
                rec.pending = false;
                return Ok(true);
            }
            if matches!(rec.state, ChannelState::Closed) {
                return Err(XenError::BadPort);
            }
            let waiter = Arc::clone(&rec.waiter);
            if waiter.wait_until(&mut inner, deadline).timed_out() {
                return Ok(false);
            }
            #[cfg(test)]
            if let Some(rec) = inner.ports.get_mut(&local) {
                rec.wakes += 1;
            }
        }
    }

    /// Mark `local` closed and, if it was bound, its remote end too.
    /// Returns the waiters of every end it closed, to be woken once the
    /// table lock is dropped.
    fn close_locked(inner: &mut Inner, local: Endpoint) -> Option<Vec<Arc<Condvar>>> {
        let rec = inner.ports.get_mut(&local)?;
        let state = std::mem::replace(&mut rec.state, ChannelState::Closed);
        let mut waiters = vec![Arc::clone(&rec.waiter)];
        if let ChannelState::Bound { remote } = state {
            if let Some(rrec) = inner.ports.get_mut(&remote) {
                rrec.state = ChannelState::Closed;
                waiters.push(Arc::clone(&rrec.waiter));
            }
        }
        Some(waiters)
    }

    /// Close `local`, marking both ends dead. Waiters on either end are
    /// woken and see [`XenError::BadPort`].
    pub fn close(&self, local: Endpoint) -> Result<()> {
        let mut inner = self.inner.lock();
        let waiters = Self::close_locked(&mut inner, local).ok_or(XenError::BadPort)?;
        drop(inner);
        waiters.iter().for_each(|w| w.notify_all());
        Ok(())
    }

    /// Tear down every port owned by `domain` (domain destruction).
    /// Waiters on the removed ports and on their peers are woken and see
    /// [`XenError::BadPort`].
    pub fn purge_domain(&self, domain: DomainId) {
        let mut inner = self.inner.lock();
        let locals: Vec<Endpoint> =
            inner.ports.keys().filter(|ep| ep.domain == domain).copied().collect();
        let mut waiters = Vec::new();
        for local in locals {
            waiters.extend(Self::close_locked(&mut inner, local).into_iter().flatten());
            inner.ports.remove(&local);
        }
        drop(inner);
        waiters.iter().for_each(|w| w.notify_all());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DomainId = DomainId::DOM0;
    const D1: DomainId = DomainId(1);
    const D2: DomainId = DomainId(2);

    fn pair(ev: &EventChannels) -> (Endpoint, Endpoint) {
        let back = ev.alloc_unbound(D0, D1);
        let front = ev.bind_interdomain(D1, back).unwrap();
        (back, front)
    }

    #[test]
    fn notify_sets_remote_pending() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev);
        assert!(!ev.poll(front).unwrap());
        ev.notify(back).unwrap();
        assert!(ev.poll(front).unwrap());
        // Consumed.
        assert!(!ev.poll(front).unwrap());
        // And the reverse direction.
        ev.notify(front).unwrap();
        assert!(ev.poll(back).unwrap());
    }

    #[test]
    fn bind_requires_matching_peer() {
        let ev = EventChannels::new();
        let back = ev.alloc_unbound(D0, D1);
        assert_eq!(ev.bind_interdomain(D2, back), Err(XenError::BadPort));
        // The intended peer still can bind.
        assert!(ev.bind_interdomain(D1, back).is_ok());
        // But not twice.
        assert_eq!(ev.bind_interdomain(D1, back), Err(XenError::BadPort));
    }

    #[test]
    fn notify_unbound_fails() {
        let ev = EventChannels::new();
        let back = ev.alloc_unbound(D0, D1);
        assert_eq!(ev.notify(back), Err(XenError::BadPort));
    }

    #[test]
    fn wait_returns_on_notify() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev);
        let ev2 = ev.clone();
        let t = std::thread::spawn(move || ev2.wait(front, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        ev.notify(back).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), true);
    }

    #[test]
    fn wait_times_out() {
        let ev = EventChannels::new();
        let (_back, front) = pair(&ev);
        assert_eq!(ev.wait(front, Duration::from_millis(20)).unwrap(), false);
    }

    #[test]
    fn close_propagates() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev);
        ev.close(front).unwrap();
        assert_eq!(ev.notify(back), Err(XenError::BadPort));
    }

    #[test]
    fn purge_kills_peer_channels() {
        let ev = EventChannels::new();
        let (back, _front) = pair(&ev);
        ev.purge_domain(D1);
        assert_eq!(ev.notify(back), Err(XenError::BadPort));
    }

    fn wakes(ev: &EventChannels, ep: Endpoint) -> u32 {
        ev.inner.lock().ports[&ep].wakes
    }

    /// Block `ep`'s waiter in a thread and return it once it is parked on
    /// the port's condvar (it holds a clone of the waiter only while
    /// blocked, and takes it under the table lock).
    fn blocked_waiter(
        ev: &EventChannels,
        ep: Endpoint,
    ) -> std::thread::JoinHandle<(Result<bool>, Duration)> {
        let ev2 = ev.clone();
        let t = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            (ev2.wait(ep, Duration::from_secs(5)), start.elapsed())
        });
        while Arc::strong_count(&ev.inner.lock().ports[&ep].waiter) < 2 {
            std::thread::yield_now();
        }
        t
    }

    #[test]
    fn notify_wakes_only_the_remote_port() {
        let ev = EventChannels::new();
        let (back_a, _front_a) = pair(&ev);
        let back_b = ev.alloc_unbound(D0, D2);
        let front_b = ev.bind_interdomain(D2, back_b).unwrap();
        let t = blocked_waiter(&ev, front_b);
        for _ in 0..1000 {
            ev.notify(back_a).unwrap();
        }
        assert_eq!(wakes(&ev, front_b), 0, "a notify on channel A woke channel B's waiter");
        ev.notify(back_b).unwrap();
        assert_eq!(t.join().unwrap().0, Ok(true));
        assert_eq!(wakes(&ev, front_b), 1);
    }

    #[test]
    fn close_wakes_the_other_end_with_bad_port() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev);
        let t = blocked_waiter(&ev, front);
        ev.close(back).unwrap();
        let (res, waited) = t.join().unwrap();
        assert_eq!(res, Err(XenError::BadPort));
        assert!(waited < Duration::from_secs(1), "close took {waited:?} to wake the peer");
    }

    #[test]
    fn purge_wakes_purged_ports_and_their_peers_with_bad_port() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev);
        let peer = blocked_waiter(&ev, back);
        let purged = blocked_waiter(&ev, front);
        ev.purge_domain(D1);
        for t in [peer, purged] {
            let (res, waited) = t.join().unwrap();
            assert_eq!(res, Err(XenError::BadPort));
            assert!(waited < Duration::from_secs(1), "purge took {waited:?} to wake a waiter");
        }
    }

    #[test]
    fn events_coalesce() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev);
        ev.notify(back).unwrap();
        ev.notify(back).unwrap();
        // Two notifies, one pending bit — exactly Xen's semantics.
        assert!(ev.poll(front).unwrap());
        assert!(!ev.poll(front).unwrap());
    }
}
