//! Event channels: Xen's virtual-interrupt primitive. The split driver
//! signals "request produced" / "response produced" over an interdomain
//! channel.
//!
//! The simulator implements the three-step Xen dance: the backend
//! allocates an *unbound* port naming the peer, the peer *binds* to it to
//! complete the interdomain pair, and thereafter `notify` on either end
//! raises the pending flag on the other end.
//!
//! Delivery is per domain, like one libxenevtchn handle that has every
//! port of the domain bound: a notify raises the remote port's pending
//! flag and, on the rising edge only, appends the port to its domain's
//! fired-port queue, so repeated notifies coalesce into one entry until
//! [`EventChannels::pending`] hands the port out (the analogue of
//! `xenevtchn_pending()` plus unmask). Each domain has one wake-up path:
//! a notify wakes the domain's waiters only if one is blocked, only
//! after the table lock is dropped, and only once per sleep: a second
//! port that fires before the woken waiter runs is drained by that same
//! wake-up. Dom0's tpmback loop serves every guest ring from one such
//! queue; a guest frontend waits on its own domain's queue. `close` and
//! `purge_domain` queue the ends they kill, which `pending` reports as
//! [`Fired::Closed`].
//!
//! Yield before parking: a waiter that finds its queue empty yields the
//! CPU `YIELDS_BEFORE_PARK` times, re-checking the queue after each,
//! before it blocks on the domain's condvar. A ring round trip is a
//! notify followed at once by a wait for the answer, so the peer just
//! notified is usually the thread the yield runs. It serves and answers
//! while the caller is not blocked, which costs no futex wake, and the
//! caller finds its port already fired. On one pinned CPU a
//! `sched_yield` hand-off measured 1.0 µs against 1.5 µs for a
//! park/unpark, and a bare echo round trip over a ring and this table
//! took 2.5–2.7 µs with two futex sleeps. The waiter never spins: on one
//! CPU a spin only burns the peer's timeslice. A zero timeout is a pure
//! poll and never yields.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::domain::DomainId;
use crate::error::{Result, XenError};

/// Times [`EventChannels::pending`] yields the CPU and re-checks an
/// empty queue before it blocks. On one CPU the peer just notified
/// answers within its first turn, and 1 to 16 yields gave the same
/// throughput. With a second core idle a yield returns at once, so each
/// further one is a poll; the count stays small to keep that bounded.
const YIELDS_BEFORE_PARK: u32 = 2;

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

/// A port handed out by [`EventChannels::pending`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fired {
    /// An event arrived; the port's pending flag is consumed, so the next
    /// notify queues it again.
    Event(Endpoint),
    /// The port's channel was closed or its domain purged. Reported once.
    Closed(Endpoint),
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
    /// Set by a notify or a close. While set, the port sits in its
    /// domain's fired queue exactly once; `pending` clears it for an open
    /// port and leaves it set on a closed one, which is never queued again.
    pending: bool,
}

/// One domain's event state.
#[derive(Default)]
struct DomainEvents {
    next_port: Port,
    /// Ports whose pending flag rose, oldest first.
    fired: VecDeque<Port>,
    /// Waiters blocked in [`EventChannels::pending`] on this domain.
    blocked: u32,
    /// A wake-up has been sent since a waiter last blocked. Every waiter
    /// blocked by then is woken by it and drains the queue, so later
    /// fires need not signal again.
    signalled: bool,
    wake: Arc<Condvar>,
    /// Times a waiter on this domain returned from its condvar.
    #[cfg(test)]
    wakes: u32,
}

impl DomainEvents {
    /// Count a waiter about to block and return the condvar to wait on.
    /// The next fire signals it.
    fn block(&mut self) -> Arc<Condvar> {
        self.blocked += 1;
        self.signalled = false;
        Arc::clone(&self.wake)
    }
}

#[derive(Default)]
struct Inner {
    ports: HashMap<Endpoint, PortRecord>,
    domains: HashMap<DomainId, DomainEvents>,
}

impl Inner {
    fn alloc_port(&mut self, domain: DomainId, state: ChannelState) -> Endpoint {
        let d = self.domains.entry(domain).or_default();
        d.next_port += 1;
        let ep = Endpoint { domain, port: d.next_port };
        self.ports.insert(ep, PortRecord { state, pending: false });
        ep
    }

    /// Raise `ep`'s pending flag and, on the rising edge, queue it on its
    /// domain. Returns the domain's condvar when a waiter is blocked on
    /// it and no wake-up has been sent since it blocked, to be notified
    /// once the table lock is dropped.
    fn fire(&mut self, ep: Endpoint) -> Option<Arc<Condvar>> {
        let rec = self.ports.get_mut(&ep)?;
        if std::mem::replace(&mut rec.pending, true) {
            return None;
        }
        let d = self.domains.entry(ep.domain).or_default();
        d.fired.push_back(ep.port);
        (d.blocked > 0 && !std::mem::replace(&mut d.signalled, true)).then(|| Arc::clone(&d.wake))
    }

    /// Mark `local` closed and, if it was bound, its remote end too,
    /// queueing each newly closed end. Returns the condvars to notify.
    fn close(&mut self, local: Endpoint) -> Option<Vec<Arc<Condvar>>> {
        let rec = self.ports.get_mut(&local)?;
        let state = std::mem::replace(&mut rec.state, ChannelState::Closed);
        let mut wake: Vec<_> = self.fire(local).into_iter().collect();
        if let ChannelState::Bound { remote } = state {
            if let Some(rrec) = self.ports.get_mut(&remote) {
                rrec.state = ChannelState::Closed;
                wake.extend(self.fire(remote));
            }
        }
        Some(wake)
    }
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

    /// Allocate an unbound port on `owner` that only `peer` may bind.
    pub fn alloc_unbound(&self, owner: DomainId, peer: DomainId) -> Endpoint {
        self.inner.lock().alloc_port(owner, ChannelState::Unbound { peer })
    }

    /// `binder` connects a new local port to the remote unbound port,
    /// completing the interdomain channel. Returns the local endpoint.
    pub fn bind_interdomain(&self, binder: DomainId, remote: Endpoint) -> Result<Endpoint> {
        let mut inner = self.inner.lock();
        match inner.ports.get(&remote) {
            Some(PortRecord { state: ChannelState::Unbound { peer }, .. }) if *peer == binder => {}
            _ => return Err(XenError::BadPort),
        }
        let local = inner.alloc_port(binder, ChannelState::Bound { remote });
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
        // A bound port's remote record exists: purging a domain closes
        // the peers of the ports it removes.
        let wake = inner.fire(remote);
        drop(inner);
        if let Some(w) = wake {
            w.notify_all();
        }
        Ok(())
    }

    /// Hand out the next fired port of `domain`, waiting until one fires
    /// or `timeout` elapses (`None`). An empty queue is re-checked after
    /// each of `YIELDS_BEFORE_PARK` yields before the caller blocks; a
    /// zero timeout only polls. An open port's pending flag is consumed
    /// here, so a notify that lands while the caller serves the port
    /// queues it again and is never lost.
    pub fn pending(&self, domain: DomainId, timeout: Duration) -> Option<Fired> {
        let mut deadline = None;
        let mut yields = 0;
        let mut inner = self.inner.lock();
        let mut timed_out = false;
        loop {
            let Inner { ports, domains } = &mut *inner;
            let d = domains.entry(domain).or_default();
            if let Some(port) = d.fired.pop_front() {
                let ep = Endpoint { domain, port };
                return Some(match ports.get_mut(&ep) {
                    Some(rec) if !matches!(rec.state, ChannelState::Closed) => {
                        rec.pending = false;
                        Fired::Event(ep)
                    }
                    _ => Fired::Closed(ep),
                });
            }
            if timed_out || timeout.is_zero() {
                return None;
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            if yields < YIELDS_BEFORE_PARK {
                yields += 1;
                drop(inner);
                std::thread::yield_now();
                inner = self.inner.lock();
                continue;
            }
            let wake = d.block();
            timed_out = wake.wait_until(&mut inner, deadline).timed_out();
            let d = inner.domains.get_mut(&domain).expect("domain records are never removed");
            d.blocked -= 1;
            #[cfg(test)]
            {
                d.wakes += 1;
            }
        }
    }

    /// Close `local`, marking both ends dead. Each end is queued on its
    /// domain, whose waiter is woken and sees [`Fired::Closed`].
    pub fn close(&self, local: Endpoint) -> Result<()> {
        let mut inner = self.inner.lock();
        let wake = inner.close(local).ok_or(XenError::BadPort)?;
        drop(inner);
        wake.iter().for_each(|w| w.notify_all());
        Ok(())
    }

    /// Tear down every port owned by `domain` (domain destruction). The
    /// removed ports and their peers are queued as [`Fired::Closed`], and
    /// the waiters of both domains are woken.
    pub fn purge_domain(&self, domain: DomainId) {
        let mut inner = self.inner.lock();
        let locals: Vec<Endpoint> =
            inner.ports.keys().filter(|ep| ep.domain == domain).copied().collect();
        let mut wake = Vec::new();
        for local in locals {
            wake.extend(inner.close(local).into_iter().flatten());
            inner.ports.remove(&local);
        }
        drop(inner);
        wake.iter().for_each(|w| w.notify_all());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DomainId = DomainId::DOM0;
    const D1: DomainId = DomainId(1);
    const D2: DomainId = DomainId(2);
    const NOW: Duration = Duration::ZERO;

    fn pair(ev: &EventChannels, guest: DomainId) -> (Endpoint, Endpoint) {
        let back = ev.alloc_unbound(D0, guest);
        let front = ev.bind_interdomain(guest, back).unwrap();
        (back, front)
    }

    #[test]
    fn notify_sets_remote_pending() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev, D1);
        assert_eq!(ev.pending(D1, NOW), None);
        ev.notify(back).unwrap();
        assert_eq!(ev.pending(D1, NOW), Some(Fired::Event(front)));
        // Consumed.
        assert_eq!(ev.pending(D1, NOW), None);
        // The notifier's own domain saw nothing.
        assert_eq!(ev.pending(D0, NOW), None);
        // And the reverse direction.
        ev.notify(front).unwrap();
        assert_eq!(ev.pending(D0, NOW), Some(Fired::Event(back)));
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
        let (back, front) = pair(&ev, D1);
        let t = blocked_waiter(&ev, D1);
        ev.notify(back).unwrap();
        assert_eq!(t.join().unwrap().0, Some(Fired::Event(front)));
    }

    #[test]
    fn wait_times_out() {
        let ev = EventChannels::new();
        let _ = pair(&ev, D1);
        assert_eq!(ev.pending(D1, Duration::from_millis(20)), None);
    }

    #[test]
    fn close_propagates() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev, D1);
        ev.close(front).unwrap();
        assert_eq!(ev.notify(back), Err(XenError::BadPort));
    }

    #[test]
    fn purge_kills_peer_channels() {
        let ev = EventChannels::new();
        let (back, _front) = pair(&ev, D1);
        ev.purge_domain(D1);
        assert_eq!(ev.notify(back), Err(XenError::BadPort));
    }

    #[test]
    fn events_coalesce() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev, D1);
        // Three notifies, one queue entry: Xen's coalescing.
        for _ in 0..3 {
            ev.notify(back).unwrap();
        }
        assert_eq!(ev.inner.lock().domains[&D1].fired.len(), 1);
        assert_eq!(ev.pending(D1, NOW), Some(Fired::Event(front)));
        assert_eq!(ev.pending(D1, NOW), None);
        // Once consumed, the next notify queues the port again: a notify
        // that lands while the waiter serves the port is not lost.
        ev.notify(back).unwrap();
        assert_eq!(ev.pending(D1, NOW), Some(Fired::Event(front)));
    }

    #[test]
    fn one_domain_queue_multiplexes_every_port_in_firing_order() {
        let ev = EventChannels::new();
        let (back_a, front_a) = pair(&ev, D1);
        let (back_b, front_b) = pair(&ev, D2);
        ev.notify(front_b).unwrap();
        ev.notify(front_a).unwrap();
        ev.notify(front_b).unwrap();
        assert_eq!(ev.pending(D0, NOW), Some(Fired::Event(back_b)));
        assert_eq!(ev.pending(D0, NOW), Some(Fired::Event(back_a)));
        assert_eq!(ev.pending(D0, NOW), None);
    }

    fn wakes(ev: &EventChannels, domain: DomainId) -> u32 {
        ev.inner.lock().domains.get(&domain).map_or(0, |d| d.wakes)
    }

    /// Block a waiter on `domain`'s queue in a thread and return it once
    /// it is parked on the domain's condvar.
    fn blocked_waiter(
        ev: &EventChannels,
        domain: DomainId,
    ) -> std::thread::JoinHandle<(Option<Fired>, Duration)> {
        let ev2 = ev.clone();
        let t = std::thread::spawn(move || {
            let start = Instant::now();
            (ev2.pending(domain, Duration::from_secs(5)), start.elapsed())
        });
        while ev.inner.lock().domains.get(&domain).map_or(0, |d| d.blocked) == 0 {
            std::thread::yield_now();
        }
        t
    }

    #[test]
    fn notify_wakes_only_the_remote_domain() {
        let ev = EventChannels::new();
        let (back_a, _front_a) = pair(&ev, D1);
        let (back_b, front_b) = pair(&ev, D2);
        let t = blocked_waiter(&ev, D2);
        for _ in 0..1000 {
            ev.notify(back_a).unwrap();
        }
        assert_eq!(wakes(&ev, D2), 0, "a notify to domain 1 woke domain 2's waiter");
        ev.notify(back_b).unwrap();
        assert_eq!(t.join().unwrap().0, Some(Fired::Event(front_b)));
        assert_eq!(wakes(&ev, D2), 1);
    }

    #[test]
    fn zero_timeout_polls_without_waiting() {
        let ev = EventChannels::new();
        let _ = pair(&ev, D1);
        assert_eq!(ev.pending(D1, NOW), None);
        assert_eq!(wakes(&ev, D1), 0, "a zero timeout waited on the condvar");
    }

    #[test]
    fn one_wake_per_sleep() {
        let ev = EventChannels::new();
        let (back_a, _) = pair(&ev, D1);
        let (back_b, _) = pair(&ev, D2);
        let mut inner = ev.inner.lock();
        let _ = inner.domains.get_mut(&D0).unwrap().block();
        // Two of domain 0's ports fire while its waiter is blocked.
        assert!(inner.fire(back_a).is_some(), "the first fire wakes the blocked waiter");
        assert!(inner.fire(back_b).is_none(), "the woken waiter drains the second port too");
        assert_eq!(inner.domains[&D0].fired.len(), 2);
        // Once the waiter blocks again, the next fire signals it.
        inner.ports.get_mut(&back_a).unwrap().pending = false;
        let _ = inner.domains.get_mut(&D0).unwrap().block();
        assert!(inner.fire(back_a).is_some());
    }

    #[test]
    fn ping_pong_loses_no_wakeups() {
        const ROUND_TRIPS: u32 = 20_000;
        let ev = EventChannels::new();
        let (back, front) = pair(&ev, D1);
        let ev2 = ev.clone();
        let echo = std::thread::spawn(move || {
            for i in 0..ROUND_TRIPS {
                let fired = ev2.pending(D0, Duration::from_secs(5));
                assert_eq!(fired, Some(Fired::Event(back)), "backend round trip {i}");
                ev2.notify(back).unwrap();
            }
        });
        for i in 0..ROUND_TRIPS {
            ev.notify(front).unwrap();
            let fired = ev.pending(D1, Duration::from_secs(5));
            assert_eq!(fired, Some(Fired::Event(front)), "frontend round trip {i}");
        }
        echo.join().unwrap();
    }

    #[test]
    fn notify_without_a_blocked_waiter_wakes_nobody() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev, D1);
        ev.notify(back).unwrap();
        assert_eq!(ev.pending(D1, NOW), Some(Fired::Event(front)));
        assert_eq!(wakes(&ev, D1), 0, "a queued port is taken without blocking");
    }

    #[test]
    fn close_wakes_both_domains_with_closed_ports_once() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev, D1);
        let t = blocked_waiter(&ev, D1);
        ev.close(back).unwrap();
        let (fired, waited) = t.join().unwrap();
        assert_eq!(fired, Some(Fired::Closed(front)));
        assert!(waited < Duration::from_secs(1), "close took {waited:?} to wake the peer");
        assert_eq!(ev.pending(D0, NOW), Some(Fired::Closed(back)));
        // A dead port is reported once and never queued again.
        assert_eq!(ev.close(front), Ok(()));
        assert_eq!(ev.pending(D0, NOW), None);
        assert_eq!(ev.pending(D1, NOW), None);
    }

    #[test]
    fn a_pending_port_that_closes_is_reported_closed() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev, D1);
        ev.notify(front).unwrap();
        ev.close(front).unwrap();
        assert_eq!(ev.pending(D0, NOW), Some(Fired::Closed(back)));
        assert_eq!(ev.pending(D0, NOW), None);
    }

    #[test]
    fn purge_wakes_purged_ports_and_their_peers_as_closed() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev, D1);
        let peer = blocked_waiter(&ev, D0);
        let purged = blocked_waiter(&ev, D1);
        ev.purge_domain(D1);
        for (t, ep) in [(peer, back), (purged, front)] {
            let (fired, waited) = t.join().unwrap();
            assert_eq!(fired, Some(Fired::Closed(ep)));
            assert!(waited < Duration::from_secs(1), "purge took {waited:?} to wake a waiter");
        }
    }
}
