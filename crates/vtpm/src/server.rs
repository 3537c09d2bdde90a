//! Worker-pool front for the manager.
//!
//! The scalability experiment (R-F4) measures how aggregate vTPM
//! throughput grows with manager worker threads. This server owns N
//! workers pulling jobs from one crossbeam MPMC channel; each job is a
//! (source, envelope) pair answered over a per-job reply channel.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use xen_sim::DomainId;

use crate::manager::VtpmManager;

struct Job {
    source: DomainId,
    envelope: Vec<u8>,
    reply: Sender<Vec<u8>>,
}

/// A running worker pool over one manager.
pub struct ManagerServer {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ManagerServer {
    /// Spawn `n_workers` threads serving `manager`.
    pub fn new(manager: Arc<VtpmManager>, n_workers: usize) -> Self {
        assert!(n_workers > 0);
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        let workers = (0..n_workers)
            .map(|_| {
                let rx = rx.clone();
                let manager = Arc::clone(&manager);
                std::thread::spawn(move || {
                    // Channel disconnect (sender dropped) ends the worker.
                    while let Ok(job) = rx.recv() {
                        let resp = manager.handle(job.source, &job.envelope);
                        // Receiver may have given up; that's fine.
                        let _ = job.reply.send(resp);
                    }
                })
            })
            .collect();
        ManagerServer { tx: Some(tx), workers }
    }

    /// Submit a request; the response arrives on the returned channel.
    pub fn submit(&self, source: DomainId, envelope: Vec<u8>) -> Receiver<Vec<u8>> {
        let (reply_tx, reply_rx) = bounded(1);
        self.tx
            .as_ref()
            .expect("server running")
            .send(Job { source, envelope, reply: reply_tx })
            .expect("workers alive");
        reply_rx
    }

    /// Submit and block for the response.
    pub fn call(&self, source: DomainId, envelope: Vec<u8>) -> Vec<u8> {
        self.submit(source, envelope).recv().expect("worker replies")
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Stop the pool, joining every worker.
    pub fn shutdown(mut self) {
        self.tx.take(); // disconnect: workers drain and exit
        for w in self.workers.drain(..) {
            w.join().expect("worker exits cleanly");
        }
    }
}

impl Drop for ManagerServer {
    fn drop(&mut self) {
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ManagerConfig;
    use crate::transport::{Envelope, ResponseEnvelope, ResponseStatus};
    use xen_sim::Hypervisor;

    fn setup() -> (Arc<VtpmManager>, u32) {
        let hv = Arc::new(Hypervisor::boot(4096, 8).unwrap());
        let mgr = Arc::new(
            VtpmManager::new(hv, b"server-test", ManagerConfig::default()).unwrap(),
        );
        let id = mgr.create_instance().unwrap();
        (mgr, id)
    }

    fn startup_env(instance: u32, seq: u64) -> Vec<u8> {
        Envelope {
            domain: 1,
            instance,
            seq,
            locality: 0,
            tag: None,
            command: vec![0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1],
        }
        .encode()
    }

    #[test]
    fn serves_requests_through_pool() {
        let (mgr, id) = setup();
        let server = ManagerServer::new(Arc::clone(&mgr), 4);
        assert_eq!(server.workers(), 4);
        for s in 1..=20u64 {
            let resp = server.call(DomainId(1), startup_env(id, s));
            assert_eq!(
                ResponseEnvelope::decode(&resp).unwrap().status,
                ResponseStatus::Ok
            );
        }
        server.shutdown();
        assert_eq!(mgr.stats_snapshot().handled, 20);
    }

    #[test]
    fn concurrent_submissions_all_answered() {
        let (mgr, id) = setup();
        let server = Arc::new(ManagerServer::new(Arc::clone(&mgr), 4));
        let mut handles = Vec::new();
        for t in 0..8 {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                for s in 0..25u64 {
                    let resp = server.call(DomainId(1), startup_env(id, t * 100 + s));
                    assert_eq!(
                        ResponseEnvelope::decode(&resp).unwrap().status,
                        ResponseStatus::Ok
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mgr.stats_snapshot().handled, 200);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let (mgr, id) = setup();
        {
            let server = ManagerServer::new(Arc::clone(&mgr), 2);
            server.call(DomainId(1), startup_env(id, 1));
        } // dropped here
        assert_eq!(mgr.stats_snapshot().handled, 1);
    }
}
