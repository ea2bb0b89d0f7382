//! A real broker-mediated messaging platform: the functional Faasm analog.
//!
//! Worker (rank) threads never talk to each other directly; every message
//! is serialized into an envelope, sent to the router thread, routed, and
//! deserialized on the receiving side — the structural difference from
//! MPIWasm that Figure 7 measures. The platform exposes the MPI-1-subset
//! send/recv that Faasm's MPI layer provides (no user-defined
//! communicators — the paper notes Faasm cannot run the full IMB suite for
//! exactly this reason).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use parking_lot::Mutex;

/// Serialized message envelope: the protobuf stand-in. Header: from, to,
/// tag, payload length; payload copied in (encode) and out (decode).
fn encode(from: u32, to: u32, tag: i32, payload: &[u8]) -> Vec<u8> {
    let mut env = Vec::with_capacity(16 + payload.len());
    env.extend_from_slice(&from.to_le_bytes());
    env.extend_from_slice(&to.to_le_bytes());
    env.extend_from_slice(&tag.to_le_bytes());
    env.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    env.extend_from_slice(payload);
    env
}

fn decode(env: &[u8]) -> (u32, u32, i32, Vec<u8>) {
    let from = u32::from_le_bytes(env[0..4].try_into().unwrap());
    let to = u32::from_le_bytes(env[4..8].try_into().unwrap());
    let tag = i32::from_le_bytes(env[8..12].try_into().unwrap());
    let len = u32::from_le_bytes(env[12..16].try_into().unwrap()) as usize;
    (from, to, tag, env[16..16 + len].to_vec())
}

/// Handle each worker uses to communicate through the broker.
pub struct WorkerComm {
    rank: u32,
    size: u32,
    to_broker: Sender<Vec<u8>>,
    /// `Receiver` is not `Sync` and the handle is shared through an `Arc`.
    inbox: Mutex<Receiver<Vec<u8>>>,
    /// Messages received but not yet matched (tag mismatch).
    stash: Mutex<Vec<(u32, i32, Vec<u8>)>>,
}

impl WorkerComm {
    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn size(&self) -> u32 {
        self.size
    }

    /// Send `payload` to `dest` via the broker.
    pub fn send(&self, payload: &[u8], dest: u32, tag: i32) {
        let env = encode(self.rank, dest, tag, payload);
        self.to_broker.send(env).expect("broker alive");
    }

    /// Blocking receive from a specific source and tag.
    pub fn recv(&self, src: u32, tag: i32) -> Vec<u8> {
        // Check the stash first.
        {
            let mut stash = self.stash.lock();
            if let Some(pos) = stash.iter().position(|(f, t, _)| *f == src && *t == tag) {
                return stash.remove(pos).2;
            }
        }
        loop {
            let env = self.inbox.lock().recv().expect("broker alive");
            let (from, _to, got_tag, payload) = decode(&env);
            if from == src && got_tag == tag {
                return payload;
            }
            self.stash.lock().push((from, got_tag, payload));
            let mut stash = self.stash.lock();
            if let Some(pos) = stash.iter().position(|(f, t, _)| *f == src && *t == tag) {
                return stash.remove(pos).2;
            }
        }
    }
}

/// The platform: spawns the router and `size` workers.
pub struct FaasmPlatform;

impl FaasmPlatform {
    /// Run `size` workers through a central broker; returns per-worker
    /// results in rank order (the `run_world` analog).
    pub fn run<R, F>(size: u32, body: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Arc<WorkerComm>) -> R + Send + Sync + 'static,
    {
        let (to_broker, broker_rx) = channel::<Vec<u8>>();
        let mut inboxes = Vec::new();
        let mut worker_handles = Vec::new();
        let body = Arc::new(body);

        let mut senders = Vec::new();
        for _ in 0..size {
            let (tx, rx) = channel::<Vec<u8>>();
            senders.push(tx);
            inboxes.push(rx);
        }

        // Router thread: every message takes this extra hop.
        let router = std::thread::spawn(move || {
            while let Ok(env) = broker_rx.recv() {
                let to = u32::from_le_bytes(env[4..8].try_into().unwrap());
                if senders[to as usize].send(env).is_err() {
                    break;
                }
            }
        });

        for (rank, inbox) in inboxes.into_iter().enumerate() {
            let comm = Arc::new(WorkerComm {
                rank: rank as u32,
                size,
                to_broker: to_broker.clone(),
                inbox: Mutex::new(inbox),
                stash: Mutex::new(Vec::new()),
            });
            let body = Arc::clone(&body);
            worker_handles.push(std::thread::spawn(move || body(comm)));
        }
        drop(to_broker);

        let results: Vec<R> =
            worker_handles.into_iter().map(|h| h.join().expect("worker panicked")).collect();
        router.join().expect("router panicked");
        results
    }

    /// A wall-clock PingPong on the broker platform: returns mean one-way
    /// time in µs over `iters` iterations at `bytes` payload.
    pub fn pingpong_us(bytes: usize, iters: u32) -> f64 {
        let out = Self::run(2, move |comm| {
            let payload = vec![7u8; bytes];
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                if comm.rank() == 0 {
                    comm.send(&payload, 1, 0);
                    let _ = comm.recv(1, 0);
                } else {
                    let got = comm.recv(0, 0);
                    comm.send(&got, 0, 0);
                }
            }
            t0.elapsed().as_secs_f64() * 1e6 / (iters as f64 * 2.0)
        });
        out[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip() {
        let env = encode(3, 5, 42, b"payload");
        let (from, to, tag, payload) = decode(&env);
        assert_eq!((from, to, tag), (3, 5, 42));
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn messages_route_through_broker() {
        let out = FaasmPlatform::run(3, |comm| {
            if comm.rank() == 0 {
                comm.send(b"to-1", 1, 9);
                comm.send(b"to-2", 2, 9);
                0
            } else {
                let got = comm.recv(0, 9);
                got.len() as u32 + comm.rank()
            }
        });
        assert_eq!(out, vec![0, 5, 6]);
    }

    #[test]
    fn tag_mismatch_is_stashed_not_lost() {
        let out = FaasmPlatform::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(b"first-tag-1", 1, 1);
                comm.send(b"then-tag-2", 1, 2);
                Vec::new()
            } else {
                // Receive in reverse tag order.
                let two = comm.recv(0, 2);
                let one = comm.recv(0, 1);
                vec![two, one]
            }
        });
        assert_eq!(out[1][0], b"then-tag-2");
        assert_eq!(out[1][1], b"first-tag-1");
    }

    #[test]
    fn pingpong_completes_and_reports_positive_time() {
        let t = FaasmPlatform::pingpong_us(1024, 20);
        assert!(t > 0.0);
    }
}
