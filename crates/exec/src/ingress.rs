//! Sharded asynchronous ingress for the session multiplexer.
//!
//! Each session's stream hashes by `VideoId` to one of N *shards*; a shard
//! is an unbounded FIFO queue of ingress events plus one feeder thread that
//! moves tickets into session mailboxes, applying the backpressure policy
//! there. The accept path ([`crate::SessionMux::feed`]) is therefore a
//! non-blocking enqueue, and a full [`Block`](crate::Backpressure::Block)
//! mailbox stalls only its shard's feeder.
//!
//! Ordering: all events for a session traverse the same shard queue in
//! accept order, and a shard delivers FIFO, so per-session feed order — the
//! determinism anchor of the multiplexer — is preserved at any shard count.
//! End-of-stream markers ride the same queue and therefore cannot overtake
//! a ticket fed before them.

use crate::metrics::ShardCounters;
use crate::mux::{deliver, IngressEvent, MuxCore};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::rt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use svq_types::VideoId;

/// The sharded ingress: N queues, N feeder threads, shared counters.
pub(crate) struct Ingress {
    shards: Vec<Shard>,
}

struct Shard {
    /// `None` once shutdown began; dropping the sender ends the feeder's
    /// `rx.iter()` after it drains everything already queued.
    tx: Option<Sender<IngressEvent>>,
    counters: Arc<ShardCounters>,
    feeder: Option<rt::JoinHandle<()>>,
}

impl Ingress {
    /// Spawn `shards` feeder threads delivering into `core`'s sessions.
    pub(crate) fn new(shards: usize, core: Arc<MuxCore>) -> Self {
        let blocks = core.pool.metrics().register_shards(shards.max(1));
        let shards = blocks
            .into_iter()
            .enumerate()
            .map(|(i, counters)| {
                let (tx, rx) = unbounded::<IngressEvent>();
                let core = core.clone();
                let in_thread = counters.clone();
                let feeder = rt::spawn(&format!("svq-ingress-{i}"), move || {
                    for event in rx.iter() {
                        in_thread.ingress_depth.fetch_sub(1, Ordering::Relaxed);
                        deliver(&core, event, &in_thread);
                    }
                })
                .expect("spawn ingress feeder");
                Shard {
                    tx: Some(tx),
                    counters,
                    feeder: Some(feeder),
                }
            })
            .collect();
        Self { shards }
    }

    /// The shard a stream's tickets route through.
    pub(crate) fn shard_of(&self, video: VideoId) -> usize {
        shard_index(video, self.shards.len())
    }

    /// Non-blocking enqueue onto a shard. The queue is unbounded, so the
    /// accept path never waits on a session mailbox.
    pub(crate) fn enqueue(&self, shard: usize, event: IngressEvent) {
        let shard = &self.shards[shard];
        // Count before sending so the feeder's decrement always pairs with
        // an earlier increment (the gauge can never wrap below zero).
        shard.counters.enqueued.fetch_add(1, Ordering::Relaxed);
        shard.counters.ingress_depth.fetch_add(1, Ordering::Relaxed);
        if shard
            .tx
            .as_ref()
            .expect("ingress running")
            .send(event)
            .is_err()
        {
            unreachable!("feeder holds its receiver until the sender drops");
        }
    }

    fn shutdown_in_place(&mut self) {
        for shard in &mut self.shards {
            shard.tx.take();
        }
        for shard in &mut self.shards {
            if let Some(handle) = shard.feeder.take() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Ingress {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Deterministic `VideoId` → shard mapping. The splitmix64 finaliser
/// avalanches the raw id so the consecutive ids synthetic workloads use
/// spread across shards instead of marching through them in lockstep.
///
/// Public so operators (and `tests/ingress.rs`) can predict which streams
/// share a feeder thread — co-sharded streams contend for delivery;
/// streams on different shards cannot stall each other.
pub fn shard_index(video: VideoId, shards: usize) -> usize {
    let mut x = video.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for v in 0..64u64 {
                let s = shard_index(VideoId::new(v), shards);
                assert!(s < shards);
                assert_eq!(s, shard_index(VideoId::new(v), shards), "deterministic");
            }
        }
    }

    #[test]
    fn shard_index_spreads_consecutive_ids() {
        // 64 consecutive VideoIds over 4 shards: every shard must see some
        // traffic (raw modulo would too, but this pins the avalanche in
        // case the hash changes).
        let shards = 4;
        let mut hit = vec![0usize; shards];
        for v in 0..64u64 {
            hit[shard_index(VideoId::new(v), shards)] += 1;
        }
        assert!(hit.iter().all(|&h| h > 0), "unbalanced: {hit:?}");
    }
}
