//! Fixture: a lock-order cycle whose forward half is visible only by
//! typing a receiver through a struct field. `self.writer.enqueue(..)`
//! names one of two `enqueue` methods in this crate; only the declared
//! type of `Conn::writer` says which. Lock-cycle #2.

use parking_lot::Mutex;
use std::sync::Arc;

pub struct Conn {
    state: Mutex<u64>,
    writer: Arc<Writer>,
}

pub struct Writer {
    queue: Mutex<Vec<u64>>,
}

/// A second `enqueue`, so the method name alone resolves nothing.
pub struct Ingress {
    shards: Mutex<Vec<u64>>,
}

impl Conn {
    /// `state`, then `Writer::queue` through the field-typed call.
    pub fn complete(&self) {
        let state = self.state.lock();
        self.writer.enqueue(*state);
    }
}

impl Writer {
    pub fn enqueue(&self, v: u64) {
        self.queue.lock().push(v);
    }

    /// `queue`, then `Conn::state`: the reverse order.
    pub fn settle(&self, conn: &Conn) {
        let queue = self.queue.lock();
        let mut state = conn.state.lock();
        *state += queue.len() as u64;
    }
}

impl Ingress {
    pub fn enqueue(&self, v: u64) {
        self.shards.lock().push(v);
    }
}
