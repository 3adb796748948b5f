//! Fixture: a field-typed receiver resolves to its own type's method,
//! not to every method of that name. `Conn::complete` holds `state` while
//! calling `self.writer.enqueue(..)`, which takes `Writer::queue` — an
//! order nothing reverses. `Ingress::enqueue` takes `state` under its own
//! lock; linking the call to it as well would report a cycle that cannot
//! happen.

use parking_lot::Mutex;
use std::sync::Arc;

pub struct Conn {
    state: Mutex<u64>,
    writer: Arc<Writer>,
}

pub struct Writer {
    queue: Mutex<Vec<u64>>,
}

pub struct Ingress {
    shards: Mutex<Vec<u64>>,
}

impl Conn {
    /// `state`, then `Writer::queue`.
    pub fn complete(&self) {
        let state = self.state.lock();
        self.writer.enqueue(*state);
    }
}

impl Writer {
    pub fn enqueue(&self, v: u64) {
        self.queue.lock().push(v);
    }
}

impl Ingress {
    /// `shards`, then `Conn::state`.
    pub fn enqueue(&self, conn: &Conn) {
        let mut shards = self.shards.lock();
        let state = conn.state.lock();
        shards.push(*state);
    }
}
