//! Wrappers the benchmark hands to the engine so the storage and delivery
//! boundaries are seen from outside: a timing and counting WAL backend and a
//! counting transport. Neither changes what it wraps. Also the isolated
//! probe calls the admission workloads share.

use std::cell::Cell;
use std::rc::Rc;

use cwf_engine::transport::{Ack, PeerMsg, Transport};
use cwf_engine::{
    apply_event_with_view, peer_delta, view_of, Event, PerfectTransport, Run, WalBackend, WalError,
};
use cwf_lang::WorkflowSpec;
use cwf_model::PeerId;

use crate::trace;

/// A WAL backend whose appends, syncs and reads are recorded as
/// `wal.append` / `wal.sync` / `wal.read` spans under whatever span is
/// open; the spans also count the calls.
pub struct TracedBackend<B>(pub B);

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

impl<B: WalBackend> WalBackend for TracedBackend<B> {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        trace::span("wal.append", || self.0.append(bytes))
    }

    fn sync(&mut self) -> Result<(), WalError> {
        trace::span("wal.sync", || self.0.sync())
    }

    fn read_all(&mut self) -> Result<Vec<u8>, WalError> {
        trace::span("wal.read", || self.0.read_all())
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        self.0.truncate(len)
    }

    fn len(&mut self) -> Result<u64, WalError> {
        self.0.len()
    }
}

/// Counters shared by every wrapped transport of one plane.
#[derive(Debug, Default)]
pub struct NetCounts {
    pub sent: Cell<u64>,
    pub acks: Cell<u64>,
}

/// A [`PerfectTransport`] that counts the messages and acks it carries.
pub struct CountingTransport {
    inner: PerfectTransport,
    counts: Rc<NetCounts>,
}

impl CountingTransport {
    pub fn new(counts: Rc<NetCounts>) -> Self {
        CountingTransport {
            inner: PerfectTransport::new(),
            counts,
        }
    }
}

impl Transport for CountingTransport {
    fn send(&mut self, to: PeerId, msg: PeerMsg) {
        bump(&self.counts.sent);
        self.inner.send(to, msg);
    }

    fn recv(&mut self, at: PeerId) -> Vec<PeerMsg> {
        self.inner.recv(at)
    }

    fn send_ack(&mut self, ack: Ack) {
        bump(&self.counts.acks);
        self.inner.send_ack(ack);
    }

    fn recv_acks(&mut self) -> Vec<Ack> {
        self.inner.recv_acks()
    }

    fn tick(&mut self) {
        self.inner.tick();
    }

    fn heal(&mut self) {
        self.inner.heal();
    }

    fn set_link(&mut self, peer: PeerId, up: bool) {
        self.inner.set_link(peer, up);
    }

    fn link_up(&self, peer: PeerId) -> bool {
        self.inner.link_up(peer)
    }
}

/// Isolated calls, after the fact, into the two layers under the push of
/// `run`'s last event `event`: the transition on its pre-state (the acting
/// peer's view is materialized outside the timing) and the view plane (the
/// event's delta at every peer). Returns their wall times in nanoseconds;
/// results are dropped outside the timing.
pub fn transition_and_views(spec: &WorkflowSpec, run: &Run, event: &Event) -> (u64, u64) {
    let at = run.len() - 1;
    let pre = run.pre_instance(at);
    let pre_view = view_of(spec, pre, event.peer);
    let (transition_ns, applied) = trace::timed("probe.transition", || {
        apply_event_with_view(spec, pre, &pre_view, event)
    });
    assert!(applied.is_ok(), "the event applied when it was pushed");
    let (view_ns, deltas) = trace::timed("probe.view_plane", || {
        let collab = spec.collab();
        collab
            .peer_ids()
            .map(|p| peer_delta(collab, p, run.diff(at), run.current()))
            .collect::<Vec<_>>()
    });
    drop(deltas);
    (transition_ns, view_ns)
}
