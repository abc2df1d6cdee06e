//! Event sinks the benchmark attaches through `Machine::add_sink`: a
//! host-clock ledger and a stream recorder. Both are pure folds; the
//! machine owns them while it runs and hands the fold back when it is
//! dropped.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use porsche::probe::{Callsite, Event, EventSink, Tag};

/// A sink that returns its fold through a shared slot when the machine
/// that owns it is dropped.
pub struct Handback<S> {
    sink: Option<S>,
    slot: Arc<Mutex<Option<S>>>,
}

/// Where a [`Handback`] leaves its fold.
pub type Slot<S> = Arc<Mutex<Option<S>>>;

/// Wrap `sink` for `Machine::add_sink`; the returned slot holds it once
/// the machine is gone.
pub fn handback<S: EventSink + 'static>(sink: S) -> (Box<dyn EventSink>, Slot<S>) {
    let slot = Arc::new(Mutex::new(None));
    let boxed = Box::new(Handback {
        sink: Some(sink),
        slot: Arc::clone(&slot),
    });
    (boxed, slot)
}

impl<S: EventSink> EventSink for Handback<S> {
    fn on_event(&mut self, at: u64, tag: Tag, event: &Event) {
        if let Some(sink) = &mut self.sink {
            sink.on_event(at, tag, event);
        }
    }
}

impl<S> Drop for Handback<S> {
    fn drop(&mut self) {
        // Every writer stores a complete value, so a poisoned slot still
        // holds a sound one.
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = self.sink.take();
    }
}

/// Take the fold a [`Handback`] returned.
pub fn take<S>(slot: &Slot<S>) -> Option<S> {
    slot.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// Host time charged per kernel callsite: each event is stamped with
/// the host clock, and the interval since the previous event is charged
/// to the event's [`Tag::callsite`]. A `Compute` event closes a span of
/// guest execution, so the interval before it is interpreter and
/// dispatch time; the intervals before management events are kernel
/// time.
#[derive(Debug)]
pub struct HostClock {
    last: Instant,
    /// Nanoseconds per callsite, in `Callsite::ALL` order.
    pub ns: [u64; Callsite::ALL.len()],
    /// Events observed.
    pub events: u64,
    /// Custom instructions dispatched to PFU hardware (from `Compute`).
    pub hw_dispatches: u64,
    /// Custom instructions dispatched to software handlers.
    pub sw_dispatches: u64,
}

impl HostClock {
    /// A ledger whose first interval starts at `t0`.
    pub fn new(t0: Instant) -> Self {
        Self {
            last: t0,
            ns: [0; Callsite::ALL.len()],
            events: 0,
            hw_dispatches: 0,
            sw_dispatches: 0,
        }
    }

    /// Host time from the last event to `end`: the kernel's return path
    /// after the final exit, charged to no callsite.
    pub fn tail(&self, end: Instant) -> Duration {
        end.saturating_duration_since(self.last)
    }

    /// Nanoseconds charged to `callsite`.
    pub fn ns_at(&self, callsite: Callsite) -> u64 {
        self.ns[callsite as usize]
    }

    /// Fold another scenario's ledger into this one.
    pub fn absorb(&mut self, other: &HostClock) {
        for (mine, theirs) in self.ns.iter_mut().zip(other.ns) {
            *mine += theirs;
        }
        self.events += other.events;
        self.hw_dispatches += other.hw_dispatches;
        self.sw_dispatches += other.sw_dispatches;
    }
}

impl EventSink for HostClock {
    fn on_event(&mut self, _at: u64, tag: Tag, event: &Event) {
        let now = Instant::now();
        self.ns[tag.callsite as usize] +=
            now.saturating_duration_since(self.last).as_nanos() as u64;
        self.last = now;
        self.events += 1;
        if let Event::Compute {
            hw_dispatches,
            sw_dispatches,
            ..
        } = *event
        {
            self.hw_dispatches += hw_dispatches;
            self.sw_dispatches += sw_dispatches;
        }
    }
}

/// A recorded event stream: `(cycle, tag, event)` in emission order.
pub type Stream = Vec<(u64, Tag, Event)>;

/// Records the event stream for replay.
#[derive(Debug, Default)]
pub struct Recorder {
    /// The stream so far.
    pub events: Stream,
}

impl EventSink for Recorder {
    fn on_event(&mut self, at: u64, tag: Tag, event: &Event) {
        self.events.push((at, tag, *event));
    }
}
