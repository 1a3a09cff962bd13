//! Opt-in begin/end timeline recording — the "what ran when, on which
//! thread" view that complements the aggregated span trees of
//! [`ProfileReport`](crate::ProfileReport).
//!
//! A [`record`] session flips the timeline bit of the process-wide state
//! word; while it is set, every [`span`](crate::span) open/close also appends
//! a [`TimelineEvent`] to a per-thread buffer. Buffers are registered lazily
//! with the session's sink on a thread's first event (one uncontended mutex
//! each afterwards), so worker threads spawned by the exec pool join the
//! timeline automatically. When the session ends the buffers are drained and
//! merged into a single [`Timeline`], sorted by timestamp with per-thread
//! event order preserved — the shape the service exports as Chrome
//! trace-event JSON.
//!
//! Recording is wall-clock based and therefore not byte-deterministic; what
//! *is* deterministic is the multiset of event names and the begin/end
//! balance per thread, which is what the tests pin.
//!
//! A recorded timeline is balanced by construction, even for spans that
//! straddle the session's start or end on a thread that was already busy:
//! an End whose Begin fell before the thread joined the session is dropped,
//! and a span still open when the session ends is closed by an End event at
//! the teardown timestamp.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{clear_state_bit, monotonic_ns, set_state_bit, STATE_TIMELINE};

/// Whether an event marks the open or the close of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimelinePhase {
    /// The span opened.
    Begin,
    /// The span closed.
    End,
}

/// One begin/end mark on the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Dense per-process thread id (assigned in first-event order).
    pub thread: u64,
    /// The span name.
    pub name: String,
    /// Begin or end.
    pub phase: TimelinePhase,
    /// Timestamp on the shared [`monotonic_ns`] clock.
    pub at_ns: u64,
}

/// All events of one [`record`] session, sorted by `at_ns` (stable, so
/// per-thread order is preserved on ties).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// The recorded events.
    pub events: Vec<TimelineEvent>,
}

impl Timeline {
    /// Events grouped per thread, in recording order, keyed by thread id.
    pub fn per_thread(&self) -> Vec<(u64, Vec<&TimelineEvent>)> {
        let mut threads: Vec<u64> = self.events.iter().map(|e| e.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        threads
            .into_iter()
            .map(|t| (t, self.events.iter().filter(|e| e.thread == t).collect()))
            .collect()
    }

    /// Checks that every thread's events form a properly nested sequence of
    /// begin/end pairs with matching names; returns the offending event on
    /// failure.
    pub fn check_balanced(&self) -> Result<(), &TimelineEvent> {
        for (_, events) in self.per_thread() {
            let mut stack: Vec<&str> = Vec::new();
            for event in events {
                match event.phase {
                    TimelinePhase::Begin => stack.push(&event.name),
                    TimelinePhase::End => {
                        if stack.pop() != Some(event.name.as_str()) {
                            return Err(event);
                        }
                    }
                }
            }
            if let Some(name) = stack.last() {
                // Unclosed span: report its begin event.
                let begin = self
                    .events
                    .iter()
                    .find(|e| e.name == *name && e.phase == TimelinePhase::Begin)
                    .expect("begin event for unclosed span");
                return Err(begin);
            }
        }
        Ok(())
    }
}

/// One thread's events within a session, with the names of the spans it
/// opened in the session and has not closed yet (innermost last).
struct ThreadEvents {
    thread: u64,
    events: Vec<TimelineEvent>,
    open: Vec<String>,
}

/// One thread's shared event buffer within a session.
type EventBuffer = Arc<Mutex<ThreadEvents>>;

/// One session's event store: per-thread buffers registered on first use.
struct Sink {
    epoch: u64,
    buffers: Mutex<Vec<EventBuffer>>,
}

/// The active session's sink, if any. Only one session records at a time;
/// a nested/concurrent [`record`] call degrades to an empty timeline.
static SINK: Mutex<Option<Arc<Sink>>> = Mutex::new(None);
/// Bumped on every sink install *and* removal, so thread-cached buffer
/// registrations from a previous session never leak events into (or after)
/// the next one.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Dense thread ids, assigned on a thread's first timeline event.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's registration with the current sink: (epoch, buffer).
    static BUFFER: RefCell<Option<(u64, EventBuffer)>> =
        const { RefCell::new(None) };
    static THREAD_ID: RefCell<Option<u64>> = const { RefCell::new(None) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|cell| {
        *cell.borrow_mut().get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed))
    })
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Registers this thread with the sink of the given epoch; `None` when no
/// such sink is active (the session ended, or never was).
fn register_thread(epoch: u64) -> Option<EventBuffer> {
    let guard = lock(&SINK);
    let sink = guard.as_ref()?;
    if sink.epoch != epoch {
        return None;
    }
    let buffer = Arc::new(Mutex::new(ThreadEvents {
        thread: thread_id(),
        events: Vec::new(),
        open: Vec::new(),
    }));
    lock(&sink.buffers).push(Arc::clone(&buffer));
    Some(buffer)
}

/// Appends one event to this thread's buffer of the active session. Called
/// from span open/close only while the timeline state bit is set; a late
/// call racing the session teardown is dropped (epoch mismatch).
pub(crate) fn record_event(name: String, phase: TimelinePhase) {
    let at_ns = monotonic_ns();
    let epoch = EPOCH.load(Ordering::Acquire);
    BUFFER.with(|cell| {
        let mut cached = cell.borrow_mut();
        if !matches!(&*cached, Some((e, _)) if *e == epoch) {
            *cached = register_thread(epoch).map(|buffer| (epoch, buffer));
        }
        if let Some((_, buffer)) = &*cached {
            let mut buffer = lock(buffer);
            match phase {
                TimelinePhase::Begin => buffer.open.push(name.clone()),
                // The span opened before this thread joined the session, so
                // its Begin was never recorded: drop the End as well.
                TimelinePhase::End if buffer.open.pop().is_none() => return,
                TimelinePhase::End => {}
            }
            let thread = buffer.thread;
            buffer.events.push(TimelineEvent { thread, name, phase, at_ns });
        }
    });
}

/// Runs `f` with timeline recording active and returns its result together
/// with the recorded [`Timeline`].
///
/// Only one session records at a time: a nested or concurrent call still
/// runs `f` but returns an empty timeline (its events go to the outer
/// session). The recording sites are the existing [`span`](crate::span)
/// instrumentation — no extra annotation is needed.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Timeline) {
    let sink = {
        let mut guard = lock(&SINK);
        if guard.is_some() {
            None
        } else {
            let epoch = EPOCH.fetch_add(1, Ordering::AcqRel) + 1;
            let sink = Arc::new(Sink { epoch, buffers: Mutex::new(Vec::new()) });
            *guard = Some(Arc::clone(&sink));
            Some(sink)
        }
    };
    let Some(sink) = sink else {
        // Another session owns the recorder; degrade gracefully.
        return (f(), Timeline::default());
    };

    set_state_bit(STATE_TIMELINE);
    let result = f();
    clear_state_bit(STATE_TIMELINE);

    {
        let mut guard = lock(&SINK);
        // Invalidate stale thread registrations before draining, so an End
        // event from a span outliving the session cannot race the drain.
        EPOCH.fetch_add(1, Ordering::AcqRel);
        *guard = None;
    }
    // Spans still open at teardown (work that outlives the session on some
    // thread) are closed innermost first. Every recorded event read its
    // clock before the epoch bump above, so these Ends sort after them.
    let closed_at = monotonic_ns();
    let mut events = Vec::new();
    for buffer in lock(&sink.buffers).drain(..) {
        let mut buffer = lock(&buffer);
        events.append(&mut buffer.events);
        while let Some(name) = buffer.open.pop() {
            let thread = buffer.thread;
            events.push(TimelineEvent {
                thread,
                name,
                phase: TimelinePhase::End,
                at_ns: closed_at,
            });
        }
    }
    events.sort_by_key(|e| e.at_ns);
    (result, Timeline { events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;
    use crate::tests::serial;

    #[test]
    fn records_balanced_begin_end_pairs() {
        let _serial = serial();
        let ((), timeline) = record(|| {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            let _sibling = span("sibling");
        });
        assert_eq!(timeline.events.len(), 6);
        let names: Vec<(&str, TimelinePhase)> =
            timeline.events.iter().map(|e| (e.name.as_str(), e.phase)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", TimelinePhase::Begin),
                ("inner", TimelinePhase::Begin),
                ("inner", TimelinePhase::End),
                ("sibling", TimelinePhase::Begin),
                ("sibling", TimelinePhase::End),
                ("outer", TimelinePhase::End),
            ]
        );
        assert!(timeline.check_balanced().is_ok());
    }

    #[test]
    fn disabled_path_records_nothing() {
        let _serial = serial();
        {
            let _s = span("outside_any_session");
        }
        let ((), timeline) = record(|| ());
        assert!(timeline.events.iter().all(|e| e.name != "outside_any_session"));
    }

    #[test]
    fn check_balanced_flags_mismatched_pairs() {
        let timeline = Timeline {
            events: vec![
                TimelineEvent {
                    thread: 0,
                    name: "a".into(),
                    phase: TimelinePhase::Begin,
                    at_ns: 1,
                },
                TimelineEvent { thread: 0, name: "b".into(), phase: TimelinePhase::End, at_ns: 2 },
            ],
        };
        let offending = timeline.check_balanced().expect_err("mismatch expected");
        assert_eq!(offending.name, "b");
    }

    #[test]
    fn spans_straddling_a_session_boundary_stay_balanced() {
        let _serial = serial();
        let (opened_tx, opened_rx) = std::sync::mpsc::channel();
        let (close_tx, close_rx) = std::sync::mpsc::channel();
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        let (worker, first) = record(|| {
            let worker = std::thread::spawn(move || {
                let straddler = span("straddler");
                opened_tx.send(()).expect("the test thread listens");
                close_rx.recv().expect("the test thread releases the span");
                drop(straddler);
                closed_tx.send(()).expect("the test thread listens");
            });
            opened_rx.recv().expect("the worker opens its span");
            worker
        });
        // Still open when the first session ends: closed at teardown.
        assert!(first.check_balanced().is_ok());
        let phases: Vec<TimelinePhase> =
            first.events.iter().filter(|e| e.name == "straddler").map(|e| e.phase).collect();
        assert_eq!(phases, [TimelinePhase::Begin, TimelinePhase::End]);
        // Closed during the next session, which never saw it open: dropped.
        let ((), second) = record(|| {
            close_tx.send(()).expect("the worker listens");
            closed_rx.recv().expect("the worker closes its span");
        });
        worker.join().expect("worker");
        assert!(second.events.iter().all(|e| e.name != "straddler"), "{:?}", second.events);
    }

    #[test]
    fn worker_threads_join_the_timeline() {
        let _serial = serial();
        let ((), timeline) = record(|| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    std::thread::spawn(move || {
                        let _s = crate::span_dyn(|| format!("worker_{i}"));
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("worker");
            }
        });
        assert!(timeline.check_balanced().is_ok());
        let mut names: Vec<&str> = timeline
            .events
            .iter()
            .filter(|e| e.phase == TimelinePhase::Begin)
            .map(|e| e.name.as_str())
            .collect();
        names.sort_unstable();
        assert_eq!(names, vec!["worker_0", "worker_1"]);
        // The two workers are distinct threads.
        let workers: std::collections::BTreeSet<u64> = timeline
            .events
            .iter()
            .filter(|e| e.name.starts_with("worker_"))
            .map(|e| e.thread)
            .collect();
        assert_eq!(workers.len(), 2);
    }
}
