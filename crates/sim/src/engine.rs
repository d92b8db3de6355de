//! The event queue at the heart of the simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use crate::time::SimTime;

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// Ordering is on (time, seq) only; the event payload never participates, so
// no bounds are required on `E`.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic discrete-event engine.
///
/// Events of user-defined type `E` are scheduled at absolute virtual times
/// and popped in `(time, insertion order)` order, which makes simultaneous
/// events deterministic. The engine never runs user code itself; callers
/// drive it with a `while let Some((now, ev)) = engine.pop()` loop (or
/// [`Engine::run`]), which keeps borrow-checking simple: the handler gets
/// `&mut World` and `&mut Engine` at the same time.
///
/// # Examples
///
/// ```
/// use spindle_sim::{Engine, SimTime};
/// use std::time::Duration;
///
/// let mut engine: Engine<&'static str> = Engine::new();
/// engine.schedule_at(SimTime::from_micros(2), "b");
/// engine.schedule_at(SimTime::from_micros(2), "c"); // same instant: FIFO
/// engine.schedule_at(SimTime::from_micros(1), "a");
///
/// let order: Vec<_> = std::iter::from_fn(|| engine.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: BinaryHeap<Reverse<Scheduled<E>>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Engine<E> {
    /// Creates an empty engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or [`SimTime::ZERO`] before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Scheduling in the past is a logic error; in debug builds it panics,
    /// in release builds the event is clamped to `now` (it will still run
    /// after all previously scheduled events for `now`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` is earlier than [`Engine::now`].
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduled event in the past: {time:?} < {:?}",
            self.now
        );
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled { time, seq, event }));
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.queue.pop()?;
        debug_assert!(s.time >= self.now);
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(s)| s.time)
    }

    /// Drives the simulation until the queue drains, `handler` returns
    /// [`Step::Stop`], or `deadline` is reached (events after the deadline
    /// remain queued). Returns the final clock value.
    pub fn run<W>(
        &mut self,
        world: &mut W,
        deadline: SimTime,
        mut handler: impl FnMut(&mut W, &mut Engine<E>, SimTime, E) -> Step,
    ) -> SimTime {
        loop {
            match self.peek_time() {
                None => break,
                Some(t) if t > deadline => {
                    self.now = deadline;
                    break;
                }
                Some(_) => {}
            }
            let (t, ev) = self.pop().expect("peeked event must exist");
            if handler(world, self, t, ev) == Step::Stop {
                break;
            }
        }
        self.now
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

/// Control-flow result of an [`Engine::run`] handler invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Keep processing events.
    Continue,
    /// Stop the run loop immediately.
    Stop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_nanos(30), 3);
        e.schedule_at(SimTime::from_nanos(10), 1);
        e.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| e.pop().map(|(_, x)| x)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut e = Engine::new();
        for i in 0..100 {
            e.schedule_at(SimTime::from_nanos(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| e.pop().map(|(_, x)| x)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_micros(7), ());
        assert_eq!(e.now(), SimTime::ZERO);
        e.pop();
        assert_eq!(e.now(), SimTime::from_micros(7));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_micros(5), "first");
        e.pop();
        e.schedule_in(Duration::from_micros(2), "second");
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(7));
    }

    #[test]
    fn run_respects_deadline() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_micros(1), 1u32);
        e.schedule_at(SimTime::from_micros(100), 2u32);
        let mut seen = Vec::new();
        let end = e.run(&mut seen, SimTime::from_micros(10), |seen, _eng, _t, ev| {
            seen.push(ev);
            Step::Continue
        });
        assert_eq!(seen, [1]);
        assert_eq!(end, SimTime::from_micros(10));
        assert_eq!(e.len(), 1); // the post-deadline event remains
    }

    #[test]
    fn run_can_stop_early() {
        let mut e = Engine::new();
        for i in 0..10 {
            e.schedule_at(SimTime::from_nanos(i), i);
        }
        let mut count = 0u64;
        e.run(&mut count, SimTime::MAX, |count, _eng, _t, ev| {
            *count += 1;
            if ev == 4 {
                Step::Stop
            } else {
                Step::Continue
            }
        });
        assert_eq!(count, 5);
    }

    #[test]
    fn handler_can_schedule_more_events() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::ZERO, 0u32);
        let mut total = 0u32;
        e.run(&mut total, SimTime::MAX, |total, eng, _t, ev| {
            *total += 1;
            if ev < 5 {
                eng.schedule_in(Duration::from_nanos(1), ev + 1);
            }
            Step::Continue
        });
        assert_eq!(total, 6);
        assert_eq!(e.now(), SimTime::from_nanos(5));
    }
}
