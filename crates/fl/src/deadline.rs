//! The sanctioned channel-wait helpers for the FL runtime.
//!
//! The original threaded transport collected round updates with a bare
//! blocking `mpsc` `recv()`, which only errors once **every** sender has
//! dropped — so a single dead client thread hung the server forever (the
//! documented "client thread died mid-round" path was unreachable). Lint
//! rule L008 now bans bare `recv()`/`recv_timeout()` throughout `dinar-fl`
//! outside this module; all waits go through [`DeadlineReceiver`], which
//!
//! * budgets the wait against an injectable [`Clock`] deadline (so
//!   [`ManualClock`](crate::clock::ManualClock) replay tests stay
//!   deterministic — a clock that never advances never expires a deadline),
//! * surfaces periodic [`Step::Tick`]s between messages so the caller can
//!   run liveness checks (e.g. "has a pending client's thread exited?")
//!   instead of blocking blindly,
//! * reports sender disconnection distinctly from deadline expiry.
//!
//! Client command loops, which legitimately block until the server speaks
//! or hangs up, use [`recv_blocking`].

use crate::clock::Clock;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;

/// Real-time granularity of one poll slice: how often a waiting receiver
/// wakes to emit a [`Step::Tick`]. Liveness checks and (wall-clock)
/// deadline checks happen at this cadence; it bounds the *detection*
/// latency of a dead sender, not any result value, so it has no effect on
/// deterministic outputs.
const POLL_SLICE: Duration = Duration::from_millis(1);

/// Outcome of one bounded wait step on a [`DeadlineReceiver`].
#[derive(Debug)]
pub enum Step<T> {
    /// A message arrived.
    Msg(T),
    /// No message within one poll slice; run liveness checks and call
    /// [`DeadlineReceiver::step`] again.
    Tick,
    /// The clock passed the caller's deadline with no message.
    Expired,
    /// Every sender has dropped; no further message can arrive.
    Disconnected,
}

/// A receiver whose waits are budgeted by an injectable [`Clock`].
#[derive(Debug)]
pub struct DeadlineReceiver<'a, T> {
    rx: &'a Receiver<T>,
    clock: &'a dyn Clock,
}

impl<'a, T> DeadlineReceiver<'a, T> {
    /// Wraps `rx`, timing deadlines on `clock`.
    pub fn new(rx: &'a Receiver<T>, clock: &'a dyn Clock) -> Self {
        DeadlineReceiver { rx, clock }
    }

    /// Waits up to one poll slice for a message. `deadline` is an absolute
    /// instant on the clock's timeline (e.g. `round_start + budget`);
    /// `None` means no deadline. Pending messages are always drained before
    /// the deadline is consulted, so a message that raced the deadline is
    /// never lost.
    pub fn step(&self, deadline: Option<Duration>) -> Step<T> {
        // Drain without waiting first: a queued message beats both the
        // deadline check and the poll sleep.
        match self.rx.try_recv() {
            Ok(msg) => return Step::Msg(msg),
            Err(TryRecvError::Disconnected) => return Step::Disconnected,
            Err(TryRecvError::Empty) => {}
        }
        if let Some(d) = deadline {
            if self.clock.elapsed() >= d {
                return Step::Expired;
            }
        }
        match self.rx.recv_timeout(POLL_SLICE) {
            Ok(msg) => Step::Msg(msg),
            Err(RecvTimeoutError::Timeout) => Step::Tick,
            Err(RecvTimeoutError::Disconnected) => Step::Disconnected,
        }
    }
}

/// Blocks until a message arrives or every sender has dropped (`None`).
/// The sanctioned wait for client command loops, which have no deadline:
/// they serve rounds until the server hangs up.
pub fn recv_blocking<T>(rx: &Receiver<T>) -> Option<T> {
    rx.recv().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ManualClock, WallClock};
    use std::sync::mpsc::channel;

    #[test]
    fn queued_message_beats_expired_deadline() {
        let (tx, rx) = channel();
        let clock = ManualClock::new();
        clock.advance(Duration::from_secs(10));
        tx.send(7u32).unwrap();
        let drx = DeadlineReceiver::new(&rx, &clock);
        // Deadline long past, but the message is already queued.
        assert!(matches!(
            drx.step(Some(Duration::from_secs(1))),
            Step::Msg(7)
        ));
        // Now the queue is empty: the deadline fires.
        assert!(matches!(
            drx.step(Some(Duration::from_secs(1))),
            Step::Expired
        ));
    }

    #[test]
    fn manual_clock_never_expires_a_deadline() {
        let (_tx, rx) = channel::<u32>();
        let clock = ManualClock::new();
        let drx = DeadlineReceiver::new(&rx, &clock);
        // The clock sits at zero, so even a tiny deadline never expires;
        // the step degrades to a tick (after one real poll slice).
        assert!(matches!(
            drx.step(Some(Duration::from_nanos(1))),
            Step::Tick
        ));
    }

    #[test]
    fn disconnect_is_reported() {
        let (tx, rx) = channel::<u32>();
        drop(tx);
        let clock = WallClock::new();
        let drx = DeadlineReceiver::new(&rx, &clock);
        assert!(matches!(drx.step(None), Step::Disconnected));
    }

    #[test]
    fn wall_clock_deadline_expires() {
        let (_tx, rx) = channel::<u32>();
        let clock = WallClock::new();
        let drx = DeadlineReceiver::new(&rx, &clock);
        // An already-elapsed deadline expires on the first empty step.
        assert!(matches!(drx.step(Some(Duration::ZERO)), Step::Expired));
    }

    #[test]
    fn recv_blocking_returns_message_then_none() {
        let (tx, rx) = channel();
        tx.send(1u8).unwrap();
        assert_eq!(recv_blocking(&rx), Some(1));
        drop(tx);
        assert_eq!(recv_blocking(&rx), None);
    }
}
