//! The one wait primitive of core and client: [`Parker`].
//!
//! The vendored `Condvar` skips a notify when it counted no waiter, so a
//! predicate changed outside the waiter's mutex can lose its wake for
//! good. A `Parker`'s state is private: it changes only inside
//! [`Parker::update`], under the lock, and the same closure picks the
//! [`Wake`]. "Stopped" is one more value of the state.
//!
//! ```compile_fail
//! // The state is private: no lock guard can be had from outside.
//! let p = mobigate_core::sync::Parker::new(0u32);
//! *p.state.lock() += 1;
//! ```
//!
//! ```compile_fail
//! // Nor can a reference escape an update to be mutated later.
//! use mobigate_core::sync::{Parker, Wake};
//! let p = Parker::new(0u32);
//! let r: &mut u32 = p.update(|s| (s, Wake::None));
//! *r += 1;
//! ```

use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which waiters an update wakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// No waiter can be waiting for this change.
    None,
    /// One waiter suffices (any of them can take the change up).
    One,
    /// Every waiter re-checks its predicate.
    All,
}

/// A state `S` behind one mutex and one condvar.
#[derive(Debug, Default)]
pub struct Parker<S> {
    state: Mutex<S>,
    cv: Condvar,
}

impl<S> Parker<S> {
    /// A parker holding `state`.
    pub const fn new(state: S) -> Self {
        Parker {
            state: Mutex::new(state),
            cv: Condvar::new(),
        }
    }

    /// Runs `f` on the state under the lock and wakes whom it says.
    pub fn update<R>(&self, f: impl FnOnce(&mut S) -> (R, Wake)) -> R {
        self.wait_then(|_| false, None, |s, _| f(s))
    }

    /// Reads the state under the lock.
    pub fn read<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.state.lock())
    }

    /// Blocks while `blocked` holds, until `deadline` when one is given.
    /// Returns `true` once `blocked` is false, `false` when the deadline
    /// passed with it still true.
    pub fn wait_while(&self, blocked: impl FnMut(&S) -> bool, deadline: Option<Instant>) -> bool {
        self.wait_then(blocked, deadline, |_, cleared| (cleared, Wake::None))
    }

    /// [`Self::wait_while`], then `then` under the same lock hold: it gets
    /// the state and whether `blocked` cleared, and returns its result and
    /// wake as in [`Self::update`] (taking a task, say, or consuming the
    /// wake that ended the wait).
    pub fn wait_then<R>(
        &self,
        mut blocked: impl FnMut(&S) -> bool,
        deadline: Option<Instant>,
        then: impl FnOnce(&mut S, bool) -> (R, Wake),
    ) -> R {
        let mut s = self.state.lock();
        let mut timed_out = false;
        while !timed_out && blocked(&s) {
            match deadline {
                None => self.cv.wait(&mut s),
                Some(d) => timed_out = self.cv.wait_until(&mut s, d).timed_out(),
            }
        }
        let cleared = !blocked(&s);
        let (r, wake) = then(&mut s, cleared);
        drop(s);
        // After the unlock: a waiter counted itself under the lock before
        // it slept, so the condvar sees it here.
        match wake {
            Wake::None => {}
            Wake::One => self.cv.notify_one(),
            Wake::All => self.cv.notify_all(),
        }
        r
    }
}

/// The instant `timeout` from now, or `None` — no deadline — when that is
/// later than an `Instant` can hold (`Instant::now() + Duration::MAX`
/// panics).
pub fn deadline_after(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

/// True once `deadline` (if any) has passed.
pub fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Two threads hand a token back and forth through `update` and
    /// `wait_while`; a wake lost between a check and a sleep hangs it.
    #[test]
    fn ping_pong_hands_off_100k_times() {
        const HANDOFFS: u32 = 100_000;
        let turn = Arc::new(Parker::new(0u32));
        let side = |turn: Arc<Parker<u32>>, parity: u32| {
            move || loop {
                turn.wait_while(|t| *t < HANDOFFS && *t % 2 != parity, None);
                let done = turn.update(|t| {
                    if *t >= HANDOFFS {
                        return (true, Wake::None);
                    }
                    *t += 1;
                    (false, Wake::One)
                });
                if done {
                    return;
                }
            }
        };
        let other = thread::spawn(side(turn.clone(), 1));
        side(turn.clone(), 0)();
        other.join().unwrap();
        assert_eq!(turn.read(|t| *t), HANDOFFS);
    }

    /// A deadline wait whose predicate never clears reports the timeout,
    /// and leaves the state as it was.
    #[test]
    fn deadline_wait_times_out_with_the_state_unchanged() {
        let p = Parker::new(7u32);
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(20);
        assert!(!p.wait_while(|s| *s == 7, Some(deadline)));
        assert!(Instant::now() >= deadline);
        let (value, cleared) = p.wait_then(
            |s| *s == 7,
            Some(Instant::now()),
            |s, cleared| ((*s, cleared), Wake::None),
        );
        assert_eq!((value, cleared), (7, false));
        // A predicate that already holds returns at once, deadline or not.
        assert!(p.wait_while(|s| *s != 7, None));
    }

    #[test]
    fn wake_all_reaches_every_waiter() {
        let stop = Arc::new(Parker::new(false));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let stop = stop.clone();
                thread::spawn(move || stop.wait_while(|s| !*s, None))
            })
            .collect();
        stop.update(|s| {
            *s = true;
            ((), Wake::All)
        });
        for w in waiters {
            assert!(w.join().unwrap());
        }
    }

    #[test]
    fn deadline_after_saturates_to_no_deadline() {
        assert_eq!(deadline_after(Duration::MAX), None);
        assert!(deadline_after(Duration::from_secs(1)).is_some());
        assert!(!expired(None));
        assert!(expired(Some(Instant::now())));
    }
}
