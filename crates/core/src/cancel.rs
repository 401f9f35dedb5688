//! Cooperative cancellation for long-running engine computations.
//!
//! A [`Cancel`] token combines an explicit flag (set by a caller — e.g. a
//! server noticing the requesting client disconnected) with an optional
//! deadline. Engines poll it at coarse checkpoints — per heap pop batch,
//! per vertex chunk — so an abandoned request stops
//! burning CPU within a bounded amount of extra work instead of running
//! to completion for nobody. Polling is cooperative by design: the
//! checkpoints sit outside the hot inner kernels, so the cost of carrying
//! a token is a relaxed atomic load every few hundred microseconds of
//! work, unmeasurable next to the work itself.
//!
//! [`Cancel::never`] is the zero-cost default every infallible public
//! entry point uses: no allocation, every check is a branch on `None`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The computation was cancelled (explicitly or by deadline) before it
/// finished; any partial result has been discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("computation cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// A cheaply clonable cancellation token: an optional shared flag plus an
/// optional deadline. Clones share the flag (cancelling one cancels all)
/// but carry their own deadline, so one connection-scoped token can spawn
/// per-request deadlines via [`Cancel::with_deadline`].
#[derive(Clone, Debug, Default)]
pub struct Cancel {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl Cancel {
    /// A token that never cancels; checks compile to a branch on `None`.
    pub fn never() -> Cancel {
        Cancel::default()
    }

    /// A fresh cancellable token with no deadline.
    pub fn new() -> Cancel {
        Cancel {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
        }
    }

    /// A derived token sharing this one's flag but expiring at `deadline`
    /// (whichever of the two deadlines is earlier wins).
    pub fn with_deadline(&self, deadline: Instant) -> Cancel {
        Cancel {
            flag: self.flag.clone(),
            deadline: Some(match self.deadline {
                Some(existing) => existing.min(deadline),
                None => deadline,
            }),
        }
    }

    /// Fires the explicit flag; every clone sharing it observes the
    /// cancellation at its next check. A no-op on [`Cancel::never`].
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the *explicit* flag fired (distinguishes a caller-initiated
    /// cancel — e.g. client disconnect — from a deadline expiry).
    pub fn is_flagged(&self) -> bool {
        self.flag
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Whether the token is cancelled (flag fired or deadline passed).
    pub fn is_cancelled(&self) -> bool {
        self.is_flagged() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The checkpoint engines call: `Err(Cancelled)` once cancelled.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn never_never_cancels() {
        let c = Cancel::never();
        c.cancel(); // no-op
        assert!(!c.is_cancelled());
        assert!(c.check().is_ok());
    }

    #[test]
    fn explicit_cancel_propagates_to_clones() {
        let c = Cancel::new();
        let clone = c.clone();
        assert!(c.check().is_ok());
        clone.cancel();
        assert!(c.is_flagged());
        assert_eq!(c.check(), Err(Cancelled));
    }

    #[test]
    fn deadline_expires_without_a_flag() {
        let c = Cancel::new().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(!c.is_flagged(), "deadline expiry is not an explicit cancel");
        assert!(c.is_cancelled());
        assert_eq!(c.check(), Err(Cancelled));
    }

    #[test]
    fn derived_deadline_keeps_the_earlier_one() {
        let near = Instant::now() - Duration::from_millis(1);
        let far = Instant::now() + Duration::from_secs(3600);
        let c = Cancel::new().with_deadline(near).with_deadline(far);
        assert!(c.is_cancelled(), "tightening must not loosen the deadline");
        let base = Cancel::new().with_deadline(far);
        assert!(!base.is_cancelled());
    }
}
