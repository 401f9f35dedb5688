//! Lightweight per-request tracing.
//!
//! A [`Trace`] is a stack-allocated record of where one request spent
//! its time — fixed phase array, monotonic clocks, zero heap allocation
//! until [`Trace::summary`] renders it (which only happens for `TRACE`d
//! requests and slow-query-log outliers). Phases are timed with
//! [`PhaseTimer`] values so no long-lived `&mut` borrow is held across
//! the timed region:
//!
//! ```
//! use egobtw_telemetry::span::{Phase, PhaseTimer, Trace};
//! let mut trace = Trace::start();
//! let t = PhaseTimer::start(Phase::Compute);
//! // … do the work …
//! trace.end(t);
//! assert!(trace.phase_ns(Phase::Compute) > 0 || trace.phase_ns(Phase::Compute) == 0);
//! ```

use std::time::Instant;

/// Where a request can spend its time, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Command-line parsing (prefix splitting + verb dispatch).
    Parse,
    /// Waiting in the admission queue for a worker.
    Queue,
    /// Acquiring the epoch snapshot (and the cache claim).
    Snapshot,
    /// Engine computation (exact search, approx sampling, or replay).
    Compute,
    /// Rendering the reply line.
    Serialize,
    /// Writing the reply frame to the socket.
    Write,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;
    /// All phases, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Parse,
        Phase::Queue,
        Phase::Snapshot,
        Phase::Compute,
        Phase::Serialize,
        Phase::Write,
    ];

    /// Stable lowercase label used in `trace=` summaries and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Queue => "queue",
            Phase::Snapshot => "snapshot",
            Phase::Compute => "compute",
            Phase::Serialize => "serialize",
            Phase::Write => "write",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::Queue => 1,
            Phase::Snapshot => 2,
            Phase::Compute => 3,
            Phase::Serialize => 4,
            Phase::Write => 5,
        }
    }
}

/// Engine work folded into a trace: `SearchStats`-shaped counters plus
/// the approx sampler's effort counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Vertices computed exactly (the paper's Table II metric).
    pub exact: u64,
    /// Vertices pruned by a bound.
    pub pruned: u64,
    /// Triangles processed.
    pub triangles: u64,
    /// Dynamic-bound refreshes.
    pub bound_refreshes: u64,
    /// Of `exact`, the egos computed on OptBSearch helper threads.
    pub helper_computations: u64,
    /// Approx connector-pair samples drawn.
    pub samples: u64,
    /// Approx sampling rounds.
    pub rounds: u64,
}

impl WorkCounters {
    /// True when every counter is zero (nothing to report).
    pub fn is_empty(&self) -> bool {
        *self == WorkCounters::default()
    }
}

/// An in-flight phase measurement; hand it back to [`Trace::end`].
pub struct PhaseTimer {
    phase: Phase,
    t0: Instant,
}

impl PhaseTimer {
    /// Starts timing `phase` now.
    pub fn start(phase: Phase) -> Self {
        PhaseTimer {
            phase,
            t0: Instant::now(),
        }
    }
}

/// Stack-allocated span record for one request.
#[derive(Clone, Debug)]
pub struct Trace {
    started: Instant,
    phase_ns: [u64; Phase::COUNT],
    /// Engine work counters folded in by the compute path.
    pub work: WorkCounters,
}

impl Default for Trace {
    fn default() -> Self {
        Self::start()
    }
}

impl Trace {
    /// A fresh trace whose total clock starts now.
    pub fn start() -> Self {
        Trace {
            started: Instant::now(),
            phase_ns: [0; Phase::COUNT],
            work: WorkCounters::default(),
        }
    }

    /// Folds a finished [`PhaseTimer`] into the trace.
    pub fn end(&mut self, timer: PhaseTimer) {
        self.add_ns(timer.phase, timer.t0.elapsed().as_nanos() as u64);
    }

    /// Adds externally measured time to a phase (e.g. queue wait handed
    /// down by the acceptor).
    pub fn add_ns(&mut self, phase: Phase, ns: u64) {
        self.phase_ns[phase.index()] = self.phase_ns[phase.index()].saturating_add(ns);
    }

    /// Accumulated nanoseconds in `phase`.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }

    /// Wall-clock nanoseconds since the trace started.
    pub fn total_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Single-token summary (no spaces — safe to append to `key=value`
    /// reply lines): `total:…us,parse:…us,…,exact:…` with zero phases
    /// and zero work counters omitted.
    pub fn summary(&self) -> String {
        let mut out = format!("total:{}us", self.total_ns() / 1_000);
        for p in Phase::ALL {
            let ns = self.phase_ns(p);
            if ns > 0 {
                out.push_str(&format!(",{}:{}us", p.label(), ns / 1_000));
            }
        }
        let w = &self.work;
        for (label, v) in [
            ("exact", w.exact),
            ("pruned", w.pruned),
            ("triangles", w.triangles),
            ("bound_refreshes", w.bound_refreshes),
            ("helper_computations", w.helper_computations),
            ("samples", w.samples),
            ("rounds", w.rounds),
        ] {
            if v > 0 {
                out.push_str(&format!(",{label}:{v}"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_summarize() {
        let mut tr = Trace::start();
        tr.add_ns(Phase::Parse, 2_000);
        tr.add_ns(Phase::Compute, 1_000_000);
        tr.add_ns(Phase::Compute, 500_000);
        tr.work.exact = 7;
        tr.work.samples = 120;
        assert_eq!(tr.phase_ns(Phase::Compute), 1_500_000);
        let s = tr.summary();
        assert!(s.starts_with("total:"), "{s}");
        assert!(s.contains(",parse:2us"), "{s}");
        assert!(s.contains(",compute:1500us"), "{s}");
        assert!(!s.contains("queue"), "zero phases omitted: {s}");
        assert!(s.contains(",exact:7"), "{s}");
        assert!(s.contains(",samples:120"), "{s}");
        assert!(!s.contains("pruned"), "zero counters omitted: {s}");
        assert!(!s.contains(' '), "summary must be a single token: {s}");
    }

    #[test]
    fn timer_records_elapsed_into_its_phase() {
        let mut tr = Trace::start();
        let t = PhaseTimer::start(Phase::Snapshot);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(t);
        assert!(tr.phase_ns(Phase::Snapshot) >= 1_000_000);
        assert!(tr.total_ns() >= tr.phase_ns(Phase::Snapshot));
    }

    #[test]
    fn saturating_phase_addition() {
        let mut tr = Trace::start();
        tr.add_ns(Phase::Write, u64::MAX);
        tr.add_ns(Phase::Write, 10);
        assert_eq!(tr.phase_ns(Phase::Write), u64::MAX);
    }
}
