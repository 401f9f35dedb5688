//! OptBSearch — Algorithm 2, with EgoBWCal (Algorithm 3) as an ego-local
//! kernel, and its exact computations spread over helper threads.
//!
//! Instead of the frozen degree bound, OptBSearch keeps vertices in a
//! max-heap keyed by the *dynamic* bound `ũb` (Lemma 3), which tightens as
//! other vertices' exact computations identify edges inside their egos.
//! On each pop the bound is refreshed; if it dropped substantially
//! (`θ·ũb < old`), the vertex is pushed back (or pruned outright when it
//! can no longer reach the top-k) instead of being computed. The gradient
//! ratio `θ ≥ 1` trades bound-refresh cost against exact-computation cost
//! (Exp-2 sweeps it; the paper's default is 1.05).
//!
//! Each exact computation runs the dense [`crate::ego_kernel::EgoKernel`]
//! on one ego, and `EgoCompletion` turns the triangles it enumerates
//! into per-vertex identified-edge counters, so a bound refresh is O(1).
//!
//! The heap is a lazy push-duplicates structure: `bound[v]` records the
//! value of `v`'s only *live* entry, and popped entries that disagree with
//! it are stale and skipped — the flat-structure idiom recommended over
//! decrease-key heaps.
//!
//! # Parallel exact computations
//!
//! The calling thread runs the whole search: heap, θ rule, pruning, early
//! termination, the top-k set and the identified-edge counters, which it
//! alone writes. A vertex that must be computed exactly goes to a helper
//! thread with room in its two-slot queue; each slot owns its own kernel
//! and shares nothing but the score and the rows it leaves behind. With
//! every queue full, the caller computes the vertex itself. The caller
//! credits and offers each finished ego when it next looks, in whatever
//! order they finish: the counters are exact for any completion order,
//! and an ego still in flight only leaves other bounds looser, never
//! wrong. Per-vertex scores are bit-identical to a one-thread search (one
//! kernel per ego); the work done, and so the choice among vertices tied
//! exactly at the k-th score, may differ between runs.
//!
//! Speculation is limited where it costs most: once the egos in flight
//! could fill the top-k, and so end the search, the caller settles them
//! before deciding on another vertex, and stops handing out work. It
//! settles an ego by taking it back when its helper has not started it,
//! and by computing it too when it has, so it never waits on a helper.
//!
//! Helpers are scoped to the call, started as work appears, one per other
//! CPU the caller may use (its affinity mask, capped by the process's
//! cgroup CPU quota), and only on a CPU that no other search's thread is
//! busy on: concurrent searches that already fill the CPUs, like a busy
//! daemon's worker threads, start none. A caller pinned to one CPU (a
//! pinned daemon), or a graph whose largest ego is too small to repay
//! starting a thread, gets none and runs the one-thread search.

use crate::cancel::{Cancel, Cancelled};
use crate::ego_kernel::{EgoCompletion, EgoKernel};
use crate::topk::{OrdF64, TopKSet, TopkResult};
use egobtw_graph::{CsrGraph, VertexId};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, Scope};

/// Tuning knobs for [`opt_bsearch`].
#[derive(Clone, Copy, Debug)]
pub struct OptParams {
    /// Gradient ratio `θ ≥ 1` (paper default 1.05): a popped vertex is
    /// re-enqueued rather than computed when `θ·ũb < old_bound`.
    pub theta: f64,
}

impl Default for OptParams {
    fn default() -> Self {
        OptParams { theta: 1.05 }
    }
}

/// A planted defect for the conformance suite's mutation check
/// (`stress --mutate opt-double-credit`); never a serving option.
/// `OptFault::None` is the honest search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptFault {
    /// No fault.
    None,
    /// Every identified ego edge is credited twice, so `ũb` can drop
    /// below `CB` and prune or stop before a true top-k member.
    DoubleCredit,
}

/// Runs OptBSearch for the top `k` ego-betweenness vertices.
pub fn opt_bsearch(g: &CsrGraph, k: usize, params: OptParams) -> TopkResult {
    opt_bsearch_with_fault(g, k, params, OptFault::None, None)
}

/// [`opt_bsearch`] with a planted [`OptFault`], for mutation testing, on
/// `helpers` helper threads (`None`: as many as [`opt_bsearch`] uses).
pub fn opt_bsearch_with_fault(
    g: &CsrGraph,
    k: usize,
    params: OptParams,
    fault: OptFault,
    helpers: Option<usize>,
) -> TopkResult {
    search(g, k, params, fault, &Cancel::never(), helpers)
        .expect("a never-cancelled search cannot be cancelled")
}

/// Heap pops between cancellation checkpoints in
/// [`opt_bsearch_cancellable`], and egos between those of
/// [`crate::base_search::base_bsearch_cancellable`] — an exact computation
/// per pop is the unit of work, so this bounds wasted post-cancel work to
/// a handful of egos.
pub(crate) const CANCEL_POLL_POPS: u32 = 32;

/// [`opt_bsearch`] with cooperative cancellation, polled every
/// [`CANCEL_POLL_POPS`] heap pops.
pub fn opt_bsearch_cancellable(
    g: &CsrGraph,
    k: usize,
    params: OptParams,
    cancel: &Cancel,
) -> Result<TopkResult, Cancelled> {
    search(g, k, params, OptFault::None, cancel, None)
}

/// The search on `helpers` helper threads, or when `None` on one per
/// other CPU the caller may use and no other search is busy on, if the
/// graph's largest ego repays starting them.
pub(crate) fn search(
    g: &CsrGraph,
    k: usize,
    params: OptParams,
    fault: OptFault,
    cancel: &Cancel,
    helpers: Option<usize>,
) -> Result<TopkResult, Cancelled> {
    assert!(params.theta >= 1.0, "θ must be ≥ 1");
    let credit = match fault {
        OptFault::None => 1,
        OptFault::DoubleCredit => 2,
    };
    let done = EgoCompletion::with_credit(g.n(), credit);
    if k == 0 || g.n() == 0 {
        return Ok(TopkResult {
            entries: Vec::new(),
            stats: done.stats,
        });
    }
    let n = g.n();
    let bound: Vec<f64> = (0..n as VertexId).map(|v| g.degree_bound(v)).collect();
    let mut s = Search {
        g,
        k,
        theta: params.theta,
        heap: (0..n as VertexId)
            .map(|v| (OrdF64(bound[v as usize]), v))
            .collect(),
        bound,
        done,
        top: TopKSet::new(k),
        kernel: EgoKernel::new(),
    };
    let budgeted = helpers.is_none();
    let helpers = helpers.unwrap_or_else(|| {
        let largest = s.heap.peek().map_or(0.0, |&(OrdF64(b), _)| b);
        if largest < SPAWN_MIN_PAIRS {
            0
        } else {
            helpers_for_caller()
        }
    });
    if helpers == 0 {
        s.run(cancel, None)?;
    } else {
        let boxes: Vec<Mailbox> = (0..helpers * QUEUE).map(|_| Mailbox::default()).collect();
        let stop = AtomicBool::new(false);
        let _caller = budgeted.then(Busy::caller);
        thread::scope(|scope| {
            let mut h = Helpers::new(scope, g, &boxes, &stop, budgeted);
            s.run(cancel, Some(&mut h))
        })?;
    }
    Ok(TopkResult {
        entries: s.top.into_sorted_vec(),
        stats: s.done.stats,
    })
}

/// The calling thread's search state.
struct Search<'g> {
    g: &'g CsrGraph,
    k: usize,
    theta: f64,
    heap: BinaryHeap<(OrdF64, VertexId)>,
    /// Live bound per vertex; NEG_INFINITY once computed exactly, handed
    /// to a helper, or pruned.
    bound: Vec<f64>,
    done: EgoCompletion,
    top: TopKSet,
    kernel: EgoKernel,
}

impl Search<'_> {
    fn run(&mut self, cancel: &Cancel, mut helpers: Option<&mut Helpers>) -> Result<(), Cancelled> {
        let g = self.g;
        let mut pops = 0u32;
        while let Some((OrdF64(tb), v)) = self.heap.pop() {
            pops += 1;
            // `== 1` so the very first pop polls: a token fired before the
            // search started must cancel even a search that would terminate
            // early, and `k` small searches often pop < CANCEL_POLL_POPS times.
            if pops % CANCEL_POLL_POPS == 1 {
                cancel.check()?;
            }
            if tb != self.bound[v as usize] {
                continue; // stale duplicate
            }
            if let Some(h) = helpers.as_deref_mut() {
                h.collect(self);
            }
            let fresh = self.done.bound(g, v);
            self.done.stats.bound_refreshes += 1;
            if self.theta * fresh < tb {
                // Bound dropped substantially: requeue or prune (Alg. 2, l.8-11).
                match self.top.min_score() {
                    Some(min_cb) if self.top.is_full() && fresh <= min_cb => {
                        self.bound[v as usize] = f64::NEG_INFINITY;
                        self.done.stats.pruned += 1;
                    }
                    _ => {
                        self.bound[v as usize] = fresh;
                        self.heap.push((OrdF64(fresh), v));
                        self.done.stats.heap_reinserts += 1;
                    }
                }
                continue;
            }
            // Early termination (Alg. 2, l.12): `tb` dominates every remaining
            // bound (bounds only decrease, stale entries are never smaller).
            if self.top.is_full() && tb <= self.top.min_score().expect("full set") {
                break;
            }
            if let Some(h) = helpers.as_deref_mut() {
                if h.pending > 0 && self.top.len() + h.pending >= self.k {
                    // The egos in flight may fill the top-k and end the
                    // search: settle them, then decide on `v` again.
                    h.settle(self);
                    self.heap.push((OrdF64(tb), v));
                    continue;
                }
                if self.top.len() + h.pending + 1 < self.k && h.post(v) {
                    self.bound[v as usize] = f64::NEG_INFINITY;
                    continue;
                }
            }
            self.compute(v);
        }
        if let Some(h) = helpers {
            h.settle(self);
        }
        Ok(())
    }

    /// Computes `v` on the calling thread, credits and offers it.
    fn compute(&mut self, v: VertexId) {
        let cb = self.done.complete(&mut self.kernel, self.g, v);
        self.bound[v as usize] = f64::NEG_INFINITY;
        self.top.offer(v, cb);
    }
}

/// Neighbour pairs in a graph's largest ego below which a search starts
/// no helper. Starting and joining one costs about 35 µs. The value was
/// set when an ego of this many pairs (degree 128) took about that long,
/// at ~4.5 ns a pair; the width-specialised POPCNT sweep now scores the
/// `static-skewed` graph's degree-143–163 hubs at about 2.8 ns a pair,
/// rows included (2-vCPU x86-64 VM), so the break-even ego is larger.
/// A probe estimate kept as it was: no benchmark workload runs an
/// unpinned search on graphs this small, so the value is not tuned end
/// to end.
const SPAWN_MIN_PAIRS: f64 = 8192.0;

/// Helper threads for a search on the calling thread: one per other CPU
/// it may use — the fewer of its affinity mask, read per search so that
/// pinning a thread takes effect at once, and the process's CPU count,
/// which honours a cgroup CPU quota.
fn helpers_for_caller() -> usize {
    cpus_in_affinity_mask()
        .min(process_cpus())
        .saturating_sub(1)
}

/// CPUs the process may use, cgroup quota included (and, as std counts
/// them, the affinity mask of the thread that first asks). Read once: it
/// costs tens of microseconds (cgroup files), too much for every search.
fn process_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Threads busy with automatic searches across the process: their
/// calling threads and their helpers. A search starts a helper only while
/// fewer than [`process_cpus`] are busy, so helpers run only on CPUs no
/// other search is using: a lone search gets one per spare CPU, while
/// concurrent searches that already fill the CPUs (a daemon's busy worker
/// threads) start none and run as one-thread searches. Searches given an
/// explicit helper count (tests, mutation checks) are not counted.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// One thread's place in [`BUSY`], given back on drop (when the search or
/// helper returns or unwinds).
struct Busy;

impl Busy {
    /// The calling thread of an automatic search: always counted.
    fn caller() -> Busy {
        BUSY.fetch_add(1, Ordering::Relaxed);
        Busy
    }

    /// A helper: counted, and so started, only if a CPU is free.
    fn helper() -> Option<Busy> {
        let cpus = process_cpus();
        BUSY.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
            (busy < cpus).then_some(busy + 1)
        })
        .ok()
        .map(|_| Busy)
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// CPUs the calling thread may run on: one system call, cheap enough per
/// search (unlike `available_parallelism`, which also reads cgroup
/// files). A mask the call cannot read (over 1024 CPUs) counts as one.
#[cfg(target_os = "linux")]
fn cpus_in_affinity_mask() -> usize {
    // glibc's wrapper (std links the C library on Linux); `pid` 0 is the
    // calling thread.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return 1;
    }
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

#[cfg(not(target_os = "linux"))]
fn cpus_in_affinity_mask() -> usize {
    process_cpus()
}

/// One slot of a helper's queue. `state` packs a vertex and a tag; the
/// caller moves it `IDLE → POSTED`, the helper `POSTED → RUNNING → DONE`,
/// and the caller back to `IDLE` once it has read the result (or
/// `POSTED → IDLE`, taking an unstarted ego back). Neither side makes a
/// system call to pass an ego.
///
/// Orderings: the caller's `POSTED` store (Release) pairs with the
/// helper's claiming load (Acquire); the helper's `DONE` store (Release),
/// made after it stored `cb` and released the kernel, pairs with the
/// caller's load (Acquire) that reads them. Taking an ego back and the
/// `stop` flag publish nothing (the scope's join orders the rest), so
/// they are `Relaxed`.
#[derive(Default)]
#[repr(align(128))] // one slot per cache-line pair: no false sharing
struct Mailbox {
    state: AtomicU64,
    /// Bits of the score of the `DONE` ego.
    cb: AtomicU64,
    /// The slot's kernel. The helper holds the lock while it computes;
    /// the caller takes it only after `DONE` to credit the ego's rows, so
    /// the lock is never contended, and the rows stay put while the
    /// helper computes the ego in its other slot.
    kernel: Mutex<EgoKernel>,
}

const IDLE: u64 = 0;
const POSTED: u64 = 1;
const RUNNING: u64 = 2;
const DONE: u64 = 3;
const TAG: u64 = 3;

fn slot(v: VertexId, tag: u64) -> u64 {
    (v as u64) << 2 | tag
}

/// Spins an idle helper makes before it starts yielding its CPU.
const IDLE_SPINS: u32 = 1 << 10;

/// Slots per helper: the next ego waits in the second while the helper
/// computes the first, so the helper does not sit idle until the caller
/// next looks.
const QUEUE: usize = 2;

/// A helper thread: computes the egos posted to its `boxes` until told
/// to stop.
fn helper(g: &CsrGraph, boxes: &[Mailbox], stop: &AtomicBool) {
    let mut idle = 0;
    loop {
        let mut worked = false;
        for mb in boxes {
            let s = mb.state.load(Ordering::Acquire);
            if s & TAG != POSTED {
                continue;
            }
            let v = (s >> 2) as VertexId;
            let claim = slot(v, RUNNING);
            if mb
                .state
                .compare_exchange(s, claim, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                let cb = mb
                    .kernel
                    .lock()
                    .expect("only this helper locks a posted slot's kernel")
                    .score(g, v);
                mb.cb.store(cb.to_bits(), Ordering::Relaxed);
                mb.state.store(slot(v, DONE), Ordering::Release);
                worked = true;
            }
        }
        if worked {
            idle = 0;
        } else if stop.load(Ordering::Relaxed) {
            return;
        } else if idle < IDLE_SPINS {
            idle += 1;
            std::hint::spin_loop();
        } else {
            thread::yield_now();
        }
    }
}

/// What the caller has handed a slot and not yet taken back.
#[derive(Clone, Copy)]
enum Held {
    Free,
    /// An ego the caller still needs.
    Ego(VertexId),
    /// An ego the caller computed itself while the helper still ran it;
    /// the slot is free again once the helper finishes.
    Abandoned,
}

/// The caller's side of the helper threads.
struct Helpers<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    g: &'env CsrGraph,
    /// [`QUEUE`] slots per helper, helper `h` owning the `h`-th chunk.
    boxes: &'env [Mailbox],
    stop: &'env AtomicBool,
    /// Whether starting a helper takes a place in [`BUSY`].
    budgeted: bool,
    /// Helpers started, and helpers that may still be.
    spawned: usize,
    usable: usize,
    held: Vec<Held>,
    /// Egos handed out and not yet collected.
    pending: usize,
}

impl<'scope, 'env> Helpers<'scope, 'env> {
    fn new(
        scope: &'scope Scope<'scope, 'env>,
        g: &'env CsrGraph,
        boxes: &'env [Mailbox],
        stop: &'env AtomicBool,
        budgeted: bool,
    ) -> Self {
        Helpers {
            scope,
            g,
            boxes,
            stop,
            budgeted,
            spawned: 0,
            usable: boxes.len() / QUEUE,
            held: vec![Held::Free; boxes.len()],
            pending: 0,
        }
    }

    /// Starts the next helper; `false` if none may start, for now (a CPU
    /// may free up later) or for good.
    fn spawn(&mut self) -> bool {
        if self.spawned == self.usable {
            return false;
        }
        let place = if self.budgeted {
            match Busy::helper() {
                Some(place) => Some(place),
                None => return false,
            }
        } else {
            None
        };
        let (g, stop) = (self.g, self.stop);
        let boxes = &self.boxes[self.spawned * QUEUE..][..QUEUE];
        let started = thread::Builder::new()
            .name("egobtw-helper".into())
            .spawn_scoped(self.scope, move || {
                let _place = place;
                helper(g, boxes, stop)
            });
        if started.is_err() {
            // Out of threads: carry on with the helpers running.
            self.usable = self.spawned;
            return false;
        }
        self.spawned += 1;
        true
    }

    /// Hands `v` to a helper: one with an empty queue, else a new one,
    /// else one with room in its queue. `false` if `v` stays with the
    /// caller.
    fn post(&mut self, v: VertexId) -> bool {
        let live = self.spawned * QUEUE;
        let free = |h: &Held| matches!(h, Held::Free);
        let Some(i) = self.held[..live]
            .chunks(QUEUE)
            .position(|queue| queue.iter().all(free))
            .map(|h| h * QUEUE)
            .or_else(|| self.spawn().then_some(live))
            .or_else(|| self.held[..live].iter().position(free))
        else {
            return false;
        };
        self.boxes[i]
            .state
            .store(slot(v, POSTED), Ordering::Release);
        self.held[i] = Held::Ego(v);
        self.pending += 1;
        true
    }

    /// Credits and offers every finished ego.
    fn collect(&mut self, s: &mut Search) {
        let live = self.spawned * QUEUE;
        for (mb, held) in self.boxes[..live].iter().zip(&mut self.held[..live]) {
            let state = mb.state.load(Ordering::Acquire);
            match *held {
                Held::Ego(u) if state == slot(u, DONE) => {
                    let kernel = mb
                        .kernel
                        .lock()
                        .expect("a DONE slot's helper released its kernel unharmed");
                    s.done.credit(&kernel, u);
                    s.done.stats.helper_computations += 1;
                    s.top
                        .offer(u, f64::from_bits(mb.cb.load(Ordering::Relaxed)));
                    self.pending -= 1;
                }
                Held::Abandoned if state & TAG == DONE => {}
                _ => continue,
            }
            mb.state.store(IDLE, Ordering::Release);
            *held = Held::Free;
        }
    }

    /// Collects every ego handed out, computing on the caller each one
    /// that has not finished: taken back if its helper has not started
    /// it, computed alongside it if it has.
    fn settle(&mut self, s: &mut Search) {
        loop {
            self.collect(s);
            let ego = |i: usize| match self.held[i] {
                Held::Ego(u) => Some((i, u)),
                _ => None,
            };
            let unstarted = |&(i, _): &(usize, VertexId)| {
                self.boxes[i].state.load(Ordering::Relaxed) & TAG == POSTED
            };
            let live = 0..self.spawned * QUEUE;
            // Unstarted egos first: taking one back wastes no work.
            let Some((i, u)) = live
                .clone()
                .filter_map(ego)
                .find(unstarted)
                .or_else(|| live.clone().find_map(ego))
            else {
                return;
            };
            let taken_back = self.boxes[i].state.compare_exchange(
                slot(u, POSTED),
                IDLE,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            self.held[i] = match taken_back {
                Ok(_) => Held::Free,
                Err(state) if state == slot(u, DONE) => continue, // collect it
                Err(_) => Held::Abandoned,
            };
            self.pending -= 1;
            s.compute(u);
        }
    }
}

impl Drop for Helpers<'_, '_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_search::base_bsearch;
    use crate::naive::compute_all_naive;
    use conformance::{check_topk, REL_TOL};
    use egobtw_gen::{classic, gnp, toy};
    use std::time::{Duration, Instant};

    fn check_against_oracle(g: &CsrGraph, k: usize, result: &TopkResult) {
        check_within(g, k, result, |_| 1e-9);
    }

    /// Oracle check with tolerance `tol(oracle value)`.
    fn check_within(g: &CsrGraph, k: usize, result: &TopkResult, tol: impl Fn(f64) -> f64) {
        let all = compute_all_naive(g);
        let mut sorted: Vec<f64> = all.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        assert_eq!(result.entries.len(), k.min(g.n()));
        for (rank, &(v, cb)) in result.entries.iter().enumerate() {
            let want = all[v as usize];
            assert!(
                (cb - want).abs() < tol(want),
                "value for {v}: {cb} vs {want}"
            );
            assert!((cb - sorted[rank]).abs() < tol(sorted[rank]), "rank {rank}");
        }
    }

    #[test]
    fn paper_example4_result_and_pruning() {
        // k=5, θ=1 on the Fig. 1 graph: answers {f,x,i,c,d}, and the
        // paper's trace invokes EgoBWCal six times (BaseBSearch needs ten).
        // Our heap may tie-break pops differently, so assert no more than
        // the paper's six and an exact result.
        // One thread: the count is the one-thread search's.
        let g = toy::paper_graph();
        let r = sequential(&g, 5, OptParams { theta: 1.0 });
        let mut vs = r.vertices();
        vs.sort_unstable();
        let mut expect = vec![
            toy::ids::F,
            toy::ids::X,
            toy::ids::I,
            toy::ids::C,
            toy::ids::D,
        ];
        expect.sort_unstable();
        assert_eq!(vs, expect);
        assert!(
            r.stats.exact_computations <= 6,
            "the paper's trace computes 6 egos exactly; got {}",
            r.stats.exact_computations
        );
        check_against_oracle(&g, 5, &r);
    }

    #[test]
    fn matches_base_search_values_everywhere() {
        for seed in 0..4 {
            let g = gnp(40, 0.15, seed);
            for k in [1, 5, 15, 40] {
                let b = base_bsearch(&g, k);
                let o = opt_bsearch(&g, k, OptParams::default());
                let bv: Vec<f64> = b.entries.iter().map(|e| e.1).collect();
                let ov: Vec<f64> = o.entries.iter().map(|e| e.1).collect();
                for (x, y) in bv.iter().zip(&ov) {
                    assert!((x - y).abs() < 1e-9, "seed {seed} k {k}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn oracle_on_named_graphs() {
        for g in [
            classic::karate_club(),
            classic::barbell(6),
            classic::star(12),
            classic::complete(9),
        ] {
            for k in [1, 4, 9] {
                let r = opt_bsearch(&g, k, OptParams::default());
                check_against_oracle(&g, k, &r);
            }
        }
    }

    #[test]
    fn oracle_on_hub_graphs() {
        // Skewed R-MAT has bitmap rows, so OptBSearch's kernel rows come
        // from the hub intersection kernels and BaseBSearch's diamond
        // check takes `has_edge`'s hub bit-probe branch. Hub scores reach
        // ~1e4 and both sum in a different order than the oracle, so the
        // tolerance is relative.
        let rel = |x: f64| 1e-9 * x.abs().max(1.0);
        for seed in 0..3 {
            let g = egobtw_gen::rmat(9, 4, egobtw_gen::rmat::RmatParams::skewed(), seed);
            assert!(g.hub_count() > 0, "seed {seed}: no hub rows");
            for k in [1, 10, 100] {
                check_within(&g, k, &opt_bsearch(&g, k, OptParams::default()), rel);
                check_within(&g, k, &base_bsearch(&g, k), rel);
            }
        }
    }

    #[test]
    fn theta_insensitive_results() {
        // θ changes work, never answers.
        let g = gnp(50, 0.1, 9);
        let reference = opt_bsearch(&g, 10, OptParams { theta: 1.0 });
        for theta in [1.05, 1.15, 1.3, 2.0] {
            let r = opt_bsearch(&g, 10, OptParams { theta });
            let rv: Vec<f64> = reference.entries.iter().map(|e| e.1).collect();
            let tv: Vec<f64> = r.entries.iter().map(|e| e.1).collect();
            for (x, y) in rv.iter().zip(&tv) {
                assert!((x - y).abs() < 1e-9, "θ={theta}");
            }
        }
    }

    #[test]
    fn prunes_at_least_as_well_as_base() {
        // Table II's headline: OptBSearch computes no more vertices
        // exactly than BaseBSearch (on one thread; helpers may add a few
        // speculative computations).
        for seed in 0..3 {
            let g = gnp(60, 0.12, seed);
            for k in [5, 15] {
                let b = base_bsearch(&g, k);
                let o = sequential(&g, k, OptParams::default());
                assert!(
                    o.stats.exact_computations <= b.stats.exact_computations,
                    "seed {seed} k {k}: opt {} vs base {}",
                    o.stats.exact_computations,
                    b.stats.exact_computations
                );
            }
        }
    }

    #[test]
    fn k_zero_and_k_over_n() {
        let g = classic::star(6);
        assert!(opt_bsearch(&g, 0, OptParams::default()).entries.is_empty());
        let r = opt_bsearch(&g, 99, OptParams::default());
        assert_eq!(r.entries.len(), 6);
        check_against_oracle(&g, 99, &r);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let r = opt_bsearch(&g, 3, OptParams::default());
        assert!(r.entries.is_empty());
    }

    #[test]
    fn cancelled_search_stops_instead_of_answering() {
        let g = gnp(80, 0.1, 11);
        let token = Cancel::new();
        token.cancel();
        assert!(matches!(
            opt_bsearch_cancellable(&g, 10, OptParams::default(), &token),
            Err(Cancelled)
        ));
        // And a live token changes nothing about the answer: exactly so
        // on one thread, up to ties with helpers.
        let live = |helpers| {
            search(
                &g,
                10,
                OptParams::default(),
                OptFault::None,
                &Cancel::new(),
                helpers,
            )
            .unwrap()
        };
        let plain = sequential(&g, 10, OptParams::default());
        assert_eq!(live(Some(0)).entries, plain.entries);
        let truth = compute_all_naive(&g);
        check_topk(&truth, &live(None).entries, 10, REL_TOL).unwrap();
    }

    /// The search on `helpers` helper threads, never cancelled.
    fn with_helpers(g: &CsrGraph, k: usize, helpers: usize) -> TopkResult {
        search(
            g,
            k,
            OptParams::default(),
            OptFault::None,
            &Cancel::never(),
            Some(helpers),
        )
        .unwrap()
    }

    /// The one-thread search.
    fn sequential(g: &CsrGraph, k: usize, params: OptParams) -> TopkResult {
        search(g, k, params, OptFault::None, &Cancel::never(), Some(0)).unwrap()
    }

    #[test]
    fn helpers_answer_like_the_oracle_with_the_same_score_bits() {
        let graphs = [
            gnp(60, 0.12, 1),
            gnp(80, 0.1, 11),
            egobtw_gen::rmat(9, 4, egobtw_gen::rmat::RmatParams::skewed(), 0),
            egobtw_gen::rmat(10, 3, egobtw_gen::rmat::RmatParams::skewed(), 2),
            toy::paper_graph(),
            classic::karate_club(),
            classic::star(40),
            classic::complete(12),
        ];
        let mut kernel = EgoKernel::new();
        for (gi, g) in graphs.iter().enumerate() {
            let truth = compute_all_naive(g);
            for k in [1, 3, 10, 50, g.n()] {
                let one = with_helpers(g, k, 0);
                for helpers in [0, 1, 3] {
                    let r = with_helpers(g, k, helpers);
                    let ctx = format!("graph {gi}, k {k}, {helpers} helpers");
                    check_topk(&truth, &r.entries, k, REL_TOL)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    for &(v, cb) in &r.entries {
                        let bits = kernel.score(g, v).to_bits();
                        assert_eq!(cb.to_bits(), bits, "{ctx}: vertex {v}");
                        if let Some(&(_, seq)) = one.entries.iter().find(|e| e.0 == v) {
                            assert_eq!(cb.to_bits(), seq.to_bits(), "{ctx}: vertex {v}");
                        }
                    }
                    assert!(r.stats.helper_computations <= r.stats.exact_computations);
                    if helpers == 0 {
                        assert_eq!(r.stats.helper_computations, 0, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn helpers_speculate_little() {
        // The `static-skewed` benchmark graph and k values.
        let g = egobtw_gen::rmat(11, 3, egobtw_gen::rmat::RmatParams::skewed(), 0xEB02);
        for k in [50, 100, 200, 500, 1000] {
            let one = with_helpers(&g, k, 0).stats.exact_computations;
            let three = with_helpers(&g, k, 3).stats.exact_computations;
            assert!(
                three as f64 <= 1.05 * one as f64,
                "k {k}: {three} exact computations with 3 helpers, {one} on one thread"
            );
        }
    }

    #[test]
    fn small_egos_start_no_helpers() {
        // Largest egos of 136, 703 and 8,128 pairs: all under
        // SPAWN_MIN_PAIRS, so the search stays on the caller whatever
        // its affinity mask holds.
        for g in [
            classic::karate_club(),
            classic::star(39),
            classic::star(129),
        ] {
            let largest = (0..g.n() as VertexId).map(|v| g.degree_bound(v));
            assert!(largest.fold(0.0, f64::max) < SPAWN_MIN_PAIRS);
            let r = opt_bsearch(&g, 5, OptParams::default());
            assert_eq!(r.stats.helper_computations, 0);
        }
    }

    #[test]
    fn helpers_start_only_on_free_cpus() {
        let g = egobtw_gen::rmat(11, 3, egobtw_gen::rmat::RmatParams::skewed(), 0xEB02);
        let truth = compute_all_naive(&g);
        // Every CPU taken by a search's calling thread (tests running at
        // the same time can only take more): no helper may start, and an
        // automatic search runs on its own thread.
        let callers: Vec<Busy> = (0..process_cpus()).map(|_| Busy::caller()).collect();
        assert!(Busy::helper().is_none());
        let r = opt_bsearch(&g, 200, OptParams::default());
        assert_eq!(r.stats.helper_computations, 0);
        check_topk(&truth, &r.entries, 200, REL_TOL).unwrap();
        drop(callers);
        // Concurrent automatic searches, as a daemon's worker threads run
        // them, answer like the oracle.
        thread::scope(|scope| {
            for t in 0..4 {
                let (g, truth) = (&g, &truth);
                scope.spawn(move || {
                    for k in [50 + t, 1000 + t] {
                        let r = opt_bsearch(g, k, OptParams::default());
                        check_topk(truth, &r.entries, k, REL_TOL).unwrap();
                    }
                });
            }
        });
    }

    #[test]
    fn cancel_mid_search_stops_the_helpers() {
        // Every ego of a 4096-vertex hub graph: far longer than the
        // deadline in any build.
        let g = egobtw_gen::rmat(12, 8, egobtw_gen::rmat::RmatParams::skewed(), 3);
        for helpers in [1, 3] {
            let token = Cancel::new().with_deadline(Instant::now() + Duration::from_millis(2));
            let started = Instant::now();
            let r = search(
                &g,
                g.n(),
                OptParams::default(),
                OptFault::None,
                &token,
                Some(helpers),
            );
            assert!(matches!(r, Err(Cancelled)), "{helpers} helpers");
            // `search` returns only once its scope has joined the helpers.
            assert!(started.elapsed() < Duration::from_secs(10));
        }
    }
}
