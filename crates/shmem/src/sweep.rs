//! The deterministic parallel trial engine.
//!
//! Every theorem check in this reproduction is a *sweep* of independent
//! deterministic trials — seeds × sizes × configurations. This module is
//! the one engine all of them run on:
//!
//! * a [`Trial`] is one unit of work, identified by its index in the sweep
//!   and carrying a seed derived purely from `(sweep seed, index)`;
//! * a [`Sweep`] describes how to run a batch of trials: with how many
//!   worker threads, under which sweep seed, retry budget and per-trial
//!   deadline, and with which cancel token;
//! * [`Sweep::run`], [`Sweep::run_fallible`] and [`Sweep::run_range`] fan
//!   trials out over `std::thread::scope` workers — one worker loop
//!   behind all three — and merge the results **in trial-index order**.
//!
//! Because each trial's output depends only on its item and its derived
//! seed, and because the merge order is the index order, the produced
//! `Vec` is identical at 1, 4, or 16 threads — tables and JSON artifacts
//! rendered from it are byte-identical regardless of `--threads`.
//!
//! # Examples
//!
//! ```
//! use llsc_shmem::sweep::Sweep;
//! let items: Vec<u64> = (0..100).collect();
//! let serial = Sweep::sequential().run(&items, |t, &x| x * 2 + (t.seed % 2));
//! let parallel = Sweep::with_threads(4).run(&items, |t, &x| x * 2 + (t.seed % 2));
//! assert_eq!(serial, parallel);
//! ```

use crate::rng::{retry_seed, trial_seed};
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One unit of work within a sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trial {
    /// The trial's position in the sweep (also its merge position).
    pub index: usize,
    /// The trial's private seed, derived from `(sweep seed, index)` by
    /// [`trial_seed`]. Identical across thread counts and run orders.
    pub seed: u64,
}

/// A trial that panicked inside [`Sweep::run_fallible`]: the identifying
/// `(index, seed)` pair plus the stringified panic payload and the
/// experiment-provided context (its fault/crash plan summary), so a
/// failure row in a JSON artifact is enough to replay the one bad trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialFailure {
    /// The failing trial's position in the sweep.
    pub index: usize,
    /// The failing trial's *base* derived seed (attempt 0's seed; retry
    /// attempts derive theirs from it via [`retry_seed`]).
    pub seed: u64,
    /// The seed the *final* attempt actually ran under
    /// ([`retry_seed`]`(seed, attempts - 1)`; equal to `seed` when no
    /// retries were configured). Recorded explicitly so a failure row is
    /// actionable — replayable under the right seed — without re-deriving
    /// the retry chain.
    pub derived_seed: u64,
    /// The panic payload of the last attempt, rendered by
    /// [`panic_message`].
    pub payload: String,
    /// Experiment-provided reproduction context (for example the trial's
    /// fault/crash plan summary); empty when the sweep attached none.
    pub context: String,
    /// Total attempts made (1 = no retries configured or needed; 0 = the
    /// sweep was cancelled before the trial started).
    pub attempts: u32,
    /// A serialized [`crate::repro::ReproCase`] for the failing run, when
    /// the experiment attached one (the sweep engine itself cannot build
    /// it: only the experiment knows the algorithm and plans).
    pub repro: Option<String>,
}

impl fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trial {} (seed {:#018x}) panicked: {}",
            self.index, self.seed, self.payload
        )?;
        if !self.context.is_empty() {
            write!(f, " [{}]", self.context)?;
        }
        if self.attempts > 1 {
            write!(
                f,
                " (after {} attempts; final seed {:#018x})",
                self.attempts, self.derived_seed
            )?;
        }
        Ok(())
    }
}

/// One trial's result inside the engine. The failure is boxed so a result
/// slot costs no more than the trial's output.
type Outcome<T> = Result<T, Box<TrialFailure>>;

/// Why a trial was stopped from outside: the payload a trial attempt
/// unwinds with when its sweep's cancel token is raised or its
/// wall-clock deadline passes (see [`Sweep::cancel`] and
/// [`Sweep::trial_timeout`]).
///
/// The payload is typed so code that isolates panics *inside* a trial
/// (a classifier turning an algorithm's panic into an outcome class) can
/// tell an abort apart from a failure of the run itself and hand it on
/// with [`std::panic::resume_unwind`]; its [`fmt::Display`] form is what
/// the sweep records as the [`TrialFailure::payload`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialAbort {
    /// The sweep's cancel token was raised.
    Cancelled {
        /// Events the trial's executor had recorded at the poll.
        events: u64,
    },
    /// The trial's wall-clock deadline passed.
    DeadlineExceeded {
        /// Events the trial's executor had recorded at the poll.
        events: u64,
    },
}

impl fmt::Display for TrialAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialAbort::Cancelled { events } => {
                write!(f, "sweep cancelled after {events} recorded events")
            }
            TrialAbort::DeadlineExceeded { events } => write!(
                f,
                "trial wall-clock deadline exceeded after {events} recorded events"
            ),
        }
    }
}

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind` or a
/// thread join): `&str` and `String` payloads verbatim, a [`TrialAbort`]
/// in its display form, anything else as an opaque label.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(abort) = payload.downcast_ref::<TrialAbort>() {
        abort.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// What the trial attempt currently running on a worker thread polls:
/// its wall-clock deadline and its sweep's cancel token.
#[derive(Default)]
struct Armed {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

thread_local! {
    /// The armed state of the trial attempt running on this thread; empty
    /// outside sweeps.
    static ARMED: RefCell<Armed> = const {
        RefCell::new(Armed {
            deadline: None,
            cancel: None,
        })
    };
}

/// Polls the running trial's cancel token and deadline; called from
/// long-running loops inside a trial (the executor's event guard does,
/// every 512 events). Unwinds with a [`TrialAbort`] payload — into the
/// trial's [`TrialFailure`] — when the token is raised or the deadline
/// has passed. A no-op on threads with nothing armed, so code under test
/// or outside sweeps is unaffected.
pub(crate) fn check_trial_deadline(events: u64) {
    let (cancelled, expired) = ARMED.with_borrow(|a| {
        (
            a.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed)),
            a.deadline.is_some_and(|t| Instant::now() >= t),
        )
    });
    // `resume_unwind` skips the panic hook: an abort is not a bug, and
    // the failure row already carries its message.
    if cancelled {
        std::panic::resume_unwind(Box::new(TrialAbort::Cancelled { events }));
    }
    if expired {
        std::panic::resume_unwind(Box::new(TrialAbort::DeadlineExceeded { events }));
    }
}

/// Arms the calling thread for one trial attempt; restores the previous
/// state on drop, *including* across the unwind of a cancelled or
/// timed-out (panicking) attempt.
struct ArmedGuard(Armed);

impl ArmedGuard {
    fn arm(sweep: &Sweep) -> ArmedGuard {
        let armed = Armed {
            deadline: sweep.trial_timeout.map(|t| Instant::now() + t),
            cancel: sweep.cancel.clone(),
        };
        ArmedGuard(ARMED.replace(armed))
    }
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        ARMED.set(std::mem::take(&mut self.0));
    }
}

/// A batch of independent deterministic trials: thread count, sweep seed,
/// retry budget, optional per-trial wall-clock deadline, and optional
/// cancel token.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Worker threads to fan trials out over (clamped to at least 1).
    pub threads: usize,
    /// The sweep seed from which every trial seed is derived.
    pub seed: u64,
    /// Deterministic re-runs granted to a panicking trial before it is
    /// reported as a [`TrialFailure`] (attempt `k` runs under
    /// [`retry_seed`]`(trial.seed, k)`). Default 0: fail on first panic.
    pub retries: u32,
    /// Per-trial wall-clock deadline; `None` (the default) disables the
    /// check. Timeouts convert a hung trial into a structured failure,
    /// at the price of machine-speed dependence *in failure rows only* —
    /// trials that finish in time are untouched, so passing artifacts
    /// stay byte-identical.
    pub trial_timeout: Option<Duration>,
    /// Cooperative cancellation for this sweep alone; `None` (the
    /// default) makes it uncancellable. Once the token is raised, running
    /// trials panic at their next executor poll (like a timeout), and
    /// unstarted trials and retries fail without running. Other sweeps —
    /// on other threads, in the same process — are unaffected.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::sequential()
    }
}

impl Sweep {
    /// A single-threaded sweep with the default seed 0.
    pub fn sequential() -> Self {
        Sweep {
            threads: 1,
            seed: 0,
            retries: 0,
            trial_timeout: None,
            cancel: None,
        }
    }

    /// A sweep over `threads` workers with the default seed 0.
    pub fn with_threads(threads: usize) -> Self {
        Sweep {
            threads,
            ..Sweep::sequential()
        }
    }

    /// Sets the sweep seed (builder style).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the retry budget (builder style); see [`Sweep::retries`].
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the per-trial wall-clock deadline (builder style); see
    /// [`Sweep::trial_timeout`].
    pub fn with_trial_timeout(mut self, timeout: Duration) -> Self {
        self.trial_timeout = Some(timeout);
        self
    }

    /// Sets the cancel token (builder style); see [`Sweep::cancel`].
    pub fn with_cancel(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs `f` once per item and returns the outputs in item order.
    ///
    /// Work distribution is dynamic (an atomic cursor; busy trials do not
    /// stall the queue), but the output position of each trial is its
    /// index, so the result is independent of scheduling. `f` must be a
    /// pure function of `(trial, item)` for the determinism guarantee to
    /// mean anything; nothing in this engine hands it ambient state.
    ///
    /// # Panics
    ///
    /// Re-raises the first (lowest-index) panic any trial recorded — but
    /// only after every other trial has run to completion: one diverging
    /// seed does not take the rest of the sweep down with it.
    /// [`Sweep::run_fallible`] returns the failures instead.
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(Trial, &I) -> T + Sync,
    {
        self.run_range(0..items.len(), || (), |(), t| f(t, &items[t.index]))
    }

    /// Runs `f` once per trial index in `range`, isolating panics: the
    /// result vector is in index order, with each panicking trial
    /// recorded as a [`TrialFailure`] while every other trial still
    /// completes and returns `Ok`. `context(trial)` is evaluated for each
    /// *failing* trial and recorded in its [`TrialFailure::context`]
    /// (experiments put their fault/crash plan summaries there, making any
    /// failure row in a JSON artifact reproducible on its own).
    ///
    /// Trial identity comes from the global index, as in
    /// [`Sweep::run_range`], so a range run in pieces — the chunks of a
    /// resumable job — yields the trials (and failures) of one sweep over
    /// the whole range.
    ///
    /// Each attempt runs under [`std::panic::catch_unwind`], and results
    /// are merged through per-slot locks with poison recovery, so neither
    /// the unwind nor the merge can cascade one bad seed into the loss of
    /// the whole sweep. As with [`Sweep::run`], `f` must be a pure
    /// function of its trial; that purity is also what makes it
    /// unwind-safe to retry or record.
    ///
    /// A panicking trial is re-run [`Sweep::retries`] times under
    /// deterministic derived seeds before it is reported, and each attempt
    /// runs under the sweep's [`Sweep::trial_timeout`] and
    /// [`Sweep::cancel`] token, if set.
    pub fn run_fallible<T, F, C>(
        &self,
        range: Range<usize>,
        f: F,
        context: C,
    ) -> Vec<Result<T, TrialFailure>>
    where
        T: Send,
        F: Fn(Trial) -> T + Sync,
        C: Fn(Trial) -> String + Sync,
    {
        self.run_core(range, || (), |(), t| f(t), context)
            .map(|r| r.map_err(|failure| *failure))
            .collect()
    }

    /// Runs `f` once per trial index in `range`, each worker reusing one
    /// `init()`-built **scratch** across the trials it claims — a
    /// reusable executor, memory buffers, or any other trial context that
    /// would otherwise be reallocated per trial. Outputs come back in
    /// index order.
    ///
    /// Trial identity (index *and* derived seed) comes from the global
    /// index, exactly as in [`Sweep::run`]: executing `0..total` as a
    /// sequence of ranges — across separate calls, thread counts, or
    /// process lifetimes — yields the outputs of one sweep over
    /// `0..total`, sliced. This is the chunking hook the resumable job
    /// layer is built on.
    ///
    /// The determinism contract extends to the scratch: `f`'s *output*
    /// must remain a pure function of the trial — the scratch may carry
    /// allocation capacity between trials, but no trial-visible state
    /// (reset it at the top of `f`, e.g.
    /// [`Executor::reset`](crate::Executor::reset)). After a panicking
    /// attempt the worker discards its scratch and builds a fresh one, so
    /// a retry never sees the state the unwind left behind. The scratch
    /// never crosses threads, so `S` needs neither `Send` nor `Sync`.
    ///
    /// # Panics
    ///
    /// As [`Sweep::run`]: re-raises the lowest-index [`TrialFailure`]
    /// after every other trial has run.
    pub fn run_range<T, S, Init, F>(&self, range: Range<usize>, init: Init, f: F) -> Vec<T>
    where
        T: Send,
        Init: Fn() -> S + Sync,
        F: Fn(&mut S, Trial) -> T + Sync,
    {
        unwrap_all(self.run_core(range, init, f, |_| String::new()))
    }

    /// The one worker loop behind every entry point: workers claim trial
    /// indices of `range` from an atomic cursor, run each through
    /// [`Sweep::run_trial`] on their own scratch, and store the result in
    /// the trial's slot. With one thread the loop runs on the caller's
    /// thread; an empty range builds no scratch. Results are yielded
    /// straight out of the slots, so a sweep holds no second copy of them.
    fn run_core<T, S, Init, F, C>(
        &self,
        range: Range<usize>,
        init: Init,
        f: F,
        context: C,
    ) -> impl Iterator<Item = Outcome<T>>
    where
        T: Send,
        Init: Fn() -> S + Sync,
        F: Fn(&mut S, Trial) -> T + Sync,
        C: Fn(Trial) -> String + Sync,
    {
        let cursor = AtomicUsize::new(0);
        // One slot per trial, so a worker's lock scope covers exactly its
        // own slot: a panicking trial cannot poison any other trial's
        // result. Results are computed before locking, and the merge
        // recovers from a poisoned slot regardless.
        let slots: Vec<Mutex<Option<Outcome<T>>>> =
            range.clone().map(|_| Mutex::new(None)).collect();
        let worker = || {
            let mut scratch = init();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let index = range.start + i;
                let trial = Trial {
                    index,
                    seed: trial_seed(self.seed, index),
                };
                let out = self.run_trial(&mut scratch, &init, &f, &context, trial);
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            }
        };
        match self.threads.max(1).min(slots.len()) {
            0 => {}
            1 => worker(),
            threads => std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(worker);
                }
            }),
        }
        slots.into_iter().map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every trial index was claimed exactly once")
        })
    }

    /// Runs one trial's attempts: each under `catch_unwind` and the armed
    /// deadline and cancel token, retrying under derived seeds. A panic
    /// rebuilds the scratch; a raised token stops further attempts.
    fn run_trial<T, S>(
        &self,
        scratch: &mut S,
        init: &impl Fn() -> S,
        f: &impl Fn(&mut S, Trial) -> T,
        context: &impl Fn(Trial) -> String,
        trial: Trial,
    ) -> Outcome<T> {
        let mut payload = None;
        let budget = self.retries.saturating_add(1);
        let mut attempts = 0;
        while attempts < budget && !self.cancelled() {
            let attempt = Trial {
                index: trial.index,
                seed: retry_seed(trial.seed, attempts),
            };
            attempts += 1;
            let _armed = ArmedGuard::arm(self);
            match catch_unwind(AssertUnwindSafe(|| f(scratch, attempt))) {
                Ok(out) => return Ok(out),
                Err(p) => {
                    payload = Some(panic_message(p.as_ref()));
                    *scratch = init();
                }
            }
        }
        Err(Box::new(TrialFailure {
            index: trial.index,
            seed: trial.seed,
            derived_seed: retry_seed(trial.seed, attempts.saturating_sub(1)),
            payload: payload.unwrap_or_else(|| "sweep cancelled before the trial started".into()),
            context: context(trial),
            attempts,
            repro: None,
        }))
    }

    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

/// The infallible entry points' view of a sweep: every output, or a panic
/// carrying the first (lowest-index) failure.
fn unwrap_all<T>(results: impl Iterator<Item = Outcome<T>>) -> Vec<T> {
    results
        .map(|r| r.unwrap_or_else(|failure| panic!("{failure}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins like a hung executor: polls the armed trial state every 512
    /// "events" until a poll panics.
    fn hang() -> ! {
        let mut events = 0u64;
        loop {
            events += 1;
            if events.is_multiple_of(512) {
                check_trial_deadline(events);
            }
        }
    }

    #[test]
    fn results_are_in_index_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = Sweep::with_threads(8).run(&items, |t, &x| {
            assert_eq!(t.index, x);
            x * 3
        });
        assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let items: Vec<u64> = (0..500).collect();
        let f = |t: Trial, x: &u64| (t.seed ^ x, t.index);
        let base = Sweep::sequential().run(&items, f);
        for threads in [2, 4, 8, 16] {
            assert_eq!(Sweep::with_threads(threads).run(&items, f), base);
        }
    }

    #[test]
    fn seed_changes_trial_seeds_but_not_structure() {
        let items: Vec<u64> = (0..10).collect();
        let a = Sweep::sequential().seeded(1).run(&items, |t, _| t.seed);
        let b = Sweep::sequential().seeded(2).run(&items, |t, _| t.seed);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn empty_sweeps_are_fine() {
        let out = Sweep::with_threads(4).run(&Vec::<u64>::new(), |_, &x| x);
        assert!(out.is_empty());
        let empty = Sweep::with_threads(3).run_range(
            5..5,
            || panic!("an empty range builds no scratch"),
            |(), t| t.index,
        );
        assert!(empty.is_empty());
    }

    #[test]
    fn indexed_sweeps_count_up_in_order() {
        for threads in [1, 3] {
            let sweep = Sweep::with_threads(threads);
            let out = sweep.run_range(0..9, || (), |(), t| t.index * 2);
            assert_eq!(out, (0..9).map(|i| i * 2).collect::<Vec<_>>());
            let fallible = sweep.run_fallible(0..5, |t| t.index * 2, |_| String::new());
            assert_eq!(
                fallible.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
                vec![0, 2, 4, 6, 8]
            );
        }
    }

    #[test]
    fn more_threads_than_items_is_clamped() {
        let items = vec![1u64, 2];
        let out = Sweep::with_threads(64).run(&items, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn panicking_trial_leaves_other_results_intact() {
        // Trial 3 panics; the other 16 trials' results all survive, and
        // the failure row carries the trial's identity and payload.
        for threads in [1, 4] {
            let out = Sweep::with_threads(threads).run_fallible(
                0..17,
                |t| {
                    if t.index == 3 {
                        panic!("deliberate failure in trial {}", t.index);
                    }
                    t.index * 10
                },
                |_| String::new(),
            );
            assert_eq!(out.len(), 17);
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let f = r.as_ref().unwrap_err();
                    assert_eq!(f.index, 3);
                    assert_eq!(f.seed, crate::rng::trial_seed(0, 3));
                    assert!(f.payload.contains("deliberate failure in trial 3"));
                    assert!(f.to_string().contains("trial 3"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn run_fallible_is_thread_invariant() {
        let f = |t: Trial| {
            if t.index.is_multiple_of(7) {
                panic!("bad seed {:#x}", t.seed);
            }
            t.seed ^ t.index as u64
        };
        let ctx = |t: Trial| format!("index={}", t.index);
        let base = Sweep::sequential().run_fallible(0..40, f, ctx);
        for threads in [2, 8] {
            assert_eq!(
                Sweep::with_threads(threads).run_fallible(0..40, f, ctx),
                base
            );
        }
    }

    #[test]
    fn infallible_entry_points_repanic_with_the_first_failure_after_completion() {
        let items: Vec<usize> = (0..10).collect();
        for scratch in [false, true] {
            let completed = AtomicUsize::new(0);
            let f = |x: usize| {
                if x == 5 || x == 7 {
                    panic!("boom {x}");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                x
            };
            let sweep = Sweep::with_threads(2);
            let result = catch_unwind(AssertUnwindSafe(|| {
                if scratch {
                    sweep.run_range(0..10, || (), |(), t| f(t.index))
                } else {
                    sweep.run(&items, |_, &x| f(x))
                }
            }));
            let msg = panic_message(result.unwrap_err().as_ref());
            assert!(msg.contains("trial 5"), "scratch={scratch}: {msg}");
            assert!(msg.contains("boom 5"), "scratch={scratch}: {msg}");
            assert_eq!(
                completed.load(Ordering::Relaxed),
                8,
                "scratch={scratch}: all other trials completed before the re-panic"
            );
        }
    }

    #[test]
    fn scratch_sweep_matches_plain_sweep_at_any_thread_count() {
        // Same seeds, same merge order: a scratch sweep whose closure
        // ignores the scratch is indistinguishable from Sweep::run.
        let items: Vec<u64> = (0..300).collect();
        let base = Sweep::sequential()
            .seeded(9)
            .run(&items, |t, &x| t.seed ^ x);
        for threads in [1, 2, 8] {
            let scratched = Sweep::with_threads(threads).seeded(9).run_range(
                0..items.len(),
                Vec::<u64>::new,
                |scratch, t| {
                    scratch.clear(); // reset: no trial-visible state survives
                    scratch.push(t.seed ^ items[t.index]);
                    scratch[0]
                },
            );
            assert_eq!(scratched, base, "threads={threads}");
        }
    }

    #[test]
    fn scratch_is_built_once_per_worker_and_reused() {
        let inits = AtomicUsize::new(0);
        let out = Sweep::with_threads(4).run_range(
            0..64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |uses, t| {
                *uses += 1;
                t.index
            },
        );
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        let built = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&built),
            "one scratch per worker, not per trial (built {built})"
        );
    }

    #[test]
    fn a_panic_rebuilds_the_scratch_before_the_retry() {
        // Trial 3's first attempt leaves its scratch dirty and panics. A
        // retry on the dirty scratch would return a different value; the
        // rebuilt one reproduces the scratch-free sweep exactly.
        let poisoned = crate::rng::trial_seed(0, 3);
        for threads in [1, 2] {
            let sweep = Sweep::with_threads(threads).with_retries(1);
            let plain: Vec<u64> = sweep
                .run_fallible(
                    0..8,
                    |t| {
                        assert!(t.seed != poisoned, "poisoned attempt");
                        t.seed
                    },
                    |_| String::new(),
                )
                .into_iter()
                .map(Result::unwrap)
                .collect();
            let scratched = sweep.run_range(0..8, Vec::<u64>::new, |dirty, t| {
                let out = t.seed + dirty.len() as u64;
                if t.seed == poisoned {
                    dirty.push(1);
                    panic!("poisoned attempt");
                }
                out
            });
            assert_eq!(scratched, plain, "threads={threads}");
        }
    }

    #[test]
    fn retries_rerun_under_derived_seeds_until_success() {
        // The trial panics on its base seed but succeeds on any retry
        // seed: with retries it recovers, without it fails — and the
        // failure records the attempt count and the base seed.
        let base = crate::rng::trial_seed(0, 0);
        let f = |t: Trial| {
            if t.seed == base {
                panic!("transient failure on the base seed");
            }
            t.seed
        };
        let no_context = |_: Trial| String::new();
        let with = Sweep::sequential()
            .with_retries(2)
            .run_fallible(0..1, f, no_context);
        assert_eq!(
            with[0],
            Ok(crate::rng::retry_seed(base, 1)),
            "first retry succeeded deterministically"
        );
        let without = Sweep::sequential().run_fallible(0..1, f, no_context);
        let failure = without[0].as_ref().unwrap_err();
        assert_eq!(failure.attempts, 1);
        assert_eq!(failure.seed, base, "failure reports the base seed");
        assert_eq!(
            failure.derived_seed, base,
            "with no retries the final seed is the base seed"
        );
        assert!(failure.repro.is_none(), "the engine attaches no repro");
        assert!(
            !failure.to_string().contains("attempts"),
            "1 attempt is implied"
        );
    }

    #[test]
    fn exhausted_retries_report_the_last_payload_and_attempt_count() {
        let out = Sweep::sequential().with_retries(3).run_fallible(
            0..1,
            |t: Trial| -> usize { panic!("always bad (seed {:#x})", t.seed) },
            |_| String::new(),
        );
        let f = out[0].as_ref().unwrap_err();
        assert_eq!(f.attempts, 4, "1 original + 3 retries");
        let last = crate::rng::retry_seed(f.seed, 3);
        assert_eq!(
            f.derived_seed, last,
            "failure records the final attempt's seed explicitly"
        );
        assert!(
            f.payload.contains(&format!("{last:#x}")),
            "payload is from the final attempt: {}",
            f.payload
        );
        assert!(f.to_string().contains("after 4 attempts"), "{f}");
        assert!(
            f.to_string().contains(&format!("final seed {last:#018x}")),
            "{f}"
        );
    }

    #[test]
    fn context_callback_is_recorded_on_failures() {
        let out = Sweep::sequential().run_fallible(
            0..4,
            |t| {
                if t.index == 2 {
                    panic!("boom");
                }
                t.index
            },
            |t| format!("index={}", t.index),
        );
        let f = out[2].as_ref().unwrap_err();
        assert_eq!(f.context, "index=2");
        assert!(f.to_string().contains("[index=2]"), "{f}");
        assert!(out[1].is_ok(), "context evaluation is failure-only");
    }

    #[test]
    fn trial_timeout_converts_a_hung_trial_into_a_failure() {
        let out = Sweep::sequential()
            .with_trial_timeout(Duration::from_millis(10))
            .run_fallible(
                0..3,
                |t| {
                    if t.index == 1 {
                        hang();
                    }
                    t.index
                },
                |_| String::new(),
            );
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[2], Ok(2), "later trials run after the timeout");
        let f = out[1].as_ref().unwrap_err();
        assert!(
            f.payload.contains("wall-clock deadline exceeded"),
            "{}",
            f.payload
        );
    }

    #[test]
    fn scratch_sweeps_honor_the_trial_timeout() {
        // A hung trial of a scratch sweep fails at its deadline, and the
        // sweep re-panics with that failure at any thread count.
        for threads in [1, 2] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                Sweep::with_threads(threads)
                    .with_trial_timeout(Duration::from_millis(10))
                    .run_range(0..2, || (), |(), t| if t.index == 0 { 0 } else { hang() })
            }));
            let payload = panic_message(result.unwrap_err().as_ref());
            assert!(
                payload.contains("trial 1") && payload.contains("wall-clock deadline exceeded"),
                "threads={threads}: {payload}"
            );
        }
        check_trial_deadline(0); // the guard restored the disarmed state
    }

    #[test]
    fn range_sweep_is_a_slice_of_the_full_sweep() {
        // The chunking contract: any partition of the index space into
        // contiguous ranges, executed in any order at any thread count,
        // reproduces the full sweep's outputs exactly.
        let full =
            Sweep::sequential()
                .seeded(42)
                .run_range(0..100, || (), |(), t| (t.index, t.seed));
        for threads in [1, 3] {
            let sweep = Sweep::with_threads(threads).seeded(42);
            let mut chunked = Vec::new();
            for range in [64..100, 0..10, 10..64] {
                let part = sweep.run_range(range.clone(), || (), |(), t| (t.index, t.seed));
                assert_eq!(part.len(), range.len());
                chunked.push((range.start, part));
            }
            chunked.sort_by_key(|(start, _)| *start);
            let merged: Vec<(usize, u64)> =
                chunked.into_iter().flat_map(|(_, part)| part).collect();
            assert_eq!(merged, full, "threads={threads}");
        }
    }

    #[test]
    fn cancelling_one_sweep_leaves_a_concurrent_sweep_untouched() {
        // Two sweeps run side by side on two threads. The barrier holds
        // the token down until trial 0 of each sweep is in flight; raising
        // it then fails the first sweep's polling trials, while the second
        // sweep keeps polling and returns what an uncancelled run returns.
        let token = Arc::new(AtomicBool::new(false));
        let cancelled = Sweep::with_threads(2).with_cancel(token.clone());
        let both_in_flight = std::sync::Barrier::new(3);
        let items: Vec<u64> = (0..6).collect();
        let (lost, kept) = std::thread::scope(|scope| {
            let lost = scope.spawn(|| {
                let f = |t: Trial| -> u64 {
                    if t.index == 0 {
                        both_in_flight.wait();
                    }
                    hang()
                };
                cancelled.run_fallible(0..items.len(), f, |_| String::new())
            });
            let kept = scope.spawn(|| {
                Sweep::with_threads(2).run(&items, |t, &x| {
                    if t.index == 0 {
                        both_in_flight.wait();
                        while !token.load(Ordering::Relaxed) {
                            check_trial_deadline(0);
                        }
                    }
                    for events in 1..=4096 {
                        check_trial_deadline(events);
                    }
                    t.seed ^ x
                })
            });
            both_in_flight.wait();
            token.store(true, Ordering::Relaxed);
            (lost.join().unwrap(), kept.join().unwrap())
        });
        let payloads: Vec<String> = lost.into_iter().map(|r| r.unwrap_err().payload).collect();
        assert!(
            payloads[0].contains("sweep cancelled after"),
            "{payloads:?}"
        );
        assert!(
            payloads.iter().all(|p| p.contains("sweep cancelled")),
            "{payloads:?}"
        );
        assert_eq!(kept, Sweep::sequential().run(&items, |t, &x| t.seed ^ x));
        check_trial_deadline(0); // nothing stays armed on this thread
    }

    #[test]
    fn armed_state_is_cleared_after_each_trial_even_across_unwind() {
        // A timed, cancellable sweep whose trial panics must leave neither
        // a stale deadline nor its (later raised) token armed on the
        // worker thread.
        let token = Arc::new(AtomicBool::new(false));
        let _ = Sweep::sequential()
            .with_trial_timeout(Duration::from_millis(1))
            .with_cancel(token.clone())
            .run_fallible(0..1, |_| -> usize { panic!("bad") }, |_| String::new());
        token.store(true, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(2));
        check_trial_deadline(0); // must not panic: nothing armed here
    }
}
