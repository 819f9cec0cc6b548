//! Runs: event sequences, per-process histories, and the shared-access
//! time complexity accounting.

use crate::{Operation, ProcessId, Response, Value};
use std::fmt;

/// One event of a run: a single step by a single process.
///
/// A run in the paper is an alternating sequence of configurations and
/// events starting from the initial configuration; since our executor is
/// deterministic given the schedule and toss assignment, storing the events
/// (with their outcomes) determines every intermediate configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunEvent {
    /// `p` tossed its `index`-th coin and obtained `outcome`.
    Toss {
        /// The tossing process.
        pid: ProcessId,
        /// 0-based index of this toss in `p`'s toss sequence.
        index: u64,
        /// The outcome, per the run's toss assignment.
        outcome: u64,
    },
    /// `p` performed a shared-memory operation and received a response.
    SharedOp {
        /// The invoking process.
        pid: ProcessId,
        /// The operation performed.
        op: Operation,
        /// The response received.
        resp: Response,
    },
    /// `p` entered a termination state, returning `value`.
    Terminated {
        /// The terminating process.
        pid: ProcessId,
        /// The process's return value.
        value: Value,
    },
}

impl RunEvent {
    /// The process that took this step.
    pub fn pid(&self) -> ProcessId {
        match self {
            RunEvent::Toss { pid, .. }
            | RunEvent::SharedOp { pid, .. }
            | RunEvent::Terminated { pid, .. } => *pid,
        }
    }

    /// `true` iff this is a shared-memory step (the steps counted by the
    /// shared-access time complexity measure).
    pub fn is_shared(&self) -> bool {
        matches!(self, RunEvent::SharedOp { .. })
    }
}

impl fmt::Display for RunEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunEvent::Toss {
                pid,
                index,
                outcome,
            } => {
                write!(f, "{pid}: toss#{index} -> {outcome}")
            }
            RunEvent::SharedOp { pid, op, resp } => write!(f, "{pid}: {op} -> {resp}"),
            RunEvent::Terminated { pid, value } => write!(f, "{pid}: return {value}"),
        }
    }
}

/// One entry of a process's *interaction history*: everything the process
/// has locally observed.
///
/// For a deterministic-given-coins program, the interaction history (plus
/// the program text) determines the process's automaton state. The
/// indistinguishability checker of `llsc-core` therefore compares
/// interaction histories where Lemma 5.2 compares `state(p, r, Σ)`, and
/// toss counts where it compares `numtosses(p, r, Σ)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Interaction {
    /// A coin toss and its outcome.
    Toss(u64),
    /// A shared-memory operation and its response.
    Op(Operation, Response),
    /// Termination with a return value.
    Returned(Value),
}

/// A recorded run: the global event sequence plus per-process accounting.
///
/// Implements the complexity bookkeeping of Section 3: `t(p_i, R)` — the
/// number of `p_i`'s shared-memory steps — is [`Run::shared_steps`], and
/// `t(R) = max_i t(p_i, R)` is [`Run::max_shared_steps`].
///
/// Everything the wakeup specification reads is kept in both recording
/// modes: each process's first-step stamp ([`Run::first_step_at`]) and
/// the processes that returned 1, in order ([`Run::winners`]).
#[derive(Clone, Debug)]
pub struct Run {
    details: bool,
    events: Vec<RunEvent>,
    /// Total events recorded, maintained even in lightweight mode (where
    /// `events` itself stays empty). Also the index the next event gets.
    event_count: u64,
    /// Per-process accounting, indexed by process id: one allocation per
    /// run instead of one per counter.
    procs: Vec<ProcRecord>,
    /// Processes that returned 1, each with the index of its termination
    /// event, in termination order.
    winners: Vec<(ProcessId, u64)>,
}

/// One process's share of a [`Run`].
#[derive(Clone, Debug, Default)]
struct ProcRecord {
    /// Interaction history (empty in lightweight mode).
    history: Vec<Interaction>,
    shared_steps: u64,
    tosses: u64,
    /// Index of the process's first toss or shared op (see
    /// [`Run::first_step_at`]).
    first_step: Option<u64>,
    verdict: Option<Value>,
    /// Crash-stop flag (see [`Run::mark_crashed`]); a crashed process
    /// takes no further events until [`Run::clear_crash`] revives it.
    crashed: bool,
    /// Remote memory references under the cache-coherent cost model (see
    /// [`Run::cc_rmrs`]).
    cc_rmrs: u64,
    /// Remote memory references under the distributed-shared-memory cost
    /// model (see [`Run::dsm_rmrs`]).
    dsm_rmrs: u64,
    /// Crashes suffered (each [`Run::mark_crashed`] call).
    crash_count: u64,
    /// Recoveries (each [`Run::clear_crash`] call).
    recovery_count: u64,
}

/// A cheap structured summary of a run: per-process operation and toss
/// counts plus the totals, available in both detailed and lightweight
/// recording modes.
///
/// This is what the large measurement sweeps report instead of full
/// traces: `O(n)` numbers rather than `O(events)` history, but still
/// machine-readable (the bench crate serialises it into the `BENCH_*.json`
/// artifacts).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// `t(p, R)` per process: shared-memory operations performed.
    pub ops: Vec<u64>,
    /// `numtosses(p)` per process: coin tosses performed.
    pub tosses: Vec<u64>,
    /// Total events recorded (tosses + shared ops + terminations).
    pub events: u64,
    /// Processes that have terminated.
    pub terminated: usize,
    /// Remote memory references per process, cache-coherent model.
    pub cc_rmrs: Vec<u64>,
    /// Remote memory references per process, DSM model.
    pub dsm_rmrs: Vec<u64>,
    /// Crashes suffered per process.
    pub crashes: Vec<u64>,
    /// Recoveries (crash flags cleared) per process.
    pub recoveries: Vec<u64>,
}

impl OpCounters {
    /// `t(R) = max_p t(p, R)`.
    pub fn max_ops(&self) -> u64 {
        self.ops.iter().copied().max().unwrap_or(0)
    }

    /// Total shared-memory operations across all processes.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Total coin tosses across all processes.
    pub fn total_tosses(&self) -> u64 {
        self.tosses.iter().sum()
    }

    /// Total cache-coherent RMRs across all processes.
    pub fn total_cc_rmrs(&self) -> u64 {
        self.cc_rmrs.iter().sum()
    }

    /// Total DSM RMRs across all processes.
    pub fn total_dsm_rmrs(&self) -> u64 {
        self.dsm_rmrs.iter().sum()
    }

    /// Total crashes suffered across all processes.
    pub fn total_crashes(&self) -> u64 {
        self.crashes.iter().sum()
    }

    /// Total recoveries across all processes.
    pub fn total_recoveries(&self) -> u64 {
        self.recoveries.iter().sum()
    }
}

impl fmt::Display for OpCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} procs ({} terminated): {} ops (max {}), {} tosses, {} events",
            self.ops.len(),
            self.terminated,
            self.total_ops(),
            self.max_ops(),
            self.total_tosses(),
            self.events
        )
    }
}

impl Default for Run {
    /// An empty zero-process run with full detail recording, matching
    /// [`Run::new`]`(0)`.
    fn default() -> Self {
        Run::new(0)
    }
}

impl Run {
    /// Creates an empty run of an `n`-process system with full detail
    /// recording (events and interaction histories).
    pub fn new(n: usize) -> Self {
        Run::with_details(n, true)
    }

    /// Creates an empty *lightweight* run: only step/toss counters,
    /// verdicts, first-step stamps and winners are kept; [`Run::events`]
    /// and [`Run::history`] stay empty.
    ///
    /// Lightweight runs cut memory from `O(total events x value size)` to
    /// `O(n)`, which is what the large measurement sweeps need. The wakeup
    /// verdict is kept in both modes, so they feed the wakeup checker
    /// exactly like detailed runs; they cannot feed the
    /// indistinguishability checker (it needs histories).
    pub fn lightweight(n: usize) -> Self {
        Run::with_details(n, false)
    }

    fn with_details(n: usize, details: bool) -> Self {
        Run {
            details,
            events: Vec::new(),
            event_count: 0,
            procs: vec![ProcRecord::default(); n],
            winners: Vec::new(),
        }
    }

    /// Whether this run records events and histories.
    pub fn is_detailed(&self) -> bool {
        self.details
    }

    /// The number of processes in the system.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Appends an event, updating all per-process accounting.
    ///
    /// # Panics
    ///
    /// Panics if the event's process id is out of range or the process has
    /// already terminated.
    pub fn record(&mut self, ev: RunEvent) {
        let pid = ev.pid();
        self.check_live(pid);
        let details = self.details;
        let index = self.event_count;
        let proc = &mut self.procs[pid.0];
        match &ev {
            RunEvent::Toss { outcome, .. } => {
                proc.tosses += 1;
                proc.first_step.get_or_insert(index);
                if details {
                    proc.history.push(Interaction::Toss(*outcome));
                }
            }
            RunEvent::SharedOp { op, resp, .. } => {
                proc.shared_steps += 1;
                proc.first_step.get_or_insert(index);
                if details {
                    proc.history.push(Interaction::Op(op.clone(), resp.clone()));
                }
            }
            RunEvent::Terminated { value, .. } => {
                proc.verdict = Some(value.clone());
                if value.as_int() == Some(1) {
                    self.winners.push((pid, index));
                }
                if details {
                    proc.history.push(Interaction::Returned(value.clone()));
                }
            }
        }
        self.event_count += 1;
        if details {
            self.events.push(ev);
        }
    }

    /// Records a shared-memory step from borrowed parts: equivalent to
    /// [`Run::record`] with [`RunEvent::SharedOp`], but the operation and
    /// response are cloned *only* when this run records details — the
    /// lightweight mode's hot path just bumps two counters and stamps a
    /// first step.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Run::record`].
    pub fn record_shared(&mut self, pid: ProcessId, op: &Operation, resp: &Response) {
        self.check_live(pid);
        let proc = &mut self.procs[pid.0];
        proc.shared_steps += 1;
        proc.first_step.get_or_insert(self.event_count);
        self.event_count += 1;
        if self.details {
            proc.history.push(Interaction::Op(op.clone(), resp.clone()));
            self.events.push(RunEvent::SharedOp {
                pid,
                op: op.clone(),
                resp: resp.clone(),
            });
        }
    }

    /// Clears the run in place for reuse: counters zeroed, events,
    /// histories, verdicts, first-step stamps, winners and crash flags
    /// emptied — while every buffer keeps its allocation. The recording
    /// mode and process count are unchanged; after a reset the run is
    /// observationally a freshly constructed one. This is the
    /// reusable-trial-context primitive
    /// behind [`Executor::reset`](crate::Executor::reset) and
    /// [`Executor::recycle_run`](crate::Executor::recycle_run).
    pub fn reset(&mut self) {
        self.events.clear();
        self.event_count = 0;
        self.winners.clear();
        for proc in &mut self.procs {
            let mut history = std::mem::take(&mut proc.history);
            history.clear();
            *proc = ProcRecord {
                history,
                ..ProcRecord::default()
            };
        }
    }

    fn check_live(&self, pid: ProcessId) {
        assert!(pid.0 < self.n(), "event for out-of-range {pid}");
        let proc = &self.procs[pid.0];
        assert!(proc.verdict.is_none(), "event for terminated {pid}");
        assert!(!proc.crashed, "event for crashed {pid}");
    }

    /// The global event sequence, in execution order.
    pub fn events(&self) -> &[RunEvent] {
        &self.events
    }

    /// Total events recorded, including in lightweight mode (where
    /// [`Run::events`] stays empty).
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    fn per_proc(&self, field: impl Fn(&ProcRecord) -> u64) -> Vec<u64> {
        self.procs.iter().map(field).collect()
    }

    /// The cheap structured summary of this run — per-process ops/tosses,
    /// totals, and termination count. Works in both recording modes.
    pub fn counters(&self) -> OpCounters {
        OpCounters {
            ops: self.per_proc(|p| p.shared_steps),
            tosses: self.per_proc(|p| p.tosses),
            events: self.event_count,
            terminated: self.terminated().count(),
            cc_rmrs: self.per_proc(|p| p.cc_rmrs),
            dsm_rmrs: self.per_proc(|p| p.dsm_rmrs),
            crashes: self.per_proc(|p| p.crash_count),
            recoveries: self.per_proc(|p| p.recovery_count),
        }
    }

    /// `t(p, R)`: the number of shared-memory steps `p` has performed.
    pub fn shared_steps(&self, p: ProcessId) -> u64 {
        self.procs[p.0].shared_steps
    }

    /// `t(R) = max_p t(p, R)`: the worst per-process shared-access count.
    pub fn max_shared_steps(&self) -> u64 {
        self.procs.iter().map(|p| p.shared_steps).max().unwrap_or(0)
    }

    /// `numtosses(p)`: the number of coin tosses `p` has performed.
    pub fn tosses(&self, p: ProcessId) -> u64 {
        self.procs[p.0].tosses
    }

    /// Charges `p` for the remote memory references one shared step cost:
    /// `cc` under the cache-coherent model, `dsm` under the DSM model. The
    /// executor calls this right after [`Run::record_shared`]; the run
    /// itself only aggregates (remoteness is decided by the executor's
    /// cache/home tracking).
    pub fn record_rmrs(&mut self, pid: ProcessId, cc: u64, dsm: u64) {
        let proc = &mut self.procs[pid.0];
        proc.cc_rmrs += cc;
        proc.dsm_rmrs += dsm;
    }

    /// `p`'s remote memory references under the cache-coherent model.
    pub fn cc_rmrs(&self, p: ProcessId) -> u64 {
        self.procs[p.0].cc_rmrs
    }

    /// `p`'s remote memory references under the DSM model.
    pub fn dsm_rmrs(&self, p: ProcessId) -> u64 {
        self.procs[p.0].dsm_rmrs
    }

    /// The number of crashes `p` has suffered.
    pub fn crash_count(&self, p: ProcessId) -> u64 {
        self.procs[p.0].crash_count
    }

    /// The number of times `p` has recovered from a crash.
    pub fn recovery_count(&self, p: ProcessId) -> u64 {
        self.procs[p.0].recovery_count
    }

    /// The value `p` returned, if `p` has terminated.
    pub fn verdict(&self, p: ProcessId) -> Option<&Value> {
        self.procs[p.0].verdict.as_ref()
    }

    /// `true` iff every process has terminated (the run is a
    /// *terminating run* in the paper's sense).
    pub fn is_terminating(&self) -> bool {
        self.procs.iter().all(|p| p.verdict.is_some())
    }

    /// The processes that have terminated so far, in id order.
    pub fn terminated(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.pids_where(|p| p.verdict.is_some())
    }

    fn pids_where(&self, pred: fn(&ProcRecord) -> bool) -> impl Iterator<Item = ProcessId> + '_ {
        self.procs
            .iter()
            .enumerate()
            .filter(move |(_, p)| pred(p))
            .map(|(i, _)| ProcessId(i))
    }

    /// Marks `p` as crash-stopped: it takes no further events. Crashing is
    /// the limit case of an adversarial scheduler that delays `p` forever
    /// — the recorded prefix stays a legal run of the algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or has already terminated (a
    /// terminated process cannot crash).
    pub fn mark_crashed(&mut self, p: ProcessId) {
        assert!(p.0 < self.n(), "crash for out-of-range {p}");
        let proc = &mut self.procs[p.0];
        assert!(proc.verdict.is_none(), "crash for terminated {p}");
        proc.crashed = true;
        proc.crash_count += 1;
    }

    /// Clears `p`'s crash flag, re-admitting its events: the
    /// crash-*recovery* counterpart of [`Run::mark_crashed`]. The recorded
    /// prefix before the crash stays part of the run — a recoverable
    /// algorithm's recovery section continues from the shared state the
    /// crash left behind, having lost only its local (program) state.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or not currently crashed.
    pub fn clear_crash(&mut self, p: ProcessId) {
        assert!(p.0 < self.n(), "recovery for out-of-range {p}");
        let proc = &mut self.procs[p.0];
        assert!(proc.crashed, "recovery for non-crashed {p}");
        proc.crashed = false;
        proc.recovery_count += 1;
    }

    /// `true` iff `p` has been crash-stopped.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.procs[p.0].crashed
    }

    /// The processes crashed so far, in id order.
    pub fn crashed(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.pids_where(|p| p.crashed)
    }

    /// `p`'s interaction history: everything `p` has observed, in order.
    pub fn history(&self, p: ProcessId) -> &[Interaction] {
        &self.procs[p.0].history
    }

    /// `true` iff `p` has taken at least one step (toss, shared op, or
    /// termination). Works in both recording modes.
    pub fn has_stepped(&self, p: ProcessId) -> bool {
        let proc = &self.procs[p.0];
        proc.first_step.is_some() || proc.verdict.is_some()
    }

    /// The index of `p`'s first toss or shared op among all recorded
    /// events (its position in [`Run::events`] when details are kept), or
    /// `None` if `p` has taken neither. Termination alone is not a step
    /// here — this is the wakeup problem's step notion. Kept in both
    /// recording modes.
    pub fn first_step_at(&self, p: ProcessId) -> Option<u64> {
        self.procs[p.0].first_step
    }

    /// The processes that returned 1, in the order they terminated, each
    /// with the index of its termination event (counted like
    /// [`Run::first_step_at`]). Kept in both recording modes.
    pub fn winners(&self) -> &[(ProcessId, u64)] {
        &self.winners
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run of {} processes, {} events:",
            self.n(),
            self.events.len()
        )?;
        for ev in &self.events {
            writeln!(f, "  {ev}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegisterId;

    fn op_event(pid: usize) -> RunEvent {
        RunEvent::SharedOp {
            pid: ProcessId(pid),
            op: Operation::Ll(RegisterId(0)),
            resp: Response::Value(Value::Unit),
        }
    }

    #[test]
    fn accounting_tracks_steps_and_tosses() {
        let mut run = Run::new(2);
        run.record(RunEvent::Toss {
            pid: ProcessId(0),
            index: 0,
            outcome: 3,
        });
        run.record(op_event(0));
        run.record(op_event(1));
        run.record(op_event(1));
        assert_eq!(run.shared_steps(ProcessId(0)), 1);
        assert_eq!(run.shared_steps(ProcessId(1)), 2);
        assert_eq!(run.max_shared_steps(), 2);
        assert_eq!(run.tosses(ProcessId(0)), 1);
        assert_eq!(run.tosses(ProcessId(1)), 0);
    }

    #[test]
    fn termination_tracking() {
        let mut run = Run::new(2);
        assert!(!run.is_terminating());
        run.record(RunEvent::Terminated {
            pid: ProcessId(0),
            value: Value::from(1i64),
        });
        assert_eq!(run.verdict(ProcessId(0)), Some(&Value::from(1i64)));
        assert_eq!(run.verdict(ProcessId(1)), None);
        assert!(!run.is_terminating());
        run.record(RunEvent::Terminated {
            pid: ProcessId(1),
            value: Value::from(0i64),
        });
        assert!(run.is_terminating());
        assert_eq!(run.terminated().count(), 2);
    }

    #[test]
    #[should_panic(expected = "terminated")]
    fn events_after_termination_panic() {
        let mut run = Run::new(1);
        run.record(RunEvent::Terminated {
            pid: ProcessId(0),
            value: Value::Unit,
        });
        run.record(op_event(0));
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_pid_panics() {
        let mut run = Run::new(1);
        run.record(op_event(5));
    }

    #[test]
    fn histories_capture_observations_in_order() {
        let mut run = Run::new(1);
        run.record(RunEvent::Toss {
            pid: ProcessId(0),
            index: 0,
            outcome: 7,
        });
        run.record(op_event(0));
        let h = run.history(ProcessId(0));
        assert_eq!(h.len(), 2);
        assert_eq!(h[0], Interaction::Toss(7));
        assert!(matches!(h[1], Interaction::Op(..)));
    }

    #[test]
    fn first_step_at_and_has_stepped_in_both_modes() {
        for mut run in [Run::new(4), Run::lightweight(4)] {
            run.record(op_event(1));
            run.record(RunEvent::Toss {
                pid: ProcessId(0),
                index: 0,
                outcome: 0,
            });
            run.record_shared(
                ProcessId(2),
                &Operation::Ll(RegisterId(0)),
                &Response::Value(Value::Unit),
            );
            run.record(op_event(1));
            // A bare return: p3 has stepped, but not by the wakeup notion.
            run.record(RunEvent::Terminated {
                pid: ProcessId(3),
                value: Value::from(0i64),
            });
            assert_eq!(run.first_step_at(ProcessId(1)), Some(0));
            assert_eq!(run.first_step_at(ProcessId(0)), Some(1));
            assert_eq!(run.first_step_at(ProcessId(2)), Some(2));
            assert_eq!(run.first_step_at(ProcessId(3)), None);
            assert!(ProcessId::all(4).all(|p| run.has_stepped(p)));
            assert!(!Run::lightweight(1).has_stepped(ProcessId(0)));
        }
    }

    #[test]
    fn winners_are_the_ones_in_termination_order_in_both_modes() {
        for mut run in [Run::new(3), Run::lightweight(3)] {
            run.record(op_event(0));
            for (pid, value) in [(2, 1i64), (0, 0), (1, 1)] {
                run.record(RunEvent::Terminated {
                    pid: ProcessId(pid),
                    value: Value::from(value),
                });
            }
            assert_eq!(run.winners(), &[(ProcessId(2), 1), (ProcessId(1), 3)]);
            run.reset();
            assert!(run.winners().is_empty());
            assert_eq!(run.first_step_at(ProcessId(0)), None);
        }
    }

    #[test]
    fn counters_summarise_both_recording_modes() {
        for lightweight in [false, true] {
            let mut run = if lightweight {
                Run::lightweight(2)
            } else {
                Run::new(2)
            };
            run.record(RunEvent::Toss {
                pid: ProcessId(0),
                index: 0,
                outcome: 1,
            });
            run.record(op_event(0));
            run.record(op_event(1));
            run.record(RunEvent::Terminated {
                pid: ProcessId(1),
                value: Value::Unit,
            });
            let c = run.counters();
            assert_eq!(c.ops, vec![1, 1]);
            assert_eq!(c.tosses, vec![1, 0]);
            assert_eq!(c.events, 4);
            assert_eq!(c.terminated, 1);
            assert_eq!(c.max_ops(), 1);
            assert_eq!(c.total_ops(), 2);
            assert_eq!(c.total_tosses(), 1);
            assert_eq!(run.event_count(), 4);
            assert_eq!(run.events().is_empty(), lightweight);
            assert!(c.to_string().contains("2 procs"));
        }
    }

    #[test]
    fn record_shared_matches_record_in_both_modes() {
        for lightweight in [false, true] {
            let make = || {
                if lightweight {
                    Run::lightweight(2)
                } else {
                    Run::new(2)
                }
            };
            let (mut by_event, mut by_parts) = (make(), make());
            let op = Operation::Ll(RegisterId(3));
            let resp = Response::Value(Value::from(9i64));
            by_event.record(RunEvent::SharedOp {
                pid: ProcessId(1),
                op: op.clone(),
                resp: resp.clone(),
            });
            by_parts.record_shared(ProcessId(1), &op, &resp);
            assert_eq!(by_event.events(), by_parts.events());
            assert_eq!(
                by_event.history(ProcessId(1)),
                by_parts.history(ProcessId(1))
            );
            assert_eq!(by_event.counters(), by_parts.counters());
        }
    }

    #[test]
    #[should_panic(expected = "terminated")]
    fn record_shared_for_terminated_process_panics() {
        let mut run = Run::new(1);
        run.record(RunEvent::Terminated {
            pid: ProcessId(0),
            value: Value::Unit,
        });
        run.record_shared(
            ProcessId(0),
            &Operation::Ll(RegisterId(0)),
            &Response::Value(Value::Unit),
        );
    }

    #[test]
    fn empty_run_max_steps_is_zero() {
        let run = Run::new(0);
        assert_eq!(run.max_shared_steps(), 0);
        assert!(run.is_terminating(), "vacuously terminating");
    }

    #[test]
    fn rmr_accounting_aggregates_per_process() {
        let mut run = Run::lightweight(2);
        run.record(op_event(0));
        run.record_rmrs(ProcessId(0), 1, 1);
        run.record(op_event(0));
        run.record_rmrs(ProcessId(0), 0, 1);
        run.record(op_event(1));
        run.record_rmrs(ProcessId(1), 2, 0);
        assert_eq!(run.cc_rmrs(ProcessId(0)), 1);
        assert_eq!(run.dsm_rmrs(ProcessId(0)), 2);
        assert_eq!(run.cc_rmrs(ProcessId(1)), 2);
        let c = run.counters();
        assert_eq!(c.cc_rmrs, vec![1, 2]);
        assert_eq!(c.dsm_rmrs, vec![2, 0]);
        assert_eq!(c.total_cc_rmrs(), 3);
        assert_eq!(c.total_dsm_rmrs(), 2);
        run.reset();
        assert_eq!(run.counters().total_cc_rmrs(), 0);
    }

    #[test]
    fn crash_and_recovery_counting() {
        let mut run = Run::new(2);
        run.mark_crashed(ProcessId(0));
        assert!(run.is_crashed(ProcessId(0)));
        run.clear_crash(ProcessId(0));
        assert!(!run.is_crashed(ProcessId(0)));
        // Events are legal again after recovery, and a second crash of the
        // same process is counted separately.
        run.record(op_event(0));
        run.mark_crashed(ProcessId(0));
        assert_eq!(run.crash_count(ProcessId(0)), 2);
        assert_eq!(run.recovery_count(ProcessId(0)), 1);
        let c = run.counters();
        assert_eq!(c.total_crashes(), 2);
        assert_eq!(c.total_recoveries(), 1);
        assert_eq!(c.crashes, vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "non-crashed")]
    fn recovery_of_live_process_panics() {
        let mut run = Run::new(1);
        run.clear_crash(ProcessId(0));
    }

    #[test]
    fn display_lists_events() {
        let mut run = Run::new(1);
        run.record(op_event(0));
        let s = run.to_string();
        assert!(s.contains("p0: LL(R0)"));
    }
}
