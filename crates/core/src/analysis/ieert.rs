//! **Algorithm IEERT** (Figure 10 of the paper): one sweep of the
//! intermediate-end-to-end-response-time analysis for the DS protocol.
//!
//! Under direct synchronization a subtask's release time inherits the
//! variability of its predecessor's completion ("clumping"): instances of
//! `T_{u,v}` may release up to `R_{u,v−1}` ticks after their periodic
//! baseline, so a window of length `t` can contain
//! `⌈(t + R_{u,v−1})/p_u⌉` of them. One IEERT sweep takes a set of IEER
//! bounds `R` and produces a new set `R′ = IEERT(T, R)`:
//!
//! 1. `D_{i,j}` = least `t > 0` with
//!    `t = Σ_{T_{u,v} ∈ H_{i,j} ∪ {T_{i,j}}} ⌈(t + R_{u,v−1})/p_u⌉ · c_{u,v}`;
//! 2. `M_{i,j} = ⌈(D_{i,j} + R_{i,j−1}) / p_i⌉`;
//! 3. for `m = 1..M`: `C_{i,j}(m)` = least `t` with
//!    `t = m·c_{i,j} + Σ_{H_{i,j}} ⌈(t + R_{u,v−1})/p_u⌉ · c_{u,v}`, and
//!    `R_{i,j}(m) = C_{i,j}(m) + R_{i,j−1} − (m−1)p_i`;
//! 4. `R′_{i,j} = max_m R_{i,j}(m)`.
//!
//! `R_{u,0}` (the "IEER of the predecessor of a first subtask") is zero.
//!
//! [`crate::analysis::sa_ds`] iterates sweeps to the least fixed point.

use std::ops::Range;

use crate::analysis::busy_period::{
    fixed_point, fixed_point_with_hint, utilization_ppm, DemandTerm, FixedPointFailure,
    FixedPointLimits,
};
use crate::analysis::sa_pm::map_failure;
use crate::analysis::AnalysisConfig;
use crate::error::AnalyzeError;
use crate::task::{SubtaskId, TaskId, TaskSet};
use crate::time::Dur;

/// A set of IEER bounds, one per subtask: `bounds[i][j]` bounds the time
/// from the release of `T_{i,1}(m)` to the completion of `T_{i,j}(m)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IeerBounds {
    bounds: Vec<Vec<Dur>>,
}

impl IeerBounds {
    /// The optimistic seed of Algorithm SA/DS: `R_{i,j} = Σ_{k≤j} c_{i,k}`
    /// (pure execution, no interference).
    pub fn seed(set: &TaskSet) -> IeerBounds {
        let bounds = set
            .tasks()
            .iter()
            .map(|t| {
                let mut acc = Dur::ZERO;
                t.subtasks()
                    .iter()
                    .map(|s| {
                        acc += s.execution();
                        acc
                    })
                    .collect()
            })
            .collect();
        IeerBounds { bounds }
    }

    /// The optimistic seed of [`seed`](IeerBounds::seed), with individual
    /// entries *raised* to a caller-supplied prior where one is available
    /// (`max(cumulative execution, prior)` per subtask).
    ///
    /// This is the warm seed of the incremental admission engine: after a
    /// system grows, the previously *converged* bounds of the retained
    /// subtasks are valid priors — demand growth moves the least fixed
    /// point of the IEERT sweep up, never down, so each old bound still
    /// lies at or below its new converged value. Seeding there skips the
    /// sweeps that would only re-climb already-established ground.
    ///
    /// Soundness requires every prior to be ≤ the subtask's bound at the
    /// **new** least fixed point; priors taken from a *shrunk* system
    /// (after a retirement) violate that and must not be used. The seed
    /// stays within `[optimistic seed, least fixed point]`, where the
    /// monotone sweep provably converges to the same least fixed point as
    /// the cold seed (see `seeded_run_matches_cold_run` in `sa_ds`).
    pub fn seed_with(set: &TaskSet, prior: impl Fn(SubtaskId) -> Option<Dur>) -> IeerBounds {
        let mut seeded = IeerBounds::seed(set);
        for sub in set.subtasks() {
            if let Some(p) = prior(sub.id()) {
                let floor = seeded.get(sub.id());
                seeded.set(sub.id(), floor.max(p));
            }
        }
        seeded
    }

    /// Builds bounds from raw per-subtask values (`[task][chain index]`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the shape does not match any task set the
    /// caller later uses it with; no validation is possible here.
    pub fn from_raw(bounds: Vec<Vec<Dur>>) -> IeerBounds {
        IeerBounds { bounds }
    }

    /// The IEER bound of one subtask.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: SubtaskId) -> Dur {
        self.bounds[id.task().index()][id.index()]
    }

    /// The IEER bound of `id`'s predecessor, or zero for a first subtask
    /// (the paper's `R_{i,j−1}` with `R_{i,0} = 0`).
    pub fn predecessor_bound(&self, id: SubtaskId) -> Dur {
        match id.predecessor() {
            Some(p) => self.get(p),
            None => Dur::ZERO,
        }
    }

    /// The end-to-end bound of a task: the IEER bound of its last subtask.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task_bound(&self, id: TaskId) -> Dur {
        *self.bounds[id.index()]
            .last()
            .expect("chains are non-empty")
    }

    /// Raw bounds, `[task][chain index]`.
    pub fn as_slices(&self) -> &[Vec<Dur>] {
        &self.bounds
    }

    fn set(&mut self, id: SubtaskId, value: Dur) {
        self.bounds[id.task().index()][id.index()] = value;
    }
}

/// One Jacobi sweep: every new bound is computed from the *input* bounds,
/// exactly as the pseudo-code of Figure 10 reads.
///
/// # Errors
///
/// Any [`AnalyzeError`]; [`AnalyzeError::is_failure`] errors correspond to
/// the paper's "no finite bound" outcome.
pub fn ieert_pass(
    set: &TaskSet,
    current: &IeerBounds,
    cfg: &AnalysisConfig,
) -> Result<IeerBounds, AnalyzeError> {
    let mut next = current.clone();
    for task in set.tasks() {
        for sub in task.subtasks() {
            let value = subtask_ieer(set, sub.id(), current, cfg)?;
            next.set(sub.id(), value);
        }
    }
    Ok(next)
}

/// One Gauss–Seidel sweep (ablation): bounds computed earlier in the sweep
/// are used immediately by later subtasks. Converges to the same least
/// fixed point as [`ieert_pass`] in fewer sweeps (both iterations are
/// monotone from the same seed; see the `sa_ds` tests).
pub fn ieert_pass_gauss_seidel(
    set: &TaskSet,
    current: &IeerBounds,
    cfg: &AnalysisConfig,
) -> Result<IeerBounds, AnalyzeError> {
    let mut state = current.clone();
    for task in set.tasks() {
        for sub in task.subtasks() {
            let value = subtask_ieer(set, sub.id(), &state, cfg)?;
            state.set(sub.id(), value);
        }
    }
    Ok(state)
}

/// One interferer `T_{u,v} ∈ H_{i,j}` in a [`Plan`].
#[derive(Clone, Copy, Debug)]
struct Interferer {
    period: Dur,
    execution: Dur,
    /// Flat index of `T_{u,v−1}`, whose bound is this term's jitter.
    pred: Option<usize>,
}

/// The sweep-invariant inputs of Figure 10 for one subtask.
#[derive(Clone, Debug)]
struct Planned {
    id: SubtaskId,
    period: Dur,
    execution: Dur,
    blocking: Dur,
    /// Flat index of `T_{i,j−1}` (`None`: the paper's `R_{i,0} = 0`).
    pred: Option<usize>,
    /// `Σ p` over `H_{i,j} ∪ {T_{i,j}}`: the jitter-free part of the
    /// busy-period cap.
    period_sum: Dur,
    /// Smallest execution in `H_{i,j}` (`Dur::MAX` if empty).
    min_interferer_execution: Dur,
    /// This subtask's entries in [`Plan::interferers`].
    interferers: Range<usize>,
    /// This subtask's entries in [`Plan::deps`].
    deps: Range<usize>,
}

/// Everything about a task set that one IEERT sweep reads but no sweep
/// changes, flattened once per analysis: subtasks in (task, chain) order,
/// a CSR list of interferers and, per subtask, its dependencies — the
/// flat indices whose bounds it reads (its predecessor and its
/// interferers' predecessors). A subtask's new bound is a pure function
/// of those bounds.
#[derive(Clone, Debug)]
struct Plan {
    subtasks: Vec<Planned>,
    interferers: Vec<Interferer>,
    deps: Vec<usize>,
    /// Flat index of each task's first subtask, plus the total.
    task_starts: Vec<usize>,
}

impl Plan {
    fn new(set: &TaskSet) -> Plan {
        let mut task_starts = Vec::with_capacity(set.num_tasks() + 1);
        let mut start = 0;
        for task in set.tasks() {
            task_starts.push(start);
            start += task.chain_len();
        }
        task_starts.push(start);
        let pred_of = |id: SubtaskId| {
            id.predecessor()
                .map(|p| task_starts[p.task().index()] + p.index())
        };

        let mut subtasks = Vec::with_capacity(start);
        let mut interferers = Vec::new();
        let mut deps = Vec::new();
        let mut own_deps = Vec::new();
        for me in set.subtasks() {
            let id = me.id();
            let period = set.task(id.task()).period();
            let first = interferers.len();
            // `TaskSet::interference_set`, without the intermediate Vec.
            interferers.extend(
                set.subtasks_on(me.processor())
                    .filter(|s| s.id() != id && s.priority().is_at_least(me.priority()))
                    .map(|s| Interferer {
                        period: set.task(s.id().task()).period(),
                        execution: s.execution(),
                        pred: pred_of(s.id()),
                    }),
            );
            let mine = &interferers[first..];
            let pred = pred_of(id);
            own_deps.clear();
            own_deps.extend(mine.iter().filter_map(|k| k.pred).chain(pred));
            own_deps.sort_unstable();
            own_deps.dedup();
            let first_dep = deps.len();
            deps.extend_from_slice(&own_deps);
            subtasks.push(Planned {
                id,
                period,
                execution: me.execution(),
                blocking: set.blocking_bound(id),
                pred,
                period_sum: mine.iter().map(|k| k.period).sum::<Dur>() + period,
                min_interferer_execution: mine
                    .iter()
                    .map(|k| k.execution)
                    .min()
                    .unwrap_or(Dur::MAX),
                interferers: first..interferers.len(),
                deps: first_dep..deps.len(),
            });
        }
        Plan {
            subtasks,
            interferers,
            deps,
            task_starts,
        }
    }
}

/// The bound `bounds[pred]`, or zero without a predecessor.
fn jitter(bounds: &[Dur], pred: Option<usize>) -> Dur {
    pred.map_or(Dur::ZERO, |p| bounds[p])
}

/// One demand term under the monotone cursor, with its contribution
/// `⌈(t + J)/p⌉ · c` at the last evaluated `t` and the largest `t` with
/// the same instance count.
#[derive(Clone, Copy, Debug)]
struct CursorTerm {
    term: DemandTerm,
    demand: i64,
    through: i64,
}

/// Evaluates `offset + Σ_k ⌈(t + J_k)/p_k⌉ · c_k` for a non-decreasing
/// sequence of `t`. A term divides only when `t` passes its boundary;
/// otherwise its demand is unchanged, so most evaluations are a compare
/// and an add per term. Overflow is reported exactly when the plain
/// evaluation would report it.
#[derive(Clone, Debug, Default)]
struct DemandCursor {
    terms: Vec<CursorTerm>,
}

impl DemandCursor {
    fn push(&mut self, term: DemandTerm) {
        self.terms.push(CursorTerm {
            term,
            demand: 0,
            through: i64::MIN,
        });
    }

    /// Forgets every count, so the next `t` may be anything.
    fn rewind(&mut self) {
        for term in &mut self.terms {
            term.through = i64::MIN;
        }
    }

    /// `offset + W(t)`; `t` must not be below the previous call's since
    /// the last [`rewind`](DemandCursor::rewind).
    fn demand(&mut self, offset: Dur, t: Dur) -> Result<Dur, FixedPointFailure> {
        let t = t.ticks();
        let mut total = offset.ticks();
        for c in &mut self.terms {
            if t > c.through {
                let (period, jitter) = (c.term.period.ticks(), c.term.jitter.ticks());
                let shifted = t.checked_add(jitter).ok_or(FixedPointFailure::Overflow)?;
                let count = Dur::from_ticks(shifted).ceil_div(c.term.period);
                c.demand = c
                    .term
                    .execution
                    .ticks()
                    .checked_mul(count)
                    .ok_or(FixedPointFailure::Overflow)?;
                // The count holds up to `count·p − J`; stop short of where
                // `t + J` itself would overflow.
                c.through = count
                    .checked_mul(period)
                    .map_or(i64::MAX, |x| x.saturating_sub(jitter))
                    .min(i64::MAX.saturating_sub(jitter));
            }
            total = total
                .checked_add(c.demand)
                .ok_or(FixedPointFailure::Overflow)?;
        }
        Ok(Dur::from_ticks(total))
    }

    /// The loop of [`fixed_point_with_hint`] from `t`, already raised to
    /// its starting point.
    fn iterate(
        &mut self,
        mut t: Dur,
        offset: Dur,
        limits: FixedPointLimits,
    ) -> Result<Dur, FixedPointFailure> {
        if t <= Dur::from_ticks(1) {
            return Ok(t);
        }
        for _ in 0..limits.max_iterations {
            if t > limits.cap {
                return Err(FixedPointFailure::ExceedsCap);
            }
            let next = self.demand(offset, t)?;
            if next <= t {
                return Ok(t.max(next));
            }
            t = next;
        }
        Err(FixedPointFailure::IterationLimit)
    }

    /// The least fixed point from the literal start `cold` (what
    /// [`fixed_point`] or [`fixed_point_with_hint`] would start from),
    /// warm-started at `warm` when that is higher.
    ///
    /// `warm` must not exceed the least fixed point. The warm answer is
    /// then the literal one whenever the literal iteration would also
    /// have converged within the budget: it visits only points at or
    /// below the answer, so it neither passes the cap nor overflows where
    /// the warm one did not, and after its first step each step adds at
    /// least `min_step`, the smallest execution among the terms. When
    /// that bound cannot show the budget suffices, or the warm run fails,
    /// the literal iteration runs and its answer, error included, stands.
    fn solve(
        &mut self,
        cold: Dur,
        warm: Dur,
        offset: Dur,
        limits: FixedPointLimits,
        min_step: Dur,
    ) -> Result<Dur, FixedPointFailure> {
        if warm > cold {
            if let Ok(v) = self.iterate(warm, offset, limits) {
                let steps = (v - cold).ticks() / min_step.ticks();
                if u64::try_from(steps).is_ok_and(|s| s.saturating_add(2) <= limits.max_iterations)
                {
                    return Ok(v);
                }
            }
            self.rewind();
        }
        self.iterate(cold, offset, limits)
    }
}

/// What one evaluation of a subtask leaves for the next: its busy period
/// and per-instance completion times.
#[derive(Clone, Debug, Default)]
struct Memo {
    busy: Dur,
    completions: Vec<Dur>,
}

/// The engine behind Algorithm SA/DS: repeated IEERT sweeps that return
/// exactly what [`ieert_pass`] (Jacobi) or [`ieert_pass_gauss_seidel`]
/// would, error included.
///
/// The Jacobi sweeps are incremental. A subtask is re-evaluated only if
/// one of its dependencies changed in the previous sweep, and otherwise
/// keeps its bound: its bound is a pure function of those inputs, and it
/// returned `Ok` on them, so the first error in (task, chain) order is
/// also unchanged. A re-evaluated subtask starts its busy period and each
/// per-instance completion from its previous values, which are below the
/// new least fixed points as long as no dependency shrank (the demand
/// only grew). A dependency can shrink when a seed sits above its first
/// sweep; such a subtask restarts cold.
///
/// Gauss–Seidel sweeps run the literal [`ieert_pass_gauss_seidel`].
#[derive(Debug)]
pub(crate) struct IeertEngine<'a> {
    set: &'a TaskSet,
    cfg: &'a AnalysisConfig,
    gauss_seidel: bool,
    plan: Plan,
    memos: Vec<Memo>,
    cursor: DemandCursor,
    /// Bounds before the last sweep.
    before: Vec<Dur>,
    /// Bounds after the last sweep (the seed before the first).
    after: Vec<Dur>,
    /// Scratch for the sweep in progress.
    next: Vec<Dur>,
    swept: bool,
    /// The seed, kept for its shape: results are written into copies.
    shape: IeerBounds,
}

impl<'a> IeertEngine<'a> {
    /// Plans `set` and loads `seed`.
    pub(crate) fn new(
        set: &'a TaskSet,
        cfg: &'a AnalysisConfig,
        gauss_seidel: bool,
        seed: IeerBounds,
    ) -> IeertEngine<'a> {
        let plan = Plan::new(set);
        let after: Vec<Dur> = plan.subtasks.iter().map(|s| seed.get(s.id)).collect();
        let widest = plan.subtasks.iter().map(|s| s.interferers.len()).max();
        IeertEngine {
            set,
            cfg,
            gauss_seidel,
            memos: vec![Memo::default(); plan.subtasks.len()],
            cursor: DemandCursor {
                terms: Vec::with_capacity(widest.unwrap_or(0) + 1),
            },
            before: after.clone(),
            next: after.clone(),
            after,
            swept: false,
            shape: seed,
            plan,
        }
    }

    /// Runs one sweep. `Ok(true)` if some bound moved.
    ///
    /// # Errors
    ///
    /// The first error of the sweep, as [`ieert_pass`] reports it.
    pub(crate) fn sweep(&mut self) -> Result<bool, AnalyzeError> {
        if self.gauss_seidel {
            let next = ieert_pass_gauss_seidel(self.set, &self.bounds(), self.cfg)?;
            for (x, s) in self.plan.subtasks.iter().enumerate() {
                self.next[x] = next.get(s.id);
            }
        } else {
            for x in 0..self.plan.subtasks.len() {
                let (mut moved, mut shrank) = (!self.swept, false);
                for &d in &self.plan.deps[self.plan.subtasks[x].deps.clone()] {
                    let (was, now) = (self.before[d], self.after[d]);
                    moved |= now != was;
                    shrank |= now < was;
                }
                let value = if moved {
                    self.evaluate(x, self.swept && !shrank)?
                } else {
                    self.after[x]
                };
                self.next[x] = value;
            }
        }
        self.swept = true;
        std::mem::swap(&mut self.before, &mut self.after);
        std::mem::swap(&mut self.after, &mut self.next);
        Ok(self.after != self.before)
    }

    /// Flat bounds before and after the last sweep, in (task, chain)
    /// order.
    pub(crate) fn last_sweep(&self) -> (&[Dur], &[Dur]) {
        (&self.before, &self.after)
    }

    /// The current end-to-end bound of task `i`.
    pub(crate) fn task_bound(&self, i: usize) -> Dur {
        self.after[self.plan.task_starts[i + 1] - 1]
    }

    /// The current bounds.
    pub(crate) fn bounds(&self) -> IeerBounds {
        let mut out = self.shape.clone();
        for (s, &b) in self.plan.subtasks.iter().zip(&self.after) {
            out.set(s.id, b);
        }
        out
    }

    /// Steps 1–4 of Figure 10 for flat subtask `x` on the bounds in
    /// `self.after` — [`subtask_ieer`], warm-started from the memo when
    /// `warm`.
    fn evaluate(&mut self, x: usize, warm: bool) -> Result<Dur, AnalyzeError> {
        let me = &self.plan.subtasks[x];
        let id = me.id;
        let bounds = &self.after;
        let own_jitter = jitter(bounds, me.pred);
        let memo = &mut self.memos[x];
        let cursor = &mut self.cursor;

        // Step 1: busy-period duration with jittered demand; the own term
        // goes last, as in `subtask_ieer`.
        cursor.terms.clear();
        let mut total_jitter = Dur::ZERO;
        for k in &self.plan.interferers[me.interferers.clone()] {
            let j = jitter(bounds, k.pred);
            total_jitter += j;
            cursor.push(DemandTerm::jittered(k.period, k.execution, j));
        }
        cursor.push(DemandTerm::jittered(me.period, me.execution, own_jitter));
        total_jitter += own_jitter;
        let busy_cap = me
            .period_sum
            .saturating_mul(self.cfg.failure_factor)
            .saturating_add(total_jitter);
        let limits = FixedPointLimits::new(busy_cap, self.cfg.max_fixed_point_iterations);
        let duration = cursor
            .demand(me.blocking, Dur::from_ticks(1))
            .and_then(|cold| {
                cursor.rewind();
                let warm_start = if warm { memo.busy } else { Dur::ZERO };
                let min_step = me.min_interferer_execution.min(me.execution);
                cursor.solve(cold, warm_start, me.blocking, limits, min_step)
            })
            .map_err(|f| {
                let with_self: Vec<DemandTerm> = cursor.terms.iter().map(|c| c.term).collect();
                busy_period_error(f, id, busy_cap, &with_self)
            })?;
        memo.busy = duration;

        // Step 2: instances to examine.
        let instances = duration
            .checked_add(own_jitter)
            .ok_or(AnalyzeError::ArithmeticOverflow { subtask: id })?
            .ceil_div(me.period)
            .max(1);

        // Step 3: per-instance completion and IEER times, on the
        // interferers alone. `W(0⁺)` does not depend on the instance.
        cursor.terms.pop();
        cursor.rewind();
        let at_origin = cursor.demand(Dur::ZERO, Dur::from_ticks(1));
        cursor.rewind();
        let limits = FixedPointLimits::new(duration, self.cfg.max_fixed_point_iterations);
        let cap = self.cfg.cap_for_period(me.period);
        let warm_instances = if warm { memo.completions.len() } else { 0 };
        let mut worst = Dur::ZERO;
        let mut prev_completion = Dur::ZERO;
        for m in 1..=instances {
            let offset = me
                .execution
                .checked_mul(m)
                .and_then(|x| x.checked_add(me.blocking))
                .ok_or(AnalyzeError::ArithmeticOverflow { subtask: id })?;
            let slot = (m - 1) as usize;
            let completion = at_origin
                .and_then(|w| offset.checked_add(w).ok_or(FixedPointFailure::Overflow))
                .and_then(|start| {
                    let cold = start.max(prev_completion);
                    let warm_start = if slot < warm_instances {
                        memo.completions[slot].max(cold)
                    } else {
                        cold
                    };
                    cursor.solve(
                        cold,
                        warm_start,
                        offset,
                        limits,
                        me.min_interferer_execution,
                    )
                })
                .map_err(|f| map_failure(f, id, duration))?;
            if slot < memo.completions.len() {
                memo.completions[slot] = completion;
            } else {
                memo.completions.push(completion);
            }
            prev_completion = completion;
            let ieer = completion
                .checked_add(own_jitter)
                .ok_or(AnalyzeError::ArithmeticOverflow { subtask: id })?
                - me.period * (m - 1);
            worst = worst.max(ieer);
            if worst > cap {
                return Err(AnalyzeError::BoundExceedsCap { subtask: id, cap });
            }
        }
        memo.completions.truncate(instances as usize);
        Ok(worst)
    }
}

/// Steps 1–4 of Figure 10 for one subtask.
fn subtask_ieer(
    set: &TaskSet,
    id: SubtaskId,
    bounds: &IeerBounds,
    cfg: &AnalysisConfig,
) -> Result<Dur, AnalyzeError> {
    let me = set.subtask(id);
    let period = set.task(id.task()).period();
    let own_jitter = bounds.predecessor_bound(id);

    let interference: Vec<DemandTerm> = set
        .interference_set(id)
        .into_iter()
        .map(|sid| {
            DemandTerm::jittered(
                set.task(sid.task()).period(),
                set.subtask(sid).execution(),
                bounds.predecessor_bound(sid),
            )
        })
        .collect();

    // Blocking by lower-priority non-preemptive work (zero in the paper's
    // fully preemptive base model).
    let blocking = set.blocking_bound(id);

    // Step 1: busy-period duration with jittered demand.
    let mut with_self = interference.clone();
    with_self.push(DemandTerm::jittered(period, me.execution(), own_jitter));
    let busy_cap = busy_period_cap(&with_self, cfg);
    let limits = FixedPointLimits::new(busy_cap, cfg.max_fixed_point_iterations);
    let duration = fixed_point(blocking, &with_self, limits)
        .map_err(|f| busy_period_error(f, id, busy_cap, &with_self))?;

    // Step 2: instances to examine.
    let instances = duration
        .checked_add(own_jitter)
        .ok_or(AnalyzeError::ArithmeticOverflow { subtask: id })?
        .ceil_div(period)
        .max(1);

    // Step 3: per-instance completion and IEER times.
    let limits = FixedPointLimits::new(duration, cfg.max_fixed_point_iterations);
    let cap = cfg.cap_for_period(period);
    let mut worst = Dur::ZERO;
    let mut prev_completion = Dur::ZERO;
    for m in 1..=instances {
        let offset = me
            .execution()
            .checked_mul(m)
            .and_then(|x| x.checked_add(blocking))
            .ok_or(AnalyzeError::ArithmeticOverflow { subtask: id })?;
        let completion = fixed_point_with_hint(prev_completion, offset, &interference, limits)
            .map_err(|f| map_failure(f, id, duration))?;
        prev_completion = completion;
        let ieer = completion
            .checked_add(own_jitter)
            .ok_or(AnalyzeError::ArithmeticOverflow { subtask: id })?
            - period * (m - 1);
        worst = worst.max(ieer);
        // Once the per-instance IEER already exceeds the failure cap there
        // is no point examining further instances this sweep: the outer
        // SA/DS loop will declare failure anyway.
        if worst > cap {
            return Err(AnalyzeError::BoundExceedsCap { subtask: id, cap });
        }
    }

    Ok(worst)
}

/// The error of a failed busy-period search (step 1) for `id`, whose
/// demand terms are `with_self`.
fn busy_period_error(
    f: FixedPointFailure,
    id: SubtaskId,
    busy_cap: Dur,
    with_self: &[DemandTerm],
) -> AnalyzeError {
    match f {
        FixedPointFailure::ExceedsCap => {
            let utilization_ppm = utilization_ppm(with_self);
            if utilization_ppm >= 1_000_000 {
                AnalyzeError::Overload {
                    subtask: id,
                    utilization_ppm,
                }
            } else {
                // Below capacity but the jitter terms alone exceed the cap:
                // the bounds have blown up — a failure, not an overload.
                AnalyzeError::BoundExceedsCap {
                    subtask: id,
                    cap: busy_cap,
                }
            }
        }
        other => map_failure(other, id, busy_cap),
    }
}

/// Busy-period search limit: base periods scaled by the failure factor,
/// plus the jitters (which shift demand without adding steady-state load).
fn busy_period_cap(terms: &[DemandTerm], cfg: &AnalysisConfig) -> Dur {
    let total_period: Dur = terms.iter().map(|t| t.period).sum();
    let total_jitter: Dur = terms.iter().map(|t| t.jitter).sum();
    total_period
        .saturating_mul(cfg.failure_factor)
        .saturating_add(total_jitter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::example2;
    use crate::task::Priority;
    use crate::time::Dur;

    fn d(t: i64) -> Dur {
        Dur::from_ticks(t)
    }

    fn sid(t: usize, j: usize) -> SubtaskId {
        SubtaskId::new(TaskId::new(t), j)
    }

    #[test]
    fn seed_is_cumulative_execution() {
        let set = example2();
        let seed = IeerBounds::seed(&set);
        assert_eq!(seed.get(sid(0, 0)), d(2));
        assert_eq!(seed.get(sid(1, 0)), d(2));
        assert_eq!(seed.get(sid(1, 1)), d(5));
        assert_eq!(seed.get(sid(2, 0)), d(2));
        assert_eq!(seed.task_bound(TaskId::new(1)), d(5));
        assert_eq!(seed.predecessor_bound(sid(1, 1)), d(2));
        assert_eq!(seed.predecessor_bound(sid(1, 0)), Dur::ZERO);
    }

    #[test]
    fn first_pass_on_example2() {
        // Hand-computed sweep from the seed (see module docs for the
        // equations): T0.0 → 2, T1.0 → 4, T1.1 → 5 (jitter 2),
        // T2.0 → 8 (two jittered T1.1 instances can land in its window).
        let set = example2();
        let seed = IeerBounds::seed(&set);
        let pass1 = ieert_pass(&set, &seed, &AnalysisConfig::default()).unwrap();
        assert_eq!(pass1.get(sid(0, 0)), d(2));
        assert_eq!(pass1.get(sid(1, 0)), d(4));
        assert_eq!(pass1.get(sid(1, 1)), d(5));
        assert_eq!(pass1.get(sid(2, 0)), d(8));
    }

    #[test]
    fn second_pass_reaches_fixpoint_values() {
        let set = example2();
        let cfg = AnalysisConfig::default();
        let seed = IeerBounds::seed(&set);
        let pass1 = ieert_pass(&set, &seed, &cfg).unwrap();
        let pass2 = ieert_pass(&set, &pass1, &cfg).unwrap();
        // T1.1 now sees jitter R_{1,0} = 4: IEER 7. T2.0 stays 8.
        assert_eq!(pass2.get(sid(1, 1)), d(7));
        assert_eq!(pass2.get(sid(2, 0)), d(8));
        let pass3 = ieert_pass(&set, &pass2, &cfg).unwrap();
        assert_eq!(pass3, pass2, "fixed point reached");
    }

    #[test]
    fn zero_jitter_reduces_to_sa_pm_for_first_subtasks() {
        use crate::analysis::sa_pm::analyze_pm;
        let set = example2();
        let cfg = AnalysisConfig::default();
        let pm = analyze_pm(&set, &cfg).unwrap();
        let seed = IeerBounds::seed(&set);
        let pass1 = ieert_pass(&set, &seed, &cfg).unwrap();
        // A first subtask whose interferers are also first subtasks sees no
        // jitter anywhere, so one IEERT step computes exactly the SA/PM
        // response bound: true for T0.0 (no interference) and T1.0
        // (interfered only by T0.0).
        assert_eq!(pass1.get(sid(0, 0)), pm.response(sid(0, 0)));
        assert_eq!(pass1.get(sid(1, 0)), pm.response(sid(1, 0)));
        // T2.0 is interfered by the *second* subtask T1.1, whose release
        // jitter inflates the IEERT bound beyond SA/PM's.
        assert!(pass1.get(sid(2, 0)) > pm.response(sid(2, 0)));
    }

    #[test]
    fn gauss_seidel_single_sweep_dominates_jacobi() {
        // GS propagates within the sweep, so after one sweep every GS bound
        // is ≥ the Jacobi bound (both below the common fixed point).
        let set = example2();
        let cfg = AnalysisConfig::default();
        let seed = IeerBounds::seed(&set);
        let j = ieert_pass(&set, &seed, &cfg).unwrap();
        let gs = ieert_pass_gauss_seidel(&set, &seed, &cfg).unwrap();
        for task in set.tasks() {
            for sub in task.subtasks() {
                assert!(gs.get(sub.id()) >= j.get(sub.id()));
            }
        }
        // And on this example GS already reaches the fixed point.
        assert_eq!(gs.get(sid(1, 1)), d(7));
        assert_eq!(gs.get(sid(2, 0)), d(8));
    }

    #[test]
    fn failure_cap_fires_for_hopeless_systems() {
        // Two long chains ping-ponging between two fully loaded processors:
        // jitter feedback grows without bound. util per proc = 1.0.
        let set = crate::task::TaskSet::builder(2)
            .task(d(10))
            .subtask(0, d(5), Priority::new(0))
            .subtask(1, d(5), Priority::new(1))
            .finish_task()
            .task(d(10))
            .subtask(1, d(5), Priority::new(0))
            .subtask(0, d(5), Priority::new(1))
            .finish_task()
            .build()
            .unwrap();
        let cfg = AnalysisConfig {
            failure_factor: 10,
            ..AnalysisConfig::default()
        };
        let mut bounds = IeerBounds::seed(&set);
        let mut failed = false;
        for _ in 0..200 {
            match ieert_pass(&set, &bounds, &cfg) {
                Ok(next) => {
                    if next == bounds {
                        break;
                    }
                    bounds = next;
                }
                Err(e) => {
                    assert!(e.is_failure(), "unexpected error kind: {e:?}");
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "expected the failure criterion to fire");
    }

    #[test]
    fn seed_with_raises_entries_but_never_lowers_them() {
        let set = example2();
        // A prior below the optimistic seed is ignored (the seed is a
        // hard floor); one above it wins.
        let seeded = IeerBounds::seed_with(&set, |id| {
            if id == sid(1, 1) {
                Some(d(7)) // converged value, above the seed of 5
            } else if id == sid(0, 0) {
                Some(d(1)) // below the seed of 2: ignored
            } else {
                None
            }
        });
        assert_eq!(seeded.get(sid(1, 1)), d(7));
        assert_eq!(seeded.get(sid(0, 0)), d(2));
        assert_eq!(seeded.get(sid(2, 0)), d(2));
        // No priors at all: identical to the plain seed.
        let plain = IeerBounds::seed_with(&set, |_| None);
        assert_eq!(plain, IeerBounds::seed(&set));
    }

    #[test]
    fn demand_cursor_matches_the_plain_evaluation() {
        let terms = [
            DemandTerm::jittered(d(7), d(2), d(0)),
            DemandTerm::jittered(d(5), d(1), d(13)),
            DemandTerm::jittered(d(12), d(3), d(30)),
        ];
        let plain = |offset: Dur, t: Dur| -> Result<Dur, FixedPointFailure> {
            terms.iter().try_fold(offset, |total, k| {
                k.demand(t)
                    .and_then(|x| total.checked_add(x))
                    .ok_or(FixedPointFailure::Overflow)
            })
        };
        let mut cursor = DemandCursor::default();
        for &k in &terms {
            cursor.push(k);
        }
        for t in (1..200).chain([250, 251, 400, 1_000]) {
            assert_eq!(cursor.demand(d(4), d(t)), plain(d(4), d(t)), "t = {t}");
        }
        // Near `i64::MAX` it overflows exactly where the plain sum does.
        cursor.rewind();
        for t in [i64::MAX - 100, i64::MAX - 31, i64::MAX - 30, i64::MAX - 29] {
            assert_eq!(cursor.demand(d(0), d(t)), plain(d(0), d(t)), "t = {t}");
        }
    }

    #[test]
    fn warm_solve_keeps_the_literal_iteration_budget() {
        // t = 3 + ⌈t/4⌉·2 + ⌈t/6⌉·2 climbs 7 → 11 → … → 23 from W(0⁺) in
        // seven evaluations; a warm start at 23 needs one. Under a budget
        // the literal run exhausts, the warm answer must not stand.
        let terms = [
            DemandTerm::periodic(d(4), d(2)),
            DemandTerm::periodic(d(6), d(2)),
        ];
        let mut cursor = DemandCursor::default();
        for &k in &terms {
            cursor.push(k);
        }
        for budget in 1..=10 {
            let limits = FixedPointLimits::new(d(1_000), budget);
            cursor.rewind();
            let warm = cursor.solve(d(7), d(23), d(3), limits, d(2));
            assert_eq!(warm, fixed_point(d(3), &terms, limits), "budget {budget}");
        }
    }

    #[test]
    fn from_raw_roundtrips() {
        let b = IeerBounds::from_raw(vec![vec![d(1), d(2)], vec![d(3)]]);
        assert_eq!(b.get(sid(0, 1)), d(2));
        assert_eq!(b.task_bound(TaskId::new(1)), d(3));
        assert_eq!(b.as_slices().len(), 2);
    }
}
