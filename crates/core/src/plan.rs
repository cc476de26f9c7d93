//! Loop-nest plan construction and execution.
//!
//! This is the stand-in for the paper's runtime C++ code generation
//! (Listing 2): a parsed spec string plus the logical [`LoopSpecs`] resolve
//! into a [`LoopPlan`] — a small IR describing every nesting level, its
//! step, its parallelization and its barriers. A generic walker then
//! executes the plan inside one parallel region; since the body runs at TPP
//! tile granularity, the interpretation overhead is amortized exactly like
//! the paper's JIT dispatch, which this walker replaces.

use crate::spec::{GridAxisSpec, LoopSpecs, ParsedSpec, Schedule, SpecError, Term};
use pl_runtime::grid::GridAxis;
use pl_runtime::{block_partition, DynamicQueue, GridDecomp, StaticChunks, WorkerCtx};
use std::sync::OnceLock;

/// Parallelism classification of a whole plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ParKind {
    /// Fully sequential nest: member 0 runs the body; the other members
    /// walk the nest without it, so `|` barriers still pair up.
    None,
    /// PAR-MODE 1: one consecutive group of worksharing levels.
    OmpFor {
        /// First level of the collapse group.
        group_start: usize,
        /// Number of collapsed levels.
        group_len: usize,
        /// Worksharing schedule.
        schedule: Schedule,
    },
    /// PAR-MODE 2: explicit thread grid; levels carry their axis.
    Grid(GridDecomp),
}

/// One nesting level of the instantiated loop.
#[derive(Debug, Clone)]
pub(crate) struct Level {
    /// Which logical loop this level iterates.
    pub loop_idx: usize,
    /// Step at this level.
    pub step: usize,
    /// Level index of the previous (outer) occurrence of the same loop.
    pub parent_level: Option<usize>,
    /// Grid parallelization (PAR-MODE 2).
    pub grid: Option<(GridAxis, usize)>,
    /// Member of the PAR-MODE 1 collapse group.
    pub in_collapse: bool,
    /// Team barrier once this level completes (spec `|`).
    pub barrier_after: bool,
    /// Upper bound on this level's trip count (for encounter numbering).
    pub max_trips: usize,
}

/// A compiled loop-nest instantiation.
#[derive(Debug, Clone)]
pub struct LoopPlan {
    pub(crate) levels: Vec<Level>,
    pub(crate) par: ParKind,
    pub(crate) specs: Vec<LoopSpecs>,
    /// For each logical loop, the level whose value the body observes
    /// (its innermost occurrence).
    pub(crate) leaf_slot: Vec<usize>,
    /// Product of max trip counts of levels above the collapse group
    /// (bounds the number of worksharing encounters).
    pub(crate) encounters: usize,
    spec_string: String,
}

impl LoopPlan {
    /// Builds a plan from a parsed spec and the loop declarations,
    /// performing all legality checks that do not depend on the team size.
    pub(crate) fn build(
        parsed: &ParsedSpec,
        specs: &[LoopSpecs],
        spec_string: &str,
    ) -> Result<Self, SpecError> {
        for (i, s) in specs.iter().enumerate() {
            if s.step == 0 || s.end <= s.start {
                return Err(SpecError::DegenerateLoop(i));
            }
        }
        // Occurrence counts and step assignment (RULE 1).
        let occurrences: Vec<usize> = (0..specs.len())
            .map(|l| parsed.terms.iter().filter(|t| t.loop_idx == l).count())
            .collect();
        for (l, &occ) in occurrences.iter().enumerate() {
            if occ == 0 {
                continue;
            }
            let needed = occ - 1;
            if specs[l].block_steps.len() < needed {
                return Err(SpecError::MissingBlockSteps {
                    loop_idx: l,
                    occurrences: occ,
                    provided: specs[l].block_steps.len(),
                });
            }
            // Perfect nesting: each blocking divides the previous, and the
            // base step divides the innermost blocking.
            let mut chain: Vec<usize> = specs[l].block_steps[..needed].to_vec();
            chain.push(specs[l].step);
            for w in chain.windows(2) {
                if w[1] == 0 || w[0] % w[1] != 0 {
                    return Err(SpecError::ImperfectNesting {
                        loop_idx: l,
                        outer: w[0],
                        inner: w[1],
                    });
                }
            }
        }
        // Collapse rectangularity: when a loop has several occurrences
        // inside one collapse group, the linearized space must not depend on
        // the outer member's position, so every non-innermost occurrence
        // step must divide the loop's whole span (OpenMP collapse demands
        // rectangular spaces for the same reason). Checked after the group
        // is identified below.

        // A loop that never appears would silently not iterate; treat as a
        // degenerate spec (the kernel author forgot it).
        if let Some(missing) = occurrences.iter().position(|&o| o == 0) {
            return Err(SpecError::UnknownLoop((b'a' + missing as u8) as char, specs.len()));
        }

        // Parallel-mode classification (RULE 2).
        let par_terms: Vec<(usize, &Term)> =
            parsed.terms.iter().enumerate().filter(|(_, t)| t.parallel).collect();
        let any_grid = par_terms.iter().any(|(_, t)| t.grid.is_some());
        let all_grid = par_terms.iter().all(|(_, t)| t.grid.is_some());
        let par = if par_terms.is_empty() {
            ParKind::None
        } else if any_grid {
            if !all_grid {
                return Err(SpecError::MixedParallelModes);
            }
            let mut r = None;
            let mut c = None;
            let mut lyr = None;
            for (_, t) in &par_terms {
                let (axis, ways) = t.grid.unwrap();
                let slot = match axis {
                    GridAxisSpec::R => &mut r,
                    GridAxisSpec::C => &mut c,
                    GridAxisSpec::L => &mut lyr,
                };
                if slot.is_some() {
                    return Err(SpecError::DuplicateGridAxis(match axis {
                        GridAxisSpec::R => 'R',
                        GridAxisSpec::C => 'C',
                        GridAxisSpec::L => 'L',
                    }));
                }
                *slot = Some(ways);
            }
            ParKind::Grid(GridDecomp::from_ways(r, c, lyr))
        } else {
            let first = par_terms[0].0;
            let len = par_terms.len();
            if par_terms.last().unwrap().0 != first + len - 1 {
                return Err(SpecError::NonConsecutiveParallel);
            }
            ParKind::OmpFor { group_start: first, group_len: len, schedule: parsed.schedule }
        };

        // Build levels with per-occurrence steps and parent links.
        let mut seen: Vec<usize> = vec![0; specs.len()];
        let mut last_level_of: Vec<Option<usize>> = vec![None; specs.len()];
        let mut levels = Vec::with_capacity(parsed.terms.len());
        for (li, t) in parsed.terms.iter().enumerate() {
            let l = t.loop_idx;
            let occ = seen[l];
            seen[l] += 1;
            let total_occ = occurrences[l];
            let step = if occ + 1 == total_occ { specs[l].step } else { specs[l].block_steps[occ] };
            let parent_level = last_level_of[l];
            let span = match parent_level {
                None => specs[l].end - specs[l].start,
                Some(p) => levels_step(&levels, p),
            };
            let max_trips = span.div_ceil(step).max(1);
            let grid = match (&par, t.grid) {
                (ParKind::Grid(_), Some((axis, ways))) => Some((
                    match axis {
                        GridAxisSpec::R => GridAxis::Row,
                        GridAxisSpec::C => GridAxis::Col,
                        GridAxisSpec::L => GridAxis::Layer,
                    },
                    ways,
                )),
                _ => None,
            };
            let in_collapse = matches!(
                par,
                ParKind::OmpFor { group_start, group_len, .. }
                    if li >= group_start && li < group_start + group_len
            );
            levels.push(Level {
                loop_idx: l,
                step,
                parent_level,
                grid,
                in_collapse,
                barrier_after: t.barrier_after,
                max_trips,
            });
            last_level_of[l] = Some(li);
        }

        // Enforce collapse rectangularity (see note above): an in-group
        // occurrence whose parent occurrence is also in the group requires
        // the loop's span to be a multiple of the parent step, otherwise
        // the linearized extent would vary with the outer member's value.
        if let ParKind::OmpFor { group_start, group_len, .. } = &par {
            for li in *group_start..group_start + group_len {
                if let Some(p) = levels[li].parent_level {
                    if p >= *group_start {
                        let spec: &LoopSpecs = &specs[levels[li].loop_idx];
                        if !(spec.end - spec.start).is_multiple_of(levels[p].step) {
                            return Err(SpecError::NonRectangularCollapse(levels[li].loop_idx));
                        }
                    }
                }
            }
        }

        // Barrier legality: no enclosing parallel level; in a collapse group
        // only on the last member.
        for (li, lvl) in levels.iter().enumerate() {
            if !lvl.barrier_after {
                continue;
            }
            if lvl.in_collapse {
                let is_last = match &par {
                    ParKind::OmpFor { group_start, group_len, .. } => {
                        li == group_start + group_len - 1
                    }
                    _ => false,
                };
                if !is_last {
                    return Err(SpecError::BarrierInsideCollapse);
                }
            }
            let enclosing_parallel = levels[..li].iter().enumerate().any(|(lj, e)| {
                let in_my_group = lvl.in_collapse && e.in_collapse;
                (e.grid.is_some() || e.in_collapse) && !in_my_group && lj < li
            });
            if enclosing_parallel {
                return Err(SpecError::BarrierBelowParallel);
            }
        }

        let leaf_slot: Vec<usize> =
            (0..specs.len()).map(|l| last_level_of[l].expect("every loop occurs")).collect();

        let encounters = match &par {
            ParKind::OmpFor { group_start, .. } => {
                levels[..*group_start].iter().map(|l| l.max_trips).product::<usize>().max(1)
            }
            _ => 1,
        };

        Ok(LoopPlan {
            levels,
            par,
            specs: specs.to_vec(),
            leaf_slot,
            encounters,
            spec_string: spec_string.to_string(),
        })
    }

    /// The spec string this plan was generated from.
    pub fn spec_string(&self) -> &str {
        &self.spec_string
    }

    /// Validates team-size-dependent constraints (grid product).
    pub(crate) fn check_team(&self, nthreads: usize) -> Result<(), SpecError> {
        if let ParKind::Grid(g) = &self.par {
            if g.size() != nthreads {
                return Err(SpecError::GridSizeMismatch { grid: g.size(), team: nthreads });
            }
        }
        Ok(())
    }

    /// Executes the plan on the given worker context (one call per team
    /// member; the walker partitions work by `ctx` identity).
    pub(crate) fn execute_member(
        &self,
        ctx: &WorkerCtx,
        queues: &WorkQueues,
        body: &dyn Fn(&[usize]),
    ) {
        let mut vals = vec![0usize; self.levels.len()];
        let mut ind = vec![0usize; self.specs.len()];
        let idle = |_: &[usize]| {};
        let body: &dyn Fn(&[usize]) = if self.runs_body(ctx.tid()) { body } else { &idle };
        self.walk(0, 0, &mut vals, &mut ind, ctx.tid(), ctx.nthreads(), Some(ctx), queues, &body);
    }

    /// Whether member `tid` runs the body: every member of a parallel
    /// nest, only member 0 of a sequential one.
    fn runs_body(&self, tid: usize) -> bool {
        self.par != ParKind::None || tid == 0
    }

    /// Single-threaded schedule simulation: returns, for the virtual thread
    /// `tid` of `nthreads`, the ordered list of body-index tuples it would
    /// execute. Used by the performance model (paper §II-E) to build
    /// per-thread tensor-slice traces without running the kernel.
    ///
    /// Dynamic scheduling is nondeterministic in reality; the simulation
    /// assumes round-robin chunk ownership instead.
    pub fn simulate_member(&self, tid: usize, nthreads: usize) -> Vec<Vec<usize>> {
        if !self.runs_body(tid) {
            return Vec::new();
        }
        let queues = WorkQueues::empty();
        let out = std::cell::RefCell::new(Vec::new());
        let sink = |idx: &[usize]| out.borrow_mut().push(idx.to_vec());
        let mut vals = vec![0usize; self.levels.len()];
        let mut ind = vec![0usize; self.specs.len()];
        self.walk(0, 0, &mut vals, &mut ind, tid, nthreads, None, &queues, &sink);
        out.into_inner()
    }

    /// Recursive walker. `ctx == None` means simulation mode (no barriers,
    /// dynamic scheduling degraded to deterministic round-robin).
    #[allow(clippy::too_many_arguments)]
    fn walk<F: Fn(&[usize])>(
        &self,
        li: usize,
        enc: usize,
        vals: &mut Vec<usize>,
        ind: &mut Vec<usize>,
        tid: usize,
        nthreads: usize,
        ctx: Option<&WorkerCtx>,
        queues: &WorkQueues,
        body: &F,
    ) {
        if li == self.levels.len() {
            for (l, slot) in self.leaf_slot.iter().enumerate() {
                ind[l] = vals[*slot];
            }
            body(ind);
            return;
        }
        let lvl = &self.levels[li];

        // PAR-MODE 1 collapse group: distribute the linearized local space.
        if lvl.in_collapse {
            let (group_len, schedule) = match &self.par {
                ParKind::OmpFor { group_len, schedule, .. } => (*group_len, *schedule),
                _ => unreachable!("collapse member without OmpFor plan"),
            };
            let mut counts = [0usize; 26];
            let mut total = 1usize;
            for (g, count) in counts.iter_mut().enumerate().take(group_len) {
                let (lo, hi, step) = self.level_range(li + g, vals);
                let trips = hi.saturating_sub(lo).div_ceil(step);
                *count = trips;
                total *= trips;
            }
            let run_linear = |lin: usize, vals: &mut Vec<usize>, ind: &mut Vec<usize>| {
                // Mixed-radix decode, innermost member fastest (OpenMP
                // collapse order), then materialize values in nesting order
                // so inner members see fresh outer values of the same loop
                // (rectangularity is validated at build time).
                let mut rest = lin;
                let mut its = [0usize; 26];
                for g in (0..group_len).rev() {
                    its[g] = rest % counts[g].max(1);
                    rest /= counts[g].max(1);
                }
                for g in 0..group_len {
                    let (lo, _, step) = self.level_range(li + g, vals);
                    vals[li + g] = lo + its[g] * step;
                }
                self.walk(li + group_len, enc, vals, ind, tid, nthreads, ctx, queues, body);
            };
            match schedule {
                Schedule::Static => {
                    for lin in block_partition(total, nthreads, tid) {
                        run_linear(lin, vals, ind);
                    }
                }
                Schedule::StaticChunk(c) => {
                    for r in StaticChunks::new(total, c, tid, nthreads) {
                        for lin in r {
                            run_linear(lin, vals, ind);
                        }
                    }
                }
                Schedule::Dynamic(c) => {
                    if ctx.is_some() {
                        let q = queues.get(enc, total, c);
                        while let Some(r) = q.next() {
                            for lin in r {
                                run_linear(lin, vals, ind);
                            }
                        }
                    } else {
                        // Simulation: deterministic round-robin chunks.
                        for r in StaticChunks::new(total, c, tid, nthreads) {
                            for lin in r {
                                run_linear(lin, vals, ind);
                            }
                        }
                    }
                }
            }
            if self.levels[li + group_len - 1].barrier_after {
                if let Some(c) = ctx {
                    c.barrier();
                }
            }
            return;
        }

        // Grid-parallel level: block partition of the trip space by the
        // thread's coordinate along the level's axis.
        let (lo, hi, step) = self.level_range(li, vals);
        let trips = (hi.saturating_sub(lo)).div_ceil(step);
        if let Some((axis, _ways)) = lvl.grid {
            let grid = match &self.par {
                ParKind::Grid(g) => g,
                _ => unreachable!("grid level without grid plan"),
            };
            for it in grid.partition(tid, axis, trips) {
                vals[li] = lo + it * step;
                self.walk(li + 1, enc, vals, ind, tid, nthreads, ctx, queues, body);
            }
        } else {
            // Sequential level: every member walks it (each reaching its
            // own share of the parallel levels below, if any).
            for it in 0..trips {
                vals[li] = lo + it * step;
                let child_enc = enc * lvl.max_trips + it;
                self.walk(li + 1, child_enc, vals, ind, tid, nthreads, ctx, queues, body);
            }
        }
        if lvl.barrier_after {
            if let Some(c) = ctx {
                c.barrier();
            }
        }
    }

    /// The local `(lo, hi, step)` range of a level given enclosing values.
    #[inline]
    fn level_range(&self, li: usize, vals: &[usize]) -> (usize, usize, usize) {
        let lvl = &self.levels[li];
        let spec = &self.specs[lvl.loop_idx];
        match lvl.parent_level {
            None => (spec.start, spec.end, lvl.step),
            Some(p) => {
                let lo = vals[p];
                let hi = (lo + self.levels[p].step).min(spec.end);
                (lo, hi, lvl.step)
            }
        }
    }
}

fn levels_step(levels: &[Level], idx: usize) -> usize {
    levels[idx].step
}

/// Per-run dynamic-scheduling queues, one per worksharing encounter.
pub(crate) struct WorkQueues {
    slots: Vec<OnceLock<DynamicQueue>>,
}

impl WorkQueues {
    /// Queue set for simulation (never consulted: `ctx == None`).
    pub(crate) fn empty() -> Self {
        WorkQueues { slots: Vec::new() }
    }

    pub(crate) fn new(plan: &LoopPlan) -> Self {
        let n = match &plan.par {
            ParKind::OmpFor { schedule: Schedule::Dynamic(_), .. } => {
                assert!(
                    plan.encounters <= (1 << 20),
                    "dynamic schedule with {} worksharing encounters; use static",
                    plan.encounters
                );
                plan.encounters
            }
            _ => 0,
        };
        WorkQueues { slots: (0..n).map(|_| OnceLock::new()).collect() }
    }

    fn get(&self, enc: usize, total: usize, chunk: usize) -> &DynamicQueue {
        self.slots[enc].get_or_init(|| DynamicQueue::new(total, chunk))
    }
}
