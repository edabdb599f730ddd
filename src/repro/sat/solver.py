"""A CDCL SAT solver in pure Python.

The solver implements the standard modern architecture:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with recursive clause minimization,
* VSIDS variable activities with phase saving,
* Luby-sequence restarts,
* activity-driven learned-clause database reduction,
* incremental solving under assumptions with final-conflict (core)
  extraction, MiniSat style.

The public API speaks signed DIMACS-style integers (``+v``/``-v``,
``v >= 1``).  Internally literals are packed as ``2*v (+) / 2*v+1 (-)``
(see :mod:`repro.sat.types`).

The solver is deliberately deterministic: given the same sequence of
``add_clause``/``solve`` calls it always explores the same search tree,
which the test-suite and the experiment harness rely on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from heapq import heapify, heappop, heappush

from .types import FALSE, TRUE, UNASSIGNED, Status, to_dimacs

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


def luby(y: float, x: int) -> float:
    """The Luby restart sequence: 1 1 2 1 1 2 4 ... scaled by ``y``."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return y**seq


def _internal(lits: Iterable[int]) -> list[int]:
    """Signed DIMACS literals as internal codes (``from_dimacs`` per literal,
    without the call: this runs for every clause added and every solve)."""
    out = []
    for lit in lits:
        if lit > 0:
            out.append(2 * lit - 2)
        elif lit < 0:
            out.append(-2 * lit - 1)
        else:
            raise ValueError("DIMACS literal must be non-zero")
    return out


class Solver:
    """Incremental CDCL SAT solver.

    Example
    -------
    >>> s = Solver()
    >>> s.add_clause([1, 2])
    True
    >>> s.add_clause([-1])
    True
    >>> s.solve()
    <Status.SAT: 1>
    >>> s.value(2)
    True

    Layout: clauses are plain lists of literal codes (``2v`` / ``2v+1``)
    whose first two positions are the watched ones, and ``_propagate``
    compacts each watch list in place, keeping the order of what stays.
    The decision heap is lazy: ``_in_heap[var]`` means "the heap holds an
    entry with ``var``'s current activity", stale entries are skipped
    when popped and swept once they outnumber the variables, and the
    pick is always the unassigned variable of highest activity, lowest
    index on ties, which is what makes the search deterministic.

    The class attributes below are the tuning knobs that backend
    variants (e.g. ``cdcl-compact``) override; they never change
    soundness, only search behaviour and memory footprint.
    """

    #: Conflicts per restart unit (scaled by the Luby sequence).
    RESTART_UNIT = 100
    #: Luby sequence base for restart scheduling.
    LUBY_BASE = 2.0
    #: Learned-clause DB reduction threshold: base + slope * restarts/10.
    LEARNT_CAP_BASE = 4000
    LEARNT_CAP_SLOPE = 500
    #: Activity decay factors (variable / clause).
    VAR_DECAY = 0.95
    CLA_DECAY = 0.999

    def __init__(self) -> None:
        self.num_vars = 0
        # Per-variable state (index = internal var).
        self._assign: list[int] = []  # TRUE / FALSE / UNASSIGNED
        self._level: list[int] = []
        self._reason: list[list | None] = []
        self._activity: list[float] = []
        self._polarity: list[bool] = []  # saved phase; True = last was negative
        self._seen: list[bool] = []
        # Watches indexed by internal literal -> list of clauses.
        self._watches: list[list[list]] = []
        # Clause store. A clause is a plain list of internal lits; learned
        # clauses carry their activity in a parallel dict keyed by id().
        self._clauses: list[list] = []
        self._learnts: list[list] = []
        # Live-clause id sets: deletion (activation retirement) detaches
        # a clause and discards its id; the stale reference stays in the
        # store list until the next lazy compaction, which also keeps
        # the object alive so its id cannot be recycled while any
        # bookkeeping still points at it.
        self._clause_ids: set = set()
        self._learnt_ids: set = set()
        # Activation-literal bookkeeping: per live activation variable,
        # the clauses guarded by it and the learnt clauses mentioning
        # it; retired activation variables go to the free list and are
        # recycled by new_activation(), bounding variable growth on
        # long incremental runs.
        self._act_groups: dict = {}
        self._act_learnts: dict = {}
        self._act_learnt_refs = 0  # sum of len() over _act_learnts' values
        self._act_free: list[int] = []
        self._cla_activity: dict = {}
        self._cla_inc = 1.0
        self._var_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        # Decision order: a lazy heap of (-activity, var) entries.
        # ``_in_heap[var]`` is True exactly when the heap holds an entry
        # carrying ``var``'s *current* activity, so an unassigned
        # variable is pushed only when it has lost that entry; entries
        # left behind by activity bumps are skipped when popped and
        # swept once they outnumber the variables (_cancel_until).
        self._order_heap: list[tuple] = []
        self._in_heap: list[bool] = []
        self._heap_seeded = 0  # variables below this have been seeded
        self._ok = True
        self._model: list[int] = []
        self._conflict_core: frozenset = frozenset()
        self._assumptions: list[int] = []
        # Counters & budgets.  ``counters`` is the live dict; the
        # :class:`~repro.sat.backend.SatBackend` protocol reads a
        # snapshot through :meth:`stats`.
        self.counters = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "removed": 0,
            "minimized_lits": 0,
            "clauses_added": 0,
            "solves": 0,
            "activations_retired": 0,
            "activations_recycled": 0,
        }
        self._conflict_budget: int | None = None
        self._propagation_budget: int | None = None
        self._minimize_touched: list[int] = []
        self._budget_conflict_mark = 0
        self._budget_prop_mark = 0

    # ------------------------------------------------------------------
    # Variable / clause creation
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Create a fresh variable; returns its 1-based DIMACS index."""
        self.num_vars += 1
        self._assign.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._polarity.append(True)
        self._seen.append(False)
        self._watches.append([])
        self._watches.append([])
        self._in_heap.append(False)
        return self.num_vars

    def _ensure_var(self, var: int) -> None:
        while self.num_vars < var:
            self.new_var()

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause of signed DIMACS literals.

        Returns ``False`` if the formula became trivially unsatisfiable
        (an empty clause was derived at decision level 0).
        """
        if not self._ok:
            return False
        if self._trail_lim:
            raise RuntimeError("add_clause is only allowed at decision level 0")
        self.counters["clauses_added"] += 1
        internal = sorted(set(_internal(lits)))
        if internal:
            self._ensure_var((internal[-1] >> 1) + 1)
        # Sorted, duplicate-free; detect tautologies and already-falsified
        # literals.  (At decision level 0 every assignment is a root
        # assignment.)
        assign = self._assign
        out = []
        prev = -1
        for lit in internal:
            if lit ^ 1 == prev:
                return True  # tautology: contains l and ~l
            prev = lit
            val = assign[lit >> 1]
            if val == UNASSIGNED:
                out.append(lit)
            elif val ^ (lit & 1) == TRUE:
                return True  # satisfied at root
            # else: drop the root-falsified literal
        if len(out) < 2:
            return self._assert_root(out)
        self._attach(out)
        self._clauses.append(out)
        self._clause_ids.add(id(out))
        if self._act_groups:
            for lit in out:
                group = self._act_groups.get((lit >> 1) + 1)
                if group is not None:
                    group.append(out)
        return True

    def add_block(self, num_vars: int, clauses: Sequence[Sequence[int]]) -> int:
        """Append ``num_vars`` fresh variables and clauses over them.

        The bulk entry point (see :class:`~repro.sat.backend.SatBackend`):
        ``clauses`` are pre-normalised — internal literals over the
        block's own 0-based variables, each clause sorted ascending,
        duplicate- and tautology-free (:class:`repro.encode.cnf.CnfBlock`)
        — and are stored shifted to the returned base: block variable
        ``v`` (1-based) is solver variable ``base + v``.  The solver ends
        in exactly the state ``num_vars`` ``new_var`` calls followed by
        one ``add_clause`` per clause would leave (stored clauses, watch
        order, root trail, ``clauses_added``), without the per-call
        conversion, sorting and root-value checks: a block mentions only
        its own fresh variables, so those checks can only matter after
        one of its own unit clauses, and run only from there on.
        """
        if self._trail_lim:
            raise RuntimeError("add_block is only allowed at decision level 0")
        base = self.num_vars
        self.num_vars = base + num_vars
        self._assign.extend([UNASSIGNED] * num_vars)
        self._level.extend([0] * num_vars)
        self._reason.extend([None] * num_vars)
        self._activity.extend([0.0] * num_vars)
        self._polarity.extend([True] * num_vars)
        self._seen.extend([False] * num_vars)
        self._in_heap.extend([False] * num_vars)
        watches = self._watches
        watches.extend([[] for _ in range(2 * num_vars)])
        if not self._ok:
            return base
        shift = 2 * base
        store = self._clauses
        ids = self._clause_ids
        rooted = False  # has a block variable been assigned at root yet?
        loaded = 0
        for loaded, clause in enumerate(clauses, 1):
            out = [lit + shift for lit in clause] if shift else list(clause)
            if rooted:
                out = self._strip_root(out)
                if out is None:
                    continue
            if len(out) > 1:
                watches[out[0] ^ 1].append(out)
                watches[out[1] ^ 1].append(out)
                store.append(out)
                ids.add(id(out))
                continue
            rooted = True
            if not self._assert_root(out):
                break
        self.counters["clauses_added"] += loaded
        return base

    def _strip_root(self, lits: list) -> list | None:
        """``lits`` without root-falsified literals; None if satisfied.

        ``add_clause``'s root simplification for a clause that is already
        sorted and tautology-free (level 0 only, as there).
        """
        assign = self._assign
        out = []
        for lit in lits:
            val = assign[lit >> 1]
            if val == UNASSIGNED:
                out.append(lit)
            elif val ^ (lit & 1) == TRUE:
                return None
        return out

    def _assert_root(self, lits: list) -> bool:
        """Assert an empty or unit clause at level 0; False on contradiction."""
        if lits and self._enqueue(lits[0], None) and self._propagate() is None:
            return True
        self._ok = False
        return False

    def _attach(self, clause: list) -> None:
        self._watches[clause[0] ^ 1].append(clause)
        self._watches[clause[1] ^ 1].append(clause)

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------
    # A literal's value is ``_assign[lit >> 1] ^ (lit & 1)``: TRUE (1),
    # FALSE (0), or UNASSIGNED and above (2, 3) when the variable is free.
    def _enqueue(self, lit: int, reason: list | None) -> bool:
        var = lit >> 1
        val = self._assign[var] ^ (lit & 1)
        if val < UNASSIGNED:
            return val == TRUE
        self._assign[var] = TRUE ^ (lit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    # ------------------------------------------------------------------
    # Unit propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> list | None:
        """Propagate all enqueued facts; return a conflicting clause or None.

        Each watch list is compacted in place: a clause that stays is
        written back at ``keep`` and the tail is cut off with one slice
        delete, so the surviving order is the scan order.  A clause that
        finds a new watch moves to that literal's list, never this one
        (the new watch is not false, this list's literal is).
        """
        watches = self._watches
        assign = self._assign
        trail = self._trail
        level = self._level
        reason = self._reason
        cur_level = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            falsified = lit ^ 1
            watch_list = watches[lit]
            keep = 0
            moved = 0
            for clause in watch_list:
                # Make sure the falsified literal is at position 1.
                first = clause[0]
                if first == falsified:
                    first = clause[0] = clause[1]
                    clause[1] = falsified
                v0 = assign[first >> 1] ^ (first & 1)
                if v0 == TRUE:
                    watch_list[keep] = clause
                    keep += 1
                    continue
                # Look for a new literal to watch: any that is not false.
                for k in range(2, len(clause)):
                    lk = clause[k]
                    if assign[lk >> 1] ^ (lk & 1):
                        clause[1] = lk
                        clause[k] = falsified
                        watches[lk ^ 1].append(clause)
                        moved += 1
                        break
                else:
                    watch_list[keep] = clause
                    keep += 1
                    # Clause is unit or conflicting on `first`.
                    if v0:  # unassigned
                        var = first >> 1
                        assign[var] = TRUE ^ (first & 1)
                        level[var] = cur_level
                        reason[var] = clause
                        trail.append(first)
                    else:
                        # Conflict: close the gap the moved clauses left;
                        # the un-scanned tail keeps its watches, in order.
                        del watch_list[keep : keep + moved]
                        self.counters["propagations"] += qhead - start
                        self._qhead = len(trail)
                        return clause
            if moved:
                del watch_list[keep:]
        self.counters["propagations"] += qhead - start
        self._qhead = qhead
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict: list) -> tuple:
        """First-UIP learning. Returns (learnt_clause, backtrack_level)."""
        learnt = [0]  # placeholder for the asserting literal
        seen = self._seen
        level = self._level
        trail = self._trail
        reasons = self._reason
        bump_var = self._bump_var
        counter = 0
        lit = -1
        index = len(trail) - 1
        cur_level = len(self._trail_lim)
        reason_lits: Iterable[int] = conflict
        self._bump_clause(conflict)
        while True:
            for q in reason_lits:
                if q == lit:
                    continue  # skip the literal we resolved on
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    bump_var(var)
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Pick the next literal on the trail to resolve on.
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason = reasons[var]
            assert reason is not None
            self._bump_clause(reason)
            reason_lits = reason
        learnt[0] = lit ^ 1
        # Clause minimization: drop literals implied by the rest.
        abstract_levels = 0
        for q in learnt[1:]:
            abstract_levels |= 1 << (level[q >> 1] & 31)
        minimized = [learnt[0]]
        to_clear = [q >> 1 for q in learnt[1:]]
        for q in learnt[1:]:
            seen[q >> 1] = True
        for q in learnt[1:]:
            if reasons[q >> 1] is None or not self._lit_redundant(q, abstract_levels):
                minimized.append(q)
            else:
                self.counters["minimized_lits"] += 1
        for var in to_clear:
            seen[var] = False
        for var in self._minimize_touched:
            seen[var] = False
        self._minimize_touched = []
        learnt = minimized
        # Compute backtrack level: second-highest level in the clause.
        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            for k in range(2, len(learnt)):
                if level[learnt[k] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = k
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = level[learnt[1] >> 1]
        return learnt, bt_level

    def _lit_redundant(self, lit: int, abstract_levels: int) -> bool:
        """Check whether ``lit`` is implied by the other learnt literals."""
        seen = self._seen
        level = self._level
        reasons = self._reason
        touched = self._minimize_touched
        stack = [lit]
        top = len(touched)
        while stack:
            p = stack.pop()
            reason = reasons[p >> 1]
            assert reason is not None
            for q in reason:
                var = q >> 1
                if var == p >> 1 or seen[var] or level[var] == 0:
                    continue
                if reasons[var] is None or not (
                    (1 << (level[var] & 31)) & abstract_levels
                ):
                    # Undo the marks made during this check.
                    for marked in touched[top:]:
                        seen[marked] = False
                    del touched[top:]
                    return False
                seen[var] = True
                touched.append(var)
                stack.append(q)
        return True

    # ------------------------------------------------------------------
    # Activities
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        activity = self._activity
        bumped = activity[var] = activity[var] + self._var_inc
        if bumped > _RESCALE_LIMIT:
            for i in range(self.num_vars):
                activity[i] *= _RESCALE_FACTOR
            self._var_inc *= _RESCALE_FACTOR
            self._rebuild_heap()
        elif self._assign[var] == UNASSIGNED:
            # Lazy heap: push an updated entry; stale ones are skipped on pop.
            heappush(self._order_heap, (-bumped, var))
            self._in_heap[var] = True
        else:
            # Its entry, if any, is stale now: _cancel_until pushes a
            # fresh one when the variable is unassigned again.
            self._in_heap[var] = False

    def _bump_clause(self, clause: list) -> None:
        key = id(clause)
        if key in self._cla_activity:
            self._cla_activity[key] += self._cla_inc
            if self._cla_activity[key] > _RESCALE_LIMIT:
                for k in self._cla_activity:
                    self._cla_activity[k] *= _RESCALE_FACTOR
                self._cla_inc *= _RESCALE_FACTOR

    def _decay_activities(self) -> None:
        self._var_inc /= self.VAR_DECAY
        self._cla_inc /= self.CLA_DECAY

    # ------------------------------------------------------------------
    # Decision heuristic (lazy binary heap over activities)
    # ------------------------------------------------------------------
    def _rebuild_heap(self) -> None:
        """Exactly one current entry per unassigned variable, nothing else."""
        assign = self._assign
        activity = self._activity
        in_heap = self._in_heap
        heap = self._order_heap = []
        for var in range(self.num_vars):
            live = in_heap[var] = assign[var] == UNASSIGNED
            if live:
                heap.append((-activity[var], var))
        heapify(heap)
        self._heap_seeded = self.num_vars

    def _pick_branch_var(self) -> int:
        """The unassigned variable of highest activity, lowest index on ties.

        Only called while a variable is unassigned (``_search`` detects
        SAT by trail length first), and every unassigned variable has a
        current entry, so the heap cannot run dry.
        """
        heap = self._order_heap
        activity = self._activity
        assign = self._assign
        in_heap = self._in_heap
        while True:
            neg_act, var = heappop(heap)
            if -neg_act != activity[var]:
                continue  # stale entry; a fresher one exists or will be pushed
            in_heap[var] = False
            if assign[var] == UNASSIGNED:
                return var

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        assign = self._assign
        polarity = self._polarity
        reason = self._reason
        in_heap = self._in_heap
        activity = self._activity
        heap = self._order_heap
        bound = trail_lim[level]
        for lit in reversed(trail[bound:]):
            var = lit >> 1
            assign[var] = UNASSIGNED
            polarity[var] = (lit & 1) == 1
            reason[var] = None
            if not in_heap[var]:
                in_heap[var] = True
                heappush(heap, (-activity[var], var))
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = bound
        # Activity bumps leave stale entries behind; sweep them once they
        # outnumber the variables (amortized O(1), as _compact_stores).
        if len(heap) > 2 * self.num_vars + 64:
            self._rebuild_heap()

    # ------------------------------------------------------------------
    # Learned-clause DB reduction
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        acts = self._cla_activity
        locked = set()
        for var in range(self.num_vars):
            r = self._reason[var]
            if r is not None:
                locked.add(id(r))
        self._learnts.sort(key=lambda c: acts.get(id(c), 0.0))
        keep_from = len(self._learnts) // 2
        kept = []
        for i, clause in enumerate(self._learnts):
            if id(clause) not in self._learnt_ids:
                continue  # deleted by activation retirement: drop the ref
            if i >= keep_from or id(clause) in locked or len(clause) == 2:
                kept.append(clause)
            else:
                self._detach(clause)
                self._learnt_ids.discard(id(clause))
                acts.pop(id(clause), None)
                self.counters["removed"] += 1
        self._learnts = kept

    def _detach(self, clause: list) -> None:
        for w in (clause[0] ^ 1, clause[1] ^ 1):
            lst = self._watches[w]
            for i, c in enumerate(lst):
                if c is clause:
                    lst[i] = lst[-1]
                    lst.pop()
                    break

    # ------------------------------------------------------------------
    # Budgets
    # ------------------------------------------------------------------
    def set_budget(
        self, conflicts: int | None = None, propagations: int | None = None
    ) -> None:
        """Limit the next ``solve`` call; it returns UNKNOWN when exceeded."""
        self._conflict_budget = conflicts
        self._propagation_budget = propagations

    def _within_budget(self) -> bool:
        if (
            self._conflict_budget is not None
            and self.counters["conflicts"] >= self._budget_conflict_mark + self._conflict_budget
        ):
            return False
        if (
            self._propagation_budget is not None
            and self.counters["propagations"]
            >= self._budget_prop_mark + self._propagation_budget
        ):
            return False
        return True

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> Status:
        """Solve under the given signed assumption literals."""
        self._model = []
        self._conflict_core = frozenset()
        self.counters["solves"] += 1
        if not self._ok:
            return Status.UNSAT
        self._assumptions = internal = _internal(assumptions)
        if internal:
            self._ensure_var((max(internal) >> 1) + 1)
        self._budget_conflict_mark = self.counters["conflicts"]
        self._budget_prop_mark = self.counters["propagations"]
        # Seed the decision heap with the variables created since the
        # last solve; the older ones kept their entries (_in_heap).
        if self._heap_seeded < self.num_vars:
            assign = self._assign
            activity = self._activity
            in_heap = self._in_heap
            heap = self._order_heap
            for var in range(self._heap_seeded, self.num_vars):
                if assign[var] == UNASSIGNED:
                    in_heap[var] = True
                    heappush(heap, (-activity[var], var))
            self._heap_seeded = self.num_vars

        restarts = 0
        while True:
            budget = int(luby(self.LUBY_BASE, restarts) * self.RESTART_UNIT)
            status = self._search(budget)
            restarts += 1
            if status is not None:
                self._cancel_until(0)
                return status
            self.counters["restarts"] += 1
            if not self._within_budget():
                self._cancel_until(0)
                return Status.UNKNOWN

    def _search(self, conflict_budget: int) -> Status | None:
        conflicts_here = 0
        counters = self.counters
        assign = self._assign
        level = self._level
        reason = self._reason
        trail = self._trail
        trail_lim = self._trail_lim
        assumptions = self._assumptions
        num_assumptions = len(assumptions)
        num_vars = self.num_vars
        while True:
            conflict = self._propagate()
            if conflict is not None:
                counters["conflicts"] += 1
                conflicts_here += 1
                if not trail_lim:
                    self._ok = False
                    return Status.UNSAT
                if len(trail_lim) <= num_assumptions:
                    # Conflict under assumptions: compute the failed core.
                    self._conflict_core = self._analyze_final(conflict)
                    return Status.UNSAT
                learnt, bt_level = self._analyze(conflict)
                self._cancel_until(bt_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self._learnts.append(learnt)
                    self._learnt_ids.add(id(learnt))
                    self._cla_activity[id(learnt)] = self._cla_inc
                    self._attach(learnt)
                    self._enqueue(learnt[0], learnt)
                    if self._act_groups:
                        # Learnts mentioning an activation variable are
                        # consequences of its clause group; retiring the
                        # group must delete them too.
                        for lit in learnt:
                            var1 = (lit >> 1) + 1
                            if var1 in self._act_groups:
                                self._act_learnts.setdefault(var1, []).append(
                                    learnt
                                )
                                self._act_learnt_refs += 1
                counters["learned"] += 1
                self._decay_activities()
                if not self._within_budget():
                    return None
                if conflicts_here >= conflict_budget:
                    self._cancel_until(num_assumptions)
                    return None
                if (
                    len(self._learnts)
                    > self.LEARNT_CAP_BASE
                    + self.LEARNT_CAP_SLOPE * counters["restarts"] // 10
                ):
                    self._reduce_db()
                continue
            if len(trail_lim) < num_assumptions:
                # Place assumptions as pseudo-decisions.
                lit = assumptions[len(trail_lim)]
                val = assign[lit >> 1] ^ (lit & 1)
                if val == TRUE:
                    trail_lim.append(len(trail))
                    continue
                if val == FALSE:
                    self._conflict_core = self._analyze_final_lit(lit)
                    return Status.UNSAT
            elif len(trail) == num_vars:
                # All variables assigned: SAT.
                self._model = list(assign)
                return Status.SAT
            else:
                var = self._pick_branch_var()
                lit = var * 2 + (1 if self._polarity[var] else 0)
            # Decide `lit` (unassigned) at a new level.
            counters["decisions"] += 1
            trail_lim.append(len(trail))
            var = lit >> 1
            assign[var] = TRUE ^ (lit & 1)
            level[var] = len(trail_lim)
            reason[var] = None
            trail.append(lit)

    # ------------------------------------------------------------------
    # Final-conflict (assumption core) analysis
    # ------------------------------------------------------------------
    def _analyze_final_lit(self, failing: int) -> frozenset:
        """Core when an assumption literal is already false on the trail."""
        core = {failing ^ 1}
        seen = self._seen
        touched = []
        var0 = failing >> 1
        if self._level[var0] > 0:
            seen[var0] = True
            touched.append(var0)
        for idx in range(len(self._trail) - 1, -1, -1):
            lit = self._trail[idx]
            var = lit >> 1
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason is None:
                core.add(lit ^ 1)
            else:
                for q in reason:
                    if (q >> 1) != var and self._level[q >> 1] > 0 and not seen[q >> 1]:
                        seen[q >> 1] = True
                        touched.append(q >> 1)
            seen[var] = False
        for var in touched:
            seen[var] = False
        return frozenset(to_dimacs(l ^ 1) for l in core)

    def _analyze_final(self, conflict: list) -> frozenset:
        """Failed-assumption core from a conflict clause under assumptions."""
        seen = self._seen
        touched = []
        core_internal = set()
        for q in conflict:
            var = q >> 1
            if self._level[var] > 0:
                seen[var] = True
                touched.append(var)
        for idx in range(len(self._trail) - 1, -1, -1):
            lit = self._trail[idx]
            var = lit >> 1
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason is None:
                core_internal.add(lit)
            else:
                for q in reason:
                    qv = q >> 1
                    if qv != var and self._level[qv] > 0 and not seen[qv]:
                        seen[qv] = True
                        touched.append(qv)
            seen[var] = False
        for var in touched:
            seen[var] = False
        assumed = set(self._assumptions)
        return frozenset(
            to_dimacs(l) for l in core_internal if l in assumed
        )

    # ------------------------------------------------------------------
    # Activation literals (incremental clause groups)
    # ------------------------------------------------------------------
    def new_activation(self) -> int:
        """An activation literal for a retractable clause group.

        Add clauses as ``[-act] + clause`` and pass ``act`` as an
        assumption to enable the group; call :meth:`retire` to disable
        the group permanently.  Retired activation variables are
        *recycled*: the next ``new_activation`` reuses the variable
        (``stats()["activations_recycled"]``) instead of growing the
        variable count, which is what keeps long incremental runs —
        IC3 retires one query-local activation per consecution query —
        from growing the solver without bound.  A guarded clause must
        belong to exactly one group (one activation literal per
        clause), which is how every engine uses the API.
        """
        if self._act_free:
            act = self._act_free.pop()
            self.counters["activations_recycled"] += 1
        else:
            act = self.new_var()
        self._act_groups[act] = []
        return act

    def retire(self, act: int) -> None:
        """Permanently disable the clause group guarded by ``act``.

        ``act`` must come from :meth:`new_activation` and not have been
        retired already.  The group's clauses — and every learnt clause
        mentioning the variable, since those are consequences of the
        group — are deleted from the clause store and watch lists, and
        the variable returns to the free list for recycling.  The one
        exception is a variable pinned at root (a group clause
        collapsed to the unit ``[-act]``): its assignment already
        disables the group forever, but the variable cannot be reused,
        so it is simply abandoned.
        """
        group = self._act_groups.get(act)
        if group is None:
            raise ValueError(f"unknown activation literal {act}")
        if self._trail_lim:
            # Raise before mutating any bookkeeping so a caller that
            # backtracks to level 0 can retry the retirement cleanly.
            raise RuntimeError("retire is only allowed at decision level 0")
        del self._act_groups[act]
        self.counters["activations_retired"] += 1
        dependents = self._act_learnts.pop(act, [])
        self._act_learnt_refs -= len(dependents)
        if self._assign[act - 1] != UNASSIGNED:
            # Pinned at root: the group is already permanently decided;
            # deleting its clauses could dangle root reasons, and the
            # variable must never be reused.  Abandon it.
            return
        for clause in group:
            cid = id(clause)
            if cid in self._clause_ids:
                self._clause_ids.discard(cid)
                self._unlink(clause)
        for clause in dependents:
            cid = id(clause)
            if cid in self._learnt_ids:
                self._learnt_ids.discard(cid)
                self._unlink(clause)
                self._cla_activity.pop(cid, None)
        self._act_free.append(act)
        self._compact_stores()

    def _unlink(self, clause: list) -> None:
        """Detach a deleted clause and clear any reason pointing at it."""
        if len(clause) >= 2:
            self._detach(clause)
        for lit in clause[:2]:
            var = lit >> 1
            if self._reason[var] is clause:
                self._reason[var] = None

    def _compact_stores(self) -> None:
        """Drop stale references to deleted clauses (amortized O(1)).

        Deleted clauses stay in the store lists (keeping their ids
        alive for the membership checks above) until they outnumber the
        live ones; then one linear sweep reclaims the memory.
        """
        if len(self._clauses) > 64 and len(self._clauses) > 2 * len(self._clause_ids):
            self._clauses = [
                c for c in self._clauses if id(c) in self._clause_ids
            ]
        if len(self._learnts) > 64 and len(self._learnts) > 2 * len(self._learnt_ids):
            self._learnts = [
                c for c in self._learnts if id(c) in self._learnt_ids
            ]
        # Long-lived activation variables (IC3's per-frame literals are
        # never retired) would otherwise pin every learnt that ever
        # mentioned them, even after _reduce_db dropped it.
        tracked = self._act_learnt_refs
        if tracked > 64 and tracked > 2 * len(self._learnt_ids):
            for var, refs in list(self._act_learnts.items()):
                live = [c for c in refs if id(c) in self._learnt_ids]
                if live:
                    self._act_learnts[var] = live
                else:
                    del self._act_learnts[var]
            self._act_learnt_refs = sum(map(len, self._act_learnts.values()))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """A snapshot of the solver's work counters (SatBackend API)."""
        return dict(self.counters)

    def value(self, lit: int) -> bool | None:
        """Model value of a signed literal after a SAT answer."""
        if not self._model:
            return None
        var = abs(lit) - 1
        if var >= len(self._model):
            return None
        val = self._model[var]
        if val == UNASSIGNED:
            return None
        truth = val == TRUE
        return truth if lit > 0 else not truth

    def model(self) -> list[int]:
        """The model as a list of signed literals (one per variable)."""
        out = []
        for var, val in enumerate(self._model):
            if val == UNASSIGNED:
                continue
            out.append(var + 1 if val == TRUE else -(var + 1))
        return out

    def core(self) -> frozenset:
        """Failed assumptions (signed) after an UNSAT answer under assumptions."""
        return self._conflict_core

    @property
    def ok(self) -> bool:
        """False once the clause set is unsatisfiable at level 0."""
        return self._ok

    def num_clauses(self) -> int:
        return len(self._clause_ids)

    def num_learnts(self) -> int:
        return len(self._learnt_ids)
