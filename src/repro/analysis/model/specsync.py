"""A formal model of the SpecSync protocol for the explicit-state checker.

The model abstracts the DES implementation (``repro.ps.engine`` +
``repro.core.scheduler``) to *bounded event orderings*: time disappears,
and every interleaving of message deliveries, compute completions, and
scheduler checks is explored instead.  What remains is exactly the state
the protocol's correctness depends on:

* a global parameter-store clock ``version`` (pushes applied so far);
* per worker: a **phase** in the pull → compute → push cycle, the
  in-progress iteration index, the store version of its current
  snapshot, its abort count for the iteration, and three in-flight
  queues — NOTIFY messages to the scheduler, open scheduler
  **push-counter windows** ``(iteration, base, own)``, and RESYNC
  messages heading back.

A scheduler window models Algorithm 2's ``(t_notify, t_notify +
ABORT_TIME]`` push count: it opens when the NOTIFY delivers, its ``base``
binds to the store version at the matching pull's serve point (the
snapshot the worker computes on), and ``own`` counts the worker's own
pushes after binding, so *peer* pushes inside the window are always
``version - base - own``.  Binding at the serve point is sound for
conformance because the engine sends NOTIFY and the next PULL_REQUEST at
the same instant with equal control latency — the real window never sees
a push the model misses (see ``docs/model_checking.md``).

The scheduler's timer check becomes the internal ``resync_check`` action,
enabled whenever a bound window's peer count reaches ``ABORT_RATE × m``;
checks from superseded windows model *late* re-syncs.  Every other action
is a message delivery named by :class:`repro.netsim.messages.MessageKind`
(:data:`MODEL_ALPHABET` mirrors the enum —
``tests/test_model_specsync.py::TestModelValidation::test_alphabet_mirrors_message_kind``
keeps the two in lockstep), plus the internal
``compute_done`` (the engine stops being abortable when the gradient
leaves for the wire, not when the push applies).

ASP/BSP/SSP are the same machine with different start gates and no
speculation traffic, so all four schemes of the paper's evaluation are
verified by one model.  Seeded bugs for the mutation harness live in
:mod:`repro.analysis.model.mutations` and are consulted *only* by the
transition generator — the invariants recompute everything from the
pre-state, so a mutated generator cannot vouch for itself.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.netsim.messages import MessageKind

__all__ = [
    "MODEL_ALPHABET",
    "INTERNAL_ACTIONS",
    "SCHEMES",
    "Action",
    "WorkerState",
    "ProtocolState",
    "SpecSyncModel",
]

#: Every message kind the model's transition alphabet covers.  A tier-1
#: test checks that this tuple and the ``MessageKind`` enum hold the same
#: members, so adding a message kind without teaching the model about it
#: fails the suite.
MODEL_ALPHABET: Tuple[MessageKind, ...] = (
    MessageKind.PULL_REQUEST,
    MessageKind.PULL_RESPONSE,
    MessageKind.PUSH,
    MessageKind.PUSH_ACK,
    MessageKind.NOTIFY,
    MessageKind.RESYNC,
)

#: Non-message actions: the compute completing inside a worker, and the
#: scheduler's timer-driven window check (Algorithm 2 ``CheckResync``).
INTERNAL_ACTIONS: Tuple[str, ...] = ("compute_done", "resync_check")

#: The synchronization schemes the one machine models via its start gate.
SCHEMES: Tuple[str, ...] = ("asp", "bsp", "ssp", "specsync")

# Worker phases: the pull → compute → push cycle, plus parked and done.
GATED = 0  # waiting for a BSP/SSP barrier release
PULL_REQ = 1  # PULL_REQUEST in flight (serve pending)
PULL_RSP = 2  # PULL_RESPONSE in flight (snapshot taken server-side)
COMPUTING = 3  # gradient computation in progress — the abortable phase
PUSH_SENT = 4  # PUSH in flight (no longer abortable)
ACKING = 5  # PUSH applied, PUSH_ACK in flight
DONE = 6  # reached the iteration bound

PHASE_NAMES = ("GATED", "PULL_REQ", "PULL_RSP", "COMPUTING", "PUSH_SENT", "ACKING", "DONE")

#: Sentinel for a window whose base version is not yet bound (NOTIFY
#: delivered before the matching pull was served).
UNBOUND = -1

_MID_ITERATION = (PULL_REQ, PULL_RSP, COMPUTING, PUSH_SENT, ACKING)

#: wire-name → enum-member-name, for counterexample rendering.
_KIND_RENDER = {kind.wire_name: kind.name for kind in MessageKind}


class Action(NamedTuple):
    """One transition label: a message delivery or an internal step.

    ``kind`` is a :class:`MessageKind` wire name (``pull_request`` …) or
    one of :data:`INTERNAL_ACTIONS`; ``iteration`` is carried by the
    actions whose wire messages carry one (NOTIFY / RESYNC / the check).
    """

    kind: str
    worker: int
    iteration: Optional[int] = None

    def render(self) -> str:
        """``MessageKind`` vocabulary, e.g. ``RESYNC w0 iter=1``."""
        label = _KIND_RENDER.get(self.kind, self.kind)
        suffix = f" iter={self.iteration}" if self.iteration is not None else ""
        return f"{label} w{self.worker}{suffix}"


class WorkerState(NamedTuple):
    """One worker's slice of the protocol state (immutable)."""

    phase: int
    iteration: int
    snap: int  # store version of the current snapshot (set at serve)
    aborts: int  # aborts within the current iteration
    notifies: Tuple[int, ...]  # in-flight NOTIFY iterations (FIFO)
    windows: Tuple[Tuple[int, int, int], ...]  # (iteration, base, own)
    resyncs: Tuple[int, ...]  # in-flight RESYNC target iterations (FIFO)

    def render(self) -> str:
        """Compact one-line form for counterexample traces."""
        parts = [f"{PHASE_NAMES[self.phase]} it={self.iteration} snap={self.snap}"]
        if self.aborts:
            parts.append(f"aborts={self.aborts}")
        if self.notifies:
            parts.append(f"notify={list(self.notifies)}")
        if self.windows:
            rendered = [
                f"(it={it}, base={'?' if base == UNBOUND else base}, own={own})"
                for it, base, own in self.windows
            ]
            parts.append(f"win=[{', '.join(rendered)}]")
        if self.resyncs:
            parts.append(f"resync={list(self.resyncs)}")
        return " ".join(parts)


class ProtocolState(NamedTuple):
    """The global model state: the PS clock plus every worker."""

    version: int
    workers: Tuple[WorkerState, ...]

    def render(self) -> str:
        """Compact one-line form for counterexample traces."""
        workers = " | ".join(f"w{i}: {w.render()}" for i, w in enumerate(self.workers))
        return f"v={self.version} | {workers}"


#: Type of one named invariant over states.
StateInvariant = Tuple[str, Callable[[ProtocolState], Optional[str]]]
#: Type of one named invariant over transitions.
ActionInvariant = Tuple[str, Callable[[ProtocolState, Action, ProtocolState], Optional[str]]]


class SpecSyncModel:
    """The SpecSync/ASP/BSP/SSP protocol as a checkable state machine.

    ``max_iterations`` bounds each worker's iteration count so the state
    space closes (``None`` disables the bound — only legal for
    conformance shadowing, never for :func:`~repro.analysis.model.checker.explore`).
    ``threshold`` is the re-sync push count ``ABORT_RATE × m``;
    ``window_keep`` prunes windows more than that many iterations behind
    their worker (unbounded runs would otherwise accumulate them).
    ``mutation`` names a seeded bug from
    :mod:`repro.analysis.model.mutations` to inject into the transition
    generator.
    """

    def __init__(
        self,
        num_workers: int,
        scheme: str = "specsync",
        max_iterations: Optional[int] = 2,
        threshold: Optional[float] = None,
        staleness_bound: int = 1,
        abort_budget: int = 1,
        mutation: Optional[str] = None,
        window_keep: Optional[int] = None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}")
        if max_iterations is not None and max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if staleness_bound < 0:
            raise ValueError(f"staleness_bound must be >= 0, got {staleness_bound}")
        if abort_budget < 0:
            raise ValueError(f"abort_budget must be >= 0, got {abort_budget}")
        self.num_workers = num_workers
        self.scheme = scheme
        self.max_iterations = max_iterations
        self.threshold = threshold if threshold is not None else 0.5 * num_workers
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        self.staleness_bound = staleness_bound
        self.abort_budget = abort_budget
        self.mutation = mutation
        self.window_keep = window_keep
        self.state_invariants: List[StateInvariant] = self._build_state_invariants()
        self.action_invariants: List[ActionInvariant] = self._build_action_invariants()

    # ------------------------------------------------------------------
    # Checker surface
    # ------------------------------------------------------------------
    def initial_state(self) -> ProtocolState:
        """Every worker issuing its first pull (the engine's run start)."""
        idle = WorkerState(
            phase=PULL_REQ, iteration=0, snap=0, aborts=0, notifies=(), windows=(), resyncs=()
        )
        workers = tuple(idle for _ in range(self.num_workers))
        # The start gate passes for everyone at iteration 0 in every
        # scheme, mirroring TrainingEngine.run's unconditional kick-off.
        return ProtocolState(version=0, workers=workers)

    def is_terminal(self, state: ProtocolState) -> bool:
        """All workers reached the iteration bound."""
        return all(w.phase == DONE for w in state.workers)

    def in_flight(self, state: ProtocolState) -> int:
        """Messages sent but not yet delivered (NOTIFY + RESYNC queues)."""
        return sum(len(w.notifies) + len(w.resyncs) for w in state.workers)

    def render_state(self, state: ProtocolState) -> str:
        """Delegate to :meth:`ProtocolState.render`."""
        return state.render()

    def render_action(self, action: Action) -> str:
        """Delegate to :meth:`Action.render`."""
        return action.render()

    # ------------------------------------------------------------------
    # Transition generator
    # ------------------------------------------------------------------
    def successors(self, state: ProtocolState) -> List[Tuple[Action, ProtocolState]]:
        """Every enabled action and the state it leads to."""
        out: List[Tuple[Action, ProtocolState]] = []
        for w, st in enumerate(state.workers):
            if st.phase == PULL_REQ:
                out.append((Action("pull_request", w), self._serve_pull(state, w)))
            elif st.phase == PULL_RSP:
                out.append((Action("pull_response", w), self._deliver_pull(state, w)))
            elif st.phase == COMPUTING:
                out.append((Action("compute_done", w), self._compute_done(state, w)))
            elif st.phase == PUSH_SENT:
                out.append((Action("push", w), self._apply_push(state, w)))
            elif st.phase == ACKING:
                out.append((Action("push_ack", w), self._ack(state, w)))
            if st.notifies:
                out.append(
                    (Action("notify", w, st.notifies[0]), self._deliver_notify(state, w))
                )
            for it, base, own in st.windows:
                if base == UNBOUND:
                    continue
                if not self._check_enabled(state, st, base, own):
                    continue
                out.append((Action("resync_check", w, it), self._run_check(state, w, it)))
            if st.resyncs and self.mutation != "dropped-resync":
                out.append(
                    (Action("resync", w, st.resyncs[0]), self._deliver_resync(state, w))
                )
        return out

    def _check_enabled(self, state: ProtocolState, st: WorkerState, base: int, own: int) -> bool:
        threshold = self.threshold
        if self.mutation == "threshold-off-by-one":
            threshold -= 1  # the classic `>=` vs `>` / N vs N-1 slip
        inflight_cap = 2 if self.mutation == "double-inflight-resync" else 1
        if len(st.resyncs) >= inflight_cap:
            return False
        return state.version - base - own >= threshold

    # -- per-action successor builders ---------------------------------
    def _replace(self, state: ProtocolState, w: int, ws: WorkerState, version: Optional[int] = None) -> ProtocolState:
        workers = state.workers[:w] + (ws,) + state.workers[w + 1 :]
        return ProtocolState(
            version=state.version if version is None else version, workers=workers
        )

    def _serve_pull(self, state: ProtocolState, w: int) -> ProtocolState:
        """PULL_REQUEST delivery: the server snapshots the store now."""
        st = state.workers[w]
        snap = state.version
        if self.mutation == "stale-restart-pull" and st.aborts > 0:
            snap = st.snap  # restart keeps computing on the stale snapshot
        windows = tuple(
            (it, state.version if (it == st.iteration and base == UNBOUND) else base, own)
            for it, base, own in st.windows
        )
        return self._replace(state, w, st._replace(phase=PULL_RSP, snap=snap, windows=windows))

    def _deliver_pull(self, state: ProtocolState, w: int) -> ProtocolState:
        """PULL_RESPONSE delivery: the worker starts computing."""
        return self._replace(state, w, state.workers[w]._replace(phase=COMPUTING))

    def _compute_done(self, state: ProtocolState, w: int) -> ProtocolState:
        """Gradient finished: the PUSH leaves — no longer abortable."""
        return self._replace(state, w, state.workers[w]._replace(phase=PUSH_SENT))

    def _apply_push(self, state: ProtocolState, w: int) -> ProtocolState:
        """PUSH delivery: the store applies the gradient (version += 1)."""
        st = state.workers[w]
        windows = tuple(
            (it, base, own + (1 if base != UNBOUND else 0)) for it, base, own in st.windows
        )
        ws = st._replace(phase=ACKING, windows=windows)
        return self._replace(state, w, ws, version=state.version + 1)

    def _ack(self, state: ProtocolState, w: int) -> ProtocolState:
        """PUSH_ACK delivery: iteration completes; gates re-evaluate."""
        st = state.workers[w]
        next_it = st.iteration + 1
        done = self.max_iterations is not None and next_it >= self.max_iterations
        # State-space reduction at the DONE boundary (an exploration
        # artifact — real runs end by horizon, not by DONE): a finished
        # worker's pending NOTIFYs deliver as no-ops and its windows can
        # only emit re-syncs that are discarded on arrival, so both are
        # collapsed here.  Stutter-equivalent: no invariant distinguishes
        # the collapsed interleavings, and conformance shadowing always
        # runs with ``max_iterations=None`` where ``done`` never holds.
        notifies = st.notifies + ((next_it,) if self.scheme == "specsync" and not done else ())
        windows = st.windows
        if self.window_keep is not None:
            windows = tuple(win for win in windows if win[0] >= next_it - self.window_keep)
        if done:
            notifies = ()
            windows = ()
        ws = st._replace(
            phase=DONE if done else GATED,
            iteration=next_it,
            aborts=0,
            notifies=notifies,
            windows=windows,
        )
        workers = list(state.workers)
        workers[w] = ws
        # The engine releases parked peers from on_iteration_complete
        # *before* the completing worker re-gates itself.
        if self.scheme in ("bsp", "ssp") and self.mutation != "bsp-missing-release":
            for v in range(self.num_workers):
                if v != w and workers[v].phase == GATED and self._may_start(workers, v):
                    workers[v] = workers[v]._replace(phase=PULL_REQ)
        if not done and self._may_start(workers, w):
            workers[w] = workers[w]._replace(phase=PULL_REQ)
        return ProtocolState(version=state.version, workers=tuple(workers))

    def _deliver_notify(self, state: ProtocolState, w: int) -> ProtocolState:
        """NOTIFY delivery: the scheduler opens a push-counter window."""
        st = state.workers[w]
        it = st.notifies[0]
        windows = st.windows
        if (
            st.phase != DONE
            and st.iteration == it
            and not any(win[0] == it for win in windows)
        ):
            base = st.snap if st.phase in (PULL_RSP, COMPUTING, PUSH_SENT, ACKING) else UNBOUND
            windows = windows + ((it, base, 0),)
        return self._replace(state, w, st._replace(notifies=st.notifies[1:], windows=windows))

    def _run_check(self, state: ProtocolState, w: int, it: int) -> ProtocolState:
        """``CheckResync`` fires: consume the window, send the RESYNC."""
        st = state.workers[w]
        windows = tuple(win for win in st.windows if win[0] != it)
        return self._replace(
            state, w, st._replace(windows=windows, resyncs=st.resyncs + (it,))
        )

    def _deliver_resync(self, state: ProtocolState, w: int) -> ProtocolState:
        """RESYNC delivery: abort-and-repull, or discard when too late."""
        st = state.workers[w]
        target = st.resyncs[0]
        ws = st._replace(resyncs=st.resyncs[1:])
        if self._abort_eligible(st, target):
            restart_phase = COMPUTING if self.mutation == "resync-skips-pull" else PULL_REQ
            ws = ws._replace(phase=restart_phase, aborts=st.aborts + 1)
        return self._replace(state, w, ws)

    def _abort_eligible(self, st: WorkerState, target: int) -> bool:
        if st.phase != COMPUTING or st.aborts >= self.abort_budget:
            return False
        if self.mutation == "late-resync-applied":
            return True  # ignores the iteration match — aborts stale targets
        return st.iteration == target

    # -- scheme start gates --------------------------------------------
    def _may_start(self, workers: Sequence[WorkerState], w: int) -> bool:
        """The scheme's ``can_start_iteration`` over iteration counts."""
        if self.scheme in ("asp", "specsync"):
            return True
        lead = workers[w].iteration - min(v.iteration for v in workers)
        if self.scheme == "bsp":
            return lead <= 0
        bound = self.staleness_bound
        if self.mutation == "ssp-bound-off-by-one":
            bound += 1
        return lead <= bound

    # ------------------------------------------------------------------
    # Invariants — recomputed from first principles, never trusting the
    # transition generator (that is what makes mutation testing honest).
    # ------------------------------------------------------------------
    def _build_state_invariants(self) -> List[StateInvariant]:
        invariants: List[StateInvariant] = [
            ("single-inflight-resync", self._inv_single_inflight),
            ("abort-budget", self._inv_abort_budget),
            ("snapshot-not-from-future", self._inv_snapshot_sanity),
        ]
        if self.scheme == "ssp":
            invariants.append(("ssp-staleness-bound", self._inv_ssp_bound))
        if self.scheme == "bsp":
            invariants.append(("bsp-lockstep", self._inv_bsp_lockstep))
        return invariants

    def _build_action_invariants(self) -> List[ActionInvariant]:
        return [
            ("resync-requires-threshold", self._ainv_threshold),
            ("resync-single-issue", self._ainv_single_issue),
            ("abort-only-when-eligible", self._ainv_abort_eligible),
            ("abort-restarts-with-pull", self._ainv_abort_repulls),
            ("abort-sees-fresher-params", self._ainv_abort_fresher),
            ("late-resync-discarded", self._ainv_late_discarded),
            ("restart-pull-is-fresher", self._ainv_restart_fresher),
        ]

    # -- state invariants ----------------------------------------------
    def _inv_single_inflight(self, state: ProtocolState) -> Optional[str]:
        for w, st in enumerate(state.workers):
            if len(st.resyncs) > 1:
                return (
                    f"worker {w} has {len(st.resyncs)} re-syncs in flight "
                    f"(targets {list(st.resyncs)}); the protocol allows at most one"
                )
        return None

    def _inv_abort_budget(self, state: ProtocolState) -> Optional[str]:
        for w, st in enumerate(state.workers):
            if st.aborts > self.abort_budget:
                return (
                    f"worker {w} aborted {st.aborts}x in iteration "
                    f"{st.iteration}, beyond the budget of {self.abort_budget}"
                )
        return None

    def _inv_snapshot_sanity(self, state: ProtocolState) -> Optional[str]:
        for w, st in enumerate(state.workers):
            if st.snap > state.version:
                return (
                    f"worker {w} holds snapshot version {st.snap} but the "
                    f"store is only at {state.version}"
                )
        return None

    def _inv_ssp_bound(self, state: ProtocolState) -> Optional[str]:
        floor = min(st.iteration for st in state.workers)
        for w, st in enumerate(state.workers):
            lead = st.iteration - floor
            if st.phase in _MID_ITERATION and lead > self.staleness_bound:
                return (
                    f"worker {w} is running iteration {st.iteration} while "
                    f"the slowest worker is at {floor}: staleness {lead} "
                    f"exceeds the SSP bound {self.staleness_bound}"
                )
            if st.phase == GATED and lead > self.staleness_bound + 1:
                return (
                    f"worker {w} parked at lead {lead}, beyond "
                    f"bound+1={self.staleness_bound + 1}"
                )
        return None

    def _inv_bsp_lockstep(self, state: ProtocolState) -> Optional[str]:
        floor = min(st.iteration for st in state.workers)
        for w, st in enumerate(state.workers):
            if st.phase in _MID_ITERATION and st.iteration != floor:
                return (
                    f"worker {w} is running iteration {st.iteration} while "
                    f"the barrier round is {floor}: BSP must run in lockstep"
                )
        return None

    # -- action invariants ---------------------------------------------
    def _ainv_threshold(
        self, pre: ProtocolState, action: Action, post: ProtocolState
    ) -> Optional[str]:
        """Paper invariant (a): re-sync only when peer pushes since the
        worker's pull reach ``ABORT_RATE × m``."""
        if action.kind != "resync_check":
            return None
        st = pre.workers[action.worker]
        window = next((win for win in st.windows if win[0] == action.iteration), None)
        if window is None:
            return (
                f"re-sync check for worker {action.worker} iteration "
                f"{action.iteration} without an open scheduler window"
            )
        _, base, own = window
        if base == UNBOUND:
            return (
                f"re-sync check for worker {action.worker} ran before the "
                f"iteration-{action.iteration} pull was served (window base unbound)"
            )
        peers = pre.version - base - own
        if peers < self.threshold:
            return (
                f"re-sync issued to worker {action.worker} on {peers} peer "
                f"push(es) since its pull, below the ABORT_RATE x m "
                f"threshold of {self.threshold:g}"
            )
        return None

    def _ainv_single_issue(
        self, pre: ProtocolState, action: Action, post: ProtocolState
    ) -> Optional[str]:
        """Paper invariant (c): never issue while one is already in flight."""
        if action.kind != "resync_check":
            return None
        st = pre.workers[action.worker]
        if st.resyncs:
            return (
                f"re-sync issued to worker {action.worker} while one for "
                f"iteration {st.resyncs[0]} is still in flight"
            )
        return None

    def _ainv_abort_eligible(
        self, pre: ProtocolState, action: Action, post: ProtocolState
    ) -> Optional[str]:
        """Paper invariant (d), active half: an abort must hit the exact
        in-progress iteration of a computing worker with budget left."""
        if action.kind != "resync":
            return None
        st, post_st = pre.workers[action.worker], post.workers[action.worker]
        if post_st.aborts <= st.aborts:
            return None  # discarded — checked by late-resync-discarded
        if st.phase != COMPUTING:
            return (
                f"worker {action.worker} aborted while in phase "
                f"{PHASE_NAMES[st.phase]}; only an in-progress computation is abortable"
            )
        if st.iteration != action.iteration:
            return (
                f"late re-sync applied: worker {action.worker} is at "
                f"iteration {st.iteration} but the re-sync targeted "
                f"iteration {action.iteration}"
            )
        if st.aborts >= self.abort_budget:
            return (
                f"worker {action.worker} aborted beyond its budget of "
                f"{self.abort_budget} per iteration"
            )
        return None

    def _ainv_abort_repulls(
        self, pre: ProtocolState, action: Action, post: ProtocolState
    ) -> Optional[str]:
        """Paper invariant (b), first half: an abort must restart with a pull."""
        if action.kind != "resync":
            return None
        st, post_st = pre.workers[action.worker], post.workers[action.worker]
        if post_st.aborts > st.aborts and post_st.phase != PULL_REQ:
            return (
                f"worker {action.worker} aborted but went to phase "
                f"{PHASE_NAMES[post_st.phase]} instead of re-pulling"
            )
        return None

    def _ainv_abort_fresher(
        self, pre: ProtocolState, action: Action, post: ProtocolState
    ) -> Optional[str]:
        """Paper invariant (b), second half: fresher parameters exist at
        the abort point (otherwise the abort wasted work for nothing)."""
        if action.kind != "resync":
            return None
        st, post_st = pre.workers[action.worker], post.workers[action.worker]
        if post_st.aborts > st.aborts and pre.version <= st.snap:
            return (
                f"worker {action.worker} aborted at store version "
                f"{pre.version} while already holding snapshot {st.snap} — "
                f"no fresher parameters to re-pull"
            )
        return None

    def _ainv_late_discarded(
        self, pre: ProtocolState, action: Action, post: ProtocolState
    ) -> Optional[str]:
        """Paper invariant (d), passive half: a discarded re-sync must
        leave the worker untouched apart from consuming the message."""
        if action.kind != "resync":
            return None
        st, post_st = pre.workers[action.worker], post.workers[action.worker]
        if post_st.aborts > st.aborts:
            return None  # honored — covered by the abort invariants
        expected = st._replace(resyncs=st.resyncs[1:])
        if post_st != expected:
            return (
                f"discarded re-sync for worker {action.worker} still "
                f"changed its state: {st.render()} -> {post_st.render()}"
            )
        return None

    def _ainv_restart_fresher(
        self, pre: ProtocolState, action: Action, post: ProtocolState
    ) -> Optional[str]:
        """Paper invariant (b), serve side: the restart pull must hand the
        aborted worker a strictly fresher snapshot than it was computing on."""
        if action.kind != "pull_request":
            return None
        st, post_st = pre.workers[action.worker], post.workers[action.worker]
        if st.aborts > 0 and post_st.snap <= st.snap:
            return (
                f"worker {action.worker} restarted after an abort but was "
                f"served snapshot {post_st.snap}, not fresher than the "
                f"aborted snapshot {st.snap}"
            )
        return None
