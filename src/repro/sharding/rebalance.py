"""Timing-driven adaptive view rebalancing for :class:`ShardSession`.

A session freezes its LPT view assignment at fork time, so when a
workload's hot labels drift (the ~95/4/1 stage-dependent event-rate
shape of lifecycle-modeled churn) one resident worker ends up owning
every hot view and the per-batch makespan degrades toward the
single-worker time while the other replicas idle.  This module closes
the loop: the per-view ``maintenance_seconds`` the workers already ship
home each batch feed an EWMA cost model, and a deterministic policy
decides -- purely from those recorded timings -- when to migrate view
ownership between resident workers so the makespan tracks Sigma/N again.

Two invariants shape the design:

* **decisions are replayable.**  :meth:`RebalancePolicy.observe` is a
  pure function of the timing stream and the policy's own constants --
  no wall clock, no RNG, no iteration over unordered containers.  The
  exact migration trajectory of a live session can be reproduced
  offline from the recorded per-batch timings (the projection fallback
  of ``benchmarks/bench_rebalance.py`` does exactly that on hosts too
  small to measure real concurrency).
* **the plan never thrashes.**  A migration is triggered only after
  the observed imbalance ratio exceeds ``trigger_ratio`` for
  ``patience`` consecutive batches (hysteresis against one-batch
  spikes), each decision moves at most ``budget`` views (and stops
  early once the planned ratio falls under ``target_ratio``, which sits
  below the trigger so a freshly balanced plan has slack before it can
  re-trigger), and ``cooldown`` batches must pass after a migration
  before the trigger counter may grow again (the EWMA needs a few
  batches to reflect the new assignment).

The session applies the returned moves through its batch-boundary
migration protocol (:meth:`ShardSession._migrate`); this module knows
nothing about processes or pipes and is trivially unit-testable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.sharding.planner import imbalance_ratio

#: A planned ownership move: (view name, source worker, target worker).
Move = Tuple[str, int, int]


class ViewCostModel:
    """Median-prefiltered EWMA per-view maintenance cost in seconds.

    ``alpha`` is the weight of the newest observation: high values track
    drift quickly but chase noise, low values smooth.  The first
    observation of a view seeds its cell directly, so a cold-started
    model is usable after one batch.  Views are updated in sorted name
    order purely for reproducible trace output; the EWMA cells are
    independent, so the order never changes the numbers.

    Before a measurement enters the EWMA it passes a median-of-
    ``spike_window`` prefilter over that view's most recent raw
    observations.  A single-batch measurement spike -- a GC pause or a
    burst of CPU steal landing inside one view's phase timer -- can
    fake a cost larger than any worker's fair share, and no assignment
    repairs that; the median rejects an isolated outlier entirely,
    while a *sustained* change (a real drift-phase flip) passes with
    one batch of delay.  ``spike_window=1`` disables the filter.
    """

    def __init__(self, alpha: float = 0.3, spike_window: int = 3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1], got %r" % (alpha,))
        if spike_window < 1 or spike_window % 2 == 0:
            raise ValueError(
                "spike_window must be a positive odd integer, got %r"
                % (spike_window,)
            )
        self.alpha = alpha
        self.spike_window = spike_window
        self._costs: Dict[str, float] = {}
        self._recent: Dict[str, List[float]] = {}

    def observe(self, name: str, seconds: float) -> float:
        """Fold one measured per-view maintenance time into the model."""
        seconds = max(0.0, float(seconds))
        if self.spike_window > 1:
            recent = self._recent.setdefault(name, [])
            recent.append(seconds)
            del recent[: -self.spike_window]
            seconds = sorted(recent)[len(recent) // 2]
        previous = self._costs.get(name)
        if previous is None:
            self._costs[name] = seconds
        else:
            self._costs[name] = previous + self.alpha * (seconds - previous)
        return self._costs[name]

    def observe_batch(self, timings: Dict[str, float]) -> None:
        """Fold one batch's ``view -> maintenance_seconds`` map."""
        for name in sorted(timings):
            self.observe(name, timings[name])

    def cost(self, name: str, default: float = 0.0) -> float:
        return self._costs.get(name, default)

    def costs(self) -> Dict[str, float]:
        """A snapshot copy of every tracked view's smoothed cost."""
        return dict(self._costs)

    def load_of(self, names: Sequence[str]) -> float:
        return sum(self._costs.get(name, 0.0) for name in names)

    def __repr__(self) -> str:
        return "ViewCostModel(alpha=%g, %d views)" % (
            self.alpha,
            len(self._costs),
        )


class RebalancePolicy:
    """Deterministic migration policy over a :class:`ViewCostModel`.

    Feed it one :meth:`observe` call per completed batch (the current
    assignment plus that batch's recorded per-view timings); it returns
    the migration moves the session should apply at the next batch
    boundary -- usually none.  All state is explicit counters, so equal
    timing streams produce equal decision streams.
    """

    def __init__(
        self,
        trigger_ratio: float = 1.25,
        target_ratio: float = 1.1,
        patience: int = 3,
        cooldown: int = 2,
        budget: int = 2,
        alpha: float = 0.3,
    ):
        if trigger_ratio < target_ratio:
            raise ValueError(
                "trigger_ratio %.3f must be >= target_ratio %.3f (hysteresis)"
                % (trigger_ratio, target_ratio)
            )
        if target_ratio < 1.0:
            raise ValueError("target_ratio must be >= 1.0, got %r" % (target_ratio,))
        if patience < 1:
            raise ValueError("patience must be >= 1, got %r" % (patience,))
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0, got %r" % (cooldown,))
        if budget < 1:
            raise ValueError("budget must be >= 1, got %r" % (budget,))
        self.trigger_ratio = trigger_ratio
        self.target_ratio = target_ratio
        self.patience = patience
        self.cooldown = cooldown
        self.budget = budget
        self.model = ViewCostModel(alpha)
        self._over_trigger = 0
        self._cooldown_left = 0
        #: total moves decided over the policy's lifetime (telemetry).
        self.moves_decided = 0

    @classmethod
    def coerce(
        cls, value: Union[None, bool, "RebalancePolicy"]
    ) -> Optional["RebalancePolicy"]:
        """Accept a policy, ``True`` (defaults) or ``None``/``False``."""
        if isinstance(value, RebalancePolicy):
            return value
        if value is True:
            return cls()
        if value is None or value is False:
            return None
        raise TypeError(
            "rebalance must be a RebalancePolicy, True or None, got %r" % (value,)
        )

    # -- the per-batch decision -----------------------------------------

    def observe(
        self, assignment: Sequence[Sequence[str]], timings: Dict[str, float]
    ) -> List[Move]:
        """Fold one batch's timings; return the moves to apply (if any).

        ``assignment`` is the live worker -> owned-view-names partition
        (the session's ``_assignment``); ``timings`` maps each view to
        the ``maintenance_seconds`` its worker recorded for this batch.
        The caller applies the returned moves to its own assignment --
        the policy never mutates the argument.
        """
        self.model.observe_batch(timings)
        if len(assignment) < 2:
            return []
        loads = [self.model.load_of(owned) for owned in assignment]
        ratio = imbalance_ratio(loads)
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            self._over_trigger = 0
            return []
        if ratio <= self.trigger_ratio:
            self._over_trigger = 0
            return []
        self._over_trigger += 1
        if self._over_trigger < self.patience:
            return []
        self._over_trigger = 0
        moves = self.plan(assignment)
        if moves:
            self._cooldown_left = self.cooldown
            self.moves_decided += len(moves)
        return moves

    def plan(self, assignment: Sequence[Sequence[str]]) -> List[Move]:
        """Greedy makespan repair under the migration budget (pure).

        Repeatedly moves the heaviest view that *strictly* lowers the
        makespan from the most loaded worker to the least loaded one
        (ties on load broken by worker index, ties on cost by view
        name), stopping at ``budget`` moves or once the planned ratio
        reaches ``target_ratio``.  Each view moves at most one hop per
        round: the session rejects a view that moves twice in one
        migration, and a chained double-move would ship its extent
        twice.  Working on model costs only,
        the same model state always plans the same moves.
        """
        buckets = [list(owned) for owned in assignment]
        loads = [self.model.load_of(owned) for owned in buckets]
        moves: List[Move] = []
        moved = set()
        while len(moves) < self.budget:
            if imbalance_ratio(loads) <= self.target_ratio:
                break
            source = loads.index(max(loads))
            target = loads.index(min(loads))
            if source == target:
                break
            headroom = loads[source] - loads[target]
            candidates = sorted(
                (name for name in buckets[source] if name not in moved),
                key=lambda name: (-self.model.cost(name), name),
            )
            chosen = None
            for name in candidates:
                cost = self.model.cost(name)
                # Moving `cost` helps iff the target stays below the
                # source's old load: new makespan contribution
                # max(source - cost, target + cost) < source.
                if 0.0 < cost < headroom:
                    chosen = name
                    break
            if chosen is None:
                break
            buckets[source].remove(chosen)
            buckets[target].append(chosen)
            cost = self.model.cost(chosen)
            loads[source] -= cost
            loads[target] += cost
            moved.add(chosen)
            moves.append((chosen, source, target))
        return moves

    def __repr__(self) -> str:
        return (
            "RebalancePolicy(trigger=%.2f, target=%.2f, patience=%d, "
            "cooldown=%d, budget=%d)"
            % (
                self.trigger_ratio,
                self.target_ratio,
                self.patience,
                self.cooldown,
                self.budget,
            )
        )
