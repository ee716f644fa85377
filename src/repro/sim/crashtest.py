"""The crash-point sweep: model-checked recovery at every disk state.

The paper's recovery argument (section 4) is a universally quantified
claim: *whenever* the system stops — mid-update, mid-checkpoint, mid-page
write — a restart reconstructs a correct state, losing at most the update
whose commit had not reached the disk.  A few hand-picked crash tests
cannot establish that; this harness can, because the simulated substrate
makes every intermediate disk state reachable deterministically:

1. run the scripted workload once with no crash scheduled and count the
   durable disk events it generates (N);
2. for every event k in 1..N and both crash styles (page torn mid-write /
   page completed then halt), run the workload from scratch, crash at k,
   run the restart sequence and compare the recovered state against the
   *model*: the same operations applied to a plain in-memory dict;
3. the recovered state must equal the model after all fully-completed
   steps, or (when the crash hit inside an update) that plus the
   in-flight update — nothing else.

With ``pad_to_page=False`` (the paper's exact log layout) a torn append
may destroy the committed entry sharing its final page, so the acceptance
widens to "some prefix of the completed updates"; the sweep reports how
often that data loss actually occurs (design note D2 in DESIGN.md).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

from repro.core.database import Database
from repro.core.transactions import OperationRegistry
from repro.sim.clock import SimClock
from repro.sim.sweep import Outcome, Sweep
from repro.storage.errors import SimulatedCrash
from repro.storage.failures import FailureInjector
from repro.storage.simfs import SimFS

#: A scripted step: ("update", op_name, args tuple) or ("checkpoint",)
Step = tuple


@dataclass
class CrashOutcome(Outcome):
    """What one crashed run recovered to."""

    tear: bool = False
    completed_steps: int = 0
    #: index of the model prefix the recovered state equals (None: no match)
    matched_model_index: int | None = None
    #: True when a *committed* update was lost (possible only unpadded)
    lost_committed_update: bool = False


class CrashPointSweep(Sweep):
    """Sweeps a scripted update workload over every crash point."""

    outcome_type = CrashOutcome
    TOTALS = ("lost_committed_update",)

    def __init__(
        self,
        steps: list[Step],
        operations: OperationRegistry,
        initial: Callable[[], dict] = dict,
        pad_log_to_page: bool = True,
        keep_versions: int = 1,
        tear_modes: tuple[bool, ...] = (True, False),
    ) -> None:
        self.steps = list(steps)
        self.operations = operations
        self.initial = initial
        self.pad_log_to_page = pad_log_to_page
        self.keep_versions = keep_versions
        self.phases = [("crash", {"kind": ("crash",), "tear": tear_modes})]
        self._models = self._build_models()

    # -- the model ------------------------------------------------------------

    def _build_models(self) -> list[dict]:
        """Expected root after each prefix of *update* steps.

        ``models[j]`` is the state after the first ``j`` update steps
        (checkpoint steps do not change the state).
        """
        state = self.initial()
        models = [copy.deepcopy(state)]
        for step in self.steps:
            if step[0] == "update":
                _, op_name, args = step
                self.operations.get(op_name).apply(state, *args)
                models.append(copy.deepcopy(state))
            elif step[0] != "checkpoint":
                raise ValueError(f"unknown step kind {step[0]!r}")
        return models

    def _updates_within(self, step_count: int) -> int:
        """Update steps among the first ``step_count`` steps."""
        return sum(1 for s in self.steps[:step_count] if s[0] == "update")

    # -- execution ----------------------------------------------------------------

    def _new_database(self, fs: SimFS) -> Database:
        return Database(
            fs,
            initial=self.initial,
            operations=self.operations,
            pad_log_to_page=self.pad_log_to_page,
            keep_versions=self.keep_versions,
        )

    def _run_script(self, db: Database, progress: list[int]) -> None:
        """Run the script, advancing ``progress[0]`` after each step.

        Progress is reported through a mutable cell so the caller still
        sees how far the script got when a simulated crash unwinds it.
        """
        for step in self.steps:
            if step[0] == "update":
                _, op_name, args = step
                db.update(op_name, *args)
            else:
                db.checkpoint()
            progress[0] += 1

    def dry_run(self) -> dict[str, int]:
        """Total durable disk events the script generates."""
        injector = FailureInjector()
        fs = SimFS(clock=SimClock(), injector=injector)
        self._run_script(self._new_database(fs), [0])
        return {"crash": injector.events_seen}

    def run_one(self, outcome: CrashOutcome) -> list[str]:
        injector = FailureInjector(
            crash_at_event=outcome.fault_at, tear=outcome.tear
        )
        fs = SimFS(clock=SimClock(), injector=injector)
        progress = [0]
        try:
            self._run_script(self._new_database(fs), progress)
        except SimulatedCrash:
            outcome.fired = True
        outcome.completed_steps = progress[0]
        if not outcome.fired:
            return []
        fs.crash()
        injector.disarm()
        state = self._new_database(fs).enquire(copy.deepcopy)
        return self._judge(outcome, state)

    def _judge(self, outcome: CrashOutcome, state: dict) -> list[str]:
        completed = outcome.completed_steps
        updates_done = self._updates_within(completed)
        in_flight_is_update = (
            completed < len(self.steps) and self.steps[completed][0] == "update"
        )
        allowed = {updates_done}
        if in_flight_is_update:
            # The crash may have landed after the commit point: the
            # in-flight update is then durable and must be recovered.
            allowed.add(updates_done + 1)

        matched = next(
            (j for j in range(len(self._models)) if state == self._models[j]),
            None,
        )
        outcome.matched_model_index = matched
        if matched in allowed:
            return []
        if (
            not self.pad_log_to_page
            and matched is not None
            and matched < updates_done
        ):
            # The paper's unpadded layout: a torn append destroyed
            # committed entries sharing its page.  Recovery was still
            # *consistent* — an exact earlier prefix — but durability
            # was violated; the sweep reports it rather than failing.
            outcome.lost_committed_update = True
            return []
        return [
            f"recovered state matches model prefix {matched}, "
            f"allowed {sorted(allowed)} (completed steps: {completed})"
        ]
