"""Seeded Monte-Carlo reliability campaigns (paper Sec. 6, Figs. 14-19).

The paper's headline claim is *reliable* high-radix counting; its
evaluation is a grid of fault-injection sweeps and protection ablations.
:class:`Campaign` is the harness that runs those grids against the real
counting engine: N seeded trials per :class:`FaultPoint`, each trial a
full weight-stationary GEMV plan under its own deterministic
:class:`~repro.dram.faults.FaultModel`, with per-trial
``injected`` / ``detected`` / ``corrected`` / ``silent`` accounting
against the exact software result.

Trials batch across a shared :class:`~repro.serve.pool.BankPool`: each
trial's plan leases its engine banks through the same lease machinery
the serving runtime uses, the campaign sizes its admission waves from
the pool budget, and a wave's leases are held until the whole wave
retires -- a bounded pool is the normal operating point, not an error.
On the word backend the fault-injected hot loop replays *fused* fault
traces (see :mod:`repro.isa.trace`), which is what makes
application-scale campaigns tractable; results are bit-identical to the
interpreted and bit-level paths, so a campaign row is a reproducible
artifact, not a sample of simulator noise.

>>> import numpy as np
>>> rng = np.random.default_rng(0)
>>> z = rng.integers(-1, 2, (8, 16)).astype(np.int8)
>>> xs = rng.integers(-5, 6, (3, 8))
>>> campaign = Campaign(z=z, xs=xs, kind="ternary", pool_banks=8,
...                     banks_per_trial=2)
>>> result = campaign.run([FaultPoint(p_cim=0.0),
...                        FaultPoint(p_cim=0.2)], n_trials=2)
>>> [row["silent_trials"] for row in result.rows]
[0, 2]
>>> result.rows[0]["injected"], result.rows[1]["injected"] > 0
(0, True)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.device import Device
from repro.dram.faults import FaultModel
from repro.engine.machine import Counters
from repro.serve.pool import BankPool

__all__ = ["Campaign", "CampaignResult", "FaultPoint", "TrialResult"]


@dataclass(frozen=True)
class FaultPoint:
    """One cell of a fault + protection grid.

    ``p_cim`` / ``p_read`` / ``margin_aware`` parameterize the
    :class:`~repro.dram.faults.FaultModel` of every trial at this
    point; ``fr_checks`` selects the Sec. 6 ECC protection (0 =
    unprotected).  ``scheme`` is a free-form protection tag for custom
    trial functions that model their own protection (the Fig. 17 app
    grids use it); the engine-backed trials ignore it.
    """

    p_cim: float
    p_read: float = 0.0
    margin_aware: bool = True
    fr_checks: int = 0
    scheme: str = ""
    label: str = ""

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        tag = f"p_cim={self.p_cim:g}"
        if self.p_read:
            tag += f",p_read={self.p_read:g}"
        if not self.margin_aware:
            tag += ",no-margin"
        if self.fr_checks:
            tag += f",fr={self.fr_checks}"
        if self.scheme:
            tag += f",{self.scheme}"
        return tag


@dataclass(frozen=True)
class TrialResult:
    """One seeded trial's outcome: the grid point, the seed, metrics.

    ``point_index`` is the point's position in the ``run()`` grid --
    the aggregation key, so duplicate (value-equal) grid points keep
    their trial sets separate.
    """

    point: FaultPoint
    point_index: int
    trial: int
    metrics: Dict[str, float]


@dataclass
class CampaignResult:
    """All trials of one campaign run plus the per-point summary."""

    rows: List[dict] = field(default_factory=list)
    trials: List[TrialResult] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def point_trials(self, point_index: int) -> List[TrialResult]:
        """Trials of the grid point at ``point_index`` in the run."""
        return [t for t in self.trials if t.point_index == point_index]

    def render(self) -> str:
        """Plain-text summary table (one row per grid point)."""
        lines = ["== Reliability campaign =="]
        if self.rows:
            keys: List[str] = []
            for row in self.rows:
                for k in row:
                    if k not in keys:
                        keys.append(k)
            widths = {k: max(len(str(k)),
                             *(len(_fmt(r.get(k))) for r in self.rows))
                      for k in keys}
            lines.append("  ".join(str(k).ljust(widths[k]) for k in keys))
            for row in self.rows:
                lines.append("  ".join(
                    _fmt(row.get(k)).ljust(widths[k]) for k in keys))
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


class Campaign:
    """Run seeded Monte-Carlo trials of a kernel over a fault grid.

    Parameters
    ----------
    z, xs, kind, n_bits, backend:
        The built-in engine trial: a weight-stationary GEMV plan over
        ``z`` answering the query stream ``xs`` (``[Q, K]``), compared
        against the exact ``xs @ z``.  Each trial builds the plan under
        its own seeded fault model, streams every query, and accounts
        flips / detections / silent output corruptions.
    trial:
        Alternative custom trial ``fn(point, rng) -> dict`` returning
        metric values; overrides the engine trial.  Used by experiment
        grids whose workload is an application study rather than a raw
        kernel (Fig. 17).
    pool / pool_banks:
        The shared bank budget trials lease from.  A bounded pool
        bounds the campaign's admission wave: at most
        ``pool_banks // banks_per_trial`` trials hold leases at once,
        and a wave's leases are released together when it retires.
    banks_per_trial:
        Banks each engine trial's plan spreads its broadcast over.
    base_seed:
        Root of the deterministic seed tree: trial ``t`` of grid point
        ``i`` draws from ``SeedSequence((base_seed, i, t))``, so any
        single trial can be reproduced in isolation.
    """

    def __init__(self, z: Optional[np.ndarray] = None,
                 xs: Optional[np.ndarray] = None,
                 kind: Optional[str] = None, n_bits: int = 2,
                 backend: str = "word",
                 trial: Optional[Callable[[FaultPoint,
                                           np.random.Generator],
                                          dict]] = None,
                 pool: Optional[BankPool] = None,
                 pool_banks: Optional[int] = None,
                 banks_per_trial: int = 4,
                 base_seed: int = 20260730):
        if z is not None and xs is None:
            raise ValueError("a workload z also needs its query "
                             "stream xs")
        if trial is None and z is None:
            raise ValueError("provide a workload (z and xs) or a "
                             "custom trial function")
        self.trial_fn = trial
        self.n_bits = int(n_bits)
        self.backend = backend
        self.base_seed = int(base_seed)
        self.pool = pool if pool is not None else BankPool(pool_banks)
        self.banks_per_trial = max(1, int(banks_per_trial))
        if z is not None:
            self.z = np.asarray(z)
            self.xs = np.asarray(xs, dtype=np.int64)
            if self.xs.ndim != 2 or self.xs.shape[1] != self.z.shape[0]:
                raise ValueError("xs must be [Q, K] matching z's K")
            self.kind = kind
            self.golden = self.xs @ self.z.astype(np.int64)
            self.x_budget = int(np.abs(self.xs).sum(axis=1).max())
        else:
            self.z = self.xs = self.golden = None
            self.kind = kind
            self.x_budget = 0

    # ------------------------------------------------------------------
    def wave_size(self) -> int:
        """Trials admitted to hold bank leases concurrently.

        A bounded pool grants ``budget // banks_per_trial`` concurrent
        trials (plans clamp their bank ask to the total budget, so even
        a pool smaller than ``banks_per_trial`` admits one trial); an
        unaccounted pool does not constrain admission.
        """
        if not self.pool.bounded or self.trial_fn is not None:
            return 8
        return max(1, self.pool.n_banks // min(self.banks_per_trial,
                                               self.pool.n_banks))

    def trial_rng(self, point_index: int, trial: int
                  ) -> np.random.Generator:
        """The deterministic per-trial generator (reproducible alone)."""
        return np.random.default_rng(
            np.random.SeedSequence((self.base_seed, point_index, trial)))

    def spec(self) -> dict:
        """The picklable recipe a fleet shard rebuilds this campaign from.

        Everything a per-trial metric depends on: workload, kind, bit
        width, backend, the *total* pool budget (plans clamp their bank
        ask against it), per-trial banks and the seed-tree root.  Wave
        boundaries and lease concurrency are deliberately absent --
        they affect scheduling, never metrics -- which is exactly why a
        fleet-sharded run reproduces the in-process run bit for bit.
        Custom ``trial`` functions are process-local closures and have
        no spec; asking for one raises.
        """
        if self.trial_fn is not None:
            raise ValueError("custom-trial campaigns cannot be shipped "
                             "to fleet workers (the trial function is "
                             "a process-local closure)")
        return {"z": self.z, "xs": self.xs, "kind": self.kind,
                "n_bits": self.n_bits, "backend": self.backend,
                "pool_banks": self.pool.n_banks,
                "banks_per_trial": self.banks_per_trial,
                "base_seed": self.base_seed}

    # ------------------------------------------------------------------
    def _engine_trial(self, point: FaultPoint,
                      rng: np.random.Generator, device: Device) -> dict:
        """One seeded plan lifetime: stream ``xs``, account everything.

        Outcome taxonomy per lane: **silent** lanes are wrong outputs
        of queries that completed without any unresolved detection --
        the dangerous kind; queries whose protection exhausted its
        retries are *loud* failures, so their lanes are reported as
        ``failed_lanes``, never as silent corruption.  ``corrected``
        counts blocks the ECC scheme detected and re-executed to a
        clean validation (outcome-level, not per-check).
        """
        plan = device.plan_gemv(self.z, kind=self.kind,
                                x_budget=self.x_budget)
        failed_queries = 0
        ys = np.zeros_like(self.golden)
        completed = np.ones(self.xs.shape[0], dtype=bool)
        from repro.ecc.protection import RetryExhaustedError
        for qi, x in enumerate(self.xs):
            try:
                ys[qi] = plan(x)
            except RetryExhaustedError:
                failed_queries += 1
                completed[qi] = False
        prot = plan.protection_stats()
        counters = Counters.of(plan.stats)
        silent = int((ys[completed] != self.golden[completed]).sum())
        return {
            "injected": counters.injected_faults,
            "detected": int(prot.detections),
            "corrected": int(prot.corrected),
            "retries": int(prot.retries),
            "retry_exhausted": int(prot.exhausted),
            "failed_queries": failed_queries,
            "failed_lanes": int((~completed).sum() * self.golden.shape[1]),
            "silent_lanes": silent,
            "n_outputs": int(completed.sum() * self.golden.shape[1]),
            "exact": int(silent == 0 and failed_queries == 0),
            **counters._asdict(),
        }

    def _run_point_trial(self, index: int, point: FaultPoint,
                         trial: int,
                         wave_devices: Optional[List[Device]] = None
                         ) -> TrialResult:
        rng = self.trial_rng(index, trial)
        if self.trial_fn is not None:
            metrics = dict(self.trial_fn(point, rng))
            return TrialResult(point=point, point_index=index,
                               trial=trial, metrics=metrics)
        fault_model = FaultModel(p_cim=point.p_cim, p_read=point.p_read,
                                 margin_aware=point.margin_aware,
                                 seed=rng)
        device = Device(n_bits=self.n_bits, fault_model=fault_model,
                        fr_checks=point.fr_checks, backend=self.backend,
                        n_banks=self.banks_per_trial, pool=self.pool)
        if wave_devices is not None:
            wave_devices.append(device)       # lease held until wave end
            metrics = self._engine_trial(point, rng, device)
        else:
            try:
                metrics = self._engine_trial(point, rng, device)
            finally:
                device.close()
        return TrialResult(point=point, point_index=index, trial=trial,
                           metrics=metrics)

    # ------------------------------------------------------------------
    def run(self, points: Sequence[FaultPoint], n_trials: int = 8,
            fleet=None) -> CampaignResult:
        """Run ``n_trials`` seeded trials of every grid point.

        Trials are scheduled in admission waves sized by the pool
        budget: every trial in a wave keeps its plan (and bank leases)
        alive until the wave completes, so the pool really is shared --
        and really is returned -- the way the serving registry shares
        it.  Results are deterministic in ``(base_seed, point index,
        trial index)`` regardless of wave boundaries.

        Passing a :class:`~repro.fleet.fleet.Fleet` fans the grid out
        across its shard workers instead (each rebuilds the campaign
        from :meth:`spec` and runs its dealt trials); because trial
        metrics depend only on the seed tree and the spec, the result
        rows are identical to the in-process run.
        """
        points = list(points)
        if n_trials < 1:
            raise ValueError("n_trials must be positive")
        schedule = [(i, point, t) for i, point in enumerate(points)
                    for t in range(n_trials)]
        result = CampaignResult()
        if fleet is not None:
            for index, point, trial, metrics in fleet.run_campaign(
                    self.spec(), schedule):
                result.trials.append(TrialResult(
                    point=point, point_index=index, trial=trial,
                    metrics=metrics))
        else:
            wave = self.wave_size()
            for lo in range(0, len(schedule), wave):
                wave_devices: List[Device] = []
                try:
                    for index, point, trial in schedule[lo:lo + wave]:
                        result.trials.append(self._run_point_trial(
                            index, point, trial, wave_devices))
                finally:
                    for device in wave_devices:
                        device.close()
        for index, point in enumerate(points):
            result.rows.append(self._summarize(
                point, [t for t in result.trials
                        if t.point_index == index]))
        if self.z is not None:
            result.notes.append(
                f"{len(points)} grid points x {n_trials} seeded trials; "
                f"{self.xs.shape[0]} queries/trial against a "
                f"{self.z.shape[0]}x{self.z.shape[1]} resident Z "
                f"({self.backend} backend, fused fault replay)")
            if fleet is not None:
                result.notes.append(
                    f"trials fanned out over {fleet.n_shards}-shard "
                    f"fleet (per-trial seeding; rows bit-identical to "
                    f"the in-process run)")
        return result

    def _summarize(self, point: FaultPoint,
                   trials: List[TrialResult]) -> dict:
        row = {"point": point.name, "trials": len(trials)}
        keys: List[str] = []
        for t in trials:
            for k in t.metrics:
                if k not in keys:
                    keys.append(k)
        totals = {k: [t.metrics[k] for t in trials if k in t.metrics]
                  for k in keys}
        if self.trial_fn is not None:
            for k in keys:
                row[k] = float(np.mean(totals[k]))
            return row
        # Engine-trial summary: totals for event counts, derived rates.
        for k in ("injected", "detected", "corrected", "retries",
                  "retry_exhausted", "failed_lanes", "silent_lanes"):
            row[k] = int(np.sum(totals.get(k, [0])))
        outputs = int(np.sum(totals.get("n_outputs", [0])))
        row["silent_rate"] = (row["silent_lanes"] / outputs
                              if outputs else 0.0)
        row["exact_trials"] = int(np.sum(totals.get("exact", [0])))
        # Trials with truly *silent* corruption (loud retry-exhausted
        # failures make a trial inexact but not silent).
        row["silent_trials"] = sum(
            1 for t in trials if t.metrics.get("silent_lanes", 0) > 0)
        row["mean_ops"] = float(np.mean(totals.get("measured_ops", [0])))
        for k in Counters._fields:
            row[k] = int(np.sum(totals.get(k, [0])))
        return row
