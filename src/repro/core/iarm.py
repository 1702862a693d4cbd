"""Carry-rippling schedulers, including IARM (paper Sec. 4.5.2).

Three schedulers turn a stream of input values into digit-level events:

* :class:`UnitScheduler` -- unary counting with digit-wise carry rippling
  (Sec. 4.4): an input is ``D + sum(digits)`` unit increments.
* :class:`NaiveKaryScheduler` -- one k-ary increment per non-zero digit,
  followed by a full carry-ripple pass (the "k-ary only" curve of
  Fig. 8b).
* :class:`IARMScheduler` -- Input-Aware Rippling Minimization: a host-side
  *virtual counter* bounds the worst-case state of every in-memory lane
  and defers carry resolution until a further increment could wrap a
  digit whose ``O_next`` flag is already set (effective digit range
  ``4n - 1``).

Events are consumed both by the golden :class:`~repro.core.counter.
CounterArray` (property tests) and by the gate-level engine.  IARM is
mask-oblivious: it presumes every broadcast increment may land on some
lane, so the schedule is safe for *any* mask pattern -- the golden model
enforces this by raising on double-wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

from repro.core.counter import CounterArray
from repro.core.kary import value_steps
from repro.util import check_positive

__all__ = ["Increment", "CarryResolve", "Event", "apply_events",
           "BaseScheduler", "UnitScheduler", "NaiveKaryScheduler",
           "IARMScheduler", "schedule_stream"]


@dataclass(frozen=True)
class Increment:
    """Masked k-ary step of one digit (mask = the operand's Z row)."""

    digit: int
    k: int


@dataclass(frozen=True)
class CarryResolve:
    """Unit step of digit ``digit + 1`` masked by digit's O_next row.

    ``direction`` is +1 for overflow ripple, -1 for underflow ripple.
    """

    digit: int
    direction: int = 1


Event = Union[Increment, CarryResolve]


def apply_events(counter: CounterArray, events: Sequence[Event],
                 mask=None) -> None:
    """Replay a schedule against the golden counter model.

    ``mask`` applies to :class:`Increment` events only; carry resolution
    is self-masked by each lane's pending flag, as in hardware.
    """
    for ev in events:
        if isinstance(ev, Increment):
            counter.increment_digit(ev.digit, ev.k, mask=mask)
        elif isinstance(ev, CarryResolve):
            counter.resolve_digit(ev.digit)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown event {ev!r}")


class BaseScheduler:
    """Common machinery: digit geometry and event accounting."""

    def __init__(self, n_bits: int, n_digits: int):
        self.n_bits = check_positive(n_bits, "n_bits")
        self.n_digits = check_positive(n_digits, "n_digits")
        self.radix = 2 * self.n_bits

    def schedule_value(self, value: int) -> List[Event]:
        raise NotImplementedError

    def flush(self) -> List[Event]:
        """Events needed to make all lanes carry-free (default: none)."""
        return []

    def reset(self) -> None:
        """Forget all stream state (counters were externally zeroed).

        Stateless schedulers have nothing to forget; stateful ones
        (IARM's virtual-counter bounds) override this.  The engine calls
        it from :meth:`~repro.engine.machine.CountingEngine.
        reset_counters` so a fresh accumulation epoch starts from the
        tight all-zero bound instead of the post-flush conservative one.
        """


class _Stateless:
    """Snapshot protocol of a scheduler whose events depend on the
    input value alone.

    ``state()`` returns a hashable snapshot of everything the next
    events depend on, except the scheduler's class and digit geometry
    ``(n_bits, n_digits)``, and ``restore(state)`` reinstates one, so a
    schedule is a pure function of ``(class, geometry, state,
    values)``.  The device's program store memoizes whole wave
    sequences under that key (see :meth:`~repro.engine.machine.
    CountingEngine.run_waves`), shared by every engine of a layout; a
    scheduler without the protocol is simply never memoized.
    """

    def state(self) -> tuple:
        return ()

    def restore(self, state: tuple) -> None:
        """Nothing to reinstate."""


class UnitScheduler(_Stateless, BaseScheduler):
    """Unary counting with digit-wise carry rippling (paper Sec. 4.4).

    Every input costs ``D + sum(d_i)`` unit increments: ``d_i`` unit steps
    per digit plus one ascending rippling pass over all digit positions.
    The single pass is sufficient: a digit receives at most ``radix - 1``
    unit steps per input (one wrap), and the incoming ripple carry can
    only wrap a digit whose own wrap already happened -- in which case its
    value is at most ``radix - 2``, so the carry cannot wrap it again.
    """

    def schedule_value(self, value: int) -> List[Event]:
        if value < 0:
            raise ValueError("unit scheduler models non-negative streams")
        if value == 0:
            return []
        events: List[Event] = []
        for step in value_steps(value, self.radix, self.n_digits):
            for _ in range(abs(step.k)):
                events.append(Increment(step.digit, 1 if step.k > 0 else -1))
        for d in range(self.n_digits - 1):
            events.append(CarryResolve(d, 1))
        return events


class NaiveKaryScheduler(_Stateless, BaseScheduler):
    """k-ary increments with full carry propagation per input (Fig. 8b).

    Each non-zero input digit triggers one k-ary increment; afterwards a
    full ascending ripple pass over the digit positions resolves pending
    carries, so the cost grows with counter capacity -- this is the
    "k-ary only" configuration whose curves separate by integer width in
    Fig. 8b.  The single pass is safe for the same reason as in
    :class:`UnitScheduler`: each digit wraps at most once per input.
    """

    def schedule_value(self, value: int) -> List[Event]:
        if value == 0:
            return []
        events: List[Event] = []
        direction = 1 if value > 0 else -1
        for step in value_steps(value, self.radix, self.n_digits):
            events.append(Increment(step.digit, step.k))
        for d in range(self.n_digits - 1):
            events.append(CarryResolve(d, direction))
        return events


class IARMScheduler(BaseScheduler):
    """Input-Aware Rippling Minimization (paper Sec. 4.5.2).

    Tracks, per digit, a sound upper bound ``ub[d]`` (and lower bound
    ``lb[d]`` for decrement runs) on the *effective* digit quantity
    ``value + radix * pending`` of any lane.  A digit may legally hold
    a quantity in ``[0, 2*radix - 1]`` (pending flag = one extra wrap);
    an increment of ``k`` is only broadcast once ``ub[d] + k`` fits, and
    a :class:`CarryResolve` is emitted just in time otherwise.

    Sign switches flush outstanding flags first (Sec. 4.4: "Outstanding
    overflows or underflows must be resolved before switching from
    increment to decrement and vice versa").
    """

    def __init__(self, n_bits: int, n_digits: int,
                 initial_max: int = 0):
        super().__init__(n_bits, n_digits)
        if not 0 <= initial_max < self.radix ** self.n_digits:
            raise ValueError("initial_max out of counter range")
        self._initial_max = initial_max
        self.reset()

    def reset(self) -> None:
        """Restart the virtual counter at the initial (zeroed) state."""
        # Upper/lower bound of value + radix*pending per digit.  For any
        # pre-loaded lane value v <= initial_max, digit d of v is at most
        # min(radix - 1, initial_max // radix**d), which keeps the bound
        # sound without knowing individual lane contents.
        self.ub = [min(self.radix - 1, self._initial_max // self.radix ** d)
                   for d in range(self.n_digits)]
        self.lb = [0] * self.n_digits
        self._direction = 0  # sign of the current run; 0 = fresh

    def state(self) -> tuple:
        """Hashable snapshot of the virtual counter (bounds + sign)."""
        return tuple(self.ub), tuple(self.lb), self._direction

    def restore(self, state: tuple) -> None:
        """Reinstate a :meth:`state` snapshot exactly."""
        ub, lb, self._direction = state
        self.ub, self.lb = list(ub), list(lb)

    # -- internal helpers ------------------------------------------------
    def _bump_ub(self, digit: int, amount: int) -> None:
        """Raise ``ub[digit]`` by ``amount``, capping at the MSD.

        The most significant digit has no O_next row: counters are sized
        so it never wraps (paper footnote 4), which the golden model
        enforces with :class:`~repro.core.counter.CapacityError`.  Its
        quantity therefore stays within ``[0, radix - 1]``.
        """
        if digit == self.n_digits - 1:
            self.ub[digit] = min(self.ub[digit] + amount, self.radix - 1)
        else:
            self.ub[digit] += amount

    def _drop_lb(self, digit: int, amount: int) -> None:
        """Lower ``lb[digit]`` by ``amount``, flooring at the MSD."""
        if digit == self.n_digits - 1:
            self.lb[digit] = max(self.lb[digit] - amount, 0)
        else:
            self.lb[digit] -= amount

    def _resolve_up(self, digit: int, events: List[Event]) -> None:
        """Emit an overflow resolution for ``digit`` (ensuring headroom)."""
        if digit >= self.n_digits - 1:
            raise OverflowError("counter capacity exceeded during IARM")
        if (digit + 1 < self.n_digits - 1
                and self.ub[digit + 1] + 1 > 2 * self.radix - 1):
            self._resolve_up(digit + 1, events)
        events.append(CarryResolve(digit, 1))
        # Flagged lanes gain +1 one digit up and lose one wrap here;
        # unflagged lanes are untouched (their quantity is < radix).
        self._bump_ub(digit + 1, 1)
        self.ub[digit] = max(self.ub[digit] - self.radix, self.radix - 1)

    def _resolve_down(self, digit: int, events: List[Event]) -> None:
        """Emit an underflow resolution for ``digit``."""
        if digit >= self.n_digits - 1:
            raise OverflowError("counter went negative during IARM")
        if (digit + 1 < self.n_digits - 1
                and self.lb[digit + 1] - 1 < -self.radix):
            self._resolve_down(digit + 1, events)
        events.append(CarryResolve(digit, -1))
        # Flagged lanes lose 1 one digit up and regain a wrap here --
        # their quantity RISES by radix (a value of 3 with pending -1 is
        # quantity -1; clearing the flag leaves the raw 3), so the upper
        # bound must widen to radix - 1 as well.  Unflagged lanes
        # (quantity >= 0) are untouched.
        self._drop_lb(digit + 1, 1)
        self.lb[digit] = min(self.lb[digit] + self.radix, 0)
        self.ub[digit] = max(self.ub[digit], self.radix - 1)

    # -- public API -------------------------------------------------------
    def schedule_value(self, value: int) -> List[Event]:
        """Schedule one input value; returns the event list to broadcast."""
        if value == 0:
            return []
        events: List[Event] = []
        direction = 1 if value > 0 else -1
        if self._direction and direction != self._direction:
            events.extend(self.flush())
        self._direction = direction

        last = self.n_digits - 1
        for step in value_steps(value, self.radix, self.n_digits):
            d, k = step.digit, step.k
            if k > 0:
                while d < last and self.ub[d] + k > 2 * self.radix - 1:
                    self._resolve_up(d, events)
                events.append(Increment(d, k))
                self._bump_ub(d, k)
            else:
                while d < last and self.lb[d] + k < -self.radix:
                    self._resolve_down(d, events)
                events.append(Increment(d, k))
                self._drop_lb(d, -k)
        return events

    def flush(self) -> List[Event]:
        """Resolve every possibly-outstanding flag (read-out barrier)."""
        events: List[Event] = []
        for _ in range(self.n_digits + 1):
            dirty = [d for d in range(self.n_digits - 1)
                     if self.ub[d] > self.radix - 1 or self.lb[d] < 0]
            if not dirty:
                break
            for d in reversed(dirty):
                if self.ub[d] > self.radix - 1:
                    self._resolve_up(d, events)
                if self.lb[d] < 0:
                    self._resolve_down(d, events)
        self._direction = 0
        return events


def schedule_stream(scheduler: BaseScheduler, values: Sequence[int],
                    flush: bool = True) -> List[List[Event]]:
    """Schedule a whole input stream; returns one event list per value.

    When ``flush`` is set a final flush batch is appended so counters can
    be read out exactly.
    """
    batches = [scheduler.schedule_value(int(v)) for v in values]
    if flush:
        batches.append(scheduler.flush())
    return batches
