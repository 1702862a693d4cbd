"""μProgram intermediate representation (paper Secs. 4.2, 5.1).

A μProgram is the sequence of ``AAP``/``AP`` command sequences the memory
controller broadcasts to execute one logical step (a k-ary increment, an
overflow check, a protected masking op).  Programs are built from
symbolic row addresses (the Ambit B/C-group names plus ``D<i>`` data
rows) and execute directly on :class:`repro.dram.ambit.AmbitSubarray`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, List, Tuple, Union

from repro.dram.ambit import AmbitSubarray

__all__ = ["MicroOp", "MicroProgram", "aap", "ap"]

Address = Union[str, int]


class MicroOp(tuple):
    """One DRAM command sequence: ``AAP src, dst`` or ``AP target``.

    An immutable ``(kind, src, dst)`` triple (``dst`` is ``None`` for an
    AP).  μOps are built by the thousand per fault trial, so they are
    plain tuples underneath: they construct, unpack and hash at tuple
    speed, and two μOps are equal, and hash alike, exactly when their
    fields are -- protected blocks key the program store by op tuples.

    >>> aap("B8", 0) == MicroOp("AAP", "B8", 0), ap("B12").render()
    (True, 'AP  B12')
    """

    __slots__ = ()

    def __new__(cls, kind: str, src: Address, dst: Address = None):
        if kind not in ("AAP", "AP"):
            raise ValueError(f"unknown μOp kind {kind!r}")
        if kind == "AAP" and dst is None:
            raise ValueError("AAP needs a destination address")
        return _new(cls, (kind, src, dst))

    kind = property(itemgetter(0), doc='``"AAP"`` or ``"AP"``.')
    src = property(itemgetter(1), doc="The activated (sensed) address.")
    dst = property(itemgetter(2), doc="The AAP's copy destination.")

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"MicroOp(kind={self[0]!r}, src={self[1]!r}, dst={self[2]!r})"

    def render(self) -> str:
        if self[0] == "AAP":
            return f"AAP {self[1]}, {self[2]}"
        return f"AP  {self[1]}"


_new = tuple.__new__


def aap(src: Address, dst: Address) -> MicroOp:
    """Shorthand constructor for an activate-activate-precharge op."""
    if dst is None:
        raise ValueError("AAP needs a destination address")
    return _new(MicroOp, ("AAP", src, dst))


def ap(target: Address) -> MicroOp:
    """Shorthand constructor for an activate-precharge op."""
    return _new(MicroOp, ("AP", target, None))


@dataclass
class MicroProgram:
    """A named, executable sequence of μOps.

    ``checkpoints`` marks op indices after which the ECC engine performs a
    syndrome check in protected mode (the FR rows of Sec. 6.1); plain
    programs leave it empty.
    """

    name: str
    ops: Tuple[MicroOp, ...] = ()
    checkpoints: Tuple[int, ...] = ()

    def __post_init__(self):
        self.ops = tuple(self.ops)
        self.checkpoints = tuple(self.checkpoints)

    def __len__(self) -> int:
        return len(self.ops)

    def __add__(self, other: "MicroProgram") -> "MicroProgram":
        shifted = tuple(c + len(self.ops) for c in other.checkpoints)
        return MicroProgram(f"{self.name}+{other.name}",
                            self.ops + other.ops,
                            self.checkpoints + shifted)

    @property
    def aap_count(self) -> int:
        return sum(1 for op in self.ops if op.kind == "AAP")

    @property
    def ap_count(self) -> int:
        return sum(1 for op in self.ops if op.kind == "AP")

    def run(self, subarray: AmbitSubarray) -> None:
        """Execute every op in order against a subarray."""
        for op in self.ops:
            if op.kind == "AAP":
                subarray.aap(op.src, op.dst)
            else:
                subarray.ap(op.src)

    def listing(self) -> str:
        """Human-readable listing in the style of paper Fig. 6b."""
        lines = [f"// {self.name}"]
        lines += [f"{i:3d}: {op.render()}" for i, op in enumerate(self.ops)]
        return "\n".join(lines)


def concat(name: str, programs: Iterable[MicroProgram]) -> MicroProgram:
    """Concatenate programs, re-based checkpoints included."""
    ops: List[MicroOp] = []
    checkpoints: List[int] = []
    for prog in programs:
        base = len(ops)
        ops.extend(prog.ops)
        checkpoints.extend(base + c for c in prog.checkpoints)
    return MicroProgram(name, tuple(ops), tuple(checkpoints))
