"""Workload definitions and the seed-determined operation sequence.

A run's operations are a prefix of a seed-determined stream of rounds; one
round runs every variant of the workload once, in an order shuffled by the
seed.  The operation count comes from ``--seconds`` and the workload's
nominal operation time, never from how fast the host turns out to be, so a
slow run cannot change the mix.

Every run of a workload reads the same generated matrices; the seed decides
their order, which matrix each variant reads, the input mode and whether
the report goes to a file.  A seed-chosen subset of matrices would add
input-to-input cost differences to the run-to-run spread, which should
show host and program only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("table", "csv", "json")


@dataclass(frozen=True)
class Variant:
    """One kind of operation: its reference key, CLI arguments and format."""

    key: str
    args: tuple[str, ...] = ()
    fmt: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str | None  # None: the eight-journal price matrix
    n: int
    smoke_n: int
    matrices: int  # every run reads matrix ids 0..matrices-1
    variants: tuple[Variant, ...]
    warmup: Variant  # the untimed first operation that ends set-up, on matrix 0
    input_modes: tuple[str, ...] = ("file",)
    output_file_share: float = 0.0
    nominal_op_s: float = 1.0  # sizing on a 2-vCPU host; sets the op count

    @property
    def is_library(self) -> bool:
        return self.variants == (LIBRARY_OP,)


@dataclass(frozen=True)
class Op:
    variant: Variant
    matrix: int | None
    input_mode: str
    to_file: bool


def _grid(subcommands) -> tuple[Variant, ...]:
    return tuple(
        Variant(f"{key}.{fmt}", args, fmt)
        for key, args in subcommands
        for fmt in FORMATS
    )


LIBRARY_OP = Variant("library")

PAPER = Workload(
    name="paper",
    generator=None,
    n=8,
    smoke_n=8,
    matrices=1,
    variants=_grid(
        [
            ("iw", ("iw",)),
            ("pwr", ("pwr",)),
            ("normalize", ("normalize",)),
            ("power-k3", ("power", "-k", "3")),
            ("diagnose", ("diagnose",)),
            ("sensitivity", ("sensitivity",)),
            ("fit", ("fit",)),
            ("reproduce-paper", ("reproduce-paper",)),
        ]
    ),
    warmup=Variant("reproduce-paper.table", ("reproduce-paper",), "table"),
    input_modes=("fixture", "file", "stdin"),
    nominal_op_s=0.213,
)

VECTOR = Workload(
    name="vector",
    generator="fields",
    n=1024,
    smoke_n=96,
    matrices=4,
    variants=_grid(
        [
            ("iw", ("iw",)),
            ("sensitivity", ("sensitivity",)),
            ("fit", ("fit",)),
            ("pwr", ("pwr",)),
            ("diagnose", ("diagnose",)),
        ]
    ),
    warmup=Variant("iw.table", ("iw",), "table"),
    nominal_op_s=0.64,
)

GRID = Workload(
    name="grid",
    generator="uniform",
    n=256,
    smoke_n=16,
    matrices=4,
    variants=_grid([("normalize", ("normalize",)), ("power-k3", ("power", "-k", "3"))]),
    warmup=Variant("normalize.csv", ("normalize",), "csv"),
    output_file_share=0.5,
    nominal_op_s=0.40,
)

# n=1024, not 512: at 512 an operation takes ~25 ms, a run holds ~780 of
# them, and the tail (p98.7) depends on whether a slow spell of the host
# lasting a second or two falls in the run.  ~270 operations of ~75 ms put
# the tail at p96, where it repeats.
LIBRARY = Workload(
    name="library",
    generator="fields",
    n=1024,
    smoke_n=96,
    matrices=8,
    variants=(LIBRARY_OP,),
    warmup=LIBRARY_OP,
    input_modes=("library",),
    nominal_op_s=0.075,
)

WORKLOADS = {w.name: w for w in (PAPER, VECTOR, GRID, LIBRARY)}

SMOKE_MATRICES = 2


def size(workload: Workload, smoke: bool) -> int:
    return workload.smoke_n if smoke else workload.n


def matrix_ids(workload: Workload, smoke: bool) -> list[int | None]:
    """The matrices every run of the workload reads; None is the price matrix."""
    if workload.generator is None:
        return [None]
    count = min(workload.matrices, SMOKE_MATRICES) if smoke else workload.matrices
    return list(range(count))


def reference_key(workload: Workload, smoke: bool, matrix: int | None, key: str) -> str:
    if matrix is None:
        return f"{workload.name}/price/{key}"
    return f"{workload.name}/n{size(workload, smoke)}/m{matrix}/{key}"


def plan(workload: Workload, seed: int, seconds: float, smoke: bool, count_share=1.0):
    """Return (matrix ids, warm-up op, timed ops) for one run.

    ``count_share`` scales the operation count, for the traced run that
    runs each operation twice.
    """
    rng = random.Random(seed)
    ids = matrix_ids(workload, smoke)
    round_len = len(ids) if workload.is_library else len(workload.variants)
    if smoke:
        count = round_len
    else:
        count = max(1, round(count_share * seconds / workload.nominal_op_s))
    order = list(ids)
    rng.shuffle(order)
    ops = []
    for r in range(-(-count // round_len)):
        if workload.is_library:
            rng.shuffle(order)
            ops.extend(Op(LIBRARY_OP, m, "library", False) for m in order)
            continue
        variants = list(workload.variants)
        rng.shuffle(variants)
        for p, variant in enumerate(variants):
            mode = rng.choice(workload.input_modes)
            to_file = rng.random() < workload.output_file_share
            ops.append(Op(variant, order[(p + r) % len(order)], mode, to_file))
    del ops[count:]
    warmup = Op(workload.warmup, ids[0], workload.input_modes[0], False)
    return ids, warmup, ops
