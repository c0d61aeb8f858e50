"""Frozen reference copy of schubert_galois (without its cli), taken when
the benchmark was defined.  The benchmark times the program against it
on the same inputs, so it must never change; see perfbench/README.md.

Simple Schubert problems on Grassmannians: counting, solving by the
Pieri homotopy, and Galois groups by monodromy."""

from .groups import GroupVerdict, is_full_symmetric
from .monodromy import GaloisResult, Loop, accumulate, make_loop, monodromy_permutation
from .pieri import MasterSet, solve_master, verify_master
from .rng import Lcg64
from .schubert import (
    ProblemInstance,
    SimpleSchubertProblem,
    chart,
    count_solutions,
    random_instance,
)
from .tracker import LinearHomotopy, TrackOptions, track_all, track_path

__version__ = "0.1.0"

__all__ = [
    "GaloisResult",
    "GroupVerdict",
    "Lcg64",
    "LinearHomotopy",
    "Loop",
    "MasterSet",
    "ProblemInstance",
    "SimpleSchubertProblem",
    "TrackOptions",
    "accumulate",
    "chart",
    "count_solutions",
    "is_full_symmetric",
    "make_loop",
    "monodromy_permutation",
    "random_instance",
    "solve_master",
    "track_all",
    "track_path",
    "verify_master",
    "__version__",
]
