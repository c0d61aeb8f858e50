"""Command-line front end.

Problems are described by a JSON spec file,

    {"k": 2, "n": 4, "lambda": [1], "mu": "box", "seed": 17,
     "options": {"strategy": "short", "max_loops": 50}}

where a partition is a list of weakly decreasing non-negative integers,
"box" (or the glyph of a small square) abbreviating the single-box
condition.  Missing partitions default to empty, missing seed to 0.
Flags override the spec file.  Artifacts land next to each other in
--out, named after the spec file stem, and all JSON carries "schema": 1;
nothing time-dependent is written, so reruns are byte-identical.

Exit codes: 0 success, 2 bad input, 3 numerical failure, 4 the Galois
accumulation ended Inconclusive.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .monodromy import (
    STRATEGIES,
    MatchAmbiguityError,
    NotBijectiveError,
    accumulate,
    loop_stream,
    make_loop,
    monodromy_permutation,
)
from .pieri import (
    CountMismatchError,
    MasterSet,
    MasterVerificationError,
    solve_master,
)
from .schubert import (
    ProblemInstance,
    SimpleSchubertProblem,
    count_solutions,
    random_instance,
)
from .tracker import PathCollisionError, TrackOptions

SCHEMA = 1
TRACE_MAX_PATHS = 100
_BOX_WORDS = ("box", "□")  # the glyph used in print for a single box
_TRACK_FIELDS = {f.name for f in dataclasses.fields(TrackOptions)}
_INT_TRACK_FIELDS = {"max_newton_iters", "expand_after"}


class SpecError(ValueError):
    """Anything wrong with the user-supplied problem description."""


@dataclasses.dataclass
class RunSpec:
    """A parsed spec file with flag overrides already applied."""

    problem: SimpleSchubertProblem
    seed: int
    strategy: str
    max_loops: int
    track: TrackOptions
    stem: str


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass in Python, but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _parse_partition(value, name: str) -> tuple[int, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        if value.strip() in _BOX_WORDS:
            return (1,)
        raise SpecError(f'{name} must be a list of integers or "box"')
    if isinstance(value, list) and all(_is_int(p) for p in value):
        return tuple(value)
    raise SpecError(f'{name} must be a list of integers or "box"')


def load_spec(path: str, args: argparse.Namespace) -> RunSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise SpecError(f"cannot read spec file: {e}")
    except json.JSONDecodeError as e:
        raise SpecError(f"spec file is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise SpecError("spec file must hold a JSON object")
    for key in ("k", "n"):
        if not _is_int(raw.get(key)):
            raise SpecError(f'spec needs an integer "{key}"')
    try:
        problem = SimpleSchubertProblem(
            raw["k"],
            raw["n"],
            _parse_partition(raw.get("lambda"), "lambda"),
            _parse_partition(raw.get("mu"), "mu"),
        )
    except ValueError as e:
        raise SpecError(str(e))

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise SpecError('"options" must be an object')
    kwargs = {}
    for key, val in options.items():
        if key in ("strategy", "max_loops"):
            continue
        if key not in _TRACK_FIELDS:
            raise SpecError(f"unknown option {key!r}")
        if key in _INT_TRACK_FIELDS and not _is_int(val):
            raise SpecError(f"option {key!r} must be an integer")
        if not (_is_number(val) and abs(val) <= sys.float_info.max):
            raise SpecError(f"option {key!r} must be a finite number")
        kwargs[key] = val if key in _INT_TRACK_FIELDS else float(val)
    if getattr(args, "tol", None) is not None:
        kwargs["newton_tol"] = args.tol
    try:
        track = TrackOptions(**kwargs)
    except ValueError as e:
        raise SpecError(str(e))

    seed = args.seed if getattr(args, "seed", None) is not None else raw.get("seed", 0)
    if not _is_int(seed):
        raise SpecError('"seed" must be an integer')
    strategy = getattr(args, "strategy", None) or options.get("strategy", "short")
    if strategy not in STRATEGIES:
        raise SpecError(f"strategy must be one of {', '.join(STRATEGIES)}")
    max_loops = (
        args.max_loops
        if getattr(args, "max_loops", None) is not None
        else options.get("max_loops", 50)
    )
    if not _is_int(max_loops) or max_loops < 1:
        raise SpecError('"max_loops" must be a positive integer')
    return RunSpec(problem, seed, strategy, max_loops, track, Path(path).stem)


def _parse_complex(v) -> complex:
    if _is_number(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(_is_number(c) for c in v):
        return complex(v[0], v[1])
    raise SpecError(f"bad complex entry {v!r}: use a number or [re, im]")


def load_planes(path: str, problem: SimpleSchubertProblem) -> tuple[np.ndarray, ...]:
    """Read a planes override file: a list of m q-by-n complex matrices."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise SpecError(f"cannot read planes file: {e}")
    except json.JSONDecodeError as e:
        raise SpecError(f"planes file is not valid JSON: {e}")
    if isinstance(raw, dict):
        raw = raw.get("planes")
    if not isinstance(raw, list):
        raise SpecError('planes file must hold a list or {"planes": [...]}')
    if len(raw) != problem.num_moving:
        raise SpecError(
            f"planes file has {len(raw)} planes, problem needs {problem.num_moving}"
        )
    planes = []
    for mat in raw:
        planes.append(
            np.array([[_parse_complex(v) for v in row] for row in mat], dtype=complex)
        )
    return tuple(planes)


def make_instance(spec: RunSpec, planes_path: str | None) -> ProblemInstance:
    try:
        if planes_path is None:
            return random_instance(spec.problem, spec.seed)
        planes = load_planes(planes_path, spec.problem)
        return ProblemInstance(spec.problem, planes, spec.seed)
    except SpecError:
        raise
    except ValueError as e:
        raise SpecError(str(e))


def _cjson(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _problem_json(problem: SimpleSchubertProblem) -> dict:
    return {
        "k": problem.k,
        "n": problem.n,
        "lambda": list(problem.lam),
        "mu": list(problem.mu),
    }


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def master_to_json(master: MasterSet) -> dict:
    inst = master.instance
    return {
        "schema": SCHEMA,
        "problem": _problem_json(inst.problem),
        "seed": inst.seed,
        "planes": [[[_cjson(z) for z in row] for row in g] for g in inst.planes],
        "solutions": [[_cjson(z) for z in s] for s in master.solutions],
        "residual_max": master.residual_max,
    }


def load_master(path) -> MasterSet:
    """Rebuild a MasterSet from a master JSON file."""
    raw = json.loads(Path(path).read_text())
    p = raw["problem"]
    problem = SimpleSchubertProblem(p["k"], p["n"], tuple(p["lambda"]), tuple(p["mu"]))
    planes = tuple(
        np.array([[complex(re, im) for re, im in row] for row in g]) for g in raw["planes"]
    )
    instance = ProblemInstance(problem, planes, raw["seed"])
    solutions = [
        np.array([complex(re, im) for re, im in s]) for s in raw["solutions"]
    ]
    return MasterSet(instance, solutions, raw["residual_max"])


def _write_trace(path: Path, traces) -> None:
    lines = ["path_id,leg,t,var_index,re,im"]
    for pid, legs in enumerate(traces):
        for leg_idx, steps in legs:
            for t, x in steps:
                for v, z in enumerate(x):
                    lines.append(
                        f"{pid},{leg_idx},{float(t)!r},{v}"
                        f",{float(z.real)!r},{float(z.imag)!r}"
                    )
    path.write_text("\n".join(lines) + "\n")


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_count(args) -> int:
    spec = load_spec(args.spec, args)
    print(count_solutions(spec.problem))
    return 0


def cmd_solve(args) -> int:
    spec = load_spec(args.spec, args)
    instance = make_instance(spec, args.planes)
    master = solve_master(instance, spec.track)
    out = _out_dir(args) / f"{spec.stem}_master.json"
    _write_json(out, master_to_json(master))
    print(f"{len(master.solutions)} solutions, max residual {master.residual_max:.3e}")
    print(f"wrote {out}")
    return 0


def cmd_galois(args) -> int:
    spec = load_spec(args.spec, args)
    if args.emit_trace:
        d = count_solutions(spec.problem)
        if d > TRACE_MAX_PATHS:
            raise SpecError(f"tracing is limited to {TRACE_MAX_PATHS} paths, d = {d}")
    instance = make_instance(spec, args.planes)
    master = solve_master(instance, spec.track)
    d = len(master.solutions)
    result = accumulate(
        master,
        strategy=spec.strategy,
        max_loops=spec.max_loops,
        opts=spec.track,
        record_first_trace=args.emit_trace,
    )
    out = _out_dir(args)
    _write_json(out / f"{spec.stem}_master.json", master_to_json(master))
    _write_json(
        out / f"{spec.stem}_permutations.json",
        {
            "schema": SCHEMA,
            "d": d,
            "strategy": spec.strategy,
            "permutations": [[int(i) for i in p] for p in result.permutations],
        },
    )
    _write_json(
        out / f"{spec.stem}_verdict.json",
        {
            "schema": SCHEMA,
            "status": result.status,
            "num_solutions": d,
            "num_permutations": len(result.permutations),
            "strategy": spec.strategy,
            "max_loops": spec.max_loops,
            "seed": spec.seed,
            "group": result.group.to_json(),
        },
    )
    if result.first_trace is not None:
        _write_trace(out / f"{spec.stem}_trace.csv", result.first_trace)
    print(f"{result.status}: d={d}, permutations={len(result.permutations)}")
    return 0 if result.full_symmetric else 4


def cmd_trace(args) -> int:
    spec = load_spec(args.spec, args)
    d = count_solutions(spec.problem)
    if d > TRACE_MAX_PATHS:
        raise SpecError(f"tracing is limited to {TRACE_MAX_PATHS} paths, d = {d}")
    instance = make_instance(spec, args.planes)
    master = solve_master(instance, spec.track)
    gen = loop_stream(spec.seed)
    loop = make_loop(instance, spec.strategy, gen)
    perm, traces = monodromy_permutation(
        master, loop, spec.track, gen, record_trace=True
    )
    out = _out_dir(args) / f"{spec.stem}_trace.csv"
    _write_trace(out, traces)
    print(f"permutation {[int(i) for i in perm]}")
    print(f"wrote {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert-galois",
        description="Solve simple Schubert problems and certify their Galois groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, planes=True):
        p.add_argument("spec", help="problem spec JSON file")
        p.add_argument("--seed", type=int, help="override the spec seed")
        p.add_argument("--tol", type=float, help="Newton convergence tolerance")
        if planes:
            p.add_argument("--planes", help="JSON file pinning the general planes")
            p.add_argument("--out", help="output directory (default: current)")

    p = sub.add_parser("count", help="print the number of solutions")
    common(p, planes=False)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("solve", help="compute the master set of solutions")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("galois", help="accumulate monodromy and certify the group")
    common(p)
    p.add_argument("--strategy", choices=STRATEGIES, help="loop shape")
    p.add_argument("--max-loops", type=int, help="give up after this many loops")
    p.add_argument("--emit-trace", action="store_true",
                   help="also write the first loop's paths as CSV")
    p.set_defaults(func=cmd_galois)

    p = sub.add_parser("trace", help="export one loop's paths as CSV")
    common(p)
    p.add_argument("--strategy", choices=STRATEGIES, help="loop shape")
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        CountMismatchError,
        MasterVerificationError,
        PathCollisionError,
        MatchAmbiguityError,
        NotBijectiveError,
    ) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (SpecError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
