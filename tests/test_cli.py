"""The command-line front end: spec parsing, artifacts, exit codes.

Everything runs in-process through main(), with spec files written to
tmp_path; reruns are checked byte for byte since nothing written may
depend on anything but the spec and the seed.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from schubert_galois import cli
from schubert_galois.pieri import verify_master


def write_spec(tmp_path, name="problem.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return path


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().out


class TestCount:
    @pytest.mark.parametrize(
        "fields,expected",
        [
            ({"k": 2, "n": 10, "lambda": "box", "mu": "box"}, 1430),
            ({"k": 4, "n": 8, "lambda": [2, 1], "mu": "box"}, 8580),
            ({"k": 3, "n": 9, "lambda": [2, 1], "mu": [2]}, 17589),
            ({"k": 2, "n": 4}, 2),
        ],
    )
    def test_counts(self, tmp_path, capsys, fields, expected):
        spec = write_spec(tmp_path, **fields)
        code, out = run(["count", spec], capsys)
        assert code == 0
        assert int(out.strip()) == expected

    def test_box_glyph_equals_box_word(self, tmp_path, capsys):
        a = write_spec(tmp_path, "a.json", k=2, n=6, mu="box")
        b = write_spec(tmp_path, "b.json", k=2, n=6, mu="□")
        _, out_a = run(["count", a], capsys)
        _, out_b = run(["count", b], capsys)
        assert out_a == out_b


class TestBadInput:
    def test_missing_spec_file(self, tmp_path, capsys):
        code, _ = run(["count", tmp_path / "nope.json"], capsys)
        assert code == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(["count", path], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "fields",
        [
            {"n": 4},  # k missing
            {"k": 2, "n": 4, "lambda": [1, 2]},  # increasing partition
            {"k": 2, "n": 4, "lambda": "triangle"},
            {"k": 2, "n": 4, "lambda": [2, 2], "mu": [1]},  # overfull
            {"k": 0, "n": 4},
            {"k": 2, "n": 4, "seed": "zero"},
            {"k": 2, "n": 4, "options": {"warp": 9}},
            {"k": 2, "n": 4, "options": {"strategy": "diagonal"}},
            {"k": 2, "n": 4, "options": {"max_loops": 0}},
            {"k": 2, "n": 4, "options": ["strategy"]},
            # option values of the wrong JSON type
            {"k": 2, "n": 4, "options": {"newton_tol": None}},
            {"k": 2, "n": 4, "options": {"max_newton_iters": [3]}},
            {"k": 2, "n": 4, "options": {"max_newton_iters": 2.9}},
            {"k": 2, "n": 4, "options": {"newton_tol": 10**400}},
            {"k": 2, "n": 4, "options": {"max_loops": True}},
            {"k": 2, "n": 4, "seed": True},
            {"k": True, "n": 4},
            # values TrackOptions rejects
            {"k": 2, "n": 4, "options": {"residual_tol": -1}},
            {"k": 2, "n": 4, "options": {"endpoint_tol": -1}},
        ],
    )
    def test_bad_specs(self, tmp_path, capsys, fields):
        spec = write_spec(tmp_path, **fields)
        code, _ = run(["count", spec], capsys)
        assert code == 2

    def test_bad_tolerance_flag(self, tmp_path, capsys):
        spec = write_spec(tmp_path, k=2, n=4)
        for tol in ("-1.0", "inf", "nan"):
            code, _ = run(["count", spec, "--tol", tol], capsys)
            assert code == 2, tol

    def test_wrong_plane_count(self, tmp_path, capsys, pinned_planes_file):
        spec = write_spec(tmp_path, k=2, n=5)  # needs 6 planes, file has 2
        code, _ = run(
            ["solve", spec, "--planes", pinned_planes_file, "--out", tmp_path], capsys
        )
        assert code == 2

    def test_bad_complex_entry_in_planes(self, tmp_path, capsys):
        planes = tmp_path / "planes.json"
        planes.write_text(json.dumps([[["one", 0]] * 4] * 2 * 2))
        spec = write_spec(tmp_path, k=2, n=4, **{"lambda": "box", "mu": "box"})
        code, _ = run(["solve", spec, "--planes", planes, "--out", tmp_path], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "planes",
        [
            [1, 2],  # planes that are not matrices
            [[[1, 0, 0, 0], 5], [[0, 1, 0, 0], [0, 0, 1, 0]]],  # a row that is not a list
        ],
    )
    def test_malformed_planes(self, tmp_path, capsys, planes):
        path = tmp_path / "planes.json"
        path.write_text(json.dumps(planes))
        spec = write_spec(tmp_path, k=2, n=4, **{"lambda": "box", "mu": "box"})
        code, _ = run(["solve", spec, "--planes", path, "--out", tmp_path], capsys)
        assert code == 2

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "[0, -Infinity]"])
    def test_non_finite_plane_entry(self, tmp_path, capsys, pinned_planes_file, entry):
        # JSON as Python reads it takes NaN and Infinity literals
        text = pinned_planes_file.read_text().replace("[17, 15]", entry, 1)
        assert entry in text
        path = tmp_path / "planes.json"
        path.write_text(text)
        spec = write_spec(tmp_path, k=2, n=4, **{"lambda": "box", "mu": "box"})
        code = cli.main(["solve", str(spec), "--planes", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_unknown_flag_is_an_argparse_error(self, tmp_path):
        spec = write_spec(tmp_path, k=2, n=4)
        with pytest.raises(SystemExit):
            cli.main(["count", str(spec), "--frobnicate"])


class TestSolve:
    def test_pinned_solve_artifacts(self, tmp_path, capsys, pinned_planes_file):
        spec = write_spec(tmp_path, k=2, n=4, **{"lambda": "box", "mu": "box"})
        out = tmp_path / "out"
        code, text = run(
            ["solve", spec, "--planes", pinned_planes_file, "--out", out], capsys
        )
        assert code == 0
        assert "2 solutions" in text
        blob = json.loads((out / "problem_master.json").read_text())
        assert blob["schema"] == 1
        assert blob["problem"] == {"k": 2, "n": 4, "lambda": [1, 0], "mu": [1, 0]}
        assert len(blob["solutions"]) == 2
        assert blob["residual_max"] < 1e-8

    def test_master_reloads_and_verifies(self, tmp_path, capsys):
        spec = write_spec(tmp_path, k=2, n=5, seed=9)
        out = tmp_path / "out"
        code, _ = run(["solve", spec, "--out", out], capsys)
        assert code == 0
        master = cli.load_master(out / "problem_master.json")
        report = verify_master(master)
        assert report.ok, report.issues
        assert len(master.solutions) == 5

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        spec = write_spec(tmp_path, k=2, n=4, seed=13)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["solve", spec, "--out", out_a], capsys)
        run(["solve", spec, "--out", out_b], capsys)
        assert (out_a / "problem_master.json").read_bytes() == (
            out_b / "problem_master.json"
        ).read_bytes()

    def test_seed_flag_overrides_spec(self, tmp_path, capsys):
        spec_a = write_spec(tmp_path, "a.json", k=2, n=4, seed=3)
        spec_b = write_spec(tmp_path, "b.json", k=2, n=4, seed=11)
        out_a, out_b = tmp_path / "a_out", tmp_path / "b_out"
        run(["solve", spec_a, "--seed", "11", "--out", out_a], capsys)
        run(["solve", spec_b, "--out", out_b], capsys)
        blob_a = json.loads((out_a / "a_master.json").read_text())
        blob_b = json.loads((out_b / "b_master.json").read_text())
        assert blob_a["seed"] == 11
        assert blob_a["planes"] == blob_b["planes"]
        assert blob_a["solutions"] == blob_b["solutions"]


class TestGalois:
    def test_pinned_galois_run(self, tmp_path, capsys, pinned_planes_file):
        spec = write_spec(tmp_path, k=2, n=4, **{"lambda": "box", "mu": "box"})
        out = tmp_path / "out"
        code, text = run(
            ["galois", spec, "--planes", pinned_planes_file, "--out", out], capsys
        )
        assert code == 0
        assert "FullSymmetric" in text
        verdict = json.loads((out / "problem_verdict.json").read_text())
        assert verdict["schema"] == 1
        assert verdict["status"] == "FullSymmetric"
        assert verdict["num_solutions"] == 2
        assert verdict["group"]["status"] == "FullSymmetric"
        perms = json.loads((out / "problem_permutations.json").read_text())
        assert perms["d"] == 2
        assert perms["permutations"]
        for p in perms["permutations"]:
            assert sorted(p) == [0, 1]

    def test_inconclusive_exit_code(self, tmp_path, capsys):
        # three solutions but a budget of one loop: a single permutation
        # generates a cyclic group, never the full symmetric group
        spec = write_spec(
            tmp_path, k=2, n=5, seed=2,
            **{"lambda": [2], "mu": [1], "options": {"max_loops": 1}},
        )
        out = tmp_path / "out"
        code, text = run(["galois", spec, "--out", out], capsys)
        assert code == 4
        assert "Inconclusive" in text
        verdict = json.loads((out / "problem_verdict.json").read_text())
        assert verdict["status"] == "Inconclusive"
        assert verdict["group"]["status"] in ("ProperSubgroupEvidence", "Unknown")

    def test_failed_master_verification_is_a_numerical_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        # a solver result that fails the independent re-check exits 3,
        # not 2: the input was fine, the numerics were not
        real = cli.solve_master

        def corrupted(instance, opts=None):
            master = real(instance, opts)
            master.solutions[0] = master.solutions[0] + 1e-3
            return master

        monkeypatch.setattr(cli, "solve_master", corrupted)
        spec = write_spec(tmp_path, k=2, n=4, seed=21)
        code = cli.main(["galois", str(spec), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "failed verification" in capsys.readouterr().err

    def test_strategy_and_loops_come_from_spec_options(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, k=2, n=4, seed=1,
            options={"strategy": "half", "max_loops": 12},
        )
        out = tmp_path / "out"
        code, _ = run(["galois", spec, "--out", out], capsys)
        assert code == 0
        verdict = json.loads((out / "problem_verdict.json").read_text())
        assert verdict["strategy"] == "half"
        assert verdict["max_loops"] == 12

    def test_galois_rerun_identical(self, tmp_path, capsys):
        spec = write_spec(tmp_path, k=2, n=4, seed=21)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a, _ = run(["galois", spec, "--out", out_a], capsys)
        code_b, _ = run(["galois", spec, "--out", out_b], capsys)
        assert code_a == code_b == 0
        for name in ("problem_master.json", "problem_permutations.json",
                     "problem_verdict.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestTrace:
    def test_trace_artifact_structure(self, tmp_path, capsys, pinned_planes_file):
        spec = write_spec(tmp_path, k=2, n=4, **{"lambda": "box", "mu": "box"})
        out = tmp_path / "out"
        code, text = run(
            ["trace", spec, "--planes", pinned_planes_file, "--out", out], capsys
        )
        assert code == 0
        assert "permutation" in text
        lines = (out / "problem_trace.csv").read_text().splitlines()
        assert lines[0] == "path_id,leg,t,var_index,re,im"
        rows = [line.split(",") for line in lines[1:]]
        paths = {int(r[0]) for r in rows}
        legs = {int(r[1]) for r in rows}
        assert paths == {0, 1}
        assert legs == {0, 1, 2, 3}  # short loop
        for r in rows:
            t = float(r[2])
            assert 0.0 <= t <= 1.0
            assert int(r[3]) in (0, 1)
            float(r[4]), float(r[5])
        # each path and leg starts at 0 and ends at 1
        for pid in paths:
            for leg in legs:
                ts = [float(r[2]) for r in rows if (int(r[0]), int(r[1])) == (pid, leg)]
                assert ts[0] == 0.0 and ts[-1] == 1.0

    def test_trace_guard_rejects_large_problems_fast(self, tmp_path, capsys):
        spec = write_spec(tmp_path, k=2, n=9)  # 1430 solutions
        code, _ = run(["trace", spec, "--out", tmp_path], capsys)
        assert code == 2

    def test_emit_trace_guard_on_galois(self, tmp_path, capsys):
        spec = write_spec(tmp_path, k=2, n=9)
        code, _ = run(["galois", spec, "--emit-trace", "--out", tmp_path], capsys)
        assert code == 2

    def test_galois_emit_trace_matches_trace_command(
        self, tmp_path, capsys, pinned_planes_file
    ):
        # both commands must derive the first loop from the same stream
        spec = write_spec(tmp_path, k=2, n=4, **{"lambda": "box", "mu": "box"})
        out_g, out_t = tmp_path / "galois_out", tmp_path / "trace_out"
        code_g, _ = run(
            ["galois", spec, "--planes", pinned_planes_file, "--emit-trace",
             "--out", out_g],
            capsys,
        )
        code_t, _ = run(
            ["trace", spec, "--planes", pinned_planes_file, "--out", out_t], capsys
        )
        assert code_g == 0 and code_t == 0
        assert (out_g / "problem_trace.csv").read_bytes() == (
            out_t / "problem_trace.csv"
        ).read_bytes()


class TestRoundTrips:
    def test_master_json_round_trip(self, pinned_master, tmp_path):
        blob = cli.master_to_json(pinned_master)
        path = tmp_path / "master.json"
        path.write_text(json.dumps(blob))
        again = cli.load_master(path)
        assert again.instance.seed == pinned_master.instance.seed
        for a, b in zip(again.solutions, pinned_master.solutions):
            assert np.array_equal(a, b)
        for ga, gb in zip(again.instance.planes, pinned_master.instance.planes):
            assert np.array_equal(ga, gb)

    def test_planes_file_accepts_bare_list(self, tmp_path, capsys, pinned_planes):
        bare = tmp_path / "bare.json"
        bare.write_text(
            json.dumps(
                [[[[z.real, z.imag] for z in row] for row in g] for g in pinned_planes]
            )
        )
        spec = write_spec(tmp_path, k=2, n=4, **{"lambda": "box", "mu": "box"})
        code, _ = run(["solve", spec, "--planes", bare, "--out", tmp_path], capsys)
        assert code == 0
