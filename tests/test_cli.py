"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import hashlib
import json
import math
from pathlib import Path

import pytest

from treegibbs import ReducedParams, kappa_bound_generic, Coupling, solve_system
from treegibbs import cli
from treegibbs.cli import _build_parser, _fmt, main

H_STAR_2_08 = 2.0634370688955605

# |theta| >= 1 - ATANH_GUARD: the smallest such float, a middle one and the
# largest below 1
GUARD_THETAS = ["0.999999999999999", "0.9999999999999994", "0.9999999999999999"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestSolve:
    def test_decoupled_nine_solutions(self, capsys):
        code, out = _run(
            capsys, ["solve", "--k", "2", "--a", "2,0,0,0", "--b", "0,0,2,0", "--theta", "0.8"]
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["reduced", "criterion", "solutions", "family"]
        assert payload["reduced"] == {"a": 2, "b": 0, "c": 0, "d": 2}
        assert payload["criterion"] is False
        assert len(payload["solutions"]) == 9
        assert all(entry["residual"] < 1e-9 for entry in payload["solutions"])
        assert payload["family"] == "TranslationInvariant"

    def test_subcritical_single_solution(self, capsys):
        code, out = _run(
            capsys, ["solve", "--k", "2", "--a", "1,1,0,0", "--b", "0,0,1,1", "--theta", "0.5"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["solutions"] == [{"h": 0.0, "l": 0.0, "residual": 0.0}]

    def test_c0_plateau_is_one_solution(self, capsys):
        # reduction (2,-2,0,2) at theta = 1/2: l = 2 f(l) has only the root
        # 0, so the true set is {(0, 0)}; closing in h found a plateau of
        # float-noise sign changes and reported 57 solutions
        code, out = _run(
            capsys, ["solve", "--k", "4", "--a", "2,0,0,2", "--b", "0,0,3,1", "--theta", "0.5"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reduced"] == {"a": 2, "b": -2, "c": 0, "d": 2}
        assert payload["solutions"] == [{"h": 0.0, "l": 0.0, "residual": 0.0}]

    def test_c0_tangential_root_found(self, capsys):
        # reduction (3,1,0,2) at 0.6 and (2,0,-1,3), its transpose up to
        # l -> -l, both give 7 solutions, the double root flagged as
        # boundary-degenerate
        counts = []
        for a, b in (("3,0,1,0", "1,1,2,0"), ("2,0,1,1", "0,1,3,0")):
            code, out = _run(
                capsys, ["solve", "--k", "4", "--a", a, "--b", b, "--theta", "0.6"]
            )
            assert code == 0
            payload = json.loads(out)
            assert any("boundary-degenerate" in w for w in payload["warnings"])
            counts.append(len(payload["solutions"]))
        assert counts == [7, 7]

    def test_invalid_matrix_exit_2(self, capsys):
        code, _ = _run(
            capsys, ["solve", "--k", "2", "--a", "3,0,0,0", "--b", "2,0,0,0", "--theta", "0.8"]
        )
        assert code == 2

    # within ATANH_GUARD of +-1 the kernels refuse arctanh(theta), so the
    # theta is the bad input, also where the solve needs no kernel call
    @pytest.mark.parametrize(
        "theta", ["1.5", "0", "-1", "abc"] + GUARD_THETAS + ["-" + t for t in GUARD_THETAS]
    )
    def test_invalid_theta_exit_3(self, capsys, theta):
        code = main(
            ["solve", "--k", "2", "--a", "2,0,0,0", "--b", "2,0,0,0", "--theta", theta]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_theta_below_guard_solves(self, capsys):
        theta = repr(math.nextafter(1.0 - 1e-15, 0.0))
        code, out = _run(
            capsys, ["solve", "--k", "2", "--a", "2,0,0,0", "--b", "0,0,2,0", "--theta", theta]
        )
        assert code == 0
        assert len(json.loads(out)["solutions"]) == 9

    def test_config_file_override(self, capsys):
        # a coarse scan grid still separates all nine roots
        code, out = _run(
            capsys,
            ["solve", "--k", "2", "--a", "2,0,0,0", "--b", "0,0,2,0", "--theta", "0.8",
             "--grid-points", "128"],
        )
        assert code == 0
        assert len(json.loads(out)["solutions"]) == 9

    # NaN passes a `<= 0` test: --dedup-tol nan printed (0, 0) three times.
    # The ids keep the "False-" prefix they had while a config file was a
    # second route to these values, so each case keeps its name.
    @pytest.mark.parametrize("key,value", [
        pytest.param(key, value, id=f"False-{key}-{value}")
        for key in ("bisect_tol", "residual_tol", "dedup_tol")
        for value in ("nan", "inf", "0")
    ])
    def test_bad_tolerance_exit_2(self, capsys, key, value):
        argv = ["solve", "--k", "3", "--a", "2,0,1,0", "--b", "1,0,1,1", "--theta", "0.8",
                "--" + key.replace("_", "-"), value]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: bad solver configuration: {key} must be finite and positive"
        )


class TestClassify:
    def test_family_json(self, capsys):
        code, out = _run(
            capsys,
            ["classify", "--k", "4", "--a", "3,0,0,1", "--b", "4,0,0,0", "--h", "0.3", "--l", "0.2"],
        )
        assert code == 0
        assert json.loads(out) == {"family": "WeaklyPeriodicI3", "param": 1}

    @pytest.mark.parametrize("flag,value", [("--h", "nan"), ("--l", "inf")])
    def test_nonfinite_field_exit_2(self, capsys, flag, value):
        code = main(["classify", "--k", "4", "--a", "3,0,0,1", "--b", "4,0,0,0", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: bad field pair: field pair must be finite")


class TestEnumerate:
    @pytest.mark.parametrize("k,rows", [(1, 16), (2, 100), (3, 400)])
    def test_row_counts(self, capsys, k, rows):
        code, out = _run(capsys, ["enumerate", "--k", str(k)])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1].startswith("k,a1,a2,a3,a4")
        assert len(lines) - 2 == rows

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "schemes.csv"
        code, _ = _run(capsys, ["enumerate", "--k", "2", "--out", str(path)])
        assert code == 0
        assert len(path.read_text(encoding="utf-8").strip().splitlines()) == 102

    def test_k_cap(self, capsys):
        code, _ = _run(capsys, ["enumerate", "--k", "9"])
        assert code == 2


class TestSweep:
    def _sweep(self, capsys, tmp_path, name, extra):
        out = tmp_path / name
        argv = [
            "sweep", "--k", "2", "--theta-lo", "0.4", "--theta-hi", "0.8",
            "--steps", "3", "--out", str(out),
            "--scheme", "2,0,0,0:0,0,2,0", "--scheme", "0,2,0,0:0,2,0,0",
        ] + extra
        code = main(argv)
        capsys.readouterr()
        assert code == 0
        return out.read_text(encoding="utf-8")

    def test_deterministic_output(self, capsys, tmp_path):
        first = self._sweep(capsys, tmp_path, "a.csv", ["--jobs", "1"])
        second = self._sweep(capsys, tmp_path, "b.csv", ["--jobs", "1"])
        assert first == second
        lines = first.strip().splitlines()
        assert lines[0] == "# schema=1"
        assert len(lines) == 2 + 2 * 3  # header lines + schemes * steps

    def test_parallel_matches_serial(self, capsys, tmp_path):
        serial = self._sweep(capsys, tmp_path, "serial.csv", ["--jobs", "1"])
        parallel = self._sweep(capsys, tmp_path, "parallel.csv", ["--jobs", "2"])
        assert serial == parallel

    def test_row_content(self, capsys, tmp_path):
        text = self._sweep(capsys, tmp_path, "c.csv", ["--jobs", "1"])
        header = text.splitlines()[1].split(",")
        row = dict(zip(header, text.splitlines()[-1].split(",")))
        # last row: two-periodic scheme at theta = 0.8
        assert row["family"] == "TwoPeriodic"
        assert row["theta"] == "0.8"
        assert row["n_solutions"] == "1"
        assert row["verdict"] in ("ExtremeCertified", "Inconclusive")

    def test_bifurcation_transition_visible(self, capsys, tmp_path):
        # scheme with reduced (2,0,0,0): the solution count jumps 1 -> 3
        # across theta = 1/2
        out = tmp_path / "t.csv"
        code = main(
            ["sweep", "--k", "2", "--theta-lo", "0.4", "--theta-hi", "0.6",
             "--steps", "2", "--out", str(out), "--scheme", "2,0,0,0:1,1,0,0",
             "--jobs", "1"]
        )
        capsys.readouterr()
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        header = lines[1].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
        assert [r["n_solutions"] for r in rows] == ["1", "3"]

    def test_sidecar_written(self, capsys, tmp_path):
        self._sweep(capsys, tmp_path, "d.csv", ["--jobs", "1"])
        sidecar = json.loads((tmp_path / "d.csv.sidecar.json").read_text(encoding="utf-8"))
        assert sidecar["schema"] == 1
        assert "generated_at" in sidecar

    # Schemes sharing a reduction, interleaved with other reductions: the
    # k=4 ones carry boundary-degenerate warnings at theta = 0.6.
    SHARED = {
        3: ["2,0,1,0:1,0,1,1", "1,0,1,1:1,0,1,1", "2,0,1,0:2,1,0,0", "0,1,2,0:0,3,0,0"],
        4: ["2,0,1,1:0,1,3,0", "2,0,1,1:1,0,3,0", "3,1,0,0:0,1,3,0", "3,1,0,0:1,0,3,0"],
    }

    @staticmethod
    def _shared_sweep(capsys, path, k, schemes, jobs):
        argv = ["sweep", "--k", str(k), "--theta-lo", "0.05", "--theta-hi", "0.95",
                "--steps", "19", "--out", str(path), "--jobs", jobs]
        for spec in schemes:
            argv += ["--scheme", spec]
        code = main(argv)
        capsys.readouterr()
        assert code == 0
        sidecar = json.loads(
            (path.parent / (path.name + ".sidecar.json")).read_text(encoding="utf-8")
        )
        return path.read_text(encoding="utf-8"), sidecar["warnings"]

    @pytest.mark.parametrize("k", [3, 4])
    def test_shared_reductions_keep_scheme_order(self, capsys, tmp_path, k):
        schemes = self.SHARED[k]
        serial = self._shared_sweep(capsys, tmp_path / "serial.csv", k, schemes, "1")
        parallel = self._shared_sweep(capsys, tmp_path / "parallel.csv", k, schemes, "2")
        assert parallel == serial
        lines = serial[0].splitlines()[:2]  # schema and column lines
        warnings = []
        for i, spec in enumerate(schemes):
            text, warns = self._shared_sweep(capsys, tmp_path / f"one{i}.csv", k, [spec], "1")
            lines.extend(text.splitlines()[2:])
            warnings.extend(warns)
        assert serial == ("\n".join(lines) + "\n", warnings)
        if k == 4:
            assert [w["scheme"] for w in warnings] == schemes

    def test_extremality_columns_consistent(self, capsys, tmp_path):
        # every row of a full k=2 sweep prints one report: the bounds and
        # product of its largest nonnegative pair, and a verdict that is
        # the window for h*l = 0 and k*kappa*gamma < 1 otherwise
        k, lo, hi, steps = 2, 0.05, 0.95, 19
        out = tmp_path / "all.csv"
        code = main(["sweep", "--k", str(k), "--theta-lo", str(lo), "--theta-hi", str(hi),
                     "--steps", str(steps), "--out", str(out), "--jobs", "1"])
        capsys.readouterr()
        assert code == 0
        thetas = {_fmt(t): t for t in (lo + i * (hi - lo) / (steps - 1) for i in range(steps))}
        lines = out.read_text(encoding="utf-8").splitlines()
        header = lines[1].split(",")
        pairs = {}
        certified = 0
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            theta = thetas[row["theta"]]
            abcd = tuple(int(row[c]) for c in "abcd")
            if (abcd, theta) not in pairs:
                r = ReducedParams(*abcd, k)
                pairs[abcd, theta] = solve_system(r, theta).largest_nonnegative()
            pair = pairs[abcd, theta]
            assert (row["h"], row["l"]) == (_fmt(pair.h), _fmt(pair.l))
            zero = abs(pair.h) <= 1e-12 or abs(pair.l) <= 1e-12
            kappa = theta if zero else kappa_bound_generic(Coupling.from_theta(theta), pair)
            product = k * kappa * theta
            assert row["kappa_bound"] == _fmt(kappa)
            assert row["gamma_bound"] == _fmt(theta)
            assert row["product"] == _fmt(product)
            is_certified = row["verdict"] == "ExtremeCertified"
            certified += is_certified
            if is_certified:
                assert product < 1.0, line
            if zero:
                assert is_certified == (1 / k < theta < 1 / math.sqrt(k)), line
            else:
                assert is_certified == (product < 1.0), line
        assert len(lines) == 2 + 100 * steps
        assert certified > 0

    def test_bad_grid_exit_3(self, capsys, tmp_path):
        code = main(
            ["sweep", "--k", "2", "--theta-lo", "0.9", "--theta-hi", "0.5",
             "--steps", "3", "--out", str(tmp_path / "x.csv")]
        )
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("theta_hi", GUARD_THETAS)
    def test_theta_hi_inside_guard_exit_3(self, capsys, tmp_path, jobs, theta_hi):
        # the bound itself is refused, even where the last grid theta
        # rounds below the guard (0.05..0.999999999999999 in 10 steps ends
        # at 0.9999999999999989), and before any worker starts
        out = tmp_path / "x.csv"
        code = main(
            ["sweep", "--k", "2", "--theta-lo", "0.05", "--theta-hi", theta_hi,
             "--steps", "10", "--out", str(out), "--jobs", jobs]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: need 0 < theta-lo < theta-hi")
        assert not out.exists()

    def test_theta_hi_is_last_grid_theta(self, capsys, tmp_path):
        # 0.05 + 5 * ((hi - 0.05) / 5) rounds up to 1 - 1e-15, inside the
        # guard, although theta-hi itself is clear of it
        theta_hi = "0.9999999999999989"
        out = tmp_path / "x.csv"
        code = main(
            ["sweep", "--k", "2", "--theta-lo", "0.05", "--theta-hi", theta_hi,
             "--steps", "6", "--jobs", "1", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        header = lines[1].split(",")
        assert dict(zip(header, lines[-1].split(",")))["theta"] == _fmt(float(theta_hi))

    @pytest.mark.parametrize("extra,message", [
        (["--k", "0"], "k must be a positive integer"),
        (["--k", "2", "--jobs", "-1"], "jobs must be >= 0"),
    ])
    def test_bad_k_or_jobs_exit_2(self, capsys, tmp_path, extra, message):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--theta-lo", "0.4", "--theta-hi", "0.8", "--steps", "2",
                     "--out", str(out)] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: " + message)
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_tolerance_exit_2(self, capsys, tmp_path, jobs):
        out = tmp_path / "x.csv"
        code = main(
            ["sweep", "--k", "4", "--theta-lo", "0.7", "--theta-hi", "0.8", "--steps", "2",
             "--out", str(out), "--scheme", "3,0,0,1:4,0,0,0",
             "--scheme", "4,0,0,0:4,0,0,0", "--jobs", jobs, "--dedup-tol", "nan"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: bad solver configuration: dedup_tol")
        assert not out.exists()

    @pytest.mark.parametrize("k", ["12", "30"])
    def test_cap_checked_before_schemes_are_built(self, capsys, tmp_path, monkeypatch, k):
        # C(k+3,3)^2 schemes x 10^4 steps is over the cap; the count is known
        # without building a scheme
        def refuse(order):
            raise AssertionError("schemes built before the cap was checked")

        monkeypatch.setattr(cli, "enumerate_schemes", refuse)
        out = tmp_path / "x.csv"
        code = main(["sweep", "--k", k, "--theta-lo", "0.1", "--theta-hi", "0.9",
                     "--steps", "10000", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 5
        assert captured.err.startswith("error: ")
        assert not out.exists()

    def test_instance_cap_exit_5(self, capsys, tmp_path):
        code = main(
            ["sweep", "--k", "2", "--theta-lo", "0.1", "--theta-hi", "0.9",
             "--steps", "200000", "--out", str(tmp_path / "x.csv")]
        )
        capsys.readouterr()
        assert code == 5

    def test_unwritable_output_exit_4(self, capsys, tmp_path):
        code = main(
            ["sweep", "--k", "2", "--theta-lo", "0.4", "--theta-hi", "0.8", "--steps", "2",
             "--out", str(tmp_path / "missing_dir" / "x.csv"), "--scheme", "2,0,0,0:0,0,2,0"]
        )
        capsys.readouterr()
        assert code == 4


class TestVerify:
    BASE = ["verify", "--k", "2", "--a", "2,0,0,0", "--b", "0,0,2,0", "--theta", "0.8",
            "--depth", "3"]

    def test_positive_solution_passes(self, capsys):
        # solutions sorted by (h, l): index 8 is (h*, l*); index 7 is (h*, 0)
        code, out = _run(capsys, self.BASE + ["--solution-index", "7"])
        payload = json.loads(out)
        assert payload["solution"]["h"] == pytest.approx(H_STAR_2_08, abs=1e-12)
        assert payload["pass"] is True
        assert code == 0

    def test_zero_solution_passes(self, capsys):
        code, out = _run(capsys, self.BASE + ["--solution-index", "4"])
        payload = json.loads(out)
        assert payload["solution"] == {"h": 0.0, "l": 0.0}
        assert code == 0

    def test_perturbed_field_fails(self, capsys):
        code, out = _run(capsys, self.BASE + ["--solution-index", "7", "--override-h", "1.0"])
        payload = json.loads(out)
        assert payload["pass"] is False
        assert code == 1

    @pytest.mark.parametrize("flag", ["--override-h", "--override-l"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_override_exit_2(self, capsys, flag, value):
        code = main(self.BASE + ["--solution-index", "7", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: bad override: field pair must be finite")

    def test_capacity_exit_5(self, capsys):
        code, _ = _run(capsys, self.BASE[:-1] + ["4", "--solution-index", "7"])
        assert code == 5

    def test_minus_root_label(self, capsys):
        code, out = _run(
            capsys, self.BASE + ["--solution-index", "7", "--root-label=-H"]
        )
        payload = json.loads(out)
        assert payload["root_ratio"]["expected"] == pytest.approx(
            math.exp(2 * H_STAR_2_08), rel=1e-12
        )
        assert code == 0

    def test_export_and_reverify_assignment(self, capsys, tmp_path):
        path = tmp_path / "assignment.txt"
        code, _ = _run(
            capsys,
            self.BASE + ["--solution-index", "7", "--export-assignment", str(path)],
        )
        assert code == 0
        code, out = _run(capsys, ["verify", "--theta", "0.8", "--assignment", str(path)])
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_reordered_or_padded_assignment_refused(self, capsys, tmp_path):
        # behaviour change: an assignment file must be the exported text
        # (trailing whitespace allowed); lines out of vertex order or a
        # blank line among them are refused, where they used to be read
        path = tmp_path / "assignment.txt"
        depth1 = self.BASE[:-1] + ["1", "--solution-index", "7"]
        _run(capsys, depth1 + ["--export-assignment", str(path)])
        header, root, first, second = path.read_text().splitlines()
        verify = ["verify", "--theta", "0.8", "--assignment", str(path)]
        for lines in ([header, root, second, first, ""], [header, root, first, "", second]):
            path.write_text("\n".join(lines) + "\n")
            code = main(verify)
            assert code == 2
            assert "bad assignment file" in capsys.readouterr().err
        path.write_text("\n".join([header, root, first, second]) + "\n\n  \n")
        assert main(verify) == 0
        path.write_bytes(b"k=2 n=1 h=1.0 l=0.0\n0\t-1\t+H\n\xff\n")
        assert main(verify) == 2
        path.write_text("k=10 n=7 h=0.5 l=0.0\n")
        assert main(verify) == 5

    def test_small_volume_keeps_absolute_tolerances(self, capsys):
        # 15 sites, 8 of them outer: 2^8 summed terms stay under 1e-12
        _, out = _run(capsys, self.BASE + ["--solution-index", "7"])
        payload = json.loads(out)
        assert payload["kolmogorov"]["tol"] == 1e-12
        assert payload["root_ratio"]["tol"] == 1e-10

    LARGE_RATIO = ["verify", "--k", "3", "--a", "0,0,3,0", "--b", "0,0,3,0", "--theta", "0.9",
                   "--depth", "2", "--solution-index", "0"]

    def test_large_root_ratio_passes(self, capsys):
        # ratio 6,802: a float-limit deviation of ~1.6e-8 is within the
        # tolerance scaled by the ratio
        code, out = _run(capsys, self.LARGE_RATIO)
        payload = json.loads(out)
        assert payload["root_ratio"]["expected"] == pytest.approx(6802.0, rel=1e-6)
        assert payload["root_ratio"]["pass"] is True
        assert code == 0

    def test_large_root_ratio_moved_solution_fails(self, capsys):
        code, out = _run(capsys, self.LARGE_RATIO + ["--override-h", "-4.0"])
        assert json.loads(out)["root_ratio"]["pass"] is False
        assert code == 1

    def test_21_site_kolmogorov_passes(self, capsys):
        # 2^16 outer configurations summed into each marginal entry: the
        # 1.6e-12 discrepancy is rounding, within 2^16 ulps of 1
        code, out = _run(
            capsys,
            ["verify", "--k", "4", "--a", "0,0,4,0", "--b", "0,0,4,0", "--theta", "0.4",
             "--depth", "2", "--root-label=-H"],
        )
        payload = json.loads(out)
        assert payload["kolmogorov"]["tol"] == 2.0**16 * 2.0**-52
        assert payload["kolmogorov"]["pass"] is True
        assert code == 0

    @pytest.mark.parametrize("theta", GUARD_THETAS + ["-" + t for t in GUARD_THETAS])
    def test_theta_inside_guard_exit_3(self, capsys, theta):
        argv = self.BASE[:self.BASE.index("--theta") + 1] + [theta, "--depth", "2"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: theta must satisfy")

    def test_solution_index_out_of_range(self, capsys):
        code, _ = _run(capsys, self.BASE + ["--solution-index", "40"])
        assert code == 2


class TestSharedParser:
    """``main`` parses every call with one parser, built on the first call."""

    VERIFY = TestVerify.BASE + ["--solution-index", "7"]

    def test_scheme_lists_do_not_accumulate(self, capsys, tmp_path):
        texts = []
        for name, spec in (("a.csv", "2,0,0,0:0,0,2,0"), ("b.csv", "0,2,0,0:0,2,0,0")):
            out = tmp_path / name
            code = main(["sweep", "--k", "2", "--theta-lo", "0.4", "--theta-hi", "0.8",
                         "--steps", "2", "--jobs", "1", "--out", str(out), "--scheme", spec])
            capsys.readouterr()
            assert code == 0
            texts.append(out.read_text(encoding="utf-8").splitlines())
        for lines, spec in zip(texts, ("2,0,0,0,0,0,2,0", "0,2,0,0,0,2,0,0")):
            assert len(lines) == 2 + 2
            assert all(line.startswith("2," + spec + ",") for line in lines[2:])

    def test_usage_error_leaves_parser_intact(self, capsys):
        code, before = _run(capsys, self.VERIFY)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theta", "0.8", "--depth", "three"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert _run(capsys, self.VERIFY) == (0, before)

    def test_help_follows_columns_set_later(self, capsys, monkeypatch):
        main(["enumerate", "--k", "1"])
        capsys.readouterr()
        helps = []
        for columns in ("50", "150"):
            monkeypatch.setenv("COLUMNS", columns)
            for parse in (main, _build_parser.__wrapped__().parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse(["verify", "--help"])
                assert exc.value.code == 0
                helps.append(capsys.readouterr().out)
        shared_50, fresh_50, shared_150, fresh_150 = helps
        assert shared_50 == fresh_50
        assert shared_150 == fresh_150
        assert shared_50 != shared_150

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        _build_parser.__wrapped__()
        per_build = len(built)  # the top-level parser and its five subparsers
        assert per_build == 6
        built.clear()
        _build_parser.cache_clear()
        for _ in range(10):
            assert main(["classify", "--k", "2", "--a", "2,0,0,0", "--b", "0,0,2,0"]) == 0
        capsys.readouterr()
        assert len(built) == per_build


class TestSweepDigests:
    """The 19-step sweep's CSV is byte-identical to the recorded digest
    (k = 4 is checked in CI, as it is too slow here)."""

    DIGESTS = dict(
        line.split()
        for line in (Path(__file__).parent / "data" / "sweep_digests.txt")
        .read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    )

    @pytest.mark.parametrize("k", ["2", "3"])
    def test_csv_digest(self, capsys, tmp_path, k):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--k", k, "--theta-lo", "0.05", "--theta-hi", "0.95",
                     "--steps", "19", "--out", str(out), "--jobs", "1"])
        capsys.readouterr()
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[k]
