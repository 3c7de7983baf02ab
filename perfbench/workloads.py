"""The three workloads: inputs made from the seed, operations, and checks.

Each workload is built from the imported ``treegibbs`` package and a seed.
``round(r)`` returns the operations of round ``r``; the harness times each
operation's ``run`` and then calls its ``check``, which raises
:class:`CheckError` when an output is wrong and otherwise returns a
:class:`Outcome`.  The checks use only the standard library and the
benchmark's own arithmetic, never the program's helpers (only its
``residual_tol`` setting).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable


class CheckError(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Outcome:
    items: int          # units of work the operation completed
    failed: bool        # the operation hit the known root-ratio fault
    fingerprint: str    # hash of the output, equal whenever the operation repeats
    output_bytes: int = 0


@dataclass(frozen=True)
class Op:
    key: str            # names the input; equal keys must give equal fingerprints
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _f(theta: float, x: float) -> float:
    return math.atanh(theta * math.tanh(x))


def _call_cli(tg, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tg.cli.main(argv)
    return code, out.getvalue()


def _row_text(row) -> str:
    return ",".join(map(str, row))


def _compositions(k: int):
    return [(c1, c2, c3, k - c1 - c2 - c3)
            for c1 in range(k + 1) for c2 in range(k + 1 - c1) for c3 in range(k + 1 - c1 - c2)]


def _schemes(k: int):
    """All (a, b) rows of order k, lexicographic, as the benchmark's own list."""
    rows = _compositions(k)
    return [(a, b) for a in rows for b in rows]


def _reduction(a, b):
    return (a[0] - a[1], a[2] - a[3], b[0] - b[1], b[2] - b[3])


def _sites(k: int, depth: int) -> int:
    """Vertices of the complete k-ary tree of the given depth."""
    return (k ** (depth + 1) - 1) // (k - 1)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class Sweep:
    """The whole k=3 scheme set on a 19-point theta grid, as in-process
    ``treegibbs sweep --jobs 1`` calls on slices of ten schemes.

    Schemes are grouped by reduction, the groups are put in seed order and
    the list is cut into slices, so schemes sharing a reduction mostly share
    a call.  One round sweeps every slice once.  Round r narrows the grid by
    r * NARROW at each end, so that no (reduction, theta) pair repeats from
    one round to the next: only reuse within a call can save solves.
    """

    K = 3
    THETA_LO, THETA_HI, STEPS = 0.05, 0.95, 19
    NARROW = 1e-6
    SLICE = 10
    # Warm-up grid: off the timed grid, so it adds no (reduction, theta) pair
    # that the rounds solve.
    WARM_LO, WARM_HI, WARM_STEPS = 0.33, 0.77, 2
    PITCHFORK_GAP = 1e-6

    def __init__(self, tg, seed: int, out_dir):
        self.tg = tg
        self.out = str(out_dir / "sweep.csv")
        schemes = [(m.a, m.b) for m in tg.enumerate_schemes(self.K)]
        _require(schemes == _schemes(self.K), "enumerate_schemes(3) is not the k=3 scheme set")
        groups: dict = {}
        for a, b in schemes:
            groups.setdefault(_reduction(a, b), []).append((a, b))
        order = sorted(groups)
        random.Random(f"sweep:{seed}").shuffle(order)
        flat = [s for red in order for s in groups[red]]
        self.slices = [flat[i:i + self.SLICE] for i in range(0, len(flat), self.SLICE)]
        self.tol = tg.SolverConfig().residual_tol

    def warm_up(self) -> list[Op]:
        return [self._op("warm", self.slices[0], self.WARM_LO, self.WARM_HI, self.WARM_STEPS)]

    def round(self, r: int) -> list[Op]:
        lo, hi = self.THETA_LO + r * self.NARROW, self.THETA_HI - r * self.NARROW
        return [self._op(f"r{r}.slice{i}", sl, lo, hi, self.STEPS)
                for i, sl in enumerate(self.slices)]

    def _op(self, key, schemes, lo, hi, steps) -> Op:
        argv = ["sweep", "--k", str(self.K), "--theta-lo", repr(lo), "--theta-hi", repr(hi),
                "--steps", str(steps), "--jobs", "1", "--out", self.out]
        for a, b in schemes:
            argv += ["--scheme", f"{_row_text(a)}:{_row_text(b)}"]

        def run():
            return _call_cli(self.tg, argv)

        def check(result) -> Outcome:
            code, stdout = result
            _require(code == 0, f"sweep exited {code}")
            with open(self.out, "r", encoding="utf-8") as fh:
                text = fh.read()
            with open(self.out + ".sidecar.json", "r", encoding="utf-8") as fh:
                sidecar = fh.read()
            json.loads(sidecar)
            lines = text.splitlines()
            _require(lines[0] == "# schema=1", "sweep CSV lacks its schema line")
            header = lines[1].split(",")
            rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
            _require(len(rows) == len(schemes) * steps, f"{len(rows)} sweep rows")
            for i, row in enumerate(rows):
                a, b = schemes[i // steps]
                self._check_row(row, a, b)
            return Outcome(len(rows), False, _digest(text),
                           len(stdout) + len(text.encode()) + len(sidecar.encode()))

        return Op(f"sweep:{key}", run, check)

    def _check_row(self, row, a, b) -> None:
        where = f"sweep row {row}"
        _require(int(row["k"]) == self.K, where)
        _require(tuple(int(row[f"a{i}"]) for i in range(1, 5)) == a, where)
        _require(tuple(int(row[f"b{i}"]) for i in range(1, 5)) == b, where)
        ra, rb, rc, rd = _reduction(a, b)
        _require((int(row["a"]), int(row["b"]), int(row["c"]), int(row["d"])) == (ra, rb, rc, rd),
                 f"{where}: (a, b, c, d) is not the row differences")
        theta = float(row["theta"])
        n = int(row["n_solutions"])
        h, l = float(row["h"]), float(row["l"])
        _require(h >= 0.0 and l >= 0.0, f"{where}: negative component")
        _require(n % 2 == 1, f"{where}: even solution count")
        fh, fl = _f(theta, h), _f(theta, l)
        residual = max(abs(h - ra * fh - rb * fl), abs(l - rc * fh - rd * fl))
        _require(residual <= self.tol, f"{where}: residual {residual:.3g}")
        criterion = (rb * rc - ra * rd) * theta * theta + (ra + rd) * theta
        _require(not (criterion > 1.0 and n < 3), f"{where}: criterion {criterion} but {n} solutions")
        if rb == 0 and rc == 0 and all(abs(m * theta - 1.0) > self.PITCHFORK_GAP for m in (ra, rd)):
            expected = (3 if ra * theta > 1.0 else 1) * (3 if rd * theta > 1.0 else 1)
            _require(n == expected, f"{where}: decoupled count {n}, closed form {expected}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# Thetas of k=3 depth-2 instances whose root ratio (11,000 to 42,000) the CLI
# compares with an absolute tolerance of 1e-10: each fails, every time, on a
# relative error of 1e-12 to 1e-11 (the float limit).  Some thetas nearby
# pass by chance (0.906, 0.913), so the list is fixed and checked, and every
# round has exactly one failure.
KNOWN_FAILURES = tuple(round(0.914 + 0.002 * i, 3) for i in range(16))
RATIO_RTOL = 1e-9
# Index, in the pool below, of the one 21-site instance whose Kolmogorov
# discrepancy (1.3e-12) exceeds the CLI's absolute tolerance of 1e-12, a
# float-limit fault that hits about 2% of such volumes at seed-dependent
# places.  It is left out so that only the fixed known failures fail.
LARGE_KOLMOGOROV_FAULTS = (19,)


def _large_pool() -> tuple:
    """The 21-site (k=4, depth 2) instances: 64 drawn once from a fixed
    generator, less the known Kolmogorov faults."""
    rng = random.Random("verify:large")
    schemes = _schemes(4)
    pool = [(rng.choice(schemes), rng.uniform(0.05, 0.95)) for _ in range(64)]
    return tuple(x for i, x in enumerate(pool) if i not in LARGE_KOLMOGOROV_FAULTS)


class Verify:
    """In-process ``treegibbs verify`` calls on instances drawn per round.

    A round holds 16 instances at k=2 depth 3 (15 sites), 8 at k=3 depth 2
    (13 sites), 2 at k=4 depth 2 (21 sites, 2^21 configurations) taken from
    a checked pool, and one known failure.  Drawn instances take solution
    index 0 (the pair with the smallest h, so h <= 0) under root label -H,
    which puts a field >= 0 on the root and its ratio exp(-2 h_root) at or
    below 1.
    """

    SLOTS = ((2, 3),) * 16 + ((3, 2),) * 8
    LARGE_PER_ROUND = 2
    THETA_LO, THETA_HI = 0.05, 0.95

    def __init__(self, tg, seed: int, out_dir):
        self.tg = tg
        self.seed = seed
        self.schemes = {k: [(m.a, m.b) for m in tg.enumerate_schemes(k)] for k in (2, 3)}
        self.large = _large_pool()

    def warm_up(self) -> list[Op]:
        return [self._op("warm2", 2, 3, ((1, 0, 1, 0), (1, 0, 0, 1)), 0.7, "-H"),
                self._op("warm3", 3, 2, ((2, 0, 1, 0), (1, 0, 1, 1)), 0.7, "-H")]

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"verify:{self.seed}:{r}")
        ops = []
        for i, (k, depth) in enumerate(self.SLOTS):
            a, b = rng.choice(self.schemes[k])
            theta = rng.uniform(self.THETA_LO, self.THETA_HI)
            ops.append(self._op(f"r{r}.{i}", k, depth, (a, b), theta, "-H"))
        for j in rng.sample(range(len(self.large)), self.LARGE_PER_ROUND):
            scheme, theta = self.large[j]
            ops.append(self._op(f"large{j}", 4, 2, scheme, theta, "-H"))
        theta = KNOWN_FAILURES[r % len(KNOWN_FAILURES)]
        ops.append(self._op(f"known{theta}", 3, 2, ((0, 0, 3, 0), (0, 0, 3, 0)), theta, "+H",
                            expect_fault=True))
        return ops

    def _op(self, key, k, depth, scheme, theta, root_label, expect_fault=False) -> Op:
        a, b = scheme
        argv = ["verify", "--k", str(k), "--a", _row_text(a), "--b", _row_text(b),
                "--theta", repr(theta), "--depth", str(depth), "--solution-index", "0",
                f"--root-label={root_label}"]
        configs = 2 ** _sites(k, depth) + 2 ** _sites(k, depth - 1)

        def run():
            return _call_cli(self.tg, argv)

        def check(result) -> Outcome:
            code, stdout = result
            where = f"verify {' '.join(argv)}"
            _require(code in (0, 1), f"{where}: exit {code}")
            report = json.loads(stdout)
            _require(report["compatibility"]["pass"] is True, f"{where}: compatibility")
            _require(report["kolmogorov"]["pass"] is True, f"{where}: Kolmogorov")
            h_root = report["solution"]["h"] * (1.0 if root_label == "+H" else -1.0)
            expected = math.exp(-2.0 * h_root)
            observed = report["root_ratio"]["observed"]
            _require(abs(observed - expected) <= RATIO_RTOL * expected,
                     f"{where}: root ratio {observed} vs exp(-2 h_root) = {expected}")
            ratio_pass = report["root_ratio"]["pass"]
            _require((code == 0) == ratio_pass == report["pass"], f"{where}: exit code and report disagree")
            _require(ratio_pass or expect_fault, f"{where}: unexpected root-ratio failure")
            return Outcome(configs, not ratio_pass, _digest(stdout), len(stdout.encode()))

        return Op(f"verify:{key}", run, check)


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------


LABELS = ("+H", "-H", "+L", "-L")


def _child_matrix(a, b):
    """4x4 child counts, rows and columns in LABELS order; negative parents
    use the sign-flipped recipe."""
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    return [[a1, a2, a3, a4], [a2, a1, a4, a3], [b1, b2, b3, b4], [b2, b1, b4, b3]]


def _level_counts(a, b, root: str, depth: int) -> list[list[int]]:
    """Label counts per level: the root's unit vector times powers of the
    child-count matrix, in integers."""
    matrix = _child_matrix(a, b)
    vec = [1 if lab == root else 0 for lab in LABELS]
    levels = [vec]
    for _ in range(depth):
        vec = [sum(vec[i] * matrix[i][j] for i in range(4)) for j in range(4)]
        levels.append(vec)
    return levels


@dataclass(frozen=True)
class TreeInput:
    k: int
    depth: int
    a: tuple
    b: tuple
    theta: float
    h: float
    l: float
    root: str
    seed: int | None


class Tree:
    """Round trips build -> assign -> check -> export -> parse on trees of
    about 10^4 vertices and on 797,161 (the largest complete tree under the
    10^6 cap), k from 2 to 5, seeded and unseeded.

    Every round draws and solves fresh inputs for the same slots, before
    its operations are timed, so no operation repeats an earlier one.
    """

    # (k, depth, seeded): one tree at the cap and 42 near 10^4.  The small
    # trees fit in a core's L2 cache and time steadily.  Sizes are counted
    # so that the median falls well inside the 18 (4, 7) trees and the tail
    # among the 12 larger ones, whatever the number of rounds.
    SLOTS = (
        (3, 12, False),
        *[(k, depth, seeded)
          for k, depth, count in ((3, 8, 3), (5, 6, 3), (4, 7, 9), (2, 13, 3), (3, 9, 3))
          for seeded in (False, True) for _ in range(count)],
    )
    WARM = (2, 8, True)
    THETA_LO, THETA_HI = 0.3, 0.95

    def __init__(self, tg, seed: int, out_dir):
        self.tg = tg
        self.seed = seed
        self.schemes = {k: [(m.a, m.b) for m in tg.enumerate_schemes(k)] for k in (2, 3, 4, 5)}

    def _draw(self, rng, k, depth, seeded) -> TreeInput:
        tg = self.tg
        while True:
            a, b = rng.choice(self.schemes[k])
            theta = rng.uniform(self.THETA_LO, self.THETA_HI)
            m = tg.SchemeMatrix(k=k, a=a, b=b)
            pairs = [p for p in tg.solve_system(tg.reduce(m), theta) if p.h != 0.0 and p.l != 0.0]
            if pairs:
                pair = rng.choice(pairs)
                return TreeInput(k, depth, a, b, theta, pair.h, pair.l, rng.choice(LABELS),
                                 rng.randrange(2**31) if seeded else None)

    def warm_up(self) -> list[Op]:
        rng = random.Random(f"tree:{self.seed}:warm")
        return [self._op("warm", self._draw(rng, *self.WARM))]

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"tree:{self.seed}:{r}")
        return [self._op(f"r{r}.{i}", self._draw(rng, *slot)) for i, slot in enumerate(self.SLOTS)]

    def _op(self, key, x: TreeInput) -> Op:
        tg = self.tg

        def run():
            tree = tg.build_tree(x.k, x.depth)
            m = tg.SchemeMatrix(k=x.k, a=x.a, b=x.b)
            asg = tg.assign_fields(tree, m, tg.FieldLabel(x.root), tg.FieldPair(x.h, x.l),
                                   seed=x.seed)
            compat = tg.verify_compatibility(asg, x.theta)
            text = tg.export_assignment(asg)
            back = tg.parse_assignment(text)
            return asg, compat, text, back

        def check(result) -> Outcome:
            asg, compat, text, back = result
            where = f"tree k={x.k} depth={x.depth} seed={x.seed}"
            vertices = _sites(x.k, x.depth)
            _require(asg.tree.num_vertices == vertices, f"{where}: vertex count")
            _require(compat.passed, f"{where}: compatibility residual {compat.max_residual}")
            _require((back.values.h, back.values.l) == (x.h, x.l), f"{where}: values changed")
            _require(back.labels == asg.labels, f"{where}: labels changed")
            members = [tg.FieldLabel(lab) for lab in LABELS]
            start = 0
            for level, expected in enumerate(_level_counts(x.a, x.b, x.root, x.depth)):
                width = x.k ** level
                row = asg.labels[start:start + width]
                _require([row.count(lab) for lab in members] == expected,
                         f"{where}: level {level} label counts")
                start += width
            return Outcome(vertices, False, _digest(text))

        return Op(f"tree:{key}", run, check)


WORKLOADS = {"sweep": Sweep, "verify": Verify, "tree": Tree}
