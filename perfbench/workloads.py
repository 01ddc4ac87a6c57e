"""The benchmark's four seeded workloads against fqangle's public API.

Each workload builds its inputs from the seed alone, computes reference
answers outside the timed region, and hands the runner one *pass*: a
fixed list of timed calls, each with the check its output must meet and
the work it does.  A run repeats the pass until its time is up, so the
work counts of one pass repeat exactly for a given seed.

Why each workload exists is recorded in ``WHY`` and in README.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

WHY = {
    "oracle-sweep": "criterion 5's verification grid; the (q-1)-pass oracle does most of the work",
    "angle-kernel": "single-pass angle at 1e5-1e6 positions on both census paths; no oracle in the timed calls",
    "decode-small": "RS[7,3]/GF(7) decodes bound by per-call overhead outside the kernel",
    "decode-large": "RS[15,5]/GF(16) decodes bound by the 69,905-direction scan; the only codeword enumeration",
}


@dataclass
class Call:
    """One timed call: `run` is timed, `check` and `count` are not."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    work: int
    count: Callable[[object], dict] = lambda out: {}


@dataclass
class CliCase:
    argv: list[str]
    check: Callable[[str, int], bool]


@dataclass
class Workload:
    """Base class: subclasses fill in set-up, inputs and the pass."""

    fq: object  # the fqangle package
    seed: int
    toy: bool = False
    counts: dict = dataclass_field(default_factory=dict)  # fixed per-pass counts

    WORK_UNIT = "ops"  # what work_per_s counts on this workload
    CLI_CASES = 9  # distinct CLI commands; each runs CLI_REPEATS times
    CLI_REPEATS = 3

    def __post_init__(self):
        """Subclasses shrink their sizes here too when `toy` is set."""
        if self.toy:
            self.CLI_CASES, self.CLI_REPEATS = 2, 1

    def setup(self) -> None:
        """Cold set-up: every cache the timed calls rely on is rebuilt."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Seeded inputs and reference answers, outside any timed region."""
        raise NotImplementedError

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def cli_cases(self) -> list[CliCase]:
        raise NotImplementedError

    def stress(self, layer: Callable[[str, str], object], setup_s: float) -> list[tuple[str, float, bool]]:
        """The traced run's check that this workload loads the layer it was chosen for."""
        return []

    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])


def _nonzero_rows(rng: np.random.Generator, q: int, shape) -> np.ndarray:
    """Uniform rows over GF(q)^n, all-zero rows redrawn until nonzero."""
    A = rng.integers(0, q, size=shape, dtype=np.int64)
    A2 = np.atleast_2d(A)
    for i in np.flatnonzero(~A2.any(axis=1)):
        while not A2[i].any():
            A2[i] = rng.integers(0, q, size=A2.shape[1])
    return A


def _csv(row) -> str:
    return ",".join(str(int(x)) for x in row)


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


# ----------------------------------------------------------------------
# oracle-sweep
# ----------------------------------------------------------------------

class OracleSweep(Workload):
    """verify_oracle_equivalence over criterion 5's (q, n) grid."""

    GRID_Q = (3, 5, 7, 8, 9, 16, 251)
    GRID_N = (10, 100, 1000)
    TRIALS = 200
    WORK_UNIT = "pairs"

    def __post_init__(self):
        super().__post_init__()
        if self.toy:
            self.GRID_Q, self.GRID_N, self.TRIALS = (3, 16), (10, 30), 20

    def setup(self):
        self.fq.make_field.cache_clear()
        self.fields = {q: self.fq.field_from_order(q) for q in self.GRID_Q}

    def prepare(self):
        cells = [(q, n) for q in self.GRID_Q for n in self.GRID_N]
        seeds = self._rng(0).integers(0, 2**31, size=len(cells) + self.CLI_CASES)
        self.cells = [(q, n, int(s)) for (q, n), s in zip(cells, seeds)]
        self.cli_seeds = [int(s) for s in seeds[len(cells):]]
        T = self.TRIALS
        self.counts = {
            "calls": len(cells),
            "pairs_checked": T * len(cells),
            "positions": sum(T * n for _, n, _ in self.cells),
        }

    def calls(self):
        fq, T = self.fq, self.TRIALS
        out = []
        for q, n, s in self.cells:
            field = self.fields[q]
            out.append(Call(
                kind=f"q{q}-n{n}",
                run=lambda field=field, n=n, s=s: fq.verify_oracle_equivalence(field, n, T, s),
                check=lambda r: r.passed and r.checks_run == T,
                work=T,
            ))
        return out

    def cli_cases(self):
        trials = 100

        def check(stdout, code):
            doc = _json_or_none(stdout)
            return code == 0 and doc is not None and doc["failures"] == [] and doc["checks_run"] == trials

        argv = ["verify", "--suite", "oracle", "--q", "251", "--n", "100", "--trials", str(trials)]
        return [CliCase(argv + ["--seed", str(s)], check) for s in self.cli_seeds]

    def stress(self, layer, setup_s):
        timed = layer("timed", "bench.call").total_ns
        naive = layer("timed", "angle.angle_naive_rows").self_ns
        share = naive / timed
        return [("angle.angle_naive_rows self share of the timed calls > 0.5", share, share > 0.5)]


# ----------------------------------------------------------------------
# angle-kernel
# ----------------------------------------------------------------------

class AngleKernel(Workload):
    """angle_fast / argmin_scalar on long pairs, angle_fast_rows on a wide-field batch."""

    PAIR_FIELDS = ((251, 1), (2, 8))
    SIZES = (100_000, 1_000_000)
    BATCH_FIELD = (3, 10)
    BATCH_SHAPE = (1000, 100)
    NAIVE_SUBSET = 20
    CLI_N = 1000
    WORK_UNIT = "positions"

    def __post_init__(self):
        super().__post_init__()
        if self.toy:
            self.SIZES, self.BATCH_FIELD, self.BATCH_SHAPE = (1000, 5000), (3, 4), (40, 20)
            self.NAIVE_SUBSET, self.CLI_N = 5, 50

    def setup(self):
        fq = self.fq
        fq.make_field.cache_clear()
        self.pair_fields = [fq.make_field(p, m) for p, m in self.PAIR_FIELDS]
        self.batch_field = fq.make_field(*self.BATCH_FIELD)

    def prepare(self):
        fq = self.fq
        rng = self._rng(0)
        self.pairs = []  # (field, u, v, expected angle)
        for F in self.pair_fields:
            for n in self.SIZES:
                u = _nonzero_rows(rng, F.q, n)
                v = _nonzero_rows(rng, F.q, n)
                self.pairs.append((F, u, v, fq.angle_naive(fq.Vector(F, u), fq.Vector(F, v))))
        F = self.batch_field
        T, n = self.BATCH_SHAPE
        self.U = _nonzero_rows(rng, F.q, (T, n))
        self.V = _nonzero_rows(rng, F.q, (T, n))
        # every row against the np.unique census, a seeded subset against the oracle
        self.batch_census = np.array(
            [fq.argmin_scalar(fq.Vector(F, a), fq.Vector(F, b))[1] for a, b in zip(self.U, self.V)]
        )
        self.subset = np.sort(rng.choice(T, size=self.NAIVE_SUBSET, replace=False))
        self.batch_naive = fq.angle_naive_rows(F, self.U[self.subset], self.V[self.subset])
        F = self.pair_fields[0]
        self.cli_pairs = []
        for _ in range(self.CLI_CASES):
            u = _nonzero_rows(rng, F.q, self.CLI_N)
            v = _nonzero_rows(rng, F.q, self.CLI_N)
            self.cli_pairs.append((u, v, fq.angle_naive(fq.Vector(F, u), fq.Vector(F, v))))
        positions = 2 * sum(u.size for _, u, _, _ in self.pairs) + self.U.size
        self.counts = {"calls": 2 * len(self.pairs) + 1, "positions": positions}

    def _attains(self, F, u, v, c, angle) -> bool:
        return 1 <= c < F.q and int(np.count_nonzero(u != F.scalar_mul_array(c, v))) == angle

    def calls(self):
        fq = self.fq
        out = []
        for F, u, v, expected in self.pairs:
            tag = f"q{F.q}-n{u.size}"
            out.append(Call(
                kind=f"angle_fast-{tag}",
                run=lambda F=F, u=u, v=v: fq.angle_fast(fq.Vector(F, u), fq.Vector(F, v)),
                check=lambda a, e=expected: a == e,
                work=u.size,
            ))
            out.append(Call(
                kind=f"argmin_scalar-{tag}",
                run=lambda F=F, u=u, v=v: fq.argmin_scalar(fq.Vector(F, u), fq.Vector(F, v)),
                check=lambda r, F=F, u=u, v=v, e=expected: r[1] == e and self._attains(F, u, v, r[0], e),
                work=u.size,
            ))
        F = self.batch_field

        def check_batch(angles):
            return (np.array_equal(angles, self.batch_census)
                    and np.array_equal(angles[self.subset], self.batch_naive))

        out.append(Call(
            kind=f"angle_fast_rows-q{F.q}",
            run=lambda: fq.angle_fast_rows(F, self.U, self.V),
            check=check_batch,
            work=self.U.size,
        ))
        return out

    def cli_cases(self):
        F = self.pair_fields[0]
        cases = []
        for u, v, expected in self.cli_pairs:
            def check(stdout, code, u=u, v=v, e=expected):
                doc = _json_or_none(stdout)
                return (code == 0 and doc is not None and doc["angle"] == e
                        and self._attains(F, u, v, doc["argmin_c"], e))
            cases.append(CliCase(["angle", "--q", str(F.q), "--u", _csv(u), "--v", _csv(v)], check))
        return cases

    def stress(self, layer, setup_s):
        timed = layer("timed", "bench.call").total_ns
        names = ("angle.angle_fast_rows.bincount", "angle.angle_fast_rows.sort", "gf.div_array",
                 "angle.build_census", "vectors.Vector")
        share = sum(layer("timed", n).self_ns for n in names) / timed
        naive_calls = layer("timed", "angle.angle_naive_rows").calls
        return [
            ("self share of fast_rows + div_array + build_census + Vector in the timed calls > 0.5",
             share, share > 0.5),
            ("angle.angle_naive_rows calls in the timed calls == 0", naive_calls, naive_calls == 0),
        ]


# ----------------------------------------------------------------------
# decode-small, decode-large
# ----------------------------------------------------------------------

class Decode(Workload):
    """angular_decode on a Reed-Solomon code, one word per call.

    Three words in four are a direction plus an error pattern strictly
    inside the unique-decoding radius, drawn with criterion 9's weights
    and then rescaled; the fourth is uniform and nonzero.
    """

    FIELD = (7, 1)
    N, K = 7, 3
    POOL = 2048
    LIST_EVERY = 4  # every LIST_EVERY-th word is also list-decoded at RHO
    RHO = 2
    WORK_UNIT = "decodes"

    def setup(self):
        fq = self.fq
        fq.make_field.cache_clear()
        self.code = None  # drop the previous enumeration before building the next
        self.field = fq.make_field(*self.FIELD)
        self.code = fq.make_rs_code(self.field, self.N, self.K)
        fq.min_distance(self.code)  # cached on the code, like the directions below
        self.P = fq.codes.projective_codeword_matrix(self.code)

    def _canonical(self, M: np.ndarray) -> np.ndarray:
        F = self.field
        lead = M[np.arange(M.shape[0]), (M != 0).argmax(axis=1)]
        return F.mul_array(F.inv_table[lead][:, None], M)

    def prepare(self):
        fq, F = self.fq, self.field
        q, n = F.q, self.N
        d = n - self.K + 1  # Reed-Solomon codes are MDS
        t = (d - 1) // 2
        self.d_expected = d
        rng = self._rng(0)
        weights = np.array([math.comb(n, w) * (q - 1) ** w for w in range(t + 1)], dtype=float)
        words, near = [], []
        for i in range(self.POOL):
            if i % 4 == 3:
                words.append(_nonzero_rows(rng, q, n))
                near.append(None)
                continue
            j = int(rng.integers(self.P.shape[0]))
            w = int(rng.choice(t + 1, p=weights / weights.sum()))
            err = np.zeros(n, dtype=np.int64)
            err[rng.choice(n, size=w, replace=False)] = rng.integers(1, q, size=w)
            alpha = int(rng.integers(1, q))
            words.append(F.scalar_mul_array(alpha, F.add_array(self.P[j], err)))
            near.append((j, w))
        self.words = words
        listed = set(range(0, self.POOL, self.LIST_EVERY)) if self.LIST_EVERY else set()
        # reference angles from the oracle, for every word whose answer is not
        # fixed by construction
        self.naive = {}
        for i in sorted(listed | {i for i, x in enumerate(near) if x is None}):
            U = np.broadcast_to(words[i], self.P.shape)
            self.naive[i] = fq.angle_naive_rows(F, U, self.P)
        self.expected = []
        for i, x in enumerate(near):
            if x is None:
                angles = self.naive[i]
                a = int(angles.min())
                self.expected.append((2 * a < d, np.flatnonzero(angles == a), a))
            else:
                self.expected.append((True, np.array([x[0]]), x[1]))
        self.expected_list = {}
        for i in listed:
            angles = self.naive[i]
            order = np.argsort(angles, kind="stable")
            order = order[angles[order] < self.RHO]
            self.expected_list[i] = (order, angles[order])
        self.reps = self._canonical(self.P)
        n_list = len(listed)
        self.counts = {
            "decode_calls": self.POOL + n_list,
            "angular_decode_calls": self.POOL,
            "list_decode_calls": n_list,
            "rows_scanned": (self.POOL + n_list) * self.P.shape[0],
            "codewords_enumerated_per_setup": q ** self.K + self.P.shape[0],
        }

    def _check_decode(self, out, exp) -> bool:
        unique, idx, a = exp
        return (out.unique == unique and out.min_distance == self.d_expected
                and len(out.best) == idx.size and all(b == a for _, b in out.best)
                and np.array_equal(np.stack([pt.rep.coords for pt, _ in out.best]), self.reps[idx]))

    def _check_list(self, out, exp) -> bool:
        idx, angles = exp
        if len(out) != idx.size:
            return False
        if not out:
            return True
        return (np.array_equal([a for _, a in out], angles)
                and np.array_equal(np.stack([pt.rep.coords for pt, _ in out]), self.reps[idx]))

    def calls(self):
        # the code is looked up per call: a set-up between passes replaces it
        fq = self.fq
        out = []
        for i, (word, exp) in enumerate(zip(self.words, self.expected)):
            kind = "near" if i % 4 != 3 else "random"
            out.append(Call(
                kind=f"decode-{kind}",
                run=lambda word=word: fq.angular_decode(fq.Vector(self.field, word), self.code),
                check=lambda o, exp=exp: self._check_decode(o, exp),
                work=1,
                count=lambda o: {"tied_directions": len(o.best)},
            ))
            if i in self.expected_list:
                out.append(Call(
                    kind=f"list-{kind}",
                    run=lambda word=word: fq.projective_list_decode(fq.Vector(self.field, word), self.code,
                                                                    self.RHO),
                    check=lambda o, exp=self.expected_list[i]: self._check_list(o, exp),
                    work=1,
                    count=lambda o: {"listed_directions": len(o)},
                ))
        return out

    def cli_cases(self):
        argv = ["decode", "--q", str(self.field.q), "--code", "rs", "--n", str(self.N), "--k", str(self.K)]
        cases = []
        for i in range(self.CLI_CASES):
            unique, idx, a = self.expected[i]

            def check(stdout, code, unique=unique, idx=idx, a=a):
                doc = _json_or_none(stdout)
                if doc is None or code != (0 if unique else 3):
                    return False
                best = doc["best"]
                return (len(best) == idx.size and all(b["angle"] == a for b in best)
                        and [b["point"] for b in best] == [_csv(r) for r in self.reps[idx]])

            cases.append(CliCase(argv + ["--u", _csv(self.words[i])], check))
        return cases

    def stress(self, layer, setup_s):
        dec = layer("timed", "codes.angular_decode")
        kernel = dec.counts["kernel_ns"] / dec.total_ns
        return [("angle.angle_fast_rows share of codes.angular_decode < 0.5", kernel, kernel < 0.5)]


class DecodeSmall(Decode):
    def __post_init__(self):
        super().__post_init__()
        if self.toy:
            self.POOL = 64


class DecodeLarge(Decode):
    FIELD = (2, 4)
    N, K = 15, 5
    POOL = 16
    LIST_EVERY = 0
    CLI_CASES = 2
    CLI_REPEATS = 2

    def __post_init__(self):
        super().__post_init__()
        if self.toy:
            self.FIELD, self.N, self.K = (2, 3), 7, 3

    def stress(self, layer, setup_s):
        dec = layer("timed", "codes.angular_decode")
        kernel = dec.counts["kernel_ns"] / dec.total_ns
        cold = layer("setup", "codes.min_distance").counts["cold_ns"] / 1e9
        return [
            ("angle.angle_fast_rows share of codes.angular_decode > 0.5", kernel, kernel > 0.5),
            ("codes.min_distance.cold_s share of setup_s > 0.5", cold / setup_s, cold / setup_s > 0.5),
        ]


WORKLOADS = {
    "oracle-sweep": OracleSweep,
    "angle-kernel": AngleKernel,
    "decode-small": DecodeSmall,
    "decode-large": DecodeLarge,
}
