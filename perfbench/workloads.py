"""The four benchmark workloads: seeded inputs, the operations of one pass,
and the check applied to each operation's output.

Every workload draws the inputs of each pass from a seeded generator over a
small pool whose members cost about the same, so the seed changes the inputs
but not the amount of work.  Each operation takes at most about a second, so
a run repeats every position of a pass many times.  Outputs are compared with references frozen
from the defining commit (`refs.json`, written by `freeze.py`) or with the
independent computations in `oracle.py`.

Inputs are normalised to average energy P = q, as the rotcon README does.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle

REL_TOL = 1e-12  # rates and product distances, relative
OPT_TOL_BITS = 1e-9  # an optimizer's optimum may fall short of the reference by this much
ORTHO_TOL = 1e-10
REFERENCE_SEED = 0  # the seed refs.json is frozen with

SIZES = {
    "family_sweep": {
        "full": {"grid_step": 1e-3,
                 # (qam, half_dims, Eb/N0 pool in dB): one grid search each per pass
                 "sets": [[16, 2, list(range(0, 15))], [4, 4, list(range(2, 10))]]},
        "tiny": {"grid_step": 1e-2, "sets": [[16, 2, [4, 8]], [4, 1, [2, 6]]]},
    },
    "rotated_report": {
        "full": {"qam": 1024, "half_dims": 1, "t_deg": [10, 15, 20, 25, 30, 35, 40],
                 "ebn0_db": [6, 8, 10, 12, 14], "radii": ["2", "inf"]},
        "tiny": {"qam": 16, "half_dims": 1, "t_deg": [30, 45], "ebn0_db": [10],
                 "radii": ["2", "inf"]},
    },
    "small_optimizers": {
        # Eb/N0 values at which the 6-bit ascent makes exactly 210 objective
        # evaluations (near 13.6 dB it makes 67,120) and the 16-QAM descent
        # 1747..1816 iterations
        "full": {"nuqam_q_bits": 6, "nuqam_per_pass": 3,
                 "nuqam_ebn0_db": [15.7, 15.8, 15.9, 16.6, 16.7, 16.8, 16.9, 17.0],
                 "descent_qams": [[4, 2], [16, 2]],
                 "descent_ebn0_db": [9.98, 9.99, 10.0, 10.01, 10.02]},
        "tiny": {"nuqam_q_bits": 4, "nuqam_per_pass": 1, "nuqam_ebn0_db": [8.0],
                 "descent_qams": [[4, 1], [4, 2]], "descent_ebn0_db": [10.0]},
    },
    "ber_link": {
        "full": {"qams": [[16, 2], [64, 2]], "t_deg": 60, "ebn0_db": [10, 14, 18],
                 "min_bits": 125_000},
        "tiny": {"qams": [[4, 1], [16, 2]], "t_deg": 60, "ebn0_db": [10, 14],
                 "min_bits": 10**4},
    },
}


@dataclass
class Op:
    """One timed call into rotcon.

    `call` is timed; `collect` turns its return value into plain data and is
    not timed; `check` returns None when that data is correct, else a reason.
    `frozen` picks the part of the collected data that freeze.py stores as
    the reference under `key`.
    """

    key: str
    call: Callable[[], Any]
    collect: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    frozen: Callable[[Any], Any] = lambda out: out


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    if a == b:
        return True
    return abs(a - b) <= tol * max(abs(a), abs(b))


def qam(rc, m: int, half_dims: int):
    x = rc.make_qam_product(m, half_dims)
    return rc.normalize_energy(x, float(x.q_bits))


def qam_key(m: int, half_dims: int) -> str:
    return f"qam{m}x{half_dims}"


class Workload:
    name = ""

    def __init__(self, rc, size: str, refs: dict | None, seed: int, work_dir):
        self.rc = rc
        self.cfg = SIZES[self.name][size]
        self.refs = refs
        self.seed = seed
        self.work_dir = work_dir
        self.rng = random.Random(f"{self.name}:{seed}")

    def ops(self, i: int) -> list[Op]:
        """Operations of pass i, drawn from the seeded generator."""
        raise NotImplementedError

    def pool(self) -> list[Op]:
        """One operation per input the passes can draw; freeze.py runs these."""
        raise NotImplementedError

    def ref(self, key: str):
        if self.refs is None or key not in self.refs:
            raise KeyError(f"no frozen reference for {self.name} {key}")
        return self.refs[key]

    def bits(self, out) -> int:
        """Simulated bits in one collected output (BER workloads only)."""
        return 0


class FamilySweep(Workload):
    """grid_search_t over the rotation family at the paper's 1e-3 rad step."""

    name = "family_sweep"

    def __init__(self, *args):
        super().__init__(*args)
        self.points = {qam_key(m, h): qam(self.rc, m, h) for m, h, _ in self.cfg["sets"]}

    def ops(self, i):
        return [self._op(qam_key(m, h), self.rng.choice(dbs)) for m, h, dbs in self.cfg["sets"]]

    def pool(self):
        return [self._op(qam_key(m, h), db) for m, h, dbs in self.cfg["sets"] for db in dbs]

    def _op(self, ckey, db):
        rc, x, step = self.rc, self.points[ckey], self.cfg["grid_step"]
        key = f"{ckey}@{db}"

        def check(res):
            ref = self.ref(key)
            if res["t_opt"] != ref["t_opt"]:
                return f"t_opt {res['t_opt']!r} != {ref['t_opt']!r}"
            if not rel_close(res["objective"], ref["objective"]):
                return f"objective {res['objective']!r} != {ref['objective']!r}"
            return None

        return Op(key,
                  lambda: rc.grid_search_t(x, rc.ChannelSpec.from_ebn0_db(db), grid_step=step),
                  lambda r: {"t_opt": r.t_opt, "objective": r.objective},
                  check)


# per-radius report fields compared to REL_TOL; diversity orders must match exactly
RATE_FIELDS = ("local_cutoff_rate", "min_product_distance", "min_product_distance_normalized")


class RotatedReport(Workload):
    """The CLI `metrics` report, in-process, on a family-rotated QAM."""

    name = "rotated_report"

    def __init__(self, *args):
        super().__init__(*args)
        self.out_path = str(self.work_dir / "report.json")

    def ops(self, i):
        return [self._op(self.rng.choice(self.cfg["t_deg"]), self.rng.choice(self.cfg["ebn0_db"]))]

    def pool(self):
        return [self._op(t, db) for t in self.cfg["t_deg"] for db in self.cfg["ebn0_db"]]

    def _op(self, t_deg, db):
        argv = ["metrics", "--qam", str(self.cfg["qam"]),
                "--half-dims", str(self.cfg["half_dims"]),
                "--rotate-t-deg", str(t_deg), "--ebn0-db", str(db)]
        for r in self.cfg["radii"]:
            argv += ["--radius", r]
        argv += ["--format", "json", "--out", self.out_path]
        key = f"{t_deg}@{db}"
        cli = self.rc.cli

        def check(res):
            if res["exit_code"] != 0:
                return f"exit code {res['exit_code']}"
            ref, doc = self.ref(key), res["report"]
            if doc["diversity_order"] != ref["diversity_order"]:
                return f"diversity {doc['diversity_order']} != {ref['diversity_order']}"
            pairs = [("cutoff_rate", doc["cutoff_rate"], ref["cutoff_rate"])]
            for field in RATE_FIELDS:
                for r, v in ref[field].items():
                    pairs.append((f"{field}[{r}]", doc[field][r], v))
            for what, got, want in pairs:
                if not rel_close(got, want):
                    return f"{what} {got!r} != {want!r}"
            return None

        return Op(key, lambda: cli.main(argv), self._collect, check,
                  frozen=lambda res: res["report"])

    def _collect(self, exit_code):
        if exit_code != 0:
            return {"exit_code": exit_code, "report": None}
        with open(self.out_path) as fh:
            doc = json.load(fh)
        fields = ("cutoff_rate", "diversity_order") + RATE_FIELDS
        return {"exit_code": 0, "report": {f: doc[f] for f in fields}}


class SmallOptimizers(Workload):
    """NUQAM ascent and SO(n) geodesic descent: many small objective evaluations."""

    name = "small_optimizers"

    def __init__(self, *args):
        super().__init__(*args)
        self.points = {qam_key(m, h): qam(self.rc, m, h) for m, h in self.cfg["descent_qams"]}

    def ops(self, i):
        ops = [self._nuqam_op(db) for db in
               self.rng.sample(self.cfg["nuqam_ebn0_db"], self.cfg["nuqam_per_pass"])]
        db = self.rng.choice(self.cfg["descent_ebn0_db"])
        return ops + [self._descent_op(qam_key(m, h), db) for m, h in self.cfg["descent_qams"]]

    def pool(self):
        return [self._nuqam_op(db) for db in self.cfg["nuqam_ebn0_db"]] + [
            self._descent_op(qam_key(m, h), db)
            for m, h in self.cfg["descent_qams"] for db in self.cfg["descent_ebn0_db"]]

    def _nuqam_op(self, db):
        rc, q_bits = self.rc, self.cfg["nuqam_q_bits"]
        key = f"nuqam{q_bits}@{db}"

        def check(res):
            a = res["alpha"]
            if any(v <= 0 for v in a) or any(a[j] >= a[j + 1] for j in range(len(a) - 1)):
                return f"levels not positive and increasing: {a}"
            n0 = 10.0 ** (-db / 10.0)
            recomputed = oracle.cutoff_rate(oracle.nuqam_points(a, q_bits), q_bits, n0)
            if not rel_close(res["objective"], recomputed):
                return f"reported rate {res['objective']!r} != pair sum {recomputed!r}"
            return self._check_optimum(key, recomputed)

        return Op(key,
                  lambda: rc.optimize_nuqam(q_bits, rc.ChannelSpec.from_ebn0_db(db)),
                  lambda r: {"alpha": list(r.alpha.alpha), "objective": r.objective},
                  check, frozen=lambda res: res["objective"])

    def _descent_op(self, ckey, db):
        rc, x = self.rc, self.points[ckey]
        key = f"descent_{ckey}@{db}"

        def check(res):
            q = np.array(res["rotation"])
            ortho = float(np.max(np.abs(q @ q.T - np.eye(len(q)))))
            if ortho > ORTHO_TOL or abs(np.linalg.det(q) - 1.0) > ORTHO_TOL:
                return f"final matrix is not a rotation (|QQ^T - I| = {ortho:.3g})"
            n0 = 10.0 ** (-db / 10.0)
            recomputed = oracle.cutoff_rate(x.points @ q.T, x.q_bits, n0)
            if not rel_close(res["rate"], recomputed):
                return f"reported rate {res['rate']!r} != pair sum {recomputed!r}"
            return self._check_optimum(key, recomputed)

        return Op(key,
                  lambda: rc.optimize_rotation_full(x, rc.ChannelSpec.from_ebn0_db(db)),
                  lambda tr: {"rotation": tr.final_rotation.entries.tolist(),
                              "rate": -tr.final_objective},
                  check, frozen=lambda res: res["rate"])

    def _check_optimum(self, key, rate):
        ref = self.ref(key)
        if rate < ref - OPT_TOL_BITS:
            return f"optimum {rate!r} is worse than the reference {ref!r}"
        return None


class BerLink(Workload):
    """Seeded Monte Carlo BER with brute-force ML decoding on rotated 4D QAM."""

    name = "ber_link"

    def __init__(self, *args):
        super().__init__(*args)
        rc = self.rc
        self.points = {}
        for m, h in self.cfg["qams"]:
            x = qam(rc, m, h)
            k = x.n.bit_length() - 1
            q = rc.rotation_at(rc.skew_family(k), math.radians(self.cfg["t_deg"]))
            self.points[qam_key(m, h)] = rc.rotate(x, q)
        self.offset = self.rng.randrange(len(self.cfg["ebn0_db"]))
        self._replayed = {}

    def ops(self, i):
        dbs = self.cfg["ebn0_db"]
        db = dbs[(self.offset + i) % len(dbs)]
        return [self._op(qam_key(m, h), db) for m, h in self.cfg["qams"]]

    def pool(self):
        return [self._op(qam_key(m, h), db)
                for m, h in self.cfg["qams"] for db in self.cfg["ebn0_db"]]

    def _op(self, ckey, db):
        rc, x, min_bits, seed = self.rc, self.points[ckey], self.cfg["min_bits"], self.seed
        key = f"{ckey}@{db}"

        def check(res):
            if seed == REFERENCE_SEED:
                want = self.ref(key)
            else:
                if key not in self._replayed:
                    self._replayed[key] = oracle.ber_replay(
                        x.points, x.labels, 10.0 ** (-db / 10.0), min_bits, seed)
                want = self._replayed[key]
            if res != want:
                return f"counts {res} != {want}"
            return None

        def collect(report):
            (row,) = report.rows
            return {"bits": row.bits_simulated, "bit_errors": row.bit_errors,
                    "symbols": row.symbols_simulated, "symbol_errors": row.symbol_errors}

        return Op(key,
                  lambda: rc.ber_monte_carlo(x, [rc.ChannelSpec.from_ebn0_db(db)],
                                             min_bits=min_bits, seed=seed),
                  collect, check)

    def bits(self, out):
        return out["bits"]


WORKLOADS = {w.name: w for w in (FamilySweep, RotatedReport, SmallOptimizers, BerLink)}
