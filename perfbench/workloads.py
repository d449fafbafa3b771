"""The three workloads: their operations, seed-drawn inputs and output checks.

Every operation goes through the public API of q2rep, mostly
``q2rep.cli.main(argv)``.  An operation is checked after its timer stops;
``check`` returns None when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

import reference

HERE = Path(__file__).resolve().parent
REFERENCE_CACHE = HERE / "out" / "reference-cache.json"
# the references for every k2 in K2_VALUES, so that no run has to compute
# them (about 21 s per k2); rewritten by `run.py --write-references`
SHIPPED_REFERENCES = HERE / "references.json"
P_SPECTRA = (8, 16, 32)
RTOL = 1e-9  # the contract q2rep.spectra states for every printed float
SECTORS = (43, 44, 50, 51)
BASES = ("lambda_chi", "mu", "third", "vw")
GENERATOR_COUNT = 8
VERIFY_SUITES = {  # suite -> exact checks for a single p
    "graded-jacobi": 512,
    "rep-homomorphism": 256,
    "gram-adjointness": 2,
    "lambda-chi-orthogonality": 1,
    "so4-identification": 8,
    "so4-casimir-scalar": 3,
}
# At every k2 here the seed commit misses its 1e-9 contract on all four
# sphaleron sectors at p = 16 (by 45x or more) and p = 32 (ROADMAP Open item 2)
# and meets it at p = 8 (by 30x or more), so failed_share is the same for
# every seed and a fix shows.  k2 = 1/2 misses at p = 16 by only 2.5x, too
# close for a count that must repeat on every machine.
K2_VALUES = tuple(Fraction(a, b) for a, b in ((3, 5), (2, 3), (3, 4), (4, 5), (5, 6)))
# The known defect is exactly this outcome: every eigenvalue real and printed,
# their sum on the exact trace, and the worst one off by more than RTOL but at
# most DEFECT_CEILING (the seed's worst, over the pool above, is 9.5e-2 at
# p = 32).  Any other failure of those operations is unexpected.
CONTRACT_MISS = "relative error"
DEFECT_CEILING = 0.5


@dataclass(frozen=True)
class Outcome:
    rc: Any  # exit code of a CLI operation, None for an in-process call
    out: str
    value: Any  # return value of an in-process call


@dataclass
class Op:
    name: str
    tier: str  # "low", "high" or "mid"
    check: Callable[[Outcome], str | None]
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None
    known_defect: str | None = None  # why the seed commit fails this check


def is_known_defect(op: Op, problem: str | None) -> bool:
    """True when problem is the documented way the seed commit fails op."""
    return bool(op.known_defect and problem and problem.startswith(CONTRACT_MISS))


def tier(p: int, sizes: Sequence[int]) -> str:
    """Tier of size p among a workload's sizes: the lower half is "low", the
    upper third (rounded up) "high", the rest "mid".

    On a shared host the speed drifts by up to 2x over tens of seconds, so a
    tier sum is only as steady as the share of the run its operations cover:
    verify p = 8 alone (28% of a pass) spread past the 25% bound between runs.
    """
    rank, n = sorted(sizes).index(p), len(sizes)
    return "low" if rank < n // 2 else "high" if rank >= n - math.ceil(n / 3) else "mid"


def draw_params(seed: int) -> dict[str, Fraction]:
    """Model parameters as small-height positive rationals, from the seed only."""
    rng = random.Random(seed)

    def rat(num_hi: int, den_hi: int) -> Fraction:
        return Fraction(rng.randint(1, num_hi), rng.randint(1, den_hi))

    return {"c": rat(9, 4), "V": rat(5, 4), "omega": rat(9, 3), "g": rat(3, 4), "k2": rng.choice(K2_VALUES)}


def close(a: float, b: float) -> bool:
    """Same relative contract as q2rep.spectra.values_close, restated here."""
    return abs(a - b) <= max(RTOL * max(abs(a), abs(b)), RTOL)


# verify-sweep ------------------------------------------------------------------

def _check_verify(p: int) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit code {o.rc}"
        lines = o.out.splitlines()
        suites = {}
        for line in lines:
            parts = line.split()
            if len(parts) >= 4 and parts[2] == "checks":
                suites[parts[0]] = (int(parts[1]), " ".join(parts[3:]))
        for suite, count in VERIFY_SUITES.items():
            if suites.get(suite) != (count, "pass"):
                return f"{suite}: got {suites.get(suite)}, want ({count}, 'pass')"
        want = f"casimir values p={p}: C1={Fraction(p * p + 2, 4)} C2={Fraction(p * p - 4, 4)}"
        return None if want in lines else f"casimir line missing: {want!r}"

    return check


def verify_sweep(seed: int, in_child: Callable) -> list[Op]:
    return [
        Op(f"verify p={p}", tier(p, range(1, 9)), _check_verify(p), argv=["verify", "--p", str(p)])
        for p in range(1, 9)
    ]


# spectra-export ----------------------------------------------------------------

def _check_closed_form(p: int) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit code {o.rc}"
        payload = json.loads(o.out)
        if payload["p"] != p or len(payload["eigenvalues"]) != 2 * p:
            return f"wrong shape: p={payload['p']}, {len(payload['eigenvalues'])} eigenvalues"
        return None if payload["closed_form_match"] is True else "closed_form_match is not true"

    return check


def _check_sphaleron(reference: tuple[list[float], int]) -> Callable[[Outcome], str | None]:
    roots, n = reference
    # the CLI prints lambda = -eig(Delta)
    want = sorted(-r for r in roots)

    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit code {o.rc}"
        if len(want) != n:
            return f"exact spectrum has {n - len(want)} non-real eigenvalues"
        got = sorted(e["float"] for e in json.loads(o.out)["eigenvalues"])
        if len(got) != n:
            return f"{len(got)} eigenvalues printed, want {n}"
        if not all(math.isfinite(x) for x in got):
            return "a printed eigenvalue is not finite"
        # eig is backward stable: even where single eigenvalues drift, their
        # sum keeps the exact trace (to 2e-14 relative at the seed)
        if abs(sum(got) - sum(want)) > RTOL * max(sum(abs(x) for x in want), 1.0):
            return f"eigenvalue sum {sum(got)!r} misses the exact trace {sum(want)!r}"
        if all(close(a, b) for a, b in zip(got, want)):
            return None
        worst = max(abs(a - b) / max(abs(a), abs(b), 1.0) for a, b in zip(got, want))
        if worst > DEFECT_CEILING:
            return f"eigenvalues far from the exact reference (worst relative error {worst:.2e})"
        return f"{CONTRACT_MISS} {worst:.2e} against the exact reference exceeds {RTOL:g}"

    return check


def _check_digest(digest: str) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit code {o.rc}"
        got = hashlib.sha256(o.out.encode()).hexdigest()
        return None if got == digest else f"export differs from the seed commit (sha256 {got[:12]})"

    return check


def _model_argv(model: str, params: dict[str, Fraction], p: int) -> list[str]:
    if model == "moszkowski":
        extra = ["--c", str(params["c"]), "--V", str(params["V"])]
    elif model == "jc":
        extra = ["--omega", str(params["omega"]), "--g", str(params["g"])]
    else:
        extra = ["--case", model.removeprefix("sphaleron"), "--k2", str(params["k2"])]
    model_arg = "sphaleron" if model.startswith("sphaleron") else model
    return ["spectrum", "--model", model_arg, *extra, "--p", str(p)]


def sphaleron_rows(case: int, p: int, k2: Fraction) -> list[list[Fraction]]:
    from q2rep import models

    spec = models.ModelSpec(models.Model(f"sphaleron{case}"), p, {"k2": k2})
    return [[x.rat for x in row] for row in models.raw_matrix(spec)]


def references(matrices: dict) -> dict:
    """Exact reference spectra of the named matrices (see reference.py)."""
    return reference.cached_real_roots(matrices, REFERENCE_CACHE, SHIPPED_REFERENCES)


def write_shipped_references() -> int:
    """Rewrite SHIPPED_REFERENCES with exactly the K2_VALUES matrices; returns the entry count."""
    matrices = {(k2, case, p): sphaleron_rows(case, p, k2) for k2 in K2_VALUES for case in SECTORS for p in P_SPECTRA}
    references(matrices)
    known = {**reference.load(SHIPPED_REFERENCES), **reference.load(REFERENCE_CACHE)}
    keys = sorted({reference.reference_key(rows) for rows in matrices.values()})
    SHIPPED_REFERENCES.write_text(json.dumps({k: known[k] for k in keys}) + "\n")
    return len(keys)


def spectra_export(seed: int, in_child: Callable) -> list[Op]:
    params = draw_params(seed)
    digests = json.loads((HERE / "rep_digests.json").read_text())
    # exact references come from a separate process, so that no cache the
    # program fills while building the matrices reaches a timed operation
    refs = in_child(
        lambda: references({(case, p): sphaleron_rows(case, p, params["k2"]) for case in SECTORS for p in P_SPECTRA})
    )
    ops = []
    for p in P_SPECTRA:
        t = tier(p, P_SPECTRA)
        for model in ("moszkowski", "jc"):
            ops.append(Op(f"spectrum {model} p={p}", t, _check_closed_form(p), argv=_model_argv(model, params, p)))
        for case in SECTORS:
            model = f"sphaleron{case}"
            defect = (
                "numpy eig on the non-normal sector matrix misses the 1e-9 contract (ROADMAP Open item 2)"
                if p >= 16
                else None
            )
            ops.append(
                Op(f"spectrum {model} p={p}", t, _check_sphaleron(refs[case, p]),
                   argv=_model_argv(model, params, p), known_defect=defect)
            )
        for basis in BASES:
            ops.append(
                Op(f"rep {basis} p={p}", t, _check_digest(digests[f"{basis}/p{p}"]),
                   argv=["rep", "--basis", basis, "--p", str(p)])
            )
    return ops


# oracle-sweep ------------------------------------------------------------------

def _check_realization(which: int) -> Callable[[Outcome], str | None]:
    want = f"check-realization {which}: {GENERATOR_COUNT}/{GENERATOR_COUNT} matrices match"

    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit code {o.rc}"
        last = o.out.rstrip().splitlines()[-1:]
        return None if last == [want] else f"got {last}, want {want!r}"

    return check


def _check_true(what: str) -> Callable[[Outcome], str | None]:
    return lambda o: None if o.value is True else f"{what} differ"


def oracle_sweep(seed: int, in_child: Callable) -> list[Op]:
    from q2rep import linalg, models, reduction

    params = draw_params(seed)
    model_params = {
        "moszkowski": {"c": params["c"], "V": params["V"]},
        "jc": {"omega": params["omega"], "g": params["g"]},
        **{f"sphaleron{case}": {"k2": params["k2"]} for case in SECTORS},
    }
    ops = []
    for p in range(1, 7):
        t = tier(p, range(1, 7))
        for which in (1, 2, 3):
            ops.append(Op(f"check-realization {which} p={p}", t, _check_realization(which),
                          argv=["check-realization", "--which", str(which), "--p", str(p)]))
        for model, values in model_params.items():
            spec = models.ModelSpec(models.Model(model), p, values)
            ops.append(Op(
                f"rewrite {model} p={p}", t, _check_true("expression and raw matrices"),
                call=lambda spec=spec: linalg.equal(models.expression_matrix(spec), models.raw_matrix(spec)),
            ))
        if p <= 3:
            for case in SECTORS:
                spec = models.ModelSpec(models.Model(f"sphaleron{case}"), p, {"k2": params["k2"]})

                def derived(case=case, p=p, spec=spec) -> bool:
                    raw = models.raw_matrix(spec)
                    rational = tuple(tuple(x.rat for x in row) for row in raw)
                    exact = all(x.is_rational() for row in raw for x in row)
                    return exact and reduction.derived_matrix(case, p, params["k2"]) == rational

                ops.append(Op(f"derived sphaleron{case} p={p}", t,
                              _check_true("derived and raw sector matrices"), call=derived))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    modules: tuple[str, ...]  # what a fresh interpreter imports before the first operation
    build: Callable[[int, Callable], list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-sweep",
                 "q2rep verify --p 1..8: dense exact matmul over ExtScalar in rep, algebra and so4",
                 ("q2rep.cli",), verify_sweep),
        Workload("spectra-export",
                 "spectrum and rep export at p 8/16/32: the only large-n work, exits to numpy and JSON",
                 ("q2rep.cli",), spectra_export),
        Workload("oracle-sweep",
                 "realizations, rewrites and the sympy oracle at p 1..6: small n, diffop and sympy",
                 ("q2rep.cli", "q2rep.reduction"), oracle_sweep),
    )
}
