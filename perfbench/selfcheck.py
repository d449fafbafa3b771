"""Shows that a broken sphaleron spectrum makes the benchmark's result incorrect.

    python3 perfbench/selfcheck.py

At the seed commit every sphaleron ``spectrum`` at p >= 16 misses the 1e-9
contract (ROADMAP Open item 2), and run.py counts that one documented
outcome as a known defect, which leaves ``correct`` true.  This script runs
``q2rep spectrum`` for sector 44 at p = 16, then feeds the operation's check
that output and broken variants of it.  The seed output must be classed as
the known defect; every broken variant must be an unexpected failure, which
run.py turns into ``"correct": false``.  Exits 1 if any case is classed
otherwise.  Run it from the root of a checkout.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import sys
from contextlib import redirect_stdout

import run
from workloads import WORKLOADS, Outcome, _check_sphaleron, draw_params, is_known_defect, references, sphaleron_rows

OP = "spectrum sphaleron44 p=16"


def captured(argv: list[str]) -> tuple[int, str]:
    from q2rep import cli

    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def with_floats(text: str, floats: list[float]) -> str:
    """The export with its eigenvalue floats replaced; fewer floats drop entries."""
    payload = json.loads(text)
    payload["eigenvalues"] = [dict(e, float=x) for e, x in zip(payload["eigenvalues"], floats)]
    return json.dumps(payload)


def main() -> int:
    for var in run.BLAS_VARS:
        os.environ[var] = str(run.NPROC)
    sys.path.insert(0, str(run.SRC))
    import q2rep.cli  # noqa: F401  (the state every operation starts from)

    seed = run.DEFAULT_SEED
    op = next(o for o in WORKLOADS["spectra-export"].build(seed, run.in_child) if o.name == OP)
    rows = run.in_child(lambda: sphaleron_rows(44, 16, draw_params(seed)["k2"]))
    roots, n = references({OP: rows})[OP]
    rc, text = run.in_child(lambda: captured(op.argv))
    floats = [e["float"] for e in json.loads(text)["eigenvalues"]]
    diagonal = [-float(rows[i][i]) for i in range(n)]

    broken = {
        "exit code 1": Outcome(1, text, None),
        "one eigenvalue left out": Outcome(rc, with_floats(text, floats[1:]), None),
        "one eigenvalue NaN": Outcome(rc, with_floats(text, [float("nan")] + floats[1:]), None),
        "eigenvalues scaled by 1.001": Outcome(rc, with_floats(text, [1.001 * x for x in floats]), None),
        "matrix diagonal printed as eigenvalues": Outcome(rc, with_floats(text, diagonal), None),
    }
    cases = [("seed output", op.check(Outcome(rc, text, None)), True)]
    cases += [(name, op.check(o), False) for name, o in broken.items()]
    # an exact spectrum with two non-real roots cannot be checked, whatever is printed
    cases.append(("exact spectrum not all real", _check_sphaleron((roots[2:], n))(Outcome(rc, text, None)), False))
    # the whole path run.py takes, on an operation whose program output is wrong
    wrong_p = dataclasses.replace(op, argv=[*op.argv[:-1], "15"])
    cases.append(("program run at p = 15", run.in_child(lambda: run.execute(wrong_p)).problem, False))

    ok = True
    for name, problem, want_known in cases:
        known = is_known_defect(op, problem)
        good = known if want_known else problem is not None and not known
        ok &= good
        verdict = "known defect" if known else "unexpected failure" if problem else "pass"
        print(f"{'ok ' if good else 'BAD'} {name:40s} {verdict:18s} {problem}")
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
