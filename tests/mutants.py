"""The mutation ledger: named single-line faults that tier-1 must catch.

Each mutant replaces one exact text of a module under src/ with a wrong
one, and names the layer it breaks and the test expected to kill it.
The script copies the repository's files as they stand in the working
tree (tracked ones, and new ones git does not ignore) once per mutant,
applies the mutant to its copy and runs tier-1 there with -x.  A mutant
is killed when a test fails, and survives when tier-1 passes; the
unmutated copy ("control") must pass.  Two copies run at a time, and
MUTANTS.json at the repository root records, per mutant, the result,
the first failing test and the seconds taken.  The exit code is 1 on
any survivor, error or failed control, and 2 when an old text does not
occur exactly once under src/ (test_structure.py::test_mutant_anchors
checks that in tier-1 too, and is deselected in the mutated copies,
where it fails by construction).

A survivor is closed by a new oracle test, never by dropping the mutant.
A change that rewrites a mutated line updates its entry here.

    OPENBLAS_NUM_THREADS=1 python tests/mutants.py
"""
from __future__ import annotations

import collections
import concurrent.futures
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
ANCHOR_TEST = "tests/test_structure.py::test_mutant_anchors"

Mutant = collections.namedtuple("Mutant", "name file old new layer killer")

MUTANTS = [
    Mutant("k1-no-half-cell", "src/crossimpact/kernels.py",
           "values[1:] = k0 + csum[:tau_max] + 0.5 * g[1:]",
           "values[1:] = k0 + csum[:tau_max]", "kernels",
           "tests/test_acceptance.py::test_criterion_analytic_oracle"),
    Mutant("kyle-without-half", "src/crossimpact/kernels.py",
           "m = li.T @ inner @ li / np.sqrt(2.0)",
           "m = li.T @ inner @ li", "kernels",
           "tests/test_acceptance.py::test_criterion_kyle_identity"),
    Mutant("omega-lags-over-n-minus-tau", "src/crossimpact/observables.py",
           "lags[tau] = q[tau:].T @ q[:n - tau] / n",
           "lags[tau] = q[tau:].T @ q[:n - tau] / (n - tau)", "observables",
           "tests/test_observables.py::TestOmega::"
           "test_alternating_sequence_exact"),
    Mutant("omega-inf-without-transpose", "src/crossimpact/observables.py",
           "terms[1:] = w[1:, None, None] * (omega[1:] + "
           "omega[1:].transpose(0, 2, 1))",
           "terms[1:] = w[1:, None, None] * 2.0 * omega[1:]", "observables",
           "tests/test_observables.py::TestAggregatesAndSpectrum::"
           "test_aggregate_equals_lag_loop[6-2]"),
    Mutant("k1-transposed-inverse", "src/crossimpact/kernels.py",
           "g[:p] = lam @ l0 @ factor.inverse[:p]",
           "g[:p] = lam @ l0 @ factor.inverse[:p].transpose(0, 2, 1)",
           "kernels",
           "tests/test_acceptance.py::test_criterion_analytic_oracle"),
    Mutant("predict-plateau-one-lag-late", "src/crossimpact/arbitrage.py",
           "lagged_cum[L + 1:] = cum[:n - L - 1]",
           "lagged_cum[L + 2:] = cum[:n - L - 2]", "arbitrage",
           "tests/test_acceptance.py::"
           "test_criterion_martingale_desk_check"),
    Mutant("pricer-lam-transposed", "src/crossimpact/hawkes.py",
           "axis=0) @ lam.T", "axis=0) @ lam", "hawkes",
           "tests/test_cli.py::TestDerivedPrices::"
           "test_spec_estimate_matches_price_tapes"),
    Mutant("cost-cubic-over-3", "src/crossimpact/arbitrage.py",
           "dk * (s * s * s) / (6.0 * dv)", "dk * (s * s * s) / (3.0 * dv)",
           "arbitrage",
           "tests/test_arbitrage.py::TestCost::test_matches_loop_oracle"),
    Mutant("sigma-days-scaled", "src/crossimpact/observables.py",
           "mats.append(r.T @ r / (r.shape[0] - 1))",
           "mats.append(r.T @ r / (r.shape[0] - 1) * (1 + 0.02 * day))",
           "observables",
           "tests/test_observables.py::TestSigma::"
           "test_unbiased_per_day_average_exact"),
    Mutant("bartlett-over-tau-max-plus-2", "src/crossimpact/observables.py",
           "np.arange(tau_max + 1) / (tau_max + 1.0)",
           "np.arange(tau_max + 1) / (tau_max + 2.0)", "observables",
           "tests/test_observables.py::TestAggregatesAndSpectrum::"
           "test_bartlett_weights_and_their_omega_inf"),
    Mutant("nsa-verdict-without-lambda-symmetry",
           "src/crossimpact/kernels.py",
           "min_eig >= -tol and lam_sym <= tol", "min_eig >= -tol",
           "kernels",
           "tests/test_kernels.py::TestNsaCheck::"
           "test_asymmetric_lambda_alone_fails"),
    Mutant("k2-lambda-absolute-eigenvalues", "src/crossimpact/kernels.py",
           "np.diag(np.maximum(lam_w, 0.0))", "np.diag(np.abs(lam_w))",
           "kernels",
           "tests/test_kernels.py::TestRegularize::"
           "test_indefinite_lambda_projected_to_psd"),
    Mutant("omega-inf-floor-at-zero", "src/crossimpact/observables.py",
           "floor = OMEGA_FLOOR * max(np.trace(agg), 1e-300)",
           "floor = 0.0 * max(np.trace(agg), 1e-300)", "observables",
           "tests/test_kernels.py::TestBoundaryMatrices::"
           "test_near_singular_omega_inf_floored[0]"),
    Mutant("tail-nan-converges", "src/crossimpact/kernels.py",
           "None if tail <= self.tail_tol else fault",
           "None if not tail > self.tail_tol else fault", "kernels",
           "tests/test_arbitrage.py::TestMinRoundtrip::"
           "test_nan_flow_tail_refused_past_the_lattice"),
]


def anchor_faults(root=ROOT):
    """One line per mutant whose old text is not found exactly once among
    the modules under root/src, or not in its own file."""
    sources = {path.relative_to(root).as_posix(): path.read_text()
               for path in sorted((root / "src").rglob("*.py"))}
    faults = []
    for m in MUTANTS:
        where = {f: text.count(m.old) for f, text in sources.items()
                 if m.old in text}
        if where != {m.file: 1}:
            faults.append(f"{m.name}: {m.old!r} occurs {where or 0} times")
    return faults


def tracked_copy(dest):
    """Copy the working tree's files that git tracks or would track (not
    ignored) under dest."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=ROOT, check=True,
        capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_one(mutant):
    """(passed, failed or error; the first failing test, or the last
    output line of an error; seconds) of tier-1 on a fresh copy with
    mutant applied, or with none for None."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = pathlib.Path(tmp)
        tracked_copy(copy)
        if mutant is not None:
            path = copy / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
             "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--deselect", ANCHOR_TEST],
            cwd=copy, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    result = {0: "passed", 1: "failed"}.get(proc.returncode, "error")
    first = failed.group(1) if failed else None
    if result == "error" and first is None:
        first = ((proc.stderr + proc.stdout).strip().splitlines()
                 or [None])[-1]
    return result, first, round(time.perf_counter() - start, 1)


def main():
    faults = anchor_faults()
    if faults:
        print("\n".join(faults), file=sys.stderr)
        return 2
    runs = [None] + MUTANTS
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        outcomes = list(pool.map(run_one, runs))
    control, *results = outcomes
    ledger = {"control": dict(zip(("result", "first_failure", "seconds"),
                                  control)),
              "mutants": []}
    for m, (result, first, seconds) in zip(MUTANTS, results):
        result = {"passed": "survived", "failed": "killed"}.get(result,
                                                               result)
        ledger["mutants"].append({
            "name": m.name, "file": m.file, "layer": m.layer,
            "old": m.old, "new": m.new, "expected": m.killer,
            "result": result, "first_failure": first, "seconds": seconds})
        print(f"{result:8s} {m.name}: {first} ({seconds} s)")
    print(f"{control[0]:8s} control ({control[2]} s)")
    (ROOT / "MUTANTS.json").write_text(json.dumps(ledger, indent=1) + "\n")
    ok = control[0] == "passed" and all(
        r["result"] == "killed" for r in ledger["mutants"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
