"""Mutation check of the outlier filter's median selection, the Gram
kernel, the estimators, the estimation options' checks and the process
pool's daemon guard.

Each mutant below is applied to a copy of the working tree as it is
(without hidden files and directories), and the tier-1 suite runs on the
copy, stopping at its first failure. A mutant that no tier-1 test fails
survives. Usage:

    python tools/mutation_check.py [--workdir DIR]

The copies go to a fresh directory under DIR (the system temporary
directory by default) and are removed afterwards. Each run of the suite
takes up to about a minute on two CPUs, so the eighteen mutants take
up to about eighteen minutes. The exit status is 1 if any mutant survives.
``tests/test_mutation_check.py``, which checks that each mutant's text
occurs once in its target, is left out of the mutated runs.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIMULATE = Path("src/chronident/simulate.py")
STABILITY = Path("src/chronident/stability.py")
ACOV = Path("src/chronident/ident_acov.py")
MDM = Path("src/chronident/ident_mdm.py")
NUMERICS = Path("src/chronident/numerics.py")
CLI = Path("src/chronident/cli.py")
GUARD = "tests/test_mutation_check.py"  # fails on any mutated tree

# (name, target file, text in it, replacement)
MUTANTS = [
    ("rank k + 1", SIMULATE, "    k = (n - 1) // 2\n", "    k = (n - 1) // 2 + 1\n"),
    (
        "even n returns rank k alone",
        SIMULATE,
        "    ranks = [j] if n % 2 else [j, j + 1]\n",
        "    ranks = [j]\n",
    ),
    (
        "negative values keyed as positive ones",
        SIMULATE,
        "    flip = bits >> 63\n",
        "    flip = np.zeros_like(bits)\n",
    ),
    (
        "no final partition",
        SIMULATE,
        "        gathered.partition([r for r in ranks if r < m])\n",
        "",
    ),
    (
        "Gram kernel without the mirrored lower triangle",
        STABILITY,
        "    grams[:, rows, cols] = grams[:, cols, rows] = upper\n",
        "    grams[:, rows, cols] = upper\n",
    ),
    (
        # a record of one block per m is unaffected; a longer one loses its tail
        "Gram kernel without the last partial block",
        STABILITY,
        "            width = min(_WIDTH, count - start)\n",
        "            width = min(_WIDTH, count - start)\n"
        "            if start and width < _WIDTH:\n"
        "                break\n",
    ),
    (
        "ACOV se x100",
        ACOV,
        "    return wishart_fit(build_regression(acov, n), acov.sigma2, acov.scale, n)\n",
        "    x, diag = wishart_fit(build_regression(acov, n), acov.sigma2, acov.scale, n)\n"
        "    diag[\"se\"] = 100.0 * diag[\"se\"]\n"
        "    return x, diag\n",
    ),
    (
        "ACOV drift fit counts masked samples",
        ACOV,
        "        np.copyto(wb, valid[:, start : start + v.size])\n",
        "        wb[...] = 1.0\n",
    ),
    (
        # the first difference leaves each window's frequency term in the residues
        "MDM residues of the first difference",
        MDM,
        "    D = Z[:, 2:] - 2.0 * Z[:, 1:-1] + Z[:, :-2]\n",
        "    D = Z[:, 2:] - Z[:, 1:-1]\n",
    ),
    (
        "MDM without the drift correction",
        MDM,
        "    centred = residues - correction[:, None]\n",
        "    centred = residues\n",
    ),
    (
        "MDM drifts without the pivot drift",
        MDM,
        "    drifts = d1 + mean.reshape(system.L - 2, system.n_z).mean(axis=0) / system.Ts**2\n",
        "    drifts = mean.reshape(system.L - 2, system.n_z).mean(axis=0) / system.Ts**2\n",
    ),
    (
        "MDM se x100",
        MDM,
        "        return wishart_fit(system.theta_map, moment, 1.0 / count, system.n)\n",
        "        x, diag = wishart_fit(system.theta_map, moment, 1.0 / count, system.n)\n"
        "        diag[\"se\"] = 100.0 * diag[\"se\"]\n"
        "        return x, diag\n",
    ),
    (
        # ACOV's design has n(n+1) columns, MDM's n(n+3)/2
        "uniform ACOV weights",
        NUMERICS,
        "        sqrt_w = np.sqrt(1.0 / wishart_variance(moments, scale).ravel())\n",
        "        sqrt_w = (np.ones(sample.size) if design.shape[1] == n * (n + 1)\n"
        "                  else np.sqrt(1.0 / wishart_variance(moments, scale).ravel()))\n",
    ),
    (
        "no long-double refinement step",
        NUMERICS,
        "        y = y + Vt.T @ ((U.T @ resid.astype(float)) / s)\n",
        "",
    ),
    (
        "options accept any method name",
        CLI,
        "        if self.method not in METHODS:\n"
        "            names = \" or \".join(map(repr, METHODS))\n"
        "            raise ValueError(f\"method must be {names}, got '{self.method}'\")\n",
        "",
    ),
    (
        # the estimators still reject a non-finite d1, but only once a record is read or simulated
        "options accept a non-finite d1",
        CLI,
        "        if self.d1 is not None and not np.isfinite(self.d1):\n"
        "            raise ValueError(f\"pivot drift d1 must be finite, got {self.d1}\")\n",
        "",
    ),
    (
        # remove_outliers can reject a channel only once a run is simulated
        "a run the outlier filter rejects ends the study",
        CLI,
        "    try:  # remove_outliers rejects a channel with more than half its samples flagged\n"
        "        record = _filter_outliers(record, outlier_k)\n"
        "    except Exception as exc:  # every method's run fails alike\n"
        "        error = f\"{type(exc).__name__}: {exc}\"\n"
        "        return run_idx, {opts.method: {\"theta\": None, \"error\": error}"
        " for opts in per_method}\n",
        "    record = _filter_outliers(record, outlier_k)\n",
    ),
    (
        # a daemonic process may not start children: its pool fails to start a worker
        "pool started in a daemonic process",
        SIMULATE,
        "    if workers > 1 and not multiprocessing.current_process().daemon:\n",
        "    if workers > 1:\n",
    ),
]


def run_mutant(workdir: Path, name: str, target: Path, old: str, new: str) -> str | None:
    """The first tier-1 test that fails with the mutant applied, or None."""
    tree = workdir / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".*", "__pycache__"))
    try:
        source = (tree / target).read_text()
        if source.count(old) != 1:
            raise SystemExit(f"mutant {name!r}: its text is not found once in {target}")
        (tree / target).write_text(source.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore", GUARD],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        if result.returncode == 0:
            return None
        failed = [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
        return failed[0] if failed else f"pytest exit status {result.returncode}"
    finally:
        shutil.rmtree(tree)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None, help="where the copies go")
    args = parser.parse_args()
    killed = 0
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        for name, target, old, new in MUTANTS:
            failure = run_mutant(Path(workdir), name, target, old, new)
            killed += failure is not None
            print(f"{name}: {'killed by ' + failure if failure else 'SURVIVED'}", flush=True)
    print(f"kill rate {killed}/{len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
