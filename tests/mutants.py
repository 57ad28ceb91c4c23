"""Seeded one-line defects, each of which a named test must fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each row of MUTANTS is (name, file under src/ctreemix, old text, new text,
pytest node id of the test that must kill it).  The script copies src/,
tests/, pyproject.toml and README.md into a temporary directory and first
runs every named test there, unchanged; they must pass.  Then, one row at
a time, it replaces the single occurrence of the old text in the copy by
the new text, runs the row's test, and puts the file back.  A mutant whose test passes
survives.  The exit status is 0 when every mutant was killed, 1 when one
survived, and 2 when a row no longer applies (its old text does not occur
exactly once) or the unchanged copy fails.  Nothing is written outside the
temporary directory.

pytest does not collect this file (no ``test_`` prefix): it checks the
suite, not the library.  CI runs it after the Tier-1 tests.  Add a row for
each defect a new test is written to catch.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("m2-order-tie", "selection.py",
     "key=lambda cell: cell.log_evidence,",
     "key=lambda cell: (cell.log_evidence, cell.order),",
     "tests/test_selection.py::test_ties_prefer_smaller_order"),
    ("m5-unseen-leaf-half", "tree.py",
     "self._grow(self._p_leaf, self.beta, k,",
     "self._grow(self._p_leaf, 0.5, k,",
     "tests/test_tree.py::TestSampler::test_contexts_never_observed_are_leaves_with_probability_beta"),
    ("ar-store-reads-spare-rows", "ar.py",
     "if not 0 <= i < self.n:",
     "if not i < len(self.sums):",
     "tests/test_tree.py::test_store_rejects_an_id_outside_its_nodes[ar]"),
    ("arch-store-reads-from-the-end", "arch.py",
     "if not 0 <= i < len(self):",
     "if not i < len(self):",
     "tests/test_tree.py::test_store_rejects_an_id_outside_its_nodes[arch]"),
    ("map-tie-keeps-the-split", "tree.py",
     "wins[node] = win = split >= second",
     "wins[node] = win = split > second",
     "tests/test_tree.py::TestSweepOracle::test_batch_fit"),
    ("ar-variance-mode-without-plus-one", "ar.py",
     "(hp.tau + 0.5 * count + 1.0)",
     "(hp.tau + 0.5 * count)",
     "tests/test_ar.py::TestPredictive::test_plug_in"),
    ("arch-prior-without-log-alpha0", "arch.py",
     "+ loglik - log(th[0]) + log_box",
     "+ loglik + log_box",
     "tests/test_arch.py::TestLaplace::test_variance_only_matches_closed_form"),
    ("training-length-lt", "fit.py",
     "if n <= init:",
     "if n < init:",
     "tests/test_cli.py::test_training_prefix_of_exactly_the_initial_segment"),
    ("gaussian-density-without-2", "forecasting.py",
     "(x - mean) ** 2 / (2.0 * var)",
     "(x - mean) ** 2 / var",
     "tests/test_forecast.py::test_gaussian_log_density_matches_scipy"),
    ("log-beta-for-absent-depth-d-child", "tree.py",
     "[self._log_beta] * (depth - 1) + [0.0, None]",
     "[self._log_beta] * depth + [None]",
     "tests/test_tree.py::TestSweepOracle::test_batch_fit"),
    ("arch-no-upper-truncation", "arch.py",
     "upper = 1.0 if hi is None else _gauss_cdf((hi - th[j]) / s[j])",
     "upper = 1.0",
     "tests/test_arch.py::TestBatchKernel::test_alone_in_a_batch_and_scalar_oracle_agree"),
    ("arch-nonconverged-never-set", "arch.py",
     "state.nonconverged = (",
     "state.nonconverged = False and (",
     "tests/test_arch.py::TestBatchKernel::test_cases_reach_their_branches"),
    ("arch-one-warm-iteration", "arch.py",
     "WARM_ITERS = 2",
     "WARM_ITERS = 1",
     "tests/test_fit.py::test_arch_online_schedule"),
    ("arch-cold-refresh-every-49", "arch.py",
     "FULL_REFRESH_EVERY = 50",
     "FULL_REFRESH_EVERY = 49",
     "tests/test_fit.py::test_arch_online_schedule"),
    ("document-numbers-not-checked-finite", "io.py",
     "or -float_info.max <= value <= float_info.max)",
     "or True)",
     "tests/test_cli.py::test_non_finite_number_in_a_document_fails_with_one_error_line"),
    ("document-arch-intercept-dropped", "forecasting.py",
     'if kind == "arch" and intercept:',
     'if False:',
     "tests/test_io.py::TestDocuments::test_config_rejects_the_other_familys_knobs[arch-intercept]"),
    ("make-model-ignores-order", "forecasting.py",
     "leaf = self.leaf if order is None else replace(self.leaf, order=order)",
     "leaf = self.leaf",
     "tests/test_selection.py::test_every_cell_equals_a_fit_at_its_order[ar-deep]"),
]


def run_tests(copy: Path, tests: list[str]) -> bool:
    """Whether the tests pass in the copy, stopping at the first failure."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a mutated file of the same size and mtime must not meet a stale .pyc
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ctreemix-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        for name in ("pyproject.toml", "README.md"):  # README: tests compare it with the CLI and __all__
            shutil.copy2(ROOT / name, copy)
        for name, file, old, _, _ in MUTANTS:
            found = (copy / "src" / "ctreemix" / file).read_text().count(old)
            if found != 1:
                print(f"{name}: the old text occurs {found} times in {file}", file=sys.stderr)
                return 2
        if not run_tests(copy, sorted({row[4] for row in MUTANTS})):
            print("the named tests fail on the unchanged copy", file=sys.stderr)
            return 2
        survived = []
        for name, file, old, new, test in MUTANTS:
            path = copy / "src" / "ctreemix" / file
            text = path.read_text()
            path.write_text(text.replace(old, new))
            try:
                killed = not run_tests(copy, [test])
            finally:
                path.write_text(text)
            print(f"{'killed  ' if killed else 'SURVIVED'} {name} ({test})")
            if not killed:
                survived.append(name)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
