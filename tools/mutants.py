"""Run the certificate tests against one-line mutants of the bound code.

Usage: python tools/mutants.py

Each entry of MUTANTS names one term or step of a bound in ``src/torlinks``
and replaces one source line, matched after stripping its indentation, by a
weaker one. The tree is exported with ``git archive`` (of ``git stash
create``, so tracked changes not yet committed are included) into a
temporary directory; each mutant is applied there on its own and TESTS run
with ``python -m pytest -x``. A mutant is killed when a test fails and
survived when all pass. One line per mutant is printed; the exit code is 1
if any survived. A run stopped by SIGTERM removes the temporary directory
too, and exits with 128 + 15.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the test files every mutant runs against
TESTS = (
    "tests/test_certify_soundness.py",
    "tests/test_homotopy.py",
    "tests/test_threshold_checks.py",
    "tests/test_acceptance.py",
    "tests/test_lifting.py",
    "tests/test_cli.py",
    "tests/test_softtorus.py",
    "tests/test_jointspec.py",
)

#: (name, old line, new line); each old line occurs exactly once in src/
MUTANTS = (
    (
        "geo pair drops ||[H1, H2]||",
        "+ _term(commutator(sa.h, sb.h), tol, norm_a * norm_b)",
        "+ 0.0",
    ),
    (
        "geo pair drops ||B1|| ||[H1, B2]||",
        "+ _term(commutator(sa.h, sb.base), tol, norm_a)",
        "+ 0.0",
    ),
    (
        "geo normality drops the drift ||[H, B*B]||",
        "drift = _term(commutator(seg.h, gram), tol)",
        "drift = 0.0",
    ),
    (
        "distance leaf halves its Lipschitz slack",
        "bound = max((fa + fb) / 2.0 + self._seg.length * (b - a) / 2.0, bound)",
        "bound = max((fa + fb) / 2.0 + self._seg.length * (b - a) / 4.0, bound)",
    ),
    (
        "flat distance leaf takes the smaller end",
        "bound = max(fa, fb)",
        "bound = min(fa, fb)",
    ),
    (
        "distance at() halves its slope",
        "out[i] = min(self._f[a] + lip * (si - a), self._f[b] + lip * (b - si))",
        "out[i] = min(self._f[a] + lip * (si - a) / 2, self._f[b] + lip * (b - si) / 2)",
    ),
    (
        "flat distance always ends on y",
        "if seg.b is y or np.array_equal(seg.b, y):",
        "if True:",
    ),
    (
        "joint distance reused without an exact join",
        "if end is start or np.array_equal(end, start):",
        "if True:",
    ),
    (
        "Conj.value(0) drops the base shortcut",
        "return self.base",
        "return self._at(0.0)",
    ),
    (
        "quadratic bound drops its interior peak",
        "top = max(top, c0 - (c01 - 2.0 * c0) ** 2 / (4.0 * curv))",
        "top = top",
    ),
    (
        "cheap norm bound up to the whole tolerance",
        "_CHEAP_SHARE = 1e-3",
        "_CHEAP_SHARE = 1",
    ),
    (
        "epsilon_reported drops its rounding allowance",
        "eps = float(max(tree.upper for tree in trees) + _ROUNDOFF)",
        "eps = float(max(tree.upper for tree in trees))",
    ),
    (
        "Cholesky norm proof drops its rounding allowance r",
        "s = t * t * (1.0 - _CHOLESKY_ROUNDING * n * n)",
        "s = t * t",
    ),
    (
        "only exactly stationary curved factors are dropped",
        "dropped = all(c.length <= JOIN_TOL for c in curved_parts)",
        "dropped = all(c.length == 0.0 for c in curved_parts)",
    ),
    (
        "curved factors shorter than 1 are dropped",
        "dropped = all(c.length <= JOIN_TOL for c in curved_parts)",
        "dropped = all(c.length <= 1.0 for c in curved_parts)",
    ),
    (
        "flat norm chord through a single settled end",
        "if max(ends) > 1.0:  # a chord through a settled end would tilt: both exact",
        "if False:",
    ),
    (
        "proven drop halves its angle bound",
        "theta = 2.0 * math.asin(r / 2.0)",
        "theta = math.asin(r / 2.0)",
    ),
    (
        "flat middle term keeps F(a1, b1)",
        "c01 = form(sa.a + sa.b, sb.a + sb.b) - c0 - c1",
        "c01 = form(sa.a + sa.b, sb.a + sb.b) - c0",
    ),
    (
        "shared Gram taken from the other flat end",
        "defects = [g - m @ adjoint(m) for m, g in zip(_ends(seg), grams)]  # [m*, m]",
        "defects = [g - m @ adjoint(m) for m, g in zip(_ends(seg), grams[::-1])]  # [m*, m]",
    ),
    (
        "normality read off A*A drops its factor 2",
        "return 2.0 * (b + g * (1.0 + b) / (1.0 - g)) <= tol",
        "return (b + g * (1.0 + b) / (1.0 - g)) <= tol",
    ),
    (
        "Bott block B built as U~ h instead of h U~",
        "b = hv[:, None] * (adjoint(q) @ u @ q)",
        "b = (adjoint(q) @ u @ q) * hv",
    ),
)


def locate(root: Path, old: str) -> list:
    """(path, line index) of every source line that reads ``old`` once stripped."""
    return [
        (path, i)
        for path in sorted((root / "src" / "torlinks").glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(keepends=True))
        if line.strip() == old
    ]


def _export(dest: Path) -> None:
    rev = subprocess.run(
        ["git", "stash", "create"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", rev or "HEAD"], cwd=ROOT, capture_output=True)
    tar.check_returncode()
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)


def _survives(tree: Path, old: str, new: str) -> bool:
    ((path, i),) = locate(tree, old)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = indent + new + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    try:
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
            cwd=tree, env=env, capture_output=True,
        )
    finally:
        path.write_text(text, encoding="utf-8")
    return run.returncode == 0


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the TemporaryDirectory, which removes it


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        _export(tree)
        for name, old, new in MUTANTS:
            survived = _survives(tree, old, new)
            survivors += survived
            print(f"{'survived' if survived else 'killed':8}  {name}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
