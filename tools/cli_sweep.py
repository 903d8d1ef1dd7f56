"""Run a fixed list of torlinks CLI commands and record what each one did.

Usage: python tools/cli_sweep.py OUTDIR

OUTDIR must not exist yet. Every command runs in-process through
``torlinks.cli.main`` with OUTDIR as the working directory, so each path in
its argv is relative. In a fixed order, the sweep generates every bundle,
writes a few hand-made inputs (relation files, an assignment, a malformed
file, a normal-mode links file holding a geodesic, a links file whose flat
factor starts 1e-10 off its conjugation's end, a five-segment links file,
and bundles edited to write Y out in full or to misstate delta), then runs
every subcommand on every generator kind, mode and perturbation, on the
Y = X bundles in both forms, and on the refused cases that exit 2, and last
certifies and projects the off-joint and the five-segment links files.
``OUTDIR/manifest.jsonl`` gets one JSON line per command: its argv, exit
code, stdout, stderr and the SHA-256 of each file it was asked to write
(null if it wrote none).

The torlinks imported is the one in this tree's ``src``, so running the sweep
from two trees into directories of the same name and comparing them with
``diff -r`` checks that the trees write the same bytes and exit alike.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from torlinks import cli  # noqa: E402
from torlinks.homotopy import Conj, Flat, LinkBundle, MatrixPath  # noqa: E402

#: flags whose value is a file the command writes
OUTPUT_FLAGS = ("--output", "--links-output", "--report-output")

#: spelled out rather than imported, so the command list is the same in every tree
MODES = ("normal", "hermitian", "unitary")

#: bundles with Y = X whose copies with Y written out in full are read too
YW_SOURCES = ("cs-n8", "cp-unitary-within-n16-N2-d0", "cp-normal-within-n4-N3-d0")


def _commuting_bundles() -> list:
    """(name, gen flags) of every commuting_pair bundle: each mode and
    perturbation at (n, N) = (1, 2), (4, 1), (4, 3), (16, 2), (64, 3) and
    delta 0 (Y = X), 1e-2 and 0.3, each on a seed of its own."""
    out = []
    seed = 0
    for mode in MODES:
        for perturb in ("within", "generic"):
            for n, N in ((1, 2), (4, 1), (4, 3), (16, 2), (64, 3)):
                for delta in ("0", "1e-2", "0.3"):
                    seed += 1
                    name = f"cp-{mode}-{perturb}-n{n}-N{N}-d{delta}"
                    flags = ["--n", str(n), "--N", str(N), "--delta", delta, "--seed", str(seed),
                             "--mode", mode, "--perturb", perturb]
                    out.append((name, flags))
    return out


def _gens() -> list:
    """The gen commands, which run first."""
    cmds = [["gen", *flags, "--output", f"{name}.json"] for name, flags in _commuting_bundles()]
    for n in (1, 2, 3, 8, 64):
        cmds.append(["gen", "--kind", "clock_shift", "--n", str(n), "--output", f"cs-n{n}.json"])
    for n in (2, 8, 32):
        for softness in ("0", "0.3", "0.9"):
            cmds.append(["gen", "--kind", "soft_pair", "--n", str(n), "--delta", softness,
                         "--output", f"sp-n{n}-s{softness}.json"])
    return cmds


def _commands() -> list:
    """The commands after the gens, each an argv for torlinks.cli.main."""
    cmds = []
    for name, _ in _commuting_bundles():
        b = f"{name}.json"
        cmds.append(["link", "--input", b, "--output", f"{name}.cert.json",
                     "--links-output", f"{name}.links.json"])
        cmds.append(["certify", "--input", f"{name}.links.json", "--output", f"{name}.recert.json"])
        cmds.append(["certify", "--input", f"{name}.links.json", "--epsilon", "1e-6",
                     "--grid", "7", "--output", f"{name}.tight.json"])
        cmds.append(["project", "--input", f"{name}.links.json", "--samples", "5",
                     "--output", f"{name}.flow.csv"])
        for which in ("x", "y"):
            cmds.append(["spectrum", "--input", b, "--which", which,
                         "--output", f"{name}.spec-{which}.json"])
        if "-N2-" in name:
            cmds.append(["lift", "--input", b, "--output", f"{name}.lift-cert.json",
                         "--links-output", f"{name}.lift-links.json",
                         "--report-output", f"{name}.lift-report.json"])
            cmds.append(["bott", "--input", b, "--output", f"{name}.bott.json"])
            cmds.append(["relcheck", "--input", b, "--preset", "soft_torus", "--delta", "1e-3",
                         "--output", f"{name}.rel.json"])
    # link in another mode than the bundle's, with its own tolerance and grid
    b = "cp-normal-within-n4-N3-d1e-2.json"
    for mode in MODES:
        cmds.append(["link", "--input", b, "--mode", mode, "--tol", "1e-6", "--grid", "11",
                     "--output", f"relink-{mode}.cert.json"])
    cmds.append(["link", "--input", b, "--epsilon", "1.0", "--output", "relink-eps.cert.json"])

    for n in (1, 2, 3, 8, 64):
        b = f"cs-n{n}.json"
        cmds.append(["bott", "--input", b, "--output", f"cs-n{n}.bott.json"])
        cmds.append(["bott", "--input", b, "--gap-tol", "0", "--tol", "1e-8",
                     "--output", f"cs-n{n}.bott0.json"])
        for delta in ("0.1", "1", "2"):
            cmds.append(["relcheck", "--input", b, "--preset", "soft_torus", "--delta", delta,
                         "--slack", "1e-9", "--output", f"cs-n{n}.rel-{delta}.json"])
        cmds.append(["relcheck", "--input", b, "--preset", "free_pair",
                     "--output", f"cs-n{n}.free.json"])
        for which in ("x", "y"):
            cmds.append(["spectrum", "--input", b, "--which", which,
                         "--output", f"cs-n{n}.spec-{which}.json"])
        cmds.append(["link", "--input", b, "--output", f"cs-n{n}.cert.json"])
    for n in (2, 8, 32):
        for softness in ("0", "0.3", "0.9"):
            name = f"sp-n{n}-s{softness}"
            cmds.append(["bott", "--input", f"{name}.json", "--output", f"{name}.bott.json"])
            cmds.append(["relcheck", "--input", f"{name}.json", "--preset", "soft_torus",
                         "--delta", "0.5", "--output", f"{name}.rel.json"])
            cmds.append(["lift", "--input", f"{name}.json", "--output", f"{name}.lift.json"])
    b = "cp-normal-generic-n16-N2-d1e-2.json"
    cmds.append(["lift", "--input", b, "--epsilon", "1e-3", "--grid", "9",
                 "--output", "relift.cert.json"])

    for demo in ("helix", "m3"):
        cmds.append(["project", "--demo", demo, "--output", f"demo-{demo}.csv"])
        cmds.append(["project", "--demo", demo, "--samples", "7", "--output", f"demo-{demo}-7.csv"])
    cmds.append(["project", "--input", "cp-normal-within-n4-N3-d1e-2.links.json",
                 "--link-index", "2", "--output", "project-link2.csv"])
    cmds.append(["relcheck", "--input", "assign.json", "--rel-file", "unitary.rel",
                 "--output", "assign.rel.json"])

    # Y written out in full reads as its alias
    for name in YW_SOURCES:
        cmds.append(["bott", "--input", f"{name}.y-written.json",
                     "--output", f"{name}.yw.bott.json"])
        cmds.append(["spectrum", "--input", f"{name}.y-written.json", "--which", "y",
                     "--output", f"{name}.yw.spec.json"])
    cmds.append(["link", "--input", "cp-normal-within-n4-N3-d0.y-written.json",
                 "--output", "yw.cert.json", "--links-output", "yw.links.json"])

    # refused: each exits 2 with its reason
    n3 = "cp-normal-within-n4-N3-d1e-2.json"
    links = "cp-normal-within-n4-N3-d1e-2.links.json"
    refused = [
        ["gen", "--n", "0"],
        ["gen", "--kind", "nosuch", "--n", "3"],
        ["gen", "--n", "3", "--N", "0"],
        ["gen", "--n", "3", "--seed", "-1"],
        ["gen", "--n", "3", "--delta", "-1"],
        ["gen", "--kind", "clock_shift", "--n", "4", "--N", "3"],
        ["link", "--input", "missing.json"],
        ["link", "--input", "malformed.json"],
        ["link", "--input", "tampered.json"],
        ["link", "--input", n3, "--tol", "nan"],
        ["link", "--input", n3, "--epsilon", "-1"],
        ["link", "--input", n3, "--grid", "1"],
        ["lift", "--input", "cs-n8.json"],
        ["spectrum", "--input", "cs-n8.json"],
        ["certify", "--input", n3],
        ["bott", "--input", n3],
        ["bott", "--input", "cs-n8.json", "--gap-tol", "nan"],
        ["relcheck", "--input", "cs-n8.json"],
        ["relcheck", "--input", "cs-n8.json", "--preset", "soft_torus", "--rel-file", "bound.rel"],
        ["relcheck", "--input", "cs-n8.json", "--preset", "nosuch", "--delta", "1"],
        ["relcheck", "--input", "cs-n8.json", "--preset", "soft_torus"],
        ["relcheck", "--input", "cs-n8.json", "--preset", "circle", "--delta", "1"],
        ["relcheck", "--input", "cs-n8.json", "--rel-file", "bound.rel", "--delta", "5"],
        ["relcheck", "--input", "cs-n8.json", "--rel-file", "expr.rel"],
        ["relcheck", "--input", n3, "--preset", "soft_torus", "--delta", "0.1"],
        ["project", "--demo", "helix", "--link-index", "7"],
        ["project", "--input", links, "--demo", "m3"],
        ["project"],
        ["project", "--input", links, "--link-index", "5"],
        ["project", "--demo", "helix", "--samples", "1"],
        ["lift", "--input", n3, "--grid", "0"],
        # certified before anything is written: the manifest shows no file
        ["link", "--input", n3, "--epsilon", "-1", "--links-output", "refused-eps.links.json"],
        ["lift", "--input", n3, "--epsilon", "nan", "--links-output", "refused-nan.links.json",
         "--report-output", "refused-nan.report.json"],
        ["relcheck", "--input", "cs-n8.json", "--rel-file", "cut.rel"],
        # a links file of a shape no constructor writes
        ["certify", "--input", "geo-normal.links.json"],
        ["project", "--input", "geo-normal.links.json"],
        # a bound too large to be a finite float
        ["relcheck", "--input", "cs-n8.json", "--rel-file", "inf.rel"],
    ]
    for j, argv in enumerate(refused):
        cmds.append([*argv, "--output", f"refused-{j:02d}.out"])
    # a joint that is not exact: its distance is read on both sides
    cmds.append(["certify", "--input", "off-joint.links.json", "--output", "off-joint.cert.json"])
    cmds.append(["project", "--input", "off-joint.links.json", "--output", "off-joint.flow.csv"])
    # five segments, so the clock's joints sit at multiples of 1/5
    cmds.append(["certify", "--input", "chain.links.json", "--output", "chain.cert.json"])
    cmds.append(["project", "--input", "chain.links.json", "--output", "chain.flow.csv"])
    return cmds


def _prepare_inputs() -> None:
    """Hand-made inputs that need no bundle."""
    Path("unitary.rel").write_text("u u' - 1 = 0\nu' u - 1 = 0\n", encoding="utf-8")
    Path("bound.rel").write_text("norm(u v - v u) <= 0.1\n", encoding="utf-8")
    Path("expr.rel").write_text("u*v - v*u\n", encoding="utf-8")
    Path("cut.rel").write_text("u u' - 1 = 0\nnorm(u v - v u) <=\n", encoding="utf-8")
    Path("inf.rel").write_text("norm(u v - v u) <= 1e400\n", encoding="utf-8")
    Path("malformed.json").write_text('{"type": "bundle", ', encoding="utf-8")
    eye = cli.encode_matrix([[1.0, 0.0], [0.0, 1.0]])
    Path("assign.json").write_text(
        cli.json_text({"type": "assignment", "matrices": {"u": eye}}), encoding="utf-8"
    )
    geo = {"kind": "geo", "base": 0, "h": 0}
    links = {"type": "links", "mode": "normal", "epsilon_reported": 1.0, "x": [0], "y": [0],
             "links": [{"segments": [geo]}], "matrices": [eye]}
    Path("geo-normal.links.json").write_text(cli.json_text(links), encoding="utf-8")
    # a conjugation, then a flat factor that starts 1e-10 (inside JOIN_TOL)
    # off its end and lands on y
    x = np.array([[0.4, 0.1], [0.1, -0.2]])
    y = np.array([[0.45, 0.1j], [-0.1j, -0.25]])
    conj = Conj(np.array([[0.0, 0.3], [0.3, 0.0]]), x)
    link = MatrixPath([conj, Flat(conj.end + 1e-10 * np.eye(2), y)])
    off = LinkBundle([link], [x], [y], epsilon_reported=0.5)
    Path("off-joint.links.json").write_text(cli.json_text(cli.encode_links(off)), encoding="utf-8")
    # four conjugations, each starting on the previous one's end, then a flat
    # factor to y
    segs = [conj]
    while len(segs) < 4:
        segs.append(Conj(segs[-1].h, segs[-1].end))
    segs.append(Flat(segs[-1].end, y))
    chain = LinkBundle([MatrixPath(segs)], [x], [y], epsilon_reported=1.0)
    Path("chain.links.json").write_text(cli.json_text(cli.encode_links(chain)), encoding="utf-8")


def _derive_inputs() -> None:
    """Inputs edited from generated bundles, written after the gens: Y
    written out in full, and a bundle whose stored delta was changed."""
    for name in YW_SOURCES:
        obj = json.loads(Path(f"{name}.json").read_text(encoding="utf-8"))
        obj["y"] = obj["x"]
        Path(f"{name}.y-written.json").write_text(cli.json_text(obj), encoding="utf-8")
    obj = json.loads(Path("cp-normal-within-n4-N3-d1e-2.json").read_text(encoding="utf-8"))
    obj["delta"] *= 1.5
    Path("tampered.json").write_text(cli.json_text(obj), encoding="utf-8")


def _sha256(path: str):
    if not os.path.isfile(path):
        return None
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run(argv: list) -> dict:
    outputs = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in OUTPUT_FLAGS]
    for path in outputs:
        if os.path.exists(path):
            raise SystemExit(f"cli_sweep: {path} is written twice")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refusals
            code = e.code
        except Exception as e:  # a traceback is a finding; record it and go on
            code = f"raised {type(e).__name__}: {e}"
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "sha256": {path: _sha256(path) for path in outputs},
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True)
    os.chdir(out)
    _prepare_inputs()
    gens = _gens()
    codes: dict = {}
    with open("manifest.jsonl", "w", encoding="utf-8", newline="\n") as manifest:
        for i, cmd in enumerate(gens + _commands()):
            if i == len(gens):
                _derive_inputs()
            record = _run(cmd)
            manifest.write(json.dumps(record, sort_keys=True) + "\n")
            codes[str(record["exit"])] = codes.get(str(record["exit"]), 0) + 1
    print(f"{i + 1} commands, exit codes {dict(sorted(codes.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
