"""The benchmark's four workloads.

Each workload has one op, a unit of user work. ``op`` runs it untraced:
the CLI workloads call ``torlinks.cli.main(argv)`` in-process and
``link-small`` calls the library. ``traced`` runs the same op through the
public functions the CLI calls, each inside a span, and replays the public
sub-calls of composite layers (see ``spans.py``). ``check`` turns what an op
left behind into a verdict, so both paths are checked the same way.

Per-op seeds and softness values come from the workload seed and the op
index only; the package sees nothing but the generated inputs.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from torlinks import cli
from torlinks.homotopy import certify, toral_links
from torlinks.jointspec import NormalTuple, joint_diagonalize
from torlinks.lifting import lifted_links
from torlinks.matcore import gap_branch_log
from torlinks.ncrel import membership, preset
from torlinks.softtorus import bott_index
from torlinks.spectral_match import (
    bottleneck_assign,
    isospectral_approximant,
    spectral_cost_matrix,
)

#: Exceptions the CLI turns into exit code 2 (PreconditionError and JSON
#: errors are ValueErrors, DiagnosticsError is a RuntimeError).
CLI_ERRORS = (ValueError, RuntimeError, OSError)

LIFT_RESIDUALS = (
    "hom_product_defect",
    "hom_star_defect",
    "hom_unit_defect",
    "hermiticity",
    "unitarity",
    "exp_identity",
    "decay_max_error",
)


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    eps_over_delta: float | None = None
    length_over_delta: float | None = None


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def op_seed(seed: int, i: int) -> int:
    return int(op_rng(seed, i).integers(2**31 - 1))


def flip_digit(path: str, key: str) -> None:
    """Corrupt an artifact: change the leading digit of the value of ``key``."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    i = text.index(f'"{key}":') + len(key) + 3
    while not text[i].isdigit():
        i += 1
    text = text[:i] + ("1" if text[i] == "0" else "0") + text[i + 1 :]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _expect(codes: list, want: list) -> str:
    return "" if codes == want else f"exit codes {codes}, expected {want}"


# --- traced building blocks ------------------------------------------------------
#
# Each mirrors a step of the matching ``_cmd_*`` function in cli.py, so
# that the traced op does the same work as the untraced one.


def _command(fn, *args) -> int:
    """Run one traced CLI command; errors give exit code 2 as in cli.main."""
    try:
        return fn(*args)
    except CLI_ERRORS:
        return 2


def _encode(tr, path: str, make) -> None:
    with tr.span("cli.encode") as rec:
        text = cli.json_text(make())
        cli.write_artifact(path, text)
        rec["bytes"] = len(text)


def _decode(tr, path: str, decoder):
    with tr.span("cli.decode") as rec:
        with open(path, "rb") as handle:
            raw = handle.read()
        rec["bytes"] = len(raw)
        out = decoder(json.loads(raw), path)
    if decoder is cli.decode_bundle:  # its NormalTuple validation, on its own
        with tr.aside():
            tol = 1e-10 if out["metadata"]["commuting"] else float("inf")
            for t in (out["x"], out["y"]):
                tr.replay("jointspec.NormalTuple", rec, NormalTuple, t.mats, commutation_tol=tol)
    return out


def _gen(tr, path: str, *gen_args) -> int:
    art, _ = tr.call("cli.gen_bundle", cli.gen_bundle, *gen_args)
    _encode(tr, path, lambda: art)
    return 0


def _replay_approximant(tr, parent: dict, x, y, seed: int):
    """isospectral_approximant as toral_links and lifted_links call it, and
    its own public sub-calls, each timed separately."""
    approx, iso = tr.replay(
        "spectral_match.isospectral_approximant", parent,
        isospectral_approximant, x, y, cluster_tol=1e-8, seed=seed,
    )
    delta = max(np.linalg.norm(a - b, 2) for a, b in zip(x.mats, y.mats))
    if delta > 0:
        iso["ratio"] = approx.matching.bottleneck / delta
    spectra = []
    for t in (x, y):
        js, jd = tr.replay(
            "jointspec.joint_diagonalize", iso, joint_diagonalize, t, cluster_tol=1e-8, seed=seed
        )
        jd["residual"] = js.residual
        spectra.append(js.points)
    cost = spectral_cost_matrix(*spectra)
    tr.replay("spectral_match.bottleneck_assign", iso, bottleneck_assign, cost)
    return approx


def _toral_links(tr, x, y, mode: str, seed: int):
    bundle, span = tr.call(
        "homotopy.toral_links", toral_links, x, y, mode=mode, tol=1e-9, seed=seed
    )
    with tr.aside():
        approx = _replay_approximant(tr, span, x, y, seed)
        tr.replay("matcore.gap_branch_log", span, gap_branch_log, approx.v)
    return bundle


def _certify(tr, bundle, eps: float):
    cert, span = tr.call("homotopy.certify", certify, bundle, eps, grid_points=101)
    span["failed"] = not cert.passed
    return cert


def _certify_and_write(tr, bundle, path: str) -> int:
    # cli._certify_and_write without --epsilon
    cert = _certify(tr, bundle, bundle.epsilon_reported)
    _encode(tr, path, lambda: cli.encode_certificate(cert))
    return 0 if cert.passed else 1


# --- workloads ----------------------------------------------------------------------


class LinkN64:
    """gen (n=64, N=3, delta=1e-2, within) -> link --links-output -> certify."""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.b, self.c, self.l, self.rc = (
            os.path.join(work, f) for f in ("bundle.json", "cert.json", "links.json", "recert.json")
        )

    def op(self, i: int, sabotage: bool = False) -> list:
        s = op_seed(self.seed, i)
        codes = [
            cli.main(["gen", "--n", "64", "--N", "3", "--delta", "1e-2", "--perturb", "within",
                      "--seed", str(s), "--output", self.b]),
            cli.main(["link", "--input", self.b, "--output", self.c, "--links-output", self.l]),
        ]
        if sabotage:
            flip_digit(self.l, "epsilon_reported")
        codes.append(cli.main(["certify", "--input", self.l, "--output", self.rc]))
        return codes

    def traced(self, i: int, tr, sabotage: bool = False) -> list:
        s = op_seed(self.seed, i)
        codes = [_command(_gen, tr, self.b, "commuting_pair", 64, 3, 1e-2, s, "normal", "within")]
        codes.append(_command(self._link, tr))
        if sabotage:
            flip_digit(self.l, "epsilon_reported")
        codes.append(_command(self._recertify, tr))
        return codes

    def _link(self, tr) -> int:
        loaded = _decode(tr, self.b, cli.decode_bundle)
        meta = loaded["metadata"]
        bundle = _toral_links(tr, loaded["x"], loaded["y"], meta["mode"], int(meta["seed"]))
        _encode(tr, self.l, lambda: cli.encode_links(bundle))
        return _certify_and_write(tr, bundle, self.c)

    def _recertify(self, tr) -> int:
        return _certify_and_write(tr, _decode(tr, self.l, cli.decode_links), self.rc)

    def check(self, codes: list) -> Verdict:
        bad = _expect(codes, [0, 0, 0])
        if bad:
            return Verdict(False, bad)
        with open(self.c, "rb") as a, open(self.rc, "rb") as b:
            if a.read() != b.read():
                return Verdict(False, "re-certified certificate differs from the link certificate")
        cert = _load(self.c)
        if not cert["passed"]:
            return Verdict(False, "link certificate failed")
        delta = _load(self.b)["delta"]
        return Verdict(True, "", cert["epsilon"] / delta, max(cert["lengths"]) / delta)


class LiftN32:
    """gen (n=32, N=2, delta=1e-2) -> lift --links-output --report-output."""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.b, self.c, self.l, self.r = (
            os.path.join(work, f) for f in ("bundle.json", "cert.json", "links.json", "report.json")
        )

    def op(self, i: int, sabotage: bool = False) -> list:
        s = op_seed(self.seed, i)
        codes = [cli.main(["gen", "--n", "32", "--N", "2", "--delta", "1e-2",
                           "--seed", str(s), "--output", self.b])]
        if sabotage:
            flip_digit(self.b, "delta")
        codes.append(cli.main(["lift", "--input", self.b, "--output", self.c,
                               "--links-output", self.l, "--report-output", self.r]))
        return codes

    def traced(self, i: int, tr, sabotage: bool = False) -> list:
        s = op_seed(self.seed, i)
        codes = [_command(_gen, tr, self.b, "commuting_pair", 32, 2, 1e-2, s, "normal", "within")]
        if sabotage:
            flip_digit(self.b, "delta")
        codes.append(_command(self._lift, tr))
        return codes

    def _lift(self, tr) -> int:
        loaded = _decode(tr, self.b, cli.decode_bundle)
        x, y, seed = loaded["x"], loaded["y"], int(loaded["metadata"]["seed"])
        (_, bundle, report), span = tr.call(
            "lifting.lifted_links", lifted_links, x, y, seed=seed, grid_points=101
        )
        with tr.aside():
            _replay_approximant(tr, span, x, y, seed)
        _encode(tr, self.l, lambda: cli.encode_links(bundle))
        payload = {"type": "lift_report", **{k: float(v) for k, v in report.items()}}
        _encode(tr, self.r, lambda: payload)
        return _certify_and_write(tr, bundle, self.c)

    def check(self, codes: list) -> Verdict:
        bad = _expect(codes, [0, 0])
        if bad:
            return Verdict(False, bad)
        report = _load(self.r)
        if report["kappa_identity_error"] != 0:
            return Verdict(False, f"kappa_identity_error {report['kappa_identity_error']!r} != 0")
        for key in LIFT_RESIDUALS:
            if not report[key] <= 1e-10:
                return Verdict(False, f"lift report {key} = {report[key]!r} > 1e-10")
        cert = _load(self.c)
        if not cert["passed"]:
            return Verdict(False, "lift certificate failed")
        delta = _load(self.b)["delta"]
        return Verdict(True, "", cert["epsilon"] / delta, max(cert["lengths"]) / delta)


class TorusN256:
    """clock_shift(256) -> bott -> relcheck pass -> relcheck refuse -> soft_pair -> bott."""

    N = 256

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.cs, self.sp, self.bott1, self.bott2, self.rel1, self.rel2 = (
            os.path.join(work, f)
            for f in (
                "clock.json", "soft.json", "bott1.json", "bott2.json", "rel1.json", "rel2.json"
            )
        )

    def _params(self, i: int) -> tuple[float, float]:
        """A relcheck bound below ||[Omega, Sigma]|| and a soft-pair softness."""
        rng = op_rng(self.seed, i)
        below = float(2 * np.sin(np.pi / self.N) * rng.uniform(0.5, 0.95))
        return below, float(rng.uniform(0.1, 0.5))

    def op(self, i: int, sabotage: bool = False) -> list:
        below, soft = self._params(i)
        n = str(self.N)
        codes = [cli.main(["gen", "--kind", "clock_shift", "--n", n, "--output", self.cs])]
        if sabotage:
            flip_digit(self.cs, "delta")
        codes += [
            cli.main(["bott", "--input", self.cs, "--output", self.bott1]),
            cli.main(["relcheck", "--input", self.cs, "--preset", "soft_torus", "--delta", "1.0",
                      "--output", self.rel1]),
            cli.main(["relcheck", "--input", self.cs, "--preset", "soft_torus",
                      "--delta", repr(below), "--output", self.rel2]),
            cli.main(["gen", "--kind", "soft_pair", "--n", n, "--delta", repr(soft),
                      "--output", self.sp]),
            cli.main(["bott", "--input", self.sp, "--output", self.bott2]),
        ]
        return codes

    def traced(self, i: int, tr, sabotage: bool = False) -> list:
        below, soft = self._params(i)
        codes = [_command(_gen, tr, self.cs, "clock_shift", self.N, 2, 0.0, 0, "normal", "within")]
        if sabotage:
            flip_digit(self.cs, "delta")
        codes += [
            _command(self._bott, tr, self.cs, self.bott1),
            _command(self._relcheck, tr, 1.0, self.rel1),
            _command(self._relcheck, tr, below, self.rel2),
            _command(_gen, tr, self.sp, "soft_pair", self.N, 2, soft, 0, "normal", "within"),
            _command(self._bott, tr, self.sp, self.bott2),
        ]
        return codes

    def _bott(self, tr, src: str, dst: str) -> int:
        mats = _decode(tr, src, cli.decode_bundle)["x"].mats
        result, _ = tr.call(
            "softtorus.bott_index", bott_index, mats[0], mats[1], gap_tol=0.05, tol=1e-10
        )
        _encode(tr, dst, lambda: {
            "type": "bott",
            "index": int(result.index),
            "gap": float(result.gap),
            "winding": int(result.winding),
            "defect": float(result.defect),
        })
        return 0

    def _relcheck(self, tr, bound: float, dst: str) -> int:
        rset = preset("soft_torus", bound)
        mats = _decode(tr, self.cs, cli.decode_bundle)["x"].mats
        report, _ = tr.call(
            "ncrel.membership", membership, dict(zip(rset.variables, mats)), rset, slack=1e-12
        )
        _encode(tr, dst, lambda: {"type": "membership", **report.to_dict()})
        return 0 if report.member else 1

    def check(self, codes: list) -> Verdict:
        bad = _expect(codes, [0, 0, 0, 1, 0, 0])
        if bad:
            return Verdict(False, bad)
        for path in (self.bott1, self.bott2):
            bott = _load(path)
            if not bott["index"] == bott["winding"] == 1:
                return Verdict(False, f"{os.path.basename(path)}: index {bott['index']}, "
                                      f"winding {bott['winding']}, expected both +1")
        if not _load(self.rel1)["member"] or _load(self.rel2)["member"]:
            return Verdict(False, "relcheck verdicts disagree with the exit codes")
        return Verdict(True)


@dataclass
class SmallInput:
    x: list
    y: list
    mode: str
    seed: int
    delta: float


class LinkSmall:
    """Library NormalTuple x2 -> toral_links -> certify, cycling over one
    input per shape. A run covers the whole cycle (36 ops take a few
    seconds), so its maxima over bundles depend on the seed only."""

    SHAPES = list(itertools.product((8, 16), (3, 4, 5), cli.MODES, ("within", "generic")))

    def __init__(self, seed: int, work: str):
        self.inputs = []
        for k, (n, N, mode, perturb) in enumerate(self.SHAPES):
            s = op_seed(seed, k)
            art = cli.gen_bundle("commuting_pair", n, N, 1e-2, s, mode, perturb)
            self.inputs.append(SmallInput(
                [cli.decode_matrix(m, "x") for m in art["x"]],
                [cli.decode_matrix(m, "y") for m in art["y"]],
                mode, s, art["delta"],
            ))

    def op(self, i: int, sabotage: bool = False):
        inp = self.inputs[i % len(self.inputs)]
        bundle = toral_links(NormalTuple(inp.x), NormalTuple(inp.y), mode=inp.mode, seed=inp.seed)
        if sabotage:
            bundle.epsilon_reported /= 2
        return inp, bundle, certify(bundle, bundle.epsilon_reported)

    def traced(self, i: int, tr, sabotage: bool = False):
        inp = self.inputs[i % len(self.inputs)]
        x, _ = tr.call("jointspec.NormalTuple", NormalTuple, inp.x)
        y, _ = tr.call("jointspec.NormalTuple", NormalTuple, inp.y)
        bundle = _toral_links(tr, x, y, inp.mode, inp.seed)
        if sabotage:
            bundle.epsilon_reported /= 2
        return inp, bundle, _certify(tr, bundle, bundle.epsilon_reported)

    def check(self, result) -> Verdict:
        inp, bundle, cert = result
        if not cert.passed:
            shape = f"mode {inp.mode}, n {len(inp.x[0])}, N {len(inp.x)}"
            return Verdict(False, f"certificate failed ({shape})")
        delta = inp.delta
        return Verdict(True, "", bundle.epsilon_reported / delta, max(bundle.lengths) / delta)


WORKLOADS = {
    "link-n64": LinkN64,
    "link-small": LinkSmall,
    "lift-n32": LiftN32,
    "torus-n256": TorusN256,
}
