"""Command-line pipelines: generate tuples, build links, certify, export.

Artifacts are JSON with a ``type`` tag, written by ``json.dumps`` with sorted
keys and no spaces, so every float is Python's shortest round-trip text
(``repr``, the text ``ncrel`` prints) and a scalar -0.0 stays ``-0.0``.
Encoding is canonical: re-encoding a decoded artifact reproduces the same
bytes, and fixed seeds reproduce identical files.  Matrices are
stored as ``{"n": k, "c16": ...}``, the base64 of their row-major
little-endian complex128 bytes, so they round-trip bit for bit; a links
artifact stores each distinct matrix once in its ``matrices`` table and refers
to it by index, and a bundle whose Y equals X stores ``"y": "x"`` instead of a
second copy.  All writes go through a temp file and an atomic rename.

Exit codes: 0 success / certificate passed, 1 failed certification or
membership, 2 precondition and decode errors.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import functools
import json
import os
import sys
import tempfile

import numpy as np

from .homotopy import (
    MODES,
    Certificate,
    Conj,
    Flat,
    Geo,
    LinkBundle,
    MatrixPath,
    certify,
    project_solid_torus,
    toral_links,
)
from .jointspec import NormalTuple, joint_spectrum
from .lifting import lifted_links
from .matcore import (
    DiagnosticsError,
    PreconditionError,
    adjoint,
    as_cmatrix,
    exp_i_herm,
    op_norm,
)
from .ncrel import membership, parse as parse_relations, preset
from .softtorus import bott_index, clock_shift, soft_pair

__all__ = [
    "DecodeError",
    "decode_bundle",
    "decode_links",
    "decode_matrix",
    "encode_certificate",
    "encode_links",
    "encode_matrix",
    "gen_bundle",
    "json_text",
    "main",
    "write_artifact",
]

GEN_KINDS = ("commuting_pair", "clock_shift", "soft_pair")


class DecodeError(PreconditionError):
    """An artifact file failed to decode or validate."""


# --- canonical JSON ----------------------------------------------------------


def json_text(obj) -> str:
    """Canonical single-line JSON: sorted keys, no spaces, and every float in
    Python's shortest round-trip text (its ``repr``), -0.0 included."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:
        raise PreconditionError("cannot serialize non-finite float") from None
    except TypeError as e:
        raise PreconditionError(f"cannot serialize: {e}") from None


def write_artifact(path: str, text: str) -> None:
    """Write text to `path` atomically (temp file in place, then rename); an
    OSError becomes a PreconditionError naming `path`."""
    parent = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-artifact-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise PreconditionError(f"{path}: cannot write: {e.strerror or e}") from None
    finally:  # after the rename there is no temp file left to remove
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise DecodeError(f"{path}: no such file")
    except (OSError, UnicodeDecodeError) as e:
        raise DecodeError(f"{path}: unreadable: {e}")


def _load_json(path: str):
    def reject(name: str):
        raise DecodeError(f"{path}: non-finite number {name} in JSON")

    try:
        return json.loads(_read_text(path), parse_constant=reject)
    except DecodeError:
        raise
    except ValueError as e:
        # a JSONDecodeError, or a plain ValueError for an integer literal
        # longer than Python's int-to-string digit limit
        raise DecodeError(f"{path}: invalid JSON: {e}")


# --- matrix / array codecs -----------------------------------------------------


def encode_matrix(a) -> dict:
    """``{"n": n, "c16": payload}``: the payload is the base64 of the
    row-major little-endian complex128 bytes of ``a + 0.0``, which gives -0
    the bytes of 0."""
    a = as_cmatrix(a) + 0.0
    payload = base64.b64encode(a.astype("<c16", copy=False).tobytes())
    return {"n": a.shape[0], "c16": payload.decode("ascii")}


def _number(v, what: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise DecodeError(f"{what} is not a number")
    if not abs(v) <= sys.float_info.max:
        raise DecodeError(f"{what} is not a finite number")
    return float(v)


def decode_matrix(obj, where: str) -> np.ndarray:
    """The n x n matrix of an ``encode_matrix`` object: strict base64 of
    exactly 16 n^2 bytes, all entries finite."""
    if not isinstance(obj, dict) or set(obj) != {"n", "c16"}:
        raise DecodeError(f"{where}: expected an object with keys n, c16")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DecodeError(f"{where}.n must be a positive integer")
    payload = obj["c16"]
    if not isinstance(payload, str):
        raise DecodeError(f"{where}.c16 is not a string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise DecodeError(f"{where}.c16 is not strict base64")
    if len(raw) != 16 * n * n:
        raise DecodeError(f"{where}.c16 holds {len(raw)} bytes, not the 16 n^2 of n = {n}")
    a = np.frombuffer(raw, dtype="<c16").astype(np.complex128).reshape(n, n)
    if not np.isfinite(a).all():
        raise DecodeError(f"{where}.c16: entries must be finite")
    return a


def _decode_mats(items, where: str) -> list:
    if not isinstance(items, list) or not items:
        raise DecodeError(f"{where}: expected a nonempty array of matrices")
    return [decode_matrix(m, f"{where}[{j}]") for j, m in enumerate(items)]


def _field(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise DecodeError(f"{where}: missing field {key!r}")
    return obj[key]


def _number_field(obj: dict, key: str, where: str) -> float:
    return _number(_field(obj, key, where), f"{where}.{key}")


def _array_field(obj: dict, key: str, where: str) -> list:
    value = _field(obj, key, where)
    if not isinstance(value, list):
        raise DecodeError(f"{where}.{key} is not an array")
    return value


def _mode_field(obj: dict, where: str) -> str:
    mode = _field(obj, "mode", where)
    if mode not in MODES:
        raise DecodeError(f"{where}.mode: unknown mode {mode!r}")
    return mode


def _expect_type(obj, tag: str, where: str) -> None:
    if not isinstance(obj, dict) or obj.get("type") != tag:
        raise DecodeError(f"{where}: not a {tag} artifact")


# --- bundle generation and codec ----------------------------------------------


def _haar_unitary(n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _gen_diag(n: int, mode: str, rng) -> np.ndarray:
    if mode == "hermitian":
        return rng.uniform(-0.95, 0.95, n).astype(complex)
    if mode == "unitary":
        return np.exp(2j * np.pi * rng.random(n))
    radius = 0.95 * np.sqrt(rng.random(n))
    phase = 2.0 * np.pi * rng.random(n)
    return radius * np.exp(1j * phase)


def _perturb_diag(d: np.ndarray, mode: str, delta: float, rng) -> np.ndarray:
    if mode == "unitary":
        return d * np.exp(1j * rng.uniform(-1.0, 1.0, d.size) * (delta / 2.0))
    if mode == "hermitian":
        shifted = d.real + (delta / 2.0) * rng.uniform(-1.0, 1.0, d.size)
        return np.clip(shifted, -1.0, 1.0).astype(complex)
    noise = rng.uniform(-1.0, 1.0, d.size) + 1j * rng.uniform(-1.0, 1.0, d.size)
    noise /= max(1.0, float(np.abs(noise).max()))
    shifted = d + (delta / 2.0) * noise
    mags = np.abs(shifted)
    return np.where(mags > 1.0, shifted / mags, shifted)


def _displacement(x_mats: list, y_mats: list) -> float:
    """max_j ||X_j - Y_j||."""
    return max(op_norm(x - y) for x, y in zip(x_mats, y_mats))


def gen_bundle(
    kind: str,
    n: int,
    N: int = 2,
    delta: float = 0.0,
    seed: int = 0,
    mode: str = "normal",
    perturb: str = "within",
) -> dict:
    """Build a deterministic bundle artifact (still a plain dict, not yet JSON).

    commuting_pair draws X_j = Q D_j Q* with diagonal contractions D_j and
    perturbs toward Y within delta: "within" nudges the diagonals only (both
    tuples stay exactly commuting), "generic" also rotates the eigenbasis.
    clock_shift and soft_pair wrap the standard non-commuting unitary pairs
    for bott / relcheck / project flows (Y = X there). When every Y_j equals
    X_j, Y is stored once, as ``"y": "x"``.
    """
    if kind not in GEN_KINDS:
        raise PreconditionError(f"unknown generator kind {kind!r}")
    if mode not in MODES:
        raise PreconditionError(f"unknown mode {mode!r}")
    if perturb not in ("within", "generic"):
        raise PreconditionError(f"unknown perturbation {perturb!r}")
    if n < 1 or N < 1:
        raise PreconditionError("sizes must be positive")
    if not np.isfinite(delta) or delta < 0:
        raise PreconditionError("delta must be finite and >= 0")
    if seed < 0:
        raise PreconditionError("seed must be a non-negative integer")

    commuting = True
    if kind == "clock_shift":
        if N != 2:
            raise PreconditionError("clock_shift bundles always have N = 2")
        cs = clock_shift(n)
        x_mats = y_mats = [cs.omega, cs.sigma]
        mode = "unitary"
        commuting = n == 1
    elif kind == "soft_pair":
        if N != 2:
            raise PreconditionError("soft_pair bundles always have N = 2")
        sp = soft_pair(n, delta)
        x_mats = y_mats = [sp.u, sp.v]
        mode = "unitary"
        commuting = sp.defect == 0.0
    else:
        rng = np.random.default_rng(seed)
        q = _haar_unitary(n, rng)
        diags = [_gen_diag(n, mode, rng) for _ in range(N)]
        x_mats = [(q * d) @ adjoint(q) for d in diags]
        if delta == 0.0:
            y_mats = x_mats
        else:
            if perturb == "generic":
                k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                k = k + adjoint(k)
                qy = q @ exp_i_herm(k / op_norm(k), delta / 4.0)
            else:
                qy = q
            y_mats = [
                (qy * _perturb_diag(d, mode, delta, rng)) @ adjoint(qy) for d in diags
            ]

    dmax = _displacement(x_mats, y_mats)
    same = all(map(np.array_equal, x_mats, y_mats))
    if dmax > delta * (1 + 1e-9) + 1e-15:
        raise DiagnosticsError(
            f"generated displacement {dmax!r} exceeds requested delta {delta!r}"
        )
    return {
        "type": "bundle",
        "metadata": {
            "kind": kind,
            "seed": int(seed),
            "n": int(n),
            "N": len(x_mats),
            "mode": mode,
            "perturb": perturb if kind == "commuting_pair" else "none",
            "commuting": bool(commuting),
            "softness": float(delta) if kind == "soft_pair" else 0.0,
        },
        "delta": float(dmax),
        "x": [encode_matrix(m) for m in x_mats],
        "y": "x" if same else [encode_matrix(m) for m in y_mats],
    }


def decode_bundle(obj, where: str) -> dict:
    """Validate a bundle artifact; returns dict with tuples and metadata.

    ``"y": "x"`` stands for Y = X; an array of matrices is read as well.
    Recomputes delta = max_j ||X_j - Y_j|| and insists it matches the stored
    value to 1e-12, so silently edited matrices are caught on load. The
    metadata must name a known kind and mode, a non-negative integer seed,
    integer sizes matching the matrices and a boolean ``commuting``;
    ``perturb`` and ``softness`` are free-form.
    """
    _expect_type(obj, "bundle", where)
    meta = _field(obj, "metadata", where)
    for key in ("kind", "seed", "n", "N", "commuting"):
        _field(meta, key, f"{where}.metadata")
    _mode_field(meta, f"{where}.metadata")
    for key in ("seed", "n", "N"):
        if not isinstance(meta[key], int) or isinstance(meta[key], bool):
            raise DecodeError(f"{where}.metadata.{key} is not an integer")
    if meta["seed"] < 0:
        raise DecodeError(f"{where}.metadata.seed must be a non-negative integer")
    if meta["kind"] not in GEN_KINDS:
        raise DecodeError(f"{where}.metadata.kind: unknown kind {meta['kind']!r}")
    if not isinstance(meta["commuting"], bool):
        raise DecodeError(f"{where}.metadata.commuting is not a boolean")
    x_mats = _decode_mats(_field(obj, "x", where), f"{where}.x")
    y_slot = _field(obj, "y", where)
    y_mats = x_mats if y_slot == "x" else _decode_mats(y_slot, f"{where}.y")
    if len(x_mats) != len(y_mats) or len(x_mats) != meta["N"]:
        raise DecodeError(f"{where}: tuple sizes disagree with metadata N")
    if any(m.shape[0] != meta["n"] for m in x_mats + y_mats):
        raise DecodeError(f"{where}.metadata.n: matrices are not {meta['n']} x {meta['n']}")
    stored = _number_field(obj, "delta", where)
    dmax = _displacement(x_mats, y_mats)
    if abs(dmax - stored) > 1e-12:
        raise DecodeError(
            f"{where}: stored delta {stored!r} does not match recomputed {dmax!r}"
        )
    tol = 1e-10 if meta["commuting"] else float("inf")
    x = NormalTuple(x_mats, commutation_tol=tol)
    same = all(map(np.array_equal, x_mats, y_mats))  # then X's checks hold for Y
    y = x if same else NormalTuple(y_mats, commutation_tol=tol)
    return {"x": x, "y": y, "delta": stored, "metadata": meta}


# --- link bundle codec ---------------------------------------------------------


#: each segment kind and its class; a segment carries ``kind`` and one
#: matrix index per field of its class
_SEGMENT_KINDS = {"flat": Flat, "conj": Conj, "geo": Geo}


def _segment_fields(cls) -> list:
    """A segment class's field names, generator ``h`` first: encode_links
    numbers ``matrices`` in order of first use, so this order is the format's."""
    return sorted((f.name for f in dataclasses.fields(cls)), key=lambda name: name != "h")


def _encode_segment(seg, ref) -> dict:
    for kind, cls in _SEGMENT_KINDS.items():
        if isinstance(seg, cls):
            return {"kind": kind, **{key: ref(getattr(seg, key)) for key in _segment_fields(cls)}}
    raise PreconditionError(f"cannot serialize segment {type(seg).__name__}")


def _index(value, size: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < size:
        raise DecodeError(f"{where}: expected an index into matrices, 0 to {size - 1}")
    return value


def _decode_segment(obj, where: str, matrices: list, shared: dict):
    """Decode one segment, which carries exactly ``kind`` and its class's
    fields; curved segments of one kind with the same ``h`` index share the
    eigendecomposition of the first one, kept in ``shared``."""
    kind = _field(obj, "kind", where)
    if not isinstance(kind, str) or kind not in _SEGMENT_KINDS:
        raise DecodeError(f"{where}: unknown segment kind {kind!r}")
    cls = _SEGMENT_KINDS[kind]
    keys = _segment_fields(cls)
    extra = sorted(set(obj) - {"kind", *keys})
    if extra:
        raise DecodeError(f"{where}: unexpected key {extra[0]!r} in a {kind} segment")
    mats = {
        key: matrices[_index(_field(obj, key, where), len(matrices), f"{where}.{key}")]
        for key in keys
    }
    if cls is Flat:
        return Flat(**mats)
    generator = (kind, obj["h"])  # an index, checked above
    if generator in shared:
        return shared[generator]._same_generator(mats["base"])
    shared[generator] = cls(**mats)
    return shared[generator]


def encode_links(bundle: LinkBundle) -> dict:
    """A links artifact: ``matrices`` holds each distinct matrix once, in
    order of first use (x, y, then the segments link by link), and every
    other matrix slot is an index into it."""
    pool: dict = {}

    def ref(a) -> int:
        a = as_cmatrix(a) + 0.0  # -0 and 0 are written alike, so they share an entry
        return pool.setdefault(a.tobytes(), (len(pool), a))[0]

    return {
        "type": "links",
        "mode": bundle.mode,
        "epsilon_reported": float(bundle.epsilon_reported),
        "x": [ref(m) for m in bundle.x_mats],
        "y": [ref(m) for m in bundle.y_mats],
        "links": [
            {"segments": [_encode_segment(s, ref) for s in link.segments]}
            for link in bundle.links
        ],
        "matrices": [encode_matrix(a) for _, a in pool.values()],  # after every ref above
    }


def decode_links(obj, where: str) -> LinkBundle:
    """Validate a links artifact; each ``matrices`` entry is decoded once and
    every matrix slot must be an index into that table."""
    _expect_type(obj, "links", where)
    matrices = _decode_mats(_field(obj, "matrices", where), f"{where}.matrices")
    links = []
    shared: dict = {}
    for j, entry in enumerate(_array_field(obj, "links", where)):
        at = f"{where}.links[{j}]"
        segs = _array_field(entry, "segments", at)
        try:  # a segment or path check names the link it failed in
            links.append(
                MatrixPath(
                    [
                        _decode_segment(s, f"{at}.segments[{i}]", matrices, shared)
                        for i, s in enumerate(segs)
                    ]
                )
            )
        except DecodeError:
            raise
        except PreconditionError as e:
            raise DecodeError(f"{at}: {e}") from None

    def resolve(key: str) -> list:
        slots = enumerate(_array_field(obj, key, where))
        return [matrices[_index(v, len(matrices), f"{where}.{key}[{j}]")] for j, v in slots]

    x_mats, y_mats = resolve("x"), resolve("y")
    epsilon_reported = _number_field(obj, "epsilon_reported", where)
    mode = _mode_field(obj, where)
    try:
        return LinkBundle(links, x_mats, y_mats, epsilon_reported, mode)
    except PreconditionError as e:
        raise DecodeError(f"{where}: {e}") from None


# --- certificate codec -----------------------------------------------------------


def encode_certificate(cert: Certificate) -> dict:
    """Every field of ``cert``, arrays as nested lists of floats and the
    tolerances as an object, plus the type tag and ``cert.worst()``."""
    out = {"type": "certificate", "worst": cert.worst()}
    for f in dataclasses.fields(cert):
        value = getattr(cert, f.name)
        if isinstance(value, np.ndarray):
            value = value.astype(float).tolist()
        elif dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        out[f.name] = value
    return out


# --- subcommand helpers ------------------------------------------------------------


def _require_commuting(meta: dict, path: str) -> None:
    if not meta["commuting"]:
        raise PreconditionError(
            f"{path}: bundle kind {meta['kind']!r} is not a commuting tuple; "
            "link/lift/spectrum need exactly commuting inputs"
        )


def _print_certificate(cert: Certificate) -> None:
    verdict = "PASS" if cert.passed else "FAIL"
    print(f"certificate: {verdict} (epsilon={cert.epsilon:.6g}, mode={cert.mode})")
    for key, value in cert.worst().items():
        print(f"  worst {key}: {value:.6e}")
    print(f"  lengths: {[float(f'{v:.6g}') for v in cert.lengths]}")


def _cmd_gen(args) -> int:
    artifact = gen_bundle(
        kind=args.kind,
        n=args.n,
        N=args.N,
        delta=args.delta,
        seed=args.seed,
        mode=args.mode,
        perturb=args.perturb,
    )
    write_artifact(args.output, json_text(artifact))
    meta = artifact["metadata"]
    print(
        f"wrote {args.output}: kind={meta['kind']} n={meta['n']} N={meta['N']} "
        f"mode={meta['mode']} delta={artifact['delta']:.6g}"
    )
    return 0


def _certify_and_write(bundle: LinkBundle, args) -> int:
    eps = args.epsilon if args.epsilon is not None else bundle.epsilon_reported
    cert = certify(bundle, eps, grid_points=args.grid)
    write_artifact(args.output, json_text(encode_certificate(cert)))
    _print_certificate(cert)
    return 0 if cert.passed else 1


def _cmd_link(args) -> int:
    loaded = decode_bundle(_load_json(args.input), args.input)
    meta = loaded["metadata"]
    _require_commuting(meta, args.input)
    mode = args.mode if args.mode is not None else meta["mode"]
    bundle = toral_links(
        loaded["x"], loaded["y"], mode=mode, tol=args.tol, seed=int(meta["seed"])
    )
    if args.links_output:
        write_artifact(args.links_output, json_text(encode_links(bundle)))
    return _certify_and_write(bundle, args)


def _cmd_lift(args) -> int:
    loaded = decode_bundle(_load_json(args.input), args.input)
    meta = loaded["metadata"]
    _require_commuting(meta, args.input)
    lift, bundle, report = lifted_links(
        loaded["x"], loaded["y"], seed=int(meta["seed"]), grid_points=args.grid
    )
    if args.links_output:
        write_artifact(args.links_output, json_text(encode_links(bundle)))
    if args.report_output:
        payload = {"type": "lift_report"}
        payload.update({k: float(v) for k, v in report.items()})
        write_artifact(args.report_output, json_text(payload))
    print(
        "lift: hom_product_defect={hom_product_defect:.3e} "
        "decay_max_error={decay_max_error:.3e}".format(**report)
    )
    return _certify_and_write(bundle, args)


def _cmd_certify(args) -> int:
    bundle = decode_links(_load_json(args.input), args.input)
    return _certify_and_write(bundle, args)


def _cmd_bott(args) -> int:
    loaded = decode_bundle(_load_json(args.input), args.input)
    mats = loaded["x"].mats
    if len(mats) != 2:
        raise PreconditionError(f"{args.input}: bott needs a bundle with N = 2")
    result = bott_index(mats[0], mats[1], gap_tol=args.gap_tol, tol=args.tol)
    write_artifact(args.output, json_text({"type": "bott", **result._asdict()}))
    print(
        f"bott index {result.index} (winding {result.winding}, "
        f"gap {result.gap:.4f}, defect {result.defect:.4f})"
    )
    return 0


def _relations_for(args):
    if (args.preset is None) == (args.rel_file is None):
        raise PreconditionError("relcheck needs exactly one of --preset / --rel-file")
    if args.preset is not None:
        return preset(args.preset, args.delta)
    parsed = parse_relations(_read_text(args.rel_file))
    if not hasattr(parsed, "relations"):
        raise PreconditionError(f"{args.rel_file}: file holds an expression, not relations")
    return parsed


def _cmd_relcheck(args) -> int:
    rset = _relations_for(args)
    obj = _load_json(args.input)
    if isinstance(obj, dict) and obj.get("type") == "assignment":
        raw = _field(obj, "matrices", args.input)
        if not isinstance(raw, dict):
            raise DecodeError(f"{args.input}.matrices is not an object")
        assign = {
            name: decode_matrix(m, f"{args.input}.matrices[{name!r}]")
            for name, m in raw.items()
        }
    else:
        loaded = decode_bundle(obj, args.input)
        mats = loaded["x"].mats
        names = rset.variables
        if len(names) != len(mats):
            raise PreconditionError(
                f"{args.input}: bundle has {len(mats)} matrices but the relation "
                f"set uses {len(names)} variables {names}"
            )
        assign = dict(zip(names, mats))
    report = membership(assign, rset, slack=args.slack)
    payload = {"type": "membership"}
    payload.update(report.to_dict())
    write_artifact(args.output, json_text(payload))
    print(f"membership: {'PASS' if report.member else 'FAIL'}")
    for text, defect, bound, ok in zip(
        report.relations, report.defects, report.bounds, report.passed
    ):
        print(f"  [{'ok' if ok else 'XX'}] {text}  (defect {defect:.6e}, bound {bound:.6g})")
    return 0 if report.member else 1


def _demo_path(name: str) -> MatrixPath:
    if name == "helix":
        return MatrixPath(
            [Geo(0.75 * np.eye(1, dtype=complex), 2.0 * np.pi * np.eye(1))]
        )
    if name == "m3":
        # unitary u3 = exp(2*pi*i/3 f(number)) and a fixed basis rotation,
        # traced as the conjugation flow u3 -> W u3 W*
        u3 = np.diag(np.exp(2j * np.pi / 3.0 * np.array([1.0, 2.0 / 3.0, 1.0 / 3.0])))
        k = np.array(
            [
                [0.20, 0.60, 0.00],
                [0.60, 0.00, 0.30],
                [0.00, 0.30, -0.20],
            ],
            dtype=complex,
        )
        return MatrixPath([Conj(k, u3)])
    raise PreconditionError(f"unknown demo {name!r}")


def _cmd_project(args) -> int:
    if (args.demo is None) == (args.input is None):
        raise PreconditionError("project needs exactly one of --input / --demo")
    if args.demo is not None:
        path = _demo_path(args.demo)
    else:
        bundle = decode_links(_load_json(args.input), args.input)
        if not 0 <= args.link_index < len(bundle.links):
            raise PreconditionError(
                f"--link-index {args.link_index} out of range for {len(bundle.links)} links"
            )
        path = bundle.links[args.link_index]
    rows = project_solid_torus(path, samples=args.samples)
    lines = ["t,k,re,im,angle_re,angle_im"]
    for t, k, *rest in rows.tolist():
        lines.append(",".join([repr(t), str(round(k)), *map(repr, rest)]))
    write_artifact(args.output, "\n".join(lines) + "\n")
    print(f"wrote {args.output}: {rows.shape[0]} flow samples")
    return 0


def _cmd_spectrum(args) -> int:
    loaded = decode_bundle(_load_json(args.input), args.input)
    meta = loaded["metadata"]
    _require_commuting(meta, args.input)
    tup = loaded["y"] if args.which == "y" else loaded["x"]
    points = joint_spectrum(tup, seed=int(meta["seed"]))
    artifact = {
        "type": "spectrum",
        "n": points.shape[0],
        "N": points.shape[1],
        "re": points.real.tolist(),
        "im": points.imag.tolist(),
    }
    write_artifact(args.output, json_text(artifact))
    print(f"wrote {args.output}: {points.shape[0]} joint spectrum points")
    return 0


# --- argument parsing ------------------------------------------------------------


@functools.cache  # parse_args leaves the parser as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torlinks",
        description="Commutativity-preserving matrix homotopies: generate, link, certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a deterministic tuple bundle")
    gen.add_argument("--kind", choices=GEN_KINDS, default="commuting_pair")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--N", type=int, default=2)
    gen.add_argument("--delta", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mode", choices=MODES, default="normal")
    gen.add_argument("--perturb", choices=("within", "generic"), default="within")
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=_cmd_gen)

    link = sub.add_parser("link", help="build toral links for a bundle and certify them")
    link.add_argument("--input", required=True)
    link.add_argument("--output", required=True, help="certificate JSON")
    link.add_argument("--links-output", help="also save the link paths")
    link.add_argument("--epsilon", type=float)
    link.add_argument("--grid", type=int, default=101)
    link.add_argument("--tol", type=float, default=1e-9)
    link.add_argument("--mode", choices=MODES)
    link.set_defaults(func=_cmd_link)

    lift = sub.add_parser("lift", help="lift to doubled dimension and certify")
    lift.add_argument("--input", required=True)
    lift.add_argument("--output", required=True, help="certificate JSON")
    lift.add_argument("--links-output")
    lift.add_argument("--report-output")
    lift.add_argument("--epsilon", type=float)
    lift.add_argument("--grid", type=int, default=101)
    lift.set_defaults(func=_cmd_lift)

    cert = sub.add_parser("certify", help="re-certify a saved links artifact")
    cert.add_argument("--input", required=True)
    cert.add_argument("--output", required=True)
    cert.add_argument("--epsilon", type=float)
    cert.add_argument("--grid", type=int, default=101)
    cert.set_defaults(func=_cmd_certify)

    bott = sub.add_parser("bott", help="Bott index of a unitary pair bundle")
    bott.add_argument("--input", required=True)
    bott.add_argument("--output", required=True)
    bott.add_argument("--gap-tol", type=float, default=0.05)
    bott.add_argument("--tol", type=float, default=1e-10)
    bott.set_defaults(func=_cmd_bott)

    rel = sub.add_parser("relcheck", help="check matrices against a relation set")
    rel.add_argument("--input", required=True, help="assignment or bundle JSON")
    rel.add_argument("--preset")
    rel.add_argument("--delta", type=float, help="parameter for soft presets")
    rel.add_argument("--rel-file")
    rel.add_argument("--slack", type=float, default=1e-12)
    rel.add_argument("--output", required=True)
    rel.set_defaults(func=_cmd_relcheck)

    proj = sub.add_parser("project", help="export solid-torus flow lines as CSV")
    proj.add_argument("--input", help="links artifact")
    proj.add_argument("--link-index", type=int, default=0)
    proj.add_argument("--demo", choices=("helix", "m3"))
    proj.add_argument("--samples", type=int, default=101)
    proj.add_argument("--output", required=True)
    proj.set_defaults(func=_cmd_project)

    spec = sub.add_parser("spectrum", help="joint spectrum of a commuting bundle")
    spec.add_argument("--input", required=True)
    spec.add_argument("--which", choices=("x", "y"), default="x")
    spec.add_argument("--output", required=True)
    spec.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionError, DiagnosticsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
