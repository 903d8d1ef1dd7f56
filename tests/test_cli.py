"""End-to-end tests for the command line: codecs, determinism, exit codes."""

import base64
import cProfile
import dataclasses
import json
import os
import pstats
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import stored_verdict
from hypothesis import given, settings
from hypothesis import strategies as st

import torlinks
from torlinks import cli, matcore
from torlinks.cli import (
    DecodeError,
    decode_bundle,
    decode_links,
    decode_matrix,
    encode_certificate,
    encode_links,
    encode_matrix,
    gen_bundle,
    json_text,
    main,
)
from torlinks.homotopy import (
    Certificate,
    CertTolerances,
    Conj,
    Flat,
    Geo,
    LinkBundle,
    MatrixPath,
    certify,
    toral_links,
)
from torlinks.jointspec import joint_diagonalize
from torlinks.matcore import PreconditionError, op_norm


@pytest.fixture(autouse=True, scope="module")
def _written_certificates_decide_from_their_worst():
    """Every certificate the CLI writes here must decide ``passed`` from its
    own ``worst``, ``tolerances`` and ``epsilon``."""
    write = cli.write_artifact

    def write_and_check(path, text):
        write(path, text)
        try:
            obj = json.loads(text)
        except ValueError:  # a CSV
            return
        if isinstance(obj, dict) and obj.get("type") == "certificate":
            assert obj["passed"] == stored_verdict(obj), path

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "write_artifact", write_and_check)
        yield


def _read(path) -> str:
    return path.read_text(encoding="utf-8")


def _gen(tmp_path, name="bundle.json", **kw) -> str:
    out = tmp_path / name
    argv = ["gen", "--output", str(out)]
    for key, value in kw.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 0
    return str(out)


# --- canonical JSON and codecs -------------------------------------------------


def test_json_text_is_idempotent_under_reload():
    obj = {"a": 1.0, "b": [0.1, -0.0, 12345678901234567.0, 1e-300], "c": {"x": True}}
    text = json_text(obj)
    assert text == '{"a":1.0,"b":[0.1,-0.0,1.2345678901234568e+16,1e-300],"c":{"x":true}}\n'
    assert json_text(json.loads(text)) == text


_FLOAT_FIELDS = {
    "bound",
    "defect",
    "delta",
    "epsilon",
    "epsilon_reported",
    "gap",
    "slack",
    "softness",
}


def _float_fields(obj):
    """(key, value) for every value stored under a key of _FLOAT_FIELDS."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in _FLOAT_FIELDS:
                yield key, value
            yield from _float_fields(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _float_fields(value)


def test_every_artifact_is_canonical_and_reads_floats_back_as_floats(tmp_path):
    bundle = _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)
    clock = _gen(tmp_path, "clock.json", kind="clock_shift", n=16)
    names = ("cert", "links", "lift", "report", "bott", "member", "spec")
    out = {name: str(tmp_path / f"{name}.json") for name in names}
    link = ["link", "--input", bundle, "--output", out["cert"], "--links-output", out["links"]]
    assert main(link) == 0
    lift = ["lift", "--input", bundle, "--output", out["lift"], "--report-output", out["report"]]
    assert main(lift) == 0
    assert main(["bott", "--input", clock, "--output", out["bott"]]) == 0
    relcheck = ["relcheck", "--input", clock, "--preset", "soft_torus", "--delta", "1.1"]
    assert main(relcheck + ["--output", out["member"]]) == 0
    assert main(["spectrum", "--input", bundle, "--output", out["spec"]]) == 0

    texts = {path: _read(Path(path)) for path in [bundle, clock, *out.values()]}
    seen = set()
    for path, text in texts.items():
        assert json_text(json.loads(text)) == text
        for key, value in _float_fields(json.loads(text)):
            assert type(value) is float, (path, key, value)
            seen.add(key)
    assert {"epsilon_reported", "softness", "bound", "defect"} <= seen
    report = json.loads(texts[out["report"]])
    assert all(type(v) is float for k, v in report.items() if k != "type")
    spec = json.loads(texts[out["spec"]])
    assert all(type(v) is float for row in spec["re"] + spec["im"] for v in row)

    # a bound prints the digits its relation text prints
    relations = json.loads(texts[out["member"]])["relations"]
    normed = [r["relation"] for r in relations if r["relation"].startswith("norm(")]
    assert normed == ["norm(u v - v u) <= 1.1"]
    assert '"bound":1.1,' in texts[out["member"]]


def test_json_text_refuses_unsupported_types():
    for bad in (np.int64(1), np.float32(0.5), {1, 2}, 1j):
        with pytest.raises(PreconditionError, match="cannot serialize"):
            json_text({"x": [bad]})


def test_matrix_codec_round_trip_is_exact():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    decoded = decode_matrix(json.loads(json_text(encode_matrix(a))), "mem")
    assert np.array_equal(decoded, a)


_EDGE_FLOATS = [
    -0.0,
    5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    12345678901234567.0,
]


@st.composite
def _float_matrices(draw):
    n = draw(st.integers(1, 5))
    entry = st.one_of(
        st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
    )
    parts = draw(st.lists(entry, min_size=2 * n * n, max_size=2 * n * n))
    a = np.empty((n, n), dtype=complex)
    a.real = np.reshape(parts[: n * n], (n, n))
    a.imag = np.reshape(parts[n * n :], (n, n))
    return a


def _reencoded(payload: str, edit) -> str:
    """A matrix payload with ``edit`` applied to its raw bytes."""
    return base64.b64encode(edit(base64.b64decode(payload))).decode("ascii")


def _reference_payload(a) -> str:
    """Entries packed one at a time, row by row, as little-endian (re, im)
    doubles with -0 folded to 0, then base64."""

    def pack(z) -> bytes:
        return struct.pack("<dd", *(v if v != 0 else 0.0 for v in (z.real, z.imag)))

    return base64.b64encode(b"".join(pack(z) for row in a for z in row)).decode("ascii")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_float_matrices())
def test_matrix_rows_match_per_entry_formatting(a):
    text = json_text(encode_matrix(a))
    n = a.shape[0]
    assert text == f'{{"c16":"{_reference_payload(a)}","n":{n}}}\n'
    assert json_text(json.loads(text)) == text
    assert np.array_equal(decode_matrix(json.loads(text), "mem"), a)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_float_matrices())
def test_matrix_payload_round_trip_is_bit_exact(a):
    decoded = decode_matrix(json.loads(json_text(encode_matrix(a))), "mem")
    # bit for bit, except that -0 is stored, and so read back, as 0
    assert decoded.tobytes() == (a + 0.0).tobytes()
    assert encode_matrix(a) == encode_matrix(decoded)
    assert decoded.dtype == np.complex128 and decoded.flags.writeable


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_row_cannot_be_serialized(bad):
    with pytest.raises(PreconditionError, match="non-finite"):
        json_text({"rows": [[0.5, 0.25], [bad, -0.0]]})


@pytest.mark.parametrize("bad", [True, "0.5", None, [0.5]])
def test_matrix_decode_names_the_bad_entry(bad):
    obj = {"n": 2, "c16": bad}
    with pytest.raises(DecodeError, match=r"mem\.c16 is not (a string|strict base64)"):
        decode_matrix(obj, "mem")


def test_matrix_decode_rows_and_integers():
    short = encode_matrix(np.eye(2))
    short["c16"] = _reencoded(short["c16"], lambda raw: raw[:-16])
    with pytest.raises(DecodeError, match=r"mem\.c16 holds 48 bytes, not the 16 n\^2 of n = 2"):
        decode_matrix(short, "mem")
    one = encode_matrix(np.eye(1))
    for n in (True, 1.0, 0, -1, "1"):
        with pytest.raises(DecodeError, match=r"mem\.n must be a positive integer"):
            decode_matrix({**one, "n": n}, "mem")
    with pytest.raises(DecodeError, match=r"mem\.c16 holds 16 bytes"):
        decode_matrix({**one, "n": 10**3000}, "mem")  # 16 n^2 has too many digits to print
    for bad in (float("nan"), float("inf"), -float("inf")):
        payload = base64.b64encode(struct.pack("<dd", 0.5, bad)).decode("ascii")
        with pytest.raises(DecodeError, match=r"mem\.c16: entries must be finite"):
            decode_matrix({"n": 1, "c16": payload}, "mem")


def test_matrix_codec_rejects_garbage():
    # there is one reader, and it refuses the older text shape
    old = {"n": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(DecodeError, match="keys n, c16"):
        decode_matrix(old, "mem")
    with pytest.raises(DecodeError):
        decode_matrix({**encode_matrix(np.eye(2)), "re": []}, "mem")
    with pytest.raises(DecodeError):
        decode_matrix([1, 2], "mem")


def test_bundle_size_is_bounded_by_the_binary_payload(tmp_path):
    # matrix entries as decimal text took about 11 MB here; base64 of 16 bytes per entry,
    # plus a little metadata, stays below this bound
    _gen(tmp_path, n=256, N=2)
    payload = 4 * -(-16 * 256**2 // 3)
    assert (tmp_path / "bundle.json").stat().st_size <= 4 * payload + 4096


# --- gen -----------------------------------------------------------------------


def test_gen_same_seed_same_bytes(tmp_path):
    a = _gen(tmp_path, "a.json", n=5, N=2, delta=1e-2, seed=3)
    b = _gen(tmp_path, "b.json", n=5, N=2, delta=1e-2, seed=3)
    c = _gen(tmp_path, "c.json", n=5, N=2, delta=1e-2, seed=4)
    assert _read(tmp_path / "a.json") == _read(tmp_path / "b.json")
    assert _read(tmp_path / "a.json") != _read(tmp_path / "c.json")
    assert a != b  # distinct files, same content


def test_gen_delta_zero_copies_x(tmp_path):
    path = _gen(tmp_path, n=4, N=3, delta=0.0, seed=0)
    obj = json.loads(_read(tmp_path / "bundle.json"))
    assert obj["y"] == "x"  # Y = X is stored once
    assert obj["delta"] == 0
    assert path.endswith("bundle.json")
    loaded = decode_bundle(obj, "mem")
    assert loaded["y"] is loaded["x"]


def test_gen_aliases_y_exactly_when_it_equals_x():
    cases = [
        ("clock_shift", 1, 0.0),
        ("clock_shift", 8, 0.0),
        ("soft_pair", 8, 0.0),
        ("soft_pair", 8, 0.9),
        ("commuting_pair", 5, 0.0),
        ("commuting_pair", 5, 1e-2),
        ("commuting_pair", 5, 1e-12),
    ]
    for kind, n, delta in cases:
        art = gen_bundle(kind, n, N=2, delta=delta, seed=3)
        loaded = decode_bundle(art, "mem")
        same = all(map(np.array_equal, loaded["x"].mats, loaded["y"].mats))
        assert (art["y"] == "x") == same, (kind, n, delta)
        assert same == (kind != "commuting_pair" or delta == 0.0), (kind, n, delta)
    # the clock and shift of size 256 are stored once: 2 of the 4 payloads
    text = json_text(gen_bundle("clock_shift", 256))
    payload = 4 * -(-16 * 256**2 // 3)
    assert 2 * payload < len(text) <= 2 * payload + 4096


def test_bundle_alias_on_a_displaced_bundle_fails_the_delta_check(tmp_path, capsys):
    _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)
    obj = json.loads(_read(tmp_path / "bundle.json"))
    obj["y"] = "x"
    bad = tmp_path / "bad.json"
    bad.write_text(json_text(obj), encoding="utf-8")
    out = str(tmp_path / "out.json")
    assert main(["link", "--input", str(bad), "--output", out]) == 2
    assert "does not match recomputed 0.0" in capsys.readouterr().err
    for slot in ("y", None, 1.5, {}):
        with pytest.raises(DecodeError, match=r"mem\.y: expected a nonempty array"):
            decode_bundle({**obj, "y": slot}, "mem")


def test_bundle_with_y_written_out_reads_as_its_alias(tmp_path):
    # bundles written before the alias store Y = X as a second array
    links = tmp_path / "links.json"
    runs = {
        "clock": (dict(kind="clock_shift", n=8), [
            ["bott"],
            ["relcheck", "--preset", "soft_torus", "--delta", "1"],
            ["relcheck", "--preset", "soft_torus", "--delta", "0.1"],
            ["spectrum", "--which", "y"],
        ]),
        "soft": (dict(kind="soft_pair", n=8, delta=0.9), [["bott"]]),
        "pair": (dict(n=5, N=3, delta=0.0, seed=2), [
            ["link", "--links-output", str(links)],
            ["spectrum", "--which", "y"],
        ]),
    }
    for name, (kw, argvs) in runs.items():
        aliased = _gen(tmp_path, f"{name}.json", **kw)
        obj = json.loads(_read(tmp_path / f"{name}.json"))
        assert obj["y"] == "x"
        written = tmp_path / f"{name}-old.json"
        written.write_text(json_text({**obj, "y": obj["x"]}), encoding="utf-8")
        for argv in argvs:
            outputs = []
            for src in (aliased, str(written)):
                out = tmp_path / "out.json"
                code = main(argv + ["--input", src, "--output", str(out)])
                outputs.append((code, _read(out), links.exists() and _read(links)))
            assert outputs[0] == outputs[1], (name, argv)


def test_gen_respects_requested_delta(tmp_path):
    for mode in ("normal", "hermitian", "unitary"):
        _gen(tmp_path, f"{mode}.json", n=6, N=2, delta=1e-2, seed=1, mode=mode)
        loaded = decode_bundle(json.loads(_read(tmp_path / f"{mode}.json")), "mem")
        assert 0 < loaded["delta"] <= 1e-2
        assert loaded["metadata"]["mode"] == mode


def test_gen_generic_perturbation_still_commutes(tmp_path):
    _gen(tmp_path, n=5, N=3, delta=1e-2, seed=2, perturb="generic")
    loaded = decode_bundle(json.loads(_read(tmp_path / "bundle.json")), "mem")
    y = loaded["y"].mats
    worst = max(
        op_norm(y[j] @ y[k] - y[k] @ y[j])
        for j in range(3)
        for k in range(j + 1, 3)
    )
    assert worst <= 1e-12


def test_gen_bundle_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        gen_bundle("mystery", 4)
    with pytest.raises(PreconditionError):
        gen_bundle("clock_shift", 4, N=3)
    with pytest.raises(PreconditionError):
        gen_bundle("commuting_pair", 4, delta=-1.0)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"mode": "bogus"}, "unknown mode 'bogus'"),
        ({"perturb": "bogus"}, "unknown perturbation 'bogus'"),
        ({"kind": "clock_shift", "N": 3}, "clock_shift bundles always have N = 2"),
        ({"kind": "soft_pair", "N": 1}, "soft_pair bundles always have N = 2"),
    ],
)
def test_gen_bundle_names_what_it_refuses(kw, message):
    kw = {"kind": "commuting_pair", "n": 4, **kw}
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        gen_bundle(**kw)


# --- link / certify --------------------------------------------------------------


def test_link_pipeline_passes_and_is_reproducible(tmp_path):
    bundle = _gen(tmp_path, n=6, N=2, delta=1e-3, seed=1)
    cert1 = tmp_path / "cert1.json"
    cert2 = tmp_path / "cert2.json"
    assert main(["link", "--input", bundle, "--output", str(cert1)]) == 0
    assert main(["link", "--input", bundle, "--output", str(cert2)]) == 0
    assert _read(cert1) == _read(cert2)

    obj = json.loads(_read(cert1))
    assert obj["passed"] is True
    assert obj["worst"]["distance_to_target"] <= obj["epsilon"]
    assert obj["worst"]["commutation"] <= 1e-8


def test_link_refuses_noncommuting_bundle(tmp_path, capsys):
    bundle = _gen(tmp_path, kind="clock_shift", n=8)
    code = main(["link", "--input", bundle, "--output", str(tmp_path / "c.json")])
    assert code == 2
    assert "commuting" in capsys.readouterr().err


def test_certify_saved_links_and_detect_tampering(tmp_path):
    bundle = _gen(tmp_path, n=5, N=2, delta=1e-3, seed=7)
    links = tmp_path / "links.json"
    cert = tmp_path / "cert.json"
    assert (
        main(
            [
                "link",
                "--input",
                bundle,
                "--output",
                str(cert),
                "--links-output",
                str(links),
            ]
        )
        == 0
    )
    text = _read(links)
    assert json_text(json.loads(text)) == text  # canonical bytes

    recert = tmp_path / "recert.json"
    assert main(["certify", "--input", str(links), "--output", str(recert)]) == 0

    # point one flat segment's end at a moved copy of it; y keeps the original
    tampered = json.loads(text)
    flat = tampered["links"][0]["segments"][-1]
    flat["b"] = _append_matrix(tampered, _edited(tampered["matrices"][flat["b"]], 1e-3))
    bad = tmp_path / "bad.json"
    bad.write_text(json_text(tampered), encoding="utf-8")
    code = main(["certify", "--input", str(bad), "--output", str(recert)])
    assert code == 1
    assert json.loads(_read(recert))["passed"] is False


_SMALL_MATRIX = encode_matrix(0.1 * np.eye(2))


def _edited(matrix: dict, shift: float) -> dict:
    """An artifact matrix with ``shift`` added to its real [0, 0] entry."""
    a = decode_matrix(matrix, "mem")
    a[0, 0] += shift
    return encode_matrix(a)


_MATRIX_SLOTS = ("a", "b", "h", "base")


def _append_matrix(obj: dict, matrix: dict) -> int:
    """Add a matrix to a links artifact's table; returns its index."""
    obj["matrices"].append(matrix)
    return len(obj["matrices"]) - 1


def _inline_matrices(obj: dict) -> None:
    """Rewrite a links artifact in the older shape: a matrix object in every
    slot, no table, and the conjugator and lengths fields it carried."""
    table = obj.pop("matrices")
    for key in ("x", "y"):
        obj[key] = [table[k] for k in obj[key]]
    for link in obj["links"]:
        for seg in link["segments"]:
            seg.update({key: table[seg[key]] for key in _MATRIX_SLOTS if key in seg})
    obj["conjugator"] = obj["links"][0]["segments"][0]["h"]
    obj["lengths"] = [0.0] * len(obj["links"])


def _segment(obj: dict, j: int, i: int) -> dict:
    return obj["links"][j]["segments"][i]


def _resize_flat(obj: dict) -> None:
    flat = _segment(obj, 0, 1)
    flat["a"] = flat["b"] = _append_matrix(obj, _SMALL_MATRIX)


def _open_gap(obj: dict) -> None:
    flat = _segment(obj, 1, 1)
    flat["a"] = _append_matrix(obj, _edited(obj["matrices"][flat["a"]], 0.5))


_MALFORMED_LINKS = {
    "duration": ("unexpected key 'duration'", lambda o: _segment(o, 0, 1).update(duration=0.5)),
    "theta0": ("unexpected key 'theta0' in a conj", lambda o: _segment(o, 0, 0).update(theta0=0.0)),
    "epsilon_reported": ("epsilon_reported", lambda o: o.update(epsilon_reported=None)),
    "segments": ("segments", lambda o: o["links"][0].update(segments=3)),
    "count": ("bad.json: a bundle needs", lambda o: o["x"].pop()),
    "x-count": ("bad.json: a bundle needs", lambda o: o["x"].append(0)),
    "dimension": (
        "bad.json: links, x and y disagree in dimension",
        lambda o: o["y"].__setitem__(0, _append_matrix(o, _SMALL_MATRIX)),
    ),
    "join-gap": ("bad.json.links[1]: consecutive segments do not meet", _open_gap),
    "conj-shape": (
        "bad.json.links[0]: conjugation generator and base differ",
        lambda o: _segment(o, 0, 0).update(h=_append_matrix(o, _SMALL_MATRIX)),
    ),
    "mode": ("mode", lambda o: o.update(mode="bogus")),
    "matrices": ("matrices", _inline_matrices),
    "index-range": ("segments[0].base", lambda o: _segment(o, 0, 0).update(base=len(o["matrices"]))),
    "index-negative": ("y[1]", lambda o: o["y"].__setitem__(1, -1)),
    "index-bool": ("x[0]", lambda o: o["x"].__setitem__(0, True)),
    "index-float": ("segments[1].b", lambda o: _segment(o, 0, 1).update(b=2.0)),
    "index-matrix": ("segments[0].h", lambda o: _segment(o, 1, 0).update(h=_SMALL_MATRIX)),
    "resized": ("bad.json.links[0]: segment shapes (3, 3) and (2, 2)", _resize_flat),
    "segment-count": (
        "bad.json: links have different segment counts [2, 1]",
        lambda o: o["links"][1]["segments"].pop(0),
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_LINKS))
def test_malformed_links_artifact_exits_2(tmp_path, capsys, case):
    bundle = _gen(tmp_path, n=3, N=2, delta=1e-3, seed=4, perturb="generic")
    links = tmp_path / "links.json"
    cert = tmp_path / "cert.json"
    argv = ["link", "--input", bundle, "--output", str(cert), "--links-output", str(links)]
    assert main(argv) == 0
    obj = json.loads(_read(links))
    assert [len(link["segments"]) for link in obj["links"]] == [2, 2]  # conj, then flat
    field, mutate = _MALFORMED_LINKS[case]
    mutate(obj)
    bad = tmp_path / "bad.json"
    # json.dumps keeps 2.0 a float; the canonical writer would print it as 2
    bad.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    code = main(["certify", "--input", str(bad), "--output", str(tmp_path / "re.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and field in err


def test_segment_keys_are_the_dataclass_fields():
    # the encoder writes every field of a segment kind, and the decoder
    # accepts exactly those keys, so a field cannot drop out of the format
    h, base = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    segments = {
        "flat": Flat(base, h),
        "conj": Conj(h, base),
        "geo": Geo(base, h),
    }
    for kind, seg in segments.items():
        table = []

        def ref(a) -> int:
            table.append(a)
            return len(table) - 1

        written = cli._encode_segment(seg, ref)
        fields = {f.name for f in dataclasses.fields(seg)}
        assert written["kind"] == kind and set(written) - {"kind"} == fields
        assert type(cli._decode_segment(written, "mem", table, {})) is type(seg)
        for key in fields:
            dropped = {k: v for k, v in written.items() if k != key}
            with pytest.raises(DecodeError, match=f"missing field '{key}'"):
                cli._decode_segment(dropped, "mem", table, {})
        with pytest.raises(DecodeError, match=f"unexpected key 'extra' in a {kind} segment"):
            cli._decode_segment({**written, "extra": 0.0}, "mem", table, {})


def _herm_eig_calls(fn, *args):
    """Result of fn and its number of matcore.herm_eig calls (cProfile)."""
    prof = cProfile.Profile()
    result = prof.runcall(fn, *args)
    stats = pstats.Stats(prof).stats.items()
    herm_eig = (matcore.__file__, "herm_eig")
    return result, sum(s[1] for (path, _, name), s in stats if (path, name) == herm_eig)


def _two_unitaries():
    u = np.diag(np.exp(1j * np.array([0.3, -1.1, 2.0])))
    w = np.diag(np.exp(1j * np.array([-0.4, 0.9, 1.7])))
    h = np.array([[0.2, 0.1, 0.0], [0.1, -0.3, 0.05], [0.0, 0.05, 0.1]], dtype=complex)
    return u, w, h


def test_hand_made_links_with_a_second_conj_segment_certify_as_in_memory():
    # every builder puts its conjugation first; a file may put it second,
    # which makes the path check read Conj.start
    x = [np.diag([0.5, -0.25j, 0.1]), np.diag([0.2, 0.3, -0.4])]
    mid = [0.9 * m for m in x]
    h = np.array([[0.0, 0.3, 0.1], [0.3, 0.2, 0.0], [0.1, 0.0, -0.2]], dtype=complex)
    links = [MatrixPath([Flat(a, b), Conj(h, b)]) for a, b in zip(x, mid)]
    y = [link.end for link in links]
    in_memory = LinkBundle(links, x, y, epsilon_reported=0.5)
    matrices = [*x, *y, *mid, h]
    obj = {
        "type": "links",
        "mode": "normal",
        "epsilon_reported": 0.5,
        "x": [0, 1],
        "y": [2, 3],
        "links": [
            {
                "segments": [
                    {"kind": "flat", "a": j, "b": 4 + j},
                    {"kind": "conj", "h": 6, "base": 4 + j},
                ]
            }
            for j in range(2)
        ],
        "matrices": [encode_matrix(m) for m in matrices],
    }
    decoded = decode_links(json.loads(json_text(obj)), "mem")
    assert [type(s) for s in decoded.links[1].segments] == [Flat, Conj]
    certs = [json_text(encode_certificate(certify(b, 0.5))) for b in (decoded, in_memory)]
    assert certs[0] == certs[1]


def test_geo_links_sharing_a_generator_decode_it_once():
    u, w, h = _two_unitaries()
    links = [MatrixPath([Geo(m, h)]) for m in (u, w)]
    ends = [link.end for link in links]
    bundle = LinkBundle(links, [u, w], ends, epsilon_reported=1.0, mode="unitary")
    obj = json.loads(json_text(encode_links(bundle)))
    assert [link["segments"][0]["h"] for link in obj["links"]] == [4, 4]  # after x and y
    decoded, calls = _herm_eig_calls(decode_links, obj, "mem")
    assert calls == 1  # one per segment before geodesics shared H
    for a, b in zip(decoded.links, bundle.links):
        assert np.array_equal(a.value(0.3), b.value(0.3))


def test_conj_and_geo_sharing_an_h_index_keep_their_kinds():
    u, _, h = _two_unitaries()
    conj = Conj(h, u)
    link = MatrixPath([conj, Geo(conj.end, h)])
    bundle = LinkBundle([link], [u], [link.end], epsilon_reported=1.0, mode="unitary")
    obj = json.loads(json_text(encode_links(bundle)))
    assert obj["links"][0]["segments"][0]["h"] == obj["links"][0]["segments"][1]["h"]
    decoded, calls = _herm_eig_calls(decode_links, obj, "mem")
    assert [type(seg) for seg in decoded.links[0].segments] == [Conj, Geo]
    assert calls == 2
    for a, b in zip(decoded.links, bundle.links):
        assert np.array_equal(a.value(0.7), b.value(0.7))


def test_certificate_keys_are_its_fields():
    keys = {f.name for f in dataclasses.fields(Certificate)} | {"type", "worst"}
    for mode in ("normal", "unitary"):  # mode_defects is None, then an array
        art = gen_bundle("commuting_pair", 4, N=3, delta=1e-2, seed=2, mode=mode)
        loaded = decode_bundle(art, "mem")
        bundle = toral_links(loaded["x"], loaded["y"], mode=mode, seed=2)
        obj = encode_certificate(certify(bundle, bundle.epsilon_reported))
        assert set(obj) == keys
        assert obj["tolerances"] == dataclasses.asdict(CertTolerances())


def test_links_and_certificate_decode_encode_identity(tmp_path):
    bundle = _gen(tmp_path, n=4, N=2, delta=1e-3, seed=9, mode="hermitian", perturb="generic")
    links = tmp_path / "links.json"
    cert = tmp_path / "cert.json"
    main(["link", "--input", bundle, "--output", str(cert), "--links-output", str(links)])

    links_text = _read(links)
    again = json_text(encode_links(decode_links(json.loads(links_text), "mem")))
    assert again == links_text

    cert_text = _read(cert)
    assert json_text(json.loads(cert_text)) == cert_text

    # n = 16, N = 3, normal mode: x, y, the shared H and the approximants
    # psi_j are the 3N + 1 distinct matrices; the conjugation bases are the x_j
    # and the flat ends the y_j (19 matrix objects when each slot held one)
    art = gen_bundle("commuting_pair", 16, N=3, delta=1e-2, seed=0, perturb="generic")
    loaded = decode_bundle(art, "mem")
    links_text = json_text(encode_links(toral_links(loaded["x"], loaded["y"], seed=0)))
    obj = json.loads(links_text)
    assert len(obj["matrices"]) == 10
    prof = cProfile.Profile()
    decoded = prof.runcall(decode_links, obj, "mem")
    calls = {
        name: stat[1]
        for (path, _, name), stat in pstats.Stats(prof).stats.items()
        if (path, name) in ((cli.__file__, "decode_matrix"), (matcore.__file__, "herm_eig"))
    }
    assert calls == {"decode_matrix": 10, "herm_eig": 1}
    assert json_text(encode_links(decoded)) == links_text


def test_tampered_bundle_fails_delta_integrity(tmp_path, capsys):
    bundle = _gen(tmp_path, n=4, N=2, delta=1e-3, seed=0)
    obj = json.loads(_read(tmp_path / "bundle.json"))
    obj["y"][0] = _edited(obj["y"][0], 0.1)
    bad = tmp_path / "tampered.json"
    bad.write_text(json_text(obj), encoding="utf-8")
    code = main(["link", "--input", str(bad), "--output", str(tmp_path / "c.json")])
    assert code == 2
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("delta", None),
        ("seed", "x"),
        ("n", "x"),
        ("n", 1.5),
        ("n", 3.0),
        ("n", 4),
        ("N", 2.0),
        ("kind", {}),
        ("mode", "bogus"),
        ("commuting", "x"),
    ],
)
def test_malformed_bundle_exits_2(tmp_path, capsys, field, value):
    _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)
    obj = json.loads(_read(tmp_path / "bundle.json"))
    if field == "delta":
        obj[field] = value
    else:
        obj["metadata"][field] = value
        field = f"metadata.{field}"
    bad = tmp_path / "bad.json"
    # json.dumps keeps 2.0 a float; the canonical writer would print it as 2
    bad.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    code = main(["link", "--input", str(bad), "--output", str(tmp_path / "c.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and field in err


def _put_entry(matrix: dict, value: float) -> None:
    """Write ``value`` into an artifact matrix's payload as the imaginary part
    of entry [2, 1]; encode_matrix refuses NaN and infinity."""
    start = 16 * (2 * matrix["n"] + 1) + 8
    entry = struct.pack("<d", value)
    matrix["c16"] = _reencoded(matrix["c16"], lambda raw: raw[:start] + entry + raw[start + 8 :])


@pytest.mark.parametrize("command", ["gen", "spectrum", "link", "lift"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    out = ["--output", str(tmp_path / "out.json")]
    if command == "gen":
        argv = ["gen", "--n", "3", "--seed", "-1"]
    else:  # link, lift and spectrum take their seed from the bundle's metadata
        _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)
        obj = json.loads(_read(tmp_path / "bundle.json"))
        obj["metadata"]["seed"] = -1
        bad = tmp_path / "bad.json"
        bad.write_text(json_text(obj), encoding="utf-8")
        argv = [command, "--input", str(bad)]
    capsys.readouterr()
    assert main(argv + out) == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_bundle_delta_read_as_inf_exits_2(tmp_path, capsys):
    # json.loads reads 1e999 as inf, which no parse_constant sees
    obj = json.loads(_read(Path(_gen(tmp_path, n=3, N=2, delta=1e-3, seed=0))))
    obj["delta"] = "LITERAL"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj).replace('"LITERAL"', "1e999"), encoding="utf-8")
    capsys.readouterr()
    assert main(["link", "--input", str(bad), "--output", str(tmp_path / "c.json")]) == 2
    assert capsys.readouterr().err == f"error: {bad}.delta is not a finite number\n"


@pytest.mark.parametrize("command", ["link", "bott"])
@pytest.mark.parametrize("which", ["x", "y"])
def test_non_normal_bundle_names_the_file_and_tuple(tmp_path, capsys, command, which):
    obj = json.loads(_read(Path(_gen(tmp_path, n=3, N=2, delta=1e-3, seed=0))))
    obj[which][1] = encode_matrix([[0, 0.5, 0], [0, 0, 0], [0, 0, 0]])
    x, y = ([decode_matrix(m, "m") for m in obj[key]] for key in ("x", "y"))
    obj["delta"] = max(op_norm(a - b) for a, b in zip(x, y))
    bad = tmp_path / "bad.json"
    bad.write_text(json_text(obj), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--input", str(bad), "--output", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}.{which}: matrix 1 has normality defect 2.500e-01 > 1.000e-10\n"
    )


_BAD_TOLERANCES = [
    # (command, input kind, flag, value, parameter named in the error)
    ("bott", "commuting_pair", "--tol", "nan", "tol"),  # not unitary: NaN passed it
    ("bott", "commuting_pair", "--tol", "-1", "tol"),
    ("bott", "clock_shift", "--gap-tol", "nan", "gap_tol"),
    ("bott", "clock_shift", "--gap-tol", "-1", "gap_tol"),
    ("link", "commuting_pair", "--tol", "nan", "tol"),
    ("link", "commuting_pair", "--tol", "-1", "tol"),
    ("link", "commuting_pair", "--epsilon", "nan", "epsilon"),
    ("link", "commuting_pair", "--epsilon", "inf", "epsilon"),
    ("lift", "commuting_pair", "--epsilon", "nan", "epsilon"),
    ("certify", "links", "--epsilon", "nan", "epsilon"),
    ("certify", "links", "--epsilon", "inf", "epsilon"),
]


@pytest.mark.parametrize("command, kind, flag, value, name", _BAD_TOLERANCES)
def test_bad_tolerance_exits_2(tmp_path, capsys, command, kind, flag, value, name):
    if kind == "clock_shift":
        inp = _gen(tmp_path, kind="clock_shift", n=16)
    else:
        inp = _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)
    if kind == "links":
        links = str(tmp_path / "links.json")
        argv = ["link", "--input", inp, "--output", str(tmp_path / "c.json")]
        assert main(argv + ["--links-output", links]) == 0
        inp = links
    capsys.readouterr()
    code = main([command, "--input", inp, "--output", str(tmp_path / "o.json"), flag, value])
    assert code == 2
    assert f"{name} must be finite and >= 0" in capsys.readouterr().err


_NON_FINITE = {
    # json.dumps writes NaN and Infinity as bare words, and a matrix payload
    # can hold their bytes
    "bundle-delta": ("bundle", lambda o: o.update(delta=float("nan")), ["link"]),
    "bundle-entry": ("bundle", lambda o: _put_entry(o["y"][0], np.inf), ["link"]),
    "bundle-nan-entry": ("bundle", lambda o: _put_entry(o["x"][1], np.nan), ["link"]),
    "links-epsilon": (
        "links",
        lambda o: o.update(epsilon_reported=float("nan")),
        ["certify", "--epsilon", "0.1"],
    ),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_numbers_exit_2(tmp_path, capsys, case):
    kind, mutate, argv = _NON_FINITE[case]
    bundle = _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)
    links = tmp_path / "links.json"
    argv_link = ["link", "--input", bundle, "--output", str(tmp_path / "c.json")]
    assert main(argv_link + ["--links-output", str(links)]) == 0
    obj = json.loads(_read(tmp_path / f"{kind}.json"))
    mutate(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    code = main(argv + ["--input", str(bad), "--output", str(tmp_path / "re.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["certify", "project"])
def test_negative_epsilon_reported_is_refused_by_name(tmp_path, capsys, command):
    bundle = _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)
    links = tmp_path / "links.json"
    argv_link = ["link", "--input", bundle, "--output", str(tmp_path / "c.json")]
    assert main(argv_link + ["--links-output", str(links)]) == 0
    obj = json.loads(_read(links))
    obj["epsilon_reported"] = -0.5
    message = "bad.json.epsilon_reported must be finite and >= 0, got -0.5"
    with pytest.raises(DecodeError, match=f"^{re.escape(message)}$"):
        decode_links(obj, "bad.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--input", str(bad), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / message}\n"
    assert not out.exists()


def test_malformed_json_names_the_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["link", "--input", str(bad), "--output", str(tmp_path / "c.json")])
    assert code == 2
    assert "broken.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "literal, message",
    [("9" * 5000, "invalid JSON"), ("NaN", "non-finite number NaN in JSON")],
    ids=["5000-digit-int", "nan"],
)
def test_unreadable_number_exits_2_naming_the_file(tmp_path, capsys, literal, message):
    # json.loads refuses an integer literal longer than Python's 4300-digit
    # limit with a plain ValueError; parse_constant refuses NaN itself
    obj = json.loads(_read(tmp_path / _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)))
    obj["delta"] = "LITERAL"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj).replace('"LITERAL"', literal), encoding="utf-8")
    capsys.readouterr()
    code = main(["link", "--input", str(bad), "--output", str(tmp_path / "c.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message in err


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["link", "--input", str(tmp_path / "nope.json"), "--output", "x.json"])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_directory_input_exits_2(tmp_path, capsys):
    code = main(["certify", "--input", str(tmp_path), "--output", str(tmp_path / "c.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}")


@pytest.mark.parametrize("command", ["gen", "link", "gen-missing-directory"])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.mkdir()
    if command == "gen":
        target, argv = taken, ["gen", "--n", "3"]
    elif command == "link":
        bundle = _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)
        target = taken
        argv = ["link", "--input", bundle, "--links-output", str(taken)]
        argv += ["--output", str(tmp_path / "cert.json")]
    else:
        target, argv = tmp_path / "nowhere" / "bundle.json", ["gen", "--n", "3"]
    capsys.readouterr()
    assert main(argv + ["--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {target}: cannot write")
    assert not list(tmp_path.rglob(".tmp-artifact-*"))


def test_relation_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bundle = _gen(tmp_path, kind="clock_shift", n=4)
    rel = tmp_path / "latin1.rel"
    rel.write_bytes("u u' - 1 = 0  # caf\u00e9\n".encode("latin-1"))
    argv = ["relcheck", "--input", bundle, "--rel-file", str(rel)]
    code = main(argv + ["--output", str(tmp_path / "r.json")])
    assert code == 2
    assert "latin1.rel" in capsys.readouterr().err


@pytest.mark.parametrize("value", [[1, 2], None, "x", 1.5])
def test_assignment_matrices_must_be_an_object(tmp_path, capsys, value):
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps({"type": "assignment", "matrices": value}), encoding="utf-8")
    argv = ["relcheck", "--input", str(assign), "--preset", "soft_torus", "--delta", "1"]
    code = main(argv + ["--output", str(tmp_path / "r.json")])
    assert code == 2
    assert "matrices" in capsys.readouterr().err


def _field_paths(obj, prefix=()):
    """Every key or index path into obj."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


_DROP = object()


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutations(text: str):
    """(path, value, artifact) for each field path dropped or replaced by
    null, a string, an empty array or object, a float or a boolean."""
    for path in _field_paths(json.loads(text)):
        for value in (_DROP, None, "x", [], {}, 1.5, True):
            obj = json.loads(text)
            parent = _at(obj, path[:-1])
            if value is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, value, obj


_BAD_PAYLOADS = {
    "truncated": lambda m: m.update(c16=m["c16"][:-4]),
    "padded": lambda m: m.update(c16=_reencoded(m["c16"], lambda raw: raw + b"\0")),
    "non-base64": lambda m: m.update(c16="!" + m["c16"][1:]),
    "whitespace": lambda m: m.update(c16=m["c16"][:8] + "\n" + m["c16"][8:]),
    "number": lambda m: m.update(c16=0.5),
    "list": lambda m: m.update(c16=[m["c16"]]),
    "n-true": lambda m: m.update(n=True),
}


def _payload_mutations(text: str):
    """(path, case, artifact) for every matrix of the artifact spoiled in
    each of the ways of _BAD_PAYLOADS."""
    for path in _field_paths(json.loads(text)):
        if path[-1] != "c16":
            continue
        for case, spoil in _BAD_PAYLOADS.items():
            obj = json.loads(text)
            spoil(_at(obj, path[:-1]))
            yield path, case, obj


def test_mutated_artifacts_never_raise(tmp_path, capsys):
    bundle = _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0, perturb="generic")
    links = tmp_path / "links.json"
    out = str(tmp_path / "out")
    assert main(["link", "--input", bundle, "--output", out, "--links-output", str(links)]) == 0
    rel = tmp_path / "unitary.rel"
    rel.write_text("u u' - 1 = 0\n", encoding="utf-8")
    assignment = json_text({"type": "assignment", "matrices": {"u": encode_matrix(np.eye(3))}})
    links_text = _read(links)
    _gen(tmp_path, "clock.json", kind="clock_shift", n=3)  # stores "y": "x"
    commands = {
        _read(tmp_path / "bundle.json"): [
            ["link"],
            ["lift"],
            ["bott"],
            ["relcheck", "--preset", "soft_torus", "--delta", "1"],
            ["spectrum"],
        ],
        _read(tmp_path / "clock.json"): [
            ["bott", "--gap-tol", "0"],
            ["relcheck", "--preset", "soft_torus", "--delta", "2"],
            ["spectrum", "--which", "y"],
        ],
        links_text: [["certify"], ["project"]],
        assignment: [["relcheck", "--rel-file", str(rel)]],
    }
    bad = tmp_path / "mutated.json"

    def run(argv):
        try:
            return main(argv + ["--input", str(bad), "--output", out])
        except Exception as e:  # any exception is a failure
            return repr(e)

    failures = []
    for text, argvs in commands.items():
        for path, value, obj in _mutations(text):
            bad.write_text(json.dumps(obj), encoding="utf-8")
            # a links artifact's matrix slots hold indices into its table, and
            # no mutated value is a valid index
            index_slot = text == links_text and (
                path[-1] in _MATRIX_SLOTS or (path[0] in ("x", "y") and len(path) == 2)
            )
            for argv in argvs:
                code = run(argv)
                if code not in (0, 1, 2) or (index_slot and code != 2):
                    failures.append((argv[0], path, "drop" if value is _DROP else value, code))
        # every malformed matrix payload is a decode error for every reader
        for path, case, obj in _payload_mutations(text):
            bad.write_text(json.dumps(obj), encoding="utf-8")
            for argv in argvs:
                code = run(argv)
                if code != 2:
                    failures.append((argv[0], path, case, code))
    capsys.readouterr()
    assert failures == []


def test_links_with_entries_near_1e200_exit_with_their_code(tmp_path, capsys):
    # A*A of such a matrix overflows, so every norm certify and project take
    # of it must be scaled first
    bundle = _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)
    links = tmp_path / "links.json"
    out = str(tmp_path / "out")
    assert main(["link", "--input", bundle, "--output", out, "--links-output", str(links)]) == 0
    obj = json.loads(_read(links))
    assert [len(link["segments"]) for link in obj["links"]] == [1, 1]  # flat from x_j
    # in front of each flat, a conjugation of x_j around one shared H; the flat
    # starts on a copy of x_j, as on the conjugation's end when H is 0
    h = _append_matrix(obj, encode_matrix(np.zeros((3, 3))))
    for link, x in zip(obj["links"], obj["x"]):
        link["segments"][0]["a"] = _append_matrix(obj, obj["matrices"][x])
        link["segments"].insert(0, {"kind": "conj", "h": h, "base": x})
    seg = _segment(obj, 0, 0)
    cases = [
        ("h", 1e200 * np.eye(3), 0),  # a scalar generator conjugates trivially
        ("h", 1e200 * np.diag([1.0, -1.0, 0.5]), 2),  # the conjugated end misses the next piece
        ("base", 1e200 * np.eye(3), 2),
    ]
    bad = tmp_path / "huge.json"
    for slot, matrix, code in cases:
        edited = json.loads(json.dumps(obj))
        edited["matrices"][seg[slot]] = encode_matrix(matrix)
        bad.write_text(json_text(edited), encoding="utf-8")
        for command in ("certify", "project"):
            assert main([command, "--input", str(bad), "--output", out]) == code, (slot, command)
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bundles_with_entries_near_1e200_exit_2(tmp_path, capsys):
    # the input checks' A*A - AA* and U*U - 1 overflow to NaN there; the norm
    # of such a matrix must reach the non-finite refusal, not loop on scaling
    bundles = [
        _gen(tmp_path, "clock.json", kind="clock_shift", n=4),  # "y": "x"
        _gen(tmp_path, "still.json", n=4, N=2, delta=0),  # "y": "x", normal mode
        _gen(tmp_path, "moved.json", n=4, N=2, delta=1e-3, seed=0),  # Y written out
    ]
    bad = tmp_path / "huge.json"
    out = str(tmp_path / "out")
    commands = [
        ["link"],
        ["lift"],
        ["spectrum"],
        ["bott"],
        ["relcheck", "--preset", "soft_torus", "--delta", "1"],
    ]
    for bundle in bundles:
        obj = json.loads(_read(Path(bundle)))
        obj["x"][0] = encode_matrix(1e200 * np.eye(4))
        bad.write_text(json_text(obj), encoding="utf-8")
        for command in commands:
            argv = [command[0], "--input", str(bad), "--output", out, *command[1:]]
            assert main(argv) == 2, (bundle, command)
            assert capsys.readouterr().err.startswith("error: "), (bundle, command)


def test_no_command_imports_scipy(tmp_path):
    # spectral matching has its own assignment solver, so numpy is the only
    # package a command loads
    bundle = _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)
    clock = _gen(tmp_path, "clock.json", kind="clock_shift", n=8)
    out = str(tmp_path / "out")
    links = str(tmp_path / "links.json")
    argvs = [
        ["gen", "--n", "3", "--output", out],
        ["link", "--input", bundle, "--output", out, "--links-output", links],
        ["lift", "--input", bundle, "--output", out],
        ["certify", "--input", links, "--output", out],
        ["spectrum", "--input", bundle, "--output", out],
        ["bott", "--input", clock, "--output", out],
        ["relcheck", "--input", clock, "--preset", "soft_torus", "--delta", "1", "--output", out],
        ["project", "--input", links, "--output", out],
    ]
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in argvs} == set(commands)
    script = "\n".join(
        [
            "import sys",
            "from torlinks.cli import main",
            f"assert [main(argv) for argv in {argvs!r}] == {[0] * len(argvs)!r}",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ]
    )
    env = {**os.environ, "PYTHONPATH": str(Path(torlinks.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_link_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, some 10 ms of every link and lift
    bundle, out = str(tmp_path / "b.json"), str(tmp_path / "c.json")
    argvs = [
        ["gen", "--n", "8", "--N", "2", "--delta", "1e-2", "--output", bundle],
        ["link", "--input", bundle, "--output", out],
        ["lift", "--input", bundle, "--output", out],
    ]
    script = "\n".join(
        [
            "import sys",
            "from torlinks.cli import main",
            f"assert [main(argv) for argv in {argvs!r}] == [0, 0, 0]",
            "print('numpy.ma' in sys.modules)",
        ]
    )
    env = {**os.environ, "PYTHONPATH": str(Path(torlinks.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_main_builds_its_parser_once(tmp_path, capsys):
    # parsing leaves the parser as it is, so one parser serves every call: a
    # repeated command writes the same bytes, also after a bad argument
    assert cli._build_parser() is cli._build_parser()
    bundle = _gen(tmp_path, n=3, N=2, delta=1e-3, seed=0)
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["link", "--input", bundle, "--output", str(out)]) == 0
        texts.append(_read(out))
        with pytest.raises(SystemExit) as bad:
            main(["link", "--input", bundle, "--output", str(out), "--grid", "x"])
        assert bad.value.code == 2
    assert texts[0] == texts[1]
    assert "invalid int value: 'x'" in capsys.readouterr().err


# --- lift -------------------------------------------------------------------------


def test_lift_pipeline_certifies(tmp_path):
    bundle = _gen(tmp_path, n=4, N=2, delta=1e-3, seed=5)
    cert = tmp_path / "lift_cert.json"
    report = tmp_path / "lift_report.json"
    code = main(
        ["lift", "--input", bundle, "--output", str(cert), "--report-output", str(report)]
    )
    assert code == 0
    cert_obj = json.loads(_read(cert))
    assert cert_obj["passed"] is True
    rep = json.loads(_read(report))
    # perfbench's lift check reads these keys; a renamed one would fail every op
    assert set(rep) == {
        "type",
        "hermiticity",
        "unitarity",
        "exp_identity",
        "kappa_identity_error",
        "phi_displacement",
        "hom_product_defect",
        "hom_star_defect",
        "hom_unit_defect",
        "decay_max_error",
    }
    assert rep["kappa_identity_error"] == 0
    assert rep["hom_product_defect"] <= 1e-10
    assert rep["decay_max_error"] <= 1e-10


@pytest.mark.parametrize("seed", [0, 3])
def test_lift_links_output_recertifies_to_the_same_bytes(tmp_path, seed):
    bundle = _gen(tmp_path, n=12, N=2, delta=1e-2, seed=seed)
    cert, links, again = (tmp_path / f for f in ("cert.json", "links.json", "again.json"))
    argv = ["lift", "--input", bundle, "--output", str(cert), "--links-output", str(links)]
    assert main(argv) == 0
    lifted = decode_links(json.loads(_read(links)), "links")
    assert lifted.links[0].n == 24
    assert main(["certify", "--input", str(links), "--output", str(again)]) == 0
    assert _read(again) == _read(cert)


# --- bott -------------------------------------------------------------------------


def test_bott_pipeline_on_clock_shift(tmp_path):
    bundle = _gen(tmp_path, kind="clock_shift", n=16)
    out = tmp_path / "bott.json"
    assert main(["bott", "--input", bundle, "--output", str(out)]) == 0
    obj = json.loads(_read(out))
    assert obj["index"] == 1 and obj["winding"] == 1
    assert obj["gap"] >= 0.05


def test_bott_gap_gating_exits_2(tmp_path, capsys):
    bundle = _gen(tmp_path, kind="clock_shift", n=4)
    code = main(["bott", "--input", bundle, "--output", str(tmp_path / "b.json")])
    assert code == 2
    assert "gap" in capsys.readouterr().err.lower()


def test_gen_soft_pair_and_its_bott_index(tmp_path, capsys):
    bundle = _gen(tmp_path, kind="soft_pair", n=32, delta=0.3)
    obj = json.loads(_read(Path(bundle)))
    assert obj["metadata"]["mode"] == "unitary"
    assert obj["metadata"]["commuting"] is False
    assert obj["metadata"]["softness"] == 0.3
    assert obj["delta"] == 0.0
    out = tmp_path / "bott.json"
    assert main(["bott", "--input", bundle, "--output", str(out)]) == 0
    bott = json.loads(_read(out))
    assert bott["index"] == 1 and bott["winding"] == 1
    argv = ["gen", "--kind", "soft_pair", "--n", "32", "--N", "3", "--output", str(out)]
    assert main(argv) == 2
    assert "N = 2" in capsys.readouterr().err


# --- relcheck -----------------------------------------------------------------------


def test_relcheck_preset_pass_and_fail(tmp_path):
    bundle = _gen(tmp_path, kind="clock_shift", n=8)
    out = tmp_path / "report.json"
    wide = main(
        ["relcheck", "--input", bundle, "--preset", "soft_torus", "--delta", "1.0", "--output", str(out)]
    )
    assert wide == 0
    assert json.loads(_read(out))["member"] is True

    tight = main(
        ["relcheck", "--input", bundle, "--preset", "soft_torus", "--delta", "0.5", "--output", str(out)]
    )
    assert tight == 1
    obj = json.loads(_read(out))
    assert obj["member"] is False
    defect = obj["relations"][-1]["defect"]
    assert abs(defect - 2 * np.sin(np.pi / 8)) <= 1e-12


def test_relcheck_with_relation_file_and_assignment(tmp_path):
    rel = tmp_path / "unitary.rel"
    rel.write_text("u u' - 1 = 0\nu' u - 1 = 0\n", encoding="utf-8")
    assign = tmp_path / "assign.json"
    assign.write_text(
        json_text({"type": "assignment", "matrices": {"u": encode_matrix(np.eye(3))}}),
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    code = main(
        ["relcheck", "--input", str(assign), "--rel-file", str(rel), "--output", str(out)]
    )
    assert code == 0


def test_relcheck_requires_exactly_one_source(tmp_path, capsys):
    bundle = _gen(tmp_path, kind="clock_shift", n=4)
    code = main(["relcheck", "--input", bundle, "--output", str(tmp_path / "r.json")])
    assert code == 2
    assert "preset" in capsys.readouterr().err


def test_relcheck_unknown_preset_with_parameter_exits_2(tmp_path, capsys):
    bundle = _gen(tmp_path, kind="clock_shift", n=4)
    argv = ["relcheck", "--input", bundle, "--preset", "nosuch", "--delta", "1"]
    assert main(argv + ["--output", str(tmp_path / "r.json")]) == 2
    assert "unknown preset 'nosuch'" in capsys.readouterr().err


# --- project / spectrum ---------------------------------------------------------------


def test_project_helix_demo_csv(tmp_path):
    out = tmp_path / "helix.csv"
    assert main(["project", "--demo", "helix", "--output", str(out)]) == 0
    lines = _read(out).strip().split("\n")
    assert lines[0] == "t,k,re,im,angle_re,angle_im"
    assert len(lines) == 1 + 101
    first = lines[1].split(",")
    assert len(first) == 6
    assert float(first[2]) == pytest.approx(0.75)


def test_project_m3_demo_stays_in_solid_torus(tmp_path):
    out = tmp_path / "m3.csv"
    assert main(["project", "--demo", "m3", "--output", str(out)]) == 0
    again = tmp_path / "m3b.csv"
    assert main(["project", "--demo", "m3", "--output", str(again)]) == 0
    assert _read(out) == _read(again)

    rows = [line.split(",") for line in _read(out).strip().split("\n")[1:]]
    assert len(rows) == 3 * 101
    mags = [abs(complex(float(r[2]), float(r[3]))) for r in rows]
    assert max(mags) <= 1 + 1e-9


def test_project_needs_input_or_demo(tmp_path, capsys):
    out = tmp_path / "flow.csv"
    assert main(["project", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: project needs exactly one of --input / --demo\n"
    assert not out.exists()


def test_project_from_saved_links(tmp_path):
    bundle = _gen(tmp_path, n=3, N=2, delta=1e-2, seed=11)
    links = tmp_path / "links.json"
    main(
        [
            "link",
            "--input",
            bundle,
            "--output",
            str(tmp_path / "cert.json"),
            "--links-output",
            str(links),
        ]
    )
    out = tmp_path / "flow.csv"
    code = main(
        ["project", "--input", str(links), "--link-index", "1", "--samples", "33", "--output", str(out)]
    )
    assert code == 0
    lines = _read(out).strip().split("\n")
    assert len(lines) == 1 + 3 * 33


def test_project_without_link_index_traces_link_0(tmp_path):
    bundle = _gen(tmp_path, n=3, N=2, delta=1e-2, seed=11)
    links = str(tmp_path / "links.json")
    assert main(["link", "--input", bundle, "--output", str(tmp_path / "c.json"),
                 "--links-output", links]) == 0
    outputs = []
    for extra in ([], ["--link-index", "0"], ["--link-index", "1"]):
        out = tmp_path / "flow.csv"
        assert main(["project", "--input", links, *extra, "--output", str(out)]) == 0
        outputs.append(_read(out))
    assert outputs[0] == outputs[1] != outputs[2]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["relcheck", "--input", "{bundle}", "--rel-file", "{rel}", "--delta", "5"],
         "--delta is a --preset parameter; --rel-file states its own bounds"),
        (["project", "--demo", "helix", "--link-index", "7"],
         "--link-index picks a link of --input; a --demo has one path"),
        (["project", "--demo", "m3", "--link-index", "0"],
         "--link-index picks a link of --input; a --demo has one path"),
    ],
)
def test_flags_the_command_would_ignore_exit_2(tmp_path, capsys, argv, message):
    # relcheck used to judge by the file's bound and project to trace the
    # demo, each as if the flag had not been given
    paths = {"bundle": _gen(tmp_path, kind="clock_shift", n=4), "rel": str(tmp_path / "t.rel")}
    (tmp_path / "t.rel").write_text("norm(u*v - v*u) <= 0.1\n", encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv] + ["--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_spectrum_uses_the_bundle_seed(tmp_path):
    bundle = _gen(tmp_path, n=4, N=2, delta=1e-2, seed=7)
    loaded = decode_bundle(json.loads(_read(tmp_path / "bundle.json")), bundle)
    for which in ("x", "y"):
        out = tmp_path / f"spec-{which}.json"
        assert main(["spectrum", "--input", bundle, "--which", which, "--output", str(out)]) == 0
        obj = json.loads(_read(out))
        points = joint_diagonalize(loaded[which], seed=7).points
        assert np.array(obj["re"]).tobytes() == points.real.tobytes()
        assert np.array(obj["im"]).tobytes() == points.imag.tobytes()
    # the seed decides the last bits, so seed 0 would not have matched
    assert joint_diagonalize(loaded["y"], seed=0).points.tobytes() != points.tobytes()


def test_spectrum_of_hermitian_bundle(tmp_path):
    bundle = _gen(tmp_path, n=5, N=2, delta=0.0, seed=3, mode="hermitian")
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--input", bundle, "--output", str(out)]) == 0
    obj = json.loads(_read(out))
    assert obj["n"] == 5 and obj["N"] == 2
    assert max(abs(v) for row in obj["im"] for v in row) <= 1e-12


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bott", "--input", "{n3}"], "{n3}: bott needs a bundle with N = 2"),
        (["relcheck", "--input", "{n3}", "--rel-file", "{expr}"],
         "{expr}: file holds an expression, not relations"),
        (["relcheck", "--input", "{n3}", "--rel-file", "{cut}"],
         "{cut}: line 2, column 19: expected a nonnegative bound, found end of input"),
        (["relcheck", "--input", "{n3}", "--preset", "soft_torus", "--delta", "0.1"],
         "{n3}: bundle has 3 matrices but the relation set uses 2 variables ('u', 'v')"),
        (["project", "--input", "{links}", "--link-index", "5"],
         "--link-index 5 out of range for 3 links"),
        (["gen", "--n", "0"], "n must be an integer >= 1, got 0"),
        (["gen", "--n", "3", "--N", "0"], "N must be an integer >= 1, got 0"),
    ],
)
def test_refused_commands_exit_2_with_their_reason(tmp_path, capsys, argv, message):
    n3 = _gen(tmp_path, n=3, N=3, delta=1e-3, seed=1)
    links = tmp_path / "links.json"
    link = ["link", "--input", n3, "--output", str(tmp_path / "c.json")]
    assert main(link + ["--links-output", str(links)]) == 0
    expr, cut = tmp_path / "expr.rel", tmp_path / "cut.rel"
    expr.write_text("u*v - v*u\n", encoding="utf-8")
    cut.write_text("u u' - 1 = 0\nnorm(u v - v u) <=\n", encoding="utf-8")
    paths = {"n3": n3, "links": str(links), "expr": str(expr), "cut": str(cut)}
    capsys.readouterr()
    code = main([a.format(**paths) for a in argv] + ["--output", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"


@pytest.mark.parametrize(
    "text, reason",
    [
        ("norm(u) <= 1e400\n", "line 1, column 12: number '1e400' is not finite"),
        (
            "u u' - 1 = 0\n1e300 1e300 u = 0\n",
            "line 2, column 7: coefficient (inf+0j) is not finite",
        ),
    ],
)
def test_rel_file_refusals_name_the_file(tmp_path, capsys, text, reason):
    # every refusal raised while parsing names the file; a literal too large
    # to be finite, or a product that overflows, also names its line and column
    bundle = _gen(tmp_path, kind="clock_shift", n=4)
    rel, out = tmp_path / "r.rel", tmp_path / "out"
    rel.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["relcheck", "--input", bundle, "--rel-file", str(rel), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {rel}: {reason}\n"
    assert not out.exists()


#: (mode, segments of each link, refusal) of links files that no constructor
#: writes; the matrices are u, d, H and 2H
_GEO, _FLAT = {"kind": "geo", "base": 0, "h": 2}, {"kind": "flat", "a": 0, "b": 0}
_HAND_MADE_SHAPES = {
    "hermitian-geo": (
        "hermitian", [[_GEO]], "links[0].segments[0]: a Geo segment in hermitian mode"
    ),
    "unitary-flat": ("unitary", [[_FLAT]], "links[0].segments[0]: a Flat segment in unitary mode"),
    "normal-geo": ("normal", [[_GEO]], "links[0].segments[0]: a Geo segment in normal mode"),
    "geo-beside-flat": (
        "unitary", [[_GEO], [_FLAT]], "links[1].segments[0]: a Flat segment in unitary mode"
    ),
    "conj-different-h": (
        "normal",
        [[{"kind": "conj", "h": h, "base": 1}] for h in (2, 3)],
        "links[1].segments[0]: a Conj segment unlike links[0].segments[0] in kind or H",
    ),
}


@pytest.mark.parametrize("command", ["certify", "project"])
@pytest.mark.parametrize("shape", list(_HAND_MADE_SHAPES))
def test_hand_made_links_of_another_shape_exit_2(tmp_path, capsys, shape, command):
    mode, links, refusal = _HAND_MADE_SHAPES[shape]
    h = np.array([[0.2, 0.1], [0.1, -0.3]], dtype=complex)
    matrices = [np.diag(np.exp([0.3j, -1.1j])), np.diag([0.6, -0.4]), h, 2.0 * h]
    obj = {
        "type": "links",
        "mode": mode,
        "epsilon_reported": 1.0,
        "x": [0] * len(links),
        "y": [0] * len(links),
        "links": [{"segments": segs} for segs in links],
        "matrices": [encode_matrix(m) for m in matrices],
    }
    path, out = tmp_path / "links.json", tmp_path / "out"
    path.write_text(json_text(obj), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {refusal}\n"
    assert not out.exists()


_REFUSED_AFTER_LINKING = {
    "link-epsilon-negative": ["link", "--epsilon", "-1", "--links-output", "L"],
    "link-grid-1": ["link", "--grid", "1", "--links-output", "L"],
    "lift-epsilon-nan": ["lift", "--epsilon", "nan", "--links-output", "L", "--report-output", "R"],
    "lift-grid-0": ["lift", "--grid", "0", "--links-output", "L", "--report-output", "R"],
    "lift-grid-negative": ["lift", "--grid", "-1", "--links-output", "L", "--report-output", "R"],
}


@pytest.mark.parametrize("argv", _REFUSED_AFTER_LINKING.values(), ids=_REFUSED_AFTER_LINKING)
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_refused_link_and_lift_write_nothing(tmp_path, capsys, argv, existing):
    bundle = _gen(tmp_path, n=4, N=2, delta=1e-3, seed=0)
    paths = {"L": tmp_path / "links.json", "R": tmp_path / "report.json"}
    if existing:
        paths["L"].write_text("kept\n", encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    argv = [str(paths.get(a, a)) for a in argv]
    capsys.readouterr()
    code = main(argv + ["--input", bundle, "--output", str(tmp_path / "c.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == before
    if existing:
        assert _read(paths["L"]) == "kept\n"
