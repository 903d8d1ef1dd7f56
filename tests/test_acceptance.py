"""Acceptance gate: one test per release criterion, each printing a verdict.

Every test sweeps the stated parameter grid at the stated tolerance and
records a single `[PASS]`/`[FAIL]` line (echoed in the terminal summary via
conftest).  These are deliberately end-to-end: they drive the public API the
way the command line does, with fresh inputs per seed.
"""

import itertools
import json

import numpy as np
from conftest import ACCEPTANCE_LINES
from helpers import haar_unitary, polygonal_length

from torlinks import (
    Conj,
    Flat,
    Geo,
    MatrixPath,
    NormalTuple,
    bott_index,
    bottleneck_assign,
    certify,
    clifford_norm,
    clock_shift,
    algebra_dimension,
    evaluate,
    gap_branch_log,
    isospectral_approximant,
    lifted_links,
    membership,
    parse,
    path_curvature,
    preset,
    to_text,
    toral_links,
    unitary_contraction_path,
)
from torlinks.cli import decode_bundle, gen_bundle, main
from torlinks.matcore import adjoint, commutator, exp_i_herm, op_norm
from torlinks.ncrel import NCPoly
from torlinks.softtorus import GapUndefinedError


def _finish(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _tuples(kind, n, N, delta, seed, mode="normal", perturb="within"):
    art = gen_bundle(kind, n, N=N, delta=delta, seed=seed, mode=mode, perturb=perturb)
    loaded = decode_bundle(art, "acceptance")
    return loaded["x"], loaded["y"]


def test_criterion_1_toral_link_suite():
    grids = {
        "normal": [
            (n, N, d, s)
            for n in (4, 16, 64)
            for N in (2, 3)
            for d in (1e-3, 1e-2)
            for s in range(5)
        ],
        # the mode clause adds the hermitian/unitary defect requirement; a
        # representative slice of the same grid keeps the gate under a minute
        "hermitian": [
            (n, 2, d, s) for n in (4, 16, 64) for d in (1e-3, 1e-2) for s in range(3)
        ],
        "unitary": [
            (n, 2, d, s) for n in (4, 16, 64) for d in (1e-3, 1e-2) for s in range(3)
        ],
    }
    worst = {
        "endpoint": 0.0,
        "commutation": 0.0,
        "normality": 0.0,
        "contraction_excess": 0.0,
        "mode_defect": 0.0,
    }
    c_obs = 0.0
    runs = 0
    all_passed = True
    for mode, grid in grids.items():
        for n, N, delta, seed in grid:
            x, y = _tuples("commuting_pair", n, N, delta, seed, mode=mode)
            bundle = toral_links(x, y, mode=mode, seed=seed)
            cert = certify(bundle, bundle.epsilon_reported)
            all_passed &= cert.passed
            for key, value in cert.worst.items():
                if key in worst:
                    worst[key] = max(worst[key], value)
            c_obs = max(c_obs, max(bundle.lengths) / delta)
            runs += 1
    ok = (
        all_passed
        and worst["endpoint"] <= 1e-9
        and worst["commutation"] <= 1e-8
        and worst["normality"] <= 1e-8
        and worst["contraction_excess"] <= 1e-9
        and worst["mode_defect"] <= 1e-9
    )
    _finish(
        1,
        "toral links: endpoints/commutation/normality/contraction/mode defects",
        ok,
        f"{runs} bundles, C={c_obs:.3f}, worst endpoint={worst['endpoint']:.1e}, "
        f"commutation={worst['commutation']:.1e}, mode={worst['mode_defect']:.1e}",
    )


def test_criterion_2_isospectral_approximant():
    worst_spec = worst_comm = worst_excess = 0.0
    cases = [
        (n, N, d, s)
        for n in (4, 16, 64)
        for N in (2,)
        for d in (1e-3, 1e-2)
        for s in range(3)
    ] + [(16, 3, 1e-2, s) for s in range(3)]
    for n, N, delta, seed in cases:
        x, y = _tuples("commuting_pair", n, N, delta, seed)
        approx = isospectral_approximant(x, y, seed=seed)
        for xj, pj in zip(x.mats, approx.psi):
            ex = np.linalg.eigvals(xj)
            ep = np.linalg.eigvals(pj)
            cost = np.abs(ex[:, None] - ep[None, :])
            worst_spec = max(worst_spec, bottleneck_assign(cost).bottleneck)
        for pj in approx.psi:
            for yk in y.mats:
                worst_comm = max(worst_comm, op_norm(commutator(pj, yk)))
        disp = max(op_norm(pj - yj) for pj, yj in zip(approx.psi, y.mats))
        worst_excess = max(worst_excess, disp - approx.matching.bottleneck)
    ok = worst_spec <= 1e-9 and worst_comm <= 1e-9 and worst_excess <= 1e-9
    _finish(
        2,
        "isospectral approximants: spectra, commutation, bottleneck optimality",
        ok,
        f"spectrum drift={worst_spec:.1e}, commutation={worst_comm:.1e}, "
        f"excess over bottleneck={worst_excess:.1e}",
    )


def test_criterion_3_bottleneck_matches_brute_force():
    rng = np.random.default_rng(2024)
    exact = achieved = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        cost = rng.random((n, n))
        m = bottleneck_assign(cost)
        brute = min(
            max(cost[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        exact += m.bottleneck == brute
        achieved += max(cost[i, m.tau[i]] for i in range(n)) == m.bottleneck
    ok = exact == 200 and achieved == 200
    _finish(
        3,
        "bottleneck assignment equals brute force over all permutations",
        ok,
        f"{exact}/200 exact, {achieved}/200 achieved by returned matching",
    )


def test_criterion_4_clifford_norm_bounds():
    rng = np.random.default_rng(41)
    worst_bound = -np.inf
    for _ in range(100):
        N = int(rng.integers(1, 5))
        n = int(rng.integers(2, 17))
        mats = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(N)
        ]
        _, val = clifford_norm(mats)
        worst_bound = max(worst_bound, val - sum(op_norm(m) for m in mats))

    worst_identity = 0.0
    for _ in range(25):
        N = int(rng.integers(1, 5))
        n = int(rng.integers(2, 17))
        q = haar_unitary(n, rng)
        mats = [(q * rng.uniform(-1, 1, n)) @ adjoint(q) for _ in range(N)]
        _, val = clifford_norm(mats)
        squares = op_norm(sum(m @ m for m in mats))
        worst_identity = max(worst_identity, abs(val**2 - squares))
    ok = worst_bound <= 1e-10 and worst_identity <= 1e-8
    _finish(
        4,
        "Clifford norm: triangle bound and commuting-Hermitian identity",
        ok,
        f"bound excess={worst_bound:.1e}, identity defect={worst_identity:.1e}",
    )


def test_criterion_5_lifted_suite():
    kappa_exact = True
    worst_hom = worst_w = worst_decay = 0.0
    all_passed = True
    for n in (4, 8, 16):
        for N in (2, 3):
            for seed in (0, 1):
                x, y = _tuples("commuting_pair", n, N, 1e-3, seed)
                _, bundle, report = lifted_links(x, y, seed=seed)
                kappa_exact &= report["kappa_identity_error"] == 0.0
                worst_hom = max(
                    worst_hom,
                    report["hom_product_defect"],
                    report["hom_star_defect"],
                    report["hom_unit_defect"],
                )
                worst_w = max(
                    worst_w,
                    report["hermiticity"],
                    report["unitarity"],
                    report["exp_identity"],
                )
                worst_decay = max(worst_decay, report["decay_max_error"])
                all_passed &= certify(bundle, bundle.epsilon_reported).passed
    ok = (
        kappa_exact
        and worst_hom <= 1e-10
        and worst_w <= 1e-10
        and worst_decay <= 1e-10
        and all_passed
    )
    _finish(
        5,
        "lifted links: exact compression, homomorphism, decay, certificates",
        ok,
        f"hom={worst_hom:.1e}, dilation={worst_w:.1e}, decay={worst_decay:.1e}, "
        f"certificates {'pass' if all_passed else 'FAIL'}",
    )


def test_criterion_6_soft_torus_and_bott():
    worst_comm = worst_dft = 0.0
    for n in range(2, 257):
        cs = clock_shift(n)
        worst_comm = max(
            worst_comm,
            abs(op_norm(commutator(cs.omega, cs.sigma)) - 2 * np.sin(np.pi / n)),
        )
        worst_dft = max(
            worst_dft, op_norm(cs.omega - adjoint(cs.fourier) @ cs.sigma @ cs.fourier)
        )

    dims_ok = all(
        algebra_dimension([clock_shift(n).s2, clock_shift(n).sigma]) == n * n
        for n in range(2, 9)
    )

    bott_ok = True
    for n in (16, 32, 64):
        cs = clock_shift(n)
        res = bott_index(cs.omega, cs.sigma)
        bott_ok &= res.index == 1 and res.winding == 1  # documented orientation

    rng = np.random.default_rng(6)
    q = haar_unitary(8, rng)
    commuting_pairs = [
        (np.diag((-1.0 + 0j) ** np.arange(6)), np.eye(6, dtype=complex)),
        (
            (q * np.exp(2j * np.pi * rng.random(8))) @ adjoint(q),
            (q * np.exp(2j * np.pi * rng.random(8))) @ adjoint(q),
        ),
    ]
    commuting_ok = True
    for u, v in commuting_pairs:
        res = bott_index(u, v)
        commuting_ok &= res.index == 0 and res.gap >= 0.5 - 1e-9

    cs4 = clock_shift(4)
    try:
        bott_index(cs4.omega, cs4.sigma)
        gating_ok = False
    except GapUndefinedError:
        gating_ok = True

    ok = (
        worst_comm <= 1e-12
        and worst_dft <= 1e-12
        and dims_ok
        and bott_ok
        and commuting_ok
        and gating_ok
    )
    _finish(
        6,
        "soft torus: commutator law, DFT conjugation, full algebra, Bott",
        ok,
        f"commutator drift={worst_comm:.1e}, dft={worst_dft:.1e}, dims 2..8 "
        f"{'ok' if dims_ok else 'FAIL'}, Bott=+1 on 16/32/64, gated at n=4",
    )


def test_criterion_7_path_functionals():
    x, y = _tuples("commuting_pair", 8, 2, 1e-2, 0)
    link = toral_links(x, y, seed=0).links[0]
    circle = MatrixPath([Geo(np.eye(1, dtype=complex), 2 * np.pi * np.eye(1))])
    flat = MatrixPath([Flat(np.zeros((3, 3)), np.eye(3))])
    rng = np.random.default_rng(7)
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    arc = MatrixPath([Conj(k + adjoint(k), np.diag(rng.random(4)).astype(complex))])

    worst_rel = 0.0
    for path in (link, circle, flat, arc):
        exact = path.exact_length()
        worst_rel = max(worst_rel, abs(polygonal_length(path) - exact) / exact)
    length_ok = worst_rel <= 1e-3

    # contraction paths for conjugators that arise in the pipeline (near 1)
    lin_ok = True
    for n in (2, 4, 8, 16, 64):
        h0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h0 = h0 + adjoint(h0)
        h0 *= (np.pi / 2) / op_norm(h0)
        length = unitary_contraction_path(exp_i_herm(h0)).exact_length()
        lin_ok &= length <= 2 * np.pi - 2 * np.pi / n + 1e-9
    # Haar draws: the 2*pi cap and the branch-window bound hold unconditionally
    haar_max = 0.0
    for n in (2, 3, 4, 8, 16):
        for _ in range(4):
            u = haar_unitary(n, rng)
            length = unitary_contraction_path(u).exact_length()
            haar_max = max(haar_max, length)
            lin_ok &= length <= 2 * np.pi + 1e-9
            args = np.linalg.eigvalsh(gap_branch_log(u))
            lin_ok &= args.max() - args.min() <= 2 * np.pi - 2 * np.pi / n + 1e-9

    circle_kappa = path_curvature(circle, 0.5)
    flat_kappa = path_curvature(flat, 0.5)
    curvature_ok = abs(circle_kappa - 1.0) <= 1e-4 and abs(flat_kappa) <= 1e-10

    ok = length_ok and lin_ok and curvature_ok
    _finish(
        7,
        "path functionals: polygonal lengths, contraction paths, curvature",
        ok,
        f"polygonal rel err={worst_rel:.1e}, max Haar length={haar_max:.3f}, "
        f"circle kappa={circle_kappa:.6f}, flat kappa={flat_kappa:.1e}",
    )


def _random_poly(rng, names=("u", "v", "w"), max_terms=5, max_len=4):
    terms = []
    for _ in range(rng.integers(0, max_terms + 1)):
        word = tuple(
            (str(rng.choice(names)), bool(rng.integers(0, 2)))
            for _ in range(rng.integers(0, max_len + 1))
        )
        styles = (
            complex(int(rng.integers(-3, 4)), 0.0),
            complex(rng.standard_normal(), 0.0),
            complex(0.0, rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
        )
        terms.append((styles[rng.integers(0, 4)], word))
    return NCPoly(tuple(terms))


def test_criterion_8_relation_dsl():
    rng = np.random.default_rng(20260814)
    round_trips = sum(
        parse(to_text(p)) == p for p in (_random_poly(rng) for _ in range(1000))
    )

    soundness_ok = True
    for n in range(2, 17):
        cs = clock_shift(n)
        assign = {"u": cs.omega, "v": cs.sigma}
        for delta in (0.05, 0.2, 0.4, 0.8, 1.5, 2.0):
            got = membership(assign, preset("soft_torus", delta), slack=1e-12).member
            soundness_ok &= got == (2 * np.sin(np.pi / n) <= delta + 1e-12)

    assign = {"u": haar_unitary(4, rng), "v": haar_unitary(4, rng)}
    worst_hom = 0.0
    for _ in range(100):
        p = _random_poly(rng, names=("u", "v"), max_terms=4, max_len=3)
        q = _random_poly(rng, names=("u", "v"), max_terms=4, max_len=3)
        prod = evaluate(p * q, assign) - evaluate(p, assign) @ evaluate(q, assign)
        star = evaluate(p.adjoint(), assign) - adjoint(evaluate(p, assign))
        scale = max(1.0, op_norm(evaluate(p, assign)))
        worst_hom = max(worst_hom, op_norm(prod) / scale, op_norm(star))

    ok = round_trips == 1000 and soundness_ok and worst_hom <= 1e-12
    _finish(
        8,
        "relation DSL: round trip, soft-torus soundness, evaluation homomorphism",
        ok,
        f"{round_trips}/1000 round trips, homomorphism defect={worst_hom:.1e}",
    )


def _cli_pipeline(root):
    paths = {}

    def run(name, argv, expect=0):
        out = root / name
        code = main(argv + ["--output", str(out)])
        assert code == expect, f"{argv} -> {code}"
        paths[name] = out
        return out

    bundle = run(
        "bundle.json",
        ["gen", "--n", "6", "--N", "2", "--delta", "1e-3", "--seed", "2"],
    )
    links = root / "links.json"
    code = main(
        [
            "link",
            "--input",
            str(bundle),
            "--links-output",
            str(links),
            "--output",
            str(root / "cert.json"),
        ]
    )
    assert code == 0
    paths["links.json"] = links
    paths["cert.json"] = root / "cert.json"
    run("recert.json", ["certify", "--input", str(links)])
    clock = run("clock.json", ["gen", "--kind", "clock_shift", "--n", "16"])
    run("bott.json", ["bott", "--input", str(clock)])
    run(
        "rel.json",
        ["relcheck", "--input", str(clock), "--preset", "soft_torus", "--delta", "1.0"],
    )
    run("m3.csv", ["project", "--demo", "m3"])
    run("flow.csv", ["project", "--input", str(links)])
    run("spectrum.json", ["spectrum", "--input", str(bundle)])
    run("lift.json", ["lift", "--input", str(bundle)])
    return paths


def test_criterion_9_cli_reproducibility(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    first = _cli_pipeline(run_a)
    second = _cli_pipeline(run_b)
    identical = all(
        first[name].read_bytes() == second[name].read_bytes() for name in first
    )

    rows = [
        line.split(",")
        for line in (run_a / "m3.csv").read_text().strip().split("\n")[1:]
    ]
    mags = [abs(complex(float(r[2]), float(r[3]))) for r in rows]
    contained = max(mags) <= 1 + 1e-9

    cert = json.loads((run_a / "cert.json").read_text())
    ok = identical and contained and cert["passed"] is True
    _finish(
        9,
        "CLI: byte-identical reruns and solid-torus containment",
        ok,
        f"{len(first)} artifacts compared, max |d_k|={max(mags):.12f}",
    )
