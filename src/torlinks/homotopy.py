"""Piecewise-analytic matrix paths and the link constructions built on them.

A path is a list of segments, each with an exact arc length and an exact
speed bound, so certificates can bound behaviour between grid points
without sampling tricks. A path of k segments gives each the share 1/k of
the clock [0, 1]. Three segment kinds cover everything needed:

* ``Flat(a, b)``      - affine interpolation (1-s) a + s b
* ``Conj(h, base)``   - conjugation orbit exp(-i s H) base exp(i s H)
* ``Geo(base, h)``    - one-sided exponential base exp(i s H)

Every segment runs over its local coordinate s in [0, 1]; any other angle
range [a, b] is the same path with H scaled by b - a and the start folded
into ``base``. ``Conj`` cannot express one-sided motion (in particular any
1x1 path is frozen under conjugation), which is why ``Geo`` exists: it
carries unitary geodesics, circles and helices with exact constant speed
||base H||.
"""

from __future__ import annotations

import bisect
import copy
import heapq
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import matcore
from .jointspec import CONTRACTION_SLACK, NormalTuple
from .matcore import (
    PreconditionError,
    adjoint,
    as_cmatrix,
    commutator,
    gap_branch_log,
    herm_eig,
    op_norm,
    principal_log_unitary,
)
from .spectral_match import isospectral_approximant

__all__ = [
    "Flat",
    "Conj",
    "Geo",
    "MatrixPath",
    "LinkBundle",
    "Certificate",
    "CertTolerances",
    "path_curvature",
    "toral_links",
    "certify",
    "unitary_contraction_path",
    "ujc_links",
    "project_solid_torus",
]

#: endpoint agreement required when paths are stitched together
JOIN_TOL = 1e-9


@dataclass
class Flat:
    """Affine segment from ``a`` to ``b``, which are its values at s = 0 and 1."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = as_cmatrix(self.a)
        self.b = as_cmatrix(self.b)
        if self.a.shape != self.b.shape:
            raise PreconditionError("flat segment endpoints differ in shape")
        self.n = self.a.shape[0]
        self.length = op_norm(self.b - self.a)

    def value(self, s: float) -> np.ndarray:
        if s == 0.0:
            return self.a
        if s == 1.0:
            return self.b
        return (1.0 - s) * self.a + s * self.b

    @property
    def start(self) -> np.ndarray:
        return self.a

    @property
    def end(self) -> np.ndarray:
        return self.b


class _Curved:
    """What Conj and Geo share: ``base`` moved by the unitary group
    exp(i s H), s in [0, 1]. H is decomposed once, and the kind's constant
    ``_speed`` is the exact arc length. At s = 0 the segment is ``base``
    itself, the same object; its end is computed once, on first use, and
    kept, so a factor built from ``end`` meets this one bit for bit."""

    _what: str  # the kind, as the shape error names it

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, as_cmatrix(getattr(self, f.name)))
        self._measure()
        self._q, self._w = herm_eig(self.h)

    def _measure(self) -> None:
        if self.h.shape != self.base.shape:
            raise PreconditionError(f"{self._what} generator and base differ in shape")
        self.n = self.h.shape[0]
        self.length = self._speed()
        self._end = None  # a copy with another base must not keep the old end

    def _same_generator(self, base) -> _Curved:
        """The same kind around this one's H that reuses its eigendecomposition."""
        seg = copy.copy(self)
        seg.base = as_cmatrix(base)
        seg._measure()
        return seg

    def value(self, s: float) -> np.ndarray:
        if s == 0.0:
            return self.base
        if s == 1.0:
            return self.end
        return self._at(s)

    @property
    def start(self) -> np.ndarray:
        return self.value(0.0)

    @property
    def end(self) -> np.ndarray:
        if self._end is None:
            self._end = self._at(1.0)
        return self._end


@dataclass
class Conj(_Curved):
    """Conjugation orbit exp(-i s H) base exp(i s H), of exact arc length
    ||[H, base]||."""

    h: np.ndarray
    base: np.ndarray
    _what = "conjugation"

    def _speed(self) -> float:
        return op_norm(commutator(self.h, self.base))

    def _acceleration(self) -> np.ndarray:
        return commutator(self.h, commutator(self.h, self.base))

    def _at(self, s: float) -> np.ndarray:
        u = (self._q * np.exp(-1j * s * self._w)) @ adjoint(self._q)
        return u @ self.base @ adjoint(u)


@dataclass
class Geo(_Curved):
    """One-sided exponential base * exp(i s H).

    Since exp(i s H) is unitary and commutes with H, the speed is the
    constant ||base H|| and the arc length is exact.
    """

    base: np.ndarray
    h: np.ndarray
    _what = "geodesic"

    def _speed(self) -> float:
        return op_norm(self.base @ self.h)

    def _acceleration(self) -> np.ndarray:
        return self.base @ self.h @ self.h

    def _at(self, s: float) -> np.ndarray:
        return self.base @ (self._q * np.exp(1j * s * self._w)) @ adjoint(self._q)


def _conj_family(h, bases) -> list:
    """One Conj per base around the shared generator H, decomposed once."""
    first = Conj(h, bases[0])
    return [first] + [first._same_generator(b) for b in bases[1:]]


@dataclass
class MatrixPath:
    """Continuous piecewise path on the normalized clock [0, 1]: each of its
    k segments runs for the share 1/k, segment i on [i/k, (i+1)/k]."""

    segments: list

    def __post_init__(self):
        if not self.segments:
            raise PreconditionError("path needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            end, start = a.end, b.start
            if end.shape != start.shape:
                raise PreconditionError(f"segment shapes {end.shape} and {start.shape} differ")
            matcore._check_within(end - start, JOIN_TOL, "consecutive segments do not meet: gap")
        k = len(self.segments)
        self._bounds = np.arange(1, k + 1) / k

    @property
    def n(self) -> int:
        return self.segments[0].n

    @property
    def start(self) -> np.ndarray:
        return self.segments[0].start

    @property
    def end(self) -> np.ndarray:
        return self.segments[-1].end

    def joints(self) -> np.ndarray:
        """Clock times of segment boundaries, including 0 and 1."""
        return np.concatenate([[0.0], self._bounds])

    def locate(self, t: float) -> tuple[int, float]:
        """Segment index and local coordinate for clock time t; 1 at a segment's end."""
        if not (-1e-12 <= t <= 1.0 + 1e-12):
            raise PreconditionError(f"path time {t!r} outside [0, 1]")
        t = min(max(t, 0.0), 1.0)
        k = len(self.segments)
        i = int(np.searchsorted(self._bounds, t, side="left"))  # _bounds[-1] is 1.0, so i < k
        if t == self._bounds[i]:
            return i, 1.0  # below, (t - i/k) k can miss 1 for k >= 5
        return i, (t - i / k) * k

    def value(self, t: float) -> np.ndarray:
        i, s = self.locate(t)
        return self.segments[i].value(s)

    def exact_length(self) -> float:
        return float(sum(s.length for s in self.segments))

    def max_speed(self) -> float:
        """Lipschitz constant on the normalized clock."""
        return float(len(self.segments) * max(s.length for s in self.segments))


def path_curvature(path: MatrixPath, t: float) -> float:
    """Curvature ||d/dt (gamma'/||gamma'||)|| / ||gamma'|| at clock time t.

    A segment moves at the constant speed ||gamma'|| = seg.length, so its
    curvature is the constant ||gamma''|| / ||gamma'||^2, in which the clock
    factor cancels: 0 along Flat, ||[H, [H, B]]|| / ||[H, B]||^2 along
    Conj(H, B) and ||B H^2|| / ||B H||^2 along Geo(B, H). It is defined at
    every t in [0, 1] but the interior joints. Returns 0 for stationary
    segments (speed below 1e-12).
    """
    i, _ = path.locate(t)
    if t in path.joints()[1:-1]:
        raise PreconditionError("curvature is undefined at segment joints")
    seg = path.segments[i]
    if isinstance(seg, Flat) or seg.length <= 1e-12:
        return 0.0
    return op_norm(seg._acceleration()) / seg.length**2


# --------------------------------------------------------------------------
# link bundles and certification
# --------------------------------------------------------------------------


#: link modes (the tuples are normal, hermitian or unitary contractions), each
#: with the segment kinds its links may hold
_MODE_KINDS = {"normal": (Conj, Flat), "hermitian": (Conj, Flat), "unitary": (Conj, Geo)}
MODES = tuple(_MODE_KINDS)


@dataclass
class LinkBundle:
    """N links (matrix paths) from the X endpoints to the Y endpoints.

    All links and endpoints share one dimension. Segment i of every link runs
    on the same share of the clock and has the one kind there that the mode
    allows; conjugations there share one H. These are the constructors' shapes.
    """

    links: list
    x_mats: list
    y_mats: list
    epsilon_reported: float
    mode: str = "normal"
    #: {id(segment): (segment, y, {s: f(s)})} from the distance trees behind
    #: epsilon_reported, so certify need not evaluate them again; never
    #: encoded, so a decoded bundle has none
    _distance_samples: dict | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in _MODE_KINDS:
            raise PreconditionError(f"unknown mode {self.mode!r}")
        counts = (len(self.links), len(self.x_mats), len(self.y_mats))
        if counts[0] == 0 or len(set(counts)) > 1:
            raise PreconditionError(
                f"a bundle needs at least one link and one x and one y per link; "
                f"links, x and y count {counts}"
            )
        n = self.links[0].n
        if any(link.n != n for link in self.links) or any(
            m.shape[0] != n for m in [*self.x_mats, *self.y_mats]
        ):
            raise PreconditionError(f"links, x and y disagree in dimension: link 0 is {n} x {n}")
        segment_counts = [len(link.segments) for link in self.links]
        if len(set(segment_counts)) > 1:
            raise PreconditionError(f"links have different segment counts {segment_counts}")
        kinds = _MODE_KINDS[self.mode]
        for i, segs in enumerate(zip(*(link.segments for link in self.links))):
            for j, seg in enumerate(segs):
                at = f"links[{j}].segments[{i}]: a {type(seg).__name__} segment"
                if type(seg) not in kinds:
                    raise PreconditionError(f"{at} in {self.mode} mode")
                same = type(seg) is type(segs[0])
                if not same or isinstance(seg, Conj) and not np.array_equal(seg.h, segs[0].h):
                    raise PreconditionError(f"{at} unlike links[0].segments[{i}] in kind or H")

    @property
    def lengths(self) -> list:
        return [link.exact_length() for link in self.links]


@dataclass(frozen=True)
class CertTolerances:
    endpoint: float = 1e-9
    commutation: float = 1e-8
    normality: float = 1e-8
    contraction: float = 1e-9
    mode_defect: float = 1e-9


@dataclass
class Certificate:
    """Per-segment certificate of a link bundle, tabulated on a uniform grid.

    ``worst`` holds the supremum over the whole path of each check, the
    numbers ``passed`` was decided from. Each (links or pairs, grid) table
    entry is an upper bound on its quantity at that grid time, and at most
    its ``worst`` entry.
    """

    grid: np.ndarray
    endpoint_errors: np.ndarray  # (N, 2)
    normality: np.ndarray  # (N, m)
    contraction_excess: np.ndarray  # (N, m)
    distance_to_target: np.ndarray  # (N, m)
    commutation: np.ndarray  # (pairs, m)
    pair_index: list
    mode_defects: np.ndarray | None
    lengths: np.ndarray
    lipschitz: np.ndarray
    epsilon: float
    mode: str
    tolerances: CertTolerances
    worst: dict
    passed: bool


#: Depth at which distance bisection stops: a leaf there is as fine as the
#: bound gets (width 2^-10 of its segment).
_MAX_DEPTH = 10
#: epsilon_reported is refined until it is within this factor of a sampled
#: distance.
_EPS_RTOL = 1e-3
#: Rounding allowance of one computed distance between matrices of norm about
#: one: epsilon_reported adds it, and bisection stops at that resolution.
_ROUNDOFF = 1e-12


class _DistanceTree:
    """Upper bounds on f(s) = ||seg.value(s) - y|| over s in [0, 1].

    Along a Flat f is convex, so its one leaf [0, 1] has the exact bound
    max(f(0), f(1)) = ``lower`` and is never split. Along a curved segment f
    is Lipschitz with constant L = seg.length (its exact speed in s), so on a
    leaf [a, b] it stays below (f(a) + f(b))/2 + L (b - a)/2. Leaves are
    bisected at their midpoints, worst bound first, so the tree depends only
    on the segment, y and when the caller stops splitting. ``known`` holds
    values f(s) computed before (an earlier tree's samples, or a joint's
    distance, read once for the two segments that meet there; see
    _joint_distances), which are read instead of evaluated again.
    """

    def __init__(self, seg, y: np.ndarray, known: dict | None = None):
        self._seg = seg
        self._y = y
        self._f: dict = dict(known or {})
        self.lower = 0.0  # largest value the tree has read
        self._heap = [self._leaf(0.0, 1.0, 0)]

    def _value(self, s: float) -> float:
        f = self._f.get(s)
        if f is None:
            f = self._f[s] = op_norm(self._seg.value(s) - self._y)
        self.lower = max(self.lower, f)
        return f

    def _leaf(self, a: float, b: float, depth: int) -> tuple:
        fa, fb = self._value(a), self._value(b)
        bound = max(fa, fb)
        if not isinstance(self._seg, Flat):
            bound = max((fa + fb) / 2.0 + self._seg.length * (b - a) / 2.0, bound)
        return (-bound, a, b, depth)

    @property
    def upper(self) -> float:
        return -self._heap[0][0]

    def split(self) -> bool:
        """Bisect the worst leaf; False if it already sits at the depth cap."""
        _, a, b, depth = self._heap[0]
        if depth >= _MAX_DEPTH:
            return False
        heapq.heappop(self._heap)
        mid = (a + b) / 2.0
        heapq.heappush(self._heap, self._leaf(a, mid, depth + 1))
        heapq.heappush(self._heap, self._leaf(mid, b, depth + 1))
        return True

    def prove(self, eps: float) -> None:
        """Split until every leaf is within eps, a sampled value exceeds eps
        or a leaf above eps reaches the depth cap; ``upper`` is the verdict."""
        while self.upper > eps and self.lower <= eps:
            if not self.split():
                break

    def at(self, s: np.ndarray) -> np.ndarray:
        """Bound at each s: along a Flat the chord of f(0) and f(1), else from
        its leaf, min(f(a) + L(s - a), f(b) + L(b - s))."""
        if isinstance(self._seg, Flat):
            return _convex_bound(self._f[0.0], self._f[1.0], s)[0]
        leaves = sorted((a, b) for _, a, b, _ in self._heap)
        starts = [a for a, _ in leaves]
        lip = self._seg.length
        out = np.empty(len(s))
        for i, si in enumerate(s):
            a, b = leaves[bisect.bisect_right(starts, si) - 1]
            out[i] = min(self._f[a] + lip * (si - a), self._f[b] + lip * (b - si))
        return out


def _flat_end_distances(seg: Flat, y: np.ndarray) -> dict:
    """{0: ||a - y||, 1: 0} for a Flat that ends on y, from its length with no
    eigensolve (||a - y|| = ||-(b - a)|| bit for bit); else nothing."""
    if seg.b is y or np.array_equal(seg.b, y):
        return {0.0: seg.length, 1.0: 0.0}
    return {}


def _joint_distances(link: MatrixPath, y: np.ndarray, samples: dict | None = None) -> list:
    """For each segment of ``link``, the distances f(s) = ||seg.value(s) - y||
    known before any tree is split, as {s: f(s)}: the samples ``samples``
    holds for it (LinkBundle._distance_samples), those of a Flat that ends on
    y, and one value for each joint where the next segment starts on the
    previous one's end bit for bit, read from either side or else computed
    once. A joint that misses by any amount gets a value from each side."""
    samples = samples or {}
    known = []
    for seg in link.segments:
        kseg, ky, f = samples.get(id(seg), (None, None, None))
        if kseg is seg and ky is y:
            known.append(dict(f))
        else:
            known.append(_flat_end_distances(seg, y) if isinstance(seg, Flat) else {})
    for i, (a, b) in enumerate(zip(link.segments, link.segments[1:])):
        end, start = a.end, b.start
        if end is start or np.array_equal(end, start):
            f = known[i].get(1.0, known[i + 1].get(0.0))
            if f is None:
                f = op_norm(end - y)
            known[i][1.0] = known[i + 1][0.0] = f
    return known


def _distance_trees(link: MatrixPath, y: np.ndarray, samples: dict | None = None) -> list:
    """One _DistanceTree per segment of ``link``, seeded by _joint_distances."""
    known = _joint_distances(link, y, samples)
    return [_DistanceTree(seg, y, f) for seg, f in zip(link.segments, known)]


def _sup_distance(links, y_mats) -> tuple[float, dict]:
    """Upper bound on max_j sup_t ||link_j(t) - y_j||, tight to about 0.1%.

    Every segment gets a _DistanceTree (a Flat's is exact from the start);
    the worst leaf of the whole bundle is split until the largest bound is
    within a factor 1 + 1e-3 of the largest sampled distance or reaches the
    depth cap. The result includes the _ROUNDOFF allowance, so no computed
    sample exceeds it. Each exact joint's distance is computed once
    (_joint_distances). certify(bundle, epsilon_reported) repeats a subset
    of the same bisections, so it always passes its distance check. Also
    returns each tree's samples in the form of LinkBundle._distance_samples.
    """
    trees = [tree for link, y in zip(links, y_mats) for tree in _distance_trees(link, y)]
    while True:
        worst = max(trees, key=lambda tree: tree.upper)
        lower = max(tree.lower for tree in trees)
        if worst.upper <= (1.0 + _EPS_RTOL) * lower + _ROUNDOFF or not worst.split():
            break
    eps = float(max(tree.upper for tree in trees) + _ROUNDOFF)
    return eps, {id(tree._seg): (tree._seg, tree._y, tree._f) for tree in trees}


def _link_bundle(x_mats, y_mats, mode, curved_parts=()) -> LinkBundle:
    """Links x_j -> y_j: curved factor j, which starts at x_j = its base, then
    a flat factor from that curved factor's end to y_j (in unitary mode the
    unitary geodesic instead, so the path stays unitary), and the measured
    bundle. The two factors meet bit for bit, since the flat one starts on
    the very matrix the curved one ends on.

    Curved factors of length at most JOIN_TOL are dropped, all or none, so
    every link has the one shape that LinkBundle requires; each flat factor
    then starts on x_j, within a joint's gap JOIN_TOL of the curved end.
    With no ``curved_parts`` the caller has proven them that short before
    building any (toral_links), and each link is its flat factor from x_j.
    """
    dropped = all(c.length <= JOIN_TOL for c in curved_parts)
    starts = list(x_mats) if dropped else [c.end for c in curved_parts]
    if mode == "unitary":
        flat_parts = [
            Geo(a, principal_log_unitary(adjoint(a) @ b)) for a, b in zip(starts, y_mats)
        ]
    else:
        flat_parts = [Flat(a, b) for a, b in zip(starts, y_mats)]
    if dropped:
        links = [MatrixPath([f]) for f in flat_parts]
    else:
        links = [MatrixPath([c, f]) for c, f in zip(curved_parts, flat_parts)]
    eps, samples = _sup_distance(links, y_mats)
    bundle = LinkBundle(
        links=links,
        x_mats=list(x_mats),
        y_mats=list(y_mats),
        epsilon_reported=eps,
        mode=mode,
    )
    bundle._distance_samples = samples
    return bundle


def _mode_residual(a: np.ndarray, mode: str, ata: np.ndarray | None = None) -> np.ndarray:
    """The matrix whose norm is the mode defect of ``a`` (hermitian or
    unitary); ``ata`` is matcore._ata(a) where the caller has formed it."""
    if mode == "hermitian":
        return a - adjoint(a)
    return (matcore._ata(a) if ata is None else ata) - np.eye(a.shape[0])


def _validate_mode(t: NormalTuple, mode: str, tol: float, who: str) -> None:
    if mode not in MODES:
        raise PreconditionError(f"unknown mode {mode!r}")
    if mode == "normal":
        return
    for j, m in enumerate(t.mats):
        matcore._check_within(_mode_residual(m, mode), tol, f"{who}[{j}] has {mode} defect")


def _conj_speed_bound(v: np.ndarray) -> float:
    """An upper bound, from ||V - 1|| and with no eigensolve, on the speed
    ||[H, x]|| of the conjugation exp(-i s H) x exp(i s H) around
    H = gap_branch_log(V), V unitary, of every x of norm at most
    1 + CONTRACTION_SLACK; inf when ||V - 1|| may exceed sqrt(2).

    r = matcore._norm_upper_bound(V - 1) is at least ||V - 1||, and an
    eigenvalue e^{i phi} of V has |e^{i phi} - 1| = 2 |sin(phi / 2)| <= r.
    When r <= sqrt(2), every angle lies within theta = 2 arcsin(r / 2) <=
    pi / 2 of 0, so the largest circular gap of the spectrum holds -1. The
    cut of gap_branch_log goes there, H is the principal logarithm and
    ||H|| <= theta, hence ||[H, x]|| <= 2 ||H|| ||x|| <= 2 theta (1 +
    CONTRACTION_SLACK).
    """
    r = matcore._norm_upper_bound(v - np.eye(v.shape[0]))
    if r > math.sqrt(2.0):
        return math.inf
    theta = 2.0 * math.asin(r / 2.0)
    return 2.0 * theta * (1.0 + CONTRACTION_SLACK)


def toral_links(
    x: NormalTuple,
    y: NormalTuple,
    mode: str = "normal",
    tol: float = 1e-9,
    seed: int = 0,
) -> LinkBundle:
    """Links x_j -> y_j: a shared conjugation factor then a flat factor.

    The curved factor rotates every x_j by the same one-parameter unitary
    group generated by the branch logarithm H of the matching conjugator V,
    so pairwise commutation is exactly preserved; it starts on x_j itself
    and ends, up to rounding, on the isospectral approximant
    psi_j = V* x_j V, which already commutes with Y. The flat factor starts
    on that computed end, so the factors meet bit for bit, and interpolates
    affinely to y_j (in unitary mode, along the unitary geodesic instead, so
    the path stays unitary). Curved factors of length at most JOIN_TOL are
    dropped, and then the flat factor starts on x_j; each link reports its
    exact length.

    The drop is first decided from ||V - 1|| alone (_conj_speed_bound):
    when that bound on every speed ||[H, x_j]|| is at most JOIN_TOL / 2, H,
    its eigendecomposition and the speeds are never formed. The margin 2
    dwarfs the rounding of a speed computed from H (about 1e-15, chiefly
    from reducing each angle mod 2 pi), so every bundle dropped this way is
    one the exact-length rule drops too, with the same links; any other V
    builds the conjugation and applies that rule.
    """
    matcore._check_tolerance("tol", tol)
    _validate_mode(x, mode, tol, "x")
    _validate_mode(y, mode, tol, "y")
    approx = isospectral_approximant(x, y, seed=seed)
    if _conj_speed_bound(approx.v) <= JOIN_TOL / 2.0:
        matcore._check_unitary(approx.v, 1e-10)  # the refusal gap_branch_log makes first
        return _link_bundle(x.mats, y.mats, mode)
    return _link_bundle(x.mats, y.mats, mode, _conj_family(gap_branch_log(approx.v), x.mats))


def _const_bound(c: float, s: np.ndarray) -> tuple:
    return np.full(len(s), c), c


def _convex_bound(c0: float, c1: float, s: np.ndarray) -> tuple:
    """A quantity convex along the segment: its chord, and its endpoint max."""
    top = max(c0, c1)
    return np.minimum((1.0 - s) * c0 + s * c1, top), top


def _quadratic_bound(c0: float, c01: float, c1: float, s: np.ndarray) -> tuple:
    """||(1-s)^2 C0 + s(1-s) C01 + s^2 C1|| <= p(s) = (1-s)^2 c0 + s(1-s) c01 + s^2 c1
    for the norms c of the C; returns p on s and its exact max on [0, 1]."""
    top = max(c0, c1)
    curv = c0 - c01 + c1
    if curv < 0.0:
        peak = (2.0 * c0 - c01) / (2.0 * curv)
        if 0.0 < peak < 1.0:
            top = max(top, c0 - (c01 - 2.0 * c0) ** 2 / (4.0 * curv))
    p = (1.0 - s) ** 2 * c0 + s * (1.0 - s) * c01 + s**2 * c1
    return np.minimum(p, top), top


#: A normality, commutator or mode-defect term takes the cheap norm bound of
#: its matrix only while the weighted bound is at most this share of the
#: entry's tolerance, so a cheap term cannot decide a verdict by itself.
_CHEAP_SHARE = 1e-3


def _term(m: np.ndarray, tol: float, weight: float = 1.0) -> float:
    """An upper bound on weight * ||m|| for a term of an entry checked against
    ``tol``: matcore._norm_upper_bound(m) while weight times it is at most
    _CHEAP_SHARE * tol, the exact op_norm otherwise."""
    bound = matcore._norm_upper_bound(m)
    return weight * (bound if weight * bound <= _CHEAP_SHARE * tol else op_norm(m))


def _flat_form_terms(form, sa: Flat, sb: Flat, ends: tuple | None = None) -> tuple:
    """(C0, C01, C1) with F(a(s), b(s)) = (1-s)^2 C0 + s(1-s) C01 + s^2 C1
    along two flat segments, for F real-bilinear: C0 = F(a0, b0) and
    C1 = F(a1, b1), or ``ends`` where the caller has formed them, and
    C01 = F(a0, b1) + F(a1, b0), formed as F(a0 + a1, b0 + b1) - C0 - C1,
    so that the three take three forms rather than four."""
    c0, c1 = (form(sa.a, sb.a), form(sa.b, sb.b)) if ends is None else ends
    c01 = form(sa.a + sa.b, sb.a + sb.b) - c0 - c1
    return c0, c01, c1


def _flat_form_bound(form, sa: Flat, sb: Flat, s, tol: float, ends=None) -> tuple:
    """Bound of F(a(s), b(s)) along two flat segments (_flat_form_terms)."""
    return _quadratic_bound(*(_term(m, tol) for m in _flat_form_terms(form, sa, sb, ends)), s)


def _normality_form(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return commutator(adjoint(u), v)


def _ends(seg) -> tuple:
    """The matrices that bound a segment's normality, norm and mode defect:
    a Flat's two ends, a curved segment's base."""
    return (seg.a, seg.b) if isinstance(seg, Flat) else (seg.base,)


# The bounds below take ``grams``, the products matcore._ata(m) of the
# matrices m of _ends(seg), which certify forms once per segment.


def _normality_bound(seg, grams: list, s, tol: float) -> tuple:
    defects = [g - m @ adjoint(m) for m, g in zip(_ends(seg), grams)]  # [m*, m]
    if isinstance(seg, Flat):
        return _flat_form_bound(_normality_form, seg, seg, s, tol, defects)
    if isinstance(seg, Conj):
        return _const_bound(_term(defects[0], tol), s)
    # Geo: [a*, a] = e^{-i s H} (B*B) e^{i s H} - BB*, and
    # ||[e^{i s H}, M]|| <= s ||[H, M]|| with s <= 1
    (gram,) = grams
    drift = _term(commutator(seg.h, gram), tol)
    return _const_bound(_term(defects[0], tol) + drift, s)


def _norm_bound(seg, grams: list, s) -> tuple:
    # only the excess over 1 is stored, which _threshold_norm(m, 1.0) gives
    if isinstance(seg, Flat):
        ends = [matcore._threshold_norm(m, 1.0, g) for m, g in zip(_ends(seg), grams)]
        if max(ends) > 1.0:  # a chord through a settled end would tilt: both exact
            ends = [matcore._op_norm(m, g) for m, g in zip(_ends(seg), grams)]
        return _convex_bound(*ends, s)
    if isinstance(seg, Conj):
        return _const_bound(matcore._threshold_norm(seg.base, 1.0, grams[0]), s)
    # exact, since it weighs the Geo commutator terms
    return _const_bound(matcore._op_norm(seg.base, grams[0]), s)


def _mode_bound(seg, grams: list, mode: str, s, tol: float) -> tuple:
    # a Flat is in hermitian mode; Conj and Geo move the base by unitaries
    defects = [_term(_mode_residual(m, mode, g), tol) for m, g in zip(_ends(seg), grams)]
    if isinstance(seg, Flat):
        return _convex_bound(*defects, s)
    return _const_bound(defects[0], s)


def _commutator_bound(sa, sb, s, norm_a: float, norm_b: float, tol: float) -> tuple:
    """Commutator bound of two segments of one kind whose norms are at most norm_a, norm_b."""
    if isinstance(sa, Conj):  # one generator, so the commutator only rotates
        return _const_bound(_term(commutator(sa.base, sb.base), tol), s)
    if isinstance(sa, Flat):
        return _flat_form_bound(commutator, sa, sb, s, tol)
    # [B1 E1, B2 E2] = [B1, B2] E1 E2 + B2 B1 [E1, E2] + B1 [E1, B2] E2
    # - B2 [E2, B1] E1 with E = e^{i s H}
    top = (
        _term(commutator(sa.base, sb.base), tol)
        + _term(commutator(sa.h, sb.h), tol, norm_a * norm_b)
        + _term(commutator(sa.h, sb.base), tol, norm_a)
        + _term(commutator(sb.h, sa.base), tol, norm_b)
    )
    return _const_bound(top, s)


def certify(bundle: LinkBundle, eps: float, grid_points: int = 101) -> Certificate:
    """Certify a bundle segment by segment and tabulate the bounds on a grid.

    Every link has the same k segments on the one clock, segment i on
    [i/k, (i+1)/k], so segment i of every link is bounded together. Each
    check (endpoint error, normality, contraction excess, distance to the
    target, pairwise commutator, mode defect) gets an upper bound on its
    supremum over the whole path, stored as ``worst``, and ``passed``
    compares ``worst`` with CertTolerances() and with eps. Every table entry
    is an upper bound on its quantity at its grid time and at most its
    ``worst`` entry. The bounds per segment kind (LinkBundle's shapes):

    * Conj: normality, norm and mode defect are those of the base (unitary
      invariance); the links share the generator, so a pair keeps the
      commutator norm of their bases.
    * Flat: norm and hermiticity defect are convex in s, so they peak at
      an endpoint; normality and commutators are
      (1-s)^2 C0 + s(1-s) C01 + s^2 C1 and bounded by the same form in the
      norms of the C's. C0 and C1 are the form F at the two ends, and the
      middle term C01 = F(a0, b1) + F(a1, b0) is formed as
      F(a0 + a1, b0 + b1) - C0 - C1, three forms in all rather than four.
    * Geo B e^{i s H}: norm and unitarity defect are those of B; normality
      and commutators of two Geo segments follow from
      ||[e^{i s H}, M]|| <= s ||[H, M]|| with s <= 1.
    * Distance: one _DistanceTree per segment. A Flat's is exact, the
      distance being convex in s; along Conj and Geo it bisects by Lipschitz
      until every leaf is within eps, and a leaf left above eps at the depth
      cap fails the check. The largest leaf bound is the segment's supremum,
      refined only until it settles the comparison with eps. A segment whose
      tree was sampled for epsilon_reported starts from its samples, so a
      bundle in memory and the same bundle decoded get the same certificate.
    * Joints: where a segment starts on the previous one's end bit for bit,
      the distance there is computed once for both (a Flat that ends on y
      has it from its length); a joint off by any amount is evaluated on
      each side (_joint_distances). A curved segment is its base at s = 0,
      so a constructor's link has endpoint error exactly 0 at t = 0. The
      endpoint error at t = 1 is the last segment's f(1), read off its tree.

    Each matrix norm inside a normality, commutator or mode-defect bound
    (_term) is matcore._norm_upper_bound while that bound, times the weight
    the term carries, is at most 1e-3 of the entry's tolerance, and the
    exact op_norm otherwise. Such a cheap term cannot decide a verdict by
    itself: each adds at most 0.1% of the tolerance, so a verdict differs
    from the exact-norm one only when an entry sits that close to its
    tolerance, and then only from pass to fail. Norms compared with eps,
    and the norms of Geo bases, which multiply other terms, stay exact. Of
    a norm compared with 1 only the excess over 1 is stored, so the norm of
    a Conj base is matcore._threshold_norm(base, 1.0), which settles a norm
    at most 1 by the cheap bound or a Cholesky proof, and so are a Flat's
    two end norms when neither exceeds 1; every entry reads as with exact
    norms. Each Flat end and curved base B has its product B*B formed once
    (matcore._ata), for its normality term [B*, B], its norm's proof or
    exact value, a Geo's drift ||[H, B*B]|| and the unitarity defect.

    Endpoint errors, exact lengths and Lipschitz constants are recorded too.
    """
    matcore._check_tolerance("epsilon", eps)
    matcore._check_count("grid_points", grid_points, 2)
    tols = CertTolerances()
    links = bundle.links
    m = grid_points
    count = len(links)
    grid = np.linspace(0.0, 1.0, m)

    use_mode = bundle.mode in ("hermitian", "unitary")
    pair_index = [(j, k) for j in range(count) for k in range(j + 1, count)]
    tables = {key: np.empty((count, m)) for key in ("normality", "norm", "distance", "mode")}
    tables["commutation"] = np.empty((len(pair_index), m))
    sups = dict.fromkeys(tables, 0.0)

    def record(key: str, row: int, idx: np.ndarray, bound: tuple) -> float:
        vals, top = bound
        tables[key][row, idx] = vals
        sups[key] = max(sups[key], float(top))
        return top

    samples = bundle._distance_samples
    trees = [_distance_trees(link, y, samples) for link, y in zip(links, bundle.y_mats)]
    starts = [op_norm(link.start - x) for link, x in zip(links, bundle.x_mats)]
    endpoint_errors = np.column_stack([starts, [link_trees[-1]._f[1.0] for link_trees in trees]])
    joints = links[0].joints()
    segment_of = np.searchsorted(joints[1:], grid, side="left")
    for i, (t0, t1) in enumerate(zip(joints, joints[1:])):
        idx = np.flatnonzero(segment_of == i)
        s = (grid[idx] - t0) / (t1 - t0)
        segs = [link.segments[i] for link in links]
        norm_tops = []
        for j, seg in enumerate(segs):
            grams = [matcore._ata(m) for m in _ends(seg)]
            record("normality", j, idx, _normality_bound(seg, grams, s, tols.normality))
            norm_tops.append(record("norm", j, idx, _norm_bound(seg, grams, s)))
            if use_mode:
                record("mode", j, idx, _mode_bound(seg, grams, bundle.mode, s, tols.mode_defect))
            del grams  # not held through the distance samples
            tree = trees[j][i]
            tree.prove(eps)
            record("distance", j, idx, (tree.at(s), tree.upper))
        for p, (j, k) in enumerate(pair_index):
            bound = _commutator_bound(
                segs[j], segs[k], s, norm_tops[j], norm_tops[k], tols.commutation
            )
            record("commutation", p, idx, bound)

    worst = {
        "endpoint": float(endpoint_errors.max()),
        "normality": sups["normality"],
        "contraction_excess": max(sups["norm"] - 1.0, 0.0),
        "distance_to_target": sups["distance"],
        "commutation": sups["commutation"],
    }
    if use_mode:
        worst["mode_defect"] = sups["mode"]
    limits = {**asdict(tols), "contraction_excess": tols.contraction, "distance_to_target": eps}
    return Certificate(
        grid=grid,
        endpoint_errors=endpoint_errors,
        normality=tables["normality"],
        contraction_excess=np.maximum(tables["norm"] - 1.0, 0.0),
        distance_to_target=tables["distance"],
        commutation=tables["commutation"],
        pair_index=pair_index,
        mode_defects=tables["mode"] if use_mode else None,
        lengths=np.array(bundle.lengths),
        lipschitz=np.array([link.max_speed() for link in links]),
        epsilon=float(eps),
        mode=bundle.mode,
        tolerances=tols,
        worst=worst,
        passed=all(worst[key] <= limits[key] for key in worst),
    )


def unitary_contraction_path(u) -> MatrixPath:
    """Unitary path u(t) = u exp(-i t H) from u to the identity.

    H is the branch logarithm of u, so the path is a function of u and
    commutes with everything u commutes with. Its length is ||H|| < 2*pi,
    and the spectrum of H spans an interval of at most 2*pi - 2*pi/n.
    """
    u = as_cmatrix(u)
    return MatrixPath([Geo(u, -gap_branch_log(u))])


def ujc_links(x: NormalTuple, y: NormalTuple, w, w_hat) -> LinkBundle:
    """Links through a unitary Z = What* W with ||W - What|| < 1.

    The curved factor conjugates all of X by exp(-i t H) with H = log Z
    (principal branch, well defined since ||1 - Z|| < 1), which preserves
    commutation exactly; a flat factor then lands on Y. Curved factors of
    length at most JOIN_TOL are dropped and only the flat factors remain, as
    when W equals What: Z is then exactly 1 and H exactly 0.
    """
    w = as_cmatrix(w)
    w_hat = as_cmatrix(w_hat)
    matcore._check_unitary(w, 1e-10)
    matcore._check_unitary(w_hat, 1e-10)
    nu = op_norm(w - w_hat)
    if nu >= 1.0:
        raise PreconditionError(f"||W - What|| = {nu!r} >= 1; no common branch")
    if np.array_equal(w, w_hat):
        h = np.zeros(w.shape, dtype=np.complex128)
    else:
        h = principal_log_unitary(adjoint(w_hat) @ w)

    return _link_bundle(x.mats, y.mats, "normal", _conj_family(h, x.mats))


def project_solid_torus(path: MatrixPath, samples: int = 101) -> np.ndarray:
    """Diagonal flow rows (t, k, Re d_k, Im d_k, cos 2 pi t, sin 2 pi t).

    d_k(t) is the k-th diagonal entry of path(t); for contraction paths
    every d_k stays in the closed unit disk.
    """
    matcore._check_count("samples", samples, 2)
    n = path.n
    ts = np.linspace(0.0, 1.0, samples)
    d = np.array([np.diag(path.value(t)) for t in ts]).ravel()
    if np.max(np.abs(d)) > 1.0 + 1e-9:
        raise PreconditionError(
            "diagonal flow leaves the closed unit disk; input path is not a contraction path"
        )
    t = np.repeat(ts, n)
    k = np.tile(np.arange(n, dtype=float), samples)
    return np.column_stack([t, k, d.real, d.imag, np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)])
