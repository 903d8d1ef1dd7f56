"""Dense-grid reference for certificates (test-only).

Evaluates every link with ``link.value`` at every grid point and tabulates
the same quantities as ``certify``, sample by sample, with no use of segment
structure. The analytic certificate must bound these tables from above and
reach the same verdicts.
"""

import numpy as np

from torlinks.homotopy import CertTolerances
from torlinks.matcore import adjoint, commutator, op_norm


def _mode_defect(a, mode):
    if mode == "hermitian":
        return op_norm(a - adjoint(a))
    if mode == "unitary":
        return op_norm(adjoint(a) @ a - np.eye(a.shape[0]))
    return 0.0


def dense_tables(bundle, grid_points=101):
    """Per-sample tables keyed like the Certificate fields."""
    links = bundle.links
    grid = np.linspace(0.0, 1.0, grid_points)
    values = [[link.value(t) for t in grid] for link in links]
    out = {
        "endpoint_errors": np.array(
            [
                [op_norm(link.value(0.0) - x0), op_norm(link.value(1.0) - y1)]
                for link, x0, y1 in zip(links, bundle.x_mats, bundle.y_mats)
            ]
        ),
        "normality": np.array(
            [[op_norm(commutator(adjoint(a), a)) for a in row] for row in values]
        ),
        "contraction_excess": np.array(
            [[max(0.0, op_norm(a) - 1.0) for a in row] for row in values]
        ),
        "distance_to_target": np.array(
            [[op_norm(a - y) for a in row] for row, y in zip(values, bundle.y_mats)]
        ),
        "commutation": np.array(
            [
                [op_norm(commutator(a, b)) for a, b in zip(values[j], values[k])]
                for j in range(len(links))
                for k in range(j + 1, len(links))
            ]
        ).reshape(-1, grid_points),
        "mode_defects": None,
    }
    if bundle.mode in ("hermitian", "unitary"):
        out["mode_defects"] = np.array(
            [[_mode_defect(a, bundle.mode) for a in row] for row in values]
        )
    return out


def dense_worst(tables):
    """The largest sample of each table, keyed like ``Certificate.worst``."""
    comm = tables["commutation"]
    out = {
        "endpoint": tables["endpoint_errors"].max(),
        "normality": tables["normality"].max(),
        "contraction_excess": tables["contraction_excess"].max(),
        "distance_to_target": tables["distance_to_target"].max(),
        "commutation": comm.max() if comm.size else 0.0,
    }
    if tables["mode_defects"] is not None:
        out["mode_defect"] = tables["mode_defects"].max()
    return out


#: the tolerance each ``worst`` entry of a certificate artifact is held to;
#: ``distance_to_target`` is held to its ``epsilon``
WORST_LIMITS = {
    "endpoint": "endpoint",
    "normality": "normality",
    "contraction_excess": "contraction",
    "commutation": "commutation",
    "mode_defect": "mode_defect",
}


def stored_verdict(obj) -> bool:
    """The verdict a certificate artifact's own ``worst``, ``tolerances`` and
    ``epsilon`` give; ``worst`` has a ``mode_defect`` entry exactly in the
    hermitian and unitary modes."""
    worst = obj["worst"]
    keys = set(WORST_LIMITS) | {"distance_to_target"}
    if obj["mode"] == "normal":
        keys.discard("mode_defect")
    assert set(worst) == keys
    return worst["distance_to_target"] <= obj["epsilon"] and all(
        worst[key] <= obj["tolerances"][tol] for key, tol in WORST_LIMITS.items() if key in worst
    )


def dense_passed(tables, eps, tolerances=None):
    """The verdict of a grid-only certificate on ``tables``."""
    tols = tolerances or CertTolerances()
    comm = tables["commutation"]
    mode = tables["mode_defects"]
    return bool(
        tables["endpoint_errors"].max() <= tols.endpoint
        and tables["normality"].max() <= tols.normality
        and tables["contraction_excess"].max() <= tols.contraction
        and (comm.size == 0 or comm.max() <= tols.commutation)
        and tables["distance_to_target"].max() <= eps
        and (mode is None or mode.max() <= tols.mode_defect)
    )


def sampled_epsilon(bundle, samples=201):
    """(largest sampled distance, that maximum plus the Lipschitz slack L h/2).

    The second value is the epsilon a 201-point sampler reports: per link,
    the grid maximum plus max_speed * spacing / 2.
    """
    ts = np.linspace(0.0, 1.0, samples)
    grid_max = 0.0
    with_slack = 0.0
    for link, y in zip(bundle.links, bundle.y_mats):
        link_max = max(op_norm(link.value(t) - y) for t in ts)
        grid_max = max(grid_max, link_max)
        with_slack = max(with_slack, link_max + link.max_speed() * (ts[1] - ts[0]) / 2.0)
    return grid_max, with_slack
