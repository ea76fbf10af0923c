"""The benchmark's workloads: a set-up step and a fixed, ordered task list.

Tasks call the andt modules through module attributes at call time, so a
:class:`tracer.Tracer` installed after import sees every call.  A task
returns its exact result; ``post`` (optional) adds material to the digest
after the timed loop has ended, so it is never timed or traced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from andt import dictionary as D
from andt import exact as E
from andt import fock as F
from andt import surface as S
from andt import vertex as V

WORKLOADS = ("calibrate", "operators", "rigidify")

CALIBRATE_CASES = ((1, 2), (2, 2), (1, 3))  # (rank n, weight m)
OPERATOR_RANKS = (1, 2)
OPERATOR_WEIGHT = 2
# the n = 2 word-bracket checks take 15-30 s each at the seed; run at n = 1 only
SLOW_CHECKS_MAX_RANK = 1
RIGIDIFY_RANKS = (1, 2, 3)
RIGIDIFY_WINDOW = (1, 10, 4)  # (qmin, qmax, smax)
CERTIFICATE_WINDOW = (-6, 6, 2)
CERTIFICATE_SDEG, CERTIFICATE_DEGBOUND = 1, 2


@dataclass
class Task:
    name: str
    run: Callable[[dict], object]
    post: Callable[[dict, object], object] | None = None


def parse_cases(text: str) -> tuple:
    """'3:2,1:2' -> ((3, 2), (1, 2))"""
    return tuple(tuple(int(x) for x in item.split(":")) for item in text.split(","))


def build(name: str, seed: int, cases: tuple | None = None):
    """(setup, tasks) for a workload; setup() returns the context tasks read."""
    if name == "calibrate":
        return _calibrate(cases or CALIBRATE_CASES)
    if cases is not None:
        raise ValueError("--cases applies to the calibrate workload only")
    return {"operators": _operators, "rigidify": _rigidify}[name](seed)


def _calibrate(cases):
    tasks = [
        Task(f"calibrate.n{n}.m{m}", lambda ctx, n=n, m=m: D.calibrate(S.SurfaceGeometry(n), m))
        for n, m in cases
    ]
    return dict, tasks


def _rigidify(seed):
    window = E.Window(*RIGIDIFY_WINDOW)
    tasks = [
        Task(
            f"rigidify.n{n}",
            lambda ctx, n=n: V.rigidify_check(S.SurfaceGeometry(n), window),
            post=lambda ctx, report, n=n: {
                "report": report,
                "theta_vacuum_series": V.theta_vacuum_series(S.SurfaceGeometry(n), window),
            },
        )
        for n in RIGIDIFY_RANKS
    ]
    return dict, tasks


def _divisor(ctx, n, which, window=None):
    geom, dic, _ = ctx[n]
    return D.m_divisor(which, OPERATOR_WEIGHT, window or D.DEFAULT_WINDOW, geom, dic)


def _operators(seed):
    m = OPERATOR_WEIGHT
    cert_window = E.Window(*CERTIFICATE_WINDOW)

    def setup():
        rng = random.Random(seed)
        ctx = {}
        for n in OPERATOR_RANKS:
            geom = S.SurfaceGeometry(n)
            words = F.weighted_partition_basis(m, n + 1)
            # the seed picks the three-point word pair
            ctx[n] = (geom, D.calibrate(geom, m), (rng.choice(words), rng.choice(words)))
        return ctx

    tasks = []
    for n in OPERATOR_RANKS:
        divisors = {"D": "D", **{f"omega{i}": ("omega", i) for i in range(1, n + 1)}}
        for label, w in divisors.items():
            tasks.append(Task(f"operators.n{n}.m_divisor.{label}",
                              lambda ctx, n=n, w=w: _divisor(ctx, n, w)))
        for label, w in divisors.items():
            tasks.append(Task(
                f"operators.n{n}.self_adjoint.{label}",
                lambda ctx, n=n, w=w: D.operator_self_adjoint(_divisor(ctx, n, w).matrix,
                                                              ctx[n][0]),
            ))
        # one commutation check per rank (D with the last curve divisor): the
        # n = 2, i = 1 check alone takes 4-5 s at the seed
        tasks.append(Task(f"operators.n{n}.commute.omega{n}",
                          lambda ctx, n=n: D.divisor_pair_commutes(ctx[n][1], m, n)))
        checks = ["vanishing_check", "corner_evaluation_check"]
        if n <= SLOW_CHECKS_MAX_RANK:
            checks = ["factorization_check", "tau_linearity_check"] + checks
        for check in checks:
            tasks.append(Task(f"operators.n{n}.{check}",
                              lambda ctx, n=n, c=check: getattr(D, c)(ctx[n][1], m)))
        tasks.append(Task(f"operators.n{n}.heisenberg_embedding_check",
                          lambda ctx, n=n: D.heisenberg_embedding_check(ctx[n][1])))
        tasks.append(Task(f"operators.n{n}.spectrum_probe",
                          lambda ctx, n=n: D.spectrum_probe(m, ctx[n][0], seed, ctx[n][1])))
        tasks.append(Task(
            f"operators.n{n}.three_point",
            lambda ctx, n=n: D.three_point(ctx[n][2][0], "D", ctx[n][2][1], cert_window,
                                           geom=ctx[n][0], dic=ctx[n][1]),
        ))
        tasks.append(Task(
            f"operators.n{n}.rationality_certificate",
            lambda ctx, n=n: D.rationality_certificate(
                _divisor(ctx, n, "D", cert_window).matrix,
                CERTIFICATE_SDEG, CERTIFICATE_DEGBOUND),
        ))
    return setup, tasks
