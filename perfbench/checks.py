"""Correctness checks that use none of the program's own results.

Each check takes the output of one operation (a dict built by the workload)
and the workload's inputs, recomputes what it needs with plain numpy from the
inputs, and raises `CheckFailed` when the output is wrong. `self_test` shows
that every check is live: it perturbs a correct output once per check and
requires that check to reject it.
"""

from __future__ import annotations

import copy

import numpy as np


class OpFailed(RuntimeError):
    """The operation did not produce a solution (error exit, no convergence)."""


class CheckFailed(AssertionError):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _require(ok: bool, check: str, detail: str):
    if not ok:
        raise CheckFailed(check, detail)


# --- properties of the method (every workload) ------------------------------

def w_column_sums(W):
    """Each edge feeds opposite increments into its two rows, so the columns
    of W sum to zero up to rounding."""
    drift = float(np.max(np.abs(W.sum(axis=0))))
    scale = max(1.0, float(np.max(np.abs(W))))
    _require(drift <= 1e-9 * scale, "w_column_sums", f"max |column sum| {drift:.3e}")


def box(actions, inp):
    """Every played action lies inside the box, with no slack."""
    a = np.asarray(actions)
    _require(bool(np.all(a >= inp["lower"]) and np.all(a <= inp["upper"])),
             "box", f"actions span [{a.min()!r}, {a.max()!r}]")


def consensus(X, inp, tol):
    """Rows joined by a communication edge agree to within tol (inf norm)."""
    err = max(float(np.max(np.abs(X[i] - X[j]))) for i, j in inp["edges"])
    _require(err <= tol, "consensus", f"edge disagreement {err:.3e} > {tol:.1e}")


# --- wanet: KKT from the cost formula ---------------------------------------

def wanet_loads(x, inp):
    load = np.zeros(len(inp["capacities"]))
    for i, route in enumerate(inp["routes"]):
        for j in route:
            load[j] += x[i]
    return load


def wanet_kkt_residual(x, inp) -> float:
    """||x - clip(x - g)||_inf with g_i the derivative of user i's cost
    sum_{j in R_i} kappa / (C_j - load_j) - chi * log(1 + x_i)."""
    margin = np.asarray(inp["capacities"]) - wanet_loads(x, inp)
    g = np.array([
        sum(inp["kappa"] / margin[j] ** 2 for j in route) - inp["chi"] / (x[i] + 1.0)
        for i, route in enumerate(inp["routes"])
    ])
    return float(np.max(np.abs(x - np.clip(x - g, inp["lower"], inp["upper"]))))


def wanet_kkt(x, inp, tol):
    r = wanet_kkt_residual(np.asarray(x, dtype=float), inp)
    _require(r <= tol, "wanet_kkt", f"KKT residual {r:.3e} > {tol:.1e}")


def wanet_margins(x, inp):
    m = np.asarray(inp["capacities"]) - wanet_loads(x, inp)
    _require(bool(np.all(m > 0)), "wanet_margins", f"smallest link margin {m.min():.3e}")


def wanet_guards(X, inp):
    """No guard fires: every barrier denominator a player evaluates on its
    own estimate row stays at or above eps_guard."""
    caps = np.asarray(inp["capacities"])
    worst = min(caps[j] - sum(X[i][k] for k, r in enumerate(inp["routes"]) if j in r)
                for i, route in enumerate(inp["routes"]) for j in route)
    _require(worst >= inp["eps_guard"], "wanet_guards", f"smallest denominator {worst:.3e}")


# --- quadratic: the equilibrium from a linear solve -------------------------

def quad_equilibrium(x, inp, tol_residual):
    """x is within tol_residual / delta of x* = solve(diag(a) + B, -d), where
    delta = min_i (a_i - sum_j |B_ij|) bounds ||(diag(a) + B)^-1||_inf."""
    a, B, d = inp["a"], inp["B"], inp["d"]
    x_star = np.linalg.solve(np.diag(a) + B, -d)
    delta = float(np.min(a - np.abs(B).sum(axis=1)))
    err = float(np.max(np.abs(np.asarray(x) - x_star)))
    bound = tol_residual / delta
    _require(err <= bound, "quad_equilibrium", f"|x - x*| {err:.3e} > {bound:.3e}")


# --- self-test ---------------------------------------------------------------

def self_test(checks: dict, perturbations: dict, output) -> list:
    """Names of the checks that let a perturbed copy of `output` through.

    A check that already rejects `output` itself is skipped: that failure is
    reported on its own."""
    dead = []
    for name, check in checks.items():
        try:
            check(output)
        except CheckFailed:
            continue
        bad = copy.deepcopy(output)
        perturbations[name](bad)
        try:
            check(bad)
        except CheckFailed:
            continue
        dead.append(name)
    return dead
