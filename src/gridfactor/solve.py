"""LP solving and optimality-certificate verification.

Two interchangeable backends sit behind ``solve``: scipy's HiGHS
interface, the default, and the built-in reference simplex (dense,
certificate-friendly), used only when asked for. Row duals follow the
dZ/db convention (non-positive for binding <= rows of a minimization).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .lp import LinearProgram
from .model import GridFactorError
from .simplex import simplex_solve


class SolveError(GridFactorError):
    pass


@dataclass(frozen=True)
class SolveOptions:
    method: str = "highs"  # highs | simplex
    iteration_limit: int = 100_000


@dataclass
class SolveResult:
    """Outcome of one LP solve; arrays align with the LP's columns/rows."""

    status: str  # optimal | infeasible | unbounded | iteration-limit | numerical
    objective: float
    primal: np.ndarray
    dual: np.ndarray
    iterations: int
    method: str


def solve(lp: LinearProgram, options: SolveOptions | None = None) -> SolveResult:
    options = options or SolveOptions()
    if options.method == "simplex":
        return _solve_simplex(lp, options)
    if options.method == "highs":
        return _solve_highs(lp, options)
    raise SolveError(f"unknown solve method {options.method!r}")


def _solve_simplex(lp: LinearProgram, options: SolveOptions) -> SolveResult:
    outcome = simplex_solve(
        lp.A.toarray(),
        lp.relations,
        lp.rhs,
        lp.c,
        lp.lb,
        lp.ub,
        iteration_limit=options.iteration_limit,
    )
    return SolveResult(
        status=outcome.status,
        objective=outcome.objective,
        primal=outcome.x,
        dual=outcome.y,
        iterations=outcome.iterations,
        method="simplex",
    )


# scipy linprog codes; 4 ("numerical difficulties") and unknown codes map to "numerical"
_HIGHS_STATUS = {0: "optimal", 1: "iteration-limit", 2: "infeasible", 3: "unbounded"}


def _solve_highs(lp: LinearProgram, options: SolveOptions) -> SolveResult:
    le = lp.relations == "<"
    ge = lp.relations == ">"
    eq = lp.relations == "="
    A_ub_parts = []
    b_ub_parts = []
    if le.any():
        A_ub_parts.append(lp.A[le])
        b_ub_parts.append(lp.rhs[le])
    if ge.any():
        A_ub_parts.append(-lp.A[ge])
        b_ub_parts.append(-lp.rhs[ge])
    import scipy.sparse as sp

    A_ub = sp.vstack(A_ub_parts, format="csr") if A_ub_parts else None
    b_ub = np.concatenate(b_ub_parts) if b_ub_parts else None
    A_eq = lp.A[eq] if eq.any() else None
    b_eq = lp.rhs[eq] if eq.any() else None

    res = linprog(
        lp.c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lp.lb, lp.ub]),
        method="highs",
        options={"maxiter": options.iteration_limit},
    )
    status = _HIGHS_STATUS.get(res.status, "numerical")
    dual = np.zeros(lp.n_rows)
    primal = np.zeros(lp.n_cols)
    if res.x is not None:
        primal = np.asarray(res.x)
    if status == "optimal":
        marg_ub = np.asarray(res.ineqlin.marginals) if A_ub is not None else np.empty(0)
        n_le = int(le.sum())
        dual[le] = marg_ub[:n_le]
        dual[ge] = -marg_ub[n_le:]
        if A_eq is not None:
            dual[eq] = np.asarray(res.eqlin.marginals)
    return SolveResult(
        status=status,
        objective=float(res.fun) if res.fun is not None else float("nan"),
        primal=primal,
        dual=dual,
        iterations=int(getattr(res, "nit", 0)),
        method="highs",
    )


@dataclass
class CertificateReport:
    """Worst residuals of the primal/dual optimality conditions."""

    primal_residual: float
    bound_residual: float
    dual_sign_residual: float
    reduced_cost_residual: float
    complementarity_residual: float
    duality_gap: float
    dual_objective: float
    ok: bool
    messages: list[str] = field(default_factory=list)


def verify_certificate(
    lp: LinearProgram,
    result: SolveResult,
    feas_tol: float = 1e-6,
) -> CertificateReport:
    """Check primal feasibility, dual feasibility, and complementary slackness."""
    if result.status != "optimal":
        raise SolveError("certificates are only defined for optimal results")
    x = result.primal
    y = result.dual
    messages: list[str] = []

    ax = lp.A @ x
    slack = lp.rhs - ax
    primal_residual = 0.0
    for rel in ("<", "=", ">"):
        mask = lp.relations == rel
        if not mask.any():
            continue
        if rel == "<":
            viol = np.maximum(-slack[mask], 0.0)
        elif rel == ">":
            viol = np.maximum(slack[mask], 0.0)
        else:
            viol = np.abs(slack[mask])
        worst = float(viol.max(initial=0.0))
        primal_residual = max(primal_residual, worst)

    bound_residual = float(
        max(
            np.maximum(lp.lb - x, 0.0).max(initial=0.0),
            np.maximum(x - lp.ub, 0.0).max(initial=0.0),
        )
    )

    le = lp.relations == "<"
    ge = lp.relations == ">"
    dual_sign_residual = float(
        max(
            np.maximum(y[le], 0.0).max(initial=0.0),
            np.maximum(-y[ge], 0.0).max(initial=0.0),
        )
    )

    d = lp.c - lp.A.T @ y  # reduced costs
    scale = 1.0 + float(np.abs(lp.c).max(initial=0.0))
    atol = feas_tol * (1.0 + np.maximum(np.abs(lp.lb), 0.0))
    at_lb = np.isfinite(lp.lb) & (x <= lp.lb + atol)
    at_ub = np.isfinite(lp.ub) & (x >= lp.ub - feas_tol * (1.0 + np.abs(np.where(np.isfinite(lp.ub), lp.ub, 0.0))))
    interior = ~at_lb & ~at_ub
    reduced_cost_residual = float(
        max(
            np.abs(d[interior]).max(initial=0.0),
            np.maximum(-d[at_lb & ~at_ub], 0.0).max(initial=0.0),
            np.maximum(d[at_ub & ~at_lb], 0.0).max(initial=0.0),
        )
    )

    complementarity_residual = float(np.abs(y * slack).max(initial=0.0))

    pos = d > feas_tol * scale
    neg = d < -feas_tol * scale
    contrib = np.zeros_like(d)
    contrib[pos] = d[pos] * lp.lb[pos]
    contrib[neg] = d[neg] * lp.ub[neg]
    if not np.all(np.isfinite(contrib)):
        messages.append("dual infeasible: reduced cost points at an infinite bound")
        contrib = np.where(np.isfinite(contrib), contrib, 0.0)
    dual_objective = float(y @ lp.rhs + contrib.sum())
    duality_gap = abs(result.objective - dual_objective)
    gap_tol = feas_tol * (1.0 + abs(result.objective))

    rhs_scale = 1.0 + float(np.abs(lp.rhs).max(initial=0.0))
    ok = (
        primal_residual <= feas_tol * rhs_scale
        and bound_residual <= feas_tol * rhs_scale
        and dual_sign_residual <= feas_tol * scale
        and reduced_cost_residual <= feas_tol * scale
        and duality_gap <= gap_tol
        and not messages
    )
    return CertificateReport(
        primal_residual=primal_residual,
        bound_residual=bound_residual,
        dual_sign_residual=dual_sign_residual,
        reduced_cost_residual=reduced_cost_residual,
        complementarity_residual=complementarity_residual,
        duality_gap=duality_gap,
        dual_objective=dual_objective,
        ok=ok,
        messages=messages,
    )
