"""LP solving and optimality-certificate verification.

Two backends sit behind ``solve``: HiGHS, the default, and the built-in
reference simplex (dense, certificate-friendly), used only when asked
for. HiGHS gets the LP as stored, in one model: CSR rows, and row
bounds (-inf, rhs], [rhs, inf) or [rhs, rhs] from the relations. It
runs on one thread. Its optimal, infeasible, unbounded and
iteration-limit statuses keep their names; any other reads
``numerical``. Row duals follow the dZ/db convention (non-positive for
binding <= rows of a minimization).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy

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
    if not all(np.isfinite(a).all() for a in (lp.c, lp.A.data, lp.rhs)):
        raise SolveError(f"LP {lp.name!r} has a non-finite cost, coefficient or right-hand side")
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


# HighsModelStatus name -> status name; any other status (kUnboundedOrInfeasible,
# kSolveError, ...) is numerical trouble, never a claim about the LP
_HIGHS_STATUS = {
    "kOptimal": "optimal",
    "kIterationLimit": "iteration-limit",
    "kInfeasible": "infeasible",
    "kUnbounded": "unbounded",
}


def _solve_highs(lp: LinearProgram, options: SolveOptions) -> SolveResult:
    try:
        import scipy.optimize._highspy._core as highs_core
    except ImportError as exc:
        raise SolveError(f"scipy {scipy.__version__}: no HiGHS binding ({exc})") from exc

    model = highs_core.HighsLp()
    model.num_col_, model.num_row_ = lp.n_cols, lp.n_rows
    model.col_cost_, model.col_lower_, model.col_upper_ = lp.c, lp.lb, lp.ub
    model.row_lower_ = np.where(lp.relations == "<", -np.inf, lp.rhs)
    model.row_upper_ = np.where(lp.relations == ">", np.inf, lp.rhs)
    matrix = model.a_matrix_
    matrix.format_ = highs_core.MatrixFormat.kRowwise
    matrix.num_col_, matrix.num_row_ = lp.n_cols, lp.n_rows
    matrix.start_, matrix.index_, matrix.value_ = lp.A.indptr, lp.A.indices, lp.A.data

    highs = highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("threads", 1)
    highs.setOptionValue("simplex_iteration_limit", options.iteration_limit)
    highs.setOptionValue("ipm_iteration_limit", options.iteration_limit)
    # kWarning is normal: HiGHS drops the LP's explicit zeros and tiny coefficients
    passed = highs.passModel(model)
    if passed == highs_core.HighsStatus.kError:
        raise SolveError(f"HiGHS rejected LP {lp.name!r}: passModel returned {passed.name}")
    highs.run()

    status = _HIGHS_STATUS.get(highs.getModelStatus().name, "numerical")
    optimal = status == "optimal"
    info = highs.getInfo()
    solution = highs.getSolution()
    return SolveResult(
        status=status,
        objective=float(info.objective_function_value) if optimal else float("nan"),
        primal=np.asarray(solution.col_value) if optimal else np.zeros(lp.n_cols),
        dual=np.asarray(solution.row_dual) if optimal else np.zeros(lp.n_rows),
        iterations=int(info.simplex_iteration_count),
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
