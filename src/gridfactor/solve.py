"""LP solving and optimality-certificate verification.

Two backends sit behind ``solve``: HiGHS, the default, and the built-in
reference simplex (dense, certificate-friendly), used only when asked
for. HiGHS gets each independent block of the LP as its own model: CSR
rows, and row bounds (-inf, rhs], [rhs, inf) or [rhs, rhs] from the
relations. It runs on one thread. Its optimal, infeasible, unbounded
and iteration-limit statuses keep their names; any other reads
``numerical``. Row duals follow the dZ/db convention (non-positive for
binding <= rows of a minimization).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy
import scipy.sparse as sp

from .lp import LinearProgram, lp_digest
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
    blocks: int = 1  # independent blocks solved one at a time
    reused_blocks: int = 0  # blocks answered from ``solve``'s ``reuse`` dict


def solve(
    lp: LinearProgram,
    options: SolveOptions | None = None,
    reuse: dict[str, SolveResult] | None = None,
) -> SolveResult:
    """Solve ``lp``; HiGHS solves each independent block on its own.

    Blocks are solved in block order. Their objectives and iterations add
    up, and ``options.iteration_limit`` is one budget for the whole LP:
    each block gets what the blocks before it left. The first block that
    is not optimal gives the LP its status. An LP of one block is one
    HiGHS call on the LP as given.

    ``reuse`` maps the ``lp_digest`` of a block to its optimal result.
    A block found there is not solved again; one solved here is added.
    """
    options = options or SolveOptions()
    if not all(np.isfinite(a).all() for a in (lp.c, lp.A.data, lp.rhs)):
        raise SolveError(f"LP {lp.name!r} has a non-finite cost, coefficient or right-hand side")
    if options.method == "simplex":
        return _solve_simplex(lp, options)
    if options.method != "highs":
        raise SolveError(f"unknown solve method {options.method!r}")

    parts = _independent_blocks(lp)
    if not parts:
        result, reused = _solve_block(lp, options, reuse)
        return replace(result, reused_blocks=1) if reused else result
    primal, dual = np.zeros(lp.n_cols), np.zeros(lp.n_rows)
    objective, iterations, reused_blocks = 0.0, 0, 0
    for rows, cols in parts:
        block = LinearProgram(
            A=lp.A[rows][:, cols],
            c=lp.c[cols],
            lb=lp.lb[cols],
            ub=lp.ub[cols],
            relations=lp.relations[rows],
            rhs=lp.rhs[rows],
            name=lp.name,
        )
        budget = replace(options, iteration_limit=options.iteration_limit - iterations)
        result, reused = _solve_block(block, budget, reuse)
        iterations += result.iterations
        reused_blocks += reused
        if result.status != "optimal":
            objective, primal, dual = float("nan"), np.zeros(lp.n_cols), np.zeros(lp.n_rows)
            break
        objective += result.objective
        primal[cols] = result.primal
        dual[rows] = result.dual
    return SolveResult(
        status=result.status,
        objective=objective,
        primal=primal,
        dual=dual,
        iterations=iterations,
        method="highs",
        blocks=len(parts),
        reused_blocks=reused_blocks,
    )


def _independent_blocks(lp: LinearProgram) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column indices of each independent block, in block order.

    The blocks are the connected components of the graph whose nodes are
    the LP's rows and columns and whose edges are ``A``'s stored entries.
    A row without entries, or a column in no row, joins the first block,
    so that every block has rows and columns. Empty when the LP is one
    block.
    """
    from scipy.sparse.csgraph import connected_components

    A = lp.A
    m, n = A.shape
    # rows are nodes 0..m-1, columns nodes m..m+n-1 with no edges of their own
    indptr = np.concatenate([A.indptr, np.full(n, A.indptr[-1], dtype=A.indptr.dtype)])
    graph = sp.csr_matrix((A.data, A.indices + m, indptr), shape=(m + n, m + n))
    count, labels = connected_components(graph, directed=True, connection="weak")
    whole = (np.bincount(labels[:m], minlength=count) > 0) & (
        np.bincount(labels[m:], minlength=count) > 0
    )
    blocks = np.flatnonzero(whole)
    if blocks.size < 2:
        return []
    labels = np.where(whole[labels], labels, blocks[0])
    return [(np.flatnonzero(labels[:m] == b), np.flatnonzero(labels[m:] == b)) for b in blocks]


def _solve_block(
    lp: LinearProgram, options: SolveOptions, reuse: dict[str, SolveResult] | None
) -> tuple[SolveResult, bool]:
    """HiGHS result for one block, and whether it came from ``reuse``."""
    if reuse is None:
        return _solve_highs(lp, options), False
    key = lp_digest(lp)
    known = reuse.get(key)
    # HiGHS is deterministic: with more iterations left than the stored
    # solve took, solving again would retrace it
    if known is not None and known.iterations < options.iteration_limit:
        return known, True
    result = _solve_highs(lp, options)
    if result.status == "optimal":
        reuse[key] = result
    return result, False


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
