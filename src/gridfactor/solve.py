"""LP solving with HiGHS, and optimality-certificate verification.

``solve`` hands HiGHS each independent block of the LP as its own
model: CSR rows, and row bounds (-inf, rhs], [rhs, inf) or [rhs, rhs]
from the relations. An LP of two or more blocks has them solved at once
on a thread pool, one thread per block up to the CPUs the process may
use; HiGHS releases the GIL while it solves. A process that
``multiprocessing`` started solves its blocks in order on its own
thread, since a sweep's pool already runs one such process per CPU.
Each HiGHS model runs on one thread with the primal revised simplex
by default (Huangfu & Hall, *Math. Prog. Comp.* 2018, describe both of
HiGHS's simplex variants): on the capacity-expansion LPs here, solved
cold, it takes 15-30 % more iterations than the dual simplex but
0.61-0.82 of its CPU time on coupled 3-country x 168 h LPs, and
0.88-0.91 on isolated country blocks. Its optimal, infeasible,
unbounded and iteration-limit statuses keep their names; any other
reads ``numerical``. An LP with no columns never reaches a solver: it
is optimal with objective 0 when every row holds at x = 0, else
infeasible. Row duals follow the dZ/db convention (non-positive for
binding <= rows of a minimization). The test suite checks HiGHS's
results against a dense reference simplex (``tests/_oracles.py``).

A HiGHS solve can start from a simplex basis and hand back its final
one. A basis is one ``int8`` array in LP order, the column statuses and
then the row statuses, with HiGHS's ``HighsBasisStatus`` values (0 at
lower bound, 1 basic, 2 at upper bound, 3 free at zero, 4 nonbasic).
Each independent block starts from its slice of it. A slice that does
not hold one basic status per row goes to HiGHS as an alien basis,
which HiGHS repairs before it starts. A started solve skips presolve,
so from a nearby LP's optimal basis it takes a fraction of the
iterations of a cold one.

``map_basis`` carries a basis from one assembled LP to another of other
columns or rows, by the block keys of the two layouts: shared blocks
keep their statuses, new columns start nonbasic at their lower bound
and new rows basic. It needs the source LP's two block maps, not the
LP itself: a sweep hands a parent state's basis to its children as a
basis file plus the block keys and lengths of the parent's LP, in its
``states/`` directory. After a change that moves right-hand sides only
or adds columns at a bound, that start stays dual feasible, the textbook
case for the dual simplex (Koberstein, PhD thesis, Paderborn 2005);
``solve(..., simplex="dual")`` runs HiGHS's dual simplex
(``simplex_strategy`` 1) instead of the primal. A sweep does so on the
edges that add interconnection or native load (``gridfactor.sweep``).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .lp import LinearProgram, lp_digest
from .model import GridFactorError

# the solver that ledger entries and reference shares name
SOLVER = "highs"


class SolveError(GridFactorError):
    pass


@dataclass(frozen=True)
class SolveOptions:
    """Solver limits; each independent block gets the whole budget.

    HiGHS stops a block with ``iteration-limit`` once its simplex
    iteration count reaches ``iteration_limit``, even where the block
    would be optimal at exactly that count: a block that needs N
    iterations needs a limit of at least N + 1.
    """

    iteration_limit: int = 100_000


@dataclass
class SolveResult:
    """Outcome of one LP solve; arrays align with the LP's columns/rows."""

    status: str  # optimal | infeasible | unbounded | iteration-limit | numerical
    objective: float
    primal: np.ndarray
    dual: np.ndarray
    iterations: int
    blocks: int = 1  # independent blocks, each solved as its own HiGHS model
    reused_blocks: int = 0  # blocks answered from ``solve``'s ``reuse`` dict
    # final simplex basis in LP order (module docstring), when asked for
    basis: np.ndarray | None = None
    alien_start: bool = False  # a block's start went to HiGHS to repair


# ``solve``'s reuse key of a block: its lp_digest, a digest of its start
# basis or None for a cold start, and the simplex variant
ReuseKey = tuple[str, str | None, str]

# HiGHS ``simplex_strategy`` of each simplex variant (module docstring)
_SIMPLEX_STRATEGY = {"primal": 4, "dual": 1}


def solve(
    lp: LinearProgram,
    options: SolveOptions | None = None,
    reuse: dict[ReuseKey, SolveResult] | None = None,
    start: np.ndarray | None = None,
    keep_basis: bool = False,
    simplex: str = "primal",
) -> SolveResult:
    """Solve ``lp``; HiGHS solves each independent block on its own.

    Blocks may be solved at once on a thread pool (module docstring);
    their results are taken in block order, so the result does not
    depend on the thread count. Each block gets the whole
    ``options.iteration_limit``. The first block that is not optimal
    gives the LP its status; the objectives and iterations of the blocks
    up to it add up, and a block after it counts for nothing, solved or
    not. A block that raises ends the solve: blocks not yet started are
    cancelled. An LP of one block is one HiGHS call on the LP as given.

    ``reuse`` maps a block's ``ReuseKey`` to its optimal result. A block
    found there is not solved again; one solved here is added. A stored
    result without a final basis does not answer a caller that keeps one.

    ``start`` is a basis in LP order (module docstring) for HiGHS to
    start from; one of the wrong length, or one HiGHS rejects, raises
    ``SolveError``. With ``keep_basis`` an optimal result carries its
    final basis in that form. ``simplex`` is ``"primal"`` or ``"dual"``.
    """
    options = options or SolveOptions()
    if simplex not in _SIMPLEX_STRATEGY:
        raise SolveError(f"unknown simplex variant {simplex!r}: {sorted(_SIMPLEX_STRATEGY)}")
    if not all(np.isfinite(a).all() for a in (lp.c, lp.A.data, lp.rhs)):
        raise SolveError(f"LP {lp.name!r} has a non-finite cost, coefficient or right-hand side")
    if start is not None and start.shape != (lp.n_cols + lp.n_rows,):
        raise SolveError(
            f"start basis of LP {lp.name!r} has shape {start.shape}, "
            f"not ({lp.n_cols + lp.n_rows},): one status per column and row"
        )
    if lp.n_cols == 0:
        return _solve_without_columns(lp, keep_basis)

    parts = _independent_blocks(lp)
    if not parts:
        result, reused = _solve_block(lp, options, reuse, start, keep_basis, simplex)
        return replace(result, reused_blocks=1) if reused else result

    def solve_part(part: tuple[np.ndarray, np.ndarray]) -> tuple[SolveResult, bool]:
        rows, cols = part
        block = LinearProgram(
            A=lp.A[rows][:, cols],
            c=lp.c[cols],
            lb=lp.lb[cols],
            ub=lp.ub[cols],
            relations=lp.relations[rows],
            rhs=lp.rhs[rows],
            name=lp.name,
        )
        block_start = None if start is None else start[_basis_order(lp, rows, cols)]
        return _solve_block(block, options, reuse, block_start, keep_basis, simplex)

    primal, dual = np.zeros(lp.n_cols), np.zeros(lp.n_rows)
    basis = np.zeros(lp.n_cols + lp.n_rows, dtype=np.int8) if keep_basis else None
    objective, iterations, reused_blocks, alien = 0.0, 0, 0, False
    pool = _block_pool(len(parts))
    try:
        outcomes = map(solve_part, parts) if pool is None else pool.map(solve_part, parts)
        for (rows, cols), (result, reused) in zip(parts, outcomes):
            iterations += result.iterations
            reused_blocks += reused
            alien = alien or result.alien_start
            if result.status != "optimal":
                objective, primal, dual = float("nan"), np.zeros(lp.n_cols), np.zeros(lp.n_rows)
                basis = None
                break
            objective += result.objective
            primal[cols] = result.primal
            dual[rows] = result.dual
            if basis is not None:
                basis[_basis_order(lp, rows, cols)] = result.basis
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return SolveResult(
        status=result.status,
        objective=objective,
        primal=primal,
        dual=dual,
        iterations=iterations,
        blocks=len(parts),
        reused_blocks=reused_blocks,
        basis=basis,
        alien_start=alien,
    )


def map_basis(
    basis: np.ndarray,
    blocks: dict[tuple, slice],
    row_blocks: dict[tuple, slice],
    lp: LinearProgram,
) -> np.ndarray:
    """A basis of an LP laid out by ``blocks`` and ``row_blocks``, on ``lp``'s layout.

    Both LPs come from ``assemble`` with one horizon. A column or row
    block whose key both layouts have keeps its statuses; a new column
    starts nonbasic at its lower bound (0), a new row basic (1). Equal
    layouts give back ``basis`` itself. The result may hold more or
    fewer basic statuses than ``lp`` has rows; ``solve`` hands such a
    start to HiGHS to repair.
    """
    if blocks == lp.blocks and row_blocks == lp.row_blocks:
        return basis
    source_cols = sum(block.stop - block.start for block in blocks.values())
    mapped = np.zeros(lp.n_cols + lp.n_rows, dtype=np.int8)
    mapped[lp.n_cols :] = 1
    for target, source, at, start_at in (
        (lp.blocks, blocks, 0, 0),
        (lp.row_blocks, row_blocks, lp.n_cols, source_cols),
    ):
        for key, to in target.items():
            came = source.get(key)
            if came is not None:
                mapped[at + to.start : at + to.stop] = basis[
                    start_at + came.start : start_at + came.stop
                ]
    return mapped


def _independent_blocks(lp: LinearProgram) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column indices of each independent block, in block order.

    The blocks are the connected components of the graph whose nodes are
    the LP's rows and columns and whose edges are ``A``'s stored entries.
    A row without entries, or a column in no row, joins the first block,
    so that every block has rows and columns. Empty when the LP is one
    block.
    """
    import scipy.sparse as sp
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


def _basis_order(lp: LinearProgram, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The positions of a block's columns and rows in an LP-order basis."""
    return np.concatenate([cols, lp.n_cols + rows])


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _block_pool(blocks: int) -> ThreadPoolExecutor | None:
    """A thread pool to solve ``blocks`` blocks on, or None to solve them in order.

    One thread per block, up to the CPUs the process may use. None for
    fewer than two threads, and in a process that ``multiprocessing``
    started: a sweep's pool already runs one worker per CPU, and threads
    there would only add HiGHS working sets.
    """
    threads = min(blocks, _usable_cpus())
    if threads < 2 or multiprocessing.parent_process() is not None:
        return None
    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix="highs-block")


def _solve_block(
    lp: LinearProgram,
    options: SolveOptions,
    reuse: dict[ReuseKey, SolveResult] | None,
    start: np.ndarray | None,
    keep_basis: bool,
    simplex: str,
) -> tuple[SolveResult, bool]:
    """HiGHS result for one block, and whether it came from ``reuse``.

    Several threads may read and write ``reuse`` at once (``solve``).
    Each ``get`` and each assignment is one dict operation, atomic under
    the GIL. Two threads that miss the same key both solve the block and
    both store it; HiGHS is deterministic, so the two results are equal.
    """
    if reuse is None:
        return _solve_highs(lp, options, start, keep_basis, simplex), False
    started = None if start is None else hashlib.sha256(start.tobytes()).hexdigest()
    key = (lp_digest(lp), started, simplex)
    known = reuse.get(key)
    # HiGHS is deterministic: from the same start, by the same simplex and
    # with more iterations left than the stored solve took, solving again
    # would retrace it; a result stored without its basis has none to give
    if (
        known is not None
        and known.iterations < options.iteration_limit
        and (known.basis is not None or not keep_basis)
    ):
        return known, True
    result = _solve_highs(lp, options, start, keep_basis, simplex)
    if result.status == "optimal":
        reuse[key] = result
    return result, False


def _row_bounds(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on each row's activity: (-inf, rhs], [rhs, inf) or [rhs, rhs]."""
    return (
        np.where(lp.relations == "<", -np.inf, lp.rhs),
        np.where(lp.relations == ">", np.inf, lp.rhs),
    )


# absolute row tolerance at x = 0; HiGHS's default primal feasibility tolerance
_EMPTY_ROW_TOL = 1e-7


def _solve_without_columns(lp: LinearProgram, keep_basis: bool) -> SolveResult:
    """Decide an LP with no columns from its rows at x = 0; no solver runs.

    Its basis, when kept, is every row basic.
    """
    lower, upper = _row_bounds(lp)
    optimal = bool(np.all((lower <= _EMPTY_ROW_TOL) & (upper >= -_EMPTY_ROW_TOL)))
    return SolveResult(
        status="optimal" if optimal else "infeasible",
        objective=0.0 if optimal else float("nan"),
        primal=np.zeros(0),
        dual=np.zeros(lp.n_rows),
        iterations=0,
        basis=np.ones(lp.n_rows, dtype=np.int8) if optimal and keep_basis else None,
    )


# HighsModelStatus name -> status name; any other status (kUnboundedOrInfeasible,
# kSolveError, ...) is numerical trouble, never a claim about the LP
_HIGHS_STATUS = {
    "kOptimal": "optimal",
    "kIterationLimit": "iteration-limit",
    "kInfeasible": "infeasible",
    "kUnbounded": "unbounded",
}


def _solve_highs(
    lp: LinearProgram,
    options: SolveOptions,
    start: np.ndarray | None = None,
    keep_basis: bool = False,
    simplex: str = "primal",
) -> SolveResult:
    try:
        import scipy.optimize._highspy._core as highs_core
    except ImportError as exc:
        import scipy

        raise SolveError(f"scipy {scipy.__version__}: no HiGHS binding ({exc})") from exc

    model = highs_core.HighsLp()
    model.num_col_, model.num_row_ = lp.n_cols, lp.n_rows
    model.col_cost_, model.col_lower_, model.col_upper_ = lp.c, lp.lb, lp.ub
    model.row_lower_, model.row_upper_ = _row_bounds(lp)
    matrix = model.a_matrix_
    matrix.format_ = highs_core.MatrixFormat.kRowwise
    matrix.num_col_, matrix.num_row_ = lp.n_cols, lp.n_rows
    matrix.start_, matrix.index_, matrix.value_ = lp.A.indptr, lp.A.indices, lp.A.data

    highs = highs_core._Highs()
    for option, value in (
        ("output_flag", False),
        ("threads", 1),
        ("simplex_strategy", _SIMPLEX_STRATEGY[simplex]),
        ("simplex_iteration_limit", options.iteration_limit),
        ("ipm_iteration_limit", options.iteration_limit),
    ):
        # an option HiGHS rejects keeps its old value, so a bad limit would not limit
        if highs.setOptionValue(option, value) == highs_core.HighsStatus.kError:
            raise SolveError(f"HiGHS rejected option {option}={value!r} for LP {lp.name!r}")
    # kWarning is normal: HiGHS drops the LP's explicit zeros and tiny coefficients
    passed = highs.passModel(model)
    if passed == highs_core.HighsStatus.kError:
        raise SolveError(f"HiGHS rejected LP {lp.name!r}: passModel returned {passed.name}")
    alien = start is not None and _set_basis(highs, highs_core, lp, start)
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
        basis=_final_basis(highs, lp) if optimal and keep_basis else None,
        alien_start=alien,
    )


def _final_basis(highs, lp: LinearProgram) -> np.ndarray:
    """The solved model's basis in LP order; raise if HiGHS has none."""
    basis = highs.getBasis()
    if not basis.valid:
        raise SolveError(f"HiGHS holds no valid final basis of LP {lp.name!r}")
    return np.array(basis.col_status + basis.row_status, dtype=np.int8)


def _set_basis(highs, highs_core, lp: LinearProgram, start: np.ndarray) -> bool:
    """Give ``highs`` the start basis ``start``; raise if HiGHS rejects it.

    A start without one basic status per row is passed as alien, and
    HiGHS repairs it; return whether it was.
    """
    kinds = len(highs_core.HighsBasisStatus.__members__)
    if start.size and not (0 <= start.min() and start.max() < kinds):
        raise SolveError(f"start basis of LP {lp.name!r} holds an unknown status")
    statuses = [highs_core.HighsBasisStatus(value) for value in range(kinds)]
    basis = highs_core.HighsBasis()
    basis.col_status = [statuses[s] for s in start[: lp.n_cols].tolist()]
    basis.row_status = [statuses[s] for s in start[lp.n_cols :].tolist()]
    alien = bool(np.count_nonzero(start == 1) != lp.n_rows)
    basis.alien, basis.valid = alien, True
    if highs.setBasis(basis) == highs_core.HighsStatus.kError:
        raise SolveError(f"HiGHS rejected the start basis of LP {lp.name!r}")
    return alien


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


# relative tolerance of every optimality condition ``verify_certificate`` checks
_FEAS_TOL = 1e-6


def verify_certificate(lp: LinearProgram, result: SolveResult) -> CertificateReport:
    """Check primal feasibility, dual feasibility, and complementary slackness."""
    if result.status != "optimal":
        raise SolveError("certificates are only defined for optimal results")
    x = result.primal
    y = result.dual
    messages: list[str] = []

    ax = lp.A @ x
    slack = lp.rhs - ax
    lower, upper = _row_bounds(lp)
    primal_residual = float(np.maximum(np.maximum(lower - ax, ax - upper), 0.0).max(initial=0.0))

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
    atol = _FEAS_TOL * (1.0 + np.maximum(np.abs(lp.lb), 0.0))
    at_lb = np.isfinite(lp.lb) & (x <= lp.lb + atol)
    finite_ub = np.where(np.isfinite(lp.ub), lp.ub, 0.0)
    at_ub = np.isfinite(lp.ub) & (x >= lp.ub - _FEAS_TOL * (1.0 + np.abs(finite_ub)))
    interior = ~at_lb & ~at_ub
    reduced_cost_residual = float(
        max(
            np.abs(d[interior]).max(initial=0.0),
            np.maximum(-d[at_lb & ~at_ub], 0.0).max(initial=0.0),
            np.maximum(d[at_ub & ~at_lb], 0.0).max(initial=0.0),
        )
    )

    complementarity_residual = float(np.abs(y * slack).max(initial=0.0))

    pos = d > _FEAS_TOL * scale
    neg = d < -_FEAS_TOL * scale
    contrib = np.zeros_like(d)
    contrib[pos] = d[pos] * lp.lb[pos]
    contrib[neg] = d[neg] * lp.ub[neg]
    if not np.all(np.isfinite(contrib)):
        messages.append("dual infeasible: reduced cost points at an infinite bound")
        contrib = np.where(np.isfinite(contrib), contrib, 0.0)
    dual_objective = float(y @ lp.rhs + contrib.sum())
    duality_gap = abs(result.objective - dual_objective)
    gap_tol = _FEAS_TOL * (1.0 + abs(result.objective))

    rhs_scale = 1.0 + float(np.abs(lp.rhs).max(initial=0.0))
    ok = (
        primal_residual <= _FEAS_TOL * rhs_scale
        and bound_residual <= _FEAS_TOL * rhs_scale
        and dual_sign_residual <= _FEAS_TOL * scale
        and reduced_cost_residual <= _FEAS_TOL * scale
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
