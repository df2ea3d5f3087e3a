"""LP solving with HiGHS, and optimality-certificate verification.

``highs_model`` loads an LP into HiGHS straight from its arrays,
through the array form of ``passModel`` (no ``HighsLp`` is built, whose
fields would be converted one element at a time): CSR rows, and row
bounds (-inf, rhs], [rhs, inf) or [rhs, rhs] from the relations. ``solve``
loads each independent block of the LP as its own model, and
``mps.write_mps`` has HiGHS write the whole LP so loaded as MPS, so
the export is the model that HiGHS solves. An LP of two or more blocks
has them solved at once on a thread pool, one thread per block up to
the CPUs the process may use; HiGHS releases the GIL while it solves.
The pool starts the blocks largest first, by stored entries of ``A``,
so that a large block does not start last while the other threads
idle (longest processing time first: Graham, *SIAM J. Appl. Math.*
1969, bounds the finish time at 4/3 of the optimum); their results are
still taken in block order.
A process that ``multiprocessing`` started solves its blocks in order
on its own thread, since a sweep's pool already runs one such process
per CPU. Each HiGHS model runs on one thread. A cold solve runs the
primal revised simplex (Huangfu & Hall, *Math. Prog. Comp.* 2018,
describe both of HiGHS's simplex variants): on the capacity-expansion
LPs here it takes 15-30 % more iterations than the dual simplex but
0.61-0.82 of its CPU time on coupled 3-country x 168 h LPs, and
0.88-0.91 on isolated country blocks; a started solve runs the dual (below). HiGHS's
optimal, infeasible, unbounded and iteration-limit statuses keep their
names; any other reads ``numerical``. An LP with no columns never
reaches a solver: it is optimal with objective 0 when every row holds
at x = 0, else infeasible. Row duals follow the dZ/db convention
(non-positive for binding <= rows of a minimization). The test suite
checks HiGHS's results against a dense reference simplex, the blocks
against scipy's ``connected_components``, and each block's matrix and
the certificate's products against ``scipy.sparse`` (``tests/_oracles.py``).
``verify_certificate`` checks an optimal result's certificate and
returns a ``CertificateReport``: its verdict ``ok`` and the two
residuals that a sweep's ledger entry records, as ``asdict`` of the
report, under ``certificate``. ``solve_certified`` raises
``SolveError`` for a result that is not optimal and certified.

A HiGHS solve can start from a simplex basis and hand back its final
one. A basis is one ``int8`` array in LP order, the column statuses and
then the row statuses, with HiGHS's ``HighsBasisStatus`` values (0 at
lower bound, 1 basic, 2 at upper bound, 3 free at zero, 4 nonbasic).
Each independent block starts from its slice of it. A slice that does
not hold one basic status per row goes to HiGHS as an alien basis,
which HiGHS repairs before it starts. A started solve skips presolve,
so from a nearby LP's optimal basis it takes a fraction of the
iterations of a cold one.

A nearby LP's optimal basis, after a change that moves right-hand sides
only or adds columns at a bound, stays dual feasible, the textbook case
for the dual simplex (Koberstein, PhD thesis, Paderborn 2005). So a
solve with a start runs HiGHS's dual simplex (``simplex_strategy`` 1)
priced by Devex (Harris, *Math. Prog.* 1973), which starts from unit
reference weights; HiGHS's default, dual steepest edge, first computes
each row's weight exactly (Forrest & Goldfarb, *Math. Prog.* 1992),
about one BTRAN per row before the first pivot. ``SolveResult.simplex``
names the variant that ran.

No solve loads ``scipy.optimize``, ``scipy.linalg`` or ``scipy.sparse``.
The HiGHS binding, ``scipy.optimize._highspy._core``, is loaded from its
file (``lp.scipy_extension``): ``scipy.optimize``'s package would cost
0.33-0.37 s and 27 MB of Pss, the binding alone 0.01 s and 3 MB. The
blocks are labelled by ``cs_graph_components`` of
``scipy.sparse._sparsetools``, loaded from its file the same way (``lp``
module docstring): ``scipy.sparse.csgraph`` would cost 0.12-0.15 s and
11 MB, for it loads ``scipy.sparse.linalg`` and ``scipy.linalg``. A
block's matrix is cut from the LP's CSR arrays (``CsrMatrix.block``),
and the certificate's products run ``csr_matvec`` and ``csc_matvec``.
These are private names of scipy 1.17, to which ``pyproject.toml`` pins
it.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, scipy_extension, sparsetools
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
    # final simplex basis in LP order (module docstring), when asked for
    basis: np.ndarray | None = None
    alien_start: bool = False  # a block's start went to HiGHS to repair
    simplex: str = "primal"  # the variant HiGHS ran: "dual" from a start (module docstring)


def solve(
    lp: LinearProgram,
    options: SolveOptions | None = None,
    start: np.ndarray | None = None,
    keep_basis: bool = False,
) -> SolveResult:
    """Solve ``lp``; HiGHS solves each independent block on its own.

    Blocks may be solved at once on a thread pool (module docstring),
    which starts them largest first; their results are taken in block
    order, so the result depends on neither the thread count nor the
    order in which the blocks start. Each block gets the whole
    ``options.iteration_limit``. The first block that is not optimal
    gives the LP its status; the objectives and iterations of the blocks
    up to it add up, and a block after it counts for nothing, solved or
    not. A block that raises ends the solve: blocks not yet started are
    cancelled. An LP of one block is one HiGHS call on the LP as given.

    ``start`` is a basis in LP order (module docstring) for HiGHS to
    start from; one of the wrong length, or one HiGHS rejects, raises
    ``SolveError``. With ``keep_basis`` an optimal result carries its
    final basis in that form. A started solve runs the dual simplex, a
    cold one the primal (module docstring).
    """
    options = options or SolveOptions()
    if not all(np.isfinite(a).all() for a in (lp.c, lp.A.data, lp.rhs)):
        raise SolveError("LP has a non-finite cost, coefficient or right-hand side")
    if start is not None and start.shape != (lp.n_cols + lp.n_rows,):
        raise SolveError(
            f"start basis has shape {start.shape}, "
            f"not ({lp.n_cols + lp.n_rows},): one status per column and row"
        )
    if lp.n_cols == 0:
        return _solve_without_columns(lp, keep_basis)

    parts = _independent_blocks(lp)
    if not parts:
        return _solve_highs(lp, options, start, keep_basis)

    def solve_part(part: tuple[np.ndarray, np.ndarray]) -> SolveResult:
        rows, cols = part
        block = LinearProgram(
            A=lp.A.block(rows, cols),
            c=lp.c[cols],
            lb=lp.lb[cols],
            ub=lp.ub[cols],
            relations=lp.relations[rows],
            rhs=lp.rhs[rows],
        )
        block_start = None if start is None else start[_basis_order(lp, rows, cols)]
        return _solve_highs(block, options, block_start, keep_basis)

    primal, dual = np.zeros(lp.n_cols), np.zeros(lp.n_rows)
    basis = np.zeros(lp.n_cols + lp.n_rows, dtype=np.int8) if keep_basis else None
    objective, iterations, alien = 0.0, 0, False
    pool = _block_pool(len(parts))
    try:
        if pool is None:
            outcomes = map(solve_part, parts)
        else:
            futures = {i: pool.submit(solve_part, parts[i]) for i in _largest_first(lp, parts)}
            outcomes = (futures[i].result() for i in range(len(parts)))
        for (rows, cols), result in zip(parts, outcomes):
            iterations += result.iterations
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
        basis=basis,
        alien_start=alien,
        simplex=result.simplex,
    )


def _independent_blocks(lp: LinearProgram) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column indices of each independent block, in block order.

    The blocks are the connected components of the graph whose nodes are
    the LP's rows and columns and whose edges are ``A``'s stored entries,
    labelled by the C++ ``cs_graph_components`` of scipy's sparse
    kernels (module docstring), in the order of their first node. It
    labels a node without edges -2: such a row without entries, or
    column in no row, joins the first block, so that every block has
    rows and columns. Empty when the LP is one block.
    """
    A = lp.A
    m, n = A.shape
    # rows are nodes 0..m-1 and columns nodes m..m+n-1; the rows' edges are
    # A's entries, the columns' those of its transpose, so each edge is stored
    # in both directions, as the labelling needs
    At = A.transpose()
    indptr = np.concatenate([A.indptr, At.indptr[1:] + A.indptr[-1]])
    indices = np.concatenate([A.indices + m, At.indices])
    labels = np.empty(m + n, dtype=indices.dtype)
    # -1 for a graph without edges
    count = sparsetools().cs_graph_components(m + n, indptr, indices, labels)
    if count < 2:
        return []
    labels[labels == -2] = 0
    rows, cols = labels[:m], labels[m:]
    return [(np.flatnonzero(rows == b), np.flatnonzero(cols == b)) for b in range(count)]


def _largest_first(lp: LinearProgram, parts: list[tuple[np.ndarray, np.ndarray]]) -> list[int]:
    """Block indices by stored entries of ``A``, largest first; ties keep block order."""
    row_entries = np.diff(lp.A.indptr)
    entries = np.array([row_entries[rows].sum() for rows, _ in parts])
    return np.argsort(-entries, kind="stable").tolist()


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

    One thread per block, up to the CPUs the process may use; ``solve``
    submits the blocks largest first and takes their results in block
    order. None for fewer than two threads, and in a process that
    ``multiprocessing`` started: a sweep's pool already runs one worker
    per CPU, and threads there would only add HiGHS working sets.
    """
    threads = min(blocks, _usable_cpus())
    if threads < 2 or multiprocessing.parent_process() is not None:
        return None
    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix="highs-block")


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


def _highs_core():
    """scipy's HiGHS binding, a pybind11 extension, loaded without ``scipy.optimize``."""
    return scipy_extension("scipy.optimize._highspy._core")


def highs_model(lp: LinearProgram):
    """A HiGHS instance holding ``lp``, loaded from its arrays, with its output off.

    ``SolveError`` if this scipy has no HiGHS binding or HiGHS rejects
    the LP. ``_solve_highs`` sets the solver options and runs it.
    """
    try:
        highs_core = _highs_core()
    except ImportError as exc:
        import scipy

        raise SolveError(f"scipy {scipy.__version__}: no HiGHS binding ({exc})") from exc

    A = lp.A
    highs = highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    # an LP from ``assemble`` stores no zero or tiny coefficient, so it loads
    # with kOk; HiGHS drops such entries from any other with kWarning
    passed = highs.passModel(
        lp.n_cols,
        lp.n_rows,
        A.nnz,
        highs_core.MatrixFormat.kRowwise.value,
        highs_core.ObjSense.kMinimize.value,
        0.0,  # objective offset
        lp.c,
        lp.lb,
        lp.ub,
        *_row_bounds(lp),
        A.indptr,
        A.indices,
        A.data,
        np.zeros(lp.n_cols, dtype=np.int32),  # integrality: all continuous; empty is kError
    )
    if passed == highs_core.HighsStatus.kError:
        raise SolveError(f"HiGHS rejected the LP: passModel returned {passed.name}")
    return highs


def _solve_highs(
    lp: LinearProgram,
    options: SolveOptions,
    start: np.ndarray | None = None,
    keep_basis: bool = False,
) -> SolveResult:
    highs = highs_model(lp)
    highs_core = _highs_core()  # loaded by highs_model

    dual = start is not None
    for option, value in (
        ("threads", 1),
        ("simplex_strategy", 1 if dual else 4),  # dual from a start, else primal
        ("simplex_dual_edge_weight_strategy", 1),  # Devex
        ("simplex_iteration_limit", options.iteration_limit),
        ("ipm_iteration_limit", options.iteration_limit),
    ):
        # an option HiGHS rejects keeps its old value, so a bad limit would not limit
        if highs.setOptionValue(option, value) == highs_core.HighsStatus.kError:
            raise SolveError(f"HiGHS rejected option {option}={value!r}")
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
        basis=_final_basis(highs) if optimal and keep_basis else None,
        alien_start=alien,
        simplex="dual" if dual else "primal",
    )


def _final_basis(highs) -> np.ndarray:
    """The solved model's basis in LP order; raise if HiGHS has none."""
    basis = highs.getBasis()
    if not basis.valid:
        raise SolveError("HiGHS holds no valid final basis")
    return np.array([s.value for s in basis.col_status + basis.row_status], dtype=np.int8)


def _set_basis(highs, highs_core, lp: LinearProgram, start: np.ndarray) -> bool:
    """Give ``highs`` the start basis ``start``; raise if HiGHS rejects it.

    A start without one basic status per row is passed as alien, and
    HiGHS repairs it; return whether it was.
    """
    kinds = len(highs_core.HighsBasisStatus.__members__)
    if start.size and not (0 <= start.min() and start.max() < kinds):
        raise SolveError("start basis holds an unknown status")
    statuses = [highs_core.HighsBasisStatus(value) for value in range(kinds)]
    basis = highs_core.HighsBasis()
    basis.col_status = [statuses[s] for s in start[: lp.n_cols].tolist()]
    basis.row_status = [statuses[s] for s in start[lp.n_cols :].tolist()]
    alien = bool(np.count_nonzero(start == 1) != lp.n_rows)
    basis.alien, basis.valid = alien, True
    if highs.setBasis(basis) == highs_core.HighsStatus.kError:
        raise SolveError("HiGHS rejected the start basis")
    return alien


@dataclass
class CertificateReport:
    """A certificate check's verdict and the two residuals a ledger entry records."""

    ok: bool
    primal_residual: float
    duality_gap: float


# relative tolerance of every optimality condition ``verify_certificate`` checks
_FEAS_TOL = 1e-6


def verify_certificate(lp: LinearProgram, result: SolveResult) -> CertificateReport:
    """Check an optimal result's optimality certificate.

    ``ok`` checks primal and bound feasibility, dual signs, reduced costs
    and the duality gap, each to a relative tolerance. Complementary
    slackness follows from feasibility plus a zero gap.
    """
    if result.status != "optimal":
        raise SolveError("certificates are only defined for optimal results")
    x = result.primal
    y = result.dual

    ax = lp.A @ x
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

    d = lp.c - lp.A.rmatvec(y)  # reduced costs
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

    pos = d > _FEAS_TOL * scale
    neg = d < -_FEAS_TOL * scale
    contrib = np.zeros_like(d)
    contrib[pos] = d[pos] * lp.lb[pos]
    contrib[neg] = d[neg] * lp.ub[neg]
    # dual infeasible where a reduced cost points at an infinite bound
    finite = np.isfinite(contrib)
    at_infinity = not finite.all()
    contrib = np.where(finite, contrib, 0.0)
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
        and not at_infinity
    )
    return CertificateReport(ok=ok, primal_residual=primal_residual, duality_gap=duality_gap)


def solve_certified(
    lp: LinearProgram, what: str, options: SolveOptions | None = None
) -> SolveResult:
    """Solve ``lp``; raise ``SolveError`` naming ``what`` unless it is optimal and certified."""
    result = solve(lp, options)
    if result.status != "optimal":
        raise SolveError(f"{what} is {result.status}")
    if not verify_certificate(lp, result).ok:
        raise SolveError(f"{what} failed the optimality certificate check")
    return result
