"""Batched multi-target ridge fits sharing per-group design work.

Full FRaC trains `O(f)` models; features whose targets observe the same
rows share the row gather, the fold layout, and — for ridge — the column
means and the centered design. :class:`BatchedRidge` exploits that:
:meth:`BatchedRidge.masked_solver` precomputes the shared state once per
(group, fold) on the full-width design, and each member scopes it to its
own input subset through :meth:`RidgeMaskedSolver.member`, which factors
that member's Gram and returns its solve. The engine's one
training path (:func:`repro.core.engine.run_feature_batch`) trains every
ridge feature model this way, alone or in a group, except all-others
members in the dual regime, which share one factorization per design
through :meth:`RidgeMaskedSolver.solver` (see the last section).

Outside the all-others dual case (below), the contract is **bitwise
equivalence**: for every member ``(ids, y)``,
``BatchedRidge(alpha).masked_solver(x).member(ids)(y - y.mean(), y.mean())``
must return the identical ``(coef, intercept)`` (`np.array_equal`, not
allclose) that ``RidgeRegressor(alpha).fit(x[:, ids], y)`` would fit —
:class:`~repro.learners.ridge.RidgeRegressor` stays the reference
implementation the test suites compare against. That pins the
implementation to the exact same floating-point operation sequence per
column:

- centering and the Gram product are computed from arrays with the same
  bits and memory layout the reference fit would build;
- both solve through the same raw LAPACK pair
  (:func:`repro.learners.ridge.spd_factor` = ``dpotrf``,
  :func:`repro.learners.ridge.spd_solve` = ``dpotrs``) — the exact
  sequence ``dposv`` runs internally — and LAPACK treats 1×1 systems
  uniformly (no scipy-style scalar-division special case to mirror).

Multi-RHS solves (``dpotrs`` on a matrix RHS) are deliberately *not*
used: blocked BLAS-3 triangular solves are not guaranteed columnwise
bit-identical to the vector form; every per-column op replays the scalar
path verbatim.

What may be shared
------------------
Group members share rows but usually not input subsets (the all-others
wiring, diverse-FRaC's per-feature draws), so no two members need share a
design matrix. :class:`RidgeMaskedSolver` batches what a group *does*
share — the row gather, the column means, the centered
matrix — and hands each member a solve built from the member's column
gather of that shared centered state. Three measured
bitwise facts bound what a *subset or primal* member may share
(docs/performance.md):

- numpy's axis-0 reduction keys on *memory layout*: on a C-contiguous
  design (what ``np.ix_`` gathers produce, and what the reference fit
  reduces) it is width-independent for ``d >= 2``, so the shared
  full-width ``x.mean(axis=0)`` extracts bit-identically per member via
  ``mean[S]`` — while an F-contiguous gather like ``x[:, S]`` reduces
  through the 1-D pairwise kernel instead and does **not** match. An
  ``(n, 1)`` design also takes the 1-D kernel, so single-input members
  replay the scalar path from the raw column (covering ``d == 0`` too);
- centering commutes with the column gather exactly (elementwise op),
  so ``(X - mean)[:, S]`` replays ``X[:, S] - mean[S]``;
- the member Gram must be computed as ``xc.T @ xc`` **on one array
  object**: numpy dispatches the same-operand product to ``dsyrk``, and
  extracting ``G[np.ix_(S, S)]`` from a full-width Gram (or multiplying
  two equal copies, which lands in ``dgemm``) does not reproduce its
  bits. Those members therefore still factor one Gram each.

All-others members: one factorization per design
------------------------------------------------
Full FRaC's members take every design column but their own target's.
When such a member is in the dual regime (``d - 1 > n``), its Gram is
the full-width one minus a rank-one term: with ``u = xc[:, i]``,
``G = xc @ xc.T + alpha I`` and ``M = G - u u^T``.
:meth:`RidgeMaskedSolver.solver` factors ``G`` once and returns a
:class:`SharedDualRidge`, which gives each member its dual weights by
Sherman–Morrison from two vector solves against that one factor,

    ``z = G^-1 u``, ``g = G^-1 yc``, ``a = g + z (u^T g) / (1 - u^T z)``,

and predicts held-out rows in kernel form, ``K a - (x_i - mean_i) u^T a
+ y_mean`` with ``K = (X_h - mean) xc^T`` computed once per design — no
member coefficients and no member column gathers. These fits are *not*
bitwise equal to :class:`~repro.learners.ridge.RidgeRegressor` (the
reference); they agree to rounding (``tests/learners/test_batched_ridge.py``
states the tolerance). Every op is per member and vector-shaped, so a
member's floats do not depend on which batch it trains in. When
``1 - u^T z`` falls under :data:`MIN_SM_DENOMINATOR` the rank-one update
would amplify rounding, and the member takes its own
:meth:`RidgeMaskedSolver.member` fit instead.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.learners.ridge import RidgeRegressor, check_alpha, spd_factor, spd_solve
from repro.utils.validation import check_2d

#: Smallest Sherman–Morrison denominator ``1 - u^T G^-1 u`` an all-others
#: member is solved with; below it the member falls back to its own Gram
#: factorization. In exact arithmetic the denominator is at least
#: ``alpha / (alpha + |u|^2)``, and the rank-one update divides rounding by
#: it: over 400 random dual designs (n 5-60, d n+2 to 4n+2, alpha 0.01-10,
#: the dropped column scaled by up to 10^7) the largest relative coefficient
#: error against RidgeRegressor was 6.4e-16 / denominator, so this bound
#: keeps the update's own amplification under ~1e-9. Standardized data with
#: alpha = 1 stays >= 1/(n+1).
MIN_SM_DENOMINATOR = 1e-6


def all_others_column(input_ids: np.ndarray, width: int) -> "int | None":
    """The column ``i`` when ``input_ids`` is every column of a ``width``-wide
    design except ``i`` (ascending), else ``None``."""
    ids = np.asarray(input_ids)
    if ids.ndim != 1 or len(ids) != width - 1:
        return None
    i = width * (width - 1) // 2 - int(ids.sum())
    if not 0 <= i < width:
        return None
    # Length and sum pin the candidate; the two range compares prove it.
    if (ids[:i] != np.arange(i)).any() or (ids[i:] != np.arange(i + 1, width)).any():
        return None
    return i


#: A member's solve: ``solve(yc, y_mean) -> (coef, intercept)`` for a
#: target centered over the member's rows.
MemberSolve = Callable[[np.ndarray, float], "tuple[np.ndarray, float]"]


def _ridge_solve(xc: np.ndarray, x_mean: np.ndarray, alpha: float) -> MemberSolve:
    """Factor the Gram of the centered design ``xc`` (column means
    ``x_mean``) and return its solve.

    Solves the smaller of the primal (``d x d``) and dual (``n x n``)
    normal equations, exactly like :meth:`RidgeRegressor.fit`: the branch
    choice, the Gram product and the raw ``dpotrf`` / ``dpotrs`` pair are
    replayed from the same arrays, so every float is identical.

    Bitwise contract on the caller: ``xc`` and ``x_mean`` must carry the
    exact bits ``x - x.mean(axis=0)`` and ``x.mean(axis=0)`` have for the
    member's own design gather ``x``, and ``solve``'s ``yc`` / ``y_mean``
    must equal ``y - y.mean()`` / ``y.mean()`` of the reference. Row-wise
    batched centering of targets qualifies: an axis-1 mean over contiguous
    rows runs the same pairwise kernel as the 1-D mean, and broadcast
    subtraction is elementwise. The solve validates nothing; the engine
    validates each (group, fold)'s design and targets once.
    """
    n, d = xc.shape
    if d == 0:
        return lambda yc, y_mean: (np.zeros(0), float(y_mean))
    if d <= n:
        # The same-object product dispatches to dsyrk, exactly like the
        # reference's `xc.T @ xc` — multiplying two equal copies would
        # land in dgemm and move bits.
        gram = xc.T @ xc
        gram.flat[:: d + 1] += alpha
        factor = spd_factor(gram)

        def solve(yc, y_mean):
            coef = spd_solve(factor, xc.T @ yc)
            return coef, float(y_mean - x_mean @ coef)

    else:
        # Dual (kernelized) form: w = X^T (XX^T + alpha I)^{-1} y.
        gram = xc @ xc.T
        gram.flat[:: n + 1] += alpha
        factor = spd_factor(gram)

        def solve(yc, y_mean):
            coef = xc.T @ spd_solve(factor, yc)
            return coef, float(y_mean - x_mean @ coef)

    return solve


def fitted_ridge(alpha: float, coef: np.ndarray, intercept: float) -> RidgeRegressor:
    """A fitted :class:`RidgeRegressor` carrying ``coef`` / ``intercept``."""
    model = RidgeRegressor(alpha=alpha)
    model.coef_ = coef
    model.intercept_ = intercept
    return model


class RidgeMaskedSolver:
    """Shared row gather + means + centering for per-member column subsets.

    Holds the full-width design once per (group, fold): the raw matrix
    (single-column members replay the reference from it), the column
    means, and the centered matrix. ``member`` scopes that state to one
    input subset with pure column gathers — every float its solve then
    computes is bit-identical to fitting ``RidgeRegressor`` on the
    member's own design gather (the module docstring lists the measured
    facts this rests on).
    """

    def __init__(self, x: np.ndarray, alpha: float, *, check: bool = True) -> None:
        if check:
            x = check_2d(x, "X", allow_nan=False)
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        self._alpha = float(alpha)
        self._x = x
        # ``x`` is C-contiguous (a row gather), and a C-layout axis-0
        # reduction is width-independent for d >= 2: the full-width mean
        # extracts bit-identically to what each member's reference fit
        # computes on its own np.ix_-gathered (C-contiguous) design.
        # Layout is load-bearing — an F-contiguous gather like
        # ``x[:, ids]`` reduces through the 1-D pairwise kernel instead
        # and does NOT match (measured; see docs/performance.md).
        self._x_mean = x.mean(axis=0)
        self._xc = x - self._x_mean

    def solver(self) -> "SharedDualRidge | None":
        """One factorization for every all-others member of this design, or
        ``None`` when those members are primal (``d - 1 <= n``) and keep
        their own :meth:`member` fits."""
        n, d = self._xc.shape
        if d - 1 <= n:
            return None
        return SharedDualRidge(self._xc, self._x_mean, self._alpha)

    def member(self, input_ids: np.ndarray) -> MemberSolve:
        """The ridge solve over the subset ``input_ids`` of the design:
        ``solve(yc, y_mean) -> (coef, intercept)``, with the member's Gram
        factored once here, so one member solves any number of targets."""
        ids = np.asarray(input_ids, dtype=np.intp)
        if ids.size <= 1:
            # An (n, 1) submatrix reduces through the 1-D pairwise kernel,
            # so the shared mean extraction is not bit-identical there;
            # center the raw column itself, replaying the reference in
            # full (d == 0 likewise short-circuits).
            x = self._x[:, ids]
            x_mean = x.mean(axis=0)
            return _ridge_solve(x - x_mean, x_mean, self._alpha)
        # ``take`` along axis 1 gathers into a C-contiguous result, the
        # layout of the reference's np.ix_ gather; ``xc[:, ids]`` would be
        # F-contiguous, and BLAS dispatches the Gram product to a
        # different dsyrk transpose path there — same math, not the same
        # bits.
        return _ridge_solve(self._xc.take(ids, axis=1), self._x_mean[ids], self._alpha)


class SharedDualRidge:
    """Dual ridge fits of every all-others member of one centered design.

    Member ``i`` fits the design without its column ``i``. Its Gram
    ``M = G - u u^T`` (``u = xc[:, i]``) is a rank-one downdate of the
    full-width ``G = xc xc^T + alpha I``, factored once here; each member
    then costs two vector solves (the module docstring has the formulas).
    A member's dual weights ``a`` stand for its coefficients
    ``delete(xc^T a, i)`` without forming them until :meth:`regressor`.
    """

    def __init__(self, xc: np.ndarray, x_mean: np.ndarray, alpha: float) -> None:
        n = xc.shape[0]
        self._alpha = alpha
        self._x_mean = x_mean
        self._xc = xc
        # Row i is member i's downdate vector u, contiguous for the solves.
        self._u = np.ascontiguousarray(xc.T)
        gram = xc @ xc.T
        gram.flat[:: n + 1] += alpha
        self._factor = spd_factor(gram)

    def weights(self, i: int, yc: np.ndarray) -> "np.ndarray | None":
        """Member ``i``'s dual weights for the centered target ``yc``, or
        ``None`` when its Sherman–Morrison denominator is under
        :data:`MIN_SM_DENOMINATOR` (the caller fits it on its own)."""
        u = self._u[i]
        z = spd_solve(self._factor, u)
        denominator = 1.0 - u @ z
        if not denominator >= MIN_SM_DENOMINATOR:
            return None
        g = spd_solve(self._factor, yc)
        return g + z * ((u @ g) / denominator)

    def kernel(self, x: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """``(K, x - mean)`` for rows ``x`` of the full-width design, with
        ``K = (x - mean) xc^T``: what :meth:`predict` needs, once per row set."""
        x_centered = x - self._x_mean
        return x_centered @ self._xc.T, x_centered

    def predict(
        self, kernel: "tuple[np.ndarray, np.ndarray]", i: int, a: np.ndarray, y_mean: float
    ) -> np.ndarray:
        """Member ``i``'s predictions at the rows of ``kernel``."""
        k, x_centered = kernel
        return k @ a - x_centered[:, i] * (self._u[i] @ a) + y_mean

    def regressor(self, i: int, a: np.ndarray, y_mean: float) -> RidgeRegressor:
        """Member ``i``'s fitted :class:`RidgeRegressor` from its weights."""
        coef = np.delete(self._u @ a, i)
        return fitted_ridge(self._alpha, coef, float(y_mean - np.delete(self._x_mean, i) @ coef))


class BatchedRidge:
    """Multi-target ridge: shared gathers and centering, per-member solves.

    Takes :class:`RidgeRegressor`'s constructor parameters, with its
    errors. ``BatchedRidge(alpha).masked_solver(x).member(ids)`` solves to
    the bits of ``RidgeRegressor(alpha).fit(x[:, ids], y)`` (the module
    docstring explains why); :func:`fitted_ridge` wraps a final solve in
    an actual :class:`RidgeRegressor`, so persistence, scoring, and the
    resource model see the same artifact type either way.
    """

    def __init__(self, alpha: float = 1.0) -> None:
        self.alpha = check_alpha(alpha)

    def masked_solver(self, x: np.ndarray, *, check: bool = True) -> RidgeMaskedSolver:
        """Shared state for a full-width design whose members take subsets.

        ``x`` carries *every* feature column; each member later selects
        its own column subset via :meth:`RidgeMaskedSolver.member`.
        ``check=False`` skips input validation; callers may pass it when
        ``x`` is a row subset of a matrix they already validated (the
        engine validates each group design once, not once per fold).
        Validation never touches the fitted floats either way.
        """
        return RidgeMaskedSolver(x, self.alpha, check=check)
