"""CART decision trees, from scratch (the paper's Waffles substitute).

Both the classifier and the regressor grow binary axis-aligned trees with
midpoint thresholds. Ternary SNP codes (0/1/2) are ordered by minor-allele
count, so threshold splits are exactly the natural genotype splits
(dominant/recessive models); unordered categoricals of higher arity are
handled the same way sklearn handles them — by thresholding the codes —
which is documented behaviour, not an accident.

The split search is vectorized across *all* candidate features at once:
each node argsorts its sample block per column, builds cumulative class
counts (or cumulative sums for regression), and evaluates every valid
threshold of every feature in one shot. The per-node cost is
``O(m log m * width)`` for ``m`` node samples.

``max_features`` (int, float fraction, or ``"sqrt"``) subsamples candidate
features per node, which is how diverse/random-forest-style trees are
expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.learners.base import Classifier, Regressor
from repro.utils.rng import as_generator
from repro.utils.validation import check_2d, check_fitted

_NO_FEATURE = -1


@dataclass
class _Tree:
    """Flat array representation of a fitted tree."""

    feature: np.ndarray  # (n_nodes,) split feature or _NO_FEATURE for leaves
    threshold: np.ndarray  # (n_nodes,)
    left: np.ndarray  # (n_nodes,) child indices
    right: np.ndarray
    value: np.ndarray  # (n_nodes,) leaf prediction

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def nbytes(self) -> int:
        return sum(int(a.nbytes) for a in (self.feature, self.threshold, self.left, self.right, self.value))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Vectorized traversal: route all rows level by level."""
        node = np.zeros(x.shape[0], dtype=np.intp)
        while True:
            feat = self.feature[node]
            internal = feat != _NO_FEATURE
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            go_left = x[rows, feat[rows]] <= self.threshold[node[rows]]
            node[rows] = np.where(go_left, self.left[node[rows]], self.right[node[rows]])
        return self.value[node]


class _TreeBuilder:
    """Shared recursive CART builder; criterion supplied by subclass hooks."""

    def __init__(
        self,
        *,
        max_depth: int,
        min_samples_leaf: int,
        min_samples_split: int,
        max_features: "int | float | str | None",
        rng: np.random.Generator,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.rng = rng
        self._nodes: list[list] = []  # [feature, threshold, left, right, value]

    # hooks -----------------------------------------------------------------
    def leaf_value(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def node_impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def split_impurities(
        self, sorted_y_stats: tuple, m: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(left_impurity, right_impurity) arrays of shape (m-1, width)."""
        raise NotImplementedError

    def sorted_stats(self, y: np.ndarray, order: np.ndarray) -> tuple:
        """Precompute whatever split_impurities needs from y ordered per column."""
        raise NotImplementedError

    # machinery ---------------------------------------------------------------
    def _candidate_features(self, width: int) -> np.ndarray:
        mf = self.max_features
        if mf is None:
            return np.arange(width)
        if mf == "sqrt":
            k = max(1, int(np.sqrt(width)))
        elif isinstance(mf, float):
            k = max(1, int(round(mf * width)))
        else:
            k = max(1, min(int(mf), width))
        return self.rng.choice(width, size=k, replace=False)

    def build(self, x: np.ndarray, y: np.ndarray) -> _Tree:
        self._nodes = []
        self._grow(x, y, depth=0)
        return self._assemble()

    def _assemble(self) -> _Tree:
        nodes = self._nodes
        return _Tree(
            feature=np.array([n[0] for n in nodes], dtype=np.intp),
            threshold=np.array([n[1] for n in nodes], dtype=np.float64),
            left=np.array([n[2] for n in nodes], dtype=np.intp),
            right=np.array([n[3] for n in nodes], dtype=np.intp),
            value=np.array([n[4] for n in nodes], dtype=np.float64),
        )

    def _make_leaf(self, y: np.ndarray) -> int:
        idx = len(self._nodes)
        self._nodes.append([_NO_FEATURE, 0.0, -1, -1, self.leaf_value(y)])
        return idx

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int) -> int:
        m = len(y)
        if (
            depth >= self.max_depth
            or m < self.min_samples_split
            or m < 2 * self.min_samples_leaf
            or self.node_impurity(y) <= 1e-12
        ):
            return self._make_leaf(y)

        cand = self._candidate_features(x.shape[1])
        xs = x[:, cand]
        order = np.argsort(xs, axis=0, kind="stable")
        sorted_x = np.take_along_axis(xs, order, axis=0)
        left_imp, right_imp = self.split_impurities(self.sorted_stats(y, order), m)

        # Split after position i (left = rows [0..i]); position valid only
        # where the sorted value strictly increases and both sides satisfy
        # the leaf-size floor.
        sizes_left = np.arange(1, m)[:, None]
        valid = sorted_x[:-1] < sorted_x[1:]
        valid &= sizes_left >= self.min_samples_leaf
        valid &= (m - sizes_left) >= self.min_samples_leaf
        if not valid.any():
            return self._make_leaf(y)

        weighted = (sizes_left * left_imp + (m - sizes_left) * right_imp) / m
        weighted = np.where(valid, weighted, np.inf)
        pos, col = np.unravel_index(np.argmin(weighted), weighted.shape)
        if not np.isfinite(weighted[pos, col]):
            return self._make_leaf(y)
        parent_imp = self.node_impurity(y)
        if parent_imp - weighted[pos, col] <= 1e-12:
            return self._make_leaf(y)

        feature = int(cand[col])
        threshold = 0.5 * (sorted_x[pos, col] + sorted_x[pos + 1, col])
        go_left = x[:, feature] <= threshold

        idx = len(self._nodes)
        self._nodes.append([feature, float(threshold), -1, -1, 0.0])
        left_child = self._grow(x[go_left], y[go_left], depth + 1)
        right_child = self._grow(x[~go_left], y[~go_left], depth + 1)
        self._nodes[idx][2] = left_child
        self._nodes[idx][3] = right_child
        return idx


#: Largest integer code eligible for the contingency-table split search.
#: SNP matrices (codes 0/1/2) are the motivating case; the cap keeps the
#: per-node table at ``width x arity x classes`` — tiny for real data.
_FAST_MAX_CODE = 15


def _small_integer_codes(x: np.ndarray) -> "np.ndarray | None":
    """``x`` as ``intp`` codes when it qualifies for the contingency-table
    split search, else None."""
    if not x.size:
        return None
    xi = x.astype(np.intp)
    if xi.min() >= 0 and xi.max() <= _FAST_MAX_CODE and (xi == x).all():
        return xi
    return None


class _ClassifierBuilder(_TreeBuilder):
    def __init__(self, criterion: str, classes: np.ndarray, **kw) -> None:
        super().__init__(**kw)
        self.criterion = criterion
        self.classes = classes

    def build(self, x: np.ndarray, y: np.ndarray) -> _Tree:
        # Small-arity integer designs (SNP 0/1/2 codes) admit a much
        # cheaper split search over per-node contingency tables. It is
        # decision-equivalent to the dense sorted sweep in `_grow` — the
        # cumulative class counts at every distinct-value boundary are the
        # same integers, so every impurity float, threshold midpoint, and
        # lexicographic tie-break comes out identical — but skips the
        # per-node argsort and the (m-1, width, k) impurity arrays.
        xi = _small_integer_codes(x)
        if xi is not None:
            codes = np.searchsorted(self.classes, y.astype(np.intp))
            self._nodes = []
            self._grow_categorical(x, xi, codes, depth=0, arity=int(xi.max()) + 1)
            return self._assemble()
        return super().build(x, y)

    def _leaf_from_counts(self, counts: np.ndarray) -> int:
        idx = len(self._nodes)
        value = float(self.classes[int(np.argmax(counts))])
        self._nodes.append([_NO_FEATURE, 0.0, -1, -1, value])
        return idx

    def _impurity_from_counts_positive(
        self, counts: np.ndarray, totals: np.ndarray
    ) -> np.ndarray:
        """`_impurity_from_counts` when every total is known positive.

        The categorical path only evaluates boundaries with nonempty
        sides, so the 0/0 errstate guard and the NaN-tolerant reductions
        of the general version are dead weight there. Same floats: the
        divisions, ``log2`` inputs, and last-axis sums are element-for-
        element the ops the general version performs.
        """
        p = counts / totals
        if self.criterion == "gini":
            return 1.0 - (p * p).sum(axis=-1)
        logp = np.log2(p, out=np.zeros_like(p), where=p > 0)  # fraclint: disable=FRL003 -- where=p>0 masks the log and the out= zeros fill the guarded lanes; element-for-element the double-where idiom of _impurity_from_counts
        return -(p * logp).sum(axis=-1)

    def _grow_categorical(
        self, x: np.ndarray, xi: np.ndarray, codes: np.ndarray, depth: int, arity: int
    ) -> int:
        m = len(codes)
        k = len(self.classes)
        counts_node = np.bincount(codes, minlength=k)
        parent_imp = float(
            self._impurity_from_counts_positive(counts_node, np.float64(m))
        )
        if (
            depth >= self.max_depth
            or m < self.min_samples_split
            or m < 2 * self.min_samples_leaf
            or parent_imp <= 1e-12
        ):
            return self._leaf_from_counts(counts_node)

        cand = self._candidate_features(x.shape[1])
        sub = xi if self.max_features is None else xi[:, cand]
        width = sub.shape[1]
        # table[w, v, c] = count of rows in this node with code v in column
        # w and class c; one bincount replaces the dense argsort/cumsum.
        flat = sub * k + codes[:, None] + np.arange(width) * (arity * k)
        table = np.bincount(flat.ravel(), minlength=width * arity * k).reshape(
            width, arity, k
        )
        cum = table.cumsum(axis=1)  # left-side class counts at boundary v
        cum_n = cum.sum(axis=2)  # left-side sizes
        cnt_v = table.sum(axis=2)  # rows per (column, value)

        # A boundary after value v exists where v is present and rows
        # remain on the right; the leaf-size floors mirror the dense
        # `valid` mask exactly.
        msl = self.min_samples_leaf
        valid = (cnt_v > 0) & (cum_n < m) & (cum_n >= msl) & ((m - cum_n) >= msl)
        if not valid.any():
            return self._leaf_from_counts(counts_node)

        ccol, vval = np.nonzero(valid)
        lc = cum[ccol, vval]  # (q, k) integer class counts, left side
        sz = cum_n[ccol, vval]  # (q,) left sizes — dense pos = sz - 1
        left = self._impurity_from_counts_positive(
            lc, sz[:, None].astype(np.float64)
        )
        right = self._impurity_from_counts_positive(
            counts_node[None, :] - lc, (m - sz)[:, None].astype(np.float64)
        )
        weighted = (sz * left + (m - sz) * right) / m
        best = weighted.min()
        if not np.isfinite(best):
            return self._leaf_from_counts(counts_node)
        if parent_imp - best <= 1e-12:
            return self._leaf_from_counts(counts_node)
        # The dense argmin scans (pos, col) row-major, so ties break to the
        # smallest flat index pos * width + col; replay that exactly.
        tie = np.flatnonzero(weighted == best)
        j = tie[np.argmin((sz[tie] - 1) * width + ccol[tie])]

        col = int(ccol[j])
        feature = int(cand[col])
        v_lo = int(vval[j])
        above = np.flatnonzero(cnt_v[col, v_lo + 1 :] > 0)
        v_hi = v_lo + 1 + int(above[0])
        threshold = 0.5 * (float(v_lo) + float(v_hi))
        go_left = x[:, feature] <= threshold

        idx = len(self._nodes)
        self._nodes.append([feature, float(threshold), -1, -1, 0.0])
        left_child = self._grow_categorical(
            x[go_left], xi[go_left], codes[go_left], depth + 1, arity
        )
        not_left = ~go_left
        right_child = self._grow_categorical(
            x[not_left], xi[not_left], codes[not_left], depth + 1, arity
        )
        self._nodes[idx][2] = left_child
        self._nodes[idx][3] = right_child
        return idx

    def leaf_value(self, y: np.ndarray) -> float:
        counts = np.bincount(
            np.searchsorted(self.classes, y.astype(np.intp)), minlength=len(self.classes)
        )
        return float(self.classes[int(np.argmax(counts))])

    def _impurity_from_counts(self, counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            p = counts / totals
        if self.criterion == "gini":
            return 1.0 - np.nansum(p * p, axis=-1)
        # Shannon entropy (Waffles' default for its entropy-minimizing trees).
        logp = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
        return -(p * logp).sum(axis=-1)

    def node_impurity(self, y: np.ndarray) -> float:
        counts = np.bincount(np.searchsorted(self.classes, y.astype(np.intp)))
        return float(self._impurity_from_counts(counts, np.array(len(y), dtype=np.float64)))

    def sorted_stats(self, y: np.ndarray, order: np.ndarray) -> tuple:
        codes = np.searchsorted(self.classes, y.astype(np.intp))
        k = len(self.classes)
        m, width = order.shape
        # cum[i, w, c] = count of class c among the first i+1 sorted rows of col w
        cum = np.empty((m - 1, width, k), dtype=np.float64)
        for c in range(k):
            col_is_c = (codes == c).astype(np.float64)[order]  # (m, width)
            cum[:, :, c] = np.cumsum(col_is_c, axis=0)[:-1]
        total = np.bincount(codes, minlength=k).astype(np.float64)
        return cum, total

    def split_impurities(self, stats: tuple, m: int) -> tuple[np.ndarray, np.ndarray]:
        cum, total = stats
        sizes_left = np.arange(1, m, dtype=np.float64)[:, None, None]
        left = self._impurity_from_counts(cum, sizes_left)
        right = self._impurity_from_counts(total[None, None, :] - cum, m - sizes_left)
        return left, right


@dataclass
class _Level:
    """One depth level of a group build: a row per node of every member."""

    member: np.ndarray  # (g,) owning member
    feature: np.ndarray  # (g,) split position in the member's ids, or _NO_FEATURE
    threshold: np.ndarray  # (g,) 0.0 at leaves
    value: np.ndarray  # (g,) leaf class value, 0.0 at splits
    child: np.ndarray  # (g,) index of the left child in the next level, -1 at leaves


@dataclass
class _GroupClasses:
    """The training classes of every member of a group build."""

    codes: np.ndarray  # (K, n_train) class index of each training row
    counts: np.ndarray  # (K,) classes per member
    first: np.ndarray  # (K,) offset of each member's classes in ``values``
    values: np.ndarray  # class values, member after member, ascending


#: Rows below this bound keep the group build's float32 count products
#: exact: every count is an integer no larger than the row count, and
#: float32 holds every integer up to 2**24, whatever the BLAS summation
#: order. Larger designs grow per feature (see ``BatchedTreeClassifier.accepts``).
_FLOAT32_EXACT_ROWS = 1 << 24

#: numpy's float64 ``sum`` adds a row shorter than this left to right;
#: longer rows go through eight interleaved partial sums.
_SEQUENTIAL_SUM = 8


class _TermTable:
    """Per-class impurity terms, looked up instead of recomputed.

    ``term[t, c]`` is ``p * log2(p)`` (entropy) or ``p * p`` (gini) with
    ``p = c / t``, for every side size ``t <= n`` and count ``c <= t``,
    computed by the elementwise ops of
    :meth:`_ClassifierBuilder._impurity_from_counts_positive`. Sides come
    class-major: ``index[i, q] = t_q * stride + c_iq`` for side ``q`` of
    size ``t_q`` and class counts ``c_iq``, and its impurity sums its
    terms as that method's last-axis sum does.

    Absent classes have term ``+0.0``, so a member with fewer classes than
    the group's widest pads its counts with zeros. numpy sums a row
    shorter than :data:`_SEQUENTIAL_SUM` left to right, where trailing
    zeros change nothing; below that width the terms are added class by
    class, the same adds in the same order. Wider groups sum contiguous
    rows with numpy, one sum width at a time when the padding would cross
    that length: the first ``_SEQUENTIAL_SUM - 1`` columns, or the
    member's own class count.

    Above :attr:`MAX_ENTRIES` table entries the terms are computed from
    the index on the fly instead, to the same floats.
    """

    #: Largest table, in float64 entries.
    MAX_ENTRIES = 1 << 22

    def __init__(self, criterion: str, n: int, n_classes: np.ndarray) -> None:
        self.criterion = criterion
        self.stride = n + 1
        self.table: "np.ndarray | None" = None
        if self.stride * self.stride <= self.MAX_ENTRIES:
            p = np.arange(self.stride) / np.arange(1, self.stride, dtype=np.float64)[:, None]
            self.table = np.concatenate([np.zeros((1, self.stride)), self._term(p)]).ravel()
        self.columns = int(n_classes.max())
        width = np.where(
            n_classes < _SEQUENTIAL_SUM, min(self.columns, _SEQUENTIAL_SUM - 1), n_classes
        )
        #: Per-member sum width, or None when every member sums all columns.
        self.width: "np.ndarray | None" = None if (width == self.columns).all() else width

    def _term(self, p: np.ndarray) -> np.ndarray:
        if self.criterion == "gini":
            return p * p
        return p * np.log2(p, out=np.zeros_like(p), where=p > 0)  # fraclint: disable=FRL003 -- where=p>0 masks the log and the out= zeros fill the guarded lanes, as in _impurity_from_counts_positive

    def impurity(self, index: np.ndarray, owner: "np.ndarray | None" = None) -> np.ndarray:
        """Impurities of the sides at the class-major ``(C, q)`` ``index``;
        ``owner`` gives each side's member, read only when sum widths differ."""
        if self.table is not None:
            terms = self.table.take(index)
        else:
            sizes, counts = np.divmod(index, self.stride)
            terms = self._term(counts / sizes.astype(np.float64))
        if self.columns < _SEQUENTIAL_SUM:
            sums = terms[0].copy()
            for column in terms[1:]:
                sums += column
        else:
            rows = np.ascontiguousarray(terms.T)
            if self.width is None:
                sums = rows.sum(axis=-1)
            else:
                width = self.width[owner]
                sums = np.empty(rows.shape[0])
                for w in np.unique(width):
                    at = np.flatnonzero(width == w)
                    sums[at] = np.ascontiguousarray(rows[at, :w]).sum(axis=-1)
        if self.criterion == "gini":
            return 1.0 - sums
        return -sums


class _GroupClassifierBuilder(_ClassifierBuilder):
    """Grows the categorical trees of many targets together, level by level.

    Every member's tree is the tree :meth:`_ClassifierBuilder.build` grows
    on the member's own design (``np.array_equal`` on all five arrays):

    - one matrix product per level gives every active node of every
      member its left-side count table: ``L.T @ M.T``, with ``M`` the
      one-hot of (node, class) per (row, member) plus a node-size row, and
      ``L`` the indicator ``x[:, w] <= v`` of every (input, boundary). The
      counts are integers below :data:`_FLOAT32_EXACT_ROWS` in float32,
      so the product is exact whatever the BLAS blocking;
    - impurities sum :class:`_TermTable` lookups, the floats
      ``_grow_categorical`` computes;
    - the valid-boundary mask, the per-node minimum, the gain floor and
      the ``(pos, col)`` tie-break replay ``_grow_categorical``, with
      ``col`` the position in the member's ``ids``, not the global column;
    - :meth:`assemble` renumbers the level-order nodes into the DFS
      pre-order ``_Tree`` stores.

    The (member, row) pairs still in play live in flat lists that shrink
    as rows reach leaves; rows outside the training rows are routed
    alongside, through the ``code <= threshold`` test ``_Tree.predict``
    applies, so every member's prediction at every row falls out of the
    build. ``max_features`` trees draw their candidates from an RNG in DFS
    order and stay on the per-feature builder.
    """

    #: Count-table elements per matrix product; larger levels go in chunks
    #: of nodes so memory stays bounded on wide designs.
    _MAX_TABLE = 1 << 22

    def __init__(self, criterion: str, **kw) -> None:
        super().__init__(criterion, np.empty(0, dtype=np.intp), **kw)

    def grow(
        self, xi: np.ndarray, ys: np.ndarray, pos: np.ndarray, train: np.ndarray
    ) -> "tuple[np.ndarray, list[_Level]]":
        """Grow every member; return its prediction at every row, and the levels.

        ``xi`` holds ``(n, d)`` integer codes, ``ys`` the ``(K, n)``
        targets, ``pos[j, w]`` the position of column ``w`` in member
        ``j``'s inputs (-1 when it is not one), ``train`` the rows the
        trees learn from.
        """
        n_members = len(ys)
        # Per-member classes as np.unique(y.astype(intp)) gives them,
        # through one unique over (member, value) keys.
        yt = ys[:, train].astype(np.intp)
        lo = int(yt.min())
        span = int(yt.max()) - lo + 1
        keys = (yt - lo) + np.arange(n_members)[:, None] * span
        uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
        first = np.searchsorted(uniq, np.arange(n_members) * span)
        n_classes = np.diff(np.append(first, len(uniq)))
        classes = _GroupClasses(
            codes=inverse.reshape(yt.shape) - first[:, None],
            counts=n_classes,
            first=first,
            values=(uniq - np.repeat(np.arange(n_members), n_classes) * span + lo).astype(
                np.float64
            ),
        )
        terms = _TermTable(self.criterion, len(train), n_classes)
        # Boundaries sit after codes 0 .. max-1: after the largest code no
        # row is left on the right.
        bounds = int(xi.max()) if xi.size else 0
        below = (xi[train][:, :, None] <= np.arange(bounds)).reshape(len(train), -1)
        below = below.astype(np.float32)

        # The (member, row) pairs in play: every training pair, with its
        # class and training position, ahead of the other rows' pairs. A
        # pair's node is its index in the current level.
        member = np.arange(n_members)
        rest = np.ones(xi.shape[0], dtype=bool)
        rest[train] = False
        others = np.flatnonzero(rest)
        n_tr = n_members * len(train)
        node = np.concatenate([np.repeat(member, len(train)), np.repeat(member, len(others))])
        row = np.concatenate([np.tile(train, n_members), np.tile(others, n_members)])
        code = classes.codes.ravel()
        tpos = np.tile(np.arange(len(train)), n_members)

        preds = np.empty((n_members, xi.shape[0]))
        levels: list[_Level] = []
        while len(member):
            level, column = self._split_level(
                len(levels), member, node[:n_tr], code, tpos, classes, terms, below, pos
            )
            levels.append(level)
            # Rows at a leaf take its value and leave the lists; rows at a
            # split go to the left or right child by code <= threshold.
            child = level.child[node]
            leaf = child < 0
            preds[level.member[node[leaf]], row[leaf]] = level.value[node[leaf]]
            keep = ~leaf
            code, tpos = code[keep[:n_tr]], tpos[keep[:n_tr]]
            n_tr = len(code)
            at, row = node[keep], row[keep]
            node = child[keep] + (xi[row, column[at]] > level.threshold[at])
            member = np.repeat(level.member[level.child >= 0], 2)
        return preds, levels

    def _split_level(
        self,
        depth: int,
        member: np.ndarray,
        node: np.ndarray,
        code: np.ndarray,
        tpos: np.ndarray,
        classes: "_GroupClasses",
        terms: _TermTable,
        below: np.ndarray,
        pos: np.ndarray,
    ) -> "tuple[_Level, np.ndarray]":
        """Decide every node of one level: its split or its leaf value.

        ``node``, ``code`` and ``tpos`` list the level's training pairs:
        their node, class and training position. Returns the level and,
        per node, the split's column in ``xi``.
        """
        g = len(member)
        c = int(classes.counts.max())
        counts = np.bincount(code * g + node, minlength=c * g).reshape(c, g)
        m = counts.sum(axis=0)
        whole = counts + m * terms.stride  # each node's own term index, class-major
        parent_imp = terms.impurity(whole, member)
        cand = np.flatnonzero(
            (depth < self.max_depth)
            & (m >= self.min_samples_split)
            & (m >= 2 * self.min_samples_leaf)
            & (parent_imp > 1e-12)
        )
        feature = np.full(g, _NO_FEATURE, dtype=np.intp)
        column = np.zeros(g, dtype=np.intp)
        threshold = np.zeros(g)
        rank = np.full(g, -1, dtype=np.intp)
        n_train, width = below.shape
        chunk = max(1, self._MAX_TABLE // max(1, width * (c + 1)))
        for start in range(0, len(cand), chunk):
            sel = cand[start : start + chunk]
            rank[sel] = np.arange(len(sel))
            at = rank[node]
            inside = np.flatnonzero(at >= 0)
            rows = at[inside] * (c + 1)
            onehot = np.zeros((len(sel) * (c + 1), n_train), dtype=np.float32)
            onehot[rows + code[inside], tpos[inside]] = 1.0
            onehot[rows + c, tpos[inside]] = 1.0
            # (width, node, class) layout: a candidate's counts are one row.
            table = below.T @ onehot.T
            s, w, th = self._best_splits(table, m[sel], whole[:, sel], parent_imp[sel], pos[member[sel]], member[sel], terms)
            feature[sel[s]] = pos[member[sel[s]], w]
            column[sel[s]], threshold[sel[s]] = w, th
            rank[sel] = -1
        split = feature != _NO_FEATURE
        value = np.zeros(g)
        leaves = np.flatnonzero(~split)
        best = np.argmax(counts[:, leaves], axis=0)
        value[leaves] = classes.values[classes.first[member[leaves]] + best]
        child = np.full(g, -1, dtype=np.intp)
        child[split] = 2 * np.arange(int(split.sum()))
        return _Level(member, feature, threshold, value, child), column

    def _best_splits(
        self,
        table: np.ndarray,
        m: np.ndarray,
        whole: np.ndarray,
        parent_imp: np.ndarray,
        pos: np.ndarray,
        member: np.ndarray,
        terms: _TermTable,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``_grow_categorical``'s split choice for every node of ``table``.

        ``table[w * b + v, s * (C + 1) + c]`` counts node ``s``'s training
        rows of class ``c`` with code ``<= v`` in column ``w``, for ``b``
        boundaries per column; class ``C`` counts the node's rows of any
        class. ``whole`` is each node's own class-major term index.
        Returns ``(node, column, threshold)`` for the nodes that split; the
        rest are leaves.
        """
        n_nodes, c1 = whole.shape[1], whole.shape[0] + 1
        width = table.shape[0]
        d = pos.shape[1]
        b = width // d if d else 0
        rows = table.reshape(width * n_nodes, c1)
        # cum_n[s, w, v]: node s's rows with code <= v in column w.
        cum_n = rows[:, -1].reshape(d, b, n_nodes).transpose(2, 0, 1).astype(np.intp, order="C")
        # A boundary after v exists where code v is present and rows remain
        # on the right, with the dense search's leaf-size floors; as
        # min_samples_leaf >= 1, the floors imply the rest but presence
        # above the lowest code.
        msl = self.min_samples_leaf
        upper = np.where(pos >= 0, (m - msl)[:, None], -1)
        valid = (cum_n >= msl) & (cum_n <= upper[:, :, None])
        valid[:, :, 1:] &= cum_n[:, :, 1:] > cum_n[:, :, :-1]
        per_node = np.count_nonzero(valid.reshape(n_nodes, -1), axis=1)
        flat = np.flatnonzero(valid)  # node-major: candidates grouped by node
        if not len(flat):
            return flat, flat, np.zeros(0)
        s_c = np.repeat(np.arange(n_nodes), per_node)
        wv = flat - s_c * width
        left_at = rows[wv * n_nodes + s_c].T.astype(np.intp, order="C")  # (C + 1, q)
        sz = left_at[-1]
        left_at = left_at[:-1]
        left_at += sz * terms.stride
        owner = None if terms.width is None else member[s_c]
        left = terms.impurity(left_at, owner)
        right = terms.impurity(np.repeat(whole, per_node, axis=1) - left_at, owner)
        mq = np.repeat(m, per_node)
        # Positive by construction: a node holds >= 1 training row.
        weighted = (sz * left + (mq - sz) * right) / mq

        nodes = np.flatnonzero(per_node)
        starts = np.cumsum(per_node)[nodes] - per_node[nodes]
        best = np.minimum.reduceat(weighted, starts)
        # Ties break to the smallest (pos, col) of the dense search; inside
        # one node (size, position in ids) orders the same way, and no two
        # candidates of a node share both.
        tie = np.flatnonzero(weighted == np.repeat(best, per_node[nodes]))
        s_t, (w_t, _) = s_c[tie], np.unravel_index(wv[tie], (d, b))
        key = sz[tie] * (int(pos.max()) + 1) + pos[s_t, w_t]
        order = np.lexsort((key, s_t))
        pick = tie[order[np.flatnonzero(np.diff(s_t[order], prepend=-1))]]
        keep = np.isfinite(best) & ~(parent_imp[nodes] - best <= 1e-12)
        pick = pick[keep]
        s_p, (w_p, v_p) = s_c[pick], np.unravel_index(wv[pick], (d, b))
        # The threshold's upper code is the next one present in the node.
        sizes = np.concatenate([cum_n[s_p, w_p], m[s_p, None]], axis=1)
        later = np.arange(sizes.shape[1]) > v_p[:, None]
        v_hi = np.argmax(later & (sizes > sz[pick][:, None]), axis=1)
        return s_p, w_p, 0.5 * (v_p.astype(np.float64) + v_hi.astype(np.float64))

    @staticmethod
    def assemble(levels: "list[_Level]", n_members: int) -> "list[_Tree]":
        """Each member's tree, its nodes renumbered into DFS pre-order."""
        # Every loop below runs once per depth level, over all members.
        sizes: list = [None] * len(levels)
        for depth in reversed(range(len(levels))):
            level = levels[depth]
            size = np.ones(len(level.member), dtype=np.intp)
            split = np.flatnonzero(level.child >= 0)
            if len(split):
                left = level.child[split]
                size[split] += sizes[depth + 1][left] + sizes[depth + 1][left + 1]
            sizes[depth] = size
        pre = [np.zeros(n_members, dtype=np.intp)]
        for depth, level in enumerate(levels[:-1]):
            split = np.flatnonzero(level.child >= 0)
            left, start = level.child[split], pre[depth][split] + 1
            nxt = np.empty(len(levels[depth + 1].member), dtype=np.intp)
            nxt[left] = start
            nxt[left + 1] = start + sizes[depth + 1][left]
            pre.append(nxt)

        total = sizes[0]
        offset = np.concatenate(([0], np.cumsum(total)[:-1]))
        n_nodes = int(total.sum())
        feature = np.empty(n_nodes, dtype=np.intp)
        threshold = np.empty(n_nodes)
        left_of = np.full(n_nodes, -1, dtype=np.intp)
        right_of = np.full(n_nodes, -1, dtype=np.intp)
        value = np.empty(n_nodes)
        for depth, level in enumerate(levels):
            pos = offset[level.member] + pre[depth]
            feature[pos] = level.feature
            threshold[pos] = level.threshold
            value[pos] = level.value
            split = np.flatnonzero(level.child >= 0)
            if len(split):
                left, at = level.child[split], pos[split]
                left_of[at], right_of[at] = pre[depth + 1][left], pre[depth + 1][left + 1]
        return [
            _Tree(
                feature=feature[lo:hi].copy(),
                threshold=threshold[lo:hi].copy(),
                left=left_of[lo:hi].copy(),
                right=right_of[lo:hi].copy(),
                value=value[lo:hi].copy(),
            )
            for lo, hi in zip(offset.tolist(), (offset + total).tolist())
        ]


class _RegressorBuilder(_TreeBuilder):
    def leaf_value(self, y: np.ndarray) -> float:
        return float(y.mean())

    def node_impurity(self, y: np.ndarray) -> float:
        return float(y.var())

    def sorted_stats(self, y: np.ndarray, order: np.ndarray) -> tuple:
        ys = y[order]  # (m, width)
        cum1 = np.cumsum(ys, axis=0)[:-1]
        cum2 = np.cumsum(ys * ys, axis=0)[:-1]
        return cum1, cum2, float(y.sum()), float((y * y).sum())

    def split_impurities(self, stats: tuple, m: int) -> tuple[np.ndarray, np.ndarray]:
        cum1, cum2, tot1, tot2 = stats
        sizes_left = np.arange(1, m, dtype=np.float64)[:, None]
        sizes_right = m - sizes_left
        # Var = E[y^2] - E[y]^2, computed from cumulative moments.
        left = cum2 / sizes_left - (cum1 / sizes_left) ** 2
        right = (tot2 - cum2) / sizes_right - ((tot1 - cum1) / sizes_right) ** 2
        return np.maximum(left, 0.0), np.maximum(right, 0.0)


class _BaseTree:
    """Hyper-parameter storage shared by the two public tree classes."""

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        min_samples_split: int = 4,
        max_features: "int | float | str | None" = None,
        seed: int = 0,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1; got {max_depth}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1; got {min_samples_leaf}")
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.min_samples_split = int(min_samples_split)
        self.max_features = max_features
        self.seed = seed
        self.tree_: "_Tree | None" = None

    def _reset(self) -> None:
        self.tree_ = None

    def _builder_kwargs(self) -> dict:
        return dict(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
            rng=as_generator(self.seed),
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "tree_")
        x = check_2d(x, "X", allow_nan=False)
        if x.shape[1] != self._n_features_in:
            raise ValueError(
                f"X has {x.shape[1]} features but model was fit with {self._n_features_in}"
            )
        return self.tree_.predict(x)

    @property
    def model_nbytes(self) -> int:
        return 0 if self.tree_ is None else self.tree_.nbytes

    @property
    def n_nodes(self) -> int:
        return 0 if self.tree_ is None else self.tree_.n_nodes


class DecisionTreeClassifier(_BaseTree, Classifier):
    """CART classification tree (gini or entropy criterion)."""

    def __init__(self, criterion: str = "entropy", **kw) -> None:
        super().__init__(**kw)
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"criterion must be 'gini' or 'entropy'; got {criterion!r}")
        self.criterion = criterion

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x, y = self._validate_xy(x, y)
        self._n_features_in = x.shape[1]
        classes = np.unique(y.astype(np.intp))
        if x.shape[1] == 0:
            builder = _ClassifierBuilder(self.criterion, classes, **self._builder_kwargs())
            self.tree_ = _Tree(
                feature=np.array([_NO_FEATURE], dtype=np.intp),
                threshold=np.zeros(1),
                left=np.array([-1], dtype=np.intp),
                right=np.array([-1], dtype=np.intp),
                value=np.array([builder.leaf_value(y)]),
            )
            return self
        builder = _ClassifierBuilder(self.criterion, classes, **self._builder_kwargs())
        self.tree_ = builder.build(x, y)
        return self


class BatchedTreeClassifier:
    """Group counterpart of :class:`DecisionTreeClassifier`.

    Takes the same constructor parameters. :meth:`fit_group` grows the
    trees of many targets that share their rows at once (see
    :class:`_GroupClassifierBuilder`); each is ``np.array_equal`` to what
    ``DecisionTreeClassifier(**params).fit`` grows on the member's own
    design. Three cases stay per feature, and :meth:`accepts` says which:
    ``max_features`` trees, whose candidate draws follow the per-tree RNG
    in DFS order, designs that are not small non-negative integer codes,
    which take the dense sorted search, and designs of
    :data:`_FLOAT32_EXACT_ROWS` rows or more, whose float32 count
    products could round.
    """

    def __init__(self, criterion: str = "entropy", **kw) -> None:
        # The per-feature twin validates the parameters, with its errors.
        template = DecisionTreeClassifier(criterion=criterion, **kw)
        if kw.get("max_features") is not None:
            raise ValueError("max_features trees draw per-tree candidates; fit them per feature")
        self._builder = _GroupClassifierBuilder(
            criterion,
            max_depth=template.max_depth,
            min_samples_leaf=template.min_samples_leaf,
            min_samples_split=template.min_samples_split,
            max_features=None,
            rng=None,
        )

    @staticmethod
    def accepts(params: "Mapping[str, object]", x: np.ndarray) -> bool:
        """Whether trees with constructor ``params`` grow in groups on design ``x``."""
        return (
            params.get("max_features") is None
            and len(x) < _FLOAT32_EXACT_ROWS
            and _small_integer_codes(np.asarray(x, dtype=np.float64)) is not None
        )

    def fit_group(
        self,
        x: np.ndarray,
        ys: np.ndarray,
        input_ids: "list[np.ndarray]",
        *,
        train: "np.ndarray | None" = None,
        models: "list[DecisionTreeClassifier] | None" = None,
    ) -> np.ndarray:
        """Grow member ``j``'s tree on ``x[train][:, input_ids[j]]`` and
        ``ys[j, train]``; return every member's prediction at every row of
        ``x``, shape ``(len(ys), len(x))``.

        ``train`` defaults to every row. ``models``, unfitted classifiers
        with this learner's parameters, receive the fitted trees; without
        them the trees are not assembled (holdout predictions are all a
        cross-validation fold needs). Only the columns the members use
        must be integer coded; ``ys`` must be finite.
        """
        x = np.asarray(x, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        ids_list = [np.asarray(ids, dtype=np.intp) for ids in input_ids]
        train = np.arange(x.shape[0]) if train is None else np.asarray(train, dtype=np.intp)
        if ys.shape != (len(ids_list), x.shape[0]):
            raise ValueError(f"ys must be ({len(ids_list)}, {x.shape[0]}); got {ys.shape}")
        if not len(train):
            raise ValueError("cannot fit on an empty training set")
        if len(train) >= _FLOAT32_EXACT_ROWS:
            raise ValueError(f"fit_group takes fewer than {_FLOAT32_EXACT_ROWS} training rows")
        if not np.isfinite(ys).all():
            raise ValueError("target y contains non-finite values")
        cols = np.flatnonzero(np.bincount(np.concatenate(ids_list), minlength=x.shape[1]))
        xi = _small_integer_codes(x[:, cols]) if len(cols) else np.zeros((len(x), 0), np.intp)
        if xi is None:
            raise ValueError("fit_group needs small non-negative integer codes in every used column")
        pos = np.full((len(ids_list), len(cols)), -1, dtype=np.intp)
        for j, member_ids in enumerate(ids_list):
            # Reversed, so a repeated input keeps its first position.
            pos[j, np.searchsorted(cols, member_ids)[::-1]] = np.arange(len(member_ids))[::-1]
        preds, levels = self._builder.grow(xi, ys, pos, train)
        if models is not None:
            for model, tree, member_ids in zip(
                models, self._builder.assemble(levels, len(ids_list)), ids_list
            ):
                model._n_features_in = len(member_ids)
                model.tree_ = tree
        return preds


class DecisionTreeRegressor(_BaseTree, Regressor):
    """CART regression tree (variance criterion)."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        x, y = self._validate_xy(x, y)
        self._n_features_in = x.shape[1]
        if x.shape[1] == 0:
            self.tree_ = _Tree(
                feature=np.array([_NO_FEATURE], dtype=np.intp),
                threshold=np.zeros(1),
                left=np.array([-1], dtype=np.intp),
                right=np.array([-1], dtype=np.intp),
                value=np.array([float(y.mean())]),
            )
            return self
        builder = _RegressorBuilder(**self._builder_kwargs())
        self.tree_ = builder.build(x, y)
        return self
