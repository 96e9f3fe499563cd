"""Feature schemas for mixed real/categorical data.

FRaC (Noto et al. 2012) is defined over data that is "real, categorical, or
mixed". Gene-expression data sets are all-real; SNP data sets are all-ternary
categorical (homozygous major / heterozygous / homozygous minor). A
:class:`FeatureSchema` records, per column of the data matrix, whether the
feature is real-valued or categorical and, if categorical, its arity.

Categorical values are stored in the data matrix as integer *codes*
``0..arity-1`` (held in a float64 matrix; ``NaN`` encodes a missing value for
either kind).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.utils.exceptions import SchemaError


class FeatureKind(Enum):
    """The two feature kinds FRaC distinguishes."""

    REAL = "real"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class FeatureSpec:
    """Description of a single feature.

    Parameters
    ----------
    kind:
        Whether the feature is real-valued or categorical.
    arity:
        Number of categories for a categorical feature; ``0`` for real
        features. Categorical features must have arity >= 2.
    name:
        Optional human-readable name (gene symbol, rsID...).
    """

    kind: FeatureKind
    arity: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind is FeatureKind.REAL and self.arity != 0:
            raise SchemaError(f"real feature {self.name!r} must have arity 0, got {self.arity}")
        if self.kind is FeatureKind.CATEGORICAL and self.arity < 2:
            raise SchemaError(
                f"categorical feature {self.name!r} must have arity >= 2, got {self.arity}"
            )

    @property
    def is_real(self) -> bool:
        return self.kind is FeatureKind.REAL

    @property
    def is_categorical(self) -> bool:
        return self.kind is FeatureKind.CATEGORICAL

    @property
    def onehot_width(self) -> int:
        """Width this feature occupies after 1-hot encoding (Fig. 2)."""
        return self.arity if self.is_categorical else 1


class FeatureSchema:
    """An ordered collection of :class:`FeatureSpec`, one per data column."""

    def __init__(self, specs: Iterable[FeatureSpec]):
        self._specs: tuple[FeatureSpec, ...] = tuple(specs)
        self._real_idx = np.array(
            [i for i, s in enumerate(self._specs) if s.is_real], dtype=np.intp
        )
        self._cat_idx = np.array(
            [i for i, s in enumerate(self._specs) if s.is_categorical], dtype=np.intp
        )

    # -- constructors -----------------------------------------------------
    @classmethod
    def all_real(cls, n_features: int, names: Sequence[str] | None = None) -> "FeatureSchema":
        """Schema for an all-real data set (e.g. gene expression)."""
        names = names if names is not None else [f"f{i}" for i in range(n_features)]
        if len(names) != n_features:
            raise SchemaError(f"got {len(names)} names for {n_features} features")
        return cls(FeatureSpec(FeatureKind.REAL, name=n) for n in names)

    @classmethod
    def all_categorical(
        cls, n_features: int, arity: int = 3, names: Sequence[str] | None = None
    ) -> "FeatureSchema":
        """Schema for an all-categorical data set (e.g. ternary SNPs)."""
        names = names if names is not None else [f"snp{i}" for i in range(n_features)]
        if len(names) != n_features:
            raise SchemaError(f"got {len(names)} names for {n_features} features")
        return cls(FeatureSpec(FeatureKind.CATEGORICAL, arity=arity, name=n) for n in names)

    # -- container protocol -----------------------------------------------
    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[FeatureSpec]:
        return iter(self._specs)

    def __getitem__(self, i: int) -> FeatureSpec:
        return self._specs[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureSchema):
            return NotImplemented
        return self._specs == other._specs

    def __hash__(self) -> int:
        return hash(self._specs)

    def __repr__(self) -> str:
        n_real, n_cat = len(self._real_idx), len(self._cat_idx)
        return f"FeatureSchema({len(self)} features: {n_real} real, {n_cat} categorical)"

    # -- accessors ----------------------------------------------------------
    @property
    def n_features(self) -> int:
        return len(self._specs)

    @property
    def real_indices(self) -> np.ndarray:
        """Column indices of real features (sorted)."""
        return self._real_idx

    @property
    def categorical_indices(self) -> np.ndarray:
        """Column indices of categorical features (sorted)."""
        return self._cat_idx

    @property
    def is_all_real(self) -> bool:
        return len(self._cat_idx) == 0

    @property
    def is_all_categorical(self) -> bool:
        return len(self._real_idx) == 0

    @property
    def onehot_width(self) -> int:
        """Total width after 1-hot encoding all categorical features."""
        return sum(s.onehot_width for s in self._specs)

    def names(self) -> list[str]:
        return [s.name for s in self._specs]

    def subset(self, indices: Sequence[int] | np.ndarray) -> "FeatureSchema":
        """Schema restricted to (and reordered by) ``indices``."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise SchemaError(f"feature indices must be 1-D, got shape {idx.shape}")
        if len(idx) and (idx.min() < 0 or idx.max() >= len(self)):
            raise SchemaError(
                f"feature indices out of range [0, {len(self)}): "
                f"[{idx.min()}, {idx.max()}]"
            )
        return FeatureSchema(self._specs[i] for i in idx)

    def validate_matrix(self, x: np.ndarray) -> None:
        """Check a data matrix against this schema.

        Verifies the column count and that every non-missing categorical
        entry is an integral code within ``[0, arity)``.
        """
        if x.ndim != 2:
            raise SchemaError(f"data must be 2-D, got shape {x.shape}")
        if x.shape[1] != len(self):
            raise SchemaError(
                f"data has {x.shape[1]} columns but schema describes {len(self)} features"
            )
        for j in self._cat_idx:
            col = x[:, j]
            observed = col[~np.isnan(col)]
            if observed.size == 0:
                continue
            if not np.all(observed == np.round(observed)):
                raise SchemaError(f"categorical column {j} contains non-integer codes")
            arity = self._specs[j].arity
            if observed.min() < 0 or observed.max() >= arity:
                raise SchemaError(
                    f"categorical column {j} has codes outside [0, {arity})"
                )
