"""JL pre-projection FRaC (paper §II-D, Fig. 2).

Pipeline: impute/standardize -> 1-hot encode categoricals -> concatenate
-> apply a Johnson-Lindenstrauss random projection to ``k`` dimensions ->
run *ordinary* FRaC in the projected, all-real space. Every projected
feature is a linear combination of original features, so (unlike original
features) it is very unlikely to be unlearnable — the noise-mitigation
argument of §II-D. The price is interpretability, partially recovered by
:meth:`JLFRaC.feature_influence`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FRaCConfig
from repro.core.frac import FRaC
from repro.core.imputation import Preprocessor
from repro.core.types import AnomalyDetector, ContributionMatrix
from repro.data.schema import FeatureSchema
from repro.parallel.profiling import cpu_seconds
from repro.parallel.resources import ResourceReport
from repro.projection.jl import JLTransform
from repro.telemetry.spans import span
from repro.projection.onehot import OneHotEncoder
from repro.utils.exceptions import NotFittedError
from repro.utils.rng import spawn_seeds
from repro.utils.validation import check_2d


class JLFRaC(AnomalyDetector):
    """FRaC in a JL-projected space.

    Parameters
    ----------
    n_components:
        Projected dimension ``k`` (the paper uses 1024, and 2048/4096 in
        the schizophrenia sweep of Fig. 3).
    kind:
        JL matrix family (``"gaussian"``, ``"uniform"``, ``"sparse"``).
    config:
        Inner FRaC configuration. Only the regressor matters: the
        projected space is all-real.
    """

    def __init__(
        self,
        n_components: int = 1024,
        kind: str = "gaussian",
        config: "FRaCConfig | None" = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        self.n_components = int(n_components)
        self.kind = kind
        self.config = config or FRaCConfig()
        self._rng = rng
        self._pre: "Preprocessor | None" = None
        self._encoder: "OneHotEncoder | None" = None
        self.projection_: "JLTransform | None" = None
        self._inner: "FRaC | None" = None
        self._projection_cpu: float = 0.0
        self._projection_work: int = 0
        self._projected_schema: "FeatureSchema | None" = None

    def _project(self, x: np.ndarray) -> np.ndarray:
        start = cpu_seconds()
        with span("jl.project"):
            encoded = self._encoder.transform(self._pre.transform(x))
            out = self.projection_.transform(encoded)
        self._projection_cpu += cpu_seconds() - start
        # One matrix multiply: n x d_onehot x k multiply-adds.
        work = x.shape[0] * self._encoder.width * self.n_components
        self._projection_work += work
        return out

    def fit(self, x_train: np.ndarray, schema: FeatureSchema) -> "JLFRaC":
        x_train = check_2d(x_train, "x_train")
        seed_jl, seed_inner = spawn_seeds(self._rng, 2)
        self._projection_cpu = 0.0
        self._projection_work = 0
        self._pre = Preprocessor(schema, standardize=self.config.standardize).fit(x_train)
        self._encoder = OneHotEncoder(schema)
        self.projection_ = JLTransform(self.n_components, kind=self.kind, rng=seed_jl)
        self.projection_.fit(self._encoder.width)
        z_train = self._project(x_train)
        self._projected_schema = FeatureSchema.all_real(
            self.n_components, names=[f"jl{i}" for i in range(self.n_components)]
        )
        # The projected space is dense and already standardized in scale;
        # inner FRaC re-standardizes harmlessly.
        self._inner = FRaC(self.config, resident_features=self.n_components, rng=seed_inner)
        self._inner.fit(z_train, self._projected_schema)
        return self

    def contributions(self, x_test: np.ndarray) -> ContributionMatrix:
        """Contributions over *projected* components (feature ids are
        component indices, not original features)."""
        self._check_fitted()
        return self._inner.contributions(self._project(check_2d(x_test, "x_test")))

    def score(self, x_test: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return self.contributions(x_test).ns_scores()

    @property
    def resources(self) -> ResourceReport:
        """Inner FRaC cost plus the projection pass and the JL matrix."""
        self._check_fitted()
        inner = self._inner.resources
        return ResourceReport(
            cpu_seconds=inner.cpu_seconds + self._projection_cpu,
            memory_bytes=inner.memory_bytes + int(self.projection_.matrix_.nbytes),
            n_tasks=inner.n_tasks,
            work_units=inner.work_units + self._projection_work,
        )

    def structure(self) -> dict[int, np.ndarray]:
        self._check_fitted()
        return self._inner.structure()

    def feature_influence(self) -> np.ndarray:
        """Aggregate |projection weight| per *original* feature.

        The paper's §II-D interpretability workaround: input features
        present in many projected components (weighted by magnitude) can be
        surfaced even though individual projected models are opaque.
        """
        self._check_fitted()
        per_encoded = np.abs(self.projection_.matrix_).sum(axis=0)
        return self._encoder.aggregate_to_features(per_encoded)

    def _check_fitted(self) -> None:
        if self._inner is None:
            raise NotFittedError("JLFRaC is not fitted; call fit() first")
