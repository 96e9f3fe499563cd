"""Synthetic stand-ins for the paper's expression and SNP data sets.

The public GEO data sets the paper evaluates on are unavailable offline, so
we generate synthetic data with the *same structure FRaC exploits* (see
DESIGN.md §5):

Expression (real-valued)
    A latent-factor ("gene module") model. Features belonging to a module
    are linear functions of a shared per-sample latent factor, so each
    feature is predictable from its module-mates — exactly the inter-feature
    relationships a FRaC predictor learns. Anomalous samples *decouple* a
    subset of module features from their factor, replacing the factor with
    independent noise of equal variance: marginal distributions are
    untouched (the anomaly is invisible feature-by-feature) but predictions
    break, which is the regime FRaC is designed for. Remaining features are
    irrelevant N(0, 1) noise, modelling the paper's "majority of features
    are likely to be irrelevant".

SNPs (ternary categorical)
    A haplotype-block model. SNPs are grouped into LD blocks; each
    individual draws two haplotypes per block from the block's haplotype
    pool, and the genotype code of a SNP is the minor-allele count implied
    by the pair. SNPs within a block are therefore mutually predictable.
    Anomalies re-draw a subset of "relevant" blocks from an independent
    pool, breaking LD. The "autism" configuration plants no signal at all
    (the paper's full-FRaC AUC there is 0.50); the "schizophrenia"
    configuration instead plants an *ancestry confound*: the anomalous
    cohort comes from a population with shifted allele frequencies on
    high-entropy ancestry-informative markers, which is why entropy
    filtering achieves AUC ~ 1.0 on that data set (paper §IV).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import FeatureSchema
from repro.utils.exceptions import DataError
from repro.utils.rng import as_generator


# --------------------------------------------------------------------------
# Expression data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpressionConfig:
    """Knobs for :func:`make_expression_dataset`.

    Attributes
    ----------
    n_features, n_normal, n_anomaly:
        Data-set geometry (Table I columns).
    n_modules:
        Number of latent gene modules.
    module_size:
        Features per module; ``n_modules * module_size`` features are
        "relevant", the remainder are irrelevant noise.
    loading:
        Factor-loading magnitude for module features; higher = stronger
        inter-feature correlation = easier anomaly detection.
    noise_sd:
        Per-feature residual noise standard deviation.
    disrupt_fraction:
        Fraction of each anomalous sample's module features that are
        decoupled from their factor. ``0.0`` plants no signal (AUC ~ 0.5).
    disrupt_mode:
        ``"scattered"`` (default) decouples a uniform random subset of all
        module features — the diffuse-signal regime the paper's filtering
        argument assumes. ``"module"`` instead picks whole modules per
        anomalous sample (as many as needed to reach ``disrupt_fraction``
        of the relevant features) and decouples every feature in them —
        the per-pathway dysregulation regime CSAX characterizes; the
        disrupted module ids are recorded in
        ``metadata["disrupted_modules"]``.
    entropy_bias:
        Variance multiplier applied to *relevant* features. ``> 1`` makes
        relevant features high-(differential-)entropy, so entropy filtering
        keeps them (the hematopoiesis regime); ``< 1`` makes entropy
        filtering preferentially discard them (the ethnic regime); ``1`` is
        neutral.
    missing_rate:
        Fraction of matrix entries replaced by NaN (missing values).
    """

    n_features: int
    n_normal: int
    n_anomaly: int
    n_modules: int = 8
    module_size: int = 10
    loading: float = 1.0
    noise_sd: float = 0.5
    disrupt_fraction: float = 0.5
    disrupt_mode: str = "scattered"
    entropy_bias: float = 1.0
    missing_rate: float = 0.0
    name: str = "expression"

    def __post_init__(self) -> None:
        if self.n_modules * self.module_size > self.n_features:
            raise DataError(
                f"{self.n_modules} modules x {self.module_size} features "
                f"exceed n_features={self.n_features}"
            )
        if not 0.0 <= self.disrupt_fraction <= 1.0:
            raise DataError(f"disrupt_fraction must be in [0, 1]; got {self.disrupt_fraction}")
        if self.disrupt_mode not in ("scattered", "module"):
            raise DataError(
                f"disrupt_mode must be 'scattered' or 'module'; got {self.disrupt_mode!r}"
            )
        if not 0.0 <= self.missing_rate < 1.0:
            raise DataError(f"missing_rate must be in [0, 1); got {self.missing_rate}")
        if self.entropy_bias <= 0:
            raise DataError(f"entropy_bias must be positive; got {self.entropy_bias}")


def make_expression_dataset(
    config: ExpressionConfig, rng: "int | np.random.Generator | None" = None
) -> Dataset:
    """Generate a synthetic gene-expression anomaly-detection data set.

    Returns a :class:`Dataset` whose ``metadata`` records the planted
    structure: ``module_of`` (feature -> module id, -1 for irrelevant
    features) and ``relevant_features`` (sorted indices), which the
    enrichment analysis (paper §IV) tests against; and, per anomaly in
    row order, ``disrupted_features`` (the sorted feature ids its
    disruption re-drew; empty when the fraction rounds to none) and, in
    ``"module"`` mode, ``disrupted_modules``. Recording them draws no
    random numbers.
    """
    cfg = config
    gen = as_generator(rng)
    n = cfg.n_normal + cfg.n_anomaly
    n_relevant = cfg.n_modules * cfg.module_size

    # Module assignment: the first n_relevant features, in module-sized runs,
    # then shuffled so relevance is not positional.
    module_of = np.full(cfg.n_features, -1, dtype=np.intp)
    module_of[:n_relevant] = np.repeat(np.arange(cfg.n_modules), cfg.module_size)
    perm = gen.permutation(cfg.n_features)
    module_of = module_of[perm]

    loadings = cfg.loading * gen.choice([-1.0, 1.0], size=cfg.n_features) * gen.uniform(
        0.75, 1.25, size=cfg.n_features
    )

    factors = gen.standard_normal((n, cfg.n_modules))
    x = gen.normal(0.0, cfg.noise_sd, size=(n, cfg.n_features))
    relevant = module_of >= 0
    # Irrelevant features get marginal variance matching the average
    # relevant feature, so an entropy (variance) filter is *neutral* with
    # respect to relevance unless entropy_bias tilts it.
    relevant_var = float(np.mean(loadings[relevant] ** 2)) + cfg.noise_sd**2
    irrelevant_sd = np.sqrt(max(relevant_var - cfg.noise_sd**2, 1e-12))
    x[:, ~relevant] += irrelevant_sd * gen.standard_normal((n, int((~relevant).sum())))
    x[:, relevant] += factors[:, module_of[relevant]] * loadings[relevant]

    is_anomaly = np.zeros(n, dtype=bool)
    is_anomaly[cfg.n_normal:] = True

    # Decouple each anomaly's chosen relevant features: swap the shared
    # factor for an independent draw of identical variance.
    rel_idx = np.flatnonzero(relevant)
    disrupted_modules: list[np.ndarray] = []
    disrupted_features: list[np.ndarray] = []
    for s in range(cfg.n_normal, n):
        if cfg.disrupt_mode == "module":
            n_mods = max(1, int(round(cfg.disrupt_fraction * cfg.n_modules)))
            mods = gen.choice(cfg.n_modules, size=n_mods, replace=False)
            chosen = np.flatnonzero(np.isin(module_of, mods))
            disrupted_modules.append(np.sort(mods))
        else:
            k = int(round(cfg.disrupt_fraction * len(rel_idx)))
            if k == 0:
                disrupted_features.append(np.empty(0, dtype=np.intp))
                continue
            chosen = gen.choice(rel_idx, size=k, replace=False)
        disrupted_features.append(np.sort(chosen))
        fresh = gen.standard_normal(len(chosen))
        x[s, chosen] = fresh * loadings[chosen] + gen.normal(
            0.0, cfg.noise_sd, size=len(chosen)
        )

    if cfg.entropy_bias != 1.0:
        x[:, relevant] *= cfg.entropy_bias

    if cfg.missing_rate > 0.0:
        mask = gen.random((n, cfg.n_features)) < cfg.missing_rate
        x[mask] = np.nan

    schema = FeatureSchema.all_real(cfg.n_features)
    return Dataset(
        x,
        schema,
        is_anomaly,
        name=cfg.name,
        metadata={
            "module_of": module_of,
            "relevant_features": np.sort(rel_idx),
            "disrupted_modules": disrupted_modules,
            "disrupted_features": disrupted_features,
            "config": cfg,
        },
    )


# --------------------------------------------------------------------------
# SNP data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SNPConfig:
    """Knobs for :func:`make_snp_dataset`.

    Attributes
    ----------
    n_features, n_normal, n_anomaly:
        Geometry; features are ternary genotypes coded 0/1/2.
    block_size:
        SNPs per LD (haplotype) block.
    n_haplotypes:
        Haplotypes in each block's pool; smaller = stronger LD.
    relevant_blocks:
        Number of blocks whose LD structure anomalies break. ``0`` plants no
        signal (the autism regime).
    ancestry_blocks:
        Number of blocks carrying a *population confound*: anomalous samples
        draw these from a shifted haplotype pool (the schizophrenia regime).
        These blocks are built from near-0.5 allele frequencies so their
        SNPs are top-entropy in the training population.
    background_maf_beta:
        ``(a, b)`` parameters of the Beta distribution from which background
        minor-allele frequencies are drawn; the default is skewed low so
        background SNPs have below-maximal entropy.
    background_drift:
        Weak genome-wide population drift: anomalous samples draw every
        *background* block from the same haplotype table but with
        frequencies mixed toward an independent Dirichlet draw by this
        weight. Individually each SNP barely shifts (per-feature surprisal
        hardly moves, so filters are little affected), but the aggregate
        mean displacement is large — the diffuse component that a JL
        projection integrates, producing Fig. 3's dimension-dependent AUC.
        ``0`` disables it.
    missing_rate:
        Fraction of entries replaced by NaN.
    """

    n_features: int
    n_normal: int
    n_anomaly: int
    block_size: int = 8
    n_haplotypes: int = 4
    relevant_blocks: int = 0
    ancestry_blocks: int = 0
    background_maf_beta: tuple[float, float] = (0.8, 2.2)
    background_drift: float = 0.0
    missing_rate: float = 0.0
    name: str = "snp"

    def __post_init__(self) -> None:
        n_blocks = self.n_features // self.block_size
        if self.relevant_blocks + self.ancestry_blocks > n_blocks:
            raise DataError(
                f"relevant_blocks + ancestry_blocks = "
                f"{self.relevant_blocks + self.ancestry_blocks} exceeds the "
                f"{n_blocks} available blocks"
            )
        if self.block_size < 2:
            raise DataError(f"block_size must be >= 2; got {self.block_size}")
        if self.n_haplotypes < 2:
            raise DataError(f"n_haplotypes must be >= 2; got {self.n_haplotypes}")
        if not 0.0 <= self.background_drift < 1.0:
            raise DataError(
                f"background_drift must lie in [0, 1); got {self.background_drift}"
            )


def _block_haplotypes(
    gen: np.random.Generator, block_size: int, n_haplotypes: int, maf: np.ndarray
) -> np.ndarray:
    """Sample a ``(n_haplotypes, block_size)`` 0/1 allele table.

    Each SNP's per-haplotype minor-allele indicator is Bernoulli(maf), so
    the marginal allele frequency tracks ``maf`` while SNPs within the block
    are correlated through the haplotype identity.
    """
    return (gen.random((n_haplotypes, block_size)) < maf[None, :]).astype(np.float64)


def _balanced_haplotypes(
    gen: np.random.Generator, block_size: int, n_haplotypes: int
) -> np.ndarray:
    """Allele table in which every SNP is minor on exactly half the pool.

    Used for ancestry-informative blocks: with a near-uniform haplotype
    frequency this pins the population allele frequency at ~0.5, the
    maximum-entropy point for a ternary genotype, so these markers reliably
    rank at the top of an entropy filter.
    """
    half = n_haplotypes // 2
    table = np.zeros((n_haplotypes, block_size))
    for j in range(block_size):
        table[gen.choice(n_haplotypes, size=half, replace=False), j] = 1.0
    return table


def _draw_genotypes(
    gen: np.random.Generator,
    n_samples: int,
    table: np.ndarray,
    hap_freq: np.ndarray,
) -> np.ndarray:
    """Genotype codes (0/1/2) for one block: two haplotype draws per sample."""
    n_h = table.shape[0]
    h1 = gen.choice(n_h, size=n_samples, p=hap_freq)
    h2 = gen.choice(n_h, size=n_samples, p=hap_freq)
    return table[h1] + table[h2]


def make_snp_dataset(
    config: SNPConfig, rng: "int | np.random.Generator | None" = None
) -> Dataset:
    """Generate a synthetic SNP anomaly-detection data set.

    ``metadata`` records ``block_of`` (feature -> block id), plus the index
    arrays ``relevant_features`` (disease-linked blocks whose LD anomalies
    break) and ``ancestry_features`` (population-confound blocks).
    """
    cfg = config
    gen = as_generator(rng)
    n = cfg.n_normal + cfg.n_anomaly
    n_blocks = cfg.n_features // cfg.block_size
    tail = cfg.n_features - n_blocks * cfg.block_size

    roles = np.zeros(n_blocks, dtype=np.intp)  # 0 background, 1 relevant, 2 ancestry
    special = gen.choice(n_blocks, size=cfg.relevant_blocks + cfg.ancestry_blocks, replace=False)
    roles[special[: cfg.relevant_blocks]] = 1
    roles[special[cfg.relevant_blocks:]] = 2

    x = np.empty((n, cfg.n_features), dtype=np.float64)
    block_of = np.full(cfg.n_features, -1, dtype=np.intp)
    is_anomaly = np.zeros(n, dtype=bool)
    is_anomaly[cfg.n_normal:] = True
    anom = np.flatnonzero(is_anomaly)

    a, b = cfg.background_maf_beta
    # Dirichlet concentration vectors are loop-invariant: build them
    # once, not once per block.
    alpha_ancestry = np.full(cfg.n_haplotypes, 40.0)
    alpha_background = np.full(cfg.n_haplotypes, 2.0)
    for blk in range(n_blocks):
        cols = slice(blk * cfg.block_size, (blk + 1) * cfg.block_size)
        block_of[cols] = blk
        if roles[blk] == 2:
            # Ancestry-informative markers: allele frequency pinned at ~0.5
            # in the training population => top-entropy; strongly shifted in
            # the anomalous cohort's pool.
            table = _balanced_haplotypes(gen, cfg.block_size, cfg.n_haplotypes)
            hap_freq = gen.dirichlet(alpha_ancestry)
            maf_shift = gen.uniform(0.02, 0.10, size=cfg.block_size)
        else:
            maf = gen.beta(a, b, size=cfg.block_size)
            maf_shift = maf
            table = _block_haplotypes(gen, cfg.block_size, cfg.n_haplotypes, maf)
            hap_freq = gen.dirichlet(alpha_background)
        x[:, cols] = _draw_genotypes(gen, n, table, hap_freq)

        if roles[blk] == 1 and len(anom):
            # Disease-linked block: anomalies break LD by drawing each SNP's
            # genotype independently at the marginal allele frequency.
            freq = table.T @ hap_freq  # per-SNP allele frequency
            alleles = gen.random((len(anom), cfg.block_size, 2)) < freq[None, :, None]
            x[np.ix_(anom, np.arange(cols.start, cols.stop))] = alleles.sum(axis=2)
        elif roles[blk] == 2 and len(anom):
            # Ancestry block: anomalies come from a shifted population.
            table2 = _block_haplotypes(gen, cfg.block_size, cfg.n_haplotypes, maf_shift)
            hap_freq2 = gen.dirichlet(alpha_background)
            x[np.ix_(anom, np.arange(cols.start, cols.stop))] = _draw_genotypes(
                gen, len(anom), table2, hap_freq2
            )
        elif cfg.background_drift > 0.0 and len(anom):
            # Weak genome-wide drift: same haplotypes, gently mixed
            # frequencies (see the background_drift docstring).
            hap_freq2 = (
                (1.0 - cfg.background_drift) * hap_freq
                + cfg.background_drift * gen.dirichlet(alpha_background)
            )
            x[np.ix_(anom, np.arange(cols.start, cols.stop))] = _draw_genotypes(
                gen, len(anom), table, hap_freq2
            )

    if tail:
        # Leftover columns that do not fill a whole block: independent SNPs.
        maf = gen.beta(a, b, size=tail)
        alleles = gen.random((n, tail, 2)) < maf[None, :, None]
        x[:, cfg.n_features - tail:] = alleles.sum(axis=2)

    if cfg.missing_rate > 0.0:
        mask = gen.random((n, cfg.n_features)) < cfg.missing_rate
        x[mask] = np.nan

    schema = FeatureSchema.all_categorical(cfg.n_features, arity=3)
    relevant_features = np.flatnonzero(np.isin(block_of, np.flatnonzero(roles == 1)))
    ancestry_features = np.flatnonzero(np.isin(block_of, np.flatnonzero(roles == 2)))
    return Dataset(
        x,
        schema,
        is_anomaly,
        name=cfg.name,
        metadata={
            "block_of": block_of,
            "relevant_features": relevant_features,
            "ancestry_features": ancestry_features,
            "config": cfg,
        },
    )
