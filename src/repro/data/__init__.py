"""Data substrate: schemas, data sets, synthetic generators, replicates."""

from repro.data.compendium import (
    COMPENDIUM,
    EXPRESSION_DATASETS,
    SNP_DATASETS,
    CompendiumEntry,
    load_dataset,
    load_replicates,
    schizophrenia_split,
    table1_rows,
)
from repro.data.dataset import Dataset, Replicate
from repro.data.io import read_delimited, write_delimited
from repro.data.replicates import fixed_split_replicate, make_replicate, make_replicates
from repro.data.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.data.synthetic import (
    ExpressionConfig,
    SNPConfig,
    make_expression_dataset,
    make_snp_dataset,
)

__all__ = [
    "FeatureKind",
    "FeatureSpec",
    "FeatureSchema",
    "Dataset",
    "Replicate",
    "read_delimited",
    "write_delimited",
    "make_replicate",
    "make_replicates",
    "fixed_split_replicate",
    "ExpressionConfig",
    "SNPConfig",
    "make_expression_dataset",
    "make_snp_dataset",
    "COMPENDIUM",
    "CompendiumEntry",
    "EXPRESSION_DATASETS",
    "SNP_DATASETS",
    "load_dataset",
    "load_replicates",
    "schizophrenia_split",
    "table1_rows",
]
