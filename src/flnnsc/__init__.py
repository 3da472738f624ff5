"""Subspace clustering via functional-link network representations.

The toolkit learns a self-representation matrix in a nonlinearly expanded
feature space (optionally blended with a linear representation), turns it
into an affinity graph, and clusters spectrally. See the README for the
pipeline and the CLI.
"""

from .linalg import (
    NumericalError,
    sym_eigen,
)
from .graph import knn_similarity, laplacian
from .flnn import (
    expand_batch,
    init_network,
    sgd_block,
    sgd_step,
)
from .models import (
    CcscConfig,
    FlnnscConfig,
    Representation,
    SolveTrace,
    fit_ccsc,
    fit_flnnsc,
    fit_linear_smr,
    fit_lsr,
)
from .spectral import affinity_from_z, spectral_cluster
from .metrics import ari, clustering_accuracy, contingency_table, hungarian, nmi, pairwise_f1
from .data import (
    CsvFormatError,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    pca_reduce,
    save_csv,
    scale_to_unit,
)

__version__ = "0.1.0"

__all__ = [
    "NumericalError",
    "sym_eigen",
    "knn_similarity",
    "laplacian",
    "expand_batch",
    "init_network",
    "sgd_block",
    "sgd_step",
    "FlnnscConfig",
    "CcscConfig",
    "SolveTrace",
    "Representation",
    "fit_flnnsc",
    "fit_ccsc",
    "fit_lsr",
    "fit_linear_smr",
    "affinity_from_z",
    "spectral_cluster",
    "contingency_table",
    "hungarian",
    "clustering_accuracy",
    "nmi",
    "ari",
    "pairwise_f1",
    "CsvFormatError",
    "Dataset",
    "SyntheticSpec",
    "load_csv",
    "save_csv",
    "scale_to_unit",
    "pca_reduce",
    "generate_synthetic",
    "__version__",
]
