"""Random iterated function systems: attractors, dimensions, measures.

The package builds finite families of contracting maps into random
attractor approximations with certified Hausdorff-metric error bounds, and
computes the dimension and measure quantities attached to them: similarity
and carpet dimension formulas, box-count estimates, gauge-function cover
and packing bounds, and growth diagnostics.  A JSON-config CLI (`rifslab`)
reproduces the bundled example corpus deterministically.
"""

from .boxcount import (BoxCountTable, BoxDimEstimate, count_boxes,
                       estimate_box_dims)
from .config import ExperimentConfig, TaskSpec, load_config, parse_config
from .corpus import corpus_entries, corpus_names, corpus_path, load_corpus
from .dimension import (CarpetSpec, DimensionReport, GrowthReport,
                        bedford_mcmullen_dimension, carpet_dimension_curve,
                        check_growth_conditions, check_uosc_grid,
                        extremal_ss_bounds, minimize_carpet_dimension,
                        random_carpet_dimension,
                        randomized_similarity_dimension,
                        similarity_dimension)
from .errors import (ConfigError, ConfigParseError, ConfigSchemaError,
                     ConfigSemanticError, GeometryDomainError, ResourceError,
                     RifsError, UnsupportedShapeError, UsageError)
from .geometry import (Affine2, AmbientBox, ClosedFormMap, ContractionMap,
                       Similarity, unit_box)
from .hausdorff import hausdorff_distance
from .measure import (CylinderMeasure, DoublingReport, Gauge, MdpReport,
                      PackingReport, PowerGauge, PowerLogGauge, TableGauge,
                      check_msc_grid, cylinder_mass, doubling_constants,
                      hausdorff_upper_bound, level_masses, mdp_bounds,
                      packing_lower_bound)
from .model import (DEFAULT_BUDGET, AttractorPoints, BernoulliSampler,
                    CylinderCover, DeterministicIfs, ProbeRow, Rifs,
                    attractor_points, carpet_system, continuity_probe,
                    cylinder_cover, cylinder_images, resolution_depth,
                    sample_omega)
from .render import RenderSpec, render_ppm
from .sequences import OmegaSeq, omega_distance, splice
from .tasks import run

__version__ = "0.1.0"

__all__ = [
    "Affine2", "AmbientBox", "AttractorPoints", "BernoulliSampler",
    "BoxCountTable", "BoxDimEstimate", "CarpetSpec", "ClosedFormMap",
    "ConfigError", "ConfigParseError", "ConfigSchemaError",
    "ConfigSemanticError", "ContractionMap", "CylinderCover",
    "CylinderMeasure", "DEFAULT_BUDGET", "DeterministicIfs",
    "DimensionReport", "DoublingReport", "ExperimentConfig", "Gauge",
    "GeometryDomainError", "GrowthReport", "MdpReport", "OmegaSeq",
    "PackingReport", "PowerGauge", "PowerLogGauge",
    "ProbeRow", "RenderSpec", "ResourceError", "Rifs", "RifsError",
    "Similarity", "TableGauge", "TaskSpec", "UnsupportedShapeError",
    "UsageError", "attractor_points",
    "bedford_mcmullen_dimension", "carpet_dimension_curve", "carpet_system",
    "check_growth_conditions", "check_msc_grid", "check_uosc_grid",
    "continuity_probe", "corpus_entries", "corpus_names", "corpus_path",
    "count_boxes", "cylinder_cover", "cylinder_images",
    "cylinder_mass", "doubling_constants", "estimate_box_dims",
    "extremal_ss_bounds", "hausdorff_distance", "hausdorff_upper_bound",
    "level_masses", "load_config", "load_corpus", "mdp_bounds",
    "minimize_carpet_dimension", "omega_distance", "packing_lower_bound",
    "parse_config", "random_carpet_dimension",
    "randomized_similarity_dimension", "render_ppm", "resolution_depth",
    "run", "sample_omega", "similarity_dimension", "splice", "unit_box",
]
