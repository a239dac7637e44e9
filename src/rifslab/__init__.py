"""Random iterated function systems: attractors, dimensions, measures.

The package builds finite families of contracting maps into random
attractor approximations with certified Hausdorff-metric error bounds, and
computes the dimension and measure quantities attached to them: similarity
and carpet dimension formulas, box-count estimates, gauge-function cover
and packing bounds, and growth diagnostics.  A JSON-config CLI (`rifslab`)
reproduces the bundled example corpus deterministically.

Importing the package runs `errors` alone.  Every submodule of `_EXPORTS`
is put in `sys.modules` and bound here through `importlib.util.LazyLoader`,
so its code runs on the first attribute read (`vars()` counts as one), and
each public name resolves through the module `__getattr__` (PEP 562).  A
command thus compiles only the modules it runs.  `LazyLoader` takes no
lock on Python 3.11, so a module must not be first read from two threads
at once; rifslab imports on one thread.
"""

import importlib.util
import sys

from .errors import (ConfigError, ConfigParseError, ConfigSchemaError,
                     ConfigSemanticError, GeometryDomainError, ResourceError,
                     RifsError, UnsupportedShapeError, UsageError)

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "boxcount": ("BoxCountTable", "BoxDimEstimate", "count_boxes",
                 "estimate_box_dims"),
    "config": ("ExperimentConfig", "TaskSpec", "load_config", "parse_config"),
    "corpus": ("corpus_entries", "corpus_names", "corpus_path",
               "load_corpus"),
    "dimension": ("CarpetSpec", "DimensionReport", "GrowthReport",
                  "bedford_mcmullen_dimension", "carpet_dimension_curve",
                  "check_growth_conditions", "check_uosc_grid",
                  "extremal_ss_bounds", "minimize_carpet_dimension",
                  "random_carpet_dimension",
                  "randomized_similarity_dimension", "similarity_dimension"),
    "geometry": ("Affine2", "AmbientBox", "ClosedFormMap", "ContractionMap",
                 "Similarity", "unit_box"),
    "hausdorff": ("hausdorff_distance",),
    "measure": ("CylinderMeasure", "DoublingReport", "Gauge", "MdpReport",
                "PackingReport", "PowerGauge", "PowerLogGauge", "TableGauge",
                "check_msc_grid", "cylinder_mass", "doubling_constants",
                "hausdorff_upper_bound", "level_masses", "mdp_bounds",
                "packing_lower_bound"),
    "model": ("DEFAULT_BUDGET", "AttractorPoints", "BernoulliSampler",
              "CylinderCover", "DeterministicIfs", "ProbeRow", "Rifs",
              "attractor_points", "carpet_system", "continuity_probe",
              "cylinder_cover", "cylinder_images", "resolution_depth",
              "sample_omega"),
    "render": ("RenderSpec", "render_ppm"),
    "sequences": ("OmegaSeq", "omega_distance", "splice"),
    "tasks": ("run",),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = [*_HOME, "ConfigError", "ConfigParseError", "ConfigSchemaError",
           "ConfigSemanticError", "GeometryDomainError", "ResourceError",
           "RifsError", "UnsupportedShapeError", "UsageError"]


def _lazy_submodule(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy_submodule(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # kept here, so the next read is a dict hit
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
