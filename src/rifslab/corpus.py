"""Bundled experiment configs and their registry."""

from __future__ import annotations

from importlib import resources

from .config import ExperimentConfig, load_config
from .errors import UsageError

# (name, file); names are CLI-facing, descriptions live in the configs
_REGISTRY: tuple[tuple[str, str], ...] = (
    ("cantor", "cantor.json"),
    ("cantor-render", "cantor_render.json"),
    ("cantor-boxdim", "cantor_boxdim.json"),
    ("interval-boxdim", "interval_boxdim.json"),
    ("cantor-measure", "cantor_measure.json"),
    ("carpet-splice", "carpet_splice.json"),
    ("carpet-packing", "carpet_packing.json"),
    ("carpet-curve", "carpet_curve.json"),
    ("carpet-minimize", "carpet_minimize.json"),
    ("cookie-boxdim", "cookie_boxdim.json"),
    ("pictorial-a", "pictorial_a.json"),
    ("pictorial-b", "pictorial_b.json"),
    ("sample", "sample_demo.json"),
)


def corpus_entries() -> tuple[tuple[str, str, str], ...]:
    """(name, file, description) per entry, read from each config."""
    return tuple((name, filename, load_corpus(name).description)
                 for name, filename in _REGISTRY)


def corpus_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _REGISTRY)


def corpus_path(name: str) -> str:
    for entry, filename in _REGISTRY:
        if entry == name:
            return str(resources.files(__package__) / "corpus" / filename)
    raise UsageError(f"unknown corpus entry {name!r}; "
                     f"try one of {', '.join(corpus_names())}")


def load_corpus(name: str) -> ExperimentConfig:
    return load_config(corpus_path(name))
