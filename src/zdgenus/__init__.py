"""Finite commutative rings, ideal-based zero-divisor graphs, and genus.

errors, rings, ideals and catalog load with the package.  graphs (the
graph constructions and invariants), genus (bounds and the
rotation-system search) and classify (the classification facts) are
registered in sys.modules, and as attributes here, as lazy modules: each
is compiled and run on its first attribute access, so a caller that only
builds rings and ideals never pays for them, and one that builds graphs
pays for graphs alone.  Their public names are still served from the
package, as in `from zdgenus import exact_genus`.

Every one-shot CLI call pays the import, so it loads little of the
standard library.  Record types are written without dataclasses, which
would load inspect and generate each class's methods from source: a value
type, one that compares and hashes by its fields (RingSpec, GenusBounds,
...), is a typing.NamedTuple; an identity type (RingTable, IdealSet,
SimpleGraph, ...) is a plain class with an explicit __init__.  json and
csv are imported inside the functions that use them, and relation strings
are parsed by rings' own recursive descent, without ast.
"""

import importlib.util
import sys

from .catalog import catalog, catalog_entries, catalog_ring, find_catalog
from .errors import (
    CliqueHypothesisViolated,
    HypothesisNotMet,
    InvalidSpec,
    NonConfluentPresentation,
    NotRadical,
    WholeRingIdeal,
    ZdgenusError,
)
from .ideals import (
    IdealSet,
    QuotientRing,
    cyclic_ideal,
    enumerate_ideals,
    ideal_from_generators,
    is_prime,
    is_radical,
    maximal_ideals,
    minimal_primes_over,
    quotient,
    validate_ideal,
)
from .rings import (
    RingSpec,
    RingTable,
    build_ring,
    gf,
    is_local,
    iso_check,
    product,
    product_tables,
    quotient_algebra,
    spec_from_json,
    spec_to_json,
    units,
    zmod,
)

__version__ = "0.1.0"


def _lazy_submodule(name: str):
    """Register zdgenus.<name> without running it; it runs on its first
    attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


graphs = _lazy_submodule("graphs")
genus = _lazy_submodule("genus")
classify = _lazy_submodule("classify")

_LAZY_NAMES = {
    **dict.fromkeys((
        "SimpleGraph",
        "clique_number",
        "complete_bipartite",
        "complete_graph",
        "complete_multipartite",
        "diameter",
        "expand",
        "export_dot",
        "export_json",
        "find_biclique",
        "find_complete_subgraph",
        "girth",
        "ideal_zero_divisor_graph",
        "induced_subgraph",
        "is_connected",
        "make_graph",
        "twin_quotient",
        "zero_divisor_graph",
    ), "graphs"),
    **dict.fromkeys((
        "EmbeddingCertificate",
        "GenusBounds",
        "LowerBound",
        "certificate_from_json",
        "certificate_to_json",
        "closed_form_bound",
        "euler_lower_bound",
        "exact_genus",
        "face_trace",
        "genus_biclique",
        "genus_complete",
        "is_planar",
        "k4_attachment_bound",
        "random_rotation",
        "subgraph_lower_bound",
    ), "genus"),
    **dict.fromkeys((
        "ClassificationReport",
        "TheoremId",
        "attached_k4_graph",
        "genus_ge2_predicate",
        "genus_one_clique3_predicate",
        "genus_one_clique_le2_predicate",
        "redmond_planar_predicate",
        "synthesize",
        "verify",
        "verify_all",
    ), "classify"),
}


def __getattr__(name: str):
    """Serve a public name of graphs, genus or classify, loading that
    module."""
    if name in _LAZY_NAMES:
        return getattr(globals()[_LAZY_NAMES[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})
