"""presforge: finitely presented group constructions with homological and
finite-quotient certificates."""

from .freewords import (
    Alphabet,
    Word,
    apply_map,
    commutator,
    conjugacy_test,
    cyclically_reduce,
    exponent_vector,
    free_reduce,
    parse_word,
    render_word,
)
from .presentations import (
    FinitePresentation,
    PresentationMorphism,
    amalgamated_product,
    direct_product_presentation,
    higman_presentations,
    parse_presentation,
    presentation,
    render_presentation,
)
from .homology import (
    AbelianGroupDescriptor,
    h1,
    h2_aspherical,
    smith_normal_form,
)
from .uce import (
    CommutatorWitness,
    NormalClosureElement,
    UcePresentation,
    find_commutator_witnesses,
    miller_uce,
)
from .smallcancel import (
    DehnSolver,
    MetricCertificate,
    metric_certificate,
)
from .constructions import (
    GeneratingSet,
    KillResult,
    PairWord,
    RipsOutput,
    acyclic_subdirect,
    conjugacy_gadget,
    delta_amalgam,
    fibre_generators,
    kill_finite_quotients,
    rips_wise,
    super_perfectify,
)
from .quotients import (
    CosetTable,
    PermAssignment,
    finite_quotient_certificate,
    hom_search,
    low_index_subgroups,
    todd_coxeter,
)

__version__ = "0.1.0"
