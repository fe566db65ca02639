"""Balance, hyperbolicity and splitting analysis for graphs of free groups
with cyclic edge groups.

The package decides, with machine-checkable certificates:

* whether the fundamental group is *balanced* (no element conjugate to a
  skew power of itself), and if not, which Baumslag-Solitar subgroup the
  offending closed chain exhibits;
* whether it is *word hyperbolic*, witnessed either by a closed chain or by
  a non-maximal chain of cyclic subgroups;
* whether it is *acylindrically hyperbolic*, and if not, which cyclic
  subgroup is normalised by everything;
* a *splitting trichotomy*: acylindrically hyperbolic, surjects onto the
  integers, or carries an infinite cyclic normal subgroup with an explicit
  central element.

Every positive verdict carries a witness that :class:`gogz.engine.Engine`
re-derives from the defining relations alone, so a wrong path computation
cannot silently produce a wrong answer.
"""

from gogz.engine import Engine, PowerConjugacy, brute_force_power_conjugacy
from gogz.errors import (
    AlphabetError,
    DegenerateInputError,
    GogzError,
    InternalInconsistencyError,
    ParseError,
)
from gogz.graphs import (
    Edge,
    GraphOfGroups,
    Vertex,
    parse_graph,
    reduce_graph,
)
from gogz.paths import (
    ConjugacyPath,
    enumerate_complete_paths,
    enumerate_full_nonmaximal_paths,
    iter_conjugacy_paths,
)
from gogz.text import format_items, read_items
from gogz.verdicts import (
    AcylVerdict,
    AnalysisReport,
    BalanceVerdict,
    CentralWitness,
    ConjugacyAnswer,
    HyperbolicityVerdict,
    TrichotomyVerdict,
    analyze,
    power_conjugate,
)
from gogz.words import Alphabet, FreeWord

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "FreeWord",
    "Vertex",
    "Edge",
    "GraphOfGroups",
    "parse_graph",
    "reduce_graph",
    "format_items",
    "read_items",
    "Engine",
    "PowerConjugacy",
    "brute_force_power_conjugacy",
    "ConjugacyPath",
    "enumerate_complete_paths",
    "enumerate_full_nonmaximal_paths",
    "iter_conjugacy_paths",
    "BalanceVerdict",
    "HyperbolicityVerdict",
    "AcylVerdict",
    "TrichotomyVerdict",
    "CentralWitness",
    "ConjugacyAnswer",
    "AnalysisReport",
    "power_conjugate",
    "analyze",
    "GogzError",
    "AlphabetError",
    "ParseError",
    "DegenerateInputError",
    "InternalInconsistencyError",
    "__version__",
]
