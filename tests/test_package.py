"""The public names of the package."""

import gogz


def test_public_names():
    assert sorted(gogz.__all__) == [
        "AcylVerdict",
        "Alphabet",
        "AlphabetError",
        "AnalysisReport",
        "BalanceVerdict",
        "CentralWitness",
        "ConjugacyAnswer",
        "ConjugacyPath",
        "DegenerateInputError",
        "Edge",
        "Engine",
        "FreeWord",
        "GogzError",
        "GraphOfGroups",
        "HyperbolicityVerdict",
        "InternalInconsistencyError",
        "ParseError",
        "PowerConjugacy",
        "TrichotomyVerdict",
        "Vertex",
        "__version__",
        "analyze",
        "brute_force_power_conjugacy",
        "enumerate_complete_paths",
        "enumerate_full_nonmaximal_paths",
        "format_items",
        "iter_conjugacy_paths",
        "parse_graph",
        "power_conjugate",
        "read_items",
        "reduce_graph",
    ]
    assert all(hasattr(gogz, name) for name in gogz.__all__)
