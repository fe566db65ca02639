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
        "OrientedEdge",
        "ParseError",
        "PowerConjugacy",
        "TrichotomyVerdict",
        "Vertex",
        "__version__",
        "analyze",
        "brute_force_power_conjugacy",
        "cyclic_meet",
        "enumerate_complete_paths",
        "enumerate_full_nonmaximal_paths",
        "iter_conjugacy_paths",
        "maximal_root",
        "parse_graph",
        "power_conjugate",
        "reduce_graph",
        "root",
    ]
    assert all(hasattr(gogz, name) for name in gogz.__all__)
