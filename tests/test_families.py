"""The family generator writes exactly the graphs CI has always checked."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import families

# SHA-256 of each graph file CI checks: the ones CI wrote with its own inline
# generator before it called families.py, then each family added since; a
# change here changes what CI checks.
CI_GRAPHS = {
    ("chain", 10000): "980307a4dfd5b7aede09e5ad2a07eca62f4bf442faf5a5080acbe09bc46b2917",
    ("rand", 20000): "92305dc5f5cff4d668bc791d638131f91aff4c655aff1f7c89eff831086a0963",
    ("r1chain", 10000): "ebe9e229665d9ad5cd0e8925250524db597c8c91b14499f53e02269e517a2536",
    ("r1sq", 10000): "620a4c805a2b152b931a2927a4c3f7493cd770203a5c099cbdf2c38a3bf12a97",
    ("ring", 16): "77b1bb1da72ed162ef65a09e86d4b64b5f2d266beaf9fdd5813939e6f047adf0",
    ("ring", 64): "0e03c54ea72e47779a3be57dfcc772281e59b20f1e94a9564815dcba63eb30fc",
    ("wring", 16): "123959534b1b6ea74909d6fe0406b286264415f40d4524e8fbf40b2aabcdb630",
    ("wring", 64): "00cdac9a7b8ef93d8b57c95846895b1a88284661438da2e1c2aa3672811bc270",
    ("r1rev", 64): "72db8c54f3288816d17c204e7cd07c7984248985607b226f89beff5ea880d1b5",
    ("word", 16000): "bfe76e872bd5b01e3dee4ae9693838e6e7e67046f70e8e143d4ddcc861fa256b",
    ("loops", 200): "51865bc6c2acc6bd83dcd1f8cae3b72553af5f6fefaf04935a99867f4b2209e5",
    ("loops2", 200): "de1a94735d616caee7936e9946562f60818d5cd2b226d3338f53d721d8cf4ecf",
    ("clique", 30): "5a138842b65efb8495ccd04247da9fa27179d16bc0f5b973b13f87e88d038203",
    ("loops1", 6): "39c5f81364876fbcc1287fd971df6c117dcec42fbcbc6c753e18405b01de6733",
    ("loops1", 7): "3de83f317bc6ab21279c107384236bbf825459a256285e0fe00ec33a18f1224b",
    ("loops1", 12): "882242a5d601a822497d9a3425579e004ea7e6083ad9bb47030ab9734f4bb328",
    ("loops2", 8): "27753cdef8c385233f0eb0b5fdf6a2c91e04e0554f8fbf25ec4be07bb055c8c8",
    ("K", 5): "3cc7ed164387079247598031cb645171518c6117b7b483d511ff18af4aaec004",
    ("K", 6): "d49673a2b07143e8aa35295303502c2f5ed6f3ad86ff5a144503063a995f8adf",
}


@pytest.mark.parametrize("family,n", CI_GRAPHS)
def test_ci_graph_bytes_are_pinned(family, n):
    text = getattr(families, family)(n)
    assert hashlib.sha256(text.encode()).hexdigest() == CI_GRAPHS[family, n]


def test_every_family_writes_a_ci_graph():
    assert {family for family, _ in CI_GRAPHS} == set(families.FAMILIES)


def test_command_line_prints_the_function_text():
    script = Path(families.__file__)
    out = subprocess.run([sys.executable, str(script), "K", "5"], capture_output=True, check=True, timeout=60)
    assert out.stdout == families.K(5).encode()
