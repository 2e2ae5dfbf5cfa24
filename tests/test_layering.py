"""Only ``jets`` reads the tables of a ``JetSpace``: its pair, shift,
division and derivative tables are the product schedule and the partial
derivative, and every other module calls the ``jets`` kernels."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cottonkit"
TABLES = ("_mul_i", "_mul_j", "_mul_starts", "_shift", "_top", "_div", "_deriv_src", "_deriv_fac", "_factorials")
# an attribute read, or the name as a string (getattr)
READ = re.compile(r"""\.({0})\b|["']({0})["']""".format("|".join(TABLES)))


def _reads(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [f"{path.name}:{n}: {line.strip()}" for n, line in enumerate(lines, 1) if READ.search(line)]


def test_only_jets_reads_the_jet_space_tables():
    assert _reads(SRC / "jets.py")  # the pattern finds the owner's own reads
    others = sorted(p for p in SRC.glob("*.py") if p.name != "jets.py")
    assert len(others) >= 10
    assert [hit for p in others for hit in _reads(p)] == []
