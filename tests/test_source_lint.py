"""Source lint: each Clifford operation on the spinor derivative is written
in one place, so a hand copy cannot come back unnoticed."""

from pathlib import Path

import pytest

import weylspin

SOURCES = sorted(Path(weylspin.__file__).parent.glob("*.py"))

# The insertion psi -> (gamma_i psi)_i and the gamma-trace sum_i gamma_i Q_i,
# as contraction specs: the two kernels of clifford.py, then the layouts
# they were once written out in elsewhere.
KERNEL_SPECS = ("ist,...t->...is", "ist,...it->...s")
COPY_SPECS = ("iab,tb->tia", "iab,ibc,tc->ta", "ist,pit->ps")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_clifford_writes_the_insertion_and_trace(path):
    text = path.read_text(encoding="utf-8")
    found = [spec for spec in KERNEL_SPECS + COPY_SPECS if f'"{spec}"' in text]
    assert found == (list(KERNEL_SPECS) if path.name == "clifford.py" else [])


def test_the_stack_builds_the_only_dirac_image():
    # The Dirac image's one builder is spinops._Stack.dirac, a jet_einsum
    # of the gammas against the covariant derivative.
    sites = {p.name: p.read_text(encoding="utf-8").count('"ist,it->s"') for p in SOURCES}
    assert {name: k for name, k in sites.items() if k} == {"spinops.py": 1}
