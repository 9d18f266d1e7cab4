"""The subgroup lattice and SN/SSN against their original implementations.

`subgroups` grows each join by cosets and skips joins it has found
already; `is_sn`/`is_ssn` scan G's own lattice. reference_lattice.py holds
the original code, which closes every join from its generators and runs
SN on a standalone group per subgroup. Both must give the same lattice,
generators included, and the same verdicts.
"""

import pytest

import qgring.groups
from qgring.catalog import build_named, build_spec, catalog_names
from qgring.errors import OrderCapExceeded
from qgring.groups import FiniteGroup, elementary_abelian, subgroups
from qgring.props import is_sn, is_ssn
from reference_lattice import reference_is_sn, reference_is_ssn, reference_subgroups

# the groups analyzed by the benchmark's analyze-large and witness-search
# workloads
CORPUS = ["D(200)", "X(Q(8),C(25))", "X(Q(8),C(27))", "SdCyc(7,27,2)",
          "SdCyc(3,8,2)", "SdCyc(5,8,2)", "SdCyc(3,16,2)", "SdCyc(5,16,2)",
          "SdCyc(13,8,5)", "X(SdCyc(3,8,2),C(2))"]


@pytest.mark.parametrize("name", catalog_names() + CORPUS)
def test_lattice_and_verdicts_match_reference(name):
    G = build_spec(name) if "(" in name else build_named(name)
    assert ([(H.mask, H.gens) for H in subgroups(G)]
            == [(H.mask, H.gens) for H in reference_subgroups(G)])
    assert is_sn(G) == reference_is_sn(G)
    assert is_ssn(G) == reference_is_ssn(G)


@pytest.mark.parametrize("spec", ["D(200)", "BJ9"])
def test_is_ssn_builds_no_group(spec, monkeypatch):
    G = build_spec(spec) if "(" in spec else build_named(spec)
    G._cache.clear()
    built = []
    orig = FiniteGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        orig(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting)
    is_ssn(G)
    assert built == []


def test_subgroup_cap_stops_at_the_first_subgroup_over_it(monkeypatch):
    G = elementary_abelian(2, 4)  # 67 subgroups, 16 of them cyclic
    found = set()
    orig = qgring.groups._closure

    def recording(*args, **kwargs):
        mask = orig(*args, **kwargs)
        found.add(mask)
        return mask

    monkeypatch.setattr(qgring.groups, "_closure", recording)
    monkeypatch.setattr(qgring.groups, "MAX_SUBGROUPS", 20)
    with pytest.raises(OrderCapExceeded):
        subgroups(G)
    assert len(found) == 21
    monkeypatch.setattr(qgring.groups, "MAX_SUBGROUPS", 67)
    assert len(subgroups(G)) == 67
