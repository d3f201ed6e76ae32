import re
from pathlib import Path

import pytest

import koszul_lab


def test_every_public_name_resolves():
    for name in koszul_lab.__all__:
        assert getattr(koszul_lab, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from koszul_lab import *", namespace)
    assert set(koszul_lab.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(koszul_lab, name) for name in koszul_lab.__all__)


def test_a_lazy_name_is_its_submodule_object():
    assert koszul_lab.run_suite is koszul_lab.harness.run_suite
    assert koszul_lab.z1_products is koszul_lab.cycles.z1_products
    assert koszul_lab.tor_violations is koszul_lab.regularity.tor_violations
    assert koszul_lab.KoszulChain is koszul_lab.exterior.KoszulChain


def test_dir_lists_the_lazy_names():
    assert {"run_suite", "SuiteReport", "z1_products", "harness", "cycles"} <= set(dir(koszul_lab))
    assert {"exterior", "KoszulChain", "wedge", "regularity", "tor_violations", "GradedModule",
            "reg_monomial_ideal"} <= set(dir(koszul_lab))
    assert set(koszul_lab.__all__) <= set(dir(koszul_lab))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        koszul_lab.nosuch


def test_readme_suites_line_names_every_suite():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [line] = re.findall(r"^Suites: (.*?)\n\n", readme, re.M | re.S)
    assert re.findall(r"`(\w+)`", line) == list(koszul_lab.harness.SUITES)
