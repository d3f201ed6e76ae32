import pytest
from hypothesis import settings

from koszul_lab.regularity import reg_monomial_ideal

# property tests replay the same examples on every run and have no time limit;
# each test sets its own max_examples
settings.register_profile("koszul-lab", derandomize=True, deadline=None)
settings.load_profile("koszul-lab")


@pytest.fixture(autouse=True)
def _fresh_regularity_memo():
    # reg_monomial_ideal is memoised per (ideal, field); each test starts
    # without it, so a spy on the linear algebra sees its own calls' work
    reg_monomial_ideal.cache_clear()
