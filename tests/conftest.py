from hypothesis import settings

# property tests replay the same examples on every run and have no time limit;
# each test sets its own max_examples
settings.register_profile("koszul-lab", derandomize=True, deadline=None)
settings.load_profile("koszul-lab")
