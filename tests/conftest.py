import pytest

from rategame import ExperimentConfig, solve_equilibrium


@pytest.fixture(scope="session")
def base_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def base_funcs(base_config):
    return base_config.functions()


@pytest.fixture(scope="session")
def base_dists(base_config):
    return base_config.population()


@pytest.fixture(scope="session")
def base_equilibrium(base_config, base_funcs, base_dists):
    """Base-case equilibrium, shared across the suite (solves in ~0.02 s)."""
    return solve_equilibrium(base_dists, base_funcs, base_config.beta,
                             base_config.lambda_bar, base_config.n)
