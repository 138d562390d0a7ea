"""Shared fixtures: small synthetic datasets and tiny model configurations."""
import numpy as np
import pytest

from speedcast.ingest import build_dataset
from speedcast.model import ModelConfig
from speedcast.synth import SynthConfig, generate
from speedcast.types import CategoryQuota

TINY_QUOTA = CategoryQuota(3, 2, 1)


@pytest.fixture(scope="session")
def small_synth():
    """A few short sessions, enough for clip assembly but quick to build."""
    return generate(SynthConfig(sessions=6, frames_per_session=60, seed=11))


@pytest.fixture(scope="session")
def small_dataset(small_synth):
    return build_dataset(small_synth.sessions, T=5, FT=1, quota=TINY_QUOTA, seed=4)


@pytest.fixture
def tiny_model_config():
    return ModelConfig(
        T=3,
        FT=1,
        K=2,
        quota=TINY_QUOTA,
        graph_widths=(4, 8),
        lstm_hidden=8,
        mlp_widths=(8, 8),
        variant="full",
    )


def random_batch(config: ModelConfig, batch: int, seed: int = 0):
    """Random features/mask/labels shaped for the given model config."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 1.0, size=(batch, config.T, config.quota.total, 4))
    mask = rng.uniform(size=(batch, config.T, config.quota.total)) < 0.7
    mask[:, :, 0] = True
    features[~mask] = 0.0
    labels = rng.integers(0, 4, size=batch)
    return features, mask, labels


def central_difference_errors(objective, pairs, step=1e-6):
    """Worst |fd - grad| per (array, grad) pair; arrays are perturbed in place."""
    worst = []
    for arr, grad in pairs:
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        err = 0.0
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = objective()
            flat[idx] = orig - step
            down = objective()
            flat[idx] = orig
            fd = (up - down) / (2 * step)
            err = max(err, abs(fd - gflat[idx]))
        worst.append(err)
    return worst
