"""The seeded samplers give fixed output, so every seeded sample in the
suite stays the same whatever module the samplers live in."""

import hashlib
import json
import random

import pytest

from samplers import random_comm, random_element, random_submodule


@pytest.mark.parametrize("sampler, digest", [
    (random_comm, "f86cc32382c9657f"),
    (random_submodule, "4c6d7be49c948e90"),
    (random_element, "ea3cb3aeed5e24a3"),
])
def test_sampler_output_is_pinned(sampler, digest):
    rng = random.Random(0)
    text = json.dumps([sampler(rng).to_json() for _ in range(50)], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
