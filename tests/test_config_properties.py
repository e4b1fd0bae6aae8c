"""Property tests of the config parser: generated random_system configs
round-trip through serialize_config, and arbitrary JSON ends in a
ConfigError or a valid config, never in another exception."""

import copy
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from opendecay.cli import (  # noqa: E402
    CHECK_NAMES,
    builtin_scenario_path,
    parse_config,
    serialize_config,
)
from opendecay.errors import ConfigError  # noqa: E402

SHIPPED_DOCS = [
    json.loads(builtin_scenario_path(name).read_text())
    for name in ("single-decay", "two-level-decay", "random")
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def random_system_configs(draw):
    d_s = draw(st.integers(1, 4))
    rnode = {
        "seed": draw(st.integers(-(2**70), 2**70)),
        "d_s": d_s,
        "n_lindblad": draw(st.integers(0, 2)),
    }
    rank = draw(st.none() | st.integers(1, d_s))
    if rank is not None:
        rnode["rank"] = rank
    dt = draw(st.floats(1e-4, 1.0))
    return {
        # One plain file-name component, as parse_config requires.
        "name": draw(
            st.text(st.characters(exclude_characters="/\\\0"), min_size=1, max_size=8).filter(
                lambda name: name not in (".", "..")
            )
        ),
        "random_system": rnode,
        "integrator": {
            "dt": dt,
            "t_max": draw(st.just(0.0) | st.floats(dt, 10.0)),
            "sample_stride": draw(st.integers(1, 100)),
            "method": draw(st.sampled_from(["rk4", "exact"])),
        },
        "checks": draw(st.lists(st.sampled_from(CHECK_NAMES), unique=True)),
        "output": draw(st.text(min_size=1, max_size=8)),
    }


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    # A shipped config with one node replaced by arbitrary JSON or, for an
    # object member, deleted: reaches every branch of the schema.
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED_DOCS)))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(json_values)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=30, deadline=None)
@given(random_system_configs())
def test_generated_random_system_config_round_trips(doc):
    cfg = parse_config(json.dumps(doc))
    text = serialize_config(cfg)
    again = parse_config(text)
    assert serialize_config(again) == text
    assert (again.name, again.checks, again.output) == (cfg.name, cfg.checks, cfg.output)
    assert again.integrator == cfg.integrator
    assert (again.system.d_s, again.system.d_f) == (cfg.system.d_s, cfg.system.d_f)
    assert np.array_equal(again.system.hamiltonian, cfg.system.hamiltonian)
    assert np.array_equal(again.system.decay_matrix, cfg.system.decay_matrix)
    assert len(again.system.lindblad_ops) == len(cfg.system.lindblad_ops)
    for a, b in zip(again.system.lindblad_ops, cfg.system.lindblad_ops):
        assert np.array_equal(a, b)
    assert np.array_equal(again.initial_state, cfg.initial_state)


@settings(max_examples=200, deadline=None)
@given(json_values | mutated_configs())
def test_arbitrary_json_raises_only_config_errors(doc):
    try:
        parse_config(json.dumps(doc))
    except ConfigError:
        pass
