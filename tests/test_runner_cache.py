"""Property-based tests for the content-addressed sweep-result cache.

The cache key must be a *stable, total* function of everything that can
change a :class:`SweepRecord`: matrix spec, kernel kind and parameters,
:class:`MachineConfig`, :class:`ViaConfig`, and the code fingerprint.
Hypothesis drives the equality direction (equal inputs, equal keys across
reconstruction); the sensitivity direction walks every single config field
and asserts a perturbation moves the key.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SweepError
from repro.eval import ResultCache, RunnerConfig, WorkUnit, unit_cache_key
from repro.eval.harness import SweepRecord
from repro.matrices import MatrixSpec
from repro.sim.config import CacheConfig, MachineConfig
from repro.via.config import ViaConfig

pytestmark = pytest.mark.smoke

CODE = "test-code-version"


def _spec(**overrides) -> MatrixSpec:
    base = dict(name="m0", domain="random", n=256, seed=42,
                params={"density": 0.01})
    base.update(overrides)
    return MatrixSpec(**base)


def _unit(**overrides) -> WorkUnit:
    base = dict(kind="spmv", spec=_spec(), machine=MachineConfig(),
                via_config=ViaConfig(16, 2), formats=("csr", "csb"),
                max_n=None)
    base.update(overrides)
    return WorkUnit(**base)


# ----------------------------------------------------------------------
# equality: the key is a pure function of the unit's *values*


@given(
    n=st.integers(64, 4096),
    seed=st.integers(0, 2**31 - 1),
    domain=st.sampled_from(["random", "graph", "pde", "circuit"]),
    sram=st.sampled_from([4, 8, 16]),
    ports=st.sampled_from([2, 4]),
    lanes=st.sampled_from([2, 4, 8]),
)
@settings(max_examples=40, deadline=None)
def test_equal_units_hash_equal(n, seed, domain, sram, ports, lanes):
    def make():
        return WorkUnit(
            kind="spmv",
            spec=MatrixSpec(f"{domain}_x", domain, n, seed,
                            {"density": 0.01}),
            machine=MachineConfig(vector_lanes=lanes),
            via_config=ViaConfig(sram, ports),
            formats=("csr", "csb"),
        )

    assert unit_cache_key(make(), CODE) == unit_cache_key(make(), CODE)


def test_key_is_hex_sha256():
    key = unit_cache_key(_unit(), CODE)
    assert len(key) == 64
    int(key, 16)  # valid hex


def test_key_independent_of_format_tuple_identity():
    a = _unit(formats=("csr", "csb"))
    b = _unit(formats=tuple(["csr", "csb"]))
    assert unit_cache_key(a, CODE) == unit_cache_key(b, CODE)


# ----------------------------------------------------------------------
# sensitivity: every single field perturbation must change the key


def _perturb_machine(machine: MachineConfig, field_name: str) -> MachineConfig:
    value = getattr(machine, field_name)
    if isinstance(value, CacheConfig):
        return dataclasses.replace(
            machine,
            **{field_name: dataclasses.replace(value, latency=value.latency + 1)},
        )
    if isinstance(value, bool):  # pragma: no cover - no bool fields today
        return dataclasses.replace(machine, **{field_name: not value})
    if isinstance(value, int):
        return dataclasses.replace(machine, **{field_name: value + 1})
    return dataclasses.replace(machine, **{field_name: value * 2.0})


@pytest.mark.parametrize(
    "field_name", [f.name for f in dataclasses.fields(MachineConfig)]
)
def test_any_machine_field_perturbation_changes_key(field_name):
    base = _unit()
    perturbed = _unit(machine=_perturb_machine(base.machine, field_name))
    assert unit_cache_key(base, CODE) != unit_cache_key(perturbed, CODE), (
        f"MachineConfig.{field_name} does not feed the cache key"
    )


@pytest.mark.parametrize(
    "field_name", [f.name for f in dataclasses.fields(ViaConfig)]
)
def test_any_via_field_perturbation_changes_key(field_name):
    base = _unit()
    value = getattr(base.via_config, field_name)
    perturbed = _unit(
        via_config=dataclasses.replace(base.via_config, **{field_name: value * 2})
    )
    assert unit_cache_key(base, CODE) != unit_cache_key(perturbed, CODE), (
        f"ViaConfig.{field_name} does not feed the cache key"
    )


@pytest.mark.parametrize(
    "field_name", [f.name for f in dataclasses.fields(CacheConfig)]
)
def test_nested_cache_level_fields_change_key(field_name):
    base = _unit()
    l2 = base.machine.l2
    if field_name == "latency":  # the only knob free of divisibility rules
        new = dataclasses.replace(l2, latency=l2.latency + 1)
    else:  # size/ways/line doubling keeps the geometry valid
        new = dataclasses.replace(l2, **{field_name: getattr(l2, field_name) * 2})
    perturbed = _unit(machine=dataclasses.replace(base.machine, l2=new))
    assert unit_cache_key(base, CODE) != unit_cache_key(perturbed, CODE)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda u: WorkUnit("spma", u.spec, u.machine, u.via_config, u.formats),
        lambda u: _unit(spec=_spec(name="other")),
        lambda u: _unit(spec=_spec(n=u.spec.n + 1)),
        lambda u: _unit(spec=_spec(seed=u.spec.seed + 1)),
        lambda u: _unit(spec=_spec(domain="graph")),
        lambda u: _unit(spec=_spec(params={"density": 0.02})),
        lambda u: _unit(formats=("csr",)),
        lambda u: _unit(formats=("csb", "csr")),  # order is meaningful
        lambda u: _unit(max_n=512),
    ],
    ids=["kind", "name", "n", "seed", "domain", "params", "formats",
         "format-order", "max_n"],
)
def test_unit_identity_fields_change_key(mutate):
    base = _unit()
    assert unit_cache_key(base, CODE) != unit_cache_key(mutate(base), CODE)


def test_code_version_changes_key():
    base = _unit()
    assert unit_cache_key(base, CODE) != unit_cache_key(base, CODE + "x")


# ----------------------------------------------------------------------
# store behavior


def test_cache_roundtrip_preserves_payload(tmp_path):
    cache = ResultCache(str(tmp_path))
    rec = SweepRecord("m", "random", 10, 20, 1.5,
                      speedup={"csb": 2.0, "csr": 1.1})
    key = unit_cache_key(_unit(), CODE)
    cache.put(key, rec.to_dict())
    payload, status = cache.get(key)
    assert status == "hit"
    assert SweepRecord.from_dict(payload) == rec
    assert len(cache) == 1


def test_cache_none_payload_roundtrip(tmp_path):
    """Skipped units (None records) are cached as explicit skips."""
    cache = ResultCache(str(tmp_path))
    cache.put("k" * 64, None)
    payload, status = cache.get("k" * 64)
    assert status == "hit"
    assert payload is None


def test_cache_miss_on_unknown_key(tmp_path):
    payload, status = ResultCache(str(tmp_path)).get("0" * 64)
    assert (payload, status) == (None, "miss")


def test_invalidate_single_and_all(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put("a" * 64, {"name": "x"})
    cache.put("b" * 64, {"name": "y"})
    assert cache.invalidate("a" * 64) == 1
    assert cache.get("a" * 64)[1] == "miss"
    assert cache.get("b" * 64)[1] == "hit"
    assert cache.invalidate() == 1
    assert len(cache) == 0


def test_runner_config_validation():
    with pytest.raises(SweepError):
        RunnerConfig(workers=0)
    with pytest.raises(SweepError):
        RunnerConfig(timeout_s=0)
    with pytest.raises(SweepError):
        RunnerConfig(retries=-1)
    with pytest.raises(SweepError):
        RunnerConfig(backoff_s=-0.1)


def test_runner_config_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
    monkeypatch.setenv("REPRO_SWEEP_CACHE", "/tmp/somewhere")
    monkeypatch.setenv("REPRO_SWEEP_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_SWEEP_JOURNAL", "/tmp/j.jsonl")
    monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "12.5")
    monkeypatch.setenv("REPRO_SWEEP_RETRIES", "2")
    config = RunnerConfig.from_env()
    assert config.workers == 3
    assert config.cache_dir == "/tmp/somewhere"
    assert not config.use_cache
    assert not config.caching
    assert config.journal_path == "/tmp/j.jsonl"
    assert config.timeout_s == 12.5
    assert config.retries == 2
    assert config.supervised
    override = RunnerConfig.from_env(workers=1, use_cache=True)
    assert override.workers == 1 and override.caching


def test_runner_config_supervised_triggers():
    assert not RunnerConfig().supervised
    assert RunnerConfig(workers=2).supervised
    assert RunnerConfig(timeout_s=5).supervised
    assert RunnerConfig(retries=1).supervised
