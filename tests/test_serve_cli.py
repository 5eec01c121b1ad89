"""The ``python -m repro.serve serve`` arguments and the config they build."""

from repro.serve.__main__ import build_parser, service_config
from repro.serve.chaos import ENV_SPEC
from repro.serve.scheduler import ServiceConfig


def test_bare_serve_arguments_build_the_default_config(monkeypatch):
    monkeypatch.delenv(ENV_SPEC, raising=False)
    args = build_parser().parse_args(["serve"])
    assert service_config(args) == ServiceConfig()
