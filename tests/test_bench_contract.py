"""The benchmark's traced run names package functions by string
(bench/spans.py) and expects some of them to be called in each workload
(bench/workloads.py).  These tests fail when a span is deleted, renamed or
no longer called, instead of a traced benchmark run failing its
self-check."""
import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = load("spans")
workloads = load("workloads")


@pytest.mark.parametrize("span", spans.SPANS)
def test_span_resolves_to_a_package_attribute(span):
    modname, *path = span.split(".")
    owner = importlib.import_module(f"{spans.PACKAGE}.{modname}")
    for attr in path:
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("name", sorted(workloads.MAKE_WORKLOAD))
def test_expected_spans_are_spans(name, tmp_path):
    workload = workloads.MAKE_WORKLOAD[name](701, tmp_path)
    assert set(workload.expected_spans) <= set(spans.SPANS)


@pytest.mark.parametrize("name", sorted(workloads.MAKE_WORKLOAD))
def test_expected_spans_are_called(name, tmp_path):
    # the workload's ops, in order, until every expected span has a call
    workload = workloads.MAKE_WORKLOAD[name](701, tmp_path)
    cli = importlib.import_module(f"{spans.PACKAGE}.cli")
    with spans.Tracer() as tracer:
        for op in workload.ops:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(list(op.argv))
            op.check(rc, out.getvalue())
            assert err.getvalue() == ""
            if all(tracer.stats[s].calls for s in workload.expected_spans):
                break
    assert [s for s in workload.expected_spans
            if tracer.stats[s].calls == 0] == []
