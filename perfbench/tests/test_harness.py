"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import reference, tracing, workloads
from perfbench.tests.conftest import ROOT


def first_keys(wl, n):
    return list(itertools.islice(itertools.chain.from_iterable(wl.rounds()),
                                 n))


def run_ops(wl, keys, tracer=None):
    """Digests of the operations on ``keys``; every check must pass."""
    digests = []
    for i, key in enumerate(keys):
        x = wl.prepare(key)
        if tracer is None:
            out = wl.run(x)
        else:
            with tracer.operation(i):
                out = wl.run(x)
        digest, fails = wl.check(key, x, out)
        assert fails == [], (key, fails)
        digests.append(digest)
    return digests


@pytest.fixture(params=["s6_sweep", "page_oracle"])
def traced(request):
    """(workload, keys, untraced digests, traced digests, tracer)."""
    wl = workloads.make(request.param, ROOT, None)
    wl.setup(3)
    keys = first_keys(wl, 6 if request.param == "s6_sweep" else 40)
    plain = run_ops(wl, keys)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with_spans = run_ops(wl, keys, tracer)
    finally:
        tracer.uninstall()
        wl.close()
    return wl, keys, plain, with_spans, tracer


def test_traced_and_untraced_digests_agree(traced):
    _wl, keys, plain, with_spans, tracer = traced
    assert plain == with_spans
    assert len(tracer.ops) == len(keys) and tracer.spans


def test_every_binding_is_patched(traced):
    wl, _keys, _plain, _spans, _tracer = traced
    originals = {id(getattr(sys.modules[m], f)): f"{m}.{f}"
                 for m, f, _n, _i in tracing.TARGETS if m in sys.modules}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in tracing._program_modules():
            for attr, value in vars(mod).items():
                assert id(value) not in originals, \
                    f"{mod.__name__}.{attr} still binds {originals[id(value)]}"
    finally:
        tracer.uninstall()
    assert tracer.missing == []


def test_eliminator_seen_under_pages_and_theories(traced):
    wl, _keys, _plain, _spans, tracer = traced
    if wl.name != "s6_sweep":
        pytest.skip("checked on s6_sweep")
    raw = tracing.summarize(tracer.spans)
    assert raw["spectral.elim_calls"] > 0
    assert raw["cohomology.elim_calls"] > 0
    metrics = tracing.layer_metrics(raw)
    assert metrics["linalg.elim.calls"] > 0
    assert metrics["s6.realize.incl_s"] > 0


def test_spans_nest(traced):
    _wl, _keys, _plain, _spans, tracer = traced
    ops = {op: (start, end) for op, start, end in tracer.ops}
    for name, enter, start, end, leave, parent, op, _info in tracer.spans:
        assert enter <= start <= end <= leave
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[6] == op
            assert p[2] <= enter and leave <= p[3], (name, p[0])
        else:
            assert ops[op][0] <= enter and leave <= ops[op][1]


def test_self_times_fit_in_operation(traced):
    _wl, _keys, _plain, _spans, tracer = traced
    selfs = tracing.self_times(tracer.spans)
    per_op = {}
    for s, own in zip(tracer.spans, selfs):
        assert own >= 0
        per_op[s[6]] = per_op.get(s[6], 0.0) + own
    for op, start, end in tracer.ops:
        assert per_op.get(op, 0.0) <= end - start


def test_checks_catch_wrong_tables():
    wl = workloads.make("page_oracle", ROOT, None)
    wl.setup(5)
    keys = [k for k in first_keys(wl, 70) if not isinstance(k, str)]
    a = keys[0]
    content_a = wl.content(a)[0]
    ref_a = reference.content_tables(content_a)
    b = next(k for k in keys[1:] if wl.content(k)[0].grid == content_a.grid
             and reference.content_tables(wl.content(k)[0]) != ref_a)
    xa, xb = wl.prepare(a), wl.prepare(b)
    out_a, out_b = wl.run(xa), wl.run(xb)
    assert wl.check(a, xa, out_a)[1] == []
    # Another complex's answers, or a disagreeing second method, must fail.
    assert wl.check(a, xa, out_b)[1]
    assert wl.check(a, xa, dict(out_a, explicit=out_b["explicit"]))[1]
    # A table that differs from the pinned digest fails even when the
    # content references cannot see the difference.
    wl.pinned[workloads.key_label(a)] = "0" * 16
    assert any("pinned" in f for f in wl.check(a, xa, out_a)[1])


def test_generator_reproduces_the_pinned_pool():
    wl = workloads.make("page_oracle", ROOT, None)
    wl.setup(0)
    for i in range(0, wl.pool, 97):
        assert wl.proxy(i)[1] == wl.content(i)[0].total_dim()
    assert len(wl.pinned) >= wl.pool


def test_model_references_match_the_closed_forms():
    from frolicher import s6
    for d in reference.diamonds(2):
        pred = s6.predicted_tables(s6.DiamondParams(*d))
        ref = reference.model_tables(d)
        assert ref["E2"] == reference.as_lists(pred.e2.grid)
        assert ref["bott_chern"] == reference.as_lists(pred.bott_chern.grid)


def test_cli_child_memory_is_its_own():
    # A child forked straight from a large process would report at least
    # that process's peak; children of the spawner report their own.
    ballast = b"x" * (96 << 20)
    wl = workloads.make("cli_session", ROOT, None)
    wl.setup(1)
    try:
        proc = wl.run([sys.executable, "-S", "-c", "pass"])
    finally:
        wl.close()
    assert proc.returncode == 0 and len(ballast)
    assert 0 < wl.peak_rss_mb() < 48


def test_parse_grids_reads_cli_tables():
    from frolicher.cli import render_grid
    import numpy as np
    grid = np.arange(12).reshape(3, 4)
    text = "E_1:\n" + render_grid(grid) + "\nbott_chern:\n" + \
        render_grid(grid.T) + "\n"
    parsed = workloads.parse_grids(text)
    assert parsed == {"E_1": grid.tolist(), "bott_chern": grid.T.tolist()}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_the_contract(trace):
    proc = run_bench(ROOT, "--workload", "page_oracle", "--seed", "11",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "--workload", "s6_sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
