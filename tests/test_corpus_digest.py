import dataclasses
import hashlib
import importlib.util
import itertools
import os
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "corpus_digest.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("corpus_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_leaves_blas_threads_alone(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    spec = importlib.util.spec_from_file_location("corpus_digest_probe", TOOL)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"


def test_corpus_has_2912_distinct_cases(tool, monkeypatch):
    def refuse(*args):
        raise AssertionError("listing the cases must not reduce them")

    monkeypatch.setattr(tool, "reduce", refuse)
    names = [name for name, *_ in tool.cases()]
    assert len(names) == 2912
    assert len(set(names)) == len(names)


def test_digest_repeats_and_separates_cases(tool):
    small = list(itertools.islice(tool.cases(), 32))  # family 1, n = 2 and 3
    first = [tool.digest(a, variant, opts) for _, a, variant, opts in small]
    again = [tool.digest(a, variant, opts) for _, a, variant, opts in small]
    assert first == again
    assert {outcome for outcome, _ in first} == {"ok", "breakdown"}
    for outcome, shas in first:
        assert len(shas) == (3 if outcome == "ok" else 1)
        assert all(len(sha) == 64 for sha in shas)
    assert len({shas for _, shas in first}) > 1


def test_ok_hashes_split_h_s_and_metrics(tool, monkeypatch):
    # a change to one part of a result moves only that part's hash
    _, a, variant, opts = next(tool.cases())
    res = tool.reduce(a, variant, opts)
    outcome, shas = tool.digest(a, variant, opts)
    assert outcome == "ok"
    for field, column in (("h", 0), ("transcript", 0), ("fallbacks_used", 0),
                          ("s", 1), ("orth_loss", 2), ("red_err", 2)):
        value = getattr(res, field)
        changed = value + (value[:1] if isinstance(value, tuple) else 1.0)
        moved = dataclasses.replace(res, **{field: changed})
        monkeypatch.setattr(tool, "reduce", lambda *args, moved=moved: moved)
        _, got = tool.digest(a, variant, opts)
        assert [g != w for g, w in zip(got, shas)] == [i == column for i in range(3)], field


def test_digest_sees_the_sign_of_zero(tool):
    def sha(value):
        h = hashlib.sha256()
        tool._feed(h, value)
        return h.hexdigest()

    assert sha(np.array([0.0])) != sha(np.array([-0.0]))
    assert sha(0.0) != sha(-0.0)


def test_header_names_numpy_blas_and_core(tool):
    line = tool.header()
    assert line.startswith("# ") and "\n" not in line
    assert f"numpy {np.__version__};" in line
    assert "; blas " in line
    assert line.rsplit("; core ", 1)[1]


def test_core_unknown_without_the_symbol(tool, tmp_path, monkeypatch):
    not_a_library = tmp_path / "libscipy_openblas64_.so"
    not_a_library.write_bytes(b"")
    monkeypatch.setattr(tool.glob, "glob", lambda pattern: [str(not_a_library)])
    assert tool.blas_core() == "unknown"
    monkeypatch.setattr(tool.glob, "glob", lambda pattern: [])
    assert tool.blas_core() == "unknown"
