import warnings
from pathlib import Path

import numpy as np
import pytest

import symhess


def test_every_exported_name_resolves():
    # a stale string in __all__ does not break `import symhess`, only a
    # star import
    missing = [name for name in symhess.__all__ if not hasattr(symhess, name)]
    assert missing == []
    namespace = {}
    exec("from symhess import *", namespace)
    assert set(symhess.__all__) <= set(namespace)


def test_readme_library_use_runs(capsys):
    # the README's example uses only public names, so dropping one that it
    # still calls fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    verdict, orth_loss, red_err = capsys.readouterr().out.split()
    assert verdict == "True"
    assert float(orth_loss) < 1e-8 and float(red_err) < 1e-8


def test_no_module_exports_a_name_twice():
    # the package's __all__ is the union of the modules' lists; a name in
    # two lists would be shadowed by the later star import
    assert len(set(symhess.__all__)) == len(symhess.__all__)


def test_dense_oracle_is_not_exported():
    # the dense matrix of a transform is the tests' oracle, not library API
    assert "densify" not in symhess.__all__
    assert not hasattr(symhess.transforms, "densify")


_ENTRY_POINTS = {
    "reduce": lambda a, path: symhess.reduce(a, "jhmsh"),
    "write_matrix": lambda a, path: symhess.write_matrix(path, a),
    "spectral_norm": lambda a, path: symhess.spectral_norm(a),
    "builder": lambda a, path: symhess.vlh(1, a[0]),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
def test_complex_input_refused(entry, as_list, tmp_path):
    # numpy would cast it to float64 with only a warning, dropping the
    # imaginary part, and the call would go on with another matrix
    a = np.array([[1 + 2j, 0], [0, 1]])
    path = tmp_path / "m.txt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="real"):
            _ENTRY_POINTS[entry]([list(row) for row in a] if as_list else a, path)
    assert caught == []
    assert not path.exists()
