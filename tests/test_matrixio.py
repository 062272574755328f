import numpy as np
import pytest

from symhess import MatrixFormatError, read_matrix, write_matrix


class TestRoundTrip:
    def test_bit_exact_random(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "m.txt"
        for _ in range(5):
            m = rng.standard_normal((4, 6)) * 10.0 ** rng.integers(-200, 200)
            write_matrix(path, m)
            assert np.array_equal(read_matrix(path), m)

    def test_bit_exact_awkward_values(self, tmp_path):
        m = np.array([[np.pi, -0.0, 1e-308, 2.0 ** -1074],
                      [1.7976931348623157e308, 1.0 / 3.0, -2.5, 0.1]])
        path = tmp_path / "m.txt"
        write_matrix(path, m)
        back = read_matrix(path)
        assert np.array_equal(back, m)
        assert np.signbit(back[0, 1])  # -0.0 survives

    def test_bytes_match_per_value_formatting(self, tmp_path):
        m = np.array([[-0.0, 2.0 ** -1074, 1.7976931348623157e308, 1.0 / 3.0],
                      [0.0, 1.0, -7.0, 123456789.0]])
        path = tmp_path / "m.txt"
        write_matrix(path, m)
        want = "2 4\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in m)
        assert path.read_bytes() == want.encode()

    def test_header_and_layout(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(2))
        lines = path.read_text().splitlines()
        assert lines[0] == "2 2"
        assert len(lines) == 3

    def test_scientific_notation_and_plain_tokens(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1.5e3 -2E-4\n.5 7\n")
        m = read_matrix(path)
        assert np.array_equal(m, [[1500.0, -2e-4], [0.5, 7.0]])


class TestErrors:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n1 2\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_nonnumeric_header(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("two 2\n1 2\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 2 3\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_nonnumeric_token(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n1 abc\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_tokens_parse_as_python_float(self, tmp_path):
        # a token is read exactly when float() reads it
        path = tmp_path / "m.txt"
        path.write_text("1 4\n1_000 +.5e1 1E-3 -2\n")
        assert np.array_equal(read_matrix(path), [[1000.0, 5.0, 1e-3, -2.0]])
        for bad in ("0x10", "1__0", "1e500"):
            path.write_text(f"1 2\n1 {bad}\n")
            with pytest.raises(MatrixFormatError):
                read_matrix(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\nnan 1\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "absent.txt")

    def test_nonpositive_dims(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 2\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)
