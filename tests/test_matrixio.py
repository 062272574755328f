import contextlib
import os
import stat
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from symhess import MatrixFormatError, read_matrix, write_matrix

posix_only = pytest.mark.skipif(sys.platform == "win32", reason="POSIX file semantics")


def fresh_bytes(tmp_path, m):
    path = tmp_path / "fresh.txt"
    write_matrix(path, m)
    return path.read_bytes()


class RecordingFile:
    """A file object that records what is written to it and raises
    OSError on write call number ``fail_at`` (never when None)."""

    def __init__(self, fh, fail_at):
        self._fh, self.fail_at, self.writes = fh, fail_at, []

    def write(self, text):
        if len(self.writes) + 1 == self.fail_at:
            raise OSError("disk full")
        self.writes.append(text)
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.fixture
def recorder(monkeypatch):
    """Every file opened through ``os.fdopen``, each a RecordingFile."""
    rec, real = types.SimpleNamespace(files=[], fail_at=None), os.fdopen

    def fdopen(fd, *args, **kwargs):
        rec.files.append(RecordingFile(real(fd, *args, **kwargs), rec.fail_at))
        return rec.files[-1]

    monkeypatch.setattr(os, "fdopen", fdopen)
    return rec


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

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "m.txt"
        for content in (b"\x89PNG\r\n\x1a\n\x00\xff", "1 1\n\u0661\n".encode()):
            path.write_bytes(content)
            with pytest.raises(MatrixFormatError, match="ASCII"):
                read_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "absent.txt")

    def test_nonpositive_dims(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 2\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)


class TestReaderContract:
    """The reader streams: it accepts any whitespace layout, keeps one line
    of tokens besides the result, and reports errors in a fixed order."""

    def test_peak_memory_near_the_matrix(self, tmp_path):
        m = np.random.default_rng(7).standard_normal((200, 200))
        path = tmp_path / "m.txt"
        write_matrix(path, m)  # 17-digit values
        tracemalloc.start()
        try:
            back = read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, m)
        assert peak < 2 * m.nbytes

    def test_bogus_header_reports_the_count(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("100000 100000\n1 2 3\n")
        tracemalloc.start()
        try:
            with pytest.raises(MatrixFormatError, match="expected 10000000000 values, found 3"):
                read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_too_many_tokens_names_the_count_found(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 2\n3 4\n5 6 7\n")
        with pytest.raises(MatrixFormatError, match="expected 4 values, found 7"):
            read_matrix(path)

    def test_wrong_count_reported_before_bad_token(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 abc\n3\n")
        with pytest.raises(MatrixFormatError, match="expected 4 values, found 3"):
            read_matrix(path)

    def test_non_ascii_reported_before_bad_token(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"2 2\n1 abc\n3 4\n" + b" " * 20000 + b"\xff\n")
        with pytest.raises(MatrixFormatError, match="ASCII"):
            read_matrix(path)

    def test_bad_token_reported_before_nonfinite(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 3\nnan 1 abc\n")
        with pytest.raises(MatrixFormatError, match="non-numeric"):
            read_matrix(path)

    @pytest.mark.parametrize("content", [
        b"2 3\n1 2 3 4 5 6\n",                 # all values on one line
        b"2 3\n1 2\n3\n4 5\n6\n",              # rows split across lines
        b"2 3\n\n 1\t2  3\n\n4\x0b5\x0c6",      # blank lines, tabs, no final newline
        b"2 3\r\n1 2 3\r\n4 5 6\r\n",          # CRLF
        b"2 3\r1 2 3\r4 5 6\r",                # CR only
    ], ids=["one_line", "split_rows", "odd_whitespace", "crlf", "cr"])
    def test_any_whitespace_layout(self, tmp_path, content):
        path = tmp_path / "m.txt"
        path.write_bytes(content)
        assert np.array_equal(read_matrix(path), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_from_a_pipe(self, tmp_path):
        # a pipe has no size, so the buffer grows as the values arrive
        m = np.random.default_rng(8).standard_normal((60, 50))
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=write_matrix, args=(fifo, m), daemon=True)
        writer.start()
        try:
            back = read_matrix(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(back, m)


class TestTokenValues:
    """Each token reads as the double ``float()`` parses it to."""

    EDGE = ["1_0", "+.5", "5.", "-0", "1E5", "1e-320", "4.9406564584124654e-324",
            "0.30000000000000004"]

    def test_edge_tokens_read_bit_for_bit(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(f"2 4\n{' '.join(self.EDGE[:5])}\n{' '.join(self.EDGE[5:])}\n")
        expect = np.array([float(tok) for tok in self.EDGE])
        got = read_matrix(path).ravel()
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))  # -0 included

    @pytest.mark.parametrize("token", ["0x10", "1__0", "1d5", "1j", "."])
    def test_token_float_refuses_is_non_numeric(self, tmp_path, token):
        path = tmp_path / "m.txt"
        path.write_text(f"1 2\n1 {token}\n")
        with pytest.raises(MatrixFormatError, match="non-numeric"):
            read_matrix(path)


class TestWriterRefuses:
    """The writer refuses what the reader refuses, before it opens the path."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry(self, tmp_path, bad):
        path = tmp_path / "m.txt"
        path.write_text("1 1\n5\n")
        with pytest.raises(ValueError, match="finite"):
            write_matrix(path, [[bad, 1.0]])
        assert path.read_text() == "1 1\n5\n"
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "new.txt", [[1.0], [bad]])
        assert not (tmp_path / "new.txt").exists()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_dimension(self, tmp_path, shape):
        path = tmp_path / "m.txt"
        path.write_text("1 1\n5\n")
        with pytest.raises(ValueError, match="positive"):
            write_matrix(path, np.zeros(shape))
        assert path.read_text() == "1 1\n5\n"
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "new.txt", np.zeros(shape))
        assert not (tmp_path / "new.txt").exists()

    def test_not_two_dimensional(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "m.txt", np.ones(3))
        assert not (tmp_path / "m.txt").exists()


class TestRewriteInPlace:
    """A rewrite overwrites the file in place and cuts it to the new length."""

    def test_smaller_over_larger_matches_fresh_write(self, tmp_path):
        rng = np.random.default_rng(3)
        small = rng.standard_normal((3, 5))
        path = tmp_path / "m.txt"
        write_matrix(path, rng.standard_normal((40, 40)) * 1e-300)
        write_matrix(path, small)
        assert path.read_bytes() == fresh_bytes(tmp_path, small)
        assert np.array_equal(read_matrix(path), small)

    @posix_only
    def test_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(5))
        os.chmod(path, 0o640)
        before = os.stat(path)
        write_matrix(path, np.ones((2, 3)))
        after = os.stat(path)
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o640
        assert np.array_equal(read_matrix(path), np.ones((2, 3)))

    @posix_only
    def test_writes_through_symlink(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        write_matrix(target, np.eye(4))
        link.symlink_to(target)
        write_matrix(link, np.full((2, 2), 7.0))
        assert link.is_symlink()
        assert target.read_bytes() == fresh_bytes(tmp_path, np.full((2, 2), 7.0))

    @posix_only
    def test_shows_through_hard_link(self, tmp_path):
        path, other = tmp_path / "m.txt", tmp_path / "other.txt"
        write_matrix(path, np.eye(4))
        os.link(path, other)
        write_matrix(path, np.full((1, 3), -2.5))
        assert other.read_bytes() == path.read_bytes()
        assert np.array_equal(read_matrix(other), np.full((1, 3), -2.5))

    @posix_only
    def test_dev_null_gets_the_regular_bytes(self, tmp_path, recorder):
        m = np.random.default_rng(5).standard_normal((4, 3))
        write_matrix(os.devnull, m)
        (null,) = recorder.files
        assert "".join(null.writes).encode() == fresh_bytes(tmp_path, m)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_gets_the_regular_bytes(self, tmp_path):
        m = np.random.default_rng(6).standard_normal((30, 7))
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []

        def drain():
            with open(fifo, "rb") as fh:
                got.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            write_matrix(fifo, m)
        finally:
            if not got:
                # unblock a reader still waiting for a writer to open the pipe
                with contextlib.suppress(OSError):
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [fresh_bytes(tmp_path, m)]

    @pytest.mark.parametrize("earlier", [False, True], ids=["no_file", "same_shape_file"])
    def test_interrupted_write_is_rejected(self, tmp_path, recorder, earlier):
        # an earlier file whose rows have the new rows' byte lengths, so a
        # partial rewrite that kept the old header would still parse
        m = np.full((4, 3), 2.0)
        path = tmp_path / "m.txt"
        if earlier:
            write_matrix(path, np.ones((4, 3)))
        # write 1 is the header placeholder, write 2 the first row
        recorder.fail_at = 3
        with pytest.raises(OSError, match="disk full"):
            write_matrix(path, m)
        assert len(recorder.files[-1].writes) == 2
        with pytest.raises(MatrixFormatError):
            read_matrix(path)
