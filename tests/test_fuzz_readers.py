"""Property tests of the binary and TSV readers against corrupt files.

Any truncation, single-byte overwrite or overwritten length field of a
checkpoint or feature file must either load a valid object or raise
``ValueError`` (``FeatureFileError`` is one), and ``mrnn eval ppl`` on such a
file must exit 0, or exit 1 with exactly one ``error:`` line.  An exception
of any other type, such as ``MemoryError`` or ``struct.error``, fails the test.
"""

import math
import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import run_cli  # noqa: E402
from mrnn.corpus import ImageFeatureStore, load_features, save_features_tsv  # noqa: E402
from mrnn.model import ModelParams, load_checkpoint  # noqa: E402

# Deterministic, bounded and without an example database, so the suite
# reruns the same examples everywhere.
FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None)
FUZZ_CLI = settings(FUZZ, max_examples=25)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tiny corpus and checkpoint, plus a scratch path per file kind."""
    root = tmp_path_factory.mktemp("fuzz")
    data, run = root / "data", root / "run"
    run_cli("synth", "--out", str(data), "--images", "6", "--topics", "2", "--seed", "2")
    run_cli("train", "--captions", str(data / "captions.tsv"),
            "--features", str(data / "features.mrnf"),
            "--split", str(data / "split.tsv"), "--out", str(run),
            "--epochs", "1", "--d-e1", "4", "--d-e2", "4", "--d-r", "4",
            "--d-m", "4", "--seed", "1")
    save_features_tsv(load_features(data / "features.mrnf"), data / "features.tsv")
    return {"checkpoint": run / "checkpoint.mrnm", "vocab": run / "vocab.txt",
            "captions": data / "captions.tsv", "split": data / "split.tsv",
            "mrnf": data / "features.mrnf", "tsv": data / "features.tsv",
            "scratch": root / "scratch"}


def checkpoint_length_fields(blob):
    """(offset, struct format) of every dimension, count and length field."""
    fields = [(10 + 4 * k, "<I") for k in range(6)] + [(34, "<I")]
    at = 38
    for _ in range(struct.unpack_from("<I", blob, 34)[0]):
        fields.append((at, "<H"))
        at += 2 + struct.unpack_from("<H", blob, at)[0]
        fields.append((at, "<B"))
        ndim = blob[at]
        shape = struct.unpack_from(f"<{ndim}I", blob, at + 1)
        fields += [(at + 1 + 4 * k, "<I") for k in range(ndim)]
        at += 1 + 4 * ndim + 8 * math.prod(shape)
    return fields


def mrnf_length_fields(blob):
    count, dim = struct.unpack_from("<QI", blob, 8)
    fields = [(8, "<Q"), (16, "<I")]
    at = 20
    for _ in range(count):
        fields.append((at, "<H"))
        at += 2 + struct.unpack_from("<H", blob, at)[0] + 4 * dim
    return fields


LENGTH_FIELDS = {"checkpoint": checkpoint_length_fields, "mrnf": mrnf_length_fields,
                 "tsv": lambda blob: []}


def corruptions(blob, length_fields):
    """A truncation, a single-byte overwrite or an overwritten length field."""
    truncated = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    overwritten = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)).map(
        lambda pb: blob[:pb[0]] + bytes([pb[1]]) + blob[pb[0] + 1:])
    kinds = [truncated, overwritten]
    if length_fields:
        def overwrite_field(field):
            at, fmt = field
            size = struct.calcsize(fmt)
            bits = 8 * size
            # a small value misparses what follows; a large one points past the end
            values = st.integers(0, 64) | st.integers(2 ** (bits - 4), 2 ** bits - 1)
            return values.map(lambda v: blob[:at] + struct.pack(fmt, v) + blob[at + size:])
        kinds.append(st.sampled_from(length_fields).flatmap(overwrite_field))
    return st.one_of(kinds)


def write_corrupt(files, kind, data):
    blob = files[kind].read_bytes()
    path = files["scratch"].with_suffix(files[kind].suffix)
    path.write_bytes(data.draw(corruptions(blob, LENGTH_FIELDS[kind](blob))))
    return path


@FUZZ
@given(data=st.data())
def test_corrupt_checkpoint_loads_or_is_value_error(files, data):
    path = write_corrupt(files, "checkpoint", data)
    try:
        assert isinstance(load_checkpoint(path), ModelParams)
    except ValueError:
        pass


@pytest.mark.parametrize("kind", ["mrnf", "tsv"])
@FUZZ
@given(data=st.data())
def test_corrupt_features_load_or_are_value_error(files, kind, data):
    path = write_corrupt(files, kind, data)
    try:
        assert isinstance(load_features(path), ImageFeatureStore)
    except ValueError:
        pass


@pytest.mark.parametrize("kind", ["checkpoint", "mrnf", "tsv"])
@FUZZ_CLI
@given(data=st.data())
def test_eval_ppl_on_a_corrupt_file_succeeds_or_is_one_error_line(files, kind, data):
    inputs = {"checkpoint": files["checkpoint"], "features": files["mrnf"]}
    inputs["features" if kind != "checkpoint" else "checkpoint"] = write_corrupt(
        files, kind, data)
    proc = run_cli("eval", "ppl", "--checkpoint", inputs["checkpoint"],
                   "--vocab", files["vocab"], "--captions", files["captions"],
                   "--features", inputs["features"], "--split", files["split"],
                   "--subset", "all", check=False)
    if proc.returncode == 0:
        assert proc.stdout.startswith("ppl ") and proc.stderr == ""
    else:
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
