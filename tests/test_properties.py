"""Property tests: a mutated checkpoint or dataset file loads, or raises ``DataError``.

Any other exception fails the test.  Examples are derandomized and few, so
the suite stays fast and repeatable.
"""

import base64
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from boxkg import data, io
from boxkg.data import DataError, DropSpec
from boxkg.model import ModelConfig, init_params, load_model, save_model
from boxkg.synth import default_rules, generate_synthetic

FEW = settings(derandomize=True, max_examples=40, deadline=None, database=None)

# A feature-mode model: 3 entities, 2 classes, 1 relation, d=2, MLP 2 -> 3 -> 2.
PARAMS = init_params(
    (3, 2, 1), ModelConfig(d=2, mode="mlp-boxe", mlp_hidden=(3,), feature_dim=2), seed=40
)
TENSORS = sorted(PARAMS.param_dict())
WRITERS = {1: ref.ref_save_model_v1, 2: save_model}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@pytest.fixture(scope="module")
def checkpoints(workdir):
    """The unmutated file of each format version, as bytes."""
    files = {}
    for version, write in WRITERS.items():
        path = workdir / f"v{version}.json"
        write(PARAMS, path)
        files[version] = path.read_bytes()
    return files


def loads_or_data_error(load, path):
    try:
        return load(path)
    except DataError:
        return None


def check_checkpoint(workdir, content: bytes):
    path = workdir / "mutant.json"
    path.write_bytes(content)
    loaded = loads_or_data_error(load_model, path)
    if loaded is not None:
        for arr in loaded.param_dict().values():
            assert arr.dtype == np.float64 and np.all(np.isfinite(arr))
    return loaded


def data_span(content: bytes, name: str) -> tuple[int, int]:
    """Byte offsets of tensor ``name``'s stored data (list or string) in a file."""
    prefix = f'"{name}": {{"data": '.encode()
    start = content.index(prefix) + len(prefix)
    end = content.index(b'"shape"', start) - 2  # before the ", " ahead of "shape"
    return start, end


def set_value(payload: dict, version: int, name: str, index: int, value: float) -> None:
    entry = payload["tensors"][name]
    if version == 1:
        entry["data"][index] = value
    else:
        raw = bytearray(base64.b64decode(entry["data"]))
        raw[8 * index:8 * index + 8] = struct.pack("<d", value)
        entry["data"] = base64.b64encode(bytes(raw)).decode("ascii")


VERSIONS = st.sampled_from(sorted(WRITERS))


@FEW
@given(version=VERSIONS, cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_checkpoint(workdir, checkpoints, version, cut):
    content = checkpoints[version]  # the cut keeps at most all but "}\n"
    assert check_checkpoint(workdir, content[: int(cut * (len(content) - 1))]) is None


@FEW
@given(version=VERSIONS, name=st.sampled_from(TENSORS), at=st.floats(0.0, 1.0, exclude_max=True),
       mask=st.integers(1, 255))
def test_byte_flip_in_tensor_data(workdir, checkpoints, version, name, at, mask):
    content = bytearray(checkpoints[version])
    start, end = data_span(bytes(content), name)
    pos = start + int(at * (end - start))
    content[pos] ^= mask
    loaded = check_checkpoint(workdir, bytes(content))
    if loaded is not None:  # only the flipped tensor may differ
        for other, arr in PARAMS.param_dict().items():
            if other != name:
                assert loaded.param_dict()[other].tobytes() == arr.tobytes()


SHAPE_EDITS = {
    "negative": lambda s: [-s[0], *s[1:]],
    "bool": lambda s: [True, *s[1:]] if s[0] == 1 else [True, *s],
    "float": lambda s: [float(s[0]), *s[1:]],
    "extra-axis": lambda s: [*s, 1],
    "extra-wide-axis": lambda s: [*s, 2],
    "dropped-axis": lambda s: s[:-1],
    "string": lambda s: [str(n) for n in s],
    "scalar": lambda s: s[0],
    "null": lambda s: None,
}


@FEW
@given(version=VERSIONS, name=st.sampled_from(TENSORS), edit=st.sampled_from(sorted(SHAPE_EDITS)))
def test_shape_edit(workdir, checkpoints, version, name, edit):
    payload = json.loads(checkpoints[version])
    entry = payload["tensors"][name]
    entry["shape"] = SHAPE_EDITS[edit](entry["shape"])
    # rejected by the shape entries, the value count or the shape table
    assert check_checkpoint(workdir, json.dumps(payload).encode()) is None


@FEW
@given(version=VERSIONS, name=st.sampled_from(TENSORS), delta=st.integers(-3, 3).filter(bool))
def test_wrong_value_count(workdir, checkpoints, version, name, delta):
    payload = json.loads(checkpoints[version])
    entry = payload["tensors"][name]
    if version == 1:
        entry["data"] = (entry["data"] + [0.5] * delta) if delta > 0 else entry["data"][:delta]
    else:
        raw = base64.b64decode(entry["data"])
        raw = (raw + b"\x00" * delta) if delta > 0 else raw[:delta]
        entry["data"] = base64.b64encode(raw).decode("ascii")
    assert check_checkpoint(workdir, json.dumps(payload).encode()) is None


@FEW
@given(version=VERSIONS, name=st.sampled_from(TENSORS), where=st.floats(0.0, 1.0, exclude_max=True),
       value=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_non_finite_value(workdir, checkpoints, version, name, where, value):
    payload = json.loads(checkpoints[version])
    set_value(payload, version, name, int(where * PARAMS.param_dict()[name].size), value)
    assert check_checkpoint(workdir, json.dumps(payload).encode()) is None


def key_holders(payload: dict) -> dict[str, dict]:
    holders = {"top": payload, "config": payload["config"], "counts": payload["counts"],
               "tensors": payload["tensors"]}
    holders.update({f"tensor {name}": entry for name, entry in payload["tensors"].items()})
    return holders


@FEW
@given(version=VERSIONS, data_=st.data(), extra=st.booleans())
def test_missing_or_extra_key(workdir, checkpoints, version, data_, extra):
    payload = json.loads(checkpoints[version])
    holders = key_holders(payload)
    where = data_.draw(st.sampled_from(sorted(holders)), label="holder")
    holder = holders[where]
    if extra:
        holder["extra"] = 1
    else:
        del holder[data_.draw(st.sampled_from(sorted(holder)), label="key")]
    loaded = check_checkpoint(workdir, json.dumps(payload).encode())
    # every key is required; the tensor set and each tensor's keys are exact
    assert (loaded is None) == (not extra or where.startswith("tensor"))


# ---------------------------------------------------------------------------
# dataset directories


@pytest.fixture(scope="module")
def dataset_files(workdir):
    ds = generate_synthetic(12, 3, 2, 3, default_rules(3, 2, 0.5), seed=41)
    ds = data.drop_edges(ds, DropSpec(0.2, seed=42))
    out = io.save_dataset(ds, workdir / "dataset")
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def check_dataset(workdir, files: dict[str, bytes]):
    out = workdir / "mutant-dataset"
    out.mkdir(exist_ok=True)
    for path in out.iterdir():
        path.unlink()
    for name, content in files.items():
        (out / name).write_bytes(content)
    loaded = loads_or_data_error(io.load_dataset_dir, out)
    if loaded is not None:
        data.validate(loaded)
    return loaded


FIELD_TEXT = ["", "nan", "inf", "-1e999", "x", "k=0", "k=-2", "1,2", "\t", "#", "e0", "é",
              "１"]
DATASET_MUTATIONS = ["truncate", "flip", "drop-line", "copy-line", "field", "insert-byte"]


@FEW
@given(data_=st.data(), mutation=st.sampled_from(DATASET_MUTATIONS))
def test_mutated_dataset(workdir, dataset_files, data_, mutation):
    files = dict(dataset_files)
    name = data_.draw(st.sampled_from(sorted(files)), label="file")
    content = bytearray(files[name])
    lines = content.splitlines(keepends=True)
    at = data_.draw(st.floats(0.0, 1.0, exclude_max=True), label="at")
    pos, line = int(at * len(content)), int(at * len(lines))
    if mutation == "truncate":
        del content[pos:]
    elif mutation == "flip":
        content[pos] ^= data_.draw(st.integers(1, 255), label="mask")
    elif mutation == "drop-line":
        content = b"".join(lines[:line] + lines[line + 1:])
    elif mutation == "copy-line":
        content = b"".join(lines[: line + 1] + lines[line:])
    elif mutation == "field":
        fields = lines[line].rstrip(b"\n").split(b"\t")
        i = data_.draw(st.integers(0, len(fields) - 1), label="field")
        fields[i] = data_.draw(st.sampled_from(FIELD_TEXT), label="text").encode()
        content = b"".join(lines[:line] + [b"\t".join(fields) + b"\n"] + lines[line + 1:])
    else:
        byte = data_.draw(st.sampled_from([b"\xff", b"\xc3", b"\x00", b"\r"]), label="byte")
        content[pos:pos] = byte
    files[name] = bytes(content)
    loaded = check_dataset(workdir, files)
    if mutation == "insert-byte" and byte in (b"\xff", b"\xc3"):
        assert loaded is None  # not UTF-8
