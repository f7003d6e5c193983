"""Property tests: malformed configs and input files end in a documented
exit code (2 invalid input, 3 failed convergence, 4 unreadable file),
never in a traceback.

Every example drives ``main`` in-process on a tiny config, so a raised
exception fails the test with the input that caused it.
"""

import csv
import io
import json
import math
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skipstack.cli import PLOT_HEADERS, main
from skipstack.config import ExperimentConfig

TINY = {
    "seed": 0,
    "gammas": [0.005, 0.01, 0.04, 0.08],
    "levels": 1,
    "trials": 20,
    "n_classes": 3,
    "speeds": [1, 2],
    "samples_per_cell": 4,
    "frames": 48,
    "channels": 2,
    "noise_sigma": 0.1,
    "gmm_components": 4,
}
FIELDS = ExperimentConfig.__dataclass_fields__
DOCUMENTED = {2, 3, 4}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _is_int(value) -> bool:
    return type(value) is int


def _fits(kind: str, value) -> bool:
    """Whether ``value`` has the JSON type of a field annotated ``kind``."""
    scalar = {
        "int": _is_int,
        "float": lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
        "str": lambda v: isinstance(v, str),
    }
    if kind.startswith("tuple["):
        return isinstance(value, list) and all(map(scalar[kind[6:-6]], value))
    return scalar[kind](value)


@st.composite
def mistyped_configs(draw):
    """A tiny config with one field set to a value of the wrong JSON type."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    value = draw(json_values.filter(lambda v: not _fits(FIELDS[name].type, v)))
    return {**TINY, name: value}


@st.composite
def ranged_configs(draw):
    """A tiny config with a few numeric or list fields (``gammas``,
    ``speeds``, ``exclude``) moved to small, often invalid values."""
    ranged = sorted(name for name, f in FIELDS.items() if f.type != "str")
    names = draw(st.lists(st.sampled_from(ranged), min_size=1, max_size=3, unique=True))
    values = st.integers(-3, 3) | st.floats(-2.0, 2.0, allow_nan=False)
    changes = {}
    for name in names:
        kind = FIELDS[name].type
        scalar = kind[6:-6] if kind.startswith("tuple[") else kind
        value = values.filter(lambda v, s=scalar: _fits(s, v))
        changes[name] = draw(st.lists(value, max_size=5) if scalar != kind else value)
    return {**TINY, **changes}


def _run(workdir: Path, config: dict, verb: str) -> int:
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config))
    return main([verb, "--config", str(cfg), "--out", str(workdir / "out")])


@FUZZ
@given(config=mistyped_configs(), verb=st.sampled_from(["model-gen", "dataset-gen", "encode", "run-recognition"]))
def test_mistyped_config_exits_2(config, verb):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run(Path(tmp), config, verb) == 2


@FUZZ
@given(
    config=ranged_configs(),
    verb=st.sampled_from(
        ["model-gen", "cost-report", "sim-bounds", "sim-condition", "bernstein-check", "spectrum", "dataset-gen"]
    ),
)
@example(config={**TINY, "trials": 100, "k": 0}, verb="bernstein-check")  # TINY's 20 trials stop before k
@example(config={**TINY, "gammas": []}, verb="sim-bounds")
@example(config={**TINY, "gammas": [-10] * 4, "base_tau": 1e-4}, verb="sim-bounds")
@example(config={**TINY, "base_tau": 5e-324}, verb="cost-report")
@example(config={**TINY, "base_tau": 5e-324}, verb="sim-bounds")
def test_out_of_range_config_never_raises(config, verb):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run(Path(tmp), config, verb) in {0} | DOCUMENTED


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """dataset.bin, encodings.bin and classifier.json of the tiny config."""
    root = tmp_path_factory.mktemp("fuzz")
    for verb in ("dataset-gen", "encode", "train"):
        assert _run(root, TINY, verb) == 0
    return {name: (root / "out" / name).read_bytes() for name in ("dataset.bin", "encodings.bin", "classifier.json")}


# the verb that reads each file from the output directory
READERS = {"dataset.bin": "encode", "encodings.bin": "evaluate", "classifier.json": "evaluate"}


def _run_on(chain, name: str, data: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        out.mkdir()
        for source, original in chain.items():
            (out / source).write_bytes(original)
        (out / name).write_bytes(data)
        return _run(Path(tmp), TINY, READERS[name])


def _wrong_values(value):
    """JSON values of another type than a header's ``value``: a positive
    count, a list of integers, or a nested list of numbers."""
    if _is_int(value):
        return json_values.filter(lambda v: not (_is_int(v) and v > 0))
    if all(map(_is_int, value)):
        return json_values.filter(lambda v: not (isinstance(v, list) and all(map(_is_int, v))))
    return json_values.filter(lambda v: not isinstance(v, list))


@st.composite
def mangled_headers(draw, header: dict):
    """The header with one key dropped, mistyped or (for a split) out of
    range, or a JSON value that is not an object at all."""
    key = draw(st.sampled_from(sorted(header)))
    how = draw(st.sampled_from(["drop", "retype", "index", "not-object"]))
    if how == "not-object":
        return draw(json_values.filter(lambda v: not isinstance(v, dict)))
    if how == "drop":
        return {k: v for k, v in header.items() if k != key}
    if how == "index" and key.endswith("_idx"):
        return {**header, key: header[key] + [len(header["labels"]) + draw(st.integers(0, 5))]}
    return {**header, key: draw(_wrong_values(header[key]))}


@FUZZ
@given(data=st.data(), name=st.sampled_from(sorted(READERS)))
def test_truncated_file_exits_documented(chain, data, name):
    original = chain[name]
    # cutting a JSON document anywhere before its closing brace breaks it
    limit = len(original) - (2 if name.endswith(".json") else 1)
    cut = data.draw(st.integers(0, limit))
    assert _run_on(chain, name, original[:cut]) in DOCUMENTED


@FUZZ
@given(data=st.data(), name=st.sampled_from(["dataset.bin", "encodings.bin"]))
def test_mangled_header_exits_documented(chain, data, name):
    line, payload = chain[name].split(b"\n", 1)
    header = data.draw(mangled_headers(json.loads(line)))
    assert _run_on(chain, name, json.dumps(header).encode() + b"\n" + payload) in DOCUMENTED


@FUZZ
@given(document=json_values)
def test_mangled_classifier_exits_documented(chain, document):
    assert _run_on(chain, "classifier.json", json.dumps(document).encode()) in DOCUMENTED


@FUZZ
@given(data=st.data(), name=st.sampled_from(sorted(READERS)))
def test_corrupted_bytes_never_raise(chain, data, name):
    original = bytearray(chain[name])
    for _ in range(data.draw(st.integers(1, 4))):
        original[data.draw(st.integers(0, len(original) - 1))] = data.draw(st.integers(0, 255))
    assert _run_on(chain, name, bytes(original)) in {0} | DOCUMENTED


csv_cells = (
    st.floats().map(repr)
    | st.integers(-3, 3).map(str)
    | st.sampled_from(["", "1e16", "-1e300", "L=1", '"', "<&>"])
    | st.text(max_size=4)
)


@st.composite
def plot_inputs(draw) -> tuple[str, str]:
    """A ``--kind`` and CSV text for it: mostly the kind's header over rows
    of its width, sometimes another header, ragged rows or raw text."""
    kind = draw(st.sampled_from(sorted(PLOT_HEADERS)))
    if draw(st.integers(0, 5)) == 0:
        return kind, draw(st.text(max_size=60))
    width = len(PLOT_HEADERS[kind])
    header = draw(st.just(PLOT_HEADERS[kind]) | st.lists(csv_cells, max_size=width + 1))
    row = st.lists(csv_cells, min_size=width, max_size=width) | st.lists(csv_cells, max_size=width + 1)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *draw(st.lists(row, max_size=5))])
    return kind, text.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=plot_inputs())
@example(case=("spectrum", "level,index,sigma_normalized\n0,1e16,1\n"))  # zero-width range
@example(case=("accuracy-grid", "label,macc,map,cost\n<&>,1,1,1\n"))  # markup in a label
@example(case=("accuracy-grid", "label,macc,map,cost\n\x1f,0,0,0\n"))  # not XML at all
@example(case=("spectrum", "level,index,sigma_normalized\n0,-1e308,0\n0,1e308,1\n"))  # span overflows
@example(case=("accuracy-grid", "label,macc,map,cost\na,1.7e308,0,0\n"))  # bar top overflows
def test_plot_of_any_csv_exits_0_or_2(case):
    """Exit 0 with an SVG that parses and carries no nan or inf, or exit 2."""
    kind, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(text.encode())
        argv = ["plot", str(path), "--kind", kind, "--seed", "0", "--out", str(Path(tmp) / "out")]
        code = main(argv)
        assert code in {0, 2}
        if code == 0:
            root = ET.fromstring((Path(tmp) / "out" / f"{kind}.svg").read_text())
            # names may be any CSV cell, "nan" included, so only attributes,
            # which hold every coordinate, are searched
            for node in root.iter():
                for value in node.attrib.values():
                    assert not re.search(r"\b(nan|inf)\b", value), (node.tag, value)
