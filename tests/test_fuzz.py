"""Property tests: every decoder either decodes its input or raises a
typed ``ToolkitError``, for arbitrary bytes and for mutated valid
encodings alike; the model factory either builds a model from a config
or raises one, and each settings dataclass either constructs or raises a
``ConfigurationError``."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vitbench import data as D
from vitbench.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from vitbench.cnn import CnnConfig
from vitbench.errors import ConfigurationError, ToolkitError
from vitbench.tensor import tnsr_decode, tnsr_encode
from vitbench.train import MODEL_KINDS, TrainConfig, make_model
from vitbench.vit import ViTConfig

_IMAGE = np.linspace(0.0, 1.0, 12).reshape(3, 2, 2)
_VALID_IMAGES = {
    "ppm": D.encode_ppm(_IMAGE),
    "pgm": b"P5\n3 2\n255\n" + bytes(range(0, 240, 40)),
    "tnsr": tnsr_encode(_IMAGE),
}
_MAGICS = [b"P5", b"P6", b"TNSR", b"OVCK"]


@st.composite
def mutations(draw, valid: bytes):
    """``valid`` with a few bytes overwritten, then cut short or extended."""
    buf = bytearray(valid)
    edits = st.tuples(st.integers(0, len(buf) - 1), st.integers(0, 255))
    for pos, byte in draw(st.lists(edits, max_size=4)):
        buf[pos] = byte
    cut = draw(st.one_of(st.just(len(buf)), st.integers(0, len(buf))))
    return bytes(buf[:cut]) + draw(st.binary(max_size=8))


@st.composite
def pnm_encodings(draw, magic: bytes):
    """A PNM file with small, possibly zero, extents and any payload."""
    w, h = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    maxval = draw(st.sampled_from([255, 0, 65535]))
    return b"%s\n%d %d\n%d\n" % (magic, w, h, maxval) + draw(st.binary(max_size=40))


@st.composite
def tnsr_encodings(draw):
    """A TNSR blob with a small, possibly empty, shape and any float values
    (NaN and infinities included), sometimes mutated."""
    shape = draw(st.lists(st.integers(0, 3), max_size=4))
    code = draw(st.sampled_from([1, 2]))
    values = draw(st.lists(st.floats(width=32 * code), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    blob = tnsr_encode(np.array(values, dtype=np.float32 if code == 1 else np.float64)
                       .reshape(shape))
    return draw(st.one_of(st.just(blob), mutations(blob)))


# arbitrary bytes, with and without a leading magic so the parsers get past it
_ANY_BYTES = st.one_of(
    st.binary(max_size=256),
    st.builds(lambda m, rest: m + rest, st.sampled_from(_MAGICS), st.binary(max_size=256)),
)


def _decode_or_typed_error(fn, data):
    try:
        return fn(data)
    except ToolkitError:
        return None


def _check_image(data, fmt):
    img = _decode_or_typed_error(lambda b: D.decode_image(b, fmt), data)
    if img is not None:
        assert img.ndim == 3 and img.size > 0
        assert np.all(np.isfinite(img)) and img.min() >= 0.0 and img.max() <= 1.0


_STRUCTURED = {
    "ppm": pnm_encodings(b"P6"),
    "pgm": pnm_encodings(b"P5"),
    "tnsr": tnsr_encodings(),
}


@pytest.mark.parametrize("fmt", sorted(_VALID_IMAGES))
class TestDecodeImage:
    def test_valid_encoding_decodes(self, fmt):
        assert D.decode_image(_VALID_IMAGES[fmt], fmt).size > 0

    @given(data=_ANY_BYTES)
    def test_any_bytes(self, fmt, data):
        _check_image(data, fmt)

    @given(data=st.data())
    def test_mutated_encoding(self, fmt, data):
        _check_image(data.draw(mutations(_VALID_IMAGES[fmt])), fmt)

    @given(data=st.data())
    def test_any_header_fields(self, fmt, data):
        _check_image(data.draw(_STRUCTURED[fmt]), fmt)


class TestTnsrDecode:
    @given(data=_ANY_BYTES)
    def test_any_bytes(self, data):
        _decode_or_typed_error(tnsr_decode, data)

    @given(data=tnsr_encodings())
    def test_any_and_mutated_encodings(self, data):
        _decode_or_typed_error(tnsr_decode, data)


@pytest.fixture(scope="module")
def ckpt_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "m.ckpt"


@pytest.fixture(scope="module")
def valid_ckpt(ckpt_path):
    params = {"a": np.arange(3.0), "head.w": np.ones((2, 2), dtype=np.float32)}
    save_checkpoint(Checkpoint(kind="vit", config={"num_classes": 2}, params=params), ckpt_path)
    return ckpt_path.read_bytes()


class TestLoadCheckpoint:
    def _load(self, path, data):
        path.write_bytes(data)
        _decode_or_typed_error(load_checkpoint, path)

    def test_valid_encoding_loads(self, ckpt_path, valid_ckpt):
        ckpt_path.write_bytes(valid_ckpt)
        assert load_checkpoint(ckpt_path).kind == "vit"

    @given(data=_ANY_BYTES)
    def test_any_bytes(self, ckpt_path, data):
        self._load(ckpt_path, data)

    @given(data=st.data())
    def test_mutated_encoding(self, ckpt_path, valid_ckpt, data):
        self._load(ckpt_path, data.draw(mutations(valid_ckpt)))


# config keys are real field names or junk; values stay small (ints up to
# 64, lists of up to three) so whatever builds allocates little
_CONFIG_KEYS = st.sampled_from(sorted(
    {f.name for f in fields(ViTConfig)} | {f.name for f in fields(CnnConfig)}
    | {"bogus", "", "Num_Classes"}))
_CONFIG_VALUES = st.one_of(
    st.integers(-2, 64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 0.5, 1.0, 2.0]),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from(["float32", "float64", "float16"]),
    st.none(),
    st.lists(st.integers(-2, 64), max_size=3),
)
_CONFIGS = st.one_of(
    st.dictionaries(_CONFIG_KEYS, _CONFIG_VALUES, max_size=4),
    st.lists(st.integers(), max_size=2),
    st.none(),
    st.text(max_size=4),
)


class TestMakeModel:
    @given(kind=st.sampled_from(MODEL_KINDS), config=_CONFIGS)
    def test_builds_or_raises_typed_error(self, kind, config):
        model = _decode_or_typed_error(lambda c: make_model(kind, c), config)
        if model is not None:
            assert model.kind == kind


@pytest.mark.parametrize("cls", [TrainConfig, D.AugmentConfig, D.SplitSpec])
class TestSettings:
    @given(data=st.data())
    def test_constructs_or_raises_configuration_error(self, cls, data):
        names = st.sampled_from([f.name for f in fields(cls)])
        kwargs = data.draw(st.dictionaries(names, _CONFIG_VALUES))
        try:
            cls(**kwargs)
        except ConfigurationError:
            pass
