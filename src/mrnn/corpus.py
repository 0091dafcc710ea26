"""Vocabulary, caption/feature ingestion and the synthetic corpus generator.

File formats handled here:

* feature file (binary): magic ``MRNF`` | version u32 LE | count u64 LE |
  dim u32 LE | per entry: id-length u16 LE, UTF-8 id bytes, dim * f32 LE.
* feature file (TSV): ``id<TAB>v1<TAB>...<TAB>vD`` per line.
* caption file: ``image_id<TAB>caption text`` per line, UTF-8.
* split file: ``image_id<TAB>{train|val|test}`` per line.
* vocab file: one token per line, line number == token index.
"""

from __future__ import annotations

import os
import re
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import Rng

START = "##START##"
END = "##END##"
UNK = "##UNK##"
START_INDEX, END_INDEX, UNK_INDEX = 0, 1, 2
RESERVED = (START, END, UNK)

MIN_COUNT = 1  # default vocabulary cutoff: keep every word seen in training

FEATURE_MAGIC = b"MRNF"
FEATURE_VERSION = 1

# Runs of alphanumerics are tokens; every other non-space character is its
# own token.  Lowercased first, so reserved "##...##" names cannot collide
# with corpus tokens (they would split at the '#' signs).
_TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")


class FeatureFileError(ValueError):
    """Raised for malformed feature files (bad magic, dims, truncation)."""


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Bijective token<->index map with fixed reserved entries.

    Index 0 is the start sign, 1 the end sign, 2 the unknown token; corpus
    tokens follow.  ``size`` is the softmax dimension of any model built on
    this vocabulary.
    """

    def __init__(self, tokens: list[str]):
        self.index_to_token = list(RESERVED) + list(tokens)
        self.token_to_index = {t: i for i, t in enumerate(self.index_to_token)}
        if len(self.token_to_index) != len(self.index_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    @property
    def size(self) -> int:
        return len(self.index_to_token)

    def __len__(self) -> int:
        return len(self.index_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, UNK_INDEX)

    def encode(self, text: str) -> list[int]:
        """Token indices for a raw string; unknown tokens become UNK."""
        return [self.index(t) for t in tokenize(text)]

    def decode(self, indices: list[int]) -> list[str]:
        return [self.index_to_token[i] for i in indices]


def build_vocabulary(captions: list[str], min_count: int = MIN_COUNT) -> Vocabulary:
    """Vocabulary over all tokens with frequency >= min_count.

    Kept tokens are ordered by descending frequency, ties broken
    lexicographically, so construction is deterministic.
    """
    if not captions:
        raise ValueError("cannot build a vocabulary from an empty caption list")
    if min_count < 1:
        raise ValueError(f"min_count must be at least 1, got {min_count}")
    counts = Counter()
    for text in captions:
        counts.update(tokenize(text))
    kept = sorted((t for t, c in counts.items() if c >= min_count),
                  key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


@contextmanager
def utf8_text(path):
    """Decode text file ``path`` inside the block: a byte that is not UTF-8
    raises a ``ValueError`` that names the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def save_vocab(vocab: Vocabulary, path) -> None:
    Path(path).write_text("\n".join(vocab.index_to_token) + "\n", encoding="utf-8")


def load_vocab(path) -> Vocabulary:
    with utf8_text(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    if tuple(lines[:3]) != RESERVED:
        raise ValueError(f"vocab file {path} does not start with the reserved tokens")
    return Vocabulary(lines[3:])


@dataclass
class CaptionedExample:
    """One (image, caption) pair; the unit of training and evaluation.

    ``tokens`` holds vocabulary indices for the content words only; the
    start/end signs are added by the model when a sentence is framed.
    """
    image_id: str
    tokens: list[int]
    raw_text: str


class ImageFeatureStore:
    """Precomputed feature vectors: one read-only (N, d) float64 matrix whose
    rows are sorted by image id, so rankings never depend on input order.

    The constructor is where a feature matrix is validated: 2-D with dim >= 1,
    one id per row, finite entries and unique ids (an error names the first
    repeated id in id order).  A (0, d) store is legal.
    """

    def __init__(self, ids, matrix):
        matrix = np.array(matrix, dtype=np.float64)  # a copy: the store owns its rows
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError(f"feature matrix must be 2-D with dim >= 1, "
                             f"got shape {matrix.shape}")
        if len(ids) != len(matrix):
            raise ValueError(f"{len(ids)} image ids for {len(matrix)} feature rows")
        bad = ~np.isfinite(matrix).all(axis=1)
        if bad.any():
            raise ValueError(f"feature for {ids[np.argmax(bad)]!r} has NaN or infinite entries")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self._ids = [ids[i] for i in order]
        repeats = [a for a, b in zip(self._ids, self._ids[1:]) if a == b]
        if repeats:
            raise ValueError(f"duplicate image id {repeats[0]!r}")
        self._index = {image_id: row for row, image_id in enumerate(self._ids)}
        self._matrix = matrix if order == list(range(len(ids))) else matrix[order]
        self._matrix.flags.writeable = False

    @property
    def feature_dim(self) -> int:
        return self._matrix.shape[1]

    def _row(self, image_id: str) -> int:
        try:
            return self._index[image_id]
        except KeyError:
            raise KeyError(f"no feature vector for image id {image_id!r}") from None

    def get(self, image_id: str) -> np.ndarray:
        return self._matrix[self._row(image_id)]

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> list[str]:
        """All image ids in sorted order, the order of the matrix rows."""
        return list(self._ids)

    def matrix(self, image_ids: list[str] | None = None) -> np.ndarray:
        """The features of ``image_ids`` (default: every row) as one (N, d) array."""
        if image_ids is None:
            return self._matrix
        return self._matrix[[self._row(i) for i in image_ids]]


@dataclass
class DatasetSplit:
    train: list[CaptionedExample] = field(default_factory=list)
    validation: list[CaptionedExample] = field(default_factory=list)
    test: list[CaptionedExample] = field(default_factory=list)


# ---------------------------------------------------------------------------
# feature files

def save_features(store: ImageFeatureStore, path) -> None:
    """Write the binary feature format.  Values are stored as f32."""
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IQI", FEATURE_VERSION, len(store), store.feature_dim))
        for image_id, row in zip(store.ids(), store.matrix().astype("<f4")):
            raw = image_id.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(row.tobytes())


def check_length(fh, n: int, what: str, error=ValueError) -> None:
    """Refuse a declared length of ``n`` bytes, a Python int, that the rest of
    ``fh`` cannot hold; readers call it before allocating that many bytes."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise error(f"{fh.name}: truncated: {what} needs {n} bytes, {left} are left")


def read_exact(fh, into, what: str, error=ValueError):
    """Fill ``into``, a writable contiguous buffer or a byte count for a new
    ``bytearray``, from binary file ``fh`` in place and return it."""
    if isinstance(into, int):
        into = bytearray(into)
    if fh.readinto(into) != memoryview(into).nbytes:
        raise error(f"{fh.name}: truncated while reading {what}")
    return into


def _feature_store(path, ids: list[str], matrix) -> ImageFeatureStore:
    """The store of a parsed feature file; the store's checks name the file."""
    try:
        return ImageFeatureStore(ids, matrix)
    except ValueError as exc:
        raise FeatureFileError(f"{path}: {exc}") from None


def load_features(path) -> ImageFeatureStore:
    """Load a feature file, binary or TSV (sniffed by magic bytes)."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head != FEATURE_MAGIC:
            return _load_features_tsv(path)
        version, count, dim = struct.unpack("<IQI", read_exact(fh, 16, "header", FeatureFileError))
        if version != FEATURE_VERSION:
            raise FeatureFileError(f"unsupported feature file version {version}")
        if dim == 0:
            raise FeatureFileError("feature file declares dimension 0")
        # every entry holds at least its id length and its vector
        check_length(fh, count * (2 + 4 * dim), f"{count} vectors of dimension {dim}",
                     FeatureFileError)
        ids, matrix = [], np.empty((count, dim), dtype="<f4")
        for row in matrix:
            (id_len,) = struct.unpack("<H", read_exact(fh, 2, "id length", FeatureFileError))
            ids.append(read_exact(fh, id_len, "id bytes", FeatureFileError).decode("utf-8"))
            read_exact(fh, row, f"vector for {ids[-1]!r}", FeatureFileError)
        if fh.read(1):
            raise FeatureFileError("trailing bytes after declared entry count")
    return _feature_store(path, ids, matrix)


def save_features_tsv(store: ImageFeatureStore, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, row in zip(store.ids(), store.matrix().tolist()):
            vals = "\t".join(repr(v) for v in row)
            fh.write(f"{image_id}\t{vals}\n")


def _load_features_tsv(path) -> ImageFeatureStore:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise FeatureFileError(
            f"{path}: bad magic (not a binary feature file) and not UTF-8 TSV") from None
    rows: dict[str, list[float]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise FeatureFileError(f"{path}:{lineno}: expected id<TAB>values")
        try:
            row = [float(p) for p in parts[1:]]
        except ValueError:
            raise FeatureFileError(f"{path}:{lineno}: non-numeric feature value") from None
        if rows and len(row) != dim:
            raise FeatureFileError(f"{path}:{lineno}: dimension {len(row)} != {dim}")
        if parts[0] in rows:
            raise FeatureFileError(f"{path}:{lineno}: duplicate image id {parts[0]!r}")
        rows[parts[0]] = row
        dim = len(row)
    if not rows:
        raise FeatureFileError(f"{path}: no feature rows")
    return _feature_store(path, list(rows), list(rows.values()))


# ---------------------------------------------------------------------------
# caption and split files

def load_captions(path) -> list[tuple[str, str]]:
    pairs = []
    with open(path, "r", encoding="utf-8") as fh, utf8_text(path):
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected image_id<TAB>caption")
            image_id, text = line.split("\t", 1)
            pairs.append((image_id, text))
    return pairs


def save_captions(pairs: list[tuple[str, str]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, text in pairs:
            fh.write(f"{image_id}\t{text}\n")


def load_split_map(path) -> dict[str, str]:
    labels = {"train", "val", "test"}
    split = {}
    with open(path, "r", encoding="utf-8") as fh, utf8_text(path):
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or parts[1] not in labels:
                raise ValueError(f"{path}:{lineno}: expected image_id<TAB>{{train|val|test}}")
            image_id, label = parts
            if split.get(image_id, label) != label:
                raise ValueError(f"{path}:{lineno}: image id {image_id!r} assigned to two splits")
            split[image_id] = label
    return split


def save_split_map(split: dict[str, str], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in sorted(split):
            fh.write(f"{image_id}\t{split[image_id]}\n")


def make_example(vocab: Vocabulary, image_id: str, text: str) -> CaptionedExample:
    tokens = vocab.encode(text)
    if not tokens:
        raise ValueError(f"caption for image {image_id!r} tokenizes to nothing: {text!r}")
    return CaptionedExample(image_id, tokens, text)


def build_dataset(pairs: list[tuple[str, str]], split_map: dict[str, str],
                  vocab: Vocabulary) -> DatasetSplit:
    """Partition captions into train/val/test; every id must be in the split map."""
    out = DatasetSplit()
    buckets = {"train": out.train, "val": out.validation, "test": out.test}
    for image_id, text in pairs:
        if image_id not in split_map:
            raise ValueError(f"image id {image_id!r} missing from split file")
        buckets[split_map[image_id]].append(make_example(vocab, image_id, text))
    return out


# ---------------------------------------------------------------------------
# synthetic corpus

# Word banks for the first eight topics; past that, banks are synthesized.
_TOPIC_BANKS = [
    ("beach", ["sand", "waves", "surfer", "shells"], ["sunny", "warm", "calm"], ["rolls", "glitters", "drifts"]),
    ("mountain", ["summit", "glacier", "ridge", "pines"], ["snowy", "steep", "misty"], ["rises", "looms", "towers"]),
    ("city", ["tram", "skyline", "plaza", "vendors"], ["busy", "bright", "loud"], ["hums", "glows", "bustles"]),
    ("forest", ["ferns", "moss", "canopy", "creek"], ["green", "quiet", "damp"], ["whispers", "sways", "murmurs"]),
    ("desert", ["dunes", "cactus", "mesa", "camels"], ["dry", "golden", "vast"], ["shimmers", "bakes", "stretches"]),
    ("river", ["rapids", "ferry", "reeds", "herons"], ["wide", "muddy", "swift"], ["flows", "winds", "churns"]),
    ("market", ["stalls", "spices", "baskets", "lanterns"], ["crowded", "colorful", "noisy"], ["buzzes", "teems", "sprawls"]),
    ("stadium", ["crowd", "pitch", "banners", "floodlights"], ["packed", "roaring", "festive"], ["cheers", "erupts", "thunders"]),
]

_TEMPLATES = [
    "the {adj} {noun} {verb} near the {noun2}",
    "a {adj} {noun} {verb} by the {noun2}",
    "the {noun} and the {noun2} {verb} in the {topic}",
]


def _topic_bank(k: int):
    if k < len(_TOPIC_BANKS):
        return _TOPIC_BANKS[k]
    return (f"zone{k}",
            [f"zone{k}thing{j}" for j in "abcd"],
            [f"zone{k}look{j}" for j in "abc"],
            [f"zone{k}act{j}" for j in "abc"])


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the synthetic corpus generator."""
    n_topics: int = 4
    captions_per_image: int = 2
    noise_dim: int = 4
    train_frac: float = 0.8
    val_frac: float = 0.1

    def __post_init__(self):
        if min(self.n_topics, self.captions_per_image) < 1:
            raise ValueError("n_topics and captions_per_image must be >= 1")
        if self.noise_dim < 0:
            raise ValueError("noise_dim must be >= 0")
        if not (0 <= self.train_frac <= 1 and 0 <= self.val_frac <= 1
                and self.train_frac + self.val_frac <= 1 + 1e-9):  # slack for float rounding
            raise ValueError("train_frac and val_frac must lie in [0, 1] and sum to at most 1")


def generate_synthetic_corpus(rng: Rng, n_images: int, spec: SynthSpec = SynthSpec()
                              ) -> tuple[DatasetSplit, ImageFeatureStore, Vocabulary]:
    """Desk-scale corpus whose captions depend on the image features.

    Each image gets a topic; its feature vector is a one-hot topic block
    (jittered by up to 0.1) plus uniform noise dims, and its captions are drawn
    from topic-specific word banks, so caption content is predictable from
    the feature vector.  Fully deterministic given the rng seed.
    """
    if n_images < 2:
        raise ValueError("need at least 2 images")
    dim = spec.n_topics + spec.noise_dim
    features = np.zeros((n_images, dim))
    image_ids = [f"img{i:04d}" for i in range(n_images)]

    topics = [i % spec.n_topics for i in range(n_images)]
    rng.shuffle(topics)

    pairs = []
    for image_id, topic, vec in zip(image_ids, topics, features):
        vec[topic] = 1.0
        vec[:spec.n_topics] += rng.uniform(-0.1, 0.1, spec.n_topics)
        if spec.noise_dim:
            vec[spec.n_topics:] = rng.uniform(-0.5, 0.5, spec.noise_dim)

        name, nouns, adjs, verbs = _topic_bank(topic)
        # each caption's noun, noun2, template, adj and verb, in that order
        bounds = np.array([len(nouns), len(nouns), len(_TEMPLATES), len(adjs), len(verbs)],
                          dtype=np.uint64)
        picks = rng.next_u64_array(5 * spec.captions_per_image).reshape(-1, 5) % bounds
        for noun, noun2, template, adj, verb in picks.tolist():
            text = _TEMPLATES[template].format(adj=adjs[adj], noun=nouns[noun],
                                               noun2=nouns[noun2], verb=verbs[verb], topic=name)
            pairs.append((image_id, text))

    # Round-trip through f32 so the binary feature format is bit-exact.
    store = ImageFeatureStore(image_ids, features.astype(np.float32))
    shuffled = list(image_ids)
    rng.shuffle(shuffled)
    n_train = max(1, round(spec.train_frac * n_images))
    n_val = round(spec.val_frac * n_images)
    split_map = {}
    for pos, image_id in enumerate(shuffled):
        if pos < n_train:
            split_map[image_id] = "train"
        elif pos < n_train + n_val:
            split_map[image_id] = "val"
        else:
            split_map[image_id] = "test"

    train_texts = [text for image_id, text in pairs if split_map[image_id] == "train"]
    vocab = build_vocabulary(train_texts)
    dataset = build_dataset(pairs, split_map, vocab)
    return dataset, store, vocab
