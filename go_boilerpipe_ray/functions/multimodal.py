"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio decode libraries are not available in this container, so the
decode kernels are STUBBED behind an import-try: when PIL/soundfile are
absent, a clearly-marked deterministic fake decoder produces stable
metadata/features from the payload bytes.  Everything Ray-side — schema,
actor-pool stage shape, batch sizing for large binaries, output layout —
is real and tested.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray.data

def synth_media_table(n: int, payload_bytes: int = 4096, seed: int = 42) -> pa.Table:
    """Deterministic fake media corpus: opaque binary blobs with typed
    metadata columns."""
    rng = np.random.RandomState(seed)
    refs = [f"media://syn/{i}" for i in range(n)]
    kinds = ["image" if i % 3 else "audio" for i in range(n)]
    payloads = [rng.bytes(payload_bytes) for _ in range(n)]
    widths = [int(64 + (i % 16) * 32) for i in range(n)]
    heights = [int(64 + (i % 9) * 32) for i in range(n)]
    return pa.table(
        {
            "media_ref": pa.array(refs, pa.string()),
            "kind": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta_width": pa.array(widths, pa.int32()),
            "meta_height": pa.array(heights, pa.int32()),
        }
    )


class DecodeMedia:
    """Actor-pool decode/feature stage.

    Real libraries are loaded once per actor in __init__ when available;
    otherwise ``self.backend == "stub"`` and the decode is a deterministic
    hash-based fake (NOT a real decode — see module docstring)."""

    def __init__(self, feature_dim: int = 16, target_size: int = 64):
        self.feature_dim = feature_dim
        self.target_size = target_size
        # Thumbnail side for the real feature extractor: feature_dim must
        # be a perfect square (4x4 grayscale thumb for the default 16).
        self._thumb_side = int(round(feature_dim**0.5))
        try:
            from PIL import Image  # loaded ONCE per actor

            self._pil_image = Image
            self.backend = "pil"
        except ImportError:
            self._pil_image = None
            self.backend = "stub"

    def _decode_stub(self, payload: bytes) -> tuple[int, int, np.ndarray]:
        digest = hashlib.blake2b(payload, digest_size=self.feature_dim * 4).digest()
        feat = (
            np.frombuffer(digest, dtype=np.uint32).astype(np.float32)
            / np.float32(2**32)
        )
        h = int.from_bytes(digest[:4], "big")
        return (64 + h % 512, 64 + (h >> 9) % 512, feat)

    def _decode_pil(self, payload: bytes) -> tuple[int, int, np.ndarray]:
        """Real image decode: original dimensions + a grayscale-thumbnail
        feature vector in [0, 1].  Exercised by the fake-PIL contract test
        (tests/test_multimodal_backend.py) so the branch stays live even
        where the container ships no imaging libraries."""
        import io

        img = self._pil_image.open(io.BytesIO(payload))
        w, h = int(img.width), int(img.height)
        thumb = img.convert("L").resize((self._thumb_side, self._thumb_side))
        feat = (
            np.asarray(thumb, dtype=np.float32).reshape(self.feature_dim)
            / np.float32(255.0)
        )
        return (w, h, feat)

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths: list[int] = []
        heights: list[int] = []
        feats: list[list[float]] = []
        ok: list[bool] = []
        for payload, kind in zip(
            batch.column("payload").to_pylist(), batch.column("kind").to_pylist()
        ):
            # Real backend for images when the library exists; audio decode
            # stays stubbed (no soundfile in this container); any decode
            # error degrades to the deterministic stub with decoded=False.
            if self.backend == "pil" and kind == "image":
                try:
                    w, h, f = self._decode_pil(payload)
                    decoded = True
                except Exception:
                    w, h, f = self._decode_stub(payload)
                    decoded = False
            else:
                w, h, f = self._decode_stub(payload)
                decoded = self.backend != "pil"
            widths.append(w)
            heights.append(h)
            feats.append([float(x) for x in f])
            ok.append(decoded)
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "kind": batch.column("kind"),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "feature": pa.array(feats, pa.list_(pa.float32())),
                "decoded": pa.array(ok, pa.bool_()),
            }
        )


def decode_media_dataset(
    ds: "ray.data.Dataset", batch_size: int = 16, concurrency=(1, 8)
) -> "ray.data.Dataset":
    """Large-binary stage sizing: small batch_size so batch × payload size
    stays in worker heap; payloads never leave the Arrow buffers until the
    per-row decode."""
    return ds.map_batches(
        DecodeMedia,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


def frame_sample_refs(ds: "ray.data.Dataset", every_n: int = 10) -> "ray.data.Dataset":
    """Video frame-sampling plumbing: emit (media_ref, frame_idx) rows for
    every n-th frame (frame count derives from the typed metadata; the
    actual frame decode is the stubbed stage above).  The fan-out is a
    vectorized repeat/arange expansion, no per-row loop."""

    def sample(batch: pa.Table) -> pa.Table:
        w = (
            batch.column("meta_width")
            .fill_null(0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n_frames = np.maximum(1, w // 8)
        counts = (n_frames + every_n - 1) // every_n
        total = int(counts.sum())
        offsets = np.cumsum(counts) - counts
        local = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        take = pa.array(np.repeat(np.arange(len(w)), counts), pa.int64())
        return pa.table(
            {
                "media_ref": batch.column("media_ref").take(take),
                "frame_idx": pa.array((local * every_n).astype(np.int32), pa.int32()),
            }
        )

    return ds.map_batches(sample, batch_format="pyarrow", zero_copy_batch=True)

def resize_media_dataset(
    ds: "ray.data.Dataset",
    target: int = 256,
    batch_size: int = 16,
    concurrency: int | None = None,
) -> "ray.data.Dataset":
    """Aspect-preserving resize planning stage: the output dimensions and
    scale factor are computed vectorized from the typed metadata (real
    math); the pixel resampling itself would run in the decode backend
    and is stubbed like decode (payload passes through untouched)."""
    def plan(batch: pa.Table) -> pa.Table:
        # Pure integer arithmetic (floor division) so the plan is
        # bit-identical to its SQL oracle — float rounding modes (numpy
        # banker's vs SQL half-away) can never diverge.
        w = batch.column("meta_width").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        h = batch.column("meta_height").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        long_side = np.maximum(np.maximum(w, h), 1)
        s = np.minimum(long_side, target)  # never upscale
        new_w = np.maximum(1, (w * s) // long_side).astype(np.int32)
        new_h = np.maximum(1, (h * s) // long_side).astype(np.int32)
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "kind": batch.column("kind"),
                "width": pa.array(new_w, pa.int32()),
                "height": pa.array(new_h, pa.int32()),
                "scale_x1000": pa.array((1000 * s) // long_side, pa.int64()),
                "payload": batch.column("payload"),  # stub: no resample
            }
        )

    # Plain function -> elastic task pool (the planning math holds no
    # state); ``concurrency`` caps it when provided as an int.
    kwargs = {}
    if isinstance(concurrency, int):
        kwargs["concurrency"] = concurrency
    return ds.map_batches(
        plan,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        **kwargs,
    )


def synth_dup_media_table(n: int, groups: int, payload_bytes: int = 2048, seed: int = 7) -> pa.Table:
    """Media corpus with CONSTRUCTED duplicate structure: row i carries
    base payload i % groups, so binary-level dedup must recover exactly
    ``groups`` clusters with known membership — the oracle mirrors the
    construction while the operator sees only opaque bytes."""
    rng = np.random.RandomState(seed)
    bases = [rng.bytes(payload_bytes) for _ in range(groups)]
    return pa.table(
        {
            "i": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "media_ref": pa.array([f"media://dup/{i}" for i in range(n)], pa.string()),
            "kind": pa.array(
                ["image" if i % 3 else "audio" for i in range(n)], pa.string()
            ),
            "payload": pa.array([bases[i % groups] for i in range(n)], pa.binary()),
        }
    )


def media_dedup_dataset(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Exact dedup of opaque binary media: content-hash each payload
    inside map_batches (md5 of the raw bytes — the only per-row Python
    is the hash call itself, the accepted pattern for binary digests),
    then ONE keyed aggregate keeps the lowest id per content cluster.
    The shuffle moves (16-byte hex hash, int id) rows, never payloads —
    the same never-ship-the-blob discipline as dedup.exact_dedup on
    text.  Output: one row per distinct payload (representative id +
    multiplicity)."""
    import hashlib

    import pyarrow.compute as pc

    from ._util import keyed_aggregate

    def hash_payload(batch: pa.Table) -> pa.Table:
        hs = [
            hashlib.md5(p).hexdigest()
            for p in batch.column("payload").to_pylist()
        ]
        return pa.table(
            {
                "h": pa.array(hs, pa.string()),
                "i": pc.cast(batch.column("i"), pa.int64()),
            }
        )

    return keyed_aggregate(
        ds.map_batches(hash_payload, batch_format="pyarrow", zero_copy_batch=True),
        "h",
        {"rep_i": ("i", "min"), "n_copies": ("i", "count")},
    ).select_columns(["rep_i", "n_copies"])
